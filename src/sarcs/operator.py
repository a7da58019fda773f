"""Matrix-free sensing operator over the 4-D target grid.

The implied dictionary has one column per grid cell: the vectorized echo
of a unit-reflectivity target at that cell, with matrix entry (m, n)
stacked to flat position m + nr * n. The full matrix (nr*na rows by
nx*ny*nvx*nvy columns, ~1.3 TB at production scale) is never formed;
only its restriction to M randomly selected sample rows is evaluated,
exactly and on the fly in column tiles. CoSaMP ranks candidates from
complex64 search entries: held in an M-by-N search cache (8 * M * N bytes)
where the memory rule allows, else streamed in the same tiles. The echo
kernel makes both from one phase, in float64 turns reduced to one turn; a
search entry takes cos and sin of that angle rounded to float32, so it is
within ``_SEARCH_ENTRY_ERROR`` of the exact entry whatever the range or
carrier. Search entries only rank, so every product and atom the operator
returns otherwise stays exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .echo import _azimuth_gate, _envelope, _samples
from .model import ExtendedGrid, RadarParams, check_simulation_geometry

__all__ = [
    "MeasurementSelection",
    "SensingOperator",
    "select_measurements",
    "sample_without_replacement",
]

# Matrix entries per evaluation tile, sized so a tile's float temporaries
# (~0.5 MB each) stay in cache. A tile holds at least one (p, q) pair.
_BLOCK_ELEMENTS = 65_536

# Bound on |search entry - exact atom entry|. Both come from one float64
# phase in turns, reduced to one turn and scaled to [-pi, pi] (echo._samples);
# rounding that angle to float32 moves it by at most half an ulp at pi,
# 2**-23 ~ 1.2e-7 rad, and float32 cos and sin add about one ulp of a value
# below 1, 6e-8 each. Neither grows with range or carrier: the production
# grid measures 2.0e-7, the smoke grid from 2 km to 36 000 km at up to 35 GHz
# at most 1.9e-7.
_SEARCH_ENTRY_ERROR = 5e-7


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _fitting_cache_policy(rows: int, cols: int, caches: int = 1) -> str:
    """The memory rule: cache when ``caches`` M-by-N complex64 search caches fit in RAM."""
    return "full-row-cache" if caches * rows * cols * 8 <= _physical_memory_bytes() else "none"


def _check_row_caches_fit(rows: int, cols: int, caches: int = 1) -> None:
    """Refuse a "full-row-cache" that breaks the memory rule; one per sweep worker."""
    if _fitting_cache_policy(rows, cols, caches) == "none":
        raise ValueError(
            f"{caches} full-row-cache(s) of {rows} x {cols} complex64 entries exceed the "
            f"{_physical_memory_bytes() / 1e9:.1f} GB of physical memory; use cache_policy='none'"
        )


def _rand_below(rng: np.random.Generator, n: int) -> int:
    # Unbiased bounded draw by rejection on raw 64-bit Philox words, so the
    # selection depends only on the generator's bit stream.
    span = 1 << 64
    limit = span - span % n
    while True:
        word = int(rng.integers(0, span, dtype=np.uint64))
        if word < limit:
            return word % n


def sample_without_replacement(m: int, total: int, seed: int) -> np.ndarray:
    """Uniform m-subset of [0, total), sorted ascending, Philox-seeded.

    Partial Fisher-Yates over a virtual identity array; deterministic for
    a fixed seed.
    """
    if not 1 <= m <= total:
        raise ValueError(f"need 1 <= m <= total, got m={m}, total={total}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    picked = np.empty(m, dtype=np.int64)
    displaced: dict[int, int] = {}
    for i in range(m):
        j = i + _rand_below(rng, total - i)
        picked[i] = displaced.get(j, j)
        displaced[j] = displaced.get(i, i)
    picked.sort()
    return picked


@dataclass(frozen=True)
class MeasurementSelection:
    """Strictly increasing flat sample indices plus the seed that made them."""

    indices: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        indices = np.array(self.indices, dtype=np.int64)  # private copy
        if indices.ndim != 1 or indices.size < 1:
            raise ValueError("selection must be a non-empty 1-D index array")
        if indices[0] < 0 or np.any(np.diff(indices) <= 0):
            raise ValueError("selection indices must be strictly increasing and non-negative")
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    @property
    def m(self) -> int:
        return int(self.indices.size)


def select_measurements(m: int, total: int, seed: int) -> MeasurementSelection:
    """Draw m of the total echo samples uniformly without replacement."""
    return MeasurementSelection(sample_without_replacement(m, total, seed), seed)


class SensingOperator:
    """Restriction of the echo dictionary to M selected sample rows.

    Parameters
    ----------
    params, grid
        Radar constants and the 4-D search grid; validated as a pair.
    selection
        Flat sample indices (into the column-stacked echo vector).
    cache_policy
        "none" evaluates atoms and search entries on the fly in column
        tiles; "full-row-cache" builds the complex64 search entries once as
        an M-by-N matrix (8 * M * N bytes). Either way
        ``adjoint(..., search=True)`` ranks from the same complex64 entries,
        and ``columns``, ``forward`` and the default ``adjoint`` are exact
        float64.
    """

    def __init__(
        self,
        params: RadarParams,
        grid: ExtendedGrid,
        selection: MeasurementSelection,
        cache_policy: str = "none",
    ) -> None:
        if cache_policy not in ("none", "full-row-cache"):
            raise ValueError(f"unknown cache policy {cache_policy!r}")
        check_simulation_geometry(params, grid)
        total = params.nr * params.na
        if selection.indices[-1] >= total:
            raise ValueError("selection index beyond nr * na")
        if cache_policy == "full-row-cache":
            _check_row_caches_fit(selection.m, grid.size)
        self.params = params
        self.grid = grid
        self.selection = selection
        self.cache_policy = cache_policy
        m_idx = selection.indices % params.nr
        n_idx = selection.indices // params.nr
        # Column vectors so a (G,) batch of grid columns broadcasts to (M, G).
        self._tau = (params.tau0 + m_idx / params.fs)[:, None]
        # The squared range separates: (x + vx*eta)^2 depends on (row, p, n1),
        # (y + (vy - v)*eta)^2 and the azimuth gate on (row, q, n2). The tables
        # repeat instantaneous_range's operations in its order, so every atom
        # sample is bit-identical to the kernel's.
        eta = ((n_idx - params.na / 2) / params.fa)[:, None, None]
        xr = grid.x_axis() + grid.vx_axis()[:, None] * eta
        yr = grid.y_axis() + (grid.vy_axis() - params.v)[:, None] * eta
        self._xr2 = xr * xr  # (M, nvx, nx)
        self._yr2 = yr * yr  # (M, nvy, ny)
        self._gate = _azimuth_gate(params, grid.y_axis(), grid.vy_axis()[:, None], eta)
        self._cache: np.ndarray | None = None
        self._norms: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.selection.m

    @property
    def n_cols(self) -> int:
        return self.grid.size

    def _tiles(self, dtype, cache: np.ndarray | None = None):
        """Consecutive tiles of whole (p, q) velocity pairs as (start, stop,
        block): the M x (stop - start) :func:`_samples` of columns start..stop
        at ``dtype``, written into ``cache[:, start:stop]`` when a cache is
        given. The range is a broadcast sum of the separable tables, over
        M x pairs x ny x nx, so the columns are its last three axes flattened.
        While the column norms are unknown, each tile's mask counts are
        recorded, and a finished walk sets the norms."""
        grid = self.grid
        cells = grid.nx * grid.ny
        pairs = grid.nvx * grid.nvy
        step = max(1, _BLOCK_ELEMENTS // (self.n_rows * cells))
        tau = self._tau[:, :, None, None]
        counts = np.empty(self.n_cols) if self._norms is None else None
        for first in range(0, pairs, step):
            pq = np.arange(first, min(first + step, pairs))
            ps, qs = pq % grid.nvx, pq // grid.nvx
            start, stop = first * cells, (pq[-1] + 1) * cells
            r = np.sqrt(self._xr2[:, ps, None, :] + self._yr2[:, qs, :, None])
            u, mask = _envelope(self.params, r, tau, self._gate[:, qs, :, None])
            r, u, mask = (a.reshape(self.n_rows, -1) for a in (r, u, mask))
            if counts is not None:
                counts[start:stop] = mask.sum(axis=0)
            out = np.empty(mask.shape, dtype) if cache is None else cache[:, start:stop]
            yield start, stop, _samples(self.params, r, u, mask, out)
            del out  # a caller that drops the block frees it before the next tile
        if counts is not None:
            self._norms = np.sqrt(counts, out=counts)

    def _ensure_cache(self) -> None:
        """Build the complex64 search cache, recording the column norms too."""
        if self.cache_policy == "full-row-cache" and self._cache is None:
            cache = np.empty((self.n_rows, self.n_cols), dtype=np.complex64)
            for _ in self._tiles(np.complex64, cache):
                pass
            self._cache = cache

    def columns(self, flat: np.ndarray) -> np.ndarray:
        """Explicit M-by-K restricted columns for the given flat indices,
        gathered exactly from the separable tables, in Fortran order."""
        flat = np.asarray(flat, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self.n_cols):
            raise ValueError(f"column index outside [0, {self.n_cols})")
        grid = self.grid
        q, p, n2, n1 = np.unravel_index(flat, (grid.nvy, grid.nvx, grid.ny, grid.nx))
        r = np.sqrt(self._xr2[:, p, n1] + self._yr2[:, q, n2])
        u, mask = _envelope(self.params, r, self._tau, self._gate[:, q, n2])
        return np.asfortranarray(_samples(self.params, r, u, mask))

    def forward(self, profile) -> np.ndarray:
        """Apply the restricted dictionary to a :class:`SparseProfile`:
        y[i] = sum_g a[g] * atom_g[i] over the profile's columns only."""
        if profile.grid != self.grid:
            raise ValueError("profile grid does not match the operator grid")
        if profile.flat.size == 0:
            return np.zeros(self.n_rows, dtype=np.complex128)
        return self.columns(profile.flat) @ profile.coefficients

    def adjoint(self, residual: np.ndarray, search: bool = False) -> np.ndarray:
        """Conjugate-transpose product: out[g] = sum_i conj(atom_g[i]) r[i].

        Exact complex128, one tile of atoms at a time. ``search=True`` asks
        only for a proxy to rank columns by, answered in complex64 from the
        search entries: from the search cache once the "full-row-cache"
        policy has built it, else from the same entries streamed in the same
        tiles as the exact product.
        """
        residual = np.asarray(residual, dtype=np.complex128)
        if residual.shape != (self.n_rows,):
            raise ValueError(f"residual must have shape ({self.n_rows},)")
        r_conj = residual.conj()
        if search:
            self._ensure_cache()
            r_conj = r_conj.astype(np.complex64)
            if self._cache is not None:
                out = r_conj @ self._cache
                return np.conj(out, out=out)
        out = np.empty(self.n_cols, dtype=r_conj.dtype)
        for start, stop, block in self._tiles(r_conj.dtype):
            # out= keeps one product temporary alive, not two
            np.conj(r_conj @ block, out=out[start:stop])
            del block
        return out

    def column_norms(self) -> np.ndarray:
        """l2 norm of every restricted column; zero marks unseen atoms.

        Every unmasked entry is cos + j sin of one phase, so a norm is the
        square root of the column's count of unmasked entries. The first
        walk over the tiles records the counts: the search cache build, a
        streamed adjoint, or else a complex64 walk here.
        """
        self._ensure_cache()
        if self._norms is None:
            for _ in self._tiles(np.complex64):
                pass
        return self._norms
