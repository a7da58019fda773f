"""Matched-filter reference imager.

Classical comparison point for the sparse recovery: a velocity-hypothesis
correlation imager that projects the full echo onto the unit-reflectivity
atom of every spatial cell at one hypothesized velocity. Resolution and
side-lobe floor are therefore bandwidth/aperture limited, which is exactly
what the comparison is meant to show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .echo import EchoMatrix, _azimuth_gate, instantaneous_range
from .model import ExtendedGrid, GridCoord
from .recovery import SparseProfile

__all__ = [
    "IntensityImage",
    "matched_filter_image",
    "profile_to_image",
    "sidelobe_metrics",
]

# Entries per table of a matched-filter pulse tile, shaped (pulses,
# ~sqrt(nr), nx * ny): tiles take as many pulses as fit, at least one.
_TILE_ELEMENTS = 65_536


@dataclass(frozen=True)
class IntensityImage:
    """Non-negative image over the spatial sub-grid (range by azimuth).

    ``velocity_hypothesis`` records the (vx, vy) the imager assumed, or
    None for images aggregated over all velocity cells.
    """

    pixels: np.ndarray
    velocity_hypothesis: tuple[float, float] | None

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64)
        object.__setattr__(self, "pixels", pixels)
        if pixels.ndim != 2:
            raise ValueError("image must be 2-D (range bins by azimuth bins)")
        if np.any(pixels < 0) or not np.all(np.isfinite(pixels)):
            raise ValueError("image pixels must be finite and non-negative")


def _hypothesis_on_grid(grid: ExtendedGrid, velocity_hypothesis) -> tuple[float, float]:
    vx, vy = velocity_hypothesis
    for value, axis, name in ((vx, grid.vx_axis(), "vx"), (vy, grid.vy_axis(), "vy")):
        if not np.any(np.isclose(axis, value, rtol=0.0, atol=1e-9)):
            raise ValueError(f"velocity hypothesis {name}={value} is not on the grid")
    return float(vx), float(vy)


def _window(tau: np.ndarray, d: np.ndarray, tp: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample bounds [lo, hi) of the range envelope ``0 <= tau - d < tp``.

    The bounds reproduce the sample kernel's mask exactly: fl(tau - d) >= 0
    holds iff tau >= d, and the upper edge is settled on fl(tau - d) < tp
    itself, since d + tp rounds.
    """
    lo = np.searchsorted(tau, d)
    hi = np.searchsorted(tau, d + tp)
    last = tau.size - 1
    while True:
        down = (hi > 0) & (tau[np.maximum(hi - 1, 0)] - d >= tp)
        up = (hi <= last) & (tau[np.minimum(hi, last)] - d < tp)
        if not (down.any() or up.any()):
            return lo, hi
        hi += up.astype(hi.dtype) - down


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z**0 .. z**(count-1) stacked on a new axis 1, by repeated products
    (relative error about count * 1e-16, far below the filter's tolerance)."""
    out = np.empty(z.shape[:1] + (count,) + z.shape[1:], dtype=np.complex128)
    out[:, 0] = 1.0
    for k in range(1, count):
        np.multiply(out[:, k - 1], z, out=out[:, k])
    return out


def matched_filter_image(
    echo: EchoMatrix, grid: ExtendedGrid, velocity_hypothesis
) -> IntensityImage:
    """Normalized correlation of the echo with every spatial atom.

    pixel[n1, n2] = |<echo, atom(n1, n2, hypothesis)>| / ||atom||, using
    the full sample grid (no row selection). The hypothesis must lie on
    the velocity grid.

    The correlation is exact up to rounding without forming any atom.
    For a pulse and a pixel with two-way delay d, let s = tau - tc and
    e = d - tc about the window centre tc = tau[mc]. The conjugate
    atom's chirp then factors as exp(-j*pi*Kr*(s - e)^2) =
    exp(-j*pi*Kr*s^2) * z^(m - mc) * exp(-j*pi*Kr*e^2) with
    z = exp(j*2*pi*Kr*e/fs). The first factor is folded into the echo
    once; the last and the carrier are one phase per (pulse, pixel).
    The linear phase over the atom's window of samples m is split as
    z^(B*a) * z^b with B about sqrt(nr): whole blocks of the window are
    one batched matrix product of the echo, reshaped (pulses, A, B), with
    per-pulse (B, pixels) power tables, and the at most two partial
    blocks at the window edges are summed directly. The window bounds,
    the azimuth gate and the atom norm (the count of unmasked samples)
    are those of ``echo.unit_echo_samples``; results agree with the
    per-sample correlation to about 1e-10 of the image peak.
    """
    vx, vy = _hypothesis_on_grid(grid, velocity_hypothesis)
    params = echo.params
    nr, na, npix = params.nr, params.na, grid.nx * grid.ny
    tau = params.fast_times()
    mc = nr // 2
    block = math.isqrt(nr - 1) + 1
    nblocks = -(-nr // block)
    # Each pulse's row is padded by one block, so an edge segment read
    # from any start up to nr stays inside the row.
    row = (nblocks + 1) * block
    offsets = (np.arange(nr) - mc).astype(np.float64)
    folded = np.zeros((na, row), dtype=np.complex128)
    np.multiply(
        echo.samples.T,
        np.exp((-1j * np.pi * params.kr / params.fs**2) * offsets * offsets),
        out=folded[:, :nr],
    )
    blocks = folded[:, : nblocks * block].reshape(na, nblocks, block)
    flat = folded.ravel()
    b = np.arange(block)[:, None]
    a = np.arange(nblocks)[:, None]
    xs = grid.x_axis()[:, None]
    ys = grid.y_axis()[None, :]
    etas = params.slow_times()
    acc = np.zeros(npix, dtype=np.complex128)
    count = np.zeros(npix)
    pulses = max(1, _TILE_ELEMENTS // (block * npix))
    for n0 in range(0, na, pulses):
        eta = etas[n0 : n0 + pulses, None, None]
        tile = eta.shape[0]
        r = instantaneous_range(xs, ys, vx, vy, eta, params.v)
        gate = np.broadcast_to(_azimuth_gate(params, ys, vy, eta), r.shape).reshape(tile, npix)
        r = r.reshape(tile, npix)
        d = (2.0 / params.c) * r
        lo, hi = _window(tau, d, params.tp)
        e = d - tau[mc]
        theta = (2.0 * np.pi * params.kr / params.fs) * e
        powers = _powers(np.exp(1j * theta), block + 1)
        # Whole blocks a*B .. a*B+B-1 inside [lo, hi), weighted by z^(a*B).
        first, stop = -(-lo // block), hi // block
        weights = _powers(powers[:, block], nblocks)
        weights *= (a >= first[:, None]) & (a < stop[:, None])
        powers = powers[:, :block]
        total = np.einsum("tap,tap->tp", blocks[n0 : n0 + tile] @ powers, weights)
        # Partial edge blocks [lo, head) and [tail, hi), each shorter than B.
        head = np.minimum(hi, first * block)
        tail = np.maximum(stop * block, head)
        rows = (np.arange(n0, n0 + tile) * row)[:, None, None] + b
        for start, end in ((lo, head), (tail, hi)):
            segment = np.take(flat, rows + start[:, None])
            segment *= b < (end - start)[:, None]
            total += np.einsum("tbp,tbp->tp", segment, powers) * np.exp(1j * theta * start)
        phase = (4.0 * np.pi * params.f0 / params.c) * r - (np.pi * params.kr) * e * e
        phase -= theta * mc
        total *= np.exp(1j * phase)
        total *= gate
        acc += total.sum(axis=0)
        count += np.where(gate, hi - lo, 0).sum(axis=0)
    pixels = np.abs(acc)
    seen = count > 0
    pixels[seen] /= np.sqrt(count[seen])
    pixels[~seen] = 0.0
    return IntensityImage(pixels.reshape(grid.nx, grid.ny), (vx, vy))


def profile_to_image(profile: SparseProfile) -> IntensityImage:
    """Collapse a 4-D profile onto the spatial grid by summing magnitudes."""
    pixels = np.zeros((profile.grid.nx, profile.grid.ny))
    for coord, value in profile.entries:
        pixels[coord.n1, coord.n2] += abs(value)
    return IntensityImage(pixels, None)


def sidelobe_metrics(image: IntensityImage, true_coords) -> tuple[float, int]:
    """Peak sidelobe ratio (dB) and -3 dB mainlobe width (range bins).

    The sidelobe level is the largest pixel outside the union of the
    one-bin neighborhoods of the true coordinates, relative to the image
    peak; an image with no energy outside those neighborhoods reports
    -inf. Width counts the contiguous run of range bins within 3 dB of
    the strongest pixel, along its azimuth column.
    """
    coords = list(true_coords)
    if not coords:
        raise ValueError("need at least one true coordinate")
    pixels = image.pixels
    peak = pixels.max()
    if peak <= 0:
        raise ValueError("cannot measure sidelobes of an empty image")

    protect = np.zeros(pixels.shape, dtype=bool)
    for coord in coords:
        n1, n2 = (coord.n1, coord.n2) if isinstance(coord, GridCoord) else coord
        lo1, hi1 = max(n1 - 1, 0), min(n1 + 2, pixels.shape[0])
        lo2, hi2 = max(n2 - 1, 0), min(n2 + 2, pixels.shape[1])
        protect[lo1:hi1, lo2:hi2] = True
    outside = pixels[~protect]
    sidelobe = outside.max() if outside.size else 0.0
    pslr_db = -np.inf if sidelobe == 0.0 else 20.0 * np.log10(sidelobe / peak)

    i, j = np.unravel_index(np.argmax(pixels), pixels.shape)
    threshold = peak * 10.0 ** (-3.0 / 20.0)
    column = pixels[:, j]
    width = 1
    step = i - 1
    while step >= 0 and column[step] >= threshold:
        width += 1
        step -= 1
    step = i + 1
    while step < column.size and column[step] >= threshold:
        width += 1
        step += 1
    return float(pslr_db), width
