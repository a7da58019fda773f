"""Greedy sparse recovery of the 4-D reflectivity profile.

Solves the subsampled linear system with compressive sampling matching
pursuit: form a signal proxy from the operator adjoint, identify the 2k
strongest candidate cells, merge with the current support, least-squares
fit on the merged support, prune to the k largest coefficients, and
update the residual. The proxy is normalized per column because the
random row restriction leaves the restricted columns with unequal norms;
the returned coefficients are plain reflectivities (normalization never
touches the fitted values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model import ExtendedGrid, GridCoord, flat_index, unflatten

__all__ = [
    "RecoveryConfig",
    "SparseProfile",
    "CosampDiagnostics",
    "cosamp",
    "relative_error",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for :func:`cosamp`.

    ``residual_threshold`` is the recovery error bound in measurement
    units; ``None`` defaults to 1e-6 times the measurement norm, a
    noiseless setting. ``stall_tolerance`` halts the iteration when the
    relative residual improvement drops below it.
    """

    sparsity: int
    residual_threshold: float | None = None
    max_iterations: int = 50
    stall_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.sparsity < 1:
            raise ValueError("sparsity must be at least 1")
        if self.residual_threshold is not None and self.residual_threshold < 0:
            raise ValueError("residual threshold must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True, eq=False, init=False)
class SparseProfile:
    """Sparse complex reflectivity profile over an :class:`ExtendedGrid`: read-only
    int64 ``flat`` cell indices and complex128 ``coefficients``, in entry order."""

    flat: np.ndarray
    coefficients: np.ndarray
    grid: ExtendedGrid

    def __init__(self, entries, grid: ExtendedGrid) -> None:
        pairs = tuple(entries)
        self._fill(grid, [flat_index(coord, grid) for coord, _ in pairs], [v for _, v in pairs])

    @classmethod
    def from_flat(cls, grid: ExtendedGrid, flat, coefficients) -> "SparseProfile":
        profile = cls.__new__(cls)
        profile._fill(grid, flat, coefficients)
        return profile

    def _fill(self, grid: ExtendedGrid, flat, coefficients) -> None:
        flat = np.array(flat, dtype=np.int64)  # private copies
        coefficients = np.array(coefficients, dtype=np.complex128)
        if flat.ndim != 1 or coefficients.shape != flat.shape:
            raise ValueError("flat indices and coefficients must be 1-D and of equal length")
        if flat.size and (flat.min() < 0 or flat.max() >= grid.size):
            raise ValueError(f"flat index outside [0, {grid.size})")
        if np.unique(flat).size != flat.size:
            raise ValueError("profile contains duplicate grid coordinates")
        flat.flags.writeable = False
        coefficients.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "grid", grid)

    @property
    def entries(self) -> tuple[tuple[GridCoord, complex], ...]:
        """Readable ``(GridCoord, reflectivity)`` pairs, in entry order."""
        pairs = zip(self.flat.tolist(), self.coefficients.tolist())
        return tuple((unflatten(g, self.grid), c) for g, c in pairs)


@dataclass
class CosampDiagnostics:
    """Per-iteration trace of a cosamp run."""

    residual_norms: list[float] = field(default_factory=list)
    support_history: list[list[int]] = field(default_factory=list)
    dropped_columns: list[int] = field(default_factory=list)
    halt_reason: str = ""
    iterations: int = 0
    best_iteration: int = -1
    final_residual_norm: float = 0.0


def _lstsq_drop_dependent(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares via column-pivoted QR, dropping dependent columns.

    Returns the coefficient vector (zeros at dropped positions) and the
    column positions that were dropped as rank-deficient.
    """
    n_cols = A.shape[1]
    if n_cols == 0:
        return np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=np.int64)
    q, r, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(n_cols, dtype=np.complex128), np.arange(n_cols, dtype=np.int64)
    tol = max(A.shape) * np.finfo(np.float64).eps * diag[0]
    rank = int(np.count_nonzero(diag > tol))
    coef = np.zeros(n_cols, dtype=np.complex128)
    rhs = q.conj().T @ y
    coef[piv[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank], rhs[:rank])
    return coef, np.asarray(piv[rank:], dtype=np.int64)


def _largest(values: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the ``count`` largest values, ties to the lowest
    position and NaN ranked last: the set that the first ``count`` entries of
    a stable argsort of ``-values`` hold, found by a partition, not a sort."""
    if count >= values.size:
        return np.arange(values.size)
    key = -values
    key[np.isnan(key)] = np.inf
    kth = np.partition(key, count - 1)[count - 1]
    ahead = np.flatnonzero(key < kth)
    ties = np.flatnonzero(key == kth)[: count - ahead.size]
    return np.union1d(ahead, ties)


def cosamp(op, y: np.ndarray, cfg: RecoveryConfig):
    """Run compressive sampling matching pursuit against a sensing operator.

    Parameters
    ----------
    op
        Sensing operator exposing ``adjoint``, ``columns``,
        ``column_norms``, ``n_cols``, and ``grid``.
    y
        Complex measurement vector (the selected echo samples).
    cfg
        Sparsity and halting configuration.

    Returns
    -------
    (SparseProfile, CosampDiagnostics)
        The best (lowest-residual) iterate found, refit by least squares
        on its own support so the returned residual is orthogonal to the
        selected columns, plus the iteration trace.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("measurement vector must be 1-D and non-empty")
    k = cfg.sparsity
    norms = op.column_norms()
    visible = np.flatnonzero(norms > 0)
    n_visible = visible.size
    if k > n_visible:
        raise ValueError(
            f"sparsity {k} exceeds the {n_visible} columns visible to the selection"
        )
    inv_norms = np.zeros_like(norms)
    inv_norms[visible] = 1.0 / norms[visible]

    y_norm = float(np.linalg.norm(y))
    eps = cfg.residual_threshold if cfg.residual_threshold is not None else 1e-6 * y_norm

    diag = CosampDiagnostics()
    support = np.zeros(0, dtype=np.int64)
    residual = y.copy()
    prev_norm = y_norm
    best_norm = y_norm
    best_support = support
    halt = ""

    if y_norm < eps:
        halt = "residual_below_threshold"

    iteration = 0
    while not halt:
        iteration += 1
        proxy = op.adjoint(residual) * inv_norms
        candidates = visible[_largest(np.abs(proxy[visible]), 2 * k)]
        merged = np.union1d(support, candidates)
        merged_cols = op.columns(merged)
        fit, dropped = _lstsq_drop_dependent(merged_cols, y)
        diag.dropped_columns.extend(int(merged[i]) for i in dropped)

        # the k largest by stable sort on negated magnitude: ties resolve to
        # the lowest index; then ascending flat order within the pruned support
        keep = np.argsort(-np.abs(fit), kind="stable")[:k]
        keep.sort()
        support = merged[keep]
        coef = fit[keep]
        residual = y - merged_cols[:, keep] @ coef
        r_norm = float(np.linalg.norm(residual))

        diag.residual_norms.append(r_norm)
        diag.support_history.append([int(g) for g in support])

        if r_norm < best_norm:
            best_norm = r_norm
            best_support = support
            diag.best_iteration = iteration

        if r_norm < eps:
            halt = "residual_below_threshold"
        elif iteration >= cfg.max_iterations:
            halt = "max_iterations"
        elif (prev_norm - r_norm) < cfg.stall_tolerance * prev_norm:
            halt = "stalled"
        prev_norm = r_norm

    diag.iterations = iteration
    diag.halt_reason = halt

    # Refit on the winning support so the final residual is the exact
    # least-squares residual of that support.
    if best_support.size:
        cols = op.columns(best_support)
        fit, dropped = _lstsq_drop_dependent(cols, y)
        diag.dropped_columns.extend(int(best_support[i]) for i in dropped)
        diag.final_residual_norm = float(np.linalg.norm(y - cols @ fit))
        profile = SparseProfile.from_flat(op.grid, best_support, fit)
    else:
        diag.final_residual_norm = y_norm
        profile = SparseProfile((), op.grid)
    return profile, diag


def relative_error(estimate: SparseProfile, truth: SparseProfile) -> float:
    """l2 error of the dense embeddings, normalized by the truth norm."""
    if estimate.grid != truth.grid:
        raise ValueError("profiles live on different grids")
    truth_dense = np.zeros(truth.grid.size, dtype=np.complex128)
    truth_dense[truth.flat] = truth.coefficients
    truth_norm = float(np.linalg.norm(truth_dense))
    if truth_norm == 0.0:
        raise ValueError("relative error is undefined for a zero truth profile")
    estimate_dense = np.zeros(truth.grid.size, dtype=np.complex128)
    estimate_dense[estimate.flat] = estimate.coefficients
    return float(np.linalg.norm(estimate_dense - truth_dense)) / truth_norm
