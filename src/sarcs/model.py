"""Geometry and indexing primitives shared by the whole package.

Radar constants, point-target descriptions, and the discretized 4-D
search space (range position, azimuth position, range speed, azimuth
speed). No signal math lives here; the simulator and the sensing
operator both build on these types so that coordinate and index
conventions are fixed in exactly one place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadarParams",
    "Target",
    "Scene",
    "ExtendedGrid",
    "GridCoord",
    "flat_index",
    "unflatten",
    "grid_to_physical",
    "check_simulation_geometry",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class RadarParams:
    """Platform, waveform, and sampling constants of the side-looking SAR.

    Attributes
    ----------
    v : float
        Platform speed along the azimuth axis (m/s).
    f0 : float
        Carrier frequency (Hz).
    tp : float
        Pulse width (s).
    bandwidth : float
        Transmitted signal bandwidth (Hz).
    fs : float
        Fast-time (range) sample rate (Hz).
    fa : float
        Pulse repetition frequency, i.e. the slow-time sample rate (Hz).
    nr, na : int
        Number of range samples per pulse and number of pulses.
    tau0 : float
        Fast time of the first range sample (s). Two-way delay of the
        nearest point of interest.
    c : float
        Propagation speed (m/s).
    """

    v: float
    f0: float
    tp: float
    bandwidth: float
    fs: float
    fa: float
    nr: int
    na: int
    tau0: float
    c: float = 3.0e8

    def __post_init__(self) -> None:
        _require(self.v > 0, "platform speed must be positive")
        _require(self.f0 > 0, "carrier must be positive")
        _require(self.tp > 0 and self.bandwidth > 0, "pulse must be positive")
        _require(self.fs > 0, "range sample rate must be positive")
        _require(self.fa > 0, "prf must be positive")
        _require(self.na >= 1, "need at least one pulse")
        _require(self.tau0 >= 0, "range window start must be non-negative")
        # -1e-6 guards against float roundoff in tp * fs (e.g. 1e-5 * 1.2e8).
        _require(
            self.nr >= math.ceil(self.tp * self.fs - 1e-6),
            "range window shorter than the transmitted pulse",
        )

    @property
    def kr(self) -> float:
        """Chirp rate of the transmitted pulse, bandwidth / tp (Hz/s)."""
        return self.bandwidth / self.tp

    @property
    def aperture_time(self) -> float:
        """Total slow-time span Ta = na / fa (s)."""
        return self.na / self.fa

    def fast_times(self) -> np.ndarray:
        """Fast-time instants tau_m = tau0 + m / fs, m = 0..nr-1."""
        return self.tau0 + np.arange(self.nr) / self.fs

    def slow_times(self) -> np.ndarray:
        """Centered slow-time instants eta_n = (n - na/2) / fa, n = 0..na-1."""
        return (np.arange(self.na) - self.na / 2) / self.fa


@dataclass(frozen=True)
class Target:
    """Uniformly moving point scatterer.

    Position (x, y) is the slant-plane location at slow time eta = 0;
    vx and vy are the constant range and azimuth speeds (m/s).
    """

    x: float
    y: float
    vx: float
    vy: float
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        for name in ("x", "y", "vx", "vy", "reflectivity"):
            _require(cmath.isfinite(getattr(self, name)), f"{name} must be finite")


@dataclass(frozen=True)
class Scene:
    """Ordered collection of point targets; may be empty."""

    targets: tuple[Target, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class ExtendedGrid:
    """Discretized 4-D target space.

    Cell (n1, n2, p, q) maps to the physical point
        x = x0 + dx * n1,   y  = y0 + dy * n2,
        vx = vx0 + dvx * p, vy = vy0 + dvy * q.
    Flat indices stack n1 fastest, then n2, then p, then q, matching the
    column-stacking order used to vectorize echo matrices.
    """

    x0: float
    y0: float
    vx0: float
    vy0: float
    dx: float
    dy: float
    dvx: float
    dvy: float
    nx: int
    ny: int
    nvx: int
    nvy: int

    def __post_init__(self) -> None:
        _require(
            self.dx > 0 and self.dy > 0 and self.dvx > 0 and self.dvy > 0,
            "all bin sizes must be positive",
        )
        _require(
            self.nx >= 1 and self.ny >= 1 and self.nvx >= 1 and self.nvy >= 1,
            "all grid counts must be at least 1",
        )

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nvx * self.nvy

    def x_axis(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y_axis(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def vx_axis(self) -> np.ndarray:
        return self.vx0 + self.dvx * np.arange(self.nvx)

    def vy_axis(self) -> np.ndarray:
        return self.vy0 + self.dvy * np.arange(self.nvy)


@dataclass(frozen=True)
class GridCoord:
    """Integer coordinates (n1, n2, p, q) of one grid cell."""

    n1: int
    n2: int
    p: int
    q: int


def _check_coord(coord: GridCoord, grid: ExtendedGrid) -> None:
    ok = (
        0 <= coord.n1 < grid.nx
        and 0 <= coord.n2 < grid.ny
        and 0 <= coord.p < grid.nvx
        and 0 <= coord.q < grid.nvy
    )
    _require(ok, f"coordinate {coord} outside grid {grid.nx}x{grid.ny}x{grid.nvx}x{grid.nvy}")


def flat_index(coord: GridCoord, grid: ExtendedGrid) -> int:
    """Flat position of a cell: n1 fastest, then n2, then p, then q."""
    _check_coord(coord, grid)
    return coord.n1 + grid.nx * (coord.n2 + grid.ny * (coord.p + grid.nvx * coord.q))


def unflatten(flat: int, grid: ExtendedGrid) -> GridCoord:
    """Inverse of :func:`flat_index`."""
    _require(0 <= flat < grid.size, f"flat index {flat} outside [0, {grid.size})")
    n1 = flat % grid.nx
    rest = flat // grid.nx
    n2 = rest % grid.ny
    rest //= grid.ny
    p = rest % grid.nvx
    q = rest // grid.nvx
    return GridCoord(n1, n2, p, q)


def grid_to_physical(coord: GridCoord, grid: ExtendedGrid) -> tuple[float, float, float, float]:
    """Physical (x, y, vx, vy) of a grid cell."""
    _check_coord(coord, grid)
    return (
        grid.x0 + grid.dx * coord.n1,
        grid.y0 + grid.dy * coord.n2,
        grid.vx0 + grid.dvx * coord.p,
        grid.vy0 + grid.dvy * coord.q,
    )


def check_simulation_geometry(params: RadarParams, grid: ExtendedGrid) -> None:
    """Validate that a radar/grid pair can be simulated together.

    The fast-time window [tau0, tau0 + nr/fs] must contain the two-way
    delay of every grid position (taken at eta = 0) plus one full pulse
    width, and no azimuth speed candidate may equal the platform speed.
    """
    vys = grid.vy_axis()
    if np.any(vys == params.v):
        raise ValueError("grid contains an azimuth speed equal to the platform speed")
    xs = grid.x_axis()
    ys = grid.y_axis()
    delays = 2.0 * np.hypot(xs[:, None], ys[None, :]) / params.c
    slack = 1e-15
    if delays.min() < params.tau0 - slack:
        raise ValueError(
            f"range window starts after the nearest grid echo "
            f"({delays.min():.9e} s < tau0 = {params.tau0:.9e} s)"
        )
    window_end = params.tau0 + params.nr / params.fs
    if delays.max() + params.tp > window_end + slack:
        raise ValueError(
            f"range window ends before the farthest grid echo "
            f"({delays.max() + params.tp:.9e} s > {window_end:.9e} s)"
        )
