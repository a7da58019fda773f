"""Raw baseband echo synthesis for uniformly moving point scatterers.

A scatterer at (x, y) at slow time eta = 0, moving with constant speeds
(vx, vy), returns a chirp delayed by the two-way propagation time of the
exact instantaneous range

    R(eta) = sqrt((x + vx*eta)^2 + (y + (vy - v)*eta)^2).

Each sample of the baseband echo for unit reflectivity is

    w_r(tau - 2R/c) * w_a(eta - eta_c)
        * exp(j*pi*Kr*(tau - 2R/c)^2) * exp(-j*4*pi*f0*R/c)

with rectangular range envelope w_r of width tp, rectangular azimuth
envelope w_a of width na/fa centered on the target's zero-Doppler time
eta_c = y / (v - vy), and exact (not series-approximated) R. The phase
is taken in double-precision turns and reduced to one turn before it is
scaled to radians. The sensing operator's complex64 search entries round
that reduced angle to single precision, so they differ from the exact
samples by an amount that does not depend on range or carrier.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import RadarParams, Scene, Target

__all__ = [
    "EchoMatrix",
    "EmptyEchoWarning",
    "instantaneous_range",
    "unit_echo_samples",
    "point_echo",
    "scene_echo",
    "add_noise",
    "noise_variance",
]

class EmptyEchoWarning(UserWarning):
    """A target's echo missed the sample window entirely."""


@dataclass(frozen=True)
class EchoMatrix:
    """Complex baseband sample grid, nr rows (fast time) by na columns.

    Row m is fast time tau0 + m/fs; column n is centered slow time
    (n - na/2) / fa, so the aperture straddles eta = 0.
    """

    samples: np.ndarray
    params: RadarParams

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.params.nr, self.params.na):
            raise ValueError(
                f"sample grid {samples.shape} does not match "
                f"(nr, na) = ({self.params.nr}, {self.params.na})"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("echo contains non-finite samples")

    def vec(self) -> np.ndarray:
        """Column-stacked vector; entry (m, n) lands at m + nr * n."""
        return self.samples.ravel(order="F")


def instantaneous_range(x, y, vx, vy, eta, v):
    """Exact radar-to-target distance at slow time eta (broadcasts)."""
    xr = x + vx * eta
    yr = y + (vy - v) * eta
    return np.sqrt(xr * xr + yr * yr)


def unit_echo_samples(params: RadarParams, x, y, vx, vy, tau, eta) -> np.ndarray:
    """Baseband samples of a unit-reflectivity scatterer.

    All six array arguments broadcast together; the result has the
    broadcast shape. This single kernel is shared by the echo simulator
    and the dictionary atoms, so their values agree bit for bit; the
    matched-filter imager uses its range history, envelope bounds and
    azimuth gate.
    """
    r = instantaneous_range(x, y, vx, vy, eta, params.v)
    u, mask = _envelope(params, r, tau, _azimuth_gate(params, y, vy, eta))
    return _samples(params, r, u, mask)


def _azimuth_gate(params: RadarParams, y, vy, eta):
    """True where slow time eta lies inside the target's azimuth envelope."""
    eta_c = y / (params.v - vy)
    return np.abs(eta - eta_c) <= 0.5 * params.aperture_time


def _envelope(params: RadarParams, r, tau, gate) -> tuple[np.ndarray, np.ndarray]:
    """Delayed fast time u = tau - 2r/c and the mask of samples inside the
    range envelope and ``gate``. Every sample's zero pattern comes from this
    mask, so the sensing operator counts a column's nonzero entries from it
    without evaluating the samples."""
    u = np.asarray(tau - (2.0 / params.c) * r, dtype=np.float64)
    # u's shape always contains the gate's shape, so the in-place mask
    # updates broadcast safely.
    mask = u >= 0.0
    mask &= u < params.tp
    mask &= gate
    return u, mask


def _samples(params: RadarParams, r, u, mask, out=None) -> np.ndarray:
    """Samples cos + j sin of the chirp and carrier phase at exact range r and
    delayed fast time u, zeroed outside ``mask`` (u and mask from
    :func:`_envelope`), in ``out`` if given, else a new complex128 array.

    The phase is taken in float64 turns, reduced to one turn and scaled to
    radians in [-pi, pi]; cos and sin are then taken at ``out``'s precision,
    so a complex64 sample is the float32 rounding of the complex128 sample's
    own angle, whatever the range or carrier. The sensing operator calls this
    with separably built r, so everything after r is one code path.
    """
    turns = (0.5 * params.kr) * u
    turns *= u
    turns -= (2.0 * params.f0 / params.c) * r
    turns -= np.rint(turns)
    turns *= 2.0 * np.pi
    if out is None:
        out = np.empty(turns.shape, dtype=np.complex128)
    angle = turns.astype(out.real.dtype, copy=False)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    np.copyto(out, 0.0, where=np.logical_not(mask))
    return out


def point_echo(target: Target, params: RadarParams) -> EchoMatrix:
    """Full nr-by-na echo of a single target.

    Warns with :class:`EmptyEchoWarning` and returns an all-zero matrix
    when the target's delay history misses the sample window completely.
    """
    if target.vy == params.v:
        raise ValueError("azimuth speed equals platform speed: eta_c is singular")
    tau = params.fast_times()[:, None]
    eta = params.slow_times()[None, :]
    unit = unit_echo_samples(params, target.x, target.y, target.vx, target.vy, tau, eta)
    if not unit.any():
        warnings.warn(
            f"target at ({target.x}, {target.y}) falls outside the sample window",
            EmptyEchoWarning,
            stacklevel=2,
        )
    return EchoMatrix(target.reflectivity * unit, params)


def scene_echo(scene: Scene, params: RadarParams) -> EchoMatrix:
    """Superposition of the point echoes of every target in the scene."""
    total = np.zeros((params.nr, params.na), dtype=np.complex128)
    for target in scene.targets:
        total += point_echo(target, params).samples
    return EchoMatrix(total, params)


def noise_variance(echo: EchoMatrix, snr_db: float) -> float:
    """Per-sample complex noise variance realizing the requested SNR.

    SNR is defined over the signal's nonzero support: the conventional
    radar convention for sparse scenes, where most of the raw matrix is
    empty.
    """
    mags = np.abs(echo.samples)
    support = mags > 0
    if not support.any():
        raise ValueError("echo is identically zero; SNR is undefined")
    return float(np.mean(mags[support] ** 2)) * 10.0 ** (-snr_db / 10.0)


def _noiseless(snr_db: float, name: str = "snr_db") -> bool:
    """The SNR rule: finite, or +inf (True) for no noise; else a ValueError naming ``name``."""
    if snr_db == math.inf:
        return True
    if not math.isfinite(snr_db):
        raise ValueError(f"{name}: must be finite, or inf for no noise, got {snr_db!r}")
    return False


def add_noise(echo: EchoMatrix, snr_db: float, seed: int) -> EchoMatrix:
    """Add circular complex white Gaussian noise at the requested SNR.

    Deterministic per seed (counter-based Philox generator). Passing
    ``snr_db = math.inf`` returns the input unchanged.
    """
    if _noiseless(snr_db):
        return echo
    noise = _noise(noise_variance(echo, snr_db), seed, echo.samples.shape)
    return EchoMatrix(echo.samples + noise, echo.params)


def _noise(variance: float, seed: int, shape: tuple[int, int], at=...) -> np.ndarray:
    """The noise :func:`add_noise` adds to an echo of ``shape``, kept at ``at``.

    Every normal of the full shape is drawn whatever ``at`` keeps, so a
    kept sample equals the same entry of the full noise bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    real = rng.standard_normal(shape)[at]
    imag = rng.standard_normal(shape)[at]
    return math.sqrt(variance / 2.0) * (real + 1j * imag)
