"""Monte Carlo harness: random scenes, single trials, and PSR sweeps.

A trial draws a random on-grid scene, synthesizes its echo, optionally
adds noise, keeps M randomly selected samples, and runs the sparse
recovery with the true target count. A recovery counts as successful
when the relative profile error is below 0.1. Sweeps aggregate trials
over a grid of (targets, measurements, SNR) points; every random draw is
seeded by a stable hash of (base seed, point, trial), so results are
identical for any worker count.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .echo import _noise, _noiseless, noise_variance, scene_echo
from .model import ExtendedGrid, RadarParams, Scene, Target, grid_to_physical
from .operator import (
    SensingOperator,
    _check_row_caches_fit,
    sample_without_replacement,
    select_measurements,
)
from .recovery import RecoveryConfig, SparseProfile, cosamp, relative_error

__all__ = [
    "ExperimentSpec",
    "PsrPoint",
    "TrialResult",
    "derive_seed",
    "random_scene",
    "run_trial",
    "psr_sweep",
]

SUCCESS_THRESHOLD = 0.1

MODES = ("psr_vs_m", "psr_vs_snr")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts (SHA-256 based)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: which curves to trace and at what trial budget."""

    mode: str
    params: RadarParams
    grid: ExtendedGrid
    target_counts: tuple[int, ...] = ()
    measurement_counts: tuple[int, ...] = ()
    snr_values_db: tuple[float, ...] = ()
    trials_per_point: int = 1
    base_seed: int = 0
    cache_policy: str = "full-row-cache"
    workers: int = 1
    max_iterations: int = RecoveryConfig.max_iterations
    stall_tolerance: float = RecoveryConfig.stall_tolerance

    def __post_init__(self) -> None:
        # each message starts with the field at fault, which config.py names as a key
        if self.mode not in MODES:
            raise ValueError(f"mode: unknown experiment mode {self.mode!r}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point: need at least one trial per point")
        if self.workers < 1:
            raise ValueError("workers: need at least one worker")
        if self.max_iterations < 1:
            raise ValueError("max_iterations: need at least one iteration")
        if not self.stall_tolerance >= 0:  # refuses NaN too
            raise ValueError("stall_tolerance: must be non-negative")
        for snr in self.snr_values_db:
            _noiseless(snr, "snr_values_db")
        if self.mode == "psr_vs_m" and self.snr_values_db:
            raise ValueError("snr_values_db: psr_vs_m takes no SNR values")
        for name in ("target_counts", "measurement_counts"):
            if not getattr(self, name):
                raise ValueError(f"{name}: {self.mode} needs target and measurement counts")
        if self.mode == "psr_vs_snr" and not self.snr_values_db:
            raise ValueError("snr_values_db: psr_vs_snr needs a list of SNR values")
        if self.cache_policy == "full-row-cache":
            _check_row_caches_fit(max(self.measurement_counts), self.grid.size, self.pool_workers)

    @property
    def pool_workers(self) -> int:
        """Worker processes :func:`psr_sweep` starts, each with its own row cache:
        ``workers``, but no idle ones (a forked pool starts all of its workers
        at once) and no more than the CPUs this process may run on."""
        points = len(self.target_counts) * len(self.measurement_counts)
        tasks = points * max(1, len(self.snr_values_db)) * self.trials_per_point
        return min(self.workers, tasks, _usable_cpus())


@dataclass(frozen=True)
class PsrPoint:
    """Aggregated recovery statistics for one sweep point."""

    k: int
    m: int
    snr_db: float | None
    trials: int
    successes: int
    psr: float
    mean_rel_error: float


@dataclass(frozen=True)
class TrialResult:
    success: bool
    relative_error: float
    iterations: int
    halt_reason: str


def random_scene(k: int, grid: ExtendedGrid, seed: int) -> tuple[Scene, SparseProfile]:
    """Draw k distinct grid cells uniformly; unit reflectivity each."""
    if k < 0 or k > grid.size:
        raise ValueError(f"need 0 <= k <= {grid.size}, got {k}")
    if k == 0:
        return Scene(()), SparseProfile((), grid)
    flat = sample_without_replacement(k, grid.size, seed)
    truth = SparseProfile.from_flat(grid, flat, np.ones(k))
    targets = tuple(Target(*grid_to_physical(coord, grid)) for coord, _ in truth.entries)
    return Scene(targets), truth


def run_trial(
    scene: Scene,
    truth: SparseProfile,
    params: RadarParams,
    m: int,
    snr_db: float | None,
    selection_seed: int,
    noise_seed: int = 0,
    cache_policy: str = "full-row-cache",
    max_iterations: int = RecoveryConfig.max_iterations,
    stall_tolerance: float = RecoveryConfig.stall_tolerance,
) -> TrialResult:
    """Simulate, subsample, recover, and score one scene.

    Noiseless trials evaluate the true echo directly at the selected
    samples (the dictionary atoms and the simulator share one kernel, so
    the restricted scene echo and the forward model agree); noisy trials
    synthesize the full echo, set the noise level from it, and add at the
    selected samples exactly the noise :func:`add_noise` would. The
    recovery runs with the true target count and, when the noise level is
    known, an error threshold of sqrt(M * noise variance).
    """
    k = truth.flat.size
    if k < 1:
        raise ValueError("trial needs at least one target")
    noiseless = snr_db is None or _noiseless(snr_db)
    selection = select_measurements(m, params.nr * params.na, selection_seed)
    op = SensingOperator(params, truth.grid, selection, cache_policy)
    threshold = None
    if noiseless:
        y = op.forward(truth)
    else:
        echo = scene_echo(scene, params)
        variance = noise_variance(echo, snr_db)
        shape = echo.samples.shape
        # entry i of the column-stacked echo is sample (i % nr, i // nr)
        at = np.unravel_index(selection.indices, shape, order="F")
        y = echo.samples[at] + _noise(variance, noise_seed, shape, at)
        threshold = math.sqrt(m * variance)
    cfg = RecoveryConfig(
        sparsity=k,
        residual_threshold=threshold,
        max_iterations=max_iterations,
        stall_tolerance=stall_tolerance,
    )
    try:
        estimate, diag = cosamp(op, y, cfg)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return TrialResult(False, float("nan"), 0, f"solver_failure: {exc}")
    rel = relative_error(estimate, truth)
    return TrialResult(rel < SUCCESS_THRESHOLD, rel, diag.iterations, diag.halt_reason)


def _usable_cpus() -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _single_blas_thread() -> None:
    """Sweep worker initializer: run each loaded OpenBLAS on one thread.

    The worker processes are the parallelism. An OpenBLAS thread keeps
    spinning for a while after every call, so a second thread per worker
    takes CPU from the other workers' kernel evaluations (a two-worker
    sweep on a 2-vCPU Xeon ran about 20 % longer with it). Results do not
    depend on the BLAS thread count. Without /proc/self/maps, or for
    another BLAS, this does nothing.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: the handle numpy and scipy use
        except OSError:
            continue
        for symbol in (
            "openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
        ):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter(1)
                break


def _run_task(task: tuple) -> TrialResult:
    spec, k, m, snr, trial = task
    label = (spec.base_seed, spec.mode, k, m, snr, trial)
    scene, truth = random_scene(k, spec.grid, derive_seed("scene", *label))
    return run_trial(
        scene,
        truth,
        spec.params,
        m,
        snr,
        derive_seed("selection", *label),
        derive_seed("noise", *label),
        spec.cache_policy,
        spec.max_iterations,
        spec.stall_tolerance,
    )


def psr_sweep(spec: ExperimentSpec) -> list[PsrPoint]:
    """Run every sweep point and aggregate successes into PSR values."""
    # psr_vs_m has no SNR values: its one point per (k, m) is noiseless
    snrs = [float(snr) for snr in spec.snr_values_db] or [None]
    points = [
        (k, m, snr) for k in spec.target_counts for m in spec.measurement_counts for snr in snrs
    ]
    tasks = [
        (spec, k, m, snr, trial)
        for k, m, snr in points
        for trial in range(spec.trials_per_point)
    ]
    workers = spec.pool_workers
    if workers > 1:
        # not multiprocessing.Pool: there a worker that dies (say, killed for
        # memory) leaves map waiting forever; here it raises BrokenProcessPool
        with ProcessPoolExecutor(workers, initializer=_single_blas_thread) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(task) for task in tasks]

    out = []
    per_point = spec.trials_per_point
    for index, (k, m, snr) in enumerate(points):
        chunk = results[index * per_point : (index + 1) * per_point]
        successes = sum(1 for r in chunk if r.success)
        errors = [r.relative_error for r in chunk if math.isfinite(r.relative_error)]
        mean_err = float(np.mean(errors)) if errors else float("nan")
        out.append(
            PsrPoint(
                k=k,
                m=m,
                snr_db=snr,
                trials=per_point,
                successes=successes,
                psr=successes / per_point,
                mean_rel_error=mean_err,
            )
        )
    return out
