import ctypes
import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from sarcs import experiments, operator
from sarcs.echo import add_noise, noise_variance, scene_echo
from sarcs.experiments import (
    ExperimentSpec,
    TrialResult,
    derive_seed,
    psr_sweep,
    random_scene,
    run_trial,
)
from sarcs.model import flat_index, grid_to_physical
from sarcs.operator import select_measurements


def _openblas_threads() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts


def _task_reporting_blas_threads(task) -> TrialResult:
    counts = _openblas_threads()
    return TrialResult(all(c == 1 for c in counts), 0.0, 0, f"openblas threads {counts}")


def _task_killing_its_worker(task) -> TrialResult:
    os._exit(1)


class TestDeriveSeed:
    def test_stable_across_calls_and_runs(self):
        # frozen value pins the seed derivation for reproducibility
        assert derive_seed("scene", 1, "psr_vs_m", 2, 3, None, 0) == 3908333719671169154

    def test_distinct_labels_decorrelate(self):
        seeds = {
            derive_seed(label, 1, "psr_vs_m", 2, 3, None, 0)
            for label in ("scene", "selection", "noise")
        }
        assert len(seeds) == 3

    def test_sensitive_to_every_part(self):
        base = derive_seed("scene", 1, "psr_vs_m", 2, 3, None, 0)
        assert derive_seed("scene", 1, "psr_vs_m", 2, 3, None, 1) != base
        assert derive_seed("scene", 2, "psr_vs_m", 2, 3, None, 0) != base
        assert derive_seed("scene", 1, "psr_vs_m", 2, 3, 5.0, 0) != base


class TestRandomScene:
    def test_zero_targets_gives_empty_scene(self, grid):
        scene, truth = random_scene(0, grid, seed=1)
        assert scene.targets == ()
        assert truth.entries == ()

    def test_deterministic_per_seed(self, grid):
        a_scene, a_truth = random_scene(3, grid, seed=7)
        b_scene, b_truth = random_scene(3, grid, seed=7)
        assert a_scene == b_scene
        assert a_truth.entries == b_truth.entries

    def test_draws_distinct_cells(self, grid):
        for seed in range(50):
            _, truth = random_scene(4, grid, seed=seed)
            flats = truth.flat
            assert np.unique(flats).size == 4

    def test_targets_match_truth_coordinates(self, grid):
        scene, truth = random_scene(3, grid, seed=11)
        for target, (coord, value) in zip(scene.targets, truth.entries):
            assert value == 1.0 + 0.0j
            assert grid_to_physical(coord, grid) == (
                target.x, target.y, target.vx, target.vy,
            )

    def test_rejects_too_many(self, grid):
        with pytest.raises(ValueError):
            random_scene(grid.size + 1, grid, seed=0)


class TestRunTrial:
    def test_noiseless_small_trial_succeeds(self, params, grid):
        scene, truth = random_scene(1, grid, seed=5)
        result = run_trial(scene, truth, params, m=16, snr_db=None, selection_seed=5)
        assert result.success
        assert result.relative_error < 1e-6

    def test_deterministic(self, params, grid):
        scene, truth = random_scene(2, grid, seed=9)
        a = run_trial(scene, truth, params, m=20, snr_db=10.0, selection_seed=9, noise_seed=3)
        b = run_trial(scene, truth, params, m=20, snr_db=10.0, selection_seed=9, noise_seed=3)
        assert a == b

    def test_noisy_samples_are_add_noise_samples_bit_for_bit(self, params, grid, monkeypatch):
        # the trial draws its noise only at the kept samples; they and the
        # threshold must be what the full add_noise echo gives there
        seen = []

        def capture(op, y, cfg):
            seen.append((y, cfg.residual_threshold))
            raise np.linalg.LinAlgError("captured")

        monkeypatch.setattr(experiments, "cosamp", capture)
        m = 24
        for seed, snr in enumerate((-5.0, 5.0, 20.0, 0.5)):
            scene, truth = random_scene(2, grid, seed=seed)
            run_trial(scene, truth, params, m, snr, selection_seed=seed, noise_seed=100 + seed)
            clean = scene_echo(scene, params)
            indices = select_measurements(m, params.nr * params.na, seed).indices
            y, threshold = seen[-1]
            assert y.tobytes() == add_noise(clean, snr, 100 + seed).vec()[indices].tobytes()
            assert threshold == math.sqrt(m * noise_variance(clean, snr))

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_non_finite_snr_rejected_naming_it(self, params, grid, snr):
        scene, truth = random_scene(1, grid, seed=5)
        with pytest.raises(ValueError, match="snr_db: must be finite, or inf"):
            run_trial(scene, truth, params, m=16, snr_db=snr, selection_seed=5)

    def test_zero_measurements_rejected(self, params, grid):
        scene, truth = random_scene(1, grid, seed=5)
        with pytest.raises(ValueError):
            run_trial(scene, truth, params, m=0, snr_db=None, selection_seed=5)

    def test_empty_truth_rejected(self, params, grid):
        scene, truth = random_scene(0, grid, seed=5)
        with pytest.raises(ValueError, match="at least one target"):
            run_trial(scene, truth, params, m=10, snr_db=None, selection_seed=5)

    def test_noiseless_full_scale_single_target(self, full_params, full_grid):
        scene, truth = random_scene(1, full_grid, seed=2024)
        result = run_trial(scene, truth, full_params, m=40, snr_db=None, selection_seed=2024)
        assert result.success


class TestExperimentSpec:
    def test_sweep_mode_needs_lists(self, params, grid):
        with pytest.raises(ValueError, match="target and measurement"):
            ExperimentSpec(mode="psr_vs_m", params=params, grid=grid)

    def test_snr_sweep_needs_snr_values(self, params, grid):
        with pytest.raises(ValueError, match="SNR"):
            ExperimentSpec(
                mode="psr_vs_snr", params=params, grid=grid,
                target_counts=(1,), measurement_counts=(10,),
            )

    def test_noiseless_sweep_takes_no_snr_values(self, params, grid):
        # psr_sweep would run such a spec noiseless and report snr_db = None
        with pytest.raises(ValueError, match="snr_values_db: psr_vs_m takes no SNR values"):
            ExperimentSpec(
                mode="psr_vs_m", params=params, grid=grid,
                target_counts=(1,), measurement_counts=(10,), snr_values_db=(5.0,),
            )

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_non_finite_snr_rejected_before_the_counts(self, params, grid, snr):
        # no counts are given: the SNR is still the field named
        with pytest.raises(ValueError, match="snr_values_db: must be finite, or inf"):
            ExperimentSpec(
                mode="psr_vs_snr", params=params, grid=grid, snr_values_db=(5.0, snr)
            )

    def test_infinite_snr_is_the_noiseless_point(self, params, grid):
        spec = ExperimentSpec(
            mode="psr_vs_snr", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(16,), snr_values_db=(math.inf,),
        )
        [point] = psr_sweep(spec)
        assert (point.snr_db, point.successes) == (math.inf, 1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_iterations", 0, "max_iterations: need at least one iteration"),
            ("stall_tolerance", math.nan, "stall_tolerance: must be non-negative"),
            ("stall_tolerance", -1e-4, "stall_tolerance: must be non-negative"),
        ],
        ids=["max_iterations-0", "stall_tolerance-nan", "stall_tolerance-negative"],
    )
    def test_bad_recovery_knobs_rejected_when_built(self, params, grid, field, value, message):
        # refused by the spec itself, not later by the first sweep worker's RecoveryConfig
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(
                mode="psr_vs_m", params=params, grid=grid,
                target_counts=(1,), measurement_counts=(10,), **{field: value},
            )

    def test_unknown_mode_rejected(self, params, grid):
        for mode in ("fig5", "fig2"):
            with pytest.raises(ValueError, match="unknown experiment mode"):
                ExperimentSpec(mode=mode, params=params, grid=grid)

    def test_fig2_mode_is_not_a_sweep(self, params, grid):
        # The imaging figure has no sweep mode: its spec is refused before
        # psr_sweep is reached.
        with pytest.raises(ValueError, match="unknown experiment mode 'fig2'"):
            psr_sweep(ExperimentSpec(
                mode="fig2", params=params, grid=grid,
                target_counts=(1,), measurement_counts=(16,),
            ))

    def test_row_caches_of_whole_pool_must_fit_memory(self, params, grid, monkeypatch):
        kwargs = dict(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(8, 16), trials_per_point=2,
        )
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        need = 16 * grid.size * 8 * 3  # largest M, N columns, complex64, 3 workers
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: need)
        cached = ExperimentSpec(workers=3, **kwargs)
        streamed = ExperimentSpec(workers=4, **kwargs)
        assert (cached.cache_policy, streamed.cache_policy) == ("full-row-cache", "none")
        assert ExperimentSpec(workers=4, cache_policy="none", **kwargs) == streamed
        # the policy stays as resolved; run both sweeps in this process
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        assert repr(psr_sweep(streamed)) == repr(psr_sweep(cached))


class TestPsrSweep:
    def test_single_point_single_trial(self, params, grid):
        spec = ExperimentSpec(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(16,),
            trials_per_point=1, base_seed=3,
        )
        points = psr_sweep(spec)
        assert len(points) == 1
        assert points[0].psr in (0.0, 1.0)
        assert points[0].trials == 1
        assert points[0].successes in (0, 1)

    def test_point_grid_ordering(self, params, grid):
        spec = ExperimentSpec(
            mode="psr_vs_snr", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(8, 16),
            snr_values_db=(0.0, 20.0), trials_per_point=1, base_seed=3,
        )
        points = psr_sweep(spec)
        assert [(p.m, p.snr_db) for p in points] == [
            (8, 0.0), (8, 20.0), (16, 0.0), (16, 20.0),
        ]

    def test_worker_count_does_not_change_results(self, params, grid):
        kwargs = dict(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1, 2), measurement_counts=(12,),
            trials_per_point=3, base_seed=17,
        )
        serial = psr_sweep(ExperimentSpec(workers=1, **kwargs))
        parallel = psr_sweep(ExperimentSpec(workers=2, **kwargs))
        assert serial == parallel

    def test_workers_run_blas_on_one_thread(self, params, grid, monkeypatch):
        monkeypatch.setattr(experiments, "_run_task", _task_reporting_blas_threads)
        spec = ExperimentSpec(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(8,),
            trials_per_point=4, workers=2,
        )
        assert psr_sweep(spec)[0].successes == 4

    def test_starts_no_more_workers_than_tasks(self, params, grid, monkeypatch):
        started = []

        class InlinePool:
            """Records the pool size and runs the tasks in this process."""

            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments, "_run_task", lambda task: TrialResult(True, 0.0, 1, ""))

        def pools_started(trials):
            started.clear()
            spec = ExperimentSpec(
                mode="psr_vs_m", params=params, grid=grid,
                target_counts=(1,), measurement_counts=(8,),
                trials_per_point=trials, workers=4,
            )
            assert psr_sweep(spec)[0].successes == trials
            return started

        # the pool is capped by the tasks, the workers and the CPUs this
        # process may run on, here a patched CPU set
        for cpus, trials, pools in ((8, 2, [2]), (8, 1, []), (8, 6, [4]), (3, 6, [3]), (1, 6, [])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert pools_started(trials) == pools
        # without an affinity call, the machine's CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity")
        for count, pools in ((3, [3]), (None, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert pools_started(6) == pools

    def test_dead_worker_fails_the_sweep_instead_of_hanging(self, params, grid, monkeypatch):
        monkeypatch.setattr(experiments, "_run_task", _task_killing_its_worker)
        spec = ExperimentSpec(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(8,),
            trials_per_point=2, workers=2,
        )

        def hung(signum, frame):
            raise TimeoutError("sweep still waiting 60 s after its worker died")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                psr_sweep(spec)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_psr_trend_non_decreasing_in_m(self, params, grid):
        spec = ExperimentSpec(
            mode="psr_vs_m", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(2, 8, 24),
            trials_per_point=20, base_seed=29, workers=2,
        )
        points = psr_sweep(spec)
        psrs = [p.psr for p in points]
        for lo, hi in zip(psrs, psrs[1:]):
            assert hi >= lo - 0.1
        assert psrs[-1] >= 0.9

    def test_psr_trend_non_decreasing_in_snr(self, params, grid):
        spec = ExperimentSpec(
            mode="psr_vs_snr", params=params, grid=grid,
            target_counts=(1,), measurement_counts=(16,),
            snr_values_db=(-10.0, 5.0, 25.0),
            trials_per_point=15, base_seed=31, workers=2,
        )
        points = psr_sweep(spec)
        psrs = [p.psr for p in points]
        for lo, hi in zip(psrs, psrs[1:]):
            assert hi >= lo - 0.1
        assert psrs[-1] >= 0.8
