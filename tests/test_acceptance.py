"""Acceptance gate for the package.

One test per shipping criterion; run with ``pytest tests/test_acceptance.py -v``
so each criterion reports its own pass/fail line. The Monte Carlo criteria
run a few thousand full-scale recovery trials and dominate the runtime
(roughly half an hour on two cores).
"""

import os

import numpy as np
import pytest

from sarcs.baseline import matched_filter_image, profile_to_image, sidelobe_metrics
from sarcs.cli import main
from sarcs.echo import point_echo
from sarcs.experiments import ExperimentSpec, psr_sweep
from sarcs.model import (
    GridCoord,
    Target,
    flat_index,
    grid_to_physical,
    unflatten,
)
from sarcs.operator import SensingOperator, select_measurements
from sarcs.recovery import RecoveryConfig, cosamp, relative_error

from conftest import small_radar, small_search_grid

WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def three_target_recovery(three_target_echo, full_params, full_grid):
    selection = select_measurements(100, full_params.nr * full_params.na, seed=7)
    op = SensingOperator(full_params, full_grid, selection, cache_policy="full-row-cache")
    y = three_target_echo.vec()[selection.indices]
    return cosamp(op, y, RecoveryConfig(sparsity=3))


class TestThreeTargetImaging:
    def test_recovery_is_exact_from_100_measurements(
        self, three_target_recovery, three_target_scene, full_grid
    ):
        _, truth, coords = three_target_scene
        profile, diag = three_target_recovery
        recovered = sorted(profile.flat.tolist())
        expected = sorted(flat_index(c, full_grid) for c in coords)
        error = relative_error(profile, truth)
        assert recovered == expected
        assert error < 0.01
        print(
            f"PASS: three-target support exact from 100 of 721735 samples, "
            f"relative error {error:.2e} ({diag.iterations} iterations)"
        )


class TestPhaseTransitionInMeasurements:
    def test_four_targets_recover_at_sixty_measurements(self, full_params, full_grid):
        spec = ExperimentSpec(
            mode="psr_vs_m",
            params=full_params,
            grid=full_grid,
            target_counts=(4,),
            measurement_counts=(10, 60),
            trials_per_point=100,
            base_seed=101,
            workers=WORKERS,
        )
        points = {pt.m: pt.psr for pt in psr_sweep(spec)}
        assert points[60] >= 0.85
        assert points[10] <= 0.5
        print(
            f"PASS: k=4 PSR {points[60]:.2f} at M=60 (>=0.85), "
            f"{points[10]:.2f} at M=10 (<=0.5), 100 trials each"
        )


class TestMeasurementThresholdGrowsWithTargets:
    def test_psr_090_crossing_is_non_decreasing_in_k(self, full_params, full_grid):
        measurement_counts = tuple(range(10, 101, 10))
        spec = ExperimentSpec(
            mode="psr_vs_m",
            params=full_params,
            grid=full_grid,
            target_counts=(1, 2, 3, 4),
            measurement_counts=measurement_counts,
            trials_per_point=40,
            base_seed=202,
            workers=WORKERS,
        )
        points = psr_sweep(spec)
        crossings = {}
        for k in (1, 2, 3, 4):
            curve = [(pt.m, pt.psr) for pt in points if pt.k == k]
            above = [m for m, psr in curve if psr >= 0.9]
            assert above, f"k={k} never reaches PSR 0.9 up to M=100"
            crossings[k] = min(above)
        thresholds = [crossings[k] for k in (1, 2, 3, 4)]
        assert thresholds == sorted(thresholds)
        print(
            "PASS: smallest M with PSR>=0.9 is non-decreasing in k: "
            + ", ".join(f"k={k}: M={m}" for k, m in crossings.items())
        )


class TestNoiseRobustness:
    def test_psr_vs_snr_shape(self, full_params, full_grid):
        base = dict(
            mode="psr_vs_snr",
            params=full_params,
            grid=full_grid,
            target_counts=(1,),
            trials_per_point=100,
            base_seed=303,
            workers=WORKERS,
        )
        low_m = psr_sweep(
            ExperimentSpec(
                measurement_counts=(20,), snr_values_db=(-15.0, 5.0, 20.0), **base
            )
        )
        high_m = psr_sweep(
            ExperimentSpec(measurement_counts=(100,), snr_values_db=(5.0,), **base)
        )
        psr_low = {pt.snr_db: pt.psr for pt in low_m}
        psr_high = {pt.snr_db: pt.psr for pt in high_m}
        assert psr_low[20.0] >= 0.8
        assert psr_low[-15.0] <= 0.2
        assert psr_high[5.0] >= psr_low[5.0]
        print(
            f"PASS: k=1 M=20 PSR {psr_low[20.0]:.2f} at +20 dB (>=0.8), "
            f"{psr_low[-15.0]:.2f} at -15 dB (<=0.2); at +5 dB M=100 gives "
            f"{psr_high[5.0]:.2f} vs {psr_low[5.0]:.2f} at M=20"
        )


class TestOperatorCorrectness:
    def test_adjoint_identity_on_small_grids(self):
        params = small_radar()
        shapes = ((4, 4, 2, 2), (3, 5, 2, 1), (5, 3, 1, 2))
        worst = 0.0
        for shape_idx, (nx, ny, nvx, nvy) in enumerate(shapes):
            grid = small_search_grid(nx=nx, ny=ny, nvx=nvx, nvy=nvy)
            for seed in range(3):
                sel = select_measurements(8, params.nr * params.na, seed=10 * shape_idx + seed)
                op = SensingOperator(params, grid, sel)
                rng = np.random.default_rng(seed)
                x = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
                y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                lhs = np.vdot(y, op.columns(np.arange(grid.size)) @ x)
                rhs = np.vdot(op.adjoint(y), x)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        assert worst <= 1e-10
        print(f"PASS: adjoint identity worst relative mismatch {worst:.2e} (<=1e-10)")

    def test_atoms_match_point_echoes_at_production_scale(self, full_params, full_grid):
        selection = select_measurements(500, full_params.nr * full_params.na, seed=41)
        op = SensingOperator(full_params, full_grid, selection)
        rng = np.random.default_rng(42)
        worst = 0.0
        for flat in rng.choice(full_grid.size, 12, replace=False):
            coord = unflatten(int(flat), full_grid)
            x, y, vx, vy = grid_to_physical(coord, full_grid)
            reference = point_echo(Target(x, y, vx, vy, 1.0), full_params).vec()[
                selection.indices
            ]
            column = op.columns(np.array([flat]))[:, 0]
            worst = max(
                worst,
                float(np.linalg.norm(column - reference) / np.linalg.norm(reference)),
            )
        assert worst <= 1e-12
        print(f"PASS: atom vs point-echo worst relative mismatch {worst:.2e} (<=1e-12)")

    def test_forward_of_truth_matches_restricted_echo(
        self, three_target_scene, three_target_echo, full_params, full_grid
    ):
        _, truth, _ = three_target_scene
        selection = select_measurements(100, full_params.nr * full_params.na, seed=7)
        op = SensingOperator(full_params, full_grid, selection)
        y_forward = op.forward(truth)
        y_echo = three_target_echo.vec()[selection.indices]
        mismatch = float(np.linalg.norm(y_forward - y_echo) / np.linalg.norm(y_echo))
        assert mismatch <= 1e-12
        print(f"PASS: forward(truth) vs restricted echo mismatch {mismatch:.2e} (<=1e-12)")

    def test_flat_indexing_is_a_bijection_on_the_production_grid(self, full_grid):
        hits = np.zeros(full_grid.size, dtype=bool)
        for flat in range(full_grid.size):
            back = flat_index(unflatten(flat, full_grid), full_grid)
            assert back == flat
            hits[flat] = True
        assert hits.all()
        print(f"PASS: flat indexing bijective over all {full_grid.size} cells")


class TestExhaustiveOracleAgreement:
    def test_greedy_selection_matches_brute_force(self, oracle_grid):
        params = small_radar()
        # explicit dictionary built from the simulator, once
        atom_vecs = np.empty((params.nr * params.na, oracle_grid.size), dtype=np.complex128)
        for flat in range(oracle_grid.size):
            coord = unflatten(flat, oracle_grid)
            x, y, vx, vy = grid_to_physical(coord, oracle_grid)
            atom_vecs[:, flat] = point_echo(Target(x, y, vx, vy, 1.0), params).vec()

        matches = 0
        problems = 50
        for trial in range(problems):
            rng = np.random.default_rng(5000 + trial)
            true_flat = int(rng.integers(oracle_grid.size))
            sel = select_measurements(12, params.nr * params.na, seed=6000 + trial)
            y = atom_vecs[sel.indices, true_flat]

            restricted = atom_vecs[sel.indices, :]
            norms_sq = np.einsum("ij,ij->j", restricted.real, restricted.real)
            norms_sq += np.einsum("ij,ij->j", restricted.imag, restricted.imag)
            gains = np.zeros(oracle_grid.size)
            visible = norms_sq > 0
            overlaps = np.abs(restricted.conj().T @ y) ** 2
            gains[visible] = overlaps[visible] / norms_sq[visible]
            oracle_flat = int(np.argmax(gains))  # largest gain = smallest residual

            op = SensingOperator(params, oracle_grid, sel)
            profile, _ = cosamp(op, y, RecoveryConfig(sparsity=1))
            if profile.flat.tolist() == [oracle_flat]:
                matches += 1
        assert matches >= problems - 1
        print(f"PASS: greedy choice equals exhaustive oracle in {matches}/{problems} problems")


class TestMatchedFilterComparison:
    def test_sparse_profile_beats_matched_filter_sidelobes(
        self, three_target_recovery, three_target_scene, three_target_echo, full_grid
    ):
        _, _, coords = three_target_scene
        spatial = [(c.n1, c.n2) for c in coords]
        profile, _ = three_target_recovery
        cs_pslr, cs_width = sidelobe_metrics(profile_to_image(profile), spatial)

        static_image = matched_filter_image(three_target_echo, full_grid, (0.0, 0.0))
        mf_pslr, mf_width = sidelobe_metrics(static_image, spatial)

        assert cs_pslr <= mf_pslr - 10.0

        # at the static hypothesis the static target dominates and the two
        # movers are displaced/defocused away from their true cells
        pixels = static_image.pixels
        peak_cell = np.unravel_index(np.argmax(pixels), pixels.shape)
        static_n1, static_n2 = spatial[0]
        assert abs(peak_cell[0] - static_n1) <= 1 and abs(peak_cell[1] - static_n2) <= 1
        peak = pixels.max()
        for n1, n2 in spatial[1:]:
            neighborhood = pixels[
                max(n1 - 1, 0) : n1 + 2, max(n2 - 1, 0) : n2 + 2
            ]
            assert neighborhood.max() < 0.5 * peak
        print(
            f"PASS: sparse image PSLR {cs_pslr:.1f} dB vs matched filter "
            f"{mf_pslr:.1f} dB (gap >= 10 dB); movers defocused at the "
            f"static hypothesis (mainlobe width {mf_width} bins)"
        )


DETERMINISM_CONFIG = """
[radar]
platform_speed = 100.0
carrier_frequency = 1e10
pulse_width = 2e-6
bandwidth = 40e6
range_sample_rate = 50e6
prf = 100.0
range_samples = 104
azimuth_samples = 32

[grid]
x_origin = 2000.0
y_origin = 0.0
vx_origin = -5.0
vy_origin = -5.0
bin_x = 2.0
bin_y = 1.0
bin_vx = 5.0
bin_vy = 5.0
nx = 4
ny = 4
nvx = 2
nvy = 2

[scene]
targets = 2004.0,1.0,0.0,0.0 ; 2002.0,3.0,0.0,-5.0

[recovery]
measurements = 24
selection_seed = 3

[experiment]
target_counts = 2
measurement_counts = 16,24
snr_values_db = 10,30
trials_per_point = 3
base_seed = 99
threads = {threads}
"""


class TestDeterminism:
    def test_csv_outputs_are_byte_identical(self, tmp_path):
        def run(name, threads):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(
                DETERMINISM_CONFIG.format(threads=threads)
                + f"\n[output]\ndirectory = {tmp_path / name}\n"
            )
            assert main(["sweep", "--config", str(cfg)]) == 0
            assert main([
                "simulate", "--config", str(cfg), "--output", str(tmp_path / name / "sim"),
            ]) == 0
            assert main([
                "image-cs", "--config", str(cfg),
                "--echo", str(tmp_path / name / "sim" / "echo.bin"),
                "--output", str(tmp_path / name / "cs"),
            ]) == 0
            return (
                (tmp_path / name / "psr.csv").read_bytes(),
                (tmp_path / name / "cs" / "recovered.csv").read_bytes(),
                (tmp_path / name / "cs" / "diagnostics.csv").read_bytes(),
            )

        first = run("a", threads=1)
        repeat = run("a", threads=1)  # identical config rerun, same paths
        assert first == repeat

        threaded = run("c", threads=2)
        data_rows = lambda blob: [
            line for line in blob.decode().splitlines() if not line.startswith("#")
        ]
        assert data_rows(threaded[0]) == data_rows(first[0])
        assert threaded[1] == first[1]
        assert threaded[2] == first[2]
        print("PASS: repeated runs byte-identical; thread count does not change results")
