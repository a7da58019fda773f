import numpy as np
import pytest

from sarcs.echo import point_echo
from sarcs.model import GridCoord, Target, flat_index, grid_to_physical, unflatten
from sarcs.operator import SensingOperator, select_measurements
from sarcs.recovery import RecoveryConfig, SparseProfile, cosamp, relative_error


def dense(profile):
    """Embed a profile into the full column-stacked coefficient vector."""
    out = np.zeros(profile.grid.size, dtype=np.complex128)
    out[profile.flat] = profile.coefficients
    return out


def make_operator(params, grid, m, seed, policy="none"):
    sel = select_measurements(m, params.nr * params.na, seed=seed)
    return SensingOperator(params, grid, sel, cache_policy=policy)


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=0)
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=1, residual_threshold=-1.0)
        with pytest.raises(ValueError):
            RecoveryConfig(sparsity=1, max_iterations=0)


class TestSparseProfile:
    def test_duplicate_coords_rejected(self, grid):
        coord = GridCoord(0, 0, 0, 0)
        with pytest.raises(ValueError, match="duplicate"):
            SparseProfile(((coord, 1.0), (coord, 2.0)), grid)

    def test_dense_embedding_uses_flat_order(self, grid):
        coord = GridCoord(2, 1, 1, 0)
        profile = SparseProfile(((coord, 3.0 - 1.0j),), grid)
        embedded = dense(profile)
        assert embedded[flat_index(coord, grid)] == 3.0 - 1.0j
        assert np.count_nonzero(embedded) == 1

    @pytest.mark.parametrize(
        "flat, coefficients",
        [
            ([1, 2, 3], [1.0]),
            ([1], [1.0, 2.0]),
            ([[1, 2]], [[1.0, 2.0]]),
            ([-1], [1.0]),
            ([64], [1.0]),
            ([5, 5], [1.0, 2.0]),
        ],
        ids=["fewer-coefficients", "more-coefficients", "2-d", "negative", "past-end",
             "duplicate"],
    )
    def test_from_flat_rejects_bad_arrays(self, grid, flat, coefficients):
        with pytest.raises(ValueError, match="equal length|outside|duplicate"):
            SparseProfile.from_flat(grid, flat, coefficients)

    def test_from_flat_roundtrip(self, grid):
        flats = np.array([5, 17, 40])
        coeffs = np.array([1.0, 2.0j, -1.0])
        profile = SparseProfile.from_flat(grid, flats, coeffs)
        assert np.array_equal(np.sort(profile.flat), flats)


class TestSingleAtomRecovery:
    def test_one_hot_recovered_in_one_iteration(self, params, grid):
        op = make_operator(params, grid, m=24, seed=3)
        coord = GridCoord(1, 2, 0, 1)
        truth = SparseProfile(((coord, 1.0 + 0.0j),), grid)
        y = op.forward(truth)
        profile, diag = cosamp(op, y, RecoveryConfig(sparsity=1))
        assert diag.iterations == 1
        assert diag.halt_reason == "residual_below_threshold"
        assert len(profile.entries) == 1
        got_coord, got_value = profile.entries[0]
        assert got_coord == coord
        assert got_value == pytest.approx(1.0 + 0.0j, abs=1e-8)


class TestThreeTargetRecovery:
    def test_exact_support_and_coefficients(
        self, three_target_scene, three_target_echo, full_params, full_grid
    ):
        _, truth, coords = three_target_scene
        op = make_operator(full_params, full_grid, m=100, seed=7, policy="full-row-cache")
        y = three_target_echo.vec()[op.selection.indices]
        profile, diag = cosamp(op, y, RecoveryConfig(sparsity=3))
        assert sorted(profile.flat.tolist()) == sorted(
            flat_index(c, full_grid) for c in coords
        )
        for _, value in profile.entries:
            assert value == pytest.approx(1.0 + 0.0j, abs=1e-3)
        assert relative_error(profile, truth) < 0.1


class TestExhaustiveOracle:
    def test_cosamp_matches_brute_force_single_target(self, params, oracle_grid):
        matches = 0
        problems = 10
        for trial in range(problems):
            rng = np.random.default_rng(1000 + trial)
            true_flat = int(rng.integers(oracle_grid.size))
            x, y_pos, vx, vy = grid_to_physical(unflatten(true_flat, oracle_grid), oracle_grid)
            echo_vec = point_echo(Target(x, y_pos, vx, vy, 1.0), params).vec()
            op = make_operator(params, oracle_grid, m=12, seed=2000 + trial)
            y = echo_vec[op.selection.indices]

            # oracle: exhaustive single-column least squares over explicit
            # atoms built from the simulator, independent of cosamp
            best_flat, best_residual = -1, np.inf
            for flat in range(oracle_grid.size):
                coord = unflatten(flat, oracle_grid)
                gx, gy, gvx, gvy = grid_to_physical(coord, oracle_grid)
                atom = point_echo(Target(gx, gy, gvx, gvy, 1.0), params).vec()[
                    op.selection.indices
                ]
                norm_sq = np.vdot(atom, atom).real
                if norm_sq == 0:
                    continue
                residual_sq = np.vdot(y, y).real - abs(np.vdot(atom, y)) ** 2 / norm_sq
                if residual_sq < best_residual:
                    best_residual = residual_sq
                    best_flat = flat

            profile, _ = cosamp(op, y, RecoveryConfig(sparsity=1))
            if profile.flat.tolist() == [best_flat]:
                matches += 1
        assert matches == problems


class TestRelativeError:
    def test_equal_profiles_have_zero_error(self, grid):
        truth = SparseProfile(((GridCoord(0, 0, 0, 0), 1.0),), grid)
        assert relative_error(truth, truth) == 0.0

    def test_zero_estimate_has_unit_error(self, grid):
        truth = SparseProfile(((GridCoord(0, 0, 0, 0), 1.0),), grid)
        assert relative_error(SparseProfile((), grid), truth) == 1.0

    def test_coefficient_offset(self, grid):
        coord = GridCoord(1, 1, 0, 0)
        truth = SparseProfile(((coord, 1.0),), grid)
        estimate = SparseProfile(((coord, 0.95),), grid)
        assert relative_error(estimate, truth) == pytest.approx(0.05)

    def test_zero_truth_rejected(self, grid):
        truth = SparseProfile((), grid)
        with pytest.raises(ValueError, match="zero truth"):
            relative_error(truth, truth)

    def test_grid_mismatch_rejected(self, grid, oracle_grid):
        a = SparseProfile(((GridCoord(0, 0, 0, 0), 1.0),), grid)
        b = SparseProfile(((GridCoord(0, 0, 0, 0), 1.0),), oracle_grid)
        with pytest.raises(ValueError, match="different grids"):
            relative_error(a, b)


class TestCosampContracts:
    def test_scaling_equivariance(self, params, grid):
        op = make_operator(params, grid, m=20, seed=11)
        truth = SparseProfile(
            ((GridCoord(0, 1, 1, 0), 1.0), (GridCoord(3, 2, 0, 1), 0.5 - 0.5j)), grid
        )
        y = op.forward(truth)
        alpha = 2.0 - 3.0j
        base, _ = cosamp(op, y, RecoveryConfig(sparsity=2))
        scaled, _ = cosamp(op, alpha * y, RecoveryConfig(sparsity=2))
        assert np.array_equal(np.sort(base.flat), np.sort(scaled.flat))
        base_dense = dense(base)
        scaled_dense = dense(scaled)
        assert np.allclose(scaled_dense, alpha * base_dense, rtol=1e-10, atol=1e-12)

    def test_returned_residual_is_best_and_orthogonal(self, params, grid):
        op = make_operator(params, grid, m=20, seed=13)
        truth = SparseProfile(
            ((GridCoord(0, 1, 1, 1), 1.0), (GridCoord(2, 3, 0, 0), 0.8)), grid
        )
        rng = np.random.default_rng(5)
        y = op.forward(truth)
        y = y + 0.05 * np.linalg.norm(y) / np.sqrt(y.size) * (
            rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        )
        profile, diag = cosamp(op, y, RecoveryConfig(sparsity=2, max_iterations=8))
        assert diag.final_residual_norm <= min(diag.residual_norms) + 1e-12
        flats = profile.flat
        cols = op.columns(flats)
        residual = y - cols @ profile.coefficients
        overlap = np.abs(cols.conj().T @ residual)
        norms = np.linalg.norm(cols, axis=0)
        assert np.all(overlap <= 1e-8 * norms * np.linalg.norm(y))

    def test_support_never_exceeds_sparsity(self, params, grid):
        op = make_operator(params, grid, m=16, seed=17)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for k in (1, 2, 3):
            profile, diag = cosamp(op, y, RecoveryConfig(sparsity=k, max_iterations=5))
            assert len(profile.entries) <= k
            norms = op.column_norms()
            for flat in profile.flat:
                assert norms[flat] > 0

    def test_rank_deficient_merge_drops_columns(self, params, grid):
        # two measurement rows cannot support four merged columns
        op = make_operator(params, grid, m=2, seed=19)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        profile, diag = cosamp(op, y, RecoveryConfig(sparsity=2, max_iterations=3))
        assert diag.dropped_columns
        assert len(profile.entries) <= 2

    def test_sparsity_beyond_visible_columns_rejected(self, params, grid):
        op = make_operator(params, grid, m=70, seed=23)
        y = np.ones(70, dtype=complex)
        with pytest.raises(ValueError, match="exceeds"):
            cosamp(op, y, RecoveryConfig(sparsity=grid.size + 1))

    def test_tiny_measurement_returns_empty_profile(self, params, grid):
        op = make_operator(params, grid, m=10, seed=29)
        y = np.zeros(10, dtype=complex)
        profile, diag = cosamp(op, y, RecoveryConfig(sparsity=1, residual_threshold=1e-9))
        assert profile.entries == ()
        assert diag.halt_reason == "residual_below_threshold"
        assert diag.iterations == 0

    def test_halts_on_max_iterations(self, params, grid):
        op = make_operator(params, grid, m=12, seed=31)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        profile, diag = cosamp(
            op,
            y,
            RecoveryConfig(
                sparsity=2, residual_threshold=0.0, max_iterations=2,
                stall_tolerance=-np.inf,
            ),
        )
        assert diag.iterations == 2
        assert diag.halt_reason == "max_iterations"

    def test_stall_halt_reported(self, params, grid):
        op = make_operator(params, grid, m=12, seed=37)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        profile, diag = cosamp(
            op, y, RecoveryConfig(sparsity=2, residual_threshold=0.0, stall_tolerance=0.9)
        )
        assert diag.halt_reason == "stalled"
