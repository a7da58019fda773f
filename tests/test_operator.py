import cmath
import dataclasses
import math

import numpy as np
import pytest

from sarcs import baseline, operator
from sarcs.echo import point_echo
from sarcs.model import GridCoord, Target, flat_index, grid_to_physical, unflatten
from sarcs.operator import (
    MeasurementSelection,
    SensingOperator,
    sample_without_replacement,
    select_measurements,
)
from sarcs.recovery import SparseProfile


def full_selection(params):
    total = params.nr * params.na
    return MeasurementSelection(np.arange(total, dtype=np.int64), seed=0)


class TestSampleWithoutReplacement:
    def test_full_draw_is_identity_after_sort(self):
        assert np.array_equal(sample_without_replacement(10, 10, seed=3), np.arange(10))

    def test_single_draw_in_range(self):
        picked = sample_without_replacement(1, 1000, seed=8)
        assert picked.shape == (1,) and 0 <= picked[0] < 1000

    def test_deterministic_and_distinct(self):
        a = sample_without_replacement(100, 721735, seed=12345)
        b = sample_without_replacement(100, 721735, seed=12345)
        assert np.array_equal(a, b)
        assert np.unique(a).size == 100
        assert np.all(np.diff(a) > 0)
        c = sample_without_replacement(100, 721735, seed=12346)
        assert not np.array_equal(a, c)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sample_without_replacement(0, 10, seed=1)
        with pytest.raises(ValueError):
            sample_without_replacement(11, 10, seed=1)

    def test_roughly_uniform_coverage(self):
        # 200 draws of 5 from 20 cells: every cell should appear
        counts = np.zeros(20, dtype=int)
        for seed in range(200):
            counts[sample_without_replacement(5, 20, seed=seed)] += 1
        assert counts.min() > 0
        assert counts.max() < 3 * counts.mean()


class TestMeasurementSelection:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementSelection(np.array([3, 3, 5]), seed=0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementSelection(np.array([-1, 2]), seed=0)

    def test_select_measurements_wraps_sampler(self):
        sel = select_measurements(7, 100, seed=4)
        assert sel.m == 7 and sel.seed == 4
        assert np.array_equal(sel.indices, sample_without_replacement(7, 100, seed=4))


class TestOperatorConstruction:
    def test_rejects_selection_beyond_echo(self, params, grid):
        sel = MeasurementSelection(np.array([params.nr * params.na]), seed=0)
        with pytest.raises(ValueError, match="beyond"):
            SensingOperator(params, grid, sel)

    def test_rejects_unknown_cache_policy(self, params, grid):
        sel = select_measurements(4, params.nr * params.na, seed=0)
        with pytest.raises(ValueError, match="cache policy"):
            SensingOperator(params, grid, sel, cache_policy="rows")

    def test_row_cache_must_fit_physical_memory(self, params, grid, monkeypatch):
        sel = select_measurements(8, params.nr * params.na, seed=0)
        need = 8 * grid.size * 8  # M rows, N columns, complex64
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: need)
        SensingOperator(params, grid, sel, cache_policy="full-row-cache")
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: need - 1)
        SensingOperator(params, grid, sel, cache_policy="none")
        with pytest.raises(ValueError, match="physical memory"):
            SensingOperator(params, grid, sel, cache_policy="full-row-cache")

    def test_no_cache_when_policy_none(self, params, grid):
        sel = select_measurements(8, params.nr * params.na, seed=0)
        op = SensingOperator(params, grid, sel, cache_policy="none")
        op.column_norms()
        op.adjoint(np.ones(8, dtype=complex))
        # the search entries stream through complex64, one tile at a time
        assert op.adjoint(np.ones(8, dtype=complex), search=True).dtype == np.complex64
        assert op._cache is None

    @pytest.mark.parametrize("policy", ["none", "full-row-cache"])
    def test_columns_rejects_out_of_range_index(self, params, grid, policy):
        sel = select_measurements(8, params.nr * params.na, seed=0)
        op = SensingOperator(params, grid, sel, cache_policy=policy)
        for bad in ([-1], [grid.size], [0, grid.size + 5]):
            with pytest.raises(ValueError, match="outside"):
                op.columns(np.array(bad))
        assert op.columns(np.empty(0, dtype=np.int64)).shape == (8, 0)
        assert op.columns([grid.size - 1]).shape == (8, 1)
        # exact atoms come from the tables; only the norms or a search build the cache
        assert op._cache is None
        op.column_norms()
        assert (op._cache is not None) == (policy == "full-row-cache")


class TestAtomSample:
    @staticmethod
    def atom_entry(params, grid, coord, m, n):
        """Dictionary entry of ``coord`` at echo sample (m, n), read through
        an operator whose selection is that single sample."""
        sel = MeasurementSelection(np.array([m + params.nr * n]), seed=0)
        op = SensingOperator(params, grid, sel)
        return complex(op.columns(np.array([flat_index(coord, grid)]))[0, 0])

    def test_static_grid_point_phase_closed_form(self, params, grid):
        # cell at the grid origin with vx = 0, vy = 0 (index 1 on each
        # velocity axis); delay lands exactly on sample m = 0 at eta = 0
        coord = GridCoord(0, 0, 1, 1)
        assert grid_to_physical(coord, grid) == (grid.x0, 0.0, 0.0, 0.0)
        value = self.atom_entry(params, grid, coord, m=0, n=params.na // 2)
        expected = cmath.exp(-4j * math.pi * params.f0 * grid.x0 / params.c)
        assert value == pytest.approx(expected, abs=1e-9)
        assert abs(value) == pytest.approx(1.0, rel=1e-12)

    def test_sample_outside_envelopes_is_zero(self, params, grid):
        pulse_samples = round(params.tp * params.fs)
        coord = GridCoord(0, 0, 1, 1)
        assert self.atom_entry(params, grid, coord, m=pulse_samples + 1, n=16) == 0.0


class TestAtomEchoConsistency:
    def test_every_column_matches_point_echo(self, params, grid):
        op = SensingOperator(params, grid, full_selection(params))
        for flat in range(grid.size):
            coord = unflatten(flat, grid)
            x, y, vx, vy = grid_to_physical(coord, grid)
            reference = point_echo(Target(x, y, vx, vy, 1.0), params).vec()
            column = op.columns(np.array([flat]))[:, 0]
            assert np.linalg.norm(reference) > 0
            assert np.array_equal(column, reference)

    def test_cache_matches_on_the_fly(self, params, grid):
        sel = select_measurements(16, params.nr * params.na, seed=2)
        direct = SensingOperator(params, grid, sel, cache_policy="none")
        cached = SensingOperator(params, grid, sel, cache_policy="full-row-cache")
        flats = np.arange(grid.size)
        a = direct.columns(flats)
        b = cached.columns(flats)
        assert np.array_equal(a, b)
        # the memory rule picks the policy, so products must round alike too
        rng = np.random.default_rng(4)
        flat = rng.choice(grid.size, size=5, replace=False)
        profile = SparseProfile.from_flat(grid, flat, rng.standard_normal(5) + 1j)
        assert np.array_equal(direct.forward(profile), cached.forward(profile))


class TestTiles:
    """The search cache is built from separable (p, q) tiles and must stay
    within its entry bound of the atoms; ``columns`` gathers single atoms
    from the same tables under either policy, and they must equal the
    simulator bit for bit, whatever the tile size."""

    @pytest.fixture
    def tile_grid(self, grid):
        # wide y and vy spreads, so the azimuth gate differs between q values
        return dataclasses.replace(grid, dy=4.0, vy0=-40.0, dvy=40.0, nvy=3)

    @staticmethod
    def tile_operators(params, grid, monkeypatch, pairs):
        sel = select_measurements(200, params.nr * params.na, seed=5)
        monkeypatch.setattr(operator, "_BLOCK_ELEMENTS", pairs * sel.m * grid.nx * grid.ny)
        cached = SensingOperator(params, grid, sel, cache_policy="full-row-cache")
        direct = SensingOperator(params, grid, sel, cache_policy="none")
        return sel, cached, direct

    # one (p, q) pair per tile; three pairs, so tiles cross a q boundary
    # (nvx = 2); all six pairs of the grid in one tile
    @pytest.mark.parametrize("pairs", [1, 3, 6])
    def test_cache_equals_kernel_and_point_echo(self, params, tile_grid, monkeypatch, pairs):
        sel, cached, direct = self.tile_operators(params, tile_grid, monkeypatch, pairs)
        flats = np.arange(tile_grid.size)
        matrix = cached.columns(flats)
        assert np.array_equal(matrix, direct.columns(flats))
        for flat in flats:
            x, y, vx, vy = grid_to_physical(unflatten(int(flat), tile_grid), tile_grid)
            reference = point_echo(Target(x, y, vx, vy), params).vec()[sel.indices]
            assert np.array_equal(matrix[:, flat], reference)

    @pytest.mark.parametrize("pairs", [1, 3, 6])
    def test_uncached_products_match_cache(self, params, tile_grid, monkeypatch, pairs):
        sel, cached, direct = self.tile_operators(params, tile_grid, monkeypatch, pairs)
        rng = np.random.default_rng(pairs)
        residual = rng.standard_normal(sel.m) + 1j * rng.standard_normal(sel.m)
        # BLAS may reorder the sums when tile boundaries move, so not bitwise
        exact = direct.adjoint(residual)
        assert np.allclose(exact, cached.adjoint(residual), rtol=1e-13, atol=0)
        assert np.array_equal(direct.column_norms(), cached.column_norms())
        # the bound cosamp's band rests on: entry error plus float32 rounding,
        # for the cached search entries and for the streamed ones
        eps32 = float(np.finfo(np.float32).eps)
        bound = (operator._SEARCH_ENTRY_ERROR + (sel.m + 2) * eps32) * np.abs(residual).sum()
        for op in (cached, direct):
            search = op.adjoint(residual, search=True)
            assert search.dtype == np.complex64
            assert np.abs(search - exact).max() <= bound

    @pytest.mark.parametrize("pairs", [1, 3, 6])
    def test_streamed_search_blocks_equal_cache(self, params, tile_grid, monkeypatch, pairs):
        _, cached, direct = self.tile_operators(params, tile_grid, monkeypatch, pairs)
        cached.column_norms()
        blocks = [block for _, _, block in direct._tiles(np.complex64)]
        assert len(blocks) == math.ceil(6 / pairs)
        assert np.array_equal(np.concatenate(blocks, axis=1), cached._cache)

    # the smoke radar as given, then moved out to where the carrier phase
    # is 1e9 to 1e10 turns: one phase in float64 turns, rounded once to
    # float32, keeps the bound there too
    @pytest.mark.parametrize(
        "pairs, x_origin, carrier",
        [(1, None, None), (3, None, None), (6, None, None), (3, 3.0e6, 35e9), (3, 3.6e7, 35e9)],
        ids=["1", "3", "6", "3000km-35GHz", "36000km-35GHz"],
    )
    def test_search_cache_within_entry_bound(
        self, params, tile_grid, monkeypatch, pairs, x_origin, carrier
    ):
        if x_origin is not None:
            params = dataclasses.replace(params, f0=carrier, tau0=2.0 * x_origin / params.c)
            tile_grid = dataclasses.replace(tile_grid, x0=x_origin)
        _, cached, direct = self.tile_operators(params, tile_grid, monkeypatch, pairs)
        cached.column_norms()  # builds the search cache under the patched tile size
        exact = direct.columns(np.arange(tile_grid.size))
        assert cached._cache.dtype == np.complex64
        assert np.array_equal(cached._cache == 0, exact == 0)
        assert np.abs(cached._cache - exact).max() <= operator._SEARCH_ENTRY_ERROR


class TestSearchCache:
    @pytest.mark.parametrize("m", [20, 100])
    def test_production_grid_entries_within_bound(self, full_params, full_grid, m):
        sel = select_measurements(m, full_params.nr * full_params.na, seed=m)
        cached = SensingOperator(full_params, full_grid, sel, cache_policy="full-row-cache")
        cached.column_norms()
        direct = SensingOperator(full_params, full_grid, sel, cache_policy="none")
        for start in range(0, full_grid.size, 16_384):
            flats = np.arange(start, min(start + 16_384, full_grid.size))
            exact = direct.columns(flats)
            search = cached._cache[:, flats]
            assert np.array_equal(search == 0, exact == 0)
            assert np.abs(search - exact).max() <= operator._SEARCH_ENTRY_ERROR


class TestEnvelopeUpperEdge:
    """The range envelope is half open, 0 <= u < tp: a sample whose delayed
    fast time is exactly tp is zero in the atoms, the search cache and the
    echo, and outside the matched filter's window."""

    def test_sample_at_tp_is_outside(self, params, grid):
        # tp on a multiple of 2**-69, the float spacing of the delays, so
        # tau_100 - tp is a float, and a static cell at x = 2000 + 1 ulp has
        # it for its delay: fl(tau_100 - 2r/c) == tp at eta = 0
        params = dataclasses.replace(params, tp=math.ldexp(round(math.ldexp(params.tp, 69)), -69))
        grid = dataclasses.replace(grid, x0=math.nextafter(2000.0, math.inf))
        coord = GridCoord(0, 0, 1, 1)
        x, y, vx, vy = grid_to_physical(coord, grid)
        assert (y, vx, vy) == (0.0, 0.0, 0.0)
        m, n = 100, params.na // 2
        tau = params.fast_times()
        d = (2.0 / params.c) * x
        assert tau[m] - d == params.tp and params.slow_times()[n] == 0.0
        rows = np.array([m - 1, m]) + params.nr * n
        op = SensingOperator(params, grid, MeasurementSelection(rows, seed=0), "full-row-cache")
        flat = flat_index(coord, grid)
        op.column_norms()
        for samples in (op.columns([flat])[:, 0], op._cache[:, flat]):
            assert samples[0] != 0 and samples[1] == 0
        echo = point_echo(Target(x, y, vx, vy), params).samples[:, n]
        assert echo[m - 1] != 0 and echo[m] == 0
        lo, hi = baseline._window(tau, np.array([d]), params.tp)
        assert hi[0] == m and lo[0] < m


class TestForward:
    def test_zero_profile_gives_zero(self, params, grid):
        sel = select_measurements(6, params.nr * params.na, seed=1)
        op = SensingOperator(params, grid, sel)
        out = op.forward(SparseProfile((), grid))
        assert np.array_equal(out, np.zeros(6, dtype=complex))

    def test_one_hot_profile_is_a_column(self, params, grid):
        sel = select_measurements(9, params.nr * params.na, seed=6)
        op = SensingOperator(params, grid, sel)
        coord = GridCoord(2, 1, 0, 1)
        profile = SparseProfile(((coord, 1.0 + 0.0j),), grid)
        flat = flat_index(coord, grid)
        assert np.array_equal(op.forward(profile), op.columns(np.array([flat]))[:, 0])

    def test_linear_superposition(self, params, grid):
        sel = select_measurements(12, params.nr * params.na, seed=7)
        op = SensingOperator(params, grid, sel)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        b = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        alpha = 0.3 - 2.0j
        matrix = op.columns(np.arange(grid.size))
        lhs = matrix @ (a + alpha * b)
        rhs = matrix @ a + alpha * (matrix @ b)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_truth_profile_forward_equals_restricted_scene_echo(
        self, three_target_scene, three_target_echo, full_params, full_grid
    ):
        _, truth, _ = three_target_scene
        sel = select_measurements(100, full_params.nr * full_params.na, seed=7)
        op = SensingOperator(full_params, full_grid, sel, cache_policy="none")
        y_op = op.forward(truth)
        y_echo = three_target_echo.vec()[sel.indices]
        assert np.linalg.norm(y_op - y_echo) <= 1e-12 * np.linalg.norm(y_echo)


class TestAdjoint:
    @pytest.mark.parametrize("policy", ["none", "full-row-cache"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoint_identity(self, params, grid, policy, seed):
        sel = select_measurements(8, params.nr * params.na, seed=seed)
        op = SensingOperator(params, grid, sel, cache_policy=policy)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lhs = np.vdot(y, op.columns(np.arange(grid.size)) @ x)
        rhs = np.vdot(op.adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_zero_residual_gives_zero(self, params, grid):
        sel = select_measurements(5, params.nr * params.na, seed=3)
        op = SensingOperator(params, grid, sel)
        assert not op.adjoint(np.zeros(5, dtype=complex)).any()

    def test_gram_diagonal(self, params, grid):
        sel = select_measurements(20, params.nr * params.na, seed=9)
        op = SensingOperator(params, grid, sel)
        flat = flat_index(GridCoord(1, 2, 1, 0), grid)
        column = op.columns(np.array([flat]))[:, 0]
        out = op.adjoint(column)
        norms = op.column_norms()
        assert out[flat] == pytest.approx(norms[flat] ** 2, rel=1e-12)


class TestColumnNorms:
    def test_full_selection_norm_counts_support(self, params, grid):
        op = SensingOperator(params, grid, full_selection(params))
        coord = GridCoord(0, 0, 1, 1)
        flat = flat_index(coord, grid)
        x, y, vx, vy = grid_to_physical(coord, grid)
        support = np.count_nonzero(point_echo(Target(x, y, vx, vy), params).samples)
        assert op.column_norms()[flat] == math.sqrt(support)

    def test_selection_missing_support_gives_zero(self, params, grid):
        # column 0 of the echo sits outside the azimuth gate of cells with
        # large zero-Doppler time (y = 3, vy = -5)
        indices = np.arange(8, dtype=np.int64)  # samples from azimuth column 0
        op = SensingOperator(params, grid, MeasurementSelection(indices, seed=0))
        coord = GridCoord(0, 3, 1, 0)
        x, y, vx, vy = grid_to_physical(coord, grid)
        eta_c = y / (params.v - vy)
        eta0 = params.slow_times()[0]
        assert abs(eta0 - eta_c) > params.aperture_time / 2
        flat = flat_index(coord, grid)
        norms = op.column_norms()
        assert norms[flat] == 0.0
        assert norms.max() > 0

    def test_norms_match_cache_policy(self, params, grid):
        sel = select_measurements(16, params.nr * params.na, seed=2)
        direct = SensingOperator(params, grid, sel, cache_policy="none")
        cached = SensingOperator(params, grid, sel, cache_policy="full-row-cache")
        assert np.array_equal(direct.column_norms(), cached.column_norms())

    @pytest.mark.parametrize("policy", ["none", "full-row-cache"])
    def test_norms_are_square_roots_of_nonzero_counts(self, params, grid, policy):
        # samples of azimuth column 0, which some cells' gates leave unseen;
        # norms ** 2 need not give a count back (sqrt(2) ** 2 != 2), so the
        # counts are bound through their square roots
        sel = MeasurementSelection(np.arange(8, dtype=np.int64), seed=0)
        op = SensingOperator(params, grid, sel, cache_policy=policy)
        counts = np.count_nonzero(op.columns(np.arange(grid.size)), axis=0)
        norms = op.column_norms()
        assert np.array_equal(norms, np.sqrt(counts))
        assert np.array_equal(np.flatnonzero(norms > 0), np.flatnonzero(counts))
        assert 0 < np.count_nonzero(counts) < grid.size

    def test_cached_norms_evaluate_no_envelope(self, params, grid, monkeypatch):
        calls = []
        real = operator._envelope

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(operator, "_envelope", counting)
        sel = select_measurements(16, params.nr * params.na, seed=2)
        streamed = SensingOperator(params, grid, sel, cache_policy="none")
        streamed.column_norms()
        tiles = len(calls)
        assert tiles  # the patch reaches the operator
        cached = SensingOperator(params, grid, sel, cache_policy="full-row-cache")
        cached.adjoint(np.ones(16, dtype=complex), search=True)
        assert len(calls) == 2 * tiles  # the build, one envelope per tile
        assert np.array_equal(cached.column_norms(), streamed.column_norms())
        assert len(calls) == 2 * tiles
        # a streamed search records the norms from its own tiles' masks
        searched = SensingOperator(params, grid, sel, cache_policy="none")
        searched.adjoint(np.ones(16, dtype=complex), search=True)
        assert len(calls) == 3 * tiles
        assert np.array_equal(searched.column_norms(), streamed.column_norms())
        assert len(calls) == 3 * tiles
