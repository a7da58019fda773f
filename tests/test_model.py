import dataclasses
import math

import numpy as np
import pytest

from sarcs.model import (
    ExtendedGrid,
    GridCoord,
    RadarParams,
    Target,
    check_simulation_geometry,
    flat_index,
    grid_to_physical,
    unflatten,
)

from conftest import small_radar, small_search_grid


@pytest.fixture
def production_grid():
    return ExtendedGrid(
        x0=29992.5, y0=0.0, vx0=-10.0, vy0=-10.0,
        dx=0.5, dy=0.5, dvx=2.0, dvy=2.0,
        nx=31, ny=31, nvx=11, nvy=11,
    )


class TestRadarParams:
    def test_production_values_pass_invariants(self, full_params):
        p = full_params
        assert p.v == 250.0
        assert p.kr == pytest.approx(1e13, rel=1e-12)
        assert p.nr == 1213 and p.na == 595
        assert p.aperture_time == pytest.approx(595 / 300.0)

    def test_window_must_hold_one_pulse(self):
        with pytest.raises(ValueError, match="shorter than"):
            small_radar(nr=99)

    def test_exact_pulse_length_window_is_accepted(self):
        # tp * fs = 100 exactly; roundoff in the product must not reject it
        small_radar(nr=100)

    def test_sampling_must_be_positive(self):
        for field, value in (("fa", -1.0), ("fs", 0.0), ("na", 0), ("tau0", -1e-6)):
            kwargs = dict(
                v=100.0, f0=1e9, tp=2e-6,
                bandwidth=20e6, fs=25e6, fa=100.0, nr=52, na=32, tau0=0.0,
            )
            kwargs[field] = value
            with pytest.raises(ValueError):
                RadarParams(**kwargs)

    @pytest.mark.parametrize("field", ["v", "f0", "tp", "bandwidth", "fs", "fa", "tau0"])
    def test_requires_finite_constants(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(small_radar(), **{field: math.inf})

    def test_overflowing_pulse_samples_are_refused_not_raised(self):
        # tp * fs overflows to inf: a window too short, not an OverflowError
        with pytest.raises(ValueError, match="shorter than"):
            dataclasses.replace(small_radar(), tp=1e300, fs=1e300)

    def test_time_axes(self):
        p = small_radar()
        taus = p.fast_times()
        etas = p.slow_times()
        assert taus.shape == (104,) and etas.shape == (32,)
        assert taus[0] == p.tau0
        assert taus[1] - taus[0] == pytest.approx(1 / p.fs)
        # centered slow-time axis straddles eta = 0
        assert etas[16] == 0.0
        assert etas[0] == -16 / p.fa


class TestTarget:
    def test_requires_finite_fields(self):
        with pytest.raises(ValueError):
            Target(math.nan, 0.0, 0.0, 0.0)

    def test_reflectivity_defaults_to_one(self):
        assert Target(5000.0, 0.0, 0.0, 0.0).reflectivity == 1.0 + 0.0j


class TestGridIndexing:
    def test_origin_is_flat_zero(self, production_grid):
        assert flat_index(GridCoord(0, 0, 0, 0), production_grid) == 0

    def test_n1_is_fastest(self, production_grid):
        assert flat_index(GridCoord(1, 0, 0, 0), production_grid) == 1

    def test_n2_stride_is_nx(self, production_grid):
        assert flat_index(GridCoord(0, 1, 0, 0), production_grid) == 31

    def test_flat_index_rejects_out_of_range(self, production_grid):
        for bad in (GridCoord(31, 0, 0, 0), GridCoord(0, -1, 0, 0), GridCoord(0, 0, 11, 0)):
            with pytest.raises(ValueError):
                flat_index(bad, production_grid)

    def test_unflatten_rejects_out_of_range(self, production_grid):
        for bad in (-1, production_grid.size):
            with pytest.raises(ValueError):
                unflatten(bad, production_grid)

    def test_bijectivity_exhaustive_on_production_grid(self, production_grid):
        size = production_grid.size
        assert size == 116281
        seen = np.zeros(size, dtype=bool)
        for flat in range(size):
            coord = unflatten(flat, production_grid)
            assert 0 <= coord.n1 < 31 and 0 <= coord.n2 < 31
            assert 0 <= coord.p < 11 and 0 <= coord.q < 11
            back = flat_index(coord, production_grid)
            assert back == flat
            seen[flat] = True
        assert seen.all()


class TestGridToPhysical:
    def test_origin(self, production_grid):
        assert grid_to_physical(GridCoord(0, 0, 0, 0), production_grid) == (
            29992.5, 0.0, -10.0, -10.0,
        )

    def test_affine_map_examples(self, production_grid):
        # oracle: plain-arithmetic affine map evaluated independently
        assert grid_to_physical(GridCoord(8, 5, 10, 5), production_grid) == (
            29992.5 + 0.5 * 8, 0.0 + 0.5 * 5, -10.0 + 2.0 * 10, -10.0 + 2.0 * 5,
        )
        assert grid_to_physical(GridCoord(23, 16, 7, 7), production_grid) == (
            30004.0, 8.0, 4.0, 4.0,
        )

    def test_strictly_monotone_in_each_index(self, production_grid):
        base = grid_to_physical(GridCoord(3, 3, 3, 3), production_grid)
        bumped = [
            grid_to_physical(GridCoord(4, 3, 3, 3), production_grid),
            grid_to_physical(GridCoord(3, 4, 3, 3), production_grid),
            grid_to_physical(GridCoord(3, 3, 4, 3), production_grid),
            grid_to_physical(GridCoord(3, 3, 3, 4), production_grid),
        ]
        for axis, values in enumerate(bumped):
            assert values[axis] > base[axis]
            for other in range(4):
                if other != axis:
                    assert values[other] == base[other]


class TestExtendedGridValidation:
    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ValueError, match="bin sizes"):
            small_search_grid().__class__(
                x0=0, y0=0, vx0=0, vy0=0, dx=0.0, dy=1, dvx=1, dvy=1,
                nx=1, ny=1, nvx=1, nvy=1,
            )

    @pytest.mark.parametrize("field", ["x0", "y0", "vx0", "vy0", "dx", "dy", "dvx", "dvy"])
    def test_requires_finite_axes(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(small_search_grid(), **{field: math.nan})

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError, match="counts"):
            ExtendedGrid(
                x0=0, y0=0, vx0=0, vy0=0, dx=1, dy=1, dvx=1, dvy=1,
                nx=0, ny=1, nvx=1, nvy=1,
            )


class TestSimulationGeometry:
    def test_production_pair_passes(self, full_params, production_grid):
        check_simulation_geometry(full_params, production_grid)

    def test_small_pair_passes(self):
        check_simulation_geometry(small_radar(), small_search_grid())

    def test_window_starting_late_is_rejected(self):
        params = small_radar()
        late = RadarParams(
            v=params.v, f0=params.f0, tp=params.tp, bandwidth=params.bandwidth, fs=params.fs, fa=params.fa,
            nr=params.nr, na=params.na, tau0=params.tau0 + 1e-6,
        )
        with pytest.raises(ValueError, match="starts after"):
            check_simulation_geometry(late, small_search_grid())

    def test_window_ending_early_is_rejected(self):
        grid = small_search_grid()
        far = ExtendedGrid(
            x0=grid.x0, y0=grid.y0, vx0=grid.vx0, vy0=grid.vy0,
            dx=30.0, dy=grid.dy, dvx=grid.dvx, dvy=grid.dvy,
            nx=grid.nx, ny=grid.ny, nvx=grid.nvx, nvy=grid.nvy,
        )
        with pytest.raises(ValueError, match="ends before"):
            check_simulation_geometry(small_radar(), far)

    def test_platform_speed_on_velocity_grid_is_rejected(self):
        grid = ExtendedGrid(
            x0=2000.0, y0=0.0, vx0=-5.0, vy0=95.0, dx=2.0, dy=1.0,
            dvx=5.0, dvy=5.0, nx=4, ny=4, nvx=2, nvy=2,
        )
        with pytest.raises(ValueError, match="platform speed"):
            check_simulation_geometry(small_radar(), grid)

    @pytest.mark.parametrize("field, value", [("f0", 8.98846567431158e307), ("bandwidth", 1e308)])
    def test_phase_that_overflows_is_rejected(self, field, value):
        # 2 * f0 or the chirp's (kr / 2) tp^2 leaves float64: every sample would be nan
        params = dataclasses.replace(small_radar(), **{field: value})
        with pytest.raises(ValueError, match="overflow a float"):
            check_simulation_geometry(params, small_search_grid())
