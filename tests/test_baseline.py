import dataclasses

import numpy as np
import pytest

from sarcs import baseline
from sarcs.baseline import (
    IntensityImage,
    matched_filter_image,
    profile_to_image,
    sidelobe_metrics,
)
from sarcs.echo import EchoMatrix, point_echo, unit_echo_samples
from sarcs.model import GridCoord, Target, grid_to_physical
from sarcs.recovery import SparseProfile

from conftest import small_radar, small_search_grid

HYPOTHESES = [(-5.0, -5.0), (0.0, -5.0), (-5.0, 0.0), (0.0, 0.0)]


@pytest.fixture
def long_params():
    # window much longer than the pulse, so atom windows end inside it
    return small_radar(nr=220)


def on_sample_target(params, delay_samples, y=0.0, vx=0.0, vy=0.0, sigma=1.0):
    x = (params.tau0 + delay_samples / params.fs) * params.c / 2.0
    return Target(x, y, vx, vy, sigma)


def per_sample_image(echo, grid, velocity_hypothesis):
    """Reference correlator: builds every atom sample from the shared kernel,
    one pulse at a time, and normalizes by the atom sample energy."""
    vx, vy = velocity_hypothesis
    params = echo.params
    xs = grid.x_axis()[:, None]
    ys = grid.y_axis()[None, :]
    taus = params.fast_times()[:, None, None]
    acc = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    norms_sq = np.zeros((grid.nx, grid.ny))
    for n, eta in enumerate(params.slow_times()):
        atoms = unit_echo_samples(params, xs, ys, vx, vy, taus, eta)
        acc += np.conj(np.tensordot(np.conj(echo.samples[:, n]), atoms, axes=(0, 0)))
        norms_sq += np.einsum("mij,mij->ij", atoms.real, atoms.real)
        norms_sq += np.einsum("mij,mij->ij", atoms.imag, atoms.imag)
    pixels = np.abs(acc)
    seen = norms_sq > 0
    pixels[seen] /= np.sqrt(norms_sq[seen])
    pixels[~seen] = 0.0
    return pixels


def random_echo(params, seed):
    rng = np.random.default_rng(seed)
    shape = (params.nr, params.na)
    return EchoMatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), params)


def assert_matches_per_sample(echo, grid, hypothesis):
    image = matched_filter_image(echo, grid, hypothesis).pixels
    reference = per_sample_image(echo, grid, hypothesis)
    assert reference.max() > 0
    assert np.max(np.abs(image - reference)) <= 1e-9 * reference.max()
    assert np.argmax(image) == np.argmax(reference)


class TestMatchedFilterAgainstPerSample:
    @pytest.mark.parametrize("hypothesis", HYPOTHESES)
    @pytest.mark.parametrize("radar", ["params", "long_params"])
    def test_random_echo(self, request, grid, radar, hypothesis):
        echo = random_echo(request.getfixturevalue(radar), seed=11)
        assert_matches_per_sample(echo, grid, hypothesis)

    def test_tiles_of_three_pulses(self, long_params, grid, monkeypatch):
        # 32 pulses in ten tiles of three and one of two; blocks of 15 samples
        monkeypatch.setattr(baseline, "_TILE_ELEMENTS", 3 * 15 * grid.nx * grid.ny)
        assert_matches_per_sample(random_echo(long_params, seed=12), grid, (-5.0, 0.0))

    @pytest.mark.parametrize("delay_samples", [-5, 30], ids=["cut-at-start", "cut-at-end"])
    def test_target_cut_by_window(self, params, delay_samples):
        target = on_sample_target(params, delay_samples, y=1.0)
        # the target sits on cell (2, 1) of a grid moved onto its range
        grid = dataclasses.replace(small_search_grid(), x0=target.x - 4.0)
        echo = point_echo(target, params)
        assert 0 < np.count_nonzero(echo.samples[:, params.na // 2]) < 100
        assert_matches_per_sample(echo, grid, (0.0, 0.0))
        image = matched_filter_image(echo, grid, (0.0, 0.0)).pixels
        assert np.unravel_index(np.argmax(image), image.shape) == (2, 1)

    def test_fig2_crop(self, three_target_echo, full_grid):
        # 5x5 cells round the static target at cell (8, 5)
        crop = dataclasses.replace(
            full_grid,
            x0=full_grid.x0 + 6 * full_grid.dx,
            y0=full_grid.y0 + 3 * full_grid.dy,
            nx=5,
            ny=5,
        )
        assert_matches_per_sample(three_target_echo, crop, (0.0, 0.0))


class TestMatchedFilterImage:
    def test_matched_hypothesis_peaks_at_true_bin_exhaustively(self, params, grid):
        # every spatial cell, two velocity hypotheses
        for p_idx, q_idx in ((1, 1), (0, 1)):
            for n1 in range(grid.nx):
                for n2 in range(grid.ny):
                    coord = GridCoord(n1, n2, p_idx, q_idx)
                    x, y, vx, vy = grid_to_physical(coord, grid)
                    echo = point_echo(Target(x, y, vx, vy), params)
                    image = matched_filter_image(echo, grid, (vx, vy))
                    assert image.pixels.shape == (grid.nx, grid.ny)
                    peak = np.unravel_index(np.argmax(image.pixels), image.pixels.shape)
                    assert peak == (n1, n2)

    def test_velocity_mismatch_loses_gain(self, params, grid):
        coord = GridCoord(2, 1, 1, 1)
        x, y, vx, vy = grid_to_physical(coord, grid)
        echo = point_echo(Target(x, y, vx, vy), params)
        matched = matched_filter_image(echo, grid, (0.0, 0.0)).pixels[2, 1]
        mismatched = matched_filter_image(echo, grid, (-5.0, 0.0)).pixels[2, 1]
        assert mismatched < matched

    def test_off_grid_hypothesis_rejected(self, params, grid):
        echo = point_echo(Target(2000.0, 0.0, 0.0, 0.0), params)
        with pytest.raises(ValueError, match="not on the grid"):
            matched_filter_image(echo, grid, (1.0, 0.0))

    def test_zero_echo_gives_zero_image(self, params, grid):
        echo = EchoMatrix(np.zeros((params.nr, params.na), dtype=complex), params)
        image = matched_filter_image(echo, grid, (0.0, 0.0))
        assert not image.pixels.any()


class TestProfileToImage:
    def test_sums_magnitudes_over_velocity(self, grid):
        profile = SparseProfile(
            (
                (GridCoord(1, 2, 0, 0), 3.0),
                (GridCoord(1, 2, 1, 1), 4.0j),
                (GridCoord(0, 0, 0, 0), 1.0),
            ),
            grid,
        )
        image = profile_to_image(profile)
        assert image.velocity_hypothesis is None
        assert image.pixels[1, 2] == pytest.approx(7.0)
        assert image.pixels[0, 0] == pytest.approx(1.0)


class TestSidelobeMetrics:
    def test_one_hot_image(self):
        pixels = np.zeros((9, 9))
        pixels[4, 4] = 2.0
        pslr, width = sidelobe_metrics(IntensityImage(pixels, None), [(4, 4)])
        assert pslr == -np.inf
        assert width == 1

    def test_finite_sidelobes_for_matched_filter(self, params, grid):
        coord = GridCoord(2, 1, 1, 1)
        x, y, vx, vy = grid_to_physical(coord, grid)
        echo = point_echo(Target(x, y, vx, vy), params)
        image = matched_filter_image(echo, grid, (0.0, 0.0))
        pslr, width = sidelobe_metrics(image, [coord])
        assert np.isfinite(pslr)
        assert pslr < 0.0
        assert width >= 1

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError, match="empty image"):
            sidelobe_metrics(IntensityImage(np.zeros((3, 3)), None), [(0, 0)])

    def test_no_true_coords_rejected(self):
        pixels = np.ones((3, 3))
        with pytest.raises(ValueError, match="true coordinate"):
            sidelobe_metrics(IntensityImage(pixels, None), [])

    def test_accepts_grid_coords_and_tuples(self):
        pixels = np.zeros((5, 5))
        pixels[2, 2] = 1.0
        pixels[0, 4] = 0.25
        as_tuple, _ = sidelobe_metrics(IntensityImage(pixels, None), [(2, 2)])
        as_coord, _ = sidelobe_metrics(
            IntensityImage(pixels, None), [GridCoord(2, 2, 0, 0)]
        )
        assert as_tuple == as_coord == pytest.approx(20 * np.log10(0.25))


class TestIntensityImage:
    def test_rejects_negative_pixels(self):
        with pytest.raises(ValueError, match="non-negative"):
            IntensityImage(np.array([[-1.0, 0.0]]), None)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            IntensityImage(np.zeros(4), None)
