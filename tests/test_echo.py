import math

import numpy as np
import pytest

from sarcs.echo import (
    EchoMatrix,
    EmptyEchoWarning,
    add_noise,
    instantaneous_range,
    noise_variance,
    point_echo,
    scene_echo,
    unit_echo_samples,
)
from sarcs.model import Scene, Target

from conftest import small_radar


class TestInstantaneousRange:
    def test_static_target_at_aperture_center(self):
        assert instantaneous_range(30000.0, 0.0, 0.0, 0.0, 0.0, 250.0) == 30000.0

    def test_moving_target_after_one_second(self):
        # oracle: direct evaluation with the stdlib hypot
        expected = math.hypot(30000.0 + 10.0, 0.0 - 250.0)
        got = instantaneous_range(30000.0, 0.0, 10.0, 0.0, 1.0, 250.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(30011.041, abs=5e-4)

    def test_relative_motion_cancels(self):
        for eta in (-3.0, 0.0, 0.25, 7.0):
            assert instantaneous_range(3.0, 4.0, 0.0, 250.0, eta, 250.0) == pytest.approx(5.0)

    def test_broadcasts_over_eta(self):
        etas = np.linspace(-1.0, 1.0, 7)
        got = instantaneous_range(30000.0, 0.0, 0.0, 0.0, etas, 250.0)
        assert got.shape == etas.shape


class TestPointEcho:
    def test_zero_reflectivity_gives_zero_matrix(self, params):
        echo = point_echo(Target(2000.0, 0.0, 0.0, 0.0, 0.0), params)
        assert not echo.samples.any()

    def test_magnitudes_are_zero_or_reflectivity(self, params):
        sigma = 0.5 - 0.25j
        echo = point_echo(Target(2000.5, 1.0, 0.0, 0.0, sigma), params)
        mags = np.abs(echo.samples)
        nonzero = mags[mags > 0]
        assert nonzero.size > 0
        assert np.allclose(nonzero, abs(sigma), rtol=1e-12)

    def test_target_outside_window_warns_and_is_zero(self, params):
        window_end = params.tau0 + params.nr / params.fs
        far = Target((window_end + params.tp) * params.c / 2.0 + 100.0, 0.0, 0.0, 0.0)
        with pytest.warns(EmptyEchoWarning):
            echo = point_echo(far, params)
        assert not echo.samples.any()

    def test_azimuth_speed_equal_platform_rejected(self, params):
        with pytest.raises(ValueError, match="platform speed"):
            point_echo(Target(2000.0, 0.0, 0.0, params.v), params)

    def test_azimuth_gate_follows_zero_doppler_time(self, params):
        # eta_c > 0 pushes the early edge of the aperture out of the gate
        target = Target(2000.0, 3.0, 0.0, 0.0)
        eta_c = target.y / params.v
        echo = point_echo(target, params)
        column_active = np.abs(echo.samples).sum(axis=0) > 0
        etas = params.slow_times()
        expected = np.abs(etas - eta_c) <= params.aperture_time / 2
        assert np.array_equal(column_active, expected)
        assert not column_active.all()


class TestSceneEcho:
    def test_empty_scene_is_zero(self, params):
        echo = scene_echo(Scene(()), params)
        assert echo.samples.shape == (params.nr, params.na)
        assert not echo.samples.any()

    def test_singleton_scene_equals_point_echo(self, params):
        target = Target(2001.0, 1.0, 5.0, 0.0, 0.7 + 0.1j)
        assert np.array_equal(
            scene_echo(Scene((target,)), params).samples,
            point_echo(target, params).samples,
        )

    def test_disjoint_supports_preserve_magnitudes(self):
        # longer window so two pulses fit with disjoint delay spans
        params = small_radar(nr=220)
        sep = params.c * params.tp / 2.0 + 30.0
        t1 = Target(2000.0, 0.0, 0.0, 0.0, 1.0)
        t2 = Target(2000.0 + sep, 0.0, 0.0, 0.0, 0.5)
        e1 = point_echo(t1, params).samples
        e2 = point_echo(t2, params).samples
        assert not np.any((np.abs(e1) > 0) & (np.abs(e2) > 0))
        total = scene_echo(Scene((t1, t2)), params).samples
        assert np.array_equal(total, e1 + e2)

    def test_linear_in_reflectivity(self, params):
        base = Target(2001.0, 2.0, 5.0, -5.0, 1.0)
        scaled = Target(2001.0, 2.0, 5.0, -5.0, 2.0 - 1.0j)
        e_base = scene_echo(Scene((base,)), params).samples
        e_scaled = scene_echo(Scene((scaled,)), params).samples
        assert np.allclose(e_scaled, (2.0 - 1.0j) * e_base, rtol=0, atol=1e-15)

    def test_additive_over_scene_union(self, params):
        a = Target(2000.0, 1.0, 0.0, 0.0)
        b = Target(2004.0, 2.0, 5.0, 0.0, 0.3j)
        union = scene_echo(Scene((a, b)), params).samples
        parts = scene_echo(Scene((a,)), params).samples + scene_echo(Scene((b,)), params).samples
        assert np.array_equal(union, parts)


class TestEchoMatrix:
    def test_shape_must_match_params(self, params):
        with pytest.raises(ValueError, match="does not match"):
            EchoMatrix(np.zeros((3, 3), dtype=complex), params)

    def test_rejects_non_finite(self, params):
        samples = np.zeros((params.nr, params.na), dtype=complex)
        samples[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            EchoMatrix(samples, params)

    def test_vec_is_column_stacked(self, params):
        samples = np.arange(params.nr * params.na, dtype=float).reshape(
            params.nr, params.na
        ) * (1 + 1j)
        vec = EchoMatrix(samples, params).vec()
        m, n = 7, 3
        assert vec[m + params.nr * n] == samples[m, n]


class TestAddNoise:
    def test_infinite_snr_is_identity(self, params):
        echo = point_echo(Target(2000.0, 0.0, 0.0, 0.0), params)
        assert add_noise(echo, math.inf, seed=1) is echo

    def test_deterministic_per_seed(self, params):
        echo = point_echo(Target(2000.0, 0.0, 0.0, 0.0), params)
        a = add_noise(echo, 10.0, seed=99).samples
        b = add_noise(echo, 10.0, seed=99).samples
        assert np.array_equal(a, b)
        c = add_noise(echo, 10.0, seed=100).samples
        assert not np.array_equal(a, c)

    def test_zero_echo_rejected(self, params):
        echo = EchoMatrix(np.zeros((params.nr, params.na), dtype=complex), params)
        with pytest.raises(ValueError, match="identically zero"):
            add_noise(echo, 10.0, seed=1)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_non_finite_snr_rejected_naming_it(self, params, snr):
        echo = point_echo(Target(2000.0, 0.0, 0.0, 0.0), params)
        with pytest.raises(ValueError, match="snr_db: must be finite, or inf"):
            add_noise(echo, snr, seed=1)

    def test_empirical_snr_at_scale(self, full_params):
        echo = point_echo(Target(30000.0, 0.0, 0.0, 0.0), full_params)
        support = np.abs(echo.samples) > 0
        assert support.sum() >= 1e5
        requested = 7.0
        noisy = add_noise(echo, requested, seed=5)
        noise = noisy.samples - echo.samples
        measured_var = np.mean(np.abs(noise[support]) ** 2)
        signal_power = np.mean(np.abs(echo.samples[support]) ** 2)
        measured_snr = 10.0 * np.log10(signal_power / measured_var)
        assert measured_snr == pytest.approx(requested, abs=0.3)

    def test_energy_conservation(self, full_params):
        echo = point_echo(Target(30000.0, 0.0, 0.0, 0.0), full_params)
        snr = 0.0
        noisy = add_noise(echo, snr, seed=11)

        def energy(e):
            return np.sum(np.abs(e.samples) ** 2)

        expected = energy(echo) + echo.samples.size * noise_variance(echo, snr)
        assert energy(noisy) == pytest.approx(expected, rel=0.02)


class TestRangeCellMigration:
    def test_fast_mover_delay_drifts_across_aperture(self, three_target_scene, full_params):
        scene, _, _ = three_target_scene
        mover = scene.targets[1]
        assert mover.vx == 10.0
        echo = point_echo(mover, full_params)
        active = np.abs(echo.samples) > 0
        onsets = np.array(
            [np.argmax(active[:, n]) for n in range(full_params.na) if active[:, n].any()]
        )
        drift = onsets.max() - onsets.min()
        assert drift >= 14


class TestKernelBroadcasting:
    def test_scalar_inputs_give_scalar_output(self, params):
        value = unit_echo_samples(
            params, 2000.0, 0.0, 0.0, 0.0, params.tau0 + 10 / params.fs, 0.0
        )
        assert value.shape == ()
        assert abs(complex(value)) == pytest.approx(1.0)
