import math
from pathlib import Path

import pytest

from sarcs import operator
from sarcs.config import ConfigError, load_config
from sarcs.model import GridCoord

SMALL_RADAR = """
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
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_config_uses_production_profile(self, tmp_path):
        cfg = load_config(write(tmp_path, "[output]\ndirectory = out\n"))
        assert cfg.params.nr == 1213 and cfg.params.na == 595
        assert cfg.params.v == 250.0
        assert cfg.params.kr == pytest.approx(1e13)
        assert cfg.params.tau0 == pytest.approx(2 * 29992.5 / 3e8)
        assert (cfg.grid.nx, cfg.grid.ny, cfg.grid.nvx, cfg.grid.nvy) == (31, 31, 11, 11)
        assert cfg.grid.size == 116281
        assert cfg.measurements == 100
        assert cfg.targets == ()
        assert cfg.hypotheses == ((0.0, 0.0),)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "smoke"])
    def test_chirp_rate_is_bandwidth_over_pulse_width(self, name):
        params = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini").params
        assert params.kr == params.bandwidth / params.tp

    def test_small_override(self, tmp_path):
        cfg = load_config(write(tmp_path, SMALL_RADAR))
        assert cfg.params.nr == 104
        assert cfg.params.tau0 == pytest.approx(2 * 2000.0 / 3e8)
        assert cfg.grid.size == 64


class TestSceneParsing:
    def test_explicit_targets(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\ntargets = 2004.0,1.0,0.0,0.0 ; 2002.0,3.0,0.0,-5.0,0.5,0.25\n"
        cfg = load_config(write(tmp_path, text))
        assert len(cfg.targets) == 2
        assert cfg.sparsity == 2
        assert cfg.targets[1].reflectivity == 0.5 + 0.25j
        scene, truth = cfg.build_scene()
        assert truth is not None
        coords = [coord for coord, _ in truth.entries]
        assert GridCoord(2, 1, 1, 1) in coords
        assert GridCoord(1, 3, 1, 0) in coords

    def test_off_grid_target_has_no_truth(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\ntargets = 2004.5,1.0,0.0,0.0\n"
        cfg = load_config(write(tmp_path, text))
        scene, truth = cfg.build_scene()
        assert len(scene.targets) == 1
        assert truth is None

    def test_random_scene(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\nrandom_targets = 3\nscene_seed = 5\n"
        cfg = load_config(write(tmp_path, text))
        scene, truth = cfg.build_scene()
        assert len(scene.targets) == 3
        assert len(truth.entries) == 3
        assert cfg.sparsity == 3

    def test_both_scene_styles_rejected(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\ntargets = 2004.0,1.0,0.0,0.0\nrandom_targets = 2\n"
        with pytest.raises(ConfigError, match="random_targets"):
            load_config(write(tmp_path, text))

    def test_bad_target_entry(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\ntargets = 2004.0,1.0\n"
        with pytest.raises(ConfigError, match="targets"):
            load_config(write(tmp_path, text))

    def test_infinite_snr_means_no_noise(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\nsnr_db = inf\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.snr_db is None


class TestValidation:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, "[radars]\nx = 1\n"))

    def test_unknown_key_names_section_and_key(self, tmp_path):
        # wavelength and chirp_rate follow from the other [radar] keys, the
        # propagation speed is a constant and the sweep mode follows from
        # snr_values_db, so they are not settings
        for section, key in (
            ("radar", "pulsewidth"),
            ("radar", "wavelength"),
            ("radar", "chirp_rate"),
            ("radar", "propagation_speed"),
            ("experiment", "mode"),
            ("output", "echo_magnitude_csv"),
        ):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
                load_config(write(tmp_path, f"[{section}]\n{key} = 1\n"))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "nx", "many"),
            ("experiment", "target_counts", "1,x"),
            ("experiment", "measurement_counts", "8;16"),
            ("experiment", "snr_values_db", "5,loud"),
            ("experiment", "snr_values_db", "5,nan"),
            ("experiment", "snr_values_db", "-inf"),
            ("baseline", "velocity_hypotheses", "0,0,0"),
            ("recovery", "max_iterations", "0"),
            ("recovery", "residual_threshold", "-1"),
            ("recovery", "residual_threshold", "nan"),
            ("experiment", "mode", "psr_vs_q"),
            ("scene", "snr_db", "nan"),
            ("scene", "snr_db", "-inf"),
            ("recovery", "sparsity", "0"),
            ("recovery", "stall_tolerance", "nan"),
            ("recovery", "stall_tolerance", "-1"),
            ("experiment", "measurement_counts", "8,16,0"),
            ("experiment", "target_counts", "1,0"),
            # the stock radar holds nr * na = 1213 * 595 = 721735 samples
            ("recovery", "measurements", "721736"),
            ("experiment", "measurement_counts", "8,721736"),
            # and nx * ny * nvx * nvy = 31 * 31 * 11 * 11 = 116281 grid cells
            ("experiment", "target_counts", "1,116282"),
            ("scene", "random_targets", "116282"),
            ("scene", "random_targets", "-1"),
            ("recovery", "sparsity", "116282"),
        ],
    )
    def test_unparsable_value_names_key(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_bad_cache_policy(self, tmp_path):
        # the memory rule picks the row cache, so any value is refused
        with pytest.raises(ConfigError, match=r"\[recovery\] cache_policy: unknown key"):
            load_config(write(tmp_path, "[recovery]\ncache_policy = sparse\n"))

    def test_bad_thread_count(self, tmp_path):
        with pytest.raises(ConfigError, match="threads"):
            load_config(write(tmp_path, "[experiment]\nthreads = 0\n"))

    def test_inconsistent_radar_pair_rejected(self, tmp_path):
        text = SMALL_RADAR + "\n[radar]\nrange_window_start = 1.0\n"
        # configparser rejects duplicate sections; build a fresh file instead
        text = SMALL_RADAR.replace(
            "range_samples = 104", "range_samples = 104\nrange_window_start = 1.0"
        )
        with pytest.raises(ConfigError, match="radar"):
            load_config(write(tmp_path, text))


class TestEffectiveConfig:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "smoke"])
    def test_shipped_configs_render_golden(self, name):
        # effective_config.ini is a run output: any change to it must be deliberate
        root = Path(__file__).resolve().parent
        cfg = load_config(root.parent / "configs" / f"{name}.ini")
        golden = (root / "data" / f"{name}_effective_config.ini").read_bytes()
        assert cfg.render_effective().encode() == golden

    def test_render_round_trips(self, tmp_path):
        text = SMALL_RADAR + "\n[scene]\ntargets = 2004.0,1.0,0.0,0.0\n[recovery]\nmeasurements = 24\n"
        cfg = load_config(write(tmp_path, text))
        rendered = cfg.render_effective()
        back = load_config(write(tmp_path, rendered, name="effective.ini"))
        assert back.params == cfg.params
        assert back.grid == cfg.grid
        assert back.targets == cfg.targets
        # sparsity is resolved from the scene in the effective rendering
        assert back.sparsity == cfg.sparsity
        assert back.measurements == cfg.measurements
        assert back.render_effective() == rendered

    def test_experiment_section_round_trips(self, tmp_path):
        text = SMALL_RADAR + (
            "\n[experiment]\ntarget_counts = 1,2\n"
            "measurement_counts = 8,16\ntrials_per_point = 2\nbase_seed = 11\nthreads = 2\n"
        )
        cfg = load_config(write(tmp_path, text))
        spec = cfg.experiment_spec()
        assert spec.target_counts == (1, 2)
        assert spec.workers == 2
        back = load_config(write(tmp_path, cfg.render_effective(), name="eff.ini"))
        assert back.experiment_spec() == spec

    def test_sweep_keeps_row_caches_that_fit_to_the_byte(self, tmp_path, monkeypatch):
        text = SMALL_RADAR + (
            "\n[experiment]\ntarget_counts = 1\n"
            "measurement_counts = 8,16\nthreads = 2\n"
        )
        cfg = load_config(write(tmp_path, text))
        need = 2 * 16 * 64 * 16  # threads, largest M, N columns, complex128
        for memory, policy in ((need, "full-row-cache"), (need - 1, "none")):
            monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: memory)
            assert cfg.experiment_spec().cache_policy == policy

    def test_recovery_limits_reach_the_sweep(self, tmp_path):
        text = SMALL_RADAR + (
            "\n[recovery]\nmax_iterations = 3\nstall_tolerance = 0.25\n"
            "\n[experiment]\ntarget_counts = 1\nmeasurement_counts = 8\n"
        )
        spec = load_config(write(tmp_path, text)).experiment_spec()
        assert (spec.max_iterations, spec.stall_tolerance) == (3, 0.25)

    def test_sweep_without_experiment_section_rejected(self, tmp_path):
        cfg = load_config(write(tmp_path, SMALL_RADAR))
        assert cfg.experiment_mode is None
        with pytest.raises(ConfigError, match=r"\[experiment\]: section required"):
            cfg.experiment_spec()

    def test_snr_values_pick_the_sweep_mode(self, tmp_path):
        counts = "\n[experiment]\ntarget_counts = 1\nmeasurement_counts = 8\n"
        cfg = load_config(write(tmp_path, SMALL_RADAR + counts))
        assert cfg.experiment_spec().mode == "psr_vs_m"
        # inf stays in the list as the noiseless point
        cfg = load_config(write(tmp_path, SMALL_RADAR + counts + "snr_values_db = 5,inf\n"))
        spec = cfg.experiment_spec()
        assert (spec.mode, spec.snr_values_db) == ("psr_vs_snr", (5.0, math.inf))
        assert "snr_values_db = 5.0,inf\n" in cfg.render_effective()
