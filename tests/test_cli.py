import os
import struct
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import sarcs
from sarcs import cli, experiments, operator
from sarcs.cli import main
from sarcs.storage import read_profile_csv
from sarcs.config import load_config

SMALL_BASE = """
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

SCENE_TARGETS = "targets = 2004.0,1.0,0.0,0.0 ; 2002.0,3.0,0.0,-5.0"

SMALL_SCENE = SMALL_BASE + f"""
[scene]
{SCENE_TARGETS}

[recovery]
measurements = 24
selection_seed = 3
"""


def write_config(tmp_path, text, out_name, name="run.ini"):
    path = tmp_path / name
    path.write_text(text + f"\n[output]\ndirectory = {tmp_path / out_name}\n")
    return path


class TestSimulate:
    def test_writes_echo_truth_and_config(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_SCENE, "out")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        raw = (out / "echo.bin").read_bytes()
        magic, rows, cols = struct.unpack("<8sII", raw[:16])
        assert magic == b"SARECHO1" and (rows, cols) == (104, 32)
        assert (out / "truth.csv").exists()
        assert (out / "effective_config.ini").exists()
        assert (out / "summary.txt").exists()
        cfg = load_config(cfg_path)
        truth = read_profile_csv(out / "truth.csv", cfg.grid)
        assert len(truth.entries) == 2

    def test_empty_scene_writes_zero_echo(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_BASE, "out")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        raw = (tmp_path / "out" / "echo.bin").read_bytes()
        payload = np.frombuffer(raw[16:], dtype="<c16")
        assert not payload.any()
        # empty scene still has a (zero-entry) truth profile
        truth_lines = (tmp_path / "out" / "truth.csv").read_text().splitlines()
        assert truth_lines == ["flat_index,n1,n2,p,q,re,im"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_SCENE, "out_a")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out_a" / "echo.bin").read_bytes()
        assert main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "out_b")]) == 0
        second = (tmp_path / "out_b" / "echo.bin").read_bytes()
        assert first == second

    def test_production_header_dimensions(self, tmp_path):
        text = """
[scene]
targets = 29996.5,2.5,0.0,0.0 ; 30000.0,10.0,10.0,0.0 ; 30004.0,8.0,4.0,4.0
"""
        cfg_path = write_config(tmp_path, text, "out")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        raw = (tmp_path / "out" / "echo.bin").read_bytes()[:16]
        magic, rows, cols = struct.unpack("<8sII", raw)
        assert (rows, cols) == (1213, 595)


@pytest.fixture
def simulated(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENE, "sim")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp_path / "sim"


class TestImageCs:
    def test_recovers_scene(self, tmp_path, simulated, capsys):
        cfg_path, sim = simulated
        code = main([
            "image-cs", "--config", str(cfg_path),
            "--echo", str(sim / "echo.bin"),
            "--truth", str(sim / "truth.csv"),
            "--output", str(tmp_path / "cs"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "relative_error" in printed
        cfg = load_config(cfg_path)
        recovered = read_profile_csv(tmp_path / "cs" / "recovered.csv", cfg.grid)
        truth = read_profile_csv(sim / "truth.csv", cfg.grid)
        assert set(recovered.flat) == set(truth.flat)
        assert (tmp_path / "cs" / "diagnostics.csv").exists()
        header = (tmp_path / "cs" / "recovered.csv").read_text().splitlines()[0]
        assert header == "flat_index,n1,n2,p,q,x,y,vx,vy,re,im"

    def test_rerun_is_byte_identical(self, tmp_path, simulated):
        cfg_path, sim = simulated
        for name in ("cs_a", "cs_b"):
            assert main([
                "image-cs", "--config", str(cfg_path),
                "--echo", str(sim / "echo.bin"),
                "--output", str(tmp_path / name),
            ]) == 0
        a = (tmp_path / "cs_a" / "recovered.csv").read_bytes()
        b = (tmp_path / "cs_b" / "recovered.csv").read_bytes()
        assert a == b

    def test_too_many_measurements_rejected(self, tmp_path, simulated):
        cfg_path, sim = simulated
        text = SMALL_SCENE.replace("measurements = 24", "measurements = 9999")
        bad = write_config(tmp_path, text, "bad", name="bad.ini")
        code = main([
            "image-cs", "--config", str(bad), "--echo", str(sim / "echo.bin"),
        ])
        assert code == 1

    def test_dimension_mismatch_rejected(self, tmp_path, simulated):
        cfg_path, sim = simulated
        text = SMALL_SCENE.replace("range_samples = 104", "range_samples = 105")
        bad = write_config(tmp_path, text, "bad", name="bad.ini")
        code = main([
            "image-cs", "--config", str(bad), "--echo", str(sim / "echo.bin"),
        ])
        assert code == 1

    def test_sparsity_required_without_scene(self, tmp_path, simulated):
        _, sim = simulated
        bare = write_config(tmp_path, SMALL_BASE + "\n[recovery]\nmeasurements = 24\n", "bare", name="bare.ini")
        code = main([
            "image-cs", "--config", str(bare), "--echo", str(sim / "echo.bin"),
        ])
        assert code == 1

    def test_row_cache_beyond_physical_memory_streams(self, tmp_path, simulated, monkeypatch):
        # the 24-row search cache of the 64-column grid needs exactly 12 KiB
        cfg_path, sim = simulated
        policies = []
        real = cli.SensingOperator

        def recording(*args):
            policies.append(args[-1])
            return real(*args)

        monkeypatch.setattr(cli, "SensingOperator", recording)
        for name, memory in (("cached", 12 * 1024), ("streamed", 12 * 1024 - 1)):
            monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: memory)
            assert main([
                "image-cs", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
                "--output", str(tmp_path / name),
            ]) == 0
        assert policies == ["full-row-cache", "none"]
        for output in ("recovered.csv", "diagnostics.csv"):
            cached = (tmp_path / "cached" / output).read_bytes()
            assert (tmp_path / "streamed" / output).read_bytes() == cached, output


class TestImageMf:
    def test_writes_images_and_metrics(self, tmp_path, capsys):
        text = SMALL_SCENE + "\n[baseline]\nvelocity_hypotheses = 0,0 ; -5,-5\n"
        cfg_path = write_config(tmp_path, text, "sim")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        sim = tmp_path / "sim"
        code = main([
            "image-mf", "--config", str(cfg_path),
            "--echo", str(sim / "echo.bin"),
            "--truth", str(sim / "truth.csv"),
            "--output", str(tmp_path / "mf"),
        ])
        assert code == 0
        assert (tmp_path / "mf" / "mf_vx0_vy0.pgm").exists()
        assert (tmp_path / "mf" / "mf_vx-5_vy-5.csv").exists()
        assert "pslr_db" in capsys.readouterr().out

    def test_off_grid_hypothesis_rejected(self, tmp_path, simulated, capsys):
        _, sim = simulated
        text = SMALL_SCENE + "\n[baseline]\nvelocity_hypotheses = 1,0\n"
        cfg_path = write_config(tmp_path, text, "mf", name="bad.ini")
        code = main([
            "image-mf", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
        ])
        assert code == 1
        assert "[baseline] velocity_hypotheses" in capsys.readouterr().err
        assert not (tmp_path / "mf").exists()


class TestSweep:
    SWEEP = SMALL_BASE + """
[experiment]
target_counts = 1
measurement_counts = 8,16
trials_per_point = 2
base_seed = 5
threads = 1
"""

    def test_writes_psr_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, self.SWEEP, "sweep")
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "sweep" / "psr.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0] == "mode,k,M,snr_db,trials,successes,psr,mean_rel_error,base_seed"
        assert len(rows) == 3
        assert rows[1].startswith("psr_vs_m,1,8,")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, self.SWEEP, "sweep_a")
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--output", str(tmp_path / "sweep_b")]) == 0
        a = (tmp_path / "sweep_a" / "psr.csv").read_bytes()
        b = (tmp_path / "sweep_b" / "psr.csv").read_bytes()
        assert a == b

    def test_thread_count_does_not_change_data_rows(self, tmp_path):
        cfg_one = write_config(tmp_path, self.SWEEP, "sw1", name="one.ini")
        cfg_two = write_config(
            tmp_path, self.SWEEP.replace("threads = 1", "threads = 2"), "sw2", name="two.ini"
        )
        assert main(["sweep", "--config", str(cfg_one)]) == 0
        assert main(["sweep", "--config", str(cfg_two)]) == 0
        rows_one = [
            line for line in (tmp_path / "sw1" / "psr.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        rows_two = [
            line for line in (tmp_path / "sw2" / "psr.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows_one == rows_two

    def test_sweep_without_experiment_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_BASE, "nope")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "[experiment]: section required" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()

    def test_recovery_limits_reach_every_trial(self, tmp_path, monkeypatch):
        seen = []
        real = experiments.run_trial

        def recording(*args):
            seen.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(experiments, "run_trial", recording)
        text = self.SWEEP + "\n[recovery]\nmax_iterations = 1\nstall_tolerance = 0.5\n"
        cfg_path = write_config(tmp_path, text, "sweep")
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert seen == [(1, 0.5)] * 4

    def test_pool_beyond_physical_memory_streams(self, tmp_path, monkeypatch):
        # two workers with 16-row search caches of the 64-column grid need 16 KiB
        cfg_one = write_config(tmp_path, self.SWEEP, "sw1", name="one.ini")
        assert main(["sweep", "--config", str(cfg_one)]) == 0
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: 16 * 1024 - 1)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        sweep = self.SWEEP.replace("threads = 1", "threads = 2")
        cfg_two = write_config(tmp_path, sweep, "big", name="two.ini")
        assert load_config(cfg_two).experiment.cache_policy == "none"
        assert main(["sweep", "--config", str(cfg_two)]) == 0
        rows = [
            [line for line in (tmp_path / out / "psr.csv").read_text().splitlines()
             if not line.startswith("#")]
            for out in ("sw1", "big")
        ]
        assert rows[0] == rows[1]


class TestErrorPaths:
    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_config_not_utf8_is_config_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[output]\ndirectory = caf\xe9\n")
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: 'utf-8' codec can't decode byte 0xe9" in err

    def test_unknown_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[radar]\nwarp_factor = 9\n")
        assert main(["simulate", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:10],
            lambda raw: b"SARXXXX1" + raw[8:],
            lambda raw: raw[:-8],
        ],
        ids=["truncated-header", "wrong-magic", "short-payload"],
    )
    def test_corrupt_echo_is_format_error(self, tmp_path, simulated, capsys, corrupt):
        cfg_path, sim = simulated
        echo = sim / "echo.bin"
        echo.write_bytes(corrupt(echo.read_bytes()))
        code = main(["image-cs", "--config", str(cfg_path), "--echo", str(echo)])
        assert code == 2
        assert "echo.bin" in capsys.readouterr().err

    def test_non_finite_echo_is_format_error(self, tmp_path, simulated, capsys):
        cfg_path, sim = simulated
        echo = sim / "echo.bin"
        raw = bytearray(echo.read_bytes())
        raw[16 + 16 * 5 : 16 + 16 * 5 + 8] = struct.pack("<d", float("nan"))
        echo.write_bytes(bytes(raw))
        for command in ("image-cs", "image-mf"):
            code = main([command, "--config", str(cfg_path), "--echo", str(echo)])
            assert code == 2
            assert "echo.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "image-cs"])
    @pytest.mark.parametrize("setting", ["max_iterations = 0", "residual_threshold = -1"])
    def test_bad_recovery_setting_is_config_error(
        self, tmp_path, simulated, capsys, command, setting
    ):
        _, sim = simulated
        text = SMALL_SCENE.replace("selection_seed = 3", f"selection_seed = 3\n{setting}")
        text += TestSweep.SWEEP[len(SMALL_BASE):]
        cfg_path = write_config(tmp_path, text, "bad", name="bad.ini")
        argv = [command, "--config", str(cfg_path)]
        if command == "image-cs":
            argv += ["--echo", str(sim / "echo.bin")]
        assert main(argv) == 1
        assert f"[recovery] {setting.split()[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "image-cs"])
    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("0.0,-5.0\n", "0.0,-5.0\nsnr_db = nan\n", "[scene] snr_db"),
            ("0.0,-5.0\n", "0.0,-5.0\nsnr_db = -inf\n", "[scene] snr_db"),
            ("measurements = 24", "measurements = 3329", "[recovery] measurements"),
            ("selection_seed = 3", "selection_seed = 3\nsparsity = 0", "[recovery] sparsity"),
            ("selection_seed = 3", "selection_seed = 3\nstall_tolerance = nan",
             "[recovery] stall_tolerance"),
            ("selection_seed = 3", "selection_seed = 3\nstall_tolerance = -1",
             "[recovery] stall_tolerance"),
            ("measurement_counts = 8,16", "measurement_counts = 8,16,0",
             "[experiment] measurement_counts"),
            ("measurement_counts = 8,16", "measurement_counts = 8,3329",
             "[experiment] measurement_counts"),
            ("target_counts = 1", "target_counts = 0", "[experiment] target_counts"),
            ("target_counts = 1", "target_counts = 1,65", "[experiment] target_counts"),
            (SCENE_TARGETS, "random_targets = 65", "[scene] random_targets"),
            (SCENE_TARGETS, "random_targets = -1", "[scene] random_targets"),
            ("selection_seed = 3", "selection_seed = 3\nsparsity = 65", "[recovery] sparsity"),
            (SCENE_TARGETS, "targets = 2004.0,1.0,0.0,0.0 ; 2004.0,1.0,0.0,0.0",
             "[scene] targets"),
            ("trials_per_point = 2", "trials_per_point = 0", "[experiment] trials_per_point"),
            ("target_counts = 1\n", "", "[experiment] target_counts"),
            ("measurement_counts = 8,16\n", "", "[experiment] measurement_counts"),
            # the mode follows from snr_values_db, so it is not a key
            ("trials_per_point", "mode = psr_vs_snr\ntrials_per_point", "[experiment] mode"),
            ("trials_per_point", "mode = fig2\ntrials_per_point", "[experiment] mode"),
            ("[experiment]", "[baseline]\nvelocity_hypotheses = 0,0 ; 1,0\n\n[experiment]",
             "[baseline] velocity_hypotheses"),
            ("selection_seed = 3", "selection_seed = 3\ncache_policy = full-row-cache",
             "[recovery] cache_policy"),
            ("range_samples = 104", "range_samples = 104\npropagation_speed = 3e8",
             "[radar] propagation_speed"),
            (SCENE_TARGETS, "targets = 2004.0,1.0,0.0,0.0,inf", "[scene] targets"),
            (SCENE_TARGETS, "targets = 2004.0,1.0,0.0,0.0,1.0,nan", "[scene] targets"),
            ("trials_per_point", "snr_values_db = 5,nan\ntrials_per_point",
             "[experiment] snr_values_db"),
            ("trials_per_point", "snr_values_db = -inf\ntrials_per_point",
             "[experiment] snr_values_db"),
        ],
        ids=[
            "snr-nan", "snr-minus-inf", "measurements-above-nr-na", "sparsity-0",
            "stall-nan", "stall-negative", "count-0", "count-above-nr-na", "targets-0",
            "targets-above-cells", "random-above-cells", "random-negative",
            "sparsity-above-cells", "targets-same-cell", "trials-0", "no-target-counts",
            "no-measurement-counts", "snr-sweep-without-snrs", "mode-fig2",
            "hypothesis-off-grid", "cache-policy-is-not-a-key",
            "propagation-speed-is-not-a-key", "reflectivity-inf", "reflectivity-nan",
            "snr-values-nan", "snr-values-minus-inf",
        ],
    )
    def test_bad_value_fails_at_load_naming_key(
        self, tmp_path, simulated, capsys, command, old, new, key
    ):
        # the small radar holds nr * na = 104 * 32 = 3328 samples on a
        # 4 x 4 x 2 x 2 = 64-cell grid
        _, sim = simulated
        text = (SMALL_SCENE + TestSweep.SWEEP[len(SMALL_BASE):]).replace(old, new, 1)
        assert new in text
        cfg_path = write_config(tmp_path, text, "bad", name="bad.ini")
        argv = [command, "--config", str(cfg_path)]
        if command == "image-cs":
            argv += ["--echo", str(sim / "echo.bin")]
        assert main(argv) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"a,b\n1,2\n",
            b"flat_index,n1,n2,p,q,re,im\n0,0,0,x,0,1.0,0.0\n",
            b"\xff\xfe\x00",
            b"flat_index,n1,n2,p,q,re,im\n0,0,0,0,0,nan,0.0\n",
            b"flat_index,n1,n2,p,q,re,im\n0,0,0,0,0,1.0,inf\n",
            b"flat_index,n1,n2,p,q,re,im\n1,1,0,0,0,1.0,0.0\n1,1,0,0,0,2.0,0.0\n",
        ],
        ids=["no-grid-columns", "non-numeric-field", "binary", "nan-re", "inf-im",
             "duplicate-rows"],
    )
    def test_malformed_truth_is_format_error(self, tmp_path, simulated, capsys, content):
        cfg_path, sim = simulated
        truth = tmp_path / "bad_truth.csv"
        truth.write_bytes(content)
        rows = content.count(b"\n")
        for command in ("image-cs", "image-mf"):
            code = main([
                command, "--config", str(cfg_path),
                "--echo", str(sim / "echo.bin"), "--truth", str(truth),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert "bad_truth.csv" in err
            if b"re,im" in content:
                # a bad row is named by its line number
                assert f"bad_truth.csv: line {rows}:" in err

    def test_off_grid_truth_row_is_config_error(self, tmp_path, simulated, capsys):
        # a well-formed row that the 4 x 4 x 2 x 2 grid of the config cannot hold
        cfg_path, sim = simulated
        truth = tmp_path / "off_grid.csv"
        truth.write_text("flat_index,n1,n2,p,q,re,im\n1,1,0,0,0,1.0,0.0\n9,9,0,0,0,1.0,0.0\n")
        for command in ("image-cs", "image-mf"):
            code = main([
                command, "--config", str(cfg_path),
                "--echo", str(sim / "echo.bin"), "--truth", str(truth),
            ])
            assert code == 1
            assert "off_grid.csv: line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"a,b\n1,2\n"], ids=["missing", "no-grid-columns"])
    def test_bad_truth_fails_before_recovery(self, tmp_path, simulated, content):
        cfg_path, sim = simulated
        truth = tmp_path / "truth_in.csv"
        if content is not None:
            truth.write_bytes(content)
        out = tmp_path / "cs"
        code = main([
            "image-cs", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
            "--truth", str(truth), "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b"flat_index,n1,n2,p,q,re,im\n", b"flat_index,n1,n2,p,q,re,im\n1,1,0,0,0,0.0,0.0\n"],
        ids=["header-only", "zero-coefficient"],
    )
    def test_zero_truth_fails_before_recovery(
        self, tmp_path, simulated, monkeypatch, capsys, content
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("recovery ran")

        monkeypatch.setattr(cli, "cosamp", unreachable)
        cfg_path, sim = simulated
        truth = tmp_path / "zero_truth.csv"
        truth.write_bytes(content)
        out = tmp_path / "cs"
        code = main([
            "image-cs", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
            "--truth", str(truth), "--output", str(out),
        ])
        assert code == 1
        assert "zero_truth.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_image_mf_accepts_the_truth_of_an_empty_scene(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_BASE, "sim")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        sim = tmp_path / "sim"
        assert main([
            "image-mf", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
            "--truth", str(sim / "truth.csv"), "--output", str(tmp_path / "mf"),
        ]) == 0

    def test_missing_echo_file_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_SCENE, "out")
        for command in ("image-cs", "image-mf"):
            code = main([command, "--config", str(cfg_path), "--echo", str(tmp_path / "no.bin")])
            assert code == 2
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, attr, error, message",
        [
            ("image-cs", "cosamp", MemoryError, "out of memory: allocation failed"),
            ("sweep", "psr_sweep", MemoryError("no room"), "out of memory: no room"),
            ("sweep", "psr_sweep", BrokenProcessPool("terminated abruptly"),
             "a sweep worker died: terminated abruptly"),
        ],
        ids=["image-cs-memory", "sweep-memory", "sweep-worker-died"],
    )
    def test_resource_failure_exits_3_in_one_line(
        self, tmp_path, simulated, monkeypatch, capsys, command, attr, error, message
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, attr, fail)
        _, sim = simulated
        text = SMALL_SCENE + TestSweep.SWEEP[len(SMALL_BASE):]
        cfg_path = write_config(tmp_path, text, "failed", name="failed.ini")
        argv = [command, "--config", str(cfg_path)]
        if command == "image-cs":
            argv += ["--echo", str(sim / "echo.bin")]
        assert main(argv) == 3
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "failed").exists()


    @pytest.mark.parametrize(
        "command, attr", [("image-cs", "cosamp"), ("sweep", "psr_sweep")]
    )
    def test_interrupt_exits_130_in_one_line(self, tmp_path, simulated, command, attr):
        # in a child process: an interrupt that escaped main would end the test session
        _, sim = simulated
        text = SMALL_SCENE + TestSweep.SWEEP[len(SMALL_BASE):]
        cfg_path = write_config(tmp_path, text, "interrupted", name="interrupted.ini")
        argv = [command, "--config", str(cfg_path)]
        if command == "image-cs":
            argv += ["--echo", str(sim / "echo.bin")]
        script = (
            "import sys\nfrom sarcs import cli\n"
            "def interrupt(*args, **kwargs):\n    raise KeyboardInterrupt\n"
            f"cli.{attr} = interrupt\nsys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=_package_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 130
        assert result.stderr == "interrupted\n"
        assert not (tmp_path / "interrupted").exists()


def _package_env(**extra) -> dict:
    """Environment for a child ``python`` that imports this sarcs package."""
    env = dict(os.environ, **extra)
    package_root = str(Path(sarcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestBlasThreads:
    SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.ini"

    def run_commands(self, out: Path, blas_threads: str) -> None:
        env = _package_env(OPENBLAS_NUM_THREADS=blas_threads)
        sim = out / "sim"
        inputs = ["--echo", str(sim / "echo.bin"), "--truth", str(sim / "truth.csv")]
        for command, args in (
            ("simulate", ["--output", str(sim)]),
            ("image-cs", inputs + ["--output", str(out / "cs")]),
            ("image-mf", inputs + ["--output", str(out / "mf")]),
        ):
            subprocess.run(
                [sys.executable, "-m", "sarcs.cli", command, "--config", str(self.SMOKE), *args],
                env=env, check=True, capture_output=True, timeout=300,
            )

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        for threads in ("1", "2"):
            self.run_commands(tmp_path / f"blas{threads}", threads)
        one, two = tmp_path / "blas1", tmp_path / "blas2"
        files = ["cs/recovered.csv", "cs/diagnostics.csv"]
        files += [f"mf/{path.name}" for path in sorted((one / "mf").glob("mf_*.csv"))]
        assert len(files) == 3
        for name in files:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
