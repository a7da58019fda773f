import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sarcs
from sarcs import experiments, operator
from sarcs.cli import main
from sarcs.storage import read_profile_csv
from sarcs.config import load_config

SMALL_BASE = """
[radar]
platform_speed = 100.0
carrier_frequency = 1e10
wavelength = 0.03
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

    def test_row_cache_beyond_physical_memory_is_config_error(
        self, tmp_path, simulated, monkeypatch, capsys
    ):
        # the 24-row cache of the 64-column grid needs 24 KiB
        cfg_path, sim = simulated
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: 24 * 1024 - 1)
        out = tmp_path / "cs"
        code = main([
            "image-cs", "--config", str(cfg_path), "--echo", str(sim / "echo.bin"),
            "--output", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err
        assert not (out / "recovered.csv").exists()


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

    def test_off_grid_hypothesis_rejected(self, tmp_path):
        text = SMALL_SCENE + "\n[baseline]\nvelocity_hypotheses = 1,0\n"
        cfg_path = write_config(tmp_path, text, "sim")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        code = main([
            "image-mf", "--config", str(cfg_path),
            "--echo", str(tmp_path / "sim" / "echo.bin"),
        ])
        assert code == 1


class TestSweep:
    SWEEP = SMALL_BASE + """
[experiment]
mode = psr_vs_m
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

    def test_sweep_without_experiment_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_BASE, "nope")
        assert main(["sweep", "--config", str(cfg_path)]) == 1

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

    def test_pool_beyond_physical_memory_is_config_error(self, tmp_path, monkeypatch, capsys):
        # two workers with 16-row caches of the 64-column grid need 32 KiB
        monkeypatch.setattr(operator, "_physical_memory_bytes", lambda: 32 * 1024 - 1)
        sweep = self.SWEEP.replace("threads = 1", "threads = 2")
        cfg_path = write_config(tmp_path, sweep, "big")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "big" / "psr.csv").exists()


class TestErrorPaths:
    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 2

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
            ("mode = psr_vs_m", "mode = psr_vs_snr", "[experiment] snr_values_db"),
            ("mode = psr_vs_m", "mode = fig2", "[experiment] mode"),
        ],
        ids=[
            "snr-nan", "snr-minus-inf", "measurements-above-nr-na", "sparsity-0",
            "stall-nan", "stall-negative", "count-0", "count-above-nr-na", "targets-0",
            "targets-above-cells", "random-above-cells", "random-negative",
            "sparsity-above-cells", "targets-same-cell", "trials-0", "no-target-counts",
            "no-measurement-counts", "snr-sweep-without-snrs", "mode-fig2",
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
        assert not (out / "recovered.csv").exists()
        assert not (out / "diagnostics.csv").exists()

    def test_missing_echo_file_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_SCENE, "out")
        code = main([
            "image-cs", "--config", str(cfg_path), "--echo", str(tmp_path / "no.bin"),
        ])
        assert code == 2


class TestBlasThreads:
    SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.ini"

    def run_commands(self, out: Path, blas_threads: str) -> None:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        package_root = str(Path(sarcs.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
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
