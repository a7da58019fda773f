"""One sarcs benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --launched-at T --workdir DIR --out FILE [--setup-only]

The process sets up (imports, inputs, and for the imaging workloads the
fig2 ``simulate`` step), then runs operations closed-loop, one at a time,
in whole cycles until the end of the cycle nearest to ``--seconds``. It
checks every output and writes raw timings, checks and metrics as JSON to
``--out``. ``--launched-at`` is the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter
start-up. With ``--trace 1`` every operation runs twice: once with spans
around each layer call and once untraced, and the two must agree.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import ctypes
import glob
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sarcs import baseline, cli, storage  # noqa: E402
from sarcs.config import load_config  # noqa: E402
from sarcs.echo import add_noise, noise_variance, scene_echo  # noqa: E402
from sarcs.experiments import (  # noqa: E402
    SUCCESS_THRESHOLD,
    TrialResult,
    derive_seed,
    random_scene,
    run_trial,
)
from sarcs.model import GridCoord  # noqa: E402
from sarcs.operator import SensingOperator, select_measurements  # noqa: E402
from sarcs.recovery import RecoveryConfig, SparseProfile, cosamp, relative_error  # noqa: E402

from spans import TracedOperator, Tracer, count_cosamp, patched  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
DIGEST_OPS = 12  # operations hashed into the bit-identity digest
HALTS = ("residual_below_threshold", "stalled", "max_iterations", "solver_failure")
IMAGE_CS_MAX_REL_ERROR = 0.01
PSLR_TOLERANCE_DB = 0.5
CROP = 5  # image-mf spatial window, cells per side, centred on the static target

_TRIAL_DEFAULTS = {
    name: p.default for name, p in inspect.signature(run_trial).parameters.items()
}


@dataclass(frozen=True)
class Sweep:
    config: str
    target_counts: tuple[int, ...]
    measurement_counts: tuple[int, ...]
    snr_values_db: tuple[float, ...]
    cache_policy: str


SWEEPS = {
    "sweep_noiseless": Sweep("configs/fig3.ini", (1, 4), (20, 40, 60), (), "full-row-cache"),
    "sweep_noisy_streaming": Sweep("configs/fig4.ini", (1,), (20,), (-5.0, 5.0, 20.0), "none"),
}
IMAGING = ("imaging_fig2",)

# Tail percentile per workload, fixed so that two commits are compared at
# the same percentile however many operations each fits in a run. Each
# leaves at least ten samples above it at this commit's sample count: about
# 80 and 57 trials per sweep run, and 18 to 23 of each imaging command,
# whose tail is taken within each command (five or more above in each).
TAIL_PERCENTILE = {
    "sweep_noiseless": 80,
    "sweep_noisy_streaming": 80,
    "imaging_fig2": 70,
}


class Checks:
    """Output checks of one run: a pass count and the first failures."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        elif len(self.failures) < 50:
            self.failures.append(message)
        else:
            self.failures[-1] = "... more failures"


def same_trial(a: TrialResult, b: TrialResult) -> bool:
    same_error = a.relative_error == b.relative_error or (
        math.isnan(a.relative_error) and math.isnan(b.relative_error)
    )
    return (
        same_error
        and a.success == b.success
        and a.iterations == b.iterations
        and a.halt_reason == b.halt_reason
    )


# --------------------------------------------------------------------------
# Sweep workloads: trials as psr_sweep generates them.


class SweepWorkload:
    def __init__(self, name: str, seed: int, reference: dict) -> None:
        spec = SWEEPS[name]
        self.name = name
        self.reference = reference
        cfg = load_config(ROOT / spec.config)
        self.mode = cfg.experiment_mode
        self.params = cfg.params
        self.grid = cfg.grid
        self.cache_policy = spec.cache_policy
        self.seed = seed
        # Point order and seed labels follow psr_sweep, with the workload
        # seed as base_seed.
        snrs = spec.snr_values_db if self.mode == "psr_vs_snr" else (None,)
        self.points = [
            (k, m, snr)
            for k in spec.target_counts
            for m in spec.measurement_counts
            for snr in snrs
        ]

    def seeds(self, k, m, snr, trial):
        label = (self.seed, self.mode, k, m, snr, trial)
        return tuple(derive_seed(kind, *label) for kind in ("scene", "selection", "noise"))

    def trial(self, k, m, snr, trial) -> TrialResult:
        scene_seed, selection_seed, noise_seed = self.seeds(k, m, snr, trial)
        scene, truth = random_scene(k, self.grid, scene_seed)
        return run_trial(
            scene, truth, self.params, m, snr, selection_seed, noise_seed, self.cache_policy
        )

    def traced_trial(self, tracer: Tracer, k, m, snr, trial) -> TrialResult:
        """run_trial re-created step by step, with a span at each layer call."""
        scene_seed, selection_seed, noise_seed = self.seeds(k, m, snr, trial)
        params = self.params
        with tracer.span("experiments.trial"):
            with tracer.span("experiments.random_scene"):
                scene, truth = random_scene(k, self.grid, scene_seed)
            with tracer.span("operator.select"):
                selection = select_measurements(m, params.nr * params.na, selection_seed)
            with tracer.span("operator.init"):
                op = TracedOperator(
                    SensingOperator(params, truth.grid, selection, self.cache_policy), tracer
                )
            threshold = None
            if snr is None or snr == math.inf:
                y = op.forward(truth)
            else:
                with tracer.span("echo.scene_echo"):
                    clean = scene_echo(scene, params)
                with tracer.span("echo.noise_variance"):
                    variance = noise_variance(clean, snr)
                with tracer.span("echo.add_noise"):
                    noisy = add_noise(clean, snr, noise_seed)
                y = noisy.vec()[selection.indices]
                threshold = math.sqrt(m * variance)
            cfg = RecoveryConfig(
                sparsity=k,
                residual_threshold=threshold,
                max_iterations=_TRIAL_DEFAULTS["max_iterations"],
                stall_tolerance=_TRIAL_DEFAULTS["stall_tolerance"],
            )
            try:
                with tracer.span("recovery.cosamp"):
                    estimate, diag = cosamp(op, y, cfg)
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                tracer.count("cosamp_runs")
                tracer.count("halt.solver_failure")
                return TrialResult(False, float("nan"), 0, f"solver_failure: {exc}")
            count_cosamp(tracer, diag)
            with tracer.span("recovery.relative_error"):
                rel = relative_error(estimate, truth)
        return TrialResult(rel < SUCCESS_THRESHOLD, rel, diag.iterations, diag.halt_reason)

    def cycle(self, tracer: Tracer | None, checks: Checks):
        def make(point):
            def op(trial: int) -> dict:
                k, m, snr = point
                if tracer is None:
                    seconds, result, error = timed(self.trial, k, m, snr, trial)
                    record = {"seconds": seconds}
                else:
                    tracer.op += 1
                    (seconds, result, error), (plain_seconds, plain, plain_error) = alternate(
                        tracer.op,
                        lambda: timed(self.traced_trial, tracer, k, m, snr, trial),
                        lambda: timed(self.trial, k, m, snr, trial),
                    )
                    record = {"seconds": seconds, "untraced_seconds": plain_seconds}
                    checks.expect(
                        error is None and plain_error is None and same_trial(result, plain),
                        f"trial {point} #{trial}: traced {result or error} "
                        f"!= run_trial {plain or plain_error}",
                    )
                record.update(point=list(point), trial=trial)
                if error is not None:
                    record.update(failed=True, success=False, error=error)
                    return record
                record.update(
                    failed=result.halt_reason.startswith("solver_failure"),
                    success=result.success,
                    relative_error=result.relative_error,
                    iterations=result.iterations,
                    halt=result.halt_reason,
                )
                check_trial(record, snr, checks)
                return record

            return op

        return [make(point) for point in self.points]

    @staticmethod
    def kind(record: dict) -> str:
        return "trial"

    def digest(self, records: list[dict], checks: Checks) -> str | None:
        """sha256 of the first DIGEST_OPS trial results, None if fewer ran."""
        if len(records) < DIGEST_OPS:
            return None
        text = "".join(
            f"{r['point']},{r['trial']},{r['success']},{r.get('relative_error')!r},"
            f"{r.get('iterations')},{r.get('halt')}\n"
            for r in records[:DIGEST_OPS]
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def check_reference(self, records: list[dict], checks: Checks) -> None:
        """Per-point success counts against the default-seed reference."""
        reference = self.reference.get("success", {})
        expected: dict[str, int] = {}
        found: dict[str, int] = {}
        for record in records:
            label = json.dumps(record["point"])
            successes = reference.get(label, "")
            if record["trial"] < len(successes):
                expected[label] = expected.get(label, 0) + (successes[record["trial"]] == "1")
                found[label] = found.get(label, 0) + record["success"]
        checks.expect(bool(expected), f"{self.name}: no trial overlaps the reference")
        for label in expected:
            checks.expect(
                found[label] == expected[label],
                f"{self.name} point {label}: {found[label]} successes, "
                f"reference {expected[label]}",
            )


def check_trial(record: dict, snr, checks: Checks) -> None:
    """Invariants that hold for every seed."""
    where = f"trial {record['point']} #{record['trial']}"
    rel, halt = record["relative_error"], record["halt"]
    if halt.startswith("solver_failure"):
        checks.expect(False, f"{where}: {halt}")
        return
    checks.expect(halt in HALTS, f"{where}: unknown halt reason {halt!r}")
    # Zero iterations only when the noise threshold already exceeds |y|.
    iterations = record["iterations"]
    checks.expect(
        0 < iterations <= _TRIAL_DEFAULTS["max_iterations"]
        or (iterations == 0 and halt == "residual_below_threshold" and snr is not None),
        f"{where}: {iterations} iterations, halt {halt}",
    )
    checks.expect(math.isfinite(rel) and rel >= 0.0, f"{where}: relative error {rel!r}")
    if snr is None:
        # Noiseless: a correct support refits exactly, a wrong one misses
        # a unit target, so the error is tiny or large, never in between.
        checks.expect(rel < 1e-9 or rel >= SUCCESS_THRESHOLD, f"{where}: noiseless error {rel!r}")


# --------------------------------------------------------------------------
# Imaging workloads: sarcs.cli.main in-process on the fig2 echo.


class ImagingWorkload:
    def __init__(self, seed: int, reference: dict, workdir: Path) -> None:
        self.reference = reference
        self.workdir = workdir
        fig2 = load_config(ROOT / "configs" / "fig2.ini")
        grid = fig2.grid
        # A benchmark-owned copy of fig2: its selection seed comes from the
        # workload seed, and its effective form pins range_window_start so
        # the cropped copy keeps the same sample geometry.
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read_string(fig2.render_effective())
        cp["recovery"]["selection_seed"] = str(seed)
        self.fig2_ini = workdir / "fig2.ini"
        with open(self.fig2_ini, "w") as fh:
            cp.write(fh)

        static = next(t for t in fig2.targets if t.vx == 0.0 and t.vy == 0.0)
        n1 = round((static.x - grid.x0) / grid.dx)
        n2 = round((static.y - grid.y0) / grid.dy)
        half = CROP // 2
        cp["grid"]["x_origin"] = repr(grid.x0 + grid.dx * (n1 - half))
        cp["grid"]["y_origin"] = repr(grid.y0 + grid.dy * (n2 - half))
        cp["grid"]["nx"] = cp["grid"]["ny"] = str(CROP)
        cp["baseline"]["velocity_hypotheses"] = "0.0,0.0"
        self.crop_ini = workdir / "fig2_crop.ini"
        with open(self.crop_ini, "w") as fh:
            cp.write(fh)
        crop_grid = load_config(self.crop_ini).grid
        p = round((0.0 - crop_grid.vx0) / crop_grid.dvx)
        q = round((0.0 - crop_grid.vy0) / crop_grid.dvy)
        self.static_cell = (half, half)
        self.crop_truth = workdir / "fig2_crop_truth.csv"
        storage.write_profile_csv(
            self.crop_truth, SparseProfile(((GridCoord(half, half, p, q), 1.0),), crop_grid)
        )

        sim = workdir / "sim"
        rc, _ = run_cli(["simulate", "--config", str(self.fig2_ini), "--output", str(sim)])
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}")
        self.echo = sim / "echo.bin"
        self.truth = sim / "truth.csv"
        self.truth_support = flat_support(self.truth)

    def argv(self, command: str, out: Path) -> list[str]:
        if command == "image-cs":
            config, truth = self.fig2_ini, self.truth
        else:
            config, truth = self.crop_ini, self.crop_truth
        return [command, "--config", str(config), "--echo", str(self.echo),
                "--truth", str(truth), "--output", str(out)]

    @staticmethod
    def output_file(command: str, out: Path) -> Path:
        return out / ("recovered.csv" if command == "image-cs" else "mf_vx0_vy0.csv")

    def cycle(self, tracer: Tracer | None, checks: Checks):
        return [self.command_op("image-cs", tracer, checks),
                self.command_op("image-mf", tracer, checks)]

    def command_op(self, command: str, tracer: Tracer | None, checks: Checks):
        def op(index: int) -> dict:
            out = self.workdir / command
            where = f"{command} #{index}"
            if tracer is None:
                seconds, outcome, error = timed(run_cli, self.argv(command, out))
                record = {"seconds": seconds}
            else:
                tracer.op += 1
                plain_out = self.workdir / f"{command}-untraced"

                def traced():
                    with patched(cli_patches(tracer)):
                        return timed(
                            run_cli, self.argv(command, out), tracer.wrap("cli.main", cli.main)
                        )

                (seconds, outcome, error), (plain_seconds, plain_outcome, plain_error) = alternate(
                    tracer.op, traced, lambda: timed(run_cli, self.argv(command, plain_out))
                )
                record = {"seconds": seconds, "untraced_seconds": plain_seconds}
                checks.expect(
                    error is None
                    and plain_error is None
                    and outcome[0] == plain_outcome[0] == 0
                    and self.output_file(command, out).read_bytes()
                    == self.output_file(command, plain_out).read_bytes(),
                    f"{where}: traced output differs from the untraced command",
                )
            record.update(command=command, index=index)
            rc, text = outcome or (None, "")
            if error is not None or rc != 0:
                checks.expect(False, f"{where}: exit {rc} {error or text}")
                record.update(failed=True, success=False)
                return record
            record["failed"] = False
            output = self.output_file(command, out)
            record["sha256"] = hashlib.sha256(output.read_bytes()).hexdigest()
            if command == "image-cs":
                self.check_cs(record, output, text, checks)
            else:
                self.check_mf(record, output, checks)
            return record

        return op

    @staticmethod
    def kind(record: dict) -> str:
        # image-cs and image-mf differ in cost, so a median over both would
        # fall between the slowest of one and the fastest of the other.
        return record["command"]

    def digest(self, records: list[dict], checks: Checks) -> str | None:
        """sha256 over each command's output file, which every repeat must write alike."""
        lines = []
        for command in ("image-cs", "image-mf"):
            digests = {r["sha256"] for r in records if r.get("command") == command and "sha256" in r}
            checks.expect(
                len(digests) == 1, f"{command}: repeats wrote {len(digests)} different outputs"
            )
            if len(digests) != 1:
                return None
            lines.append(f"{command} {digests.pop()}\n")
        return hashlib.sha256("".join(lines).encode()).hexdigest()

    def check_cs(self, record, output, text, checks) -> None:
        summary = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        rel = float(summary.get("relative_error", "nan"))
        exact = flat_support(output) == self.truth_support
        record.update(relative_error=rel, support_exact=exact)
        record["success"] = exact and rel < IMAGE_CS_MAX_REL_ERROR
        checks.expect(exact, f"image-cs #{record['index']}: support is not exact")
        checks.expect(rel < IMAGE_CS_MAX_REL_ERROR, f"image-cs #{record['index']}: error {rel!r}")

    def check_mf(self, record, output, checks) -> None:
        pixels = np.loadtxt(output, delimiter=",", ndmin=2)
        peak = tuple(int(i) for i in np.unravel_index(np.argmax(pixels), pixels.shape))
        pslr_db, _ = baseline.sidelobe_metrics(
            baseline.IntensityImage(pixels, (0.0, 0.0)), [self.static_cell]
        )
        record.update(peak_cell=list(peak), pslr_db=pslr_db)
        ok = peak == self.static_cell
        checks.expect(ok, f"image-mf #{record['index']}: peak at {peak}, not {self.static_cell}")
        if "pslr_db" in self.reference:
            expected = self.reference["pslr_db"]
            close = abs(pslr_db - expected) <= PSLR_TOLERANCE_DB
            checks.expect(
                close,
                f"image-mf #{record['index']}: PSLR {pslr_db:.3f} dB, reference {expected:.3f} dB",
            )
            ok = ok and close
        record["success"] = ok


def cli_patches(tracer: Tracer) -> list[tuple]:
    """Timed stand-ins for the module attributes sarcs.cli reaches each layer by."""

    def timed_attr(module, attr, span, on_call=None):
        return module, attr, tracer.wrap(span, getattr(module, attr), on_call)

    def on_cosamp(args, result):
        count_cosamp(tracer, result[1])

    def on_matched_filter(args, result):
        echo, grid = args[0], args[1]
        tracer.count("mf_kernel_samples", echo.params.nr * echo.params.na * grid.nx * grid.ny)

    def traced_operator(*args, **kwargs):
        return TracedOperator(SensingOperator(*args, **kwargs), tracer)

    return [
        timed_attr(cli, "load_config", "config.load"),
        timed_attr(storage, "read_echo", "storage.read_echo"),
        timed_attr(storage, "read_profile_csv", "storage.read_profile"),
        timed_attr(storage, "write_profile_csv", "storage.write"),
        timed_attr(storage, "write_diagnostics_csv", "storage.write"),
        timed_attr(storage, "write_pgm", "storage.write"),
        timed_attr(np, "savetxt", "storage.write"),  # cli writes image-mf pixels with it
        timed_attr(cli, "select_measurements", "operator.select"),
        (cli, "SensingOperator", tracer.wrap("operator.init", traced_operator)),
        timed_attr(cli, "cosamp", "recovery.cosamp", on_cosamp),
        timed_attr(cli, "relative_error", "recovery.relative_error"),
        timed_attr(cli, "matched_filter_image", "baseline.matched_filter", on_matched_filter),
        timed_attr(cli, "sidelobe_metrics", "baseline.sidelobe_metrics"),
    ]


def flat_support(path: Path) -> frozenset[int]:
    with open(path, newline="") as fh:
        return frozenset(int(row["flat_index"]) for row in csv.DictReader(fh))


def run_cli(argv: list[str], main=cli.main) -> tuple[int, str]:
    """Exit code and standard output of one in-process ``sarcs`` command."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    return rc, buffer.getvalue()


# --------------------------------------------------------------------------
# Timing, statistics and the environment record.


def timed(fn, *args):
    """(seconds, result, error): an exception is a failed operation."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def alternate(index: int, traced, untraced):
    """Both results, traced first on even operations, so neither always runs cold."""
    if index % 2:
        plain = untraced()
        return traced(), plain
    return traced(), untraced()


def run_cycles(cycle, seconds: float) -> tuple[list[dict], float, int]:
    """Whole cycles, closed loop, ending at the cycle end nearest ``seconds``."""
    records: list[dict] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in cycle:
            records.append(op(cycles))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return records, elapsed, cycles




def blas_threads() -> dict[str, int | None]:
    """Threads each bundled OpenBLAS would use, asked of the library itself."""
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            value = None
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    value = fn()
                    break
            found[f"{package.__name__}:{Path(path).name}"] = value
    return found


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer: Tracer, records: list[dict], ops_per_cycle: int) -> dict[str, float]:
    """Per-layer figures of a traced run, per operation unless noted."""
    n = len(records)
    self_times = tracer.self_times()

    def seconds(span: str) -> float:
        return self_times.get(span, 0.0) / n

    def total(counter: str) -> float:
        return sum(tracer.op_counts(counter))

    def first_cycle(counter: str) -> float:
        # Computed counts cover one pass over the workload's operations,
        # so they repeat exactly from run to run.
        return sum(tracer.counts[op].get(counter, 0.0) for op in range(ops_per_cycle))

    runs = total("cosamp_runs")
    per_run = (lambda counter: total(counter) / runs) if runs else (lambda counter: 0.0)
    return {
        "operator.init_s": seconds("operator.init"),
        "operator.cache_build_s": seconds("operator.cache_build"),
        "operator.kernel_samples": first_cycle("kernel_samples"),
        "operator.cache_bytes": max(tracer.op_counts("cache_bytes"), default=0.0),
        "operator.column_norms_s": seconds("operator.column_norms"),
        "operator.adjoint_s": seconds("operator.adjoint"),
        "operator.adjoint_calls": total("adjoint_calls") / n,
        "operator.columns_s": seconds("operator.columns"),
        "operator.forward_s": seconds("operator.forward"),
        "operator.select_s": seconds("operator.select"),
        "echo.scene_echo_s": seconds("echo.scene_echo"),
        "echo.noise_variance_s": seconds("echo.noise_variance"),
        "echo.add_noise_s": seconds("echo.add_noise"),
        "recovery.cosamp_self_s": seconds("recovery.cosamp"),
        "recovery.relative_error_s": seconds("recovery.relative_error"),
        "recovery.iterations": per_run("iterations"),
        "recovery.dropped_columns": per_run("dropped_columns"),
        **{f"recovery.halt.{reason}": per_run(f"halt.{reason}") for reason in HALTS},
        "experiments.random_scene_s": seconds("experiments.random_scene"),
        "experiments.trial_self_s": seconds("experiments.trial"),
        "experiments.success_rate": success_rate(records),
        "baseline.matched_filter_s": seconds("baseline.matched_filter"),
        "baseline.kernel_samples": first_cycle("mf_kernel_samples"),
        "baseline.sidelobe_metrics_s": seconds("baseline.sidelobe_metrics"),
        "storage.read_echo_s": seconds("storage.read_echo"),
        "storage.read_profile_s": seconds("storage.read_profile"),
        "storage.write_s": seconds("storage.write"),
        "config.load_s": seconds("config.load"),
        "cli.main_self_s": seconds("cli.main"),
        "trace.overhead_s": statistics.median(r["seconds"] for r in records)
        - statistics.median(r["untraced_seconds"] for r in records),
    }


def success_rate(records: list[dict]) -> float:
    return sum(bool(r.get("success")) for r in records) / len(records)


def end_to_end_metrics(records: list[dict], percentile: int, kind) -> tuple[dict[str, float], dict]:
    """Timing figures; the median and the tail are taken within each kind of
    operation, ``kind(record)``, then averaged over the kinds."""
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(kind(r), []).append(r["seconds"])
    medians, tails, above = [], [], {}
    for name, values in times.items():
        values.sort()
        rank = math.ceil(percentile * len(values) / 100)  # nearest rank
        medians.append(statistics.median(values))
        tails.append(values[rank - 1])
        above[name] = len(values) - rank
    metrics = {
        "op_s_p50": statistics.mean(medians),
        "op_s_tail": statistics.mean(tails),
        "ops_per_s": len(records) / sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "samples": {name: len(values) for name, values in times.items()},
        "tail_percentile": percentile,
        "samples_above_tail": above,
    }
    return metrics, details


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SWEEPS, *IMAGING])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text()).get(args.workload)
    if args.workload in SWEEPS:
        workload = SweepWorkload(args.workload, args.seed, reference or {})
    else:
        workload = ImagingWorkload(args.seed, reference or {}, args.workdir)
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    checks = Checks()
    checks.expect(reference is not None, f"{REFERENCE.name} has no {args.workload} entry")
    tracer = Tracer() if args.trace else None
    cycle = workload.cycle(tracer, checks)
    records, elapsed, cycles = run_cycles(cycle, args.seconds)

    digest = workload.digest(records, checks)
    details = {
        "cycles": cycles,
        "loop_seconds": elapsed,
        "success_rate": success_rate(records),
        "digest": digest,
    }
    if args.seed == DEFAULT_SEED:
        details["bit_identical_to_reference"] = (
            None if digest is None else digest == workload.reference.get("digest")
        )
        if isinstance(workload, SweepWorkload):
            workload.check_reference(records, checks)

    if tracer is None:
        metrics, stats = end_to_end_metrics(records, TAIL_PERCENTILE[args.workload], workload.kind)
        details.update(stats)
    else:
        metrics = layer_metrics(tracer, records, len(cycle))
        details["computed"] = ["operator.kernel_samples", "operator.cache_bytes",
                               "baseline.kernel_samples"]
        details["spans"] = tracer.dump()
    result = {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(bool(r.get("failed")) for r in records),
        "checks_passed": checks.passed,
        "check_failures": checks.failures,
        "metrics": metrics,
        "details": details,
        "records": records,
        "environment": environment(),
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
