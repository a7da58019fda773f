"""Run the sarcs benchmark and print its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs closed-loop in a fresh child process (workload.py) with
BLAS pinned to one thread, so its set-up time and peak RSS are its own.
``setup_s`` is the median over that process and SETUP_REPEATS more that
only set up. With ``--trace 0`` the metrics are the end-to-end ones named
in BENCHMARK.json, with ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every output check passed, 1
when one failed, and 2 when the benchmark could not run at all; in that
case no result is printed. A record of each run, with the environment,
raw timings and (traced) spans, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2
RUN_DEADLINE_S = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CannotRun(Exception):
    """The benchmark could not produce a result."""


def start_child(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                deadline: float, setup_only: bool = False) -> dict:
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    env = {**os.environ, **ONE_THREAD}
    launched = time.monotonic()
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--launched-at", repr(launched),
        "--workdir", str(workdir), "--out", str(out),
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise CannotRun(f"{workload}: child process timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise CannotRun(f"{workload}: child process exited {proc.returncode}")
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = start_child(name, seed, seconds, trace, workdir / "run", deadline)
        setups = [result["setup_s"]]
        if not trace:
            for i in range(SETUP_REPEATS):
                setups.append(start_child(name, seed, seconds, trace, workdir / f"setup{i}",
                                          deadline, setup_only=True)["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples"] = setups
    return result


def report(name: str, seed: int, trace: int, result: dict, units: dict[str, str]) -> None:
    if set(result["metrics"]) != set(units):
        raise CannotRun(f"{name}: metrics {sorted(result['metrics'])} != {sorted(units)}")
    details = result["details"]
    print(f"{name} seed={seed} trace={trace}: {result['attempted']} operations in "
          f"{details['cycles']} cycles, {result['failed']} failed "
          f"(error rate {result['failed'] / result['attempted']!r}), "
          f"success rate {details['success_rate']!r}, "
          f"{result['checks_passed']} checks passed, {len(result['check_failures'])} failed")
    for metric, unit in units.items():
        print(f"  {metric:36s} {result['metrics'][metric]!r} {unit}")
    if not trace:
        per_kind = ", ".join(f"{kind} {n} samples, {details['samples_above_tail'][kind]} above"
                             for kind, n in details["samples"].items())
        print(f"  p50 and tail = p{details['tail_percentile']} within each kind ({per_kind}); "
              f"setup_s = median of {len(result['setup_samples'])} set-ups")
    print(f"  digest {details['digest']}"
          + (f", bit-identical to reference: {details['bit_identical_to_reference']}"
             if "bit_identical_to_reference" in details else ""))
    env = result["environment"]
    print(f"  {env['cpu_model']}, nproc {env['nproc']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, BLAS threads {env['blas_threads']}")
    for failure in result["check_failures"]:
        print(f"CHECK FAILED [{name}]: {failure}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "trace": trace, **result}))
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="sarcs benchmark")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sarcs" / "__init__.py").is_file():
        print(f"sarcs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    selected = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(selected)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in selected:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, args.seed, args.trace, result, units)
            summary["correct"] &= not result["check_failures"] and not result["failed"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if args.workload != "all" else f"{name}."
            summary["metrics"].update(
                {prefix + m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()}
            )
    except CannotRun as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
