"""Record perfbench/reference.json: the default-seed outputs the benchmark checks.

    python3 perfbench/record_reference.py

Runs a fixed number of trials of each sweep workload and one command of
each imaging workload at the default seed, untimed, and stores what the
checks read: each trial's success by point, the bit-identity digests and
the image-mf PSLR. It also checks that the benchmark's trials reproduce psr_sweep's
per-point successes for trial 0, so the sweeps measure the trials a real
sweep runs. Record again only when a change is meant to alter outputs,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import workload as wl  # noqa: E402
from sarcs.experiments import ExperimentSpec, psr_sweep  # noqa: E402

REFERENCE_TRIALS = 90


def record_sweep(name: str) -> dict:
    sweep = wl.SweepWorkload(name, wl.DEFAULT_SEED, {})
    checks = wl.Checks()
    cycle = sweep.cycle(None, checks)
    records = [cycle[i % len(cycle)](i // len(cycle)) for i in range(REFERENCE_TRIALS)]
    spec = wl.SWEEPS[name]
    points = psr_sweep(
        ExperimentSpec(
            mode=sweep.mode,
            params=sweep.params,
            grid=sweep.grid,
            target_counts=spec.target_counts,
            measurement_counts=spec.measurement_counts,
            snr_values_db=spec.snr_values_db,
            base_seed=wl.DEFAULT_SEED,
            cache_policy=spec.cache_policy,
        )
    )
    for point, record in zip(points, records):
        checks.expect(
            [point.k, point.m, point.snr_db] == record["point"]
            and point.successes == record["success"],
            f"{name}: psr_sweep gives {point} for trial 0, benchmark {record}",
        )
    if checks.failures:
        raise SystemExit("\n".join(checks.failures))
    success: dict[str, str] = {}
    for record in records:  # trial t of a point is character t of its string
        label = json.dumps(record["point"])
        success[label] = success.get(label, "") + ("1" if record["success"] else "0")
    return {"digest": sweep.digest(records, checks), "success": success}


def record_imaging(name: str) -> dict:
    workdir = Path(__file__).resolve().parent / ".work" / f"reference-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        imaging = wl.ImagingWorkload(wl.DEFAULT_SEED, {}, workdir)
        checks = wl.Checks()
        cs, mf = (op(0) for op in imaging.cycle(None, checks))
        digest = imaging.digest([cs, mf], checks)
        if checks.failures:
            raise SystemExit("\n".join(checks.failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"digest": digest, "pslr_db": mf["pslr_db"]}


def main() -> int:
    reference = {"seed": wl.DEFAULT_SEED}
    for name in wl.SWEEPS:
        reference[name] = record_sweep(name)
        recovered = sum(s.count("1") for s in reference[name]["success"].values())
        print(f"{name}: {recovered} of {REFERENCE_TRIALS} trials recovered")
    for name in wl.IMAGING:
        reference[name] = record_imaging(name)
        print(f"{name}: {reference[name]}")
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
