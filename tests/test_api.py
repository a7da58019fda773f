import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import sarcs
from sarcs.config import load_config

PUBLIC = [
    "EchoMatrix",
    "EmptyEchoWarning",
    "ExperimentSpec",
    "ExtendedGrid",
    "GridCoord",
    "IntensityImage",
    "MeasurementSelection",
    "PsrPoint",
    "RadarParams",
    "RecoveryConfig",
    "Scene",
    "SensingOperator",
    "SparseProfile",
    "Target",
    "add_noise",
    "cosamp",
    "flat_index",
    "grid_to_physical",
    "instantaneous_range",
    "matched_filter_image",
    "point_echo",
    "profile_to_image",
    "psr_sweep",
    "random_scene",
    "relative_error",
    "run_trial",
    "scene_echo",
    "select_measurements",
    "sidelobe_metrics",
    "unflatten",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = sorted(info.name for info in pkgutil.iter_modules(sarcs.__path__))


def test_package_exports_exactly_the_public_names():
    assert sarcs.__all__ == PUBLIC


@pytest.mark.parametrize("name", ["sarcs"] + [f"sarcs.{name}" for name in MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_benchmark_still_binds_to_the_package(monkeypatch):
    # perfbench/ reads run_trial's recovery defaults, swaps sarcs.cli
    # attributes by name, passes cache_policy to the library and puts the
    # configs' sweep mode in every seed label; a rename or a new mode there
    # must fail here, not in the benchmark
    for name, mode in (("fig3", "psr_vs_m"), ("fig4", "psr_vs_snr")):
        assert load_config(PERFBENCH.parent / "configs" / f"{name}.ini").experiment_mode == mode
    for target, default in (
        (sarcs.run_trial, "full-row-cache"),
        (sarcs.SensingOperator, "none"),
        (sarcs.ExperimentSpec, "full-row-cache"),
    ):
        assert inspect.signature(target).parameters["cache_policy"].default == default
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("workload", PERFBENCH / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workload", workload)  # its dataclasses look it up
    try:
        spec.loader.exec_module(workload)
        defaults = workload._TRIAL_DEFAULTS
        assert (defaults["max_iterations"], defaults["stall_tolerance"]) == (
            sarcs.RecoveryConfig.max_iterations, sarcs.RecoveryConfig.stall_tolerance
        )
        with workload.patched(workload.cli_patches(workload.Tracer())):
            pass
    finally:
        sys.modules.pop("spans", None)  # perfbench's, imported by workload
