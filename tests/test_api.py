import ast
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
    # perfbench/record_reference.py builds its ExperimentSpec by keyword
    script = ast.parse((PERFBENCH / "record_reference.py").read_text())
    [call] = [
        node for node in ast.walk(script)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentSpec"
    ]
    keywords = {keyword.arg for keyword in call.keywords}
    assert keywords == {
        "mode", "params", "grid", "target_counts", "measurement_counts", "snr_values_db",
        "base_seed", "cache_policy",
    }
    inspect.signature(sarcs.ExperimentSpec).bind(**dict.fromkeys(keywords))
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


def test_benchmark_traced_operator_runs_cosamp_as_the_operator(monkeypatch, params, grid):
    # perfbench's traced sweeps hand cosamp a spans.TracedOperator, which
    # forwards only adjoint, columns, column_norms and forward; a ranking
    # call it cannot pass on must fail here, not in the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        selection = sarcs.select_measurements(24, params.nr * params.na, seed=1)
        truth = sarcs.SparseProfile.from_flat(grid, [3, 40], [1.0, 0.5 - 1.0j])
        plain = sarcs.SensingOperator(params, grid, selection, "full-row-cache")
        traced = spans.TracedOperator(
            sarcs.SensingOperator(params, grid, selection, "full-row-cache"), spans.Tracer()
        )
        y = plain.forward(truth)
        cfg = sarcs.RecoveryConfig(sparsity=2)
        profile, diag = sarcs.cosamp(plain, y, cfg)
        traced_profile, traced_diag = sarcs.cosamp(traced, y, cfg)
    finally:
        sys.modules.pop("spans", None)
    assert traced_profile.flat.tobytes() == profile.flat.tobytes()
    assert traced_profile.coefficients.tobytes() == profile.coefficients.tobytes()
    assert traced_diag == diag
