import importlib
import pkgutil

import pytest

import sarcs

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

MODULES = sorted(info.name for info in pkgutil.iter_modules(sarcs.__path__))


def test_package_exports_exactly_the_public_names():
    assert sarcs.__all__ == PUBLIC


@pytest.mark.parametrize("name", ["sarcs"] + [f"sarcs.{name}" for name in MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
