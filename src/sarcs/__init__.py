"""Sparse recovery of moving point targets from subsampled SAR echoes."""

from .baseline import (
    IntensityImage,
    matched_filter_image,
    profile_to_image,
    sidelobe_metrics,
)
from .echo import (
    EchoMatrix,
    EmptyEchoWarning,
    add_noise,
    instantaneous_range,
    point_echo,
    scene_echo,
)
from .experiments import (
    ExperimentSpec,
    PsrPoint,
    psr_sweep,
    random_scene,
    run_trial,
)
from .model import (
    ExtendedGrid,
    GridCoord,
    RadarParams,
    Scene,
    Target,
    flat_index,
    grid_to_physical,
    unflatten,
)
from .operator import MeasurementSelection, SensingOperator, select_measurements
from .recovery import (
    RecoveryConfig,
    SparseProfile,
    cosamp,
    relative_error,
)

__all__ = [
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

__version__ = "0.1.0"
