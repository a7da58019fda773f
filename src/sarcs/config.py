"""Structured-text run configuration.

INI-style sections (radar, grid, scene, recovery, baseline, experiment,
output) with key = value pairs. Every key has a default matching the
stock airborne X-band profile and its 31x31x11x11 search grid, so a
minimal config only states what differs. Unknown sections or keys are
rejected, and every parse error is reported with its section and key.

All keys live in one table, ``_KEYS``: it drives key rejection, parsing,
defaults and the effective-config rendering.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .baseline import _hypothesis_on_grid
from .echo import _noiseless
from .experiments import ExperimentSpec, random_scene
from .model import (
    ExtendedGrid,
    GridCoord,
    RadarParams,
    Scene,
    Target,
    check_simulation_geometry,
)
from .recovery import RecoveryConfig, SparseProfile

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


def _integer(raw: str) -> int:
    return int(raw, 0)


def _at_least_one(raw: str) -> int:
    value = _integer(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _non_negative_int(raw: str) -> int:
    value = _integer(raw)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _seed(raw: str) -> int:
    # a Philox key: one unsigned 64-bit word
    value = _integer(raw)
    if not 0 <= value < 2**64:
        raise ValueError("must be in [0, 2**64)")
    return value


def _non_negative(raw: str) -> float:
    value = float(raw)
    if not value >= 0.0:
        raise ValueError("must be non-negative")
    return value


def _snr(raw: str) -> float | None:
    value = float(raw)
    return None if _noiseless(value) else value


def _list_of(caster) -> Callable[[str], tuple]:
    def parse(raw: str) -> tuple:
        items = [piece.strip() for piece in raw.replace("\n", ",").split(",")]
        return tuple(caster(piece) for piece in items if piece)

    return parse


def _counts(raw: str) -> tuple[int, ...]:
    counts = _list_of(int)(raw)
    if any(count < 1 for count in counts):
        raise ValueError("every count must be at least 1")
    return counts


def _entries(raw: str) -> list[list[float]]:
    """';'- or newline-separated entries of ','-separated numbers."""
    entries = (entry.strip() for entry in raw.replace("\n", ";").split(";"))
    return [[float(piece) for piece in entry.split(",")] for entry in entries if entry]


def _targets(raw: str) -> tuple[Target, ...]:
    targets = []
    for fields in _entries(raw):
        if len(fields) < 4 or len(fields) > 6:
            raise ValueError(f"target {fields} needs 4 to 6 fields")
        x, y, vx, vy = fields[:4]
        re = fields[4] if len(fields) > 4 else 1.0
        im = fields[5] if len(fields) > 5 else 0.0
        targets.append(Target(x, y, vx, vy, complex(re, im)))
    return tuple(targets)


def _hypotheses(raw: str) -> tuple[tuple[float, float], ...]:
    return tuple((vx, vy) for vx, vy in _entries(raw))


def _render_list(values) -> str:
    return ",".join(repr(v) for v in values)


def _render_targets(targets) -> str:
    return "; ".join(
        f"{t.x!r},{t.y!r},{t.vx!r},{t.vy!r},{t.reflectivity.real!r},{t.reflectivity.imag!r}"
        for t in targets
    )


def _render_hypotheses(pairs) -> str:
    return "; ".join(f"{vx!r},{vy!r}" for vx, vy in pairs)


class _Key(NamedTuple):
    section: str
    key: str
    field: str  # RadarParams for [radar], ExtendedGrid for [grid],
    # ExperimentSpec for [experiment], else RunConfig
    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    default: Any  # None: absent (or derived, for range_window_start and sparsity)


_KEYS = (
    _Key("radar", "platform_speed", "v", float, repr, 250.0),
    _Key("radar", "carrier_frequency", "f0", float, repr, 9.375e9),
    _Key("radar", "pulse_width", "tp", float, repr, 10e-6),
    _Key("radar", "bandwidth", "bandwidth", float, repr, 100e6),
    _Key("radar", "range_sample_rate", "fs", float, repr, 120e6),
    _Key("radar", "prf", "fa", float, repr, 300.0),
    _Key("radar", "range_samples", "nr", _integer, repr, 1213),
    _Key("radar", "azimuth_samples", "na", _integer, repr, 595),
    _Key("radar", "range_window_start", "tau0", float, repr, None),
    _Key("grid", "x_origin", "x0", float, repr, 30000.0 - 7.5),
    _Key("grid", "y_origin", "y0", float, repr, 0.0),
    _Key("grid", "vx_origin", "vx0", float, repr, -10.0),
    _Key("grid", "vy_origin", "vy0", float, repr, -10.0),
    _Key("grid", "bin_x", "dx", float, repr, 0.5),
    _Key("grid", "bin_y", "dy", float, repr, 0.5),
    _Key("grid", "bin_vx", "dvx", float, repr, 2.0),
    _Key("grid", "bin_vy", "dvy", float, repr, 2.0),
    _Key("grid", "nx", "nx", _integer, repr, 31),
    _Key("grid", "ny", "ny", _integer, repr, 31),
    _Key("grid", "nvx", "nvx", _integer, repr, 11),
    _Key("grid", "nvy", "nvy", _integer, repr, 11),
    _Key("scene", "targets", "targets", _targets, _render_targets, ()),
    _Key("scene", "random_targets", "random_k", _non_negative_int, repr, None),
    _Key("scene", "scene_seed", "scene_seed", _seed, repr, 0),
    _Key("scene", "snr_db", "snr_db", _snr, repr, None),
    _Key("scene", "noise_seed", "noise_seed", _seed, repr, 0),
    _Key("recovery", "sparsity", "sparsity", _at_least_one, repr, None),
    _Key("recovery", "measurements", "measurements", _at_least_one, repr, 100),
    _Key("recovery", "selection_seed", "selection_seed", _seed, repr, 0),
    _Key("recovery", "residual_threshold", "residual_threshold", _non_negative, repr, None),
    _Key("recovery", "max_iterations", "max_iterations", _at_least_one, repr,
         RecoveryConfig.max_iterations),
    _Key("recovery", "stall_tolerance", "stall_tolerance", _non_negative, repr,
         RecoveryConfig.stall_tolerance),
    _Key("baseline", "velocity_hypotheses", "hypotheses", _hypotheses, _render_hypotheses,
         ((0.0, 0.0),)),
    _Key("experiment", "target_counts", "target_counts", _counts, _render_list, ()),
    _Key("experiment", "measurement_counts", "measurement_counts", _counts, _render_list, ()),
    # an inf entry stays in the list: it is the sweep's noiseless point
    _Key("experiment", "snr_values_db", "snr_values_db", _list_of(float), _render_list, ()),
    _Key("experiment", "trials_per_point", "trials_per_point", _at_least_one, repr, 1),
    _Key("experiment", "base_seed", "base_seed", _integer, repr, 0),
    _Key("experiment", "threads", "workers", _at_least_one, repr, 1),
    _Key("output", "directory", "output_dir", str.strip, str, "out"),
)

_SECTIONS: dict[str, list[_Key]] = {}
for _row in _KEYS:
    _SECTIONS.setdefault(_row.section, []).append(_row)


@dataclass(frozen=True)
class RunConfig:
    params: RadarParams
    grid: ExtendedGrid
    targets: tuple[Target, ...]
    random_k: int | None
    scene_seed: int
    snr_db: float | None
    noise_seed: int
    sparsity: int | None
    measurements: int
    selection_seed: int
    residual_threshold: float | None
    max_iterations: int
    stall_tolerance: float
    hypotheses: tuple[tuple[float, float], ...]
    experiment: ExperimentSpec | None  # None without an [experiment] section
    output_dir: str

    @property
    def experiment_mode(self) -> str | None:
        return None if self.experiment is None else self.experiment.mode

    def build_scene(self) -> tuple[Scene, SparseProfile | None]:
        """Materialize the configured scene and, when possible, its
        on-grid truth profile."""
        if self.random_k is not None:
            return random_scene(self.random_k, self.grid, self.scene_seed)
        scene = Scene(self.targets)
        truth = _truth_profile(scene, self.grid)
        return scene, truth

    def _rendered_value(self, row: _Key):
        """The value ``row`` renders, or None when the key is left out."""
        if row.key == "targets":
            # load_config rejects targets together with random_targets
            return self.targets or None
        if row.key == "scene_seed" and self.random_k is None:
            return None
        if row.key == "noise_seed" and self.snr_db is None:
            return None
        owners = {"radar": self.params, "grid": self.grid, "experiment": self.experiment}
        return getattr(owners.get(row.section, self), row.field)

    def render_effective(self) -> str:
        """The fully resolved configuration, suitable for re-running."""
        blocks = []
        for section, rows in _SECTIONS.items():
            if section == "experiment" and self.experiment is None:
                continue
            lines = [f"[{section}]"]
            for row in rows:
                value = self._rendered_value(row)
                if value is not None:
                    lines.append(f"{row.key} = {row.render(value)}")
            blocks.append("\n".join(lines) + "\n")
        return "\n".join(blocks)


def _truth_profile(scene: Scene, grid: ExtendedGrid) -> SparseProfile | None:
    """Explicit targets on grid cells: None if one is off-grid, ValueError if two share one."""
    entries = []
    for t in scene.targets:
        coord = []
        for value, origin, step, count in (
            (t.x, grid.x0, grid.dx, grid.nx),
            (t.y, grid.y0, grid.dy, grid.ny),
            (t.vx, grid.vx0, grid.dvx, grid.nvx),
            (t.vy, grid.vy0, grid.dvy, grid.nvy),
        ):
            index = round((value - origin) / step)
            if not 0 <= index < count or abs(origin + step * index - value) > 1e-9:
                return None
            coord.append(index)
        entries.append((GridCoord(*coord), t.reflectivity))
    return SparseProfile(tuple(entries), grid)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    # '#' only: ';' separates list entries (targets, velocity hypotheses)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        known = {row.key for row in _SECTIONS[section]}
        for key in cp.options(section):
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key")

    values: dict[str, dict[str, Any]] = {"radar": {}, "grid": {}, "experiment": {}, "run": {}}
    for row in _KEYS:
        value = row.default
        if cp.has_option(row.section, row.key):
            raw = cp.get(row.section, row.key)
            try:
                value = row.parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{row.section}] {row.key}: invalid value {raw!r}: {exc}"
                ) from exc
        group = row.section if row.section in values else "run"
        values[group][row.field] = value

    radar, sweep, run = values["radar"], values["experiment"], values["run"]
    try:
        grid = ExtendedGrid(**values["grid"])
        if radar["tau0"] is None:
            radar["tau0"] = 2.0 * grid.x0 / RadarParams.c
        params = RadarParams(**radar)
        check_simulation_geometry(params, grid)
    except ValueError as exc:
        raise ConfigError(f"[radar]/[grid]: {exc}") from exc

    total = params.nr * params.na
    samples = (total, f"the nr * na = {total} echo samples")
    cells = (grid.size, f"the nx * ny * nvx * nvy = {grid.size} grid cells")
    for key, counts, (limit, what) in (
        ("[recovery] measurements", (run["measurements"],), samples),
        ("[experiment] measurement_counts", sweep["measurement_counts"], samples),
        ("[experiment] target_counts", sweep["target_counts"], cells),
        ("[scene] random_targets", (run["random_k"] or 0,), cells),
        ("[recovery] sparsity", (run["sparsity"] or 0,), cells),
    ):
        if max(counts, default=0) > limit:
            raise ConfigError(f"{key}: {max(counts)} exceeds {what}")
    if run["sparsity"] is None:
        run["sparsity"] = run["random_k"] or len(run["targets"]) or None
    if run["targets"] and run["random_k"] is not None:
        raise ConfigError(
            "[scene] random_targets: give either explicit targets or a random count"
        )
    try:
        _truth_profile(Scene(run["targets"]), grid)
    except ValueError as exc:
        raise ConfigError(f"[scene] targets: {exc}") from exc
    try:
        for pair in run["hypotheses"]:
            _hypothesis_on_grid(grid, pair)
    except ValueError as exc:
        raise ConfigError(f"[baseline] velocity_hypotheses: {exc}") from exc
    experiment = None
    if cp.has_section("experiment"):
        try:
            experiment = ExperimentSpec(
                mode="psr_vs_snr" if sweep["snr_values_db"] else "psr_vs_m",
                params=params,
                grid=grid,
                max_iterations=run["max_iterations"],
                stall_tolerance=run["stall_tolerance"],
                **sweep,
            )
        except ValueError as exc:
            raise ConfigError(f"[experiment] {exc}") from exc
    return RunConfig(params=params, grid=grid, experiment=experiment, **run)
