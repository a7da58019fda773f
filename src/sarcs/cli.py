"""Command-line front end.

Four subcommands tie the pipeline together around file-based inputs and
outputs so the expensive echo synthesis is cached across recovery runs:

    sarcs simulate --config run.ini            raw echo + truth profile
    sarcs image-cs --config run.ini --echo f   sparse recovery of an echo
    sarcs image-mf --config run.ini --echo f   matched-filter images
    sarcs sweep    --config run.ini            Monte Carlo PSR curves

All randomness comes from seeds in the config file, so identical inputs
produce byte-identical outputs at any thread count. A command creates its
output directory only when it has results to write, so a failed run
leaves none. Exit codes: 0 ok, 1 config error, 2 I/O or file-format
error, 3 numeric failure, out of memory or a dead sweep worker, 130
interrupted.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import storage
from .baseline import matched_filter_image, sidelobe_metrics
from .config import ConfigError, RunConfig, load_config
from .echo import add_noise, scene_echo
from .experiments import psr_sweep
from .operator import SensingOperator, select_measurements
from .recovery import RecoveryConfig, cosamp, relative_error


def _prepare_output(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective_config.ini").write_text(cfg.render_effective())


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> list[str]:
    scene, truth = cfg.build_scene()
    echo = scene_echo(scene, cfg.params)
    if cfg.snr_db is not None:
        try:
            echo = add_noise(echo, cfg.snr_db, cfg.noise_seed)
        except ValueError as exc:  # an all-zero echo has no SNR
            raise ConfigError(f"[scene] snr_db: {exc}") from exc
    _prepare_output(cfg, out_dir)
    storage.write_echo(out_dir / "echo.bin", echo)
    lines = [
        f"targets = {len(scene.targets)}",
        f"echo = {out_dir / 'echo.bin'} ({cfg.params.nr} x {cfg.params.na})",
    ]
    if truth is not None:
        storage.write_profile_csv(out_dir / "truth.csv", truth)
        lines.append(f"truth = {out_dir / 'truth.csv'}")
    else:
        lines.append("truth = (not written: scene has off-grid targets)")
    return lines


def cmd_image_cs(cfg: RunConfig, echo_path: str, truth_path, out_dir: Path) -> list[str]:
    echo = storage.read_echo(echo_path, cfg.params)
    truth = None if truth_path is None else storage.read_profile_csv(truth_path, cfg.grid)
    if truth is not None and not truth.coefficients.any():
        # relative_error divides by the truth norm
        raise ConfigError(f"{truth_path}: truth profile has no non-zero coefficient")
    if cfg.sparsity is None:
        raise ConfigError("[recovery] sparsity: required when the scene does not fix it")
    selection = select_measurements(
        cfg.measurements, cfg.params.nr * cfg.params.na, cfg.selection_seed
    )
    op = SensingOperator(cfg.params, cfg.grid, selection, "full-row-cache")
    y = echo.vec()[selection.indices]
    profile, diag = cosamp(
        op,
        y,
        RecoveryConfig(
            sparsity=cfg.sparsity,
            residual_threshold=cfg.residual_threshold,
            max_iterations=cfg.max_iterations,
            stall_tolerance=cfg.stall_tolerance,
        ),
    )
    lines = [
        f"measurements = {selection.m}",
        f"iterations = {diag.iterations}",
        f"halt = {diag.halt_reason}",
        f"residual = {diag.final_residual_norm!r}",
        f"recovered = {out_dir / 'recovered.csv'} ({profile.flat.size} entries)",
    ]
    if truth is not None:
        lines.append(f"relative_error = {relative_error(profile, truth)!r}")
    _prepare_output(cfg, out_dir)
    storage.write_profile_csv(out_dir / "recovered.csv", profile, physical=True)
    storage.write_diagnostics_csv(out_dir / "diagnostics.csv", diag)
    return lines


def cmd_image_mf(cfg: RunConfig, echo_path: str, truth_path, out_dir: Path) -> list[str]:
    echo = storage.read_echo(echo_path, cfg.params)
    true_coords = None
    if truth_path is not None:
        truth = storage.read_profile_csv(truth_path, cfg.grid)
        true_coords = [coord for coord, _ in truth.entries]
    images = [
        (f"mf_vx{vx:g}_vy{vy:g}", matched_filter_image(echo, cfg.grid, (vx, vy)))
        for vx, vy in cfg.hypotheses
    ]
    lines = []
    for stem, image in images:
        line = f"{stem}: peak = {image.pixels.max():.6g}"
        if true_coords:
            pslr_db, width = sidelobe_metrics(image, true_coords)
            line += f", pslr_db = {pslr_db:.3f}, mainlobe_bins = {width}"
        lines.append(line)
    _prepare_output(cfg, out_dir)
    for stem, image in images:
        storage.write_pgm(out_dir / f"{stem}.pgm", image)
        np.savetxt(out_dir / f"{stem}.csv", image.pixels, fmt="%.9e", delimiter=",")
    return lines


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> list[str]:
    spec = cfg.experiment
    if spec is None:
        raise ConfigError("[experiment]: section required for sweep runs")
    points = psr_sweep(spec)
    _prepare_output(cfg, out_dir)
    storage.write_psr_csv(
        out_dir / "psr.csv",
        points,
        mode=spec.mode,
        base_seed=spec.base_seed,
        comments=cfg.render_effective().splitlines(),
    )
    return [f"points = {len(points)}", f"psr = {out_dir / 'psr.csv'}"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarcs",
        description="Sparse recovery of moving point targets from subsampled SAR echoes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_echo in (
        ("simulate", False),
        ("image-cs", True),
        ("image-mf", True),
        ("sweep", False),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--output", default=None, help="override the output directory")
        if needs_echo:
            cmd.add_argument("--echo", required=True, help="echo container from simulate")
            cmd.add_argument("--truth", default=None, help="truth profile CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.output if args.output is not None else cfg.output_dir)
        if args.command == "simulate":
            lines = cmd_simulate(cfg, out_dir)
        elif args.command == "image-cs":
            lines = cmd_image_cs(cfg, args.echo, args.truth, out_dir)
        elif args.command == "image-mf":
            lines = cmd_image_mf(cfg, args.echo, args.truth, out_dir)
        else:
            lines = cmd_sweep(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"a sweep worker died: {exc}", file=sys.stderr)
        return 3
    except (OSError, storage.FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    summary = "\n".join(lines)
    (out_dir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
