"""File formats: echo container, profile/diagnostic CSVs, and graymaps.

The binary container is little-endian throughout: a 16-byte header
(8-byte magic, uint32 row count, uint32 column count) followed by the
row-major samples, each stored as a float64 real/imaginary pair. Magic
``SARECHO1`` marks a raw nr-by-na echo. A file that breaks this layout or
holds a NaN or infinite sample, or a profile CSV without its grid columns
or with an unparsable, non-finite or repeated row, raises
:class:`FormatError`. Well-formed files that disagree with the config (an
echo of another shape, a profile cell off the grid) raise ``ValueError``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .echo import EchoMatrix
from .model import ExtendedGrid, GridCoord, RadarParams, grid_to_physical
from .recovery import CosampDiagnostics, SparseProfile

__all__ = [
    "ECHO_MAGIC",
    "FormatError",
    "write_echo",
    "read_echo",
    "write_profile_csv",
    "read_profile_csv",
    "write_diagnostics_csv",
    "write_psr_csv",
    "write_pgm",
]

ECHO_MAGIC = b"SARECHO1"
_HEADER = struct.Struct("<8sII")
_PROFILE_COLUMNS = ("n1", "n2", "p", "q", "re", "im")


class FormatError(ValueError):
    """An input file does not follow its documented format."""


def write_echo(path, echo: EchoMatrix) -> None:
    samples = echo.samples
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(ECHO_MAGIC, samples.shape[0], samples.shape[1]))
        fh.write(np.ascontiguousarray(samples).astype("<c16").tobytes())


def read_echo(path, params: RadarParams) -> EchoMatrix:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        found, rows, cols = _HEADER.unpack(header)
        if found != ECHO_MAGIC:
            raise FormatError(f"{path}: expected magic {ECHO_MAGIC!r}, found {found!r}")
        payload = fh.read()
    expected = rows * cols * 16
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: payload holds non-finite samples")
    if (rows, cols) != (params.nr, params.na):
        raise ValueError(
            f"{path}: echo is {(rows, cols)}, config expects ({params.nr}, {params.na})"
        )
    return EchoMatrix(data.reshape(rows, cols), params)


def _format_float(value: float) -> str:
    return repr(float(value))


def write_profile_csv(path, profile: SparseProfile, physical: bool = False) -> None:
    """Profile rows: flat index, grid coords, and (optionally) physical
    position/velocity, plus the complex coefficient split into re/im."""
    header = "flat_index,n1,n2,p,q"
    if physical:
        header += ",x,y,vx,vy"
    header += ",re,im"
    lines = [header]
    entries = profile.entries
    for i in np.argsort(profile.flat):
        coord, value = entries[i]
        row = [
            str(profile.flat[i]),
            str(coord.n1),
            str(coord.n2),
            str(coord.p),
            str(coord.q),
        ]
        if physical:
            row.extend(_format_float(v) for v in grid_to_physical(coord, profile.grid))
        row.append(_format_float(value.real))
        row.append(_format_float(value.imag))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_profile_csv(path, grid: ExtendedGrid) -> SparseProfile:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file") from exc
    columns = lines[0].split(",") if lines else []
    missing = [name for name in _PROFILE_COLUMNS if name not in columns]
    if missing:
        raise FormatError(f"{path}: profile CSV lacks columns {','.join(missing)}")
    shape = (grid.nx, grid.ny, grid.nvx, grid.nvy)
    entries: dict[GridCoord, complex] = {}
    for number, line in enumerate(lines[1:], start=2):
        fields = dict(zip(columns, line.split(",")))
        try:
            index = tuple(int(fields[name]) for name in _PROFILE_COLUMNS[:4])
            value = complex(float(fields["re"]), float(fields["im"]))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: line {number}: cannot parse {line!r}") from exc
        if not np.isfinite(value):
            raise FormatError(f"{path}: line {number}: non-finite coefficient in {line!r}")
        if not all(0 <= i < n for i, n in zip(index, shape)):
            # a well-formed row that disagrees with the configured grid
            raise ValueError(f"{path}: line {number}: cell {index} outside grid shape {shape}")
        coord = GridCoord(*index)
        if coord in entries:
            raise FormatError(f"{path}: line {number}: duplicate grid coordinates {index}")
        entries[coord] = value
    return SparseProfile(entries.items(), grid)


def write_diagnostics_csv(path, diag: CosampDiagnostics) -> None:
    lines = ["iteration,residual_norm,support_size"]
    for i, norm in enumerate(diag.residual_norms, start=1):
        size = len(diag.support_history[i - 1])
        lines.append(f"{i},{_format_float(norm)},{size}")
    lines.append(f"# halt_reason = {diag.halt_reason}")
    lines.append(f"# best_iteration = {diag.best_iteration}")
    lines.append(f"# final_residual_norm = {_format_float(diag.final_residual_norm)}")
    if diag.dropped_columns:
        dropped = ";".join(str(c) for c in diag.dropped_columns)
        lines.append(f"# dropped_columns = {dropped}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_psr_csv(path, points, mode: str, base_seed: int, comments=()) -> None:
    """Sweep output: one row per point, config echoed as comment lines."""
    lines = [f"# {line}" for line in comments]
    lines.append("mode,k,M,snr_db,trials,successes,psr,mean_rel_error,base_seed")
    for pt in points:
        snr = "" if pt.snr_db is None else _format_float(pt.snr_db)
        lines.append(
            ",".join(
                [
                    mode,
                    str(pt.k),
                    str(pt.m),
                    snr,
                    str(pt.trials),
                    str(pt.successes),
                    _format_float(pt.psr),
                    _format_float(pt.mean_rel_error),
                    str(base_seed),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(path, image) -> None:
    """8-bit binary graymap, max-normalized; row = range bin."""
    pixels = image.pixels
    peak = pixels.max()
    scaled = np.zeros(pixels.shape, dtype=np.uint8)
    if peak > 0:
        scaled = np.round(255.0 * pixels / peak).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
