import struct

import numpy as np
import pytest

from sarcs.baseline import IntensityImage
from sarcs.echo import EchoMatrix
from sarcs.experiments import PsrPoint
from sarcs.model import GridCoord
from sarcs.recovery import CosampDiagnostics, SparseProfile
from sarcs import storage


@pytest.fixture
def echo(params):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((params.nr, params.na)) + 1j * rng.standard_normal(
        (params.nr, params.na)
    )
    return EchoMatrix(samples, params)


def write_container(path, samples):
    """SARECHO1 bytes written by hand: EchoMatrix refuses the samples the
    corruption tests need."""
    header = struct.pack("<8sII", b"SARECHO1", *samples.shape)
    path.write_bytes(header + np.ascontiguousarray(samples, dtype="<c16").tobytes())


class TestEchoContainer:
    def test_roundtrip_exact(self, tmp_path, params, echo):
        path = tmp_path / "echo.bin"
        storage.write_echo(path, echo)
        back = storage.read_echo(path, params)
        assert np.array_equal(back.samples, echo.samples)

    def test_header_layout(self, tmp_path, params, echo):
        path = tmp_path / "echo.bin"
        storage.write_echo(path, echo)
        raw = path.read_bytes()
        magic, rows, cols = struct.unpack("<8sII", raw[:16])
        assert magic == b"SARECHO1"
        assert (rows, cols) == (params.nr, params.na)
        assert len(raw) == 16 + rows * cols * 16
        # first payload value is the little-endian float64 pair of sample (0, 0)
        re, im = struct.unpack("<dd", raw[16:32])
        assert complex(re, im) == echo.samples[0, 0]

    def test_wrong_magic_rejected(self, tmp_path, params, echo):
        path = tmp_path / "foreign.bin"
        storage.write_echo(path, echo)
        path.write_bytes(b"SARXXXX1" + path.read_bytes()[8:])
        with pytest.raises(storage.FormatError, match="magic"):
            storage.read_echo(path, params)

    def test_truncated_payload_rejected(self, tmp_path, params, echo):
        path = tmp_path / "echo.bin"
        storage.write_echo(path, echo)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(storage.FormatError, match="payload"):
            storage.read_echo(path, params)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sample_rejected(self, tmp_path, params, echo, value):
        path = tmp_path / "echo.bin"
        samples = echo.samples.copy()
        samples[3, 2] = complex(0.0, value)
        write_container(path, samples)
        with pytest.raises(storage.FormatError, match="echo.bin.*non-finite"):
            storage.read_echo(path, params)

    def test_dimension_mismatch_rejected(self, tmp_path, params, echo):
        path = tmp_path / "echo.bin"
        write_container(path, echo.samples[:-1])
        with pytest.raises(ValueError, match="expects"):
            storage.read_echo(path, params)


class TestProfileCsv:
    def test_roundtrip(self, tmp_path, grid):
        profile = SparseProfile(
            ((GridCoord(2, 1, 0, 1), 0.5 - 0.25j), (GridCoord(0, 3, 1, 0), 1.0)), grid
        )
        path = tmp_path / "profile.csv"
        storage.write_profile_csv(path, profile)
        back = storage.read_profile_csv(path, grid)
        assert set(back.entries) == set(profile.entries)

    def test_physical_columns_present(self, tmp_path, grid):
        profile = SparseProfile(((GridCoord(2, 1, 0, 1), 1.0),), grid)
        path = tmp_path / "profile.csv"
        storage.write_profile_csv(path, profile, physical=True)
        lines = path.read_text().splitlines()
        assert lines[0] == "flat_index,n1,n2,p,q,x,y,vx,vy,re,im"
        fields = lines[1].split(",")
        assert float(fields[5]) == grid.x0 + 2 * grid.dx
        assert float(fields[8]) == grid.vy0 + 1 * grid.dvy

    def test_rows_sorted_by_flat_index(self, tmp_path, grid):
        profile = SparseProfile(
            ((GridCoord(3, 3, 1, 1), 1.0), (GridCoord(0, 0, 0, 0), 2.0)), grid
        )
        path = tmp_path / "profile.csv"
        storage.write_profile_csv(path, profile)
        lines = path.read_text().splitlines()[1:]
        flats = [int(line.split(",")[0]) for line in lines]
        assert flats == sorted(flats)


class TestDiagnosticsCsv:
    def test_rows_and_footer(self, tmp_path):
        diag = CosampDiagnostics(
            residual_norms=[3.0, 1.0],
            support_history=[[4, 9], [4, 11]],
            dropped_columns=[5],
            halt_reason="stalled",
            iterations=2,
            best_iteration=2,
            final_residual_norm=1.0,
        )
        path = tmp_path / "diag.csv"
        storage.write_diagnostics_csv(path, diag)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "iteration,residual_norm,support_size"
        assert lines[1].startswith("1,3.0,2")
        assert "# halt_reason = stalled" in lines
        assert "# dropped_columns = 5" in lines


class TestPsrCsv:
    def test_schema_and_values(self, tmp_path):
        points = [
            PsrPoint(k=2, m=40, snr_db=None, trials=10, successes=9, psr=0.9, mean_rel_error=0.05),
            PsrPoint(k=2, m=40, snr_db=-5.0, trials=10, successes=3, psr=0.3, mean_rel_error=0.8),
        ]
        path = tmp_path / "psr.csv"
        storage.write_psr_csv(path, points, mode="psr_vs_m", base_seed=7, comments=["hello"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "mode,k,M,snr_db,trials,successes,psr,mean_rel_error,base_seed"
        assert lines[2] == "psr_vs_m,2,40,,10,9,0.9,0.05,7"
        assert lines[3] == "psr_vs_m,2,40,-5.0,10,3,0.3,0.8,7"


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        pixels = np.array([[0.0, 1.0], [2.0, 4.0], [1.0, 3.0]])
        path = tmp_path / "image.pgm"
        storage.write_pgm(path, IntensityImage(pixels, (0.0, 0.0)))
        raw = path.read_bytes()
        header, payload = raw.split(b"255\n", 1)
        assert header == b"P5\n2 3\n"
        data = np.frombuffer(payload, dtype=np.uint8).reshape(3, 2)
        assert data[1, 1] == 255
        assert data[0, 0] == 0
        assert data[0, 1] == round(255 / 4)

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        storage.write_pgm(path, IntensityImage(np.zeros((2, 2)), None))
        data = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert not data.any()
