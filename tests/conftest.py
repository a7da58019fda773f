from pathlib import Path

import pytest

from sarcs.config import load_config
from sarcs.echo import scene_echo
from sarcs.model import ExtendedGrid, GridCoord, RadarParams, Scene, Target
from sarcs.recovery import SparseProfile

C = 3.0e8
FIG2 = Path(__file__).resolve().parents[1] / "configs" / "fig2.ini"


def small_radar(nr=104, na=32):
    """Desk-scale radar: 104x32 samples, 2 us pulse, 2 km stand-off.

    Geometry is chosen so the small search grid below is actually
    resolvable by the aperture (azimuth resolution ~0.94 m vs 1 m bins,
    chirp phase ramp ~3.4 rad per 2 m range bin); grids finer than the
    aperture supports leave the dictionary columns nearly collinear.
    """
    return RadarParams(
        v=100.0,
        f0=1e10,
        tp=2e-6,
        bandwidth=40e6,
        fs=50e6,
        fa=100.0,
        nr=nr,
        na=na,
        tau0=2.0 * 2000.0 / C,
    )


def small_search_grid(nx=4, ny=4, nvx=2, nvy=2):
    return ExtendedGrid(
        x0=2000.0,
        y0=0.0,
        vx0=-5.0,
        vy0=-5.0,
        dx=2.0,
        dy=1.0,
        dvx=5.0,
        dvy=5.0,
        nx=nx,
        ny=ny,
        nvx=nvx,
        nvy=nvy,
    )


@pytest.fixture
def params():
    return small_radar()


@pytest.fixture
def grid():
    return small_search_grid()


@pytest.fixture
def oracle_grid():
    return small_search_grid(nx=6, ny=6, nvx=3, nvy=3)


@pytest.fixture(scope="session")
def full_grid():
    return ExtendedGrid(
        x0=30000.0 - 7.5,
        y0=0.0,
        vx0=-10.0,
        vy0=-10.0,
        dx=0.5,
        dy=0.5,
        dvx=2.0,
        dvy=2.0,
        nx=31,
        ny=31,
        nvx=11,
        nvy=11,
    )


@pytest.fixture(scope="session")
def full_params(full_grid):
    """The stock X-band stripmap radar, as the shipped fig2 config states it."""
    cfg = load_config(FIG2)
    assert cfg.grid == full_grid
    return cfg.params


@pytest.fixture(scope="session")
def three_target_scene(full_grid):
    """Static target, a 10 m/s range mover, and a 4/4 m/s diagonal mover."""
    targets = (
        Target(full_grid.x0 + 4.0, 2.5, 0.0, 0.0),
        Target(full_grid.x0 + 7.5, 10.0, 10.0, 0.0),
        Target(full_grid.x0 + 11.5, 8.0, 4.0, 4.0),
    )
    coords = (
        GridCoord(8, 5, 5, 5),
        GridCoord(15, 20, 10, 5),
        GridCoord(23, 16, 7, 7),
    )
    truth = SparseProfile(tuple((c, 1.0 + 0.0j) for c in coords), full_grid)
    return Scene(targets), truth, coords


@pytest.fixture(scope="session")
def three_target_echo(three_target_scene, full_params):
    scene, _, _ = three_target_scene
    return scene_echo(scene, full_params)
