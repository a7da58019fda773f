"""Hypothesis properties of the operator, indexing, container, profiles and
solver on random small grids."""

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sarcs import operator, storage
from sarcs.echo import EchoMatrix
from sarcs.model import GridCoord, flat_index, unflatten
from sarcs.operator import SensingOperator, select_measurements
from sarcs.recovery import RecoveryConfig, SparseProfile, _candidates, _largest, cosamp

from conftest import small_radar, small_search_grid

PARAMS = small_radar()
TOTAL = PARAMS.nr * PARAMS.na
POLICIES = ("none", "full-row-cache")

grids = st.builds(
    small_search_grid,
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    nvx=st.integers(1, 3),
    nvy=st.integers(1, 3),
)
seeds = st.integers(0, 2**32 - 1)
# derandomize: the suite draws the same examples on every run
quick = settings(deadline=None, max_examples=25, derandomize=True)


def complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def draw_profile(data, grid, values=st.complex_numbers(allow_nan=False, allow_infinity=False)):
    """A random profile through ``from_flat``, plus the lists it was built from."""
    flat = data.draw(
        st.lists(st.integers(0, grid.size - 1), unique=True, max_size=8), label="flat"
    )
    coefficients = data.draw(
        st.lists(values, min_size=len(flat), max_size=len(flat)), label="coefficients"
    )
    return SparseProfile.from_flat(grid, np.array(flat), coefficients), flat, coefficients


@quick
@given(grid=grids, m=st.integers(1, 40), seed=seeds, data=st.data())
def test_uncached_columns_equal_cache_bit_for_bit(grid, m, seed, data):
    pairs = data.draw(st.integers(1, grid.nvx * grid.nvy), label="pairs per tile")
    sel = select_measurements(m, TOTAL, seed)
    with mock.patch.object(operator, "_BLOCK_ELEMENTS", pairs * m * grid.nx * grid.ny):
        cached = SensingOperator(PARAMS, grid, sel, "full-row-cache")
        cached.columns(np.empty(0, dtype=np.int64))
    every = np.arange(grid.size)
    direct = SensingOperator(PARAMS, grid, sel, "none").columns(every)
    assert np.array_equal(direct, cached.columns(every))


@settings(quick, max_examples=100)
@given(
    log10_range=st.floats(math.log10(2e3), math.log10(3.6e7)),
    carrier=st.floats(1e9, 35e9),
    m=st.integers(1, 40),
    seed=seeds,
)
def test_search_entries_within_bound_at_any_range_and_carrier(log10_range, carrier, m, seed):
    x0 = 10.0**log10_range
    params = dataclasses.replace(PARAMS, f0=carrier, tau0=2.0 * x0 / PARAMS.c)
    grid = dataclasses.replace(small_search_grid(), x0=x0)
    sel = select_measurements(m, TOTAL, seed)
    cached = SensingOperator(params, grid, sel, "full-row-cache")
    cached.adjoint(np.ones(m), search=True)
    exact = SensingOperator(params, grid, sel, "none").columns(np.arange(grid.size))
    assert np.array_equal(cached._cache == 0, exact == 0)
    assert np.abs(cached._cache - exact).max() <= operator._SEARCH_ENTRY_ERROR


@quick
@given(grid=grids, m=st.integers(1, 120), seed=seeds, data=st.data())
def test_column_norms_are_square_roots_of_nonzero_counts(grid, m, seed, data):
    pairs = data.draw(st.integers(1, grid.nvx * grid.nvy), label="pairs per tile")
    sel = select_measurements(m, TOTAL, seed)
    with mock.patch.object(operator, "_BLOCK_ELEMENTS", pairs * m * grid.nx * grid.ny):
        cached = SensingOperator(PARAMS, grid, sel, "full-row-cache")
        direct = SensingOperator(PARAMS, grid, sel, "none")
        cached.adjoint(np.ones(m), search=True)  # fills the cache, counting the norms
        norms = {policy: op.column_norms() for policy, op in zip(POLICIES, (direct, cached))}
    counts = np.count_nonzero(direct.columns(np.arange(grid.size)), axis=0)
    assert np.array_equal(norms["none"], np.sqrt(counts))
    assert np.array_equal(norms["full-row-cache"], norms["none"])


@settings(quick, max_examples=60)
@given(grid=grids, m=st.integers(1, 60), seed=seeds, count=st.integers(1, 8))
def test_band_candidates_equal_exact_ranking(grid, m, seed, count):
    sel = select_measurements(m, TOTAL, seed)
    cached = SensingOperator(PARAMS, grid, sel, "full-row-cache")
    direct = SensingOperator(PARAMS, grid, sel, "none")
    norms = direct.column_norms()
    visible = np.flatnonzero(norms > 0)
    assume(visible.size)
    inv_norms = np.zeros_like(norms)
    inv_norms[visible] = 1.0 / norms[visible]
    residual = complex_normal(np.random.default_rng(seed), m)
    exact = np.zeros(grid.size)
    exact[visible] = np.abs(direct.adjoint(residual)[visible] * inv_norms[visible])
    expected = visible[_largest(exact[visible], count)]
    assert np.array_equal(_candidates(direct, residual, visible, inv_norms, count), expected)
    # Columns seen by one sample, or by the same samples alike, tie exactly;
    # rounding in the last bit orders them, and the band's exact products
    # and the tiles' may round apart. The candidates must agree up to those ties.
    got = _candidates(cached, residual, visible, inv_norms, count)
    assert got.size == expected.size
    assert np.allclose(np.sort(exact[got]), np.sort(exact[expected]), rtol=1e-12, atol=0)


@quick
@given(grid=grids, m=st.integers(1, 40), seed=seeds, policy=st.sampled_from(POLICIES))
def test_adjoint_identity(grid, m, seed, policy):
    op = SensingOperator(PARAMS, grid, select_measurements(m, TOTAL, seed), policy)
    rng = np.random.default_rng(seed)
    x = complex_normal(rng, grid.size)
    y = complex_normal(rng, m)
    lhs = np.vdot(y, op.columns(np.arange(grid.size)) @ x)
    rhs = np.vdot(op.adjoint(y), x)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


@settings(quick, max_examples=100)
@given(grid=grids, data=st.data())
def test_flat_indexing_is_a_bijection(grid, data):
    flat = data.draw(st.integers(0, grid.size - 1), label="flat")
    assert flat_index(unflatten(flat, grid), grid) == flat
    coord = GridCoord(
        data.draw(st.integers(0, grid.nx - 1), label="n1"),
        data.draw(st.integers(0, grid.ny - 1), label="n2"),
        data.draw(st.integers(0, grid.nvx - 1), label="p"),
        data.draw(st.integers(0, grid.nvy - 1), label="q"),
    )
    assert unflatten(flat_index(coord, grid), grid) == coord


@settings(quick, max_examples=30)
@given(
    data=st.data(),
    nr=st.integers(100, 110),
    na=st.integers(1, 3),
)
def test_echo_container_round_trips(data, nr, na):
    params = small_radar(nr=nr, na=na)
    samples = data.draw(
        arrays(
            np.complex128,
            (nr, na),
            elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
        ),
        label="samples",
    )
    echo = EchoMatrix(samples, params)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "echo.bin"
        storage.write_echo(path, echo)
        back = storage.read_echo(path, params)
    assert back.samples.tobytes() == echo.samples.tobytes()


@quick
@given(
    grid=grids,
    seed=seeds,
    k=st.integers(1, 3),
    extra_rows=st.integers(0, 20),
    scale=st.sampled_from([1j, -1.0, 0.25, 3.0 - 4.0j, -2.0j]),
)
def test_cosamp_contracts(grid, seed, k, extra_rows, scale):
    m = 4 * k + 4 + extra_rows
    op = SensingOperator(PARAMS, grid, select_measurements(m, TOTAL, seed))
    assume(np.count_nonzero(op.column_norms()) >= k)
    rng = np.random.default_rng(seed)
    # a k-sparse echo plus noise, so the fit is neither exact nor degenerate
    atoms = rng.choice(grid.size, size=min(k, grid.size), replace=False)
    y = op.columns(atoms) @ complex_normal(rng, atoms.size) + 0.1 * complex_normal(rng, m)
    cfg = RecoveryConfig(sparsity=k, max_iterations=8)

    profile, diag = cosamp(op, y, cfg)
    flats = profile.flat
    assert flats.size <= k
    assert all(len(support) <= k for support in diag.support_history)

    cols = op.columns(flats)
    residual = y - cols @ profile.coefficients
    overlap = np.abs(cols.conj().T @ residual)
    assert np.all(overlap <= 1e-8 * np.linalg.norm(cols, axis=0) * np.linalg.norm(y))

    scaled, _ = cosamp(op, scale * y, cfg)
    assert np.array_equal(scaled.flat, flats)
    assert np.allclose(
        scaled.coefficients, scale * profile.coefficients, rtol=1e-10, atol=1e-12
    )


@quick
@given(grid=grids, data=st.data())
def test_profile_constructors_agree_and_are_read_only(grid, data):
    profile, flat, coefficients = draw_profile(data, grid)
    pairs = SparseProfile(zip((unflatten(g, grid) for g in flat), coefficients), grid)
    assert profile.flat.dtype == np.int64 and profile.coefficients.dtype == np.complex128
    assert profile.flat.tolist() == flat
    assert profile.coefficients.tobytes() == np.array(coefficients, np.complex128).tobytes()
    assert np.array_equal(pairs.flat, profile.flat) and pairs.flat.dtype == np.int64
    assert pairs.coefficients.tobytes() == profile.coefficients.tobytes()
    assert pairs.entries == profile.entries
    for array in (profile.flat, profile.coefficients, pairs.flat, pairs.coefficients):
        assert not array.flags.writeable


@quick
@given(grid=grids, data=st.data(), physical=st.booleans())
def test_profile_csv_round_trips_bit_for_bit(grid, data, physical):
    profile, _, _ = draw_profile(data, grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.csv"
        storage.write_profile_csv(path, profile, physical=physical)
        back = storage.read_profile_csv(path, grid)
    # rows are written in flat order
    order = np.argsort(profile.flat)
    assert np.array_equal(back.flat, profile.flat[order])
    assert back.coefficients.tobytes() == profile.coefficients[order].tobytes()


@quick
@given(grid=grids, m=st.integers(1, 40), seed=seeds, data=st.data())
def test_forward_is_columns_times_coefficients(grid, m, seed, data):
    profile, _, _ = draw_profile(data, grid, st.complex_numbers(max_magnitude=1e3))
    sel = select_measurements(m, TOTAL, seed)
    for policy in POLICIES:
        op = SensingOperator(PARAMS, grid, sel, policy)
        out = op.forward(profile)
        assert out.shape == (m,)
        assert np.array_equal(out, op.columns(profile.flat) @ profile.coefficients)


@settings(quick, max_examples=200)
@given(
    values=arrays(
        np.float64,
        st.integers(1, 30),
        elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.inf, np.nan]) | st.floats(0, 4),
    ),
    count=st.integers(1, 35),
)
def test_largest_is_the_head_of_a_stable_descending_sort(values, count):
    # CoSaMP's candidate set: ties to the lowest index, NaN ranked last
    head = np.sort(np.argsort(-values, kind="stable")[:count])
    assert np.array_equal(_largest(values, count), head)
