"""Sampling layer: grids, streams, determinism, and distributional sanity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from sigma_lab import (
    ConfigurationError,
    SeedSpec,
    SUBSTREAM_DENSITY,
    SUBSTREAM_PRIMARY,
    SUBSTREAM_SECONDARY,
    bm_increments,
    ks_check,
    make_grid,
    make_stream,
    sample_bm,
    sample_independent_pair,
)
from sigma_lab.paths import increments_matrix

SEED = 20260822


def test_grid_times_and_index():
    grid = make_grid(horizon=2.0, step=0.5)
    assert grid.n_steps == 4
    assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.index_of(1.5) == 3
    assert grid.index_of(0.0) == 0
    for t in (0.7, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            grid.index_of(t)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        make_grid(horizon=1.0, step=0.3)
    with pytest.raises(ConfigurationError):
        make_grid(horizon=0.0, step=0.1)
    with pytest.raises(ConfigurationError):
        make_grid(horizon=1.0, step=-0.1)
    for horizon, step in ((float("nan"), 0.1), (float("inf"), 0.1), (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(ConfigurationError):
            make_grid(horizon=horizon, step=step)


def test_streams_are_deterministic_and_separated():
    seed = SeedSpec(master_seed=SEED, path_index=7)
    a = make_stream(seed).standard_normal(8)
    b = make_stream(seed).standard_normal(8)
    assert np.array_equal(a, b)
    c = make_stream(SeedSpec(master_seed=SEED, path_index=8)).standard_normal(8)
    assert not np.array_equal(a, c)
    d = make_stream(seed, SUBSTREAM_DENSITY).standard_normal(8)
    e = make_stream(seed, SUBSTREAM_SECONDARY).standard_normal(8)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)
    assert not np.array_equal(d, e)


def test_increments_are_the_stream_draws_bitwise():
    # bm_increments re-keys a shared Philox; its draws must stay those of a
    # freshly constructed stream, for extreme keys and interleaved calls too.
    keys = [(m, i) for m in (0, SEED, 2**64 - 1) for i in (0, 5, 2**64 - 1)]
    for substream in (SUBSTREAM_PRIMARY, SUBSTREAM_DENSITY, SUBSTREAM_SECONDARY):
        for key in keys:
            got = bm_increments(*key, 13, 0.02, substream)
            want = make_stream(SeedSpec(*key), substream).standard_normal(13) * np.sqrt(0.02)
            assert got.tobytes() == want.tobytes()
    first = bm_increments(*keys[1], 9, 0.5, SUBSTREAM_PRIMARY)
    bm_increments(*keys[2], 4, 0.5, SUBSTREAM_DENSITY)
    assert np.array_equal(first, bm_increments(*keys[1], 9, 0.5, SUBSTREAM_PRIMARY))


_STREAMS = st.lists(
    st.tuples(
        st.integers(0, 2**64 - 1),  # master seed
        st.integers(0, 2**64 - 3),  # first path index
        st.sampled_from((SUBSTREAM_PRIMARY, SUBSTREAM_DENSITY, SUBSTREAM_SECONDARY)),
        st.integers(1, 37),  # row length: odd lengths leave the Philox buffer part-used
    ),
    min_size=2,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_STREAMS, st.sampled_from((1.0, 0.02, 2e-3)))
def test_rekeyed_rows_are_fresh_stream_draws_bitwise(streams, step):
    # Each draw re-keys the shared Philox from the previous stream's words,
    # so a word left stale by one stream would show in the next.
    for master_seed, first, substream, n in streams:
        want = [
            make_stream(SeedSpec(master_seed, first + i), substream).standard_normal(n) * np.sqrt(step)
            for i in range(3)
        ]
        rows = increments_matrix(master_seed, first, 3, n, step, substream)
        for i in range(3):
            assert rows[i].tobytes() == want[i].tobytes()
        assert bm_increments(master_seed, first + 1, n, step, substream).tobytes() == want[1].tobytes()
        # drawn in place into one row of a matrix, leaving the others alone
        block = np.full((3, n), np.nan)
        out = block[1]
        assert bm_increments(master_seed, first + 2, n, step, substream, out=out) is out
        assert block[1].tobytes() == want[2].tobytes()
        assert np.isnan(block[[0, 2]]).all()


def test_bm_path_matches_raw_increments():
    grid = make_grid(horizon=1.0, step=0.01)
    path = sample_bm(grid, start=0.5, seed=SeedSpec(master_seed=SEED, path_index=3))
    incs = bm_increments(SEED, 3, grid.n_steps, grid.step, SUBSTREAM_PRIMARY)
    rebuilt = 0.5 + np.concatenate([[0.0], np.cumsum(incs)])
    assert path.values[0] == 0.5
    assert np.array_equal(path.values[1:], rebuilt[1:])


def test_terminal_values_are_gaussian():
    # W_1 over 2000 paths against the standard normal cdf.
    grid = make_grid(horizon=1.0, step=0.05)
    terminal = np.array(
        [sample_bm(grid, 0.0, SeedSpec(SEED, i)).values[-1] for i in range(2000)]
    )
    check = ks_check("terminal-gaussian", terminal, None, norm.cdf)
    assert check.passed, check.detail


def test_increments_uncorrelated_within_and_across_substreams():
    n = 20000
    w = bm_increments(SEED, 0, n, 1.0, SUBSTREAM_PRIMARY)
    v = bm_increments(SEED, 0, n, 1.0, SUBSTREAM_SECONDARY)
    bound = 3.0 / np.sqrt(n)
    lag1 = np.corrcoef(w[:-1], w[1:])[0, 1]
    cross = np.corrcoef(w, v)[0, 1]
    assert abs(lag1) < bound
    assert abs(cross) < bound
    assert abs(np.std(w) - 1.0) < 0.02


def test_independent_pair_layout():
    grid = make_grid(horizon=1.0, step=0.1)
    seed = SeedSpec(master_seed=SEED, path_index=11)
    first, second = sample_independent_pair(grid, (1.0, -2.0), seed)
    assert first.values[0] == 1.0
    assert second.values[0] == -2.0
    # Primary and secondary substreams never share increments.
    assert not np.array_equal(np.diff(first.values), np.diff(second.values))


def test_seed_spec_validation():
    # one key-range rule: a SeedSpec and a per-row draw refuse the same keys;
    # the key holds seed and index in a 64-bit word each, so path 2**64
    # would alias path 0
    for master_seed, path_index in ((-1, 0), (2**64, 0), (1, -2), (1, 2**64)):
        with pytest.raises(ConfigurationError):
            SeedSpec(master_seed=master_seed, path_index=path_index)
        with pytest.raises(ConfigurationError):
            bm_increments(master_seed, path_index, 4, 0.1, SUBSTREAM_PRIMARY)
    SeedSpec(master_seed=2**64 - 1, path_index=2**64 - 1)
    bm_increments(2**64 - 1, 2**64 - 1, 4, 0.1, SUBSTREAM_PRIMARY)
