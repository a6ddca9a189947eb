"""Vectorized engine against the per-path reference implementations."""

import os
import signal
import subprocess
import sys
import weakref
from pathlib import Path as FilePath

import numpy as np
import pytest

from sigma_lab import (
    ConfigurationError,
    ContractError,
    ErfSign,
    Path,
    SeedSpec,
    StoppedBM,
    density_driver_path,
    density_path,
    driver_zero_set,
    lifted_reflected,
    make_grid,
    q_bracket,
    sample_bm,
    zero_set,
)
from sigma_lab.balayage import gathered_prefix
from sigma_lab.density import density_matrix, driver_matrix, zero_geometry
from sigma_lab.ensemble import chunk_ranges, run_chunked
from sigma_lab.experiments import _sigs_members
from sigma_lab.paths import cumsum_paths, first_hit, increments_matrix

SEED = 20260822


def test_chunk_ranges_cover_exactly():
    assert chunk_ranges(10, 4) == [(0, 4), (4, 4), (8, 2)]
    assert chunk_ranges(4, 4) == [(0, 4)]
    with pytest.raises(ConfigurationError):
        chunk_ranges(0)


def test_rows_match_per_path_sampling_bitwise():
    grid = make_grid(horizon=1.0, step=0.01)
    rows = increments_matrix(SEED, start_index=5, count=4, n_steps=grid.n_steps, step=grid.step)
    values = cumsum_paths(rows, start=0.25)
    for i in range(4):
        ref = sample_bm(grid, 0.25, SeedSpec(SEED, 5 + i))
        assert np.array_equal(values[i], ref.values)


def test_density_matrix_matches_per_path_models():
    grid = make_grid(horizon=2.0, step=0.01)
    for model in (StoppedBM(start=1.0, stop_time=1.0), ErfSign(offset=1.0, terminal_time=2.0)):
        rows = driver_matrix(model, SEED, 0, 6, grid)
        D = density_matrix(model, rows, grid)
        for i in range(6):
            seed = SeedSpec(SEED, i)
            ref_driver = density_driver_path(model, seed, grid)
            ref_density = density_path(model, seed, grid)
            assert np.array_equal(rows[i], ref_driver.values)
            assert np.array_equal(D[i], ref_density.values)


def test_zero_geometry_matches_per_path_detection():
    grid = make_grid(horizon=2.0, step=0.01)
    model = StoppedBM(start=0.5, stop_time=2.0)
    rows = driver_matrix(model, SEED + 1, 0, 40, grid)
    D = density_matrix(model, rows, grid)
    geo = zero_set(Path(grid=grid, values=D), model)
    assert np.array_equal(geo.in_h, zero_geometry(D, last_index=grid.index_of(2.0)))
    for i in range(40):
        ref = zero_set(density_path(model, SeedSpec(SEED + 1, i), grid), model)
        assert np.array_equal(np.nonzero(geo.in_h[i])[0], ref.h_indices)
        assert np.array_equal(geo.gamma_index[i], ref.gamma_index)
        assert geo.gbar_index[i] == ref.gbar_index


def test_gathered_prefix_matches_q_bracket():
    grid = make_grid(horizon=2.0, step=0.01)
    model = StoppedBM(start=0.3, stop_time=2.0)
    rows = driver_matrix(model, SEED + 2, 0, 20, grid)
    D = density_matrix(model, rows, grid)
    geo = zero_set(Path(grid=grid, values=D), model)
    W = cumsum_paths(increments_matrix(SEED + 2, 0, 20, grid.n_steps, grid.step))
    got = gathered_prefix(np.diff(W, axis=1) ** 2, geo.gamma_index)
    for i in range(20):
        ref = q_bracket(
            sample_bm(grid, 0.0, SeedSpec(SEED + 2, i)),
            zero_set(density_path(model, SeedSpec(SEED + 2, i), grid), model),
        )
        assert np.array_equal(got[i], ref.values)


def test_run_chunked_is_chunking_invariant():
    def fn(start, count):
        idx = np.arange(start, start + count, dtype=np.float64)
        return {"idx": idx, "sq": idx**2}

    a = run_chunked(1000, fn, chunk_size=256)
    b = run_chunked(1000, fn, chunk_size=77)
    assert np.array_equal(a["idx"], b["idx"])
    assert np.array_equal(a["sq"], b["sq"])
    assert a["idx"].shape == (1000,)


def test_sigma_s_chunk_rows_are_lifted_reflected_bitwise():
    model = ErfSign(offset=1.0, terminal_time=1.0)
    d, _ = _sigs_members(0, 12, seed=SEED, step=0.01, horizon=2.0, model=model)
    grid, x, a = d.grid, d.x.values, d.a.values
    for i in range(12):
        seed = SeedSpec(SEED, i)
        zs = driver_zero_set(model, density_driver_path(model, seed, grid))
        ref = lifted_reflected(sample_bm(grid, 0.0, seed), zs)
        assert np.array_equal(x[i], ref.x.values)
        assert np.array_equal(a[i], ref.a.values)


def test_serial_chunks_do_not_pin_their_matrices():
    alive = []
    live_at_start = []

    def fn(start, count):
        live_at_start.append(sum(ref() is not None for ref in alive))
        big = np.ones((count, 20000))
        alive.append(weakref.ref(big))
        return {"last": big[:, -1]}

    out = run_chunked(40, fn, chunk_size=8)
    assert out["last"].shape == (40,)
    assert live_at_start == [0] * 5


def test_first_reach_index():
    values = np.array([[0.0, 0.5, 1.2, 0.3], [0.0, 0.1, 0.2, 0.3]])
    idx = first_hit(values >= 1.0)
    assert list(idx) == [2, -1]
    assert first_hit(values[0] >= 1.0) == 2


def test_run_chunked_names_a_feature_without_one_row_per_path():
    def fn(start, count):
        return {"ok": np.zeros((count, 3)), "short": np.zeros(count - 1)}

    with pytest.raises(ContractError, match="'short'"):
        run_chunked(10, fn, chunk_size=4)


def _index_chunk(start, count):
    return {"idx": np.arange(start, start + count, dtype=np.float64)}


def _dies_on_chunk_two(start, count):
    if start == 2:
        os._exit(3)
    return _index_chunk(start, count)


_DEAD_WORKER_SCRIPT = """
import sys
from concurrent.futures.process import BrokenProcessPool
import numpy as np
from sigma_lab.ensemble import run_chunked
from test_ensemble import _dies_on_chunk_two, _index_chunk
try:
    run_chunked(6, _dies_on_chunk_two, chunk_size=1, workers=2)
except BrokenProcessPool:
    print("broken")
out = run_chunked(6, _index_chunk, chunk_size=1, workers=2)
print("recovered" if np.array_equal(out["idx"], np.arange(6.0)) else "wrong")
"""


def test_a_dead_worker_surfaces_and_the_next_pool_works():
    tests = FilePath(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        # a hung pool would otherwise outlive the test
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, err
    assert out.split() == ["broken", "recovered"]
    # the pools shut down cleanly at exit
    assert "Exception ignored" not in err, err
