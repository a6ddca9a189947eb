"""Every report row states a claim of its own that can fail.

The whole registry runs at a few hundred paths per experiment, and the
test fails when two estimated rows (kind mean, flatness, ks or ratio)
share their estimate and standard error, or their z and a positive
standard error (one row restating the complement of another), when a
mean row has standard error 0 (a mean of constants), when a ratio row
reads inf (a fine error of 0, so a ratio that cannot fall short), or
when two curve files hold the same bytes.  Numbers are compared to 12
significant digits, so that a row restating another through a
different sum of the same numbers is caught too.
"""

import math
from itertools import combinations

import pytest

from sigma_lab import ExperimentConfig, experiment_names, run_experiment, write_report

SEED = 20260822
PATHS = 300
ESTIMATED = ("mean", "flatness", "ks", "ratio")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    runs = [
        run_experiment(ExperimentConfig(experiment=name, n_paths=PATHS, master_seed=SEED), suite="fast")
        for name in experiment_names()
    ]
    return runs, write_report(runs, tmp_path_factory.mktemp("distinct"))


def _key(value):
    return None if value is None else f"{value:.12g}"


def _estimated(runs):
    return [(run.name, c) for run in runs for c in run.checks if c.kind in ESTIMATED]


def test_no_two_estimated_rows_share_estimate_and_stderr(report):
    runs, _ = report
    same = [
        f"{a}/{ca.name} = {b}/{cb.name}"
        for (a, ca), (b, cb) in combinations(_estimated(runs), 2)
        if (_key(ca.estimate), _key(ca.stderr)) == (_key(cb.estimate), _key(cb.stderr))
    ]
    assert not same, f"rows restate each other: {same}"


def test_no_two_estimated_rows_share_z_and_stderr(report):
    runs, _ = report
    rows = [(name, c) for name, c in _estimated(runs) if c.stderr is not None and c.stderr > 0.0]
    same = [
        f"{a}/{ca.name} ~ {b}/{cb.name}"
        for (a, ca), (b, cb) in combinations(rows, 2)
        if (_key(ca.z), _key(ca.stderr)) == (_key(cb.z), _key(cb.stderr))
    ]
    assert not same, f"rows restate each other's complement: {same}"


def test_no_mean_row_has_zero_stderr(report):
    runs, _ = report
    exact = [f"{name}/{c.name}" for name, c in _estimated(runs) if c.kind == "mean" and c.stderr == 0.0]
    assert not exact, f"mean rows of a constant, which cannot fail: {exact}"


def test_no_ratio_row_reads_inf(report):
    runs, _ = report
    inf = [f"{name}/{c.name}" for name, c in _estimated(runs) if c.kind == "ratio" and math.isinf(c.estimate)]
    assert not inf, f"ratio rows that cannot fail: {inf}"


def test_no_two_curve_files_are_byte_identical(report):
    _, out = report
    files = sorted((out / "curves").iterdir())
    assert len(files) >= 2
    same = [f"{a.name} = {b.name}" for a, b in combinations(files, 2) if a.read_bytes() == b.read_bytes()]
    assert not same, f"curve files restate each other: {same}"
