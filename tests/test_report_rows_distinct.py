"""Every report row states a claim of its own that can fail.

The whole registry runs at a few hundred paths per experiment, and the
test fails when two estimated rows (kind mean, flatness, ks or ratio)
share their estimate and standard error, when a ratio row reads inf
(both errors exact to rounding: a ratio that cannot fall short), or
when two curve files hold the same bytes.  Estimates are compared to
12 significant digits, so that a row restating another through a
different sum of the same numbers is caught too.  A pair that restates
on purpose, or a ratio row whose inf is a measured fine error of 0, is
listed in ``INTENDED`` with its reason.
"""

import math
from itertools import combinations

import pytest

from sigma_lab import ExperimentConfig, experiment_names, run_experiment, write_report

SEED = 20260822
PATHS = 300
ESTIMATED = ("mean", "flatness", "ks", "ratio")

# sets of (experiment, check), or of ("curves", file name): a pair that
# restates on purpose, or one ratio row allowed to read inf; each with its reason
INTENDED: dict[frozenset[tuple[str, str]], str] = {
    frozenset({("membership", "stressed-ratio-halves-0.001-to-0.0005")}): (
        "the finest support-mass rung has no violation mass at 300 paths, so the ratio is"
        " a nonzero error over 0, not two errors exact to rounding; it fails when the fine"
        " rung's mass is more than half the middle one's"
    ),
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    runs = [
        run_experiment(ExperimentConfig(experiment=name, n_paths=PATHS, master_seed=SEED), suite="fast")
        for name in experiment_names()
    ]
    return runs, write_report(runs, tmp_path_factory.mktemp("distinct"))


def _key(value):
    return None if value is None else f"{value:.12g}"


def test_no_two_estimated_rows_share_estimate_and_stderr(report):
    runs, _ = report
    rows = [(run.name, c) for run in runs for c in run.checks if c.kind in ESTIMATED]
    same = [
        f"{a}/{ca.name} = {b}/{cb.name}"
        for (a, ca), (b, cb) in combinations(rows, 2)
        if (_key(ca.estimate), _key(ca.stderr)) == (_key(cb.estimate), _key(cb.stderr))
        and frozenset({(a, ca.name), (b, cb.name)}) not in INTENDED
    ]
    assert not same, f"rows restate each other: {same}"


def test_no_ratio_row_reads_inf(report):
    runs, _ = report
    inf = [
        f"{run.name}/{c.name}"
        for run in runs
        for c in run.checks
        if c.kind == "ratio" and math.isinf(c.estimate) and frozenset({(run.name, c.name)}) not in INTENDED
    ]
    assert not inf, f"ratio rows that cannot fail: {inf}"


def test_no_two_curve_files_are_byte_identical(report):
    _, out = report
    files = sorted((out / "curves").iterdir())
    assert len(files) >= 2
    same = [
        f"{a.name} = {b.name}"
        for a, b in combinations(files, 2)
        if a.read_bytes() == b.read_bytes() and frozenset({("curves", a.name), ("curves", b.name)}) not in INTENDED
    ]
    assert not same, f"curve files restate each other: {same}"
