"""Full-scale acceptance runs, one test per criterion.

Each test executes the relevant experiment at its registered
full-suite scale (cached so repeated criteria share one run), then
re-applies the stated bound to the reported numbers rather than
trusting the row's own verdict.  Expect this module to dominate the
suite's runtime; the verbose test line is the pass/fail line for each
criterion.
"""

import functools
import math
import tempfile

import pytest

import sigma_lab.experiments as experiments
from sigma_lab import (
    ExperimentConfig,
    run_experiment,
    run_suite,
    write_report,
)

SEED = 20260822
EULER_COMPLEMENT = 1.0 - math.exp(-1.0)
ERF_MASS = 0.6826894921370859


@functools.lru_cache(maxsize=None)
def full_run(name):
    return run_experiment(ExperimentConfig(experiment=name, master_seed=SEED), suite="full")


def one_check(run, name):
    matches = [c for c in run.checks if c.name == name]
    assert len(matches) == 1, f"expected one check named {name!r} in {run.name}"
    return matches[0]


def stated_mean_bound(check, target, extra):
    """|estimate - target| <= 3 stderr + extra, straight from the row numbers."""
    assert check.target == pytest.approx(target, rel=1e-12)
    gap = abs(check.estimate - check.target)
    bound = 3.0 * check.stderr + extra
    assert gap <= bound, f"{check.name}: gap {gap:.5f} exceeds {bound:.5f}"


def test_criterion_01_unit_boundary_crossing_probability():
    run = full_run("passage-eq4")
    assert run.settings.n_paths == 100000 and run.settings.step == 1e-3
    stated_mean_bound(one_check(run, "crossing-before-growth-1"), EULER_COMPLEMENT, 0.02)
    assert run.seconds <= 600.0, f"runtime {run.seconds:.0f}s over budget"
    assert run.passed


def test_criterion_02_signed_crossing_with_paired_control():
    run = full_run("passage-s32")
    restarted = one_check(run, "restarted-crossing-before-growth-1")
    # the paired driver's crossing row is passage-eq4's, off the same paths
    paired = one_check(full_run("passage-eq4"), "crossing-before-growth-1")
    stated_mean_bound(restarted, EULER_COMPLEMENT, 0.02)
    stated_mean_bound(paired, EULER_COMPLEMENT, 0.02)
    agreement = one_check(run, "common-numbers-agreement")
    combined = math.hypot(restarted.stderr, paired.stderr)
    assert agreement.stderr == pytest.approx(combined, rel=1e-9)
    diff = abs(restarted.estimate - paired.estimate)
    assert diff <= 2.0 * combined, f"paired runs disagree: {diff:.5f} vs {2 * combined:.5f}"
    assert run.passed


def test_criterion_03_flatness_of_base_class_transforms():
    run = full_run("t1-characterization")
    assert run.settings.n_paths == 100000
    combos = [
        f"{model}-{construction}-f-{f}"
        for model in ("constant-one", "stopped-bm")
        for construction in ("drawdown", "abs")
        for f in ("one", "below-1", "cap-1")
    ]
    for name in combos:
        check = one_check(run, name)
        assert check.estimate < 4.0, f"{name}: max |z| = {check.estimate:.2f}"
    control = one_check(run, "drifted-control-fails")
    assert control.estimate >= 4.0, "drifted control was not rejected"
    assert run.passed


def test_criterion_04_flatness_of_restarted_transforms():
    run = full_run("sigma-s-characterization")
    for f in ("one", "below-1", "cap-1"):
        check = one_check(run, f"restarted-reflected-f-{f}")
        assert check.estimate < 4.0, f"max |z| = {check.estimate:.2f} for f {f}"
    assert one_check(run, "null-at-last-zero").estimate == 0.0
    assert run.passed


def test_criterion_05_restart_operator_algebra_exact():
    run = full_run("rho-algebra")
    assert run.settings.n_paths == 1000
    for name in (
        "linearity-bitwise",
        "product-rule-bitwise",
        "positivity",
        "defining-property-exact",
    ):
        check = one_check(run, name)
        assert check.estimate == 0.0 and check.tolerance == 0.0 and check.passed


def test_criterion_06_residual_ladders_contract():
    for name in ("tanaka-abs", "tanaka-plus", "tanaka-minus", "ito"):
        run = full_run(name)
        assert run.settings.n_paths == 100 and run.settings.step == 1e-3
        ratio_rows = [c for c in run.checks if c.kind == "ratio"]
        assert len(ratio_rows) == {"tanaka-abs": 2, "ito": 2}.get(name, 0)
        for check in ratio_rows:
            assert check.estimate >= 1.2, f"{name}/{check.name}: ratio {check.estimate:.3f}"
        # the residuals that vanish to rounding, and plus's and minus's identity with abs's
        exact_names = {
            "tanaka-plus": ["plus-residual-equals-abs"],
            "tanaka-minus": ["minus-residual-equals-abs"],
            "ito": ["linear-residual-exact", "square-residual-exact"],
        }
        for check_name in exact_names.get(name, []):
            check = one_check(run, check_name)
            assert check.kind == "exact" and check.estimate <= 1e-12, f"{name}/{check_name}: {check.estimate:.3e}"
        constant_rows = [c for c in run.checks if "constant-path-residual" in c.name]
        assert constant_rows
        for check in constant_rows:
            assert check.estimate == 0.0 and check.passed
        assert run.passed


def test_criterion_07_maximum_law_after_last_zero():
    run = full_run("doob-maximal")
    stated_mean_bound(one_check(run, "constant-one-sup-exceeds-2"), 0.5, 0.02)
    two_sided = one_check(run, "erf-sign-two-sided-at-2")
    gap = abs(two_sided.estimate - two_sided.target)
    assert gap <= 3.0 * two_sided.stderr, f"two-sided gap {gap:.5f} vs {3 * two_sided.stderr:.5f}"
    assert run.passed


def test_criterion_08_terminal_growth_law():
    run = full_run("a-infinity")
    n = run.settings.n_paths
    assert n == 100000
    for model in ("constant-one", "erf-sign"):
        ks = one_check(run, f"{model}-terminal-law-ks")
        bound = 1.63 / math.sqrt(n) + 0.03
        assert ks.estimate < bound, f"{model} KS {ks.estimate:.4f} vs {bound:.4f}"
    assert run.passed


def test_criterion_09_drawdown_confinement_and_unit_weights():
    run = full_run("levy-eq5")
    stated_mean_bound(one_check(run, "constant-one-hold"), math.exp(-1.0), 0.02)
    stated_mean_bound(one_check(run, "erf-sign-hold"), ERF_MASS * math.exp(-1.0), 0.02)
    for model, mass in (
        ("erf-sign", ERF_MASS),
        ("stopped-bm", 1.0),
    ):
        stated_mean_bound(one_check(run, f"q-mean-of-one-{model}"), mass, 0.0)
    assert run.passed


def test_criterion_10_membership_suite():
    run = full_run("membership")
    for name in (
        "drawdown-passes",
        "abs-martingale-passes",
        "pm-combination-passes",
        "lifted-passes",
        "lifted-stopped-passes",
        "product-passes",
        "scaled-passes",
        "shifted-membership-passes",
        "corrupted-growth-fails",
    ):
        assert one_check(run, name).estimate == 0.0, f"{name} had failures"
    support = one_check(run, "support-ratio-at-defaults")
    assert support.estimate <= 0.05
    halving_rows = [c for c in run.checks if c.kind == "ratio"]
    assert len(halving_rows) == 1
    for check in halving_rows:
        assert check.estimate >= 2.0, f"{check.name}: ratio {check.estimate:.2f}"
    assert run.passed


def test_criterion_11_zero_set_geometry():
    run = full_run("zero-geometry")
    positive = one_check(run, "last-zero-positive")
    target = 0.31731050786291415
    assert positive.target == pytest.approx(target, rel=1e-12)
    # bridged between grid points, so exact at any step: no grid allowance
    assert positive.grid_allowance == 0.0
    gap = abs(positive.estimate - target)
    assert gap <= 3.0 * positive.stderr
    assert one_check(run, "anchor-fixed-after-last-zero").estimate == 0.0
    assert one_check(run, "origin-never-a-zero").estimate == 0.0
    assert run.passed


def _fast_suite_bytes(workers):
    # an empty density keep, so that each serial run draws its own blocks
    experiments._BLOCKS.clear()
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_suite("fast", master_seed=SEED, workers=workers)
        out = write_report(runs, tmp)
        payload = {}
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "timings.json":
                payload[str(path.relative_to(out))] = path.read_bytes()
        return payload


def test_criterion_12_reports_reproduce_byte_for_byte():
    first = _fast_suite_bytes(workers=1)
    again = _fast_suite_bytes(workers=1)
    wide = _fast_suite_bytes(workers=8)
    assert sorted(first) == sorted(again) == sorted(wide)
    assert set(first) >= {"report.csv", "report.json"}
    for key in first:
        assert first[key] == again[key], f"{key} changed between identical runs"
        assert first[key] == wide[key], f"{key} depends on worker count"
