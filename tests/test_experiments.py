"""Registry, runner, reporting, and CLI behavior at small scales."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sigma_lab.paths as paths
from sigma_lab import (
    SUBSTREAM_DENSITY,
    SUBSTREAM_PRIMARY,
    SUBSTREAM_SECONDARY,
    ConfigurationError,
    ExperimentConfig,
    config_digest,
    experiment_names,
    paper_anchor,
    report_rows,
    resolve_settings,
    run_experiment,
    write_report,
)
from sigma_lab.cli import main
from sigma_lab.experiments import (
    EXPERIMENTS,
    _ladder_chunk,
    _laws,
    _membership_chunk,
    _r1_chunk,
    _rho_chunk,
)
from sigma_lab.reporting import rows_as_json

EXPECTED_NAMES = [
    "a-infinity",
    "doob-maximal",
    "ito",
    "levy-eq5",
    "levy-eq6",
    "membership",
    "passage-eq2",
    "passage-eq3",
    "passage-eq4",
    "passage-s32",
    "products",
    "q-bracket",
    "r1-ui-martingale",
    "rho-algebra",
    "scaled-f",
    "sigma-s-characterization",
    "t1-characterization",
    "tanaka-abs",
    "tanaka-minus",
    "tanaka-plus",
    "zero-geometry",
]


def test_registry_names_and_order():
    assert experiment_names() == EXPECTED_NAMES
    assert experiment_names() == sorted(experiment_names())


def test_registry_anchors_unique_and_nonempty():
    anchors = [paper_anchor(n) for n in experiment_names()]
    assert all(a.strip() for a in anchors)
    assert len(set(anchors)) == len(anchors)


def test_resolve_settings_rejects_bad_input(draws):
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="no-such-thing"))
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="passage-eq4", n_paths=0))
    # one path has no sample spread to check against
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="passage-eq4", n_paths=1))
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="passage-eq4", step=-1.0))
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="passage-eq4", workers=0))
    with pytest.raises(ConfigurationError):
        resolve_settings(ExperimentConfig(experiment="passage-eq4"), suite="medium")
    # horizons shorter than the ErfSign zero-set span
    for name, horizon, checkpoints in (
        ("r1-ui-martingale", 0.5, None),
        ("q-bracket", 0.5, None),
        ("sigma-s-characterization", 0.5, (0.25, 0.5)),
        ("doob-maximal", 0.3, None),
        ("passage-eq4", 0.5, None),
        # refused by the registry row, not by the density model or a grid step
        ("tanaka-abs", 0.5, None),
        ("ito", 0.5, None),
        ("membership", 0.5, None),
    ):
        with pytest.raises(ConfigurationError, match="needs a horizon of at least 1"):
            resolve_settings(ExperimentConfig(experiment=name, horizon=horizon, checkpoints=checkpoints))
    # a master seed outside 64 unsigned bits is refused with the request, not at the first draw
    for seed in (-1, 2**64):
        with pytest.raises(ConfigurationError, match="64 unsigned bits"):
            resolve_settings(ExperimentConfig(experiment="passage-eq4", master_seed=seed))
    # flatness compares checkpoints (or offsets) pairwise: one time could never fail it
    for name, checkpoints in (
        ("q-bracket", (0.5, 0.5)),
        ("t1-characterization", (0.5,)),
        ("r1-ui-martingale", (0.45,)),
        ("sigma-s-characterization", (1.0, 1.0, 1.0)),
        ("products", (0.5,)),
    ):
        with pytest.raises(ConfigurationError, match="2 distinct times"):
            run_experiment(ExperimentConfig(experiment=name, n_paths=200, step=0.01, checkpoints=checkpoints))
    # two distinct times that round to one grid point are one checkpoint
    with pytest.raises(ConfigurationError, match="fewer grid points"):
        run_experiment(ExperimentConfig(experiment="q-bracket", n_paths=200, step=0.01, checkpoints=(0.5, 0.5 + 1e-13)))
    # every experiment reads its density on the model span, so a step that does
    # not divide it is refused with the request, naming the span, not a grid horizon
    for cfg in (
        ExperimentConfig(experiment="t1-characterization", step=0.3, horizon=0.6, checkpoints=(0.3, 0.6)),
        ExperimentConfig(experiment="passage-eq4", step=0.3, horizon=2.1),
        ExperimentConfig(experiment="zero-geometry", step=0.3),
    ):
        with pytest.raises(ConfigurationError, match=r"model span 1 at step 0\.3: .*not an integer multiple") as info:
            resolve_settings(cfg)
        assert "horizon" not in str(info.value)
    # so is a step over the row byte budget on the span, which only a longer step can cure
    with pytest.raises(ConfigurationError, match=r"model span 1 at step 1e-09: .*byte budget; lengthen the step$") as info:
        resolve_settings(ExperimentConfig(experiment="zero-geometry", step=1e-9))
    assert "horizon" not in str(info.value)
    # a ladder rung's step is named by the requested step and the rung factor
    for name, message in (("ito", "the 4x rung of step 0.2: "), ("membership", "the 2x rung of step 0.2: ")):
        with pytest.raises(ConfigurationError, match="not an integer multiple") as info:
            run_experiment(ExperimentConfig(experiment=name, n_paths=2, step=0.2))
        assert str(info.value).startswith(message)
    assert sum(draws.values()) == 0
    # options the experiment does not read
    for cfg in (
        ExperimentConfig(experiment="passage-eq4", checkpoints=(0.5,)),
        ExperimentConfig(experiment="zero-geometry", horizon=1.0),
    ):
        with pytest.raises(ConfigurationError):
            resolve_settings(cfg)


def test_suite_scales_differ():
    fast = resolve_settings(ExperimentConfig(experiment="passage-eq4"), suite="fast")
    full = resolve_settings(ExperimentConfig(experiment="passage-eq4"), suite="full")
    assert fast.n_paths == 20000 and full.n_paths == 100000
    assert fast.step == 2e-3 and full.step == 1e-3


def test_explicit_scales_override_suite():
    st_ = resolve_settings(
        ExperimentConfig(experiment="passage-eq4", n_paths=123, step=0.01), suite="full"
    )
    assert st_.n_paths == 123 and st_.step == 0.01


def _digest_of(**kw):
    base = dict(
        experiment="passage-eq4",
        n_paths=1000,
        step=1e-2,
        horizon=None,
        master_seed=1,
        checkpoints=None,
        workers=1,
    )
    base.update(kw)
    return config_digest(ExperimentConfig(**base))


def test_config_digest_ignores_workers_only():
    assert _digest_of(workers=1) == _digest_of(workers=8)
    assert _digest_of(master_seed=2) != _digest_of()
    assert _digest_of(n_paths=1001) != _digest_of()
    assert _digest_of(step=2e-2) != _digest_of()
    assert _digest_of(horizon=3.0) != _digest_of()
    assert _digest_of(checkpoints=(0.5,)) != _digest_of()
    assert _digest_of(experiment="passage-eq3") != _digest_of()


def test_config_digest_of_resolved_requests_is_pinned():
    # report rows carry these hashes; a field dropped from the hash would move them
    for cfg, digest in (
        (ExperimentConfig(experiment="passage-eq4"), "3e26624ef763"),
        (
            ExperimentConfig(
                experiment="r1-ui-martingale",
                n_paths=300,
                step=0.01,
                horizon=3.0,
                master_seed=7,
                checkpoints=(0.5, 1.0),
            ),
            "a7a34fa925dd",
        ),
        (ExperimentConfig(experiment="t1-characterization", checkpoints=(0.25, 0.5)), "e2787a030f5e"),
        # a request without a horizon runs and hashes the registry's, however that is written
        (ExperimentConfig(experiment="passage-eq4", horizon=1), "3e26624ef763"),
        (ExperimentConfig(experiment="passage-eq4", horizon=1.0), "3e26624ef763"),
        # no horizon or checkpoints apply to zero-geometry, so neither enters its hash
        (ExperimentConfig(experiment="zero-geometry"), "600dcf6317aa"),
        (
            ExperimentConfig(
                experiment="r1-ui-martingale",
                n_paths=300,
                step=0.01,
                horizon=3,
                master_seed=7,
                checkpoints=[0.5, 1],
            ),
            "a7a34fa925dd",
        ),
    ):
        assert config_digest(resolve_settings(cfg, "fast")) == digest


def test_registry_defaults_enter_the_config_hash(monkeypatch):
    # a default run's rows move when its registry row does, so their hash must too
    def default_digest(name):
        return config_digest(resolve_settings(ExperimentConfig(experiment=name), "fast"))

    before = {name: default_digest(name) for name in ("doob-maximal", "t1-characterization")}
    for name, change in (("doob-maximal", {"horizon": 2.0}), ("t1-characterization", {"checkpoints": (0.5, 1.0)})):
        with monkeypatch.context() as m:
            m.setitem(EXPERIMENTS, name, dataclasses.replace(EXPERIMENTS[name], **change))
            assert default_digest(name) != before[name], name
        assert default_digest(name) == before[name]


_CHECKPOINT_READERS = {
    "t1-characterization",
    "r1-ui-martingale",
    "sigma-s-characterization",
    "q-bracket",
    "products",
    "scaled-f",
}


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_resolved_requests_carry_the_registry_defaults(suite):
    for name in experiment_names():
        st_ = resolve_settings(ExperimentConfig(experiment=name), suite)
        assert resolve_settings(st_, suite) == st_, name
        assert (st_.horizon is None) == (name == "zero-geometry"), name
        assert (st_.checkpoints is not None) == (name in _CHECKPOINT_READERS), name
        assert st_.horizon == EXPERIMENTS[name].horizon and st_.checkpoints == EXPERIMENTS[name].checkpoints


@given(
    n=st.integers(min_value=2, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_config_digest_is_stable_hex(n, seed):
    d = _digest_of(n_paths=n, master_seed=seed)
    assert len(d) == 12
    int(d, 16)
    assert d == _digest_of(n_paths=n, master_seed=seed)


def _micro(name, **kw):
    kw.setdefault("n_paths", 400)
    kw.setdefault("step", 5e-3)
    return run_experiment(ExperimentConfig(experiment=name, **kw), suite="fast")


def test_rho_algebra_passes_at_micro_scale():
    run = _micro("rho-algebra", n_paths=64)
    assert run.passed
    assert {c.name for c in run.checks} == {
        "linearity-bitwise",
        "product-rule-bitwise",
        "positivity",
        "defining-property-exact",
    }


def test_zero_geometry_passes_at_micro_scale():
    run = _micro("zero-geometry", n_paths=2000)
    assert run.passed


def test_t1_control_fails_once_paths_suffice():
    # the drifted control needs enough paths for its z to clear the bar
    run = _micro("t1-characterization", n_paths=2000)
    control = [c for c in run.checks if c.name == "drifted-control-fails"]
    assert len(control) == 1 and control[0].passed


# each verdict rule as a function of its report row's own numbers
_ROW_RULES = {
    "flatness": lambda row: row.estimate < row.stat_tolerance,
    "control": lambda row: row.estimate >= row.stat_tolerance,
    "ks": lambda row: row.estimate <= row.tolerance,
}


def test_flatness_control_and_ks_verdicts_follow_from_their_rows():
    seen = Counter()
    for name in (
        "t1-characterization",
        "r1-ui-martingale",
        "sigma-s-characterization",
        "q-bracket",
        "products",
        "scaled-f",
        "a-infinity",
    ):
        for row in report_rows(_micro(name)):
            if row.kind in _ROW_RULES:
                seen[row.kind] += 1
                assert row.passed == _ROW_RULES[row.kind](row), (row.experiment, row.check)
                if row.kind == "ks":
                    assert row.grid_allowance == 0.03, row.check
    assert seen == {"flatness": 19, "control": 1, "ks": 2}


def test_doob_tail_completion_has_no_horizon_bias():
    # the all-time law past the grid's end makes every horizon from the
    # model span on an unbiased estimate, with no allowance to absorb a bias
    level2 = {}
    for horizon in (1.0, 2.0, 6.0):
        run = _micro("doob-maximal", n_paths=4000, horizon=horizon)
        assert run.passed
        assert all(c.grid_allowance == 0.0 for c in run.checks)
        (level2[horizon],) = [c for c in run.checks if c.name == "constant-one-sup-exceeds-2"]
    short, long = level2[1.0], level2[6.0]
    assert abs(short.estimate - long.estimate) <= 3.0 * np.hypot(short.stderr, long.stderr)


def test_laws_tail_completion_has_no_horizon_bias():
    # the crossing law from each undecided path's last state leaves no
    # horizon bias from the model span on
    rows = {}
    for horizon in (1.0, 2.0, 6.0):
        for name in _LAWS:
            run = _micro(name, n_paths=4000, horizon=horizon)
            assert run.passed, (name, horizon)
            rows.update({(name, c.name, horizon): c for c in run.checks})
    for name, check in (("passage-eq4", "crossing-before-growth-1"), ("levy-eq5", "constant-one-hold")):
        short, long = rows[name, check, 1.0], rows[name, check, 6.0]
        assert abs(short.estimate - long.estimate) <= 3.0 * np.hypot(short.stderr, long.stderr), name


def test_ladder_structure_rows_are_scale_free():
    run = _micro("tanaka-abs", n_paths=12, step=2e-3)
    names = [c.name for c in run.checks]
    assert "constant-path-residual" in names
    for c in run.checks:
        if c.name == "constant-path-residual":
            assert c.passed


def test_doubling_paths_shrinks_stderr():
    small = _micro("zero-geometry", n_paths=1000)
    large = _micro("zero-geometry", n_paths=4000)
    se_small = small.checks[0].stderr
    se_large = large.checks[0].stderr
    assert se_small is not None and se_large is not None
    ratio = se_small / se_large
    assert 1.6 <= ratio <= 2.4


def test_runs_are_deterministic_and_worker_independent():
    a = _micro("zero-geometry", n_paths=1200)
    b = _micro("zero-geometry", n_paths=1200)
    c = _micro("zero-geometry", n_paths=1200, workers=3)
    assert report_rows(a) == report_rows(b) == report_rows(c)


def test_report_rows_carry_registry_identity():
    run = _micro("rho-algebra", n_paths=32)
    rows = report_rows(run)
    assert len(rows) == len(run.checks)
    for row in rows:
        assert row.experiment == "rho-algebra"
        assert row.paper_anchor == paper_anchor("rho-algebra")
        assert row.config_hash == config_digest(run.settings)
        assert row.seed == run.settings.master_seed


# ---------------------------------------------------------------- report files


_REPORT_COLUMNS = (
    "experiment",
    "paper_anchor",
    "check",
    "kind",
    "target",
    "estimate",
    "stderr",
    "z",
    "stat_tolerance",
    "grid_allowance",
    "tolerance",
    "passed",
    "seed",
    "config_hash",
    "detail",
)


def test_write_report_layout(tmp_path):
    run = _micro("a-infinity", n_paths=600)
    out = write_report([run], tmp_path / "rep")
    assert (out / "report.csv").is_file()
    assert (out / "report.json").is_file()
    assert (out / "timings.json").is_file()
    curve_files = sorted(p.name for p in (out / "curves").iterdir())
    assert curve_files == [
        "a-infinity-constant-one-survival.csv",
        "a-infinity-erf-sign-survival.csv",
    ]
    raw = (out / "report.csv").read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n", 1)[0].decode("utf-8")
    # a literal, so that a change of report format is a deliberate one
    assert header == ",".join(_REPORT_COLUMNS)
    assert b"runtime" not in raw
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(doc) == len(run.checks)
    assert list(doc[0]) == sorted(_REPORT_COLUMNS)


def test_report_json_sanitizes_nonfinite():
    run = _micro("membership", n_paths=6, step=5e-3)
    rows = report_rows(run)
    inf_rows = [r for r in rows if isinstance(r.estimate, float) and np.isinf(r.estimate)]
    doc = rows_as_json(rows)
    as_text = json.dumps(doc)
    assert "Infinity" not in as_text and "NaN" not in as_text
    if inf_rows:
        by_check = {d["check"]: d for d in doc}
        assert any(by_check[r.check]["estimate"] is None for r in inf_rows)


def test_report_bytes_identical_across_reruns(tmp_path):
    cfg = ExperimentConfig(experiment="zero-geometry", n_paths=1500, step=5e-3)
    out1 = write_report([run_experiment(cfg, suite="fast")], tmp_path / "one")
    out2 = write_report([run_experiment(cfg, suite="fast")], tmp_path / "two")
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# ---------------------------------------------------------------- CLI


def test_cli_list(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(EXPECTED_NAMES)
    assert [line.split()[0] for line in lines] == EXPECTED_NAMES
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0


def test_cli_unknown_experiment_suggests(capsys):
    assert main(["run", "--experiment", "pasage-eq4"]) == 1
    err = capsys.readouterr().err
    assert "passage-eq4" in err


def test_cli_zero_paths_is_config_error():
    assert main(["run", "--experiment", "passage-eq4", "--paths", "0"]) == 1


def test_cli_short_horizon_is_config_error(tmp_path, capsys, draws):
    assert main(["run", "--experiment", "doob-maximal", "--horizon", "0.3", "--paths", "8", "--out", str(tmp_path)]) == 1
    # the q-bracket offsets are read after a last zero that may sit at 1.0
    argv = ["run", "--experiment", "q-bracket", "--horizon", "1.0", "--paths", "8", "--suite", "fast"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    # an ErfSign last zero may sit on the last point of a horizon-1.0 grid,
    # which leaves rho-algebra no shifted path
    capsys.readouterr()
    assert main(["run", "--experiment", "rho-algebra", "--horizon", "1.0", "--paths", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "model span" in err and "Traceback" not in err
    # restart offsets must be grid times of the simulated horizon: a negative one
    # wraps to the path's end, an off-grid one would run at a rounded time, and
    # one past the horizon drops every r1 path, so the error names the horizon needed
    for name, offsets, message in (
        ("q-bracket", "-0.2,0.5", "not a grid point"),
        ("q-bracket", "0.25,0.3333", "not a grid point"),
        ("r1-ui-martingale", "0.45,2.5", "need a horizon of at least 3.5,"),
    ):
        argv = ["run", "--experiment", name, f"--checkpoints={offsets}", "--paths", "8", "--suite", "fast"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
    # non-finite options
    for name, option, value in (
        ("passage-eq4", "--step", "nan"),
        ("passage-eq4", "--horizon", "nan"),
        ("passage-eq4", "--horizon", "inf"),
        ("t1-characterization", "--checkpoints", "nan"),
    ):
        assert main(["run", "--experiment", name, option, value, "--paths", "8", "--out", str(tmp_path)]) == 1
    # a grid whose rows outgrow the byte budget fails before any draw, not in the allocator
    capsys.readouterr()
    for args in (
        ["--experiment", "passage-eq4", "--horizon", "1e13"],
        ["--experiment", "zero-geometry", "--step", "1e-9"],
        # horizon / step overflows to inf
        ["--experiment", "passage-eq4", "--step", "1e-320"],
        ["--experiment", "r1-ui-martingale", "--step", "1e-320"],
    ):
        assert main(["run", *args, "--paths", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "byte budget" in err and "Traceback" not in err
    # the budget counts membership's half-step rung; the others' horizon-200 rows fit
    for name in ("t1-characterization", "passage-eq4", "doob-maximal", "membership"):
        cfg = ExperimentConfig(experiment=name, horizon=200.0, step=1e-3)
        if name == "membership":
            with pytest.raises(ConfigurationError, match="byte budget"):
                run_experiment(cfg)
        else:
            resolve_settings(cfg)
    assert sum(draws.values()) == 0
    for name in experiment_names():
        for suite in ("fast", "full"):
            resolve_settings(ExperimentConfig(experiment=name), suite)


def test_cli_ignored_option_is_config_error(tmp_path):
    assert main(["run", "--experiment", "passage-eq4", "--checkpoints", "0.5", "--paths", "8", "--out", str(tmp_path)]) == 1


def test_over_budget_grid_fails_before_any_draw(draws):
    cases = [ExperimentConfig(experiment=name, step=1e-6) for name in experiment_names()]
    # the run grid fits, the density model's span grid does not
    for name in ("t1-characterization", "products", "scaled-f"):
        cases.append(ExperimentConfig(experiment=name, horizon=0.002, checkpoints=(0.001, 0.002), step=1e-8))
    # only the support-mass ladder's half-step rung is over the budget
    cases.append(ExperimentConfig(experiment="membership", step=5e-6))
    for cfg in cases:
        with pytest.raises(ConfigurationError, match="byte budget"):
            run_experiment(cfg)
    assert sum(draws.values()) == 0


_STEPS = (1e-320, 1e-9, 3e-3, 0.01, 0.05, 0.25, 0.7)
_HORIZONS = (1e-3, 0.3, 1.0, 2.0, 7.0, 1e13)
_CHECKPOINTS = ((0.25, 0.5), (0.25, 0.3333), (0.0, 0.5), (0.5, 0.5), (0.25, 1e300), (0.2, 0.45, 0.7, 0.95), (1.0, 2.0))


@st.composite
def _accepted_configs(draw):
    """A registry name with only the options it reads, at micro scale."""
    name = draw(st.sampled_from(EXPECTED_NAMES))
    reads = EXPERIMENTS[name].reads
    kw = {"n_paths": draw(st.integers(2, 5)), "step": draw(st.sampled_from(_STEPS))}
    if "horizon" in reads:
        kw["horizon"] = draw(st.none() | st.sampled_from(_HORIZONS))
    if "checkpoints" in reads:
        kw["checkpoints"] = draw(st.none() | st.sampled_from(_CHECKPOINTS))
    return ExperimentConfig(experiment=name, **kw)


@settings(max_examples=1000, deadline=None, derandomize=True)
@example(ExperimentConfig(experiment="passage-eq4", n_paths=2, step=1e-320))
@example(ExperimentConfig(experiment="r1-ui-martingale", n_paths=2, step=1e-320))
# a checkpoint whose ratio to a step that fits the budget overflows to inf
@example(ExperimentConfig(experiment="t1-characterization", n_paths=2, step=4e-9, horizon=1e-3, checkpoints=(1e-3, 1e300)))
@given(_accepted_configs())
def test_accepted_config_runs_or_is_config_error(cfg):
    try:
        run_experiment(cfg)
    except ConfigurationError:
        pass


class _Draws(Counter):
    """Calls per substream; ``n_steps`` holds the row lengths drawn, per
    substream, and ``clear`` resets both."""

    def __init__(self):
        super().__init__()
        self.n_steps = defaultdict(set)

    def clear(self):
        super().clear()
        self.n_steps.clear()


@pytest.fixture
def draws(monkeypatch):
    """``_Draws`` of ``paths.bm_increments``."""
    counts = _Draws()
    original = paths.bm_increments

    def counting(master_seed, path_index, n_steps, step, substream, out=None):
        counts[substream] += 1
        counts.n_steps[substream].add(n_steps)
        return original(master_seed, path_index, n_steps, step, substream, out=out)

    monkeypatch.setattr(paths, "bm_increments", counting)
    return counts


def test_pathwise_chunks_draw_each_density_stream_once(draws):
    _rho_chunk(0, 10, seed=20260822, step=0.02, horizon=2.0)
    # ErfSign's zeros end at its terminal time 1.0, so its stream does too
    assert draws[SUBSTREAM_DENSITY] == 10 and draws.n_steps[SUBSTREAM_DENSITY] == {50}
    draws.clear()
    _membership_chunk(0, 10, seed=20260822, step=0.01, horizon=1.0)
    assert draws[SUBSTREAM_DENSITY] == 10
    draws.clear()
    # past the span, membership's zero sets are padded, not read off a longer draw
    _membership_chunk(0, 10, seed=20260822, step=0.01, horizon=2.0)
    assert draws[SUBSTREAM_DENSITY] == 10 and draws.n_steps[SUBSTREAM_DENSITY] == {100}
    draws.clear()
    # every ladder rung and all six residual forms read one draw per stream
    _ladder_chunk(0, 10, seed=20260822, step=0.005, horizon=1.0)
    assert draws[SUBSTREAM_DENSITY] == 10 and draws[SUBSTREAM_PRIMARY] == 10
    draws.clear()
    # past the span, each rung's zero sets are padded too
    _ladder_chunk(0, 10, seed=20260822, step=0.01, horizon=2.0)
    assert draws[SUBSTREAM_DENSITY] == 10 and draws.n_steps[SUBSTREAM_DENSITY] == {100}


_LAWS = ("passage-eq2", "passage-eq3", "passage-eq4", "passage-s32", "a-infinity", "levy-eq5", "levy-eq6")


def test_shared_families_draw_each_path_once(draws):
    n = 400
    # the seven laws members read one primary and one density draw per path
    for name in _LAWS:
        _micro(name, n_paths=n)
    assert draws[SUBSTREAM_PRIMARY] == n and draws[SUBSTREAM_DENSITY] == n
    assert draws.n_steps[SUBSTREAM_PRIMARY] == {200} and draws.n_steps[SUBSTREAM_DENSITY] == {200}
    draws.clear()
    # both doob passes read one primary draw, to the model span
    _micro("doob-maximal", n_paths=n, step=2e-3)
    assert draws[SUBSTREAM_PRIMARY] == n and draws.n_steps[SUBSTREAM_PRIMARY] == {500}
    draws.clear()
    # every residual form of the four ladder experiments reads one draw
    for name in ("tanaka-abs", "tanaka-plus", "tanaka-minus", "ito"):
        _micro(name, n_paths=n)
    assert draws[SUBSTREAM_PRIMARY] == n and draws[SUBSTREAM_DENSITY] == n
    draws.clear()
    # a horizon override changes the call, so that member simulates on its own
    _micro("passage-eq4", n_paths=n, horizon=5.0)
    assert draws[SUBSTREAM_PRIMARY] == n
    draws.clear()
    # so does a Levy member's, and a default run of the other member after
    # it makes the registry call again and draws again
    _micro("levy-eq5", n_paths=n, horizon=6.0)
    assert draws[SUBSTREAM_PRIMARY] == n
    _micro("levy-eq6", n_paths=n)
    assert draws[SUBSTREAM_PRIMARY] == 2 * n
    draws.clear()
    # every member reads the ErfSign span's grid, so a step off it is refused before any draw
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        _micro("passage-eq4", n_paths=n, step=3e-3)
    assert sum(draws.values()) == 0


def test_family_member_rerun_draws_again(draws):
    first = _micro("passage-eq4", n_paths=300)
    draws.clear()
    second = _micro("passage-eq4", n_paths=300)
    assert draws[SUBSTREAM_PRIMARY] == 300
    assert report_rows(first) == report_rows(second)


def test_laws_family_rows_match_across_worker_counts():
    serial = [report_rows(_micro(name, n_paths=600)) for name in _LAWS]
    pooled = [report_rows(_micro(name, n_paths=600, workers=2)) for name in _LAWS]
    assert serial == pooled


def test_shared_features_are_read_only():
    st_ = resolve_settings(ExperimentConfig(experiment="levy-eq5", n_paths=20, step=5e-3))
    feats = _laws(st_)
    with pytest.raises(ValueError):
        feats["q_erf"][0] = 0.0


@pytest.mark.parametrize("name, label, pairs", [("products", "product", 1), ("scaled-f", "rescaled", 0)])
def test_closure_membership_sample_reads_the_runs_own_paths(draws, name, label, pairs):
    # below the 40-path sample the row verifies the run's paths, and no others
    run = _micro(name, n_paths=3)
    assert draws[SUBSTREAM_PRIMARY] == 3 and draws[SUBSTREAM_DENSITY] == 3
    assert draws[SUBSTREAM_SECONDARY] == 3 * pairs
    (sample,) = [c for c in run.checks if c.name == f"{label}-membership-sample"]
    assert sample.passed and sample.detail == f"3 pathwise {label} decompositions verify"


@pytest.mark.parametrize("name", ["t1-characterization", "sigma-s-characterization", "products", "scaled-f"])
def test_off_grid_checkpoint_fails_before_any_draw(draws, name):
    cfg = ExperimentConfig(experiment=name, n_paths=8, step=0.01, checkpoints=(0.5, 0.3333))
    with pytest.raises(ConfigurationError, match="not a grid point"):
        run_experiment(cfg, "fast")
    assert sum(draws.values()) == 0


def test_cli_bad_suite_is_config_error():
    # usage errors exit 1 like any configuration problem; 2 means a failed check
    for argv in (["run-all", "--suite", "fats"], ["run", "--suite", "medium"], ["run", "--paths", "abc"], ["run", "--policy", "keep"]):
        assert main(argv) == 1


def test_import_leaves_scipy_stats_unloaded():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # with scipy installed, importing the package loads no scipy module at all
    code = "import sys, sigma_lab; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_registry_runs_without_scipy():
    # scipy is a test dependency only: blocked at import, the package still
    # loads, samples an ErfSign density and runs the experiments that
    # evaluate Phi or read crossing laws, and no scipy module gets loaded
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = """
import sys
sys.modules["scipy"] = None
from sigma_lab import ErfSign, SeedSpec, density_path, make_grid
from sigma_lab.experiments import ExperimentConfig, run_experiment
for name in ("r1-ui-martingale", "passage-eq4", "zero-geometry"):
    run = run_experiment(ExperimentConfig(experiment=name, n_paths=400, step=5e-3), "fast")
    print(name, run.passed)
d = density_path(ErfSign(offset=1.0, terminal_time=1.0), SeedSpec(7), make_grid(1.0, 5e-3)).values
print("density", abs(d[0] - 0.6826894921370859) < 1e-15 and abs(d[-1]) == 1.0)
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "r1-ui-martingale True",
        "passage-eq4 True",
        "zero-geometry True",
        "density True",
        "[]",
        "",
    ]


def test_cli_missing_experiment_is_config_error():
    assert main(["run"]) == 1


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nexperiment = rho-algebra\npaths = 48\nstep = 5e-3\nseed = 11\n",
        encoding="utf-8",
    )
    out = tmp_path / "outdir"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").is_file()
    text = (out / "report.csv").read_text(encoding="utf-8")
    assert ",11," in text


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"experiment": "rho-algebra", "paths": 48, "step": 5e-3, "seed": 11}),
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--seed", "12", "--out", str(out)]) == 0
    text = (out / "report.csv").read_text(encoding="utf-8")
    assert ",12," in text and ",11," not in text


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nexperiment = rho-algebra\nbananas = 3\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1


def test_r1_chunk_returns_one_row_per_path():
    # the largest offset, 0.95, leaves the model span's 100 steps on a horizon-1.95 grid
    feats = _r1_chunk(0, 12, seed=7, step=0.01, horizon=1.95, offset_steps=(20, 95))
    assert {k: v.shape[0] for k, v in feats.items()} == dict.fromkeys(("v", "bound", "q_erf"), 12)


def test_restart_windows_past_the_horizon_are_refused_before_any_draw(draws, capsys, tmp_path):
    # a last zero comes by the model span 1.0, so the windows need 1.0 plus the largest offset
    for args, needed in (
        (["--experiment", "r1-ui-martingale", "--horizon", "1.5"], "1.95"),
        (["--experiment", "r1-ui-martingale", "--checkpoints", "1.0,2.0"], "3"),
        (["--experiment", "q-bracket", "--horizon", "1.5"], "2"),
        # an offset past the horizon is named the same way, not as an off-grid time
        (["--experiment", "r1-ui-martingale", "--checkpoints", "1.0,3.0"], "4"),
        (["--experiment", "q-bracket", "--checkpoints", "0.5,2.5"], "3.5"),
    ):
        assert main(["run", *args, "--paths", "3", "--step", "0.01", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"need a horizon of at least {needed}," in err and "Traceback" not in err
    assert sum(draws.values()) == 0
    # at exactly 1.0 plus the largest offset every window fits
    run = _micro("r1-ui-martingale", n_paths=400, step=0.01, horizon=1.95)
    assert run.passed
    assert draws.n_steps[SUBSTREAM_PRIMARY] == {195}


def test_config_file_is_closed_after_reading(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nexperiment = rho-algebra\n", encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = "import sys; from sigma_lab.cli import _load_config_file; print(_load_config_file(sys.argv[1]))"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", code, str(cfg)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "rho-algebra" in done.stdout
    assert "ResourceWarning" not in done.stderr
