"""Command line front end.

Three subcommands: ``list`` prints the registry, ``run`` executes one
experiment, ``run-all`` executes a whole suite.  Run configuration can
come from flags, from a config file (INI with a ``[run]`` section, or
a JSON object), or both, with flags winning.  Exit codes: 0 when every
check passes, 2 when any check fails, 1 on a configuration problem.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import json
import os
import pathlib
import sys
from collections.abc import Callable

from .errors import ConfigurationError, ContractError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentRun,
    EXPERIMENTS,
    experiment_names,
    paper_anchor,
    run_experiment,
    run_suite,
)
from .reporting import matrix_lines, write_report

_ENV_OUT = "SIGMA_LAB_OUT"


def _parse_checkpoints(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad checkpoint list {text!r}") from exc
    if not values:
        raise ConfigurationError("checkpoint list is empty")
    return values


# run option -> the ExperimentConfig field it sets and that field's parser
_FIELDS: dict[str, tuple[str, Callable[[str], object]]] = {
    "paths": ("n_paths", int),
    "step": ("step", float),
    "horizon": ("horizon", float),
    "seed": ("master_seed", int),
    "checkpoints": ("checkpoints", _parse_checkpoints),
    "workers": ("workers", int),
}
_CONFIG_KEYS = ("experiment", *_FIELDS, "out")


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key-value run options from an INI [run] section or a JSON object."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
        raw = {str(k): doc[k] for k in doc}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ConfigurationError(f"config file {path} is not valid INI: {exc}") from exc
        if not parser.has_section("run"):
            raise ConfigurationError(f"config file {path} has no [run] section")
        raw = dict(parser.items("run"))
    out: dict[str, str] = {}
    for key, value in raw.items():
        norm = key.replace("-", "_").lower()
        # a field name stands for its option: n_paths for paths, master_seed for seed
        norm = next((option for option, (name, _) in _FIELDS.items() if name == norm), norm)
        if norm not in _CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key {key!r} in {path}")
        if isinstance(value, (list, tuple)):
            out[norm] = ",".join(str(v) for v in value)
        else:
            out[norm] = str(value)
    return out


def _option(table: dict[str, str], key: str) -> object:
    """The table's value for run option ``key``, parsed for its field."""
    parse = _FIELDS[key][1]
    try:
        return parse(table[key])
    except ValueError as exc:
        noun = "an integer" if parse is int else "a number"
        raise ConfigurationError(f"option {key} must be {noun}, got {table[key]!r}") from exc


def _out_dir(out: str | None) -> str:
    """The output directory (the option, else $SIGMA_LAB_OUT, else sigma-lab-out),
    created before the run so that a path that cannot be one is refused before any draw."""
    out = out or os.environ.get(_ENV_OUT) or "sigma-lab-out"
    try:
        pathlib.Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {out}: {exc.strerror}") from None
    return out


def _build_run_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    table: dict[str, str] = {}
    if args.config is not None:
        table.update(_load_config_file(args.config))
    # flags override file values
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            table[key] = str(value)
    if "experiment" not in table:
        raise ConfigurationError("no experiment named; use --experiment or a config file")
    name = table["experiment"]
    if name not in EXPERIMENTS:
        near = difflib.get_close_matches(name, experiment_names(), n=1)
        hint = f"; closest match is {near[0]!r}" if near else ""
        raise ConfigurationError(f"unknown experiment {name!r}{hint}")
    given = {field: _option(table, key) for key, (field, _) in _FIELDS.items() if key in table}
    return ExperimentConfig(experiment=name, **given), _out_dir(table.get("out"))


def _print_run(run: ExperimentRun) -> None:
    print(f"{run.name}: {paper_anchor(run.name)}")
    for check in run.checks:
        mark = "pass" if check.passed else "FAIL"
        if check.target is None:
            line = f"  [{mark}] {check.name}: {check.estimate:.6g} (tolerance {check.tolerance:.3g})"
        else:
            line = (
                f"  [{mark}] {check.name}: {check.estimate:.6g}"
                f" vs {check.target:.6g} (tolerance {check.tolerance:.3g})"
            )
        print(line)


def _cmd_list(_args: argparse.Namespace) -> int:
    names = experiment_names()
    width = max(len(n) for n in names)
    for name in names:
        print(f"{name:<{width}}  {paper_anchor(name)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, out_dir = _build_run_config(args)
    run = run_experiment(cfg, suite=args.suite or "full")
    _print_run(run)
    out = write_report([run], out_dir)
    print(f"report written to {out}")
    return 0 if run.passed else 2


def _cmd_run_all(args: argparse.Namespace) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workers = 1 if args.workers is None else args.workers
    out_dir = _out_dir(args.out)
    runs = run_suite(args.suite, master_seed=seed, workers=workers)
    for line in matrix_lines(runs):
        print(line)
    out = write_report(runs, out_dir)
    print(f"report written to {out}")
    return 0 if all(r.passed for r in runs) else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigurationError, so they exit 1 like every
    other configuration problem; argparse's own code 2 means a failed
    check here."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigma-lab",
        description="Monte Carlo verification of restart-operator and signed-measure identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the experiment registry")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment and write its report")
    p_run.add_argument("--experiment", help="registry name of the experiment")
    p_run.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    p_run.add_argument("--step", type=float, help="time step of the simulation grid")
    p_run.add_argument("--horizon", type=float, help="time horizon override")
    p_run.add_argument("--seed", type=int, help="master seed")
    p_run.add_argument("--checkpoints", help="comma-separated checkpoint times")
    p_run.add_argument("--workers", type=int, help="worker process count")
    p_run.add_argument("--out", help="output directory for report files")
    p_run.add_argument("--config", help="INI or JSON config file with run options")
    p_run.add_argument(
        "--suite",
        choices=("fast", "full"),
        default=None,
        help="scale preset supplying defaults for paths and step (default: full)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every experiment in a suite")
    p_all.add_argument("--suite", choices=("fast", "full"), default="fast", help="scale preset (default: fast)")
    p_all.add_argument("--seed", type=int, help="master seed")
    p_all.add_argument("--workers", type=int, help="worker process count")
    p_all.add_argument("--out", help="output directory for report files")
    p_all.set_defaults(func=_cmd_run_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (ConfigurationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
