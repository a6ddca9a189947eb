"""Deterministic report files for experiment runs.

Three artifacts per output directory: ``report.csv`` (one row per
check, RFC-4180 quoting, UTF-8), ``report.json`` (the same rows as a
sorted-key JSON document), and ``curves/`` with one small CSV per
survival or level curve.  Every byte of these three is a pure function
of the resolved settings and the master seed; wall-clock durations go
to a separate ``timings.json`` sidecar so that reruns and different
worker counts still produce identical reports.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path as FsPath

from .experiments import CurveSeries, ExperimentRun, ReportRow, report_rows

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ReportRow))

CURVE_COLUMNS = ("x", "target", "estimate", "ci_lo", "ci_hi")


def _cell(value: object) -> str:
    """One CSV cell: empty for None, true/false for flags, repr floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value: object) -> object:
    # JSON has no inf/nan; the ratio checks can carry an exact-zero
    # denominator as an infinite ratio, which maps to null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def row_cells(row: ReportRow) -> list[str]:
    return [_cell(getattr(row, col)) for col in CSV_COLUMNS]


def rows_as_json(rows: list[ReportRow]) -> list[dict[str, object]]:
    return [{col: _json_value(getattr(r, col)) for col in CSV_COLUMNS} for r in rows]


def write_rows_csv(path: FsPath, rows: list[ReportRow]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row_cells(row))


def write_curve_csv(path: FsPath, curve: CurveSeries) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for i in range(len(curve.xs)):
            writer.writerow(
                [
                    _cell(float(curve.xs[i])),
                    _cell(float(curve.targets[i])),
                    _cell(float(curve.estimates[i])),
                    _cell(float(curve.ci_lo[i])),
                    _cell(float(curve.ci_hi[i])),
                ]
            )


def write_report(runs: list[ExperimentRun], out_dir: str | FsPath) -> FsPath:
    """Write report.csv, report.json, curves/*, and the timing sidecar.

    Returns the output directory.  Existing files are overwritten;
    nothing else in the directory is touched.
    """
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[ReportRow] = []
    for run in runs:
        rows.extend(report_rows(run))
    write_rows_csv(out / "report.csv", rows)
    payload = rows_as_json(rows)
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    curve_dir = out / "curves"
    for run in runs:
        for curve in run.curves:
            curve_dir.mkdir(parents=True, exist_ok=True)
            write_curve_csv(curve_dir / f"{run.name}-{curve.name}.csv", curve)
    timings = {run.name: run.seconds for run in runs}
    (out / "timings.json").write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def matrix_lines(runs: list[ExperimentRun]) -> list[str]:
    """Pass/fail matrix, one experiment per line, plus a closing total."""
    width = max((len(r.name) for r in runs), default=4)
    lines = []
    for run in runs:
        n_bad = sum(1 for c in run.checks if not c.passed)
        verdict = "pass" if n_bad == 0 else f"FAIL ({n_bad} of {len(run.checks)} checks)"
        lines.append(f"{run.name:<{width}}  {verdict}")
    total_bad = sum(1 for r in runs if not r.passed)
    if total_bad == 0:
        lines.append(f"all {len(runs)} experiments pass")
    else:
        lines.append(f"{total_bad} of {len(runs)} experiments failing")
    return lines
