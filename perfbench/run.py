"""sigma-lab benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from a source checkout: it needs ``src/sigma_lab`` beside
``perfbench/`` and exits with code 2, printing no result, without it.
Each unit of work runs in a fresh interpreter (``unit.py``), one at a
time, with ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS`` pinned to 1.
A unit that crashes or outlives its timeout is killed with its whole
process group and counts as failed.

``--trace 0`` repeats units for about ``--seconds`` seconds (at least
two) and reports the end-to-end metrics of BENCHMARK.json as medians
over the units.  ``--trace 1`` runs one untraced unit, one unit with
spans and one with tracemalloc, and reports the per-layer metrics.

Output gates, all of which must hold for ``"correct": true``: every
unit completes; report bytes are identical across units at one seed;
with workers > 1, a serial reference unit writes the same bytes; each
row's verdict agrees with its own numbers.  ``--workload all`` also
checks that laws-parallel rows equal the suite-fast rows of the same
experiments.  The last line of stdout is the JSON result; the full
record, with the environment, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, LAWS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_UNITS = 2
MIN_SETUP_SAMPLES = 5
UNIT_TIMEOUT_S = 120.0
# The whole run must end within 180 s, killed units included.
RUN_DEADLINE_S = 150.0
PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Unit:
    out: Path
    ok: bool = False
    error: str = ""
    setup_s: float | None = None
    duration_s: float = 0.0
    peak_rss_mb: float = 0.0
    result: dict = field(default_factory=dict)


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers of a killed unit) so
    that they can be reaped; without it they are left to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a unit's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_unit(workload: str, seed: int, out: Path, deadline: float, *, workers=None, trace=None, probe=False) -> Unit:
    """Start one unit and read its ``ready`` and ``result`` lines.

    Set-up time runs from process start to ``ready``.  Peak RSS is the
    rusage of the exited unit, which covers the pool workers it reaped.
    """
    unit = Unit(out=out)
    cmd = [sys.executable, str(ROOT / "perfbench" / "unit.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace:
        cmd += ["--trace", trace]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    limit = min(deadline, perf_counter() + UNIT_TIMEOUT_S)
    started = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, start_new_session=True
    )
    buf, timed_out, finished = b"", False, False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = limit - perf_counter()
                if remaining <= 0.0:
                    timed_out = True
                    break
                if not sel.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    finished = True
                    break
                buf += chunk
                if unit.setup_s is None and b"ready" in buf.split(b"\n")[:-1]:
                    unit.setup_s = perf_counter() - started
    finally:
        if not finished:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        _stop_group(proc.pid)
    unit.duration_s = perf_counter() - started
    unit.peak_rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        unit.error = f"timed out after {unit.duration_s:.1f} s"
    elif proc.returncode != 0:
        unit.error = f"exit code {proc.returncode}"
    elif unit.setup_s is None:
        unit.error = "no ready line"
    else:
        results = [line for line in buf.decode("utf-8", "replace").splitlines() if line.startswith("result ")]
        if probe:
            unit.ok = True
        elif len(results) != 1:
            unit.error = "no result line"
        else:
            unit.result = json.loads(results[0][len("result ") :])
            unit.ok = True
    return unit


# ---------------------------------------------------------------- gates

_REPORT_FILES = ("report.csv", "report.json")


def report_digest(out: Path) -> str:
    """sha256 over a unit's report files: everything but timings.json."""
    h = hashlib.sha256()
    root = out / "report"
    paths = [root / name for name in _REPORT_FILES] + sorted((root / "curves").glob("*.csv"))
    for path in paths:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def report_rows(out: Path) -> list[dict[str, str]]:
    with (out / "report" / "report.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def experiment_digests(rows: list[dict[str, str]]) -> dict[str, str]:
    """sha256 of each experiment's report rows, in report order."""
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row["experiment"], []).append(list(row.values()))
    return {name: hashlib.sha256(json.dumps(cells).encode()).hexdigest() for name, cells in grouped.items()}


def verdict_mismatches(rows: list[dict[str, str]]) -> list[str]:
    """Rows whose ``passed`` disagrees with their own numbers.

    Only kinds whose verdict is a pure function of the row are checked:
    mean (gap within tolerance), exact (magnitude within the stated
    tolerance), count (zero) and ratio (at least the target).
    """
    bad = []
    for row in rows:
        kind = row["kind"]
        est = float(row["estimate"])
        if kind == "mean":
            expect = abs(est - float(row["target"])) <= float(row["tolerance"])
        elif kind == "exact":
            expect = est <= float(row["stat_tolerance"])
        elif kind == "count":
            expect = est == 0.0
        elif kind == "ratio":
            expect = est >= float(row["target"])
        else:
            continue
        if expect != (row["passed"] == "true"):
            bad.append(f"{row['experiment']}/{row['check']}@{row['seed']}")
    return bad


def check_outputs(units: list[Unit], reference: Unit | None) -> tuple[dict, list[str]]:
    """Gate the reports of the completed units; returns (record, failures)."""
    failures = []
    done = [u for u in units if u.ok]
    digests = [report_digest(u.out) for u in done]
    if len(set(digests)) > 1:
        failures.append(f"report bytes differ across {len(done)} units at one seed")
    record: dict = {"report_sha256": digests[0] if digests else None}
    if done:
        rows = report_rows(done[0].out)
        record["rows"] = len(rows)
        record["experiment_sha256"] = experiment_digests(rows)
        if len(rows) != done[0].result["checks"]:
            failures.append(f"{len(rows)} report rows for {done[0].result['checks']} checks")
        bad = verdict_mismatches(rows)
        record["verdict_mismatches"] = bad
        if bad:
            failures.append(f"verdicts disagree with their numbers: {', '.join(bad[:5])}")
    if reference is not None and reference.ok and digests:
        same = report_digest(reference.out) == digests[0]
        record["serial_reference_equal"] = same
        if not same:
            failures.append("parallel report bytes differ from the serial reference")
    return record, failures


# ---------------------------------------------------------------- workloads

def _unit_record(u: Unit) -> dict:
    result = {k: v for k, v in u.result.items() if k != "layers"}
    return {"name": u.out.name, "ok": u.ok, "error": u.error, "setup_s": u.setup_s, "peak_rss_mb": u.peak_rss_mb, **result}


def measure(name: str, seed: int, seconds: int, run_dir: Path) -> dict:
    """End-to-end metrics of one workload from repeated untraced units."""
    wl = WORKLOADS[name]
    start = perf_counter()
    deadline = start + RUN_DEADLINE_S
    reference = None
    if wl.workers > 1:
        reference = run_unit(name, seed, run_dir / "reference", deadline, workers=1)
    units: list[Unit] = []
    while reference is None or reference.ok:
        unit = run_unit(name, seed, run_dir / f"unit-{len(units)}", deadline)
        units.append(unit)
        if not unit.ok:
            break
        if len(units) >= MIN_UNITS and perf_counter() - start + unit.duration_s > seconds:
            break
    done = [u for u in units if u.ok]
    setups = [u.setup_s for u in done]
    while done and len(done) == len(units) and len(setups) < MIN_SETUP_SAMPLES:
        probe = run_unit(name, seed, run_dir / f"probe-{len(setups)}", deadline, probe=True)
        if not probe.ok:
            units.append(probe)
            break
        setups.append(probe.setup_s)
    failed_units = [u for u in units + [reference] if u is not None and not u.ok]
    record, failures = check_outputs(units, reference)
    failures += [f"unit {u.out.name}: {u.error}" for u in failed_units]

    per_unit_checks = done[0].result["checks"] if done else 1
    n_exp = done[0].result["experiments"] if done else 1
    checks = sum(u.result["checks"] for u in done) + per_unit_checks * len(failed_units)
    passed = sum(u.result["checks_passed"] for u in done)
    metrics = {}
    if done:
        metrics = {
            "wall_s": statistics.median(u.result["wall_s"] for u in done),
            "paths_per_s": statistics.median(u.result["n_paths"] / u.result["wall_s"] for u in done),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(u.peak_rss_mb for u in done),
            "checks_passed_frac": passed / checks,
        }
    return {
        "workload": name,
        "metrics": metrics,
        "correct": not failures,
        "failures": failures,
        "attempted": n_exp * (len(units) + (reference is not None)),
        "failed": n_exp * len(failed_units),
        "checks": checks,
        "checks_passed": passed,
        "units": [_unit_record(u) for u in units + ([reference] if reference else [])],
        "setup_samples": setups,
        "workers": wl.workers,
        "gates": record,
    }


def trace(name: str, seed: int, run_dir: Path) -> dict:
    """Per-layer metrics: an untraced unit, a spans unit, a tracemalloc unit."""
    deadline = perf_counter() + RUN_DEADLINE_S
    units = []
    for mode in (None, "spans", "alloc"):
        unit = run_unit(name, seed, run_dir / (mode or "plain"), deadline, trace=mode)
        units.append(unit)
        if not unit.ok:
            break
    record, failures = check_outputs(units, None)
    failures += [f"unit {u.out.name}: {u.error}" for u in units if not u.ok]
    layers: dict[str, float] = {}
    if len(units) == 3 and not failures:
        plain, spans, alloc = (u.result for u in units)
        layers.update(alloc["layers"])
        layers.update(spans["layers"])
        layers["trace.overhead_frac"] = spans["wall_s"] / plain["wall_s"] - 1.0
        keep = run_dir / "spans.json"
        shutil.copyfile(units[1].out / "spans.json", keep)
        record["spans_file"] = str(keep.relative_to(ROOT))
    n_exp = units[0].result.get("experiments", 1) if units[0].ok else 1
    return {
        "workload": name,
        "layers": layers,
        "correct": not failures,
        "failures": failures,
        "attempted": n_exp * len(units),
        "failed": n_exp * sum(not u.ok for u in units),
        "units": [_unit_record(u) for u in units],
        "workers": WORKLOADS[name].workers,
        "gates": record,
    }


# ---------------------------------------------------------------- output

def environment(seed: int) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_revision": revision,
        "thread_env": THREAD_ENV,
        "workload_seed": seed,
    }


def metric_specs(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


def select_metrics(values: dict[str, float], specs: list[dict], default=None) -> dict:
    return {s["name"]: {"value": values.get(s["name"], default), "unit": s["unit"]} for s in specs}


def print_summary(rec: dict, metrics: dict, seed: int) -> None:
    print(f"workload {rec['workload']}  seed {seed}  workers {rec['workers']}")
    for u in rec["units"]:
        state = "ok" if u["ok"] else f"FAILED ({u['error']})"
        print(f"  unit {u['name']:<10} {state}  wall_s={u.get('wall_s')}  setup_s={u.get('setup_s')}")
    for name, m in metrics.items():
        if isinstance(m["value"], float) and (m["value"] or not name.startswith("experiments.")):
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    gates = rec["gates"]
    print(f"  report sha256 {gates.get('report_sha256')}  rows {gates.get('rows')}")
    if seed == DEFAULT_SEED and REFERENCE_DIGESTS.exists():
        recorded = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8")).get(rec["workload"])
        print(f"  bytes unchanged against the recorded digest at DEFAULT_SEED: {gates.get('report_sha256') == recorded}")
    print("  gates " + ("pass" if rec["correct"] else "FAIL: " + "; ".join(rec["failures"])))


def main() -> int:
    ap = argparse.ArgumentParser(description="sigma-lab benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated runner still kills and reaps the unit it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sigma_lab" / "__init__.py").is_file():
        print(f"perfbench: no sigma_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _become_subreaper()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    records, combined = [], {}
    for name in names:
        run_dir = OUT / f"{name}-trace{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        if args.trace:
            rec = trace(name, args.seed, run_dir)
            # a layer the workload never reaches spent 0 s; a failed run has no values
            metrics = select_metrics(rec["layers"], specs, 0.0 if rec["layers"] else None)
        else:
            rec = measure(name, args.seed, args.seconds, run_dir)
            metrics = select_metrics(rec["metrics"], specs)
        rec["env"] = env
        rec["result_metrics"] = metrics
        print_summary(rec, metrics, args.seed)
        for sub in run_dir.iterdir():
            if sub.is_dir():
                shutil.rmtree(sub)
        (run_dir / "record.json").write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        records.append(rec)
        combined.update({(f"{name}.{k}" if len(names) > 1 else k): v for k, v in metrics.items()})

    correct = all(r["correct"] for r in records)
    by_name = {r["workload"]: r for r in records}
    if not args.trace and {"suite-fast", "laws-parallel"} <= by_name.keys():
        full = by_name["suite-fast"]["gates"].get("experiment_sha256", {})
        laws = by_name["laws-parallel"]["gates"].get("experiment_sha256", {})
        same = all(full.get(e) is not None and full.get(e) == laws.get(e) for e in LAWS)
        print(f"laws-parallel rows equal suite-fast rows: {same}")
        correct = correct and same
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": combined,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
