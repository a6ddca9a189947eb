"""One unit of a benchmark workload, in a fresh interpreter.

    python3 perfbench/unit.py --workload NAME --seed N --out DIR
        [--workers K] [--trace spans|alloc] [--probe]

Set-up is ``import sigma_lab`` and, with ``--workers`` above 1, starting
the worker pool with the package imported in every worker.  The unit
then prints ``ready`` and, unless ``--probe`` is given, runs the
workload's experiments the way ``sigma-lab run-all`` does (one
``run_experiment`` per name, then ``write_report``) and prints one
``result`` line of JSON.  ``run.py`` starts units and reads those
lines; it times set-up from process start to ``ready``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, n_paths_override

ROOT = Path(__file__).resolve().parents[1]
RENDEZVOUS_TIMEOUT_S = 60.0


def _rendezvous(directory: str, workers: int, start: int, count: int):
    """Pool warm-up chunk: import the package, then hold the worker until
    every worker has checked in, so each task lands on its own worker."""
    import numpy as np

    import sigma_lab  # noqa: F401

    Path(directory, str(os.getpid())).touch()
    deadline = time.monotonic() + RENDEZVOUS_TIMEOUT_S
    while len(os.listdir(directory)) < workers and time.monotonic() < deadline:
        time.sleep(0.001)
    return {"pid": np.array([os.getpid()])}


def _set_up(out: Path, workers: int):
    import sigma_lab
    from sigma_lab.ensemble import run_chunked

    expected = ROOT / "src" / "sigma_lab"
    if Path(sigma_lab.__file__).resolve().parent != expected:
        raise SystemExit(f"imported sigma_lab from {sigma_lab.__file__}, not from {expected}")
    if workers > 1:
        directory = out / "rendezvous"
        directory.mkdir(parents=True)
        fn = functools.partial(_rendezvous, str(directory), workers)
        run_chunked(workers, fn, chunk_size=1, workers=workers)
    return sigma_lab


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workers", type=int)
    ap.add_argument("--trace", choices=("spans", "alloc"))
    ap.add_argument("--probe", action="store_true", help="set up, print ready, exit")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    workers = wl.workers if args.workers is None else args.workers

    sigma_lab = _set_up(args.out, workers)
    print("ready", flush=True)
    if args.probe:
        return 0

    names = sigma_lab.experiment_names() if wl.experiments is None else list(wl.experiments)
    tracer = None
    if args.trace:
        import spans

        install = spans.install if args.trace == "spans" else spans.install_alloc
        tracer = install(f"{wl.name}-{args.seed}-{os.getpid()}")

    started = perf_counter()
    runs = []
    for name in names:
        cfg = sigma_lab.ExperimentConfig(
            experiment=name, n_paths=n_paths_override(name), master_seed=args.seed, workers=workers
        )
        runs.append(sigma_lab.run_experiment(cfg, "fast"))
    sigma_lab.write_report(runs, args.out / "report")
    wall_s = perf_counter() - started

    result = {
        "wall_s": wall_s,
        "n_paths": sum(r.settings.n_paths for r in runs),
        "experiments": len(runs),
        "checks": sum(len(r.checks) for r in runs),
        "checks_passed": sum(1 for r in runs for c in r.checks if c.passed),
        "workers": workers,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        tracer.write(args.out / f"{args.trace}.json")
    print("result " + json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
