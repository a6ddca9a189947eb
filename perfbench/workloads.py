"""Workloads of the sigma-lab benchmark.

Plain data shared by the runner (``run.py``) and the unit program
(``unit.py``).  The runner never imports ``sigma_lab``, so nothing
here does either.

Scale.  ``sigma-lab run-all --suite fast`` takes about 92 s on two
cores, too long to repeat inside one benchmark run.  Every experiment
whose fast and full scales differ therefore runs at ``SCALED_PATHS``
paths (a tenth of its fast scale, at the fast step), which is what
``sigma-lab run --experiment NAME --paths 2000`` does.  Experiments
that pin their own scale (``PINNED``) run at that scale.  Both
workloads share this rule, so a row of ``laws-parallel`` is the same
row that ``suite-fast`` writes for that experiment at that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# sigma_lab.experiments.DEFAULT_SEED, repeated because the runner does
# not import the package.
DEFAULT_SEED = 20260822

SCALED_PATHS = 2000

# Experiments whose fast and full scales are equal: convergence
# ladders and pathwise algebra, stated at fixed sizes.
PINNED = ("rho-algebra", "membership", "tanaka-abs", "tanaka-plus", "tanaka-minus", "ito")

LAWS = ("passage-eq2", "passage-eq3", "passage-eq4", "passage-s32", "a-infinity", "levy-eq5", "levy-eq6")


@dataclass(frozen=True)
class Workload:
    name: str
    # None runs the whole registry, in sigma_lab.experiment_names() order.
    experiments: tuple[str, ...] | None
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # run-all over the whole registry, serial.  The only workload with
        # doob-maximal, and where a chunk-major run_suite would show.  It
        # also carries the per-path API (rho-algebra, membership, the
        # tanaka and ito ladders), about 30% of its time.
        Workload("suite-fast", None, 1),
        # run_chunked's pool path: dispatch, pickling and the tail chunk
        # (2000 = 7 * 256 + 208).  No doob; all seven read prefixes of the
        # same primary stream.
        Workload("laws-parallel", LAWS, 2),
    )
}


def n_paths_override(name: str) -> int | None:
    """The path count passed to ExperimentConfig; None keeps the registry's."""
    return None if name in PINNED else SCALED_PATHS
