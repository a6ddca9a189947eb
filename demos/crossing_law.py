"""Small Monte Carlo of the unit-boundary crossing law.

The reflected driver crosses level 1 before its growth clock reaches 1
with probability 1 - 1/e.  This repeats the registered experiment at a
tenth of the full scale so it finishes in a few seconds.  Each path
scores 1 or 0 where it has decided by the horizon, and otherwise its
exact conditional crossing probability, so the estimate is a mean of
per-path probabilities rather than a crossing frequency.
"""

import math

from sigma_lab import ExperimentConfig, run_experiment


def main() -> None:
    cfg = ExperimentConfig(experiment="passage-eq4", n_paths=10_000, step=2e-3)
    run = run_experiment(cfg, suite="fast")
    check = run.checks[0]
    target = 1.0 - math.exp(-1.0)
    print(f"paths: {run.settings.n_paths}, step: {run.settings.step}")
    print(f"crossing probability: {check.estimate:.4f} +- {check.stderr:.4f}")
    print(f"closed form 1 - 1/e: {target:.4f}")
    print(f"gap {check.estimate - target:+.4f} inside tolerance {check.tolerance:.4f}: {check.passed}")
    for curve in run.curves:
        print(f"\ncrossing probability by growth level ({curve.name}):")
        for x, t, e in zip(curve.xs, curve.targets, curve.estimates):
            print(f"  u={x:.1f}  model {t:.4f}  estimate {e:.4f}")


if __name__ == "__main__":
    main()
