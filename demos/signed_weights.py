"""Terminal weights of the signed density models.

The erf-type density ends at +-1; its expectation is the initial value
D_0 = 2 Phi(1) - 1 ~ 0.6827, and weighting a constant 1 by the
terminal density must average back to D_0.  The stopped-model weight
has mean 1.  Both are exact martingale facts, so the estimates sit
within Monte Carlo error of the targets with no discretization slack.
"""

import math

import numpy as np

from sigma_lab import (
    ErfSign,
    SeedSpec,
    StoppedBM,
    density_path,
    make_grid,
    weighted_mean,
)

N = 4000
GRID = make_grid(1.0, 2e-3)


def terminal_weights(model) -> np.ndarray:
    out = np.empty(N)
    for i in range(N):
        out[i] = density_path(model, SeedSpec(20260822, i), GRID).values[-1]
    return out


def main() -> None:
    d0 = math.erf(1.0 / math.sqrt(2.0))  # 2 Phi(1) - 1
    q_erf = terminal_weights(ErfSign(offset=1.0, terminal_time=1.0))
    q_sbm = terminal_weights(StoppedBM(start=1.0, stop_time=1.0))

    est = weighted_mean(np.ones(N), q_erf)
    print(f"erf-sign weighted mean of 1: {est.value:.4f} +- {est.stderr:.4f} (target D_0 = {d0:.4f})")
    neg = float(np.mean(q_erf < 0.0))
    print(f"fraction of sign-flipped paths: {neg:.4f} (target {(1 - d0) / 2:.4f})")

    est2 = weighted_mean(np.ones(N), q_sbm)
    print(f"stopped-model weighted mean of 1: {est2.value:.4f} +- {est2.stderr:.4f} (target 1)")
    neg2 = float(np.mean(q_sbm < 0.0))
    print(f"fraction with negative terminal weight: {neg2:.4f} (target Phi(-1) = {(1 - d0) / 2:.4f})")


if __name__ == "__main__":
    main()
