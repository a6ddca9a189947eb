"""Walk through the restart operator on one signed path.

Samples a Brownian driver, builds the erf-type signed density over it,
reads off the zero set of the terminal-sign level process, and applies
the restart lift to a few running functionals.  The printed tail shows
the defining property: past the last zero the lifted values reproduce
the functional of the shifted path entry for entry.
"""

from functools import partial

from sigma_lab import (
    ErfSign,
    SeedSpec,
    density_driver_path,
    density_path,
    driver_zero_set,
    make_grid,
    occupation_kernel,
    rho,
    running_sup,
    sample_bm,
    shift,
)

GRID = make_grid(1.0, 1e-3)
MODEL = ErfSign(offset=1.0, terminal_time=1.0)
SEED = SeedSpec(master_seed=20260822, path_index=18)


def main() -> None:
    w = sample_bm(GRID, 0.0, SEED)
    driver = density_driver_path(MODEL, SEED, GRID)
    dens = density_path(MODEL, SEED, GRID)
    zs = driver_zero_set(MODEL, driver)

    print(f"driver at horizon: {w.values[-1]:+.4f}")
    print(f"terminal density sign: {dens.values[-1]:+.0f}")
    print(f"zero-set points detected: {len(zs.h_indices)}")
    print(f"last zero gbar = {zs.gbar:.3f}")

    sup = rho(running_sup, w, zs)
    # the density driver sits at -offset on every zero of the level
    # process, so its lifted local time at that level accrues from the
    # restart onward
    loc = rho(partial(occupation_kernel, level=-1.0), driver, zs)
    g = zs.gbar_index
    print("\nlifted running sup near the last zero:")
    for k in range(max(g - 2, 0), min(g + 4, GRID.n_steps + 1)):
        tag = " <- gbar" if k == g else ""
        print(f"  t={GRID.times[k]:.3f}  U={sup.values[k]:+.5f}{tag}")

    if 0 < g < GRID.n_steps:
        tail = shift(w, zs)
        direct = running_sup(tail.values, tail.grid.step)
        agree = bool((sup.values[g + 1 :] == direct[1:]).all())
        print(f"\ntail reproduces the shifted functional entry for entry: {agree}")
    print(f"density driver's lifted local time at -1 by the horizon: {loc.values[-1]:.4f}")
    print(f"its value on the last zero itself: {loc.values[g]:.4f} (booked as 0 on the zero set)")


if __name__ == "__main__":
    main()
