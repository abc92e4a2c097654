"""Check Monte Carlo error bars against an exactly computable target.

Runs the sampled L_p estimator many times at increasing sample counts on a
point set whose L2 figure has a closed form, then reports the empirical
z-score spread.  Well calibrated error bars give z roughly standard normal:
mean near 0, standard deviation near 1, and about 99.7% of |z| below 3.

Usage:
    python3 scripts/mc_calibration.py --n 8 --d 2 --reps 200
"""

import argparse
import sys

import numpy as np

from extdisc import (
    GeneratorKind,
    GeneratorSpec,
    extreme_l2_exact,
    extreme_lp_mc,
    generate,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1234)
    cfg = parser.parse_args(argv)

    ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, cfg.n, cfg.d))
    truth = extreme_l2_exact(ps, ws).value
    print(f"# exact L2 value: {truth!r}", file=sys.stderr)

    print("samples,z_mean,z_std,max_abs_z,frac_within_3")
    for samples in (20_000, 80_000, 320_000):
        zs = []
        for rep in range(cfg.reps):
            res = extreme_lp_mc(ps, ws, 2.0, samples, seed=cfg.seed + rep)
            zs.append((res.value - truth) / res.stderr)
        zs = np.asarray(zs)
        within = float(np.mean(np.abs(zs) <= 3.0))
        print(
            f"{samples},{zs.mean():.4f},{zs.std(ddof=1):.4f},"
            f"{np.abs(zs).max():.4f},{within:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
