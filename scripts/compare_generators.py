"""Compare point-set constructions by exact L2 extreme discrepancy.

For each point count n, computes the exact L2 figure for several equal-weight
constructions and prints them next to the aggregate lower bound that any
n-point nonnegative rule must obey.  Random rows average over independent
draws.  Grid rows appear only when n is a perfect d-th power.

Usage:
    python3 scripts/compare_generators.py --d 2 --n-max 64 --random-reps 20
"""

import argparse
import math
import sys

import numpy as np

from extdisc import (
    GeneratorKind,
    GeneratorSpec,
    error_lower_bound,
    extreme_l2_exact,
    generate,
)


def korobov_vector(n: int, d: int) -> tuple:
    """(1, a, a^2, ...) mod n with a coprime to n, a near 0.618 n."""
    if n == 2 or d == 1:
        return tuple([1] * d)
    target = max(1, round(0.6180339887 * n))
    a = next(
        c
        for delta in range(n)
        for c in (target - delta, target + delta)
        if 1 <= c <= n - 1 and math.gcd(c, n) == 1
    )
    return tuple(pow(a, j, n) for j in range(d))


def l2_of(spec: GeneratorSpec) -> float:
    ps, ws = generate(spec)
    return extreme_l2_exact(ps, ws).value


def random_mean(cfg: argparse.Namespace, n: int) -> float:
    vals = [
        l2_of(GeneratorSpec(GeneratorKind.RANDOM, n, cfg.d, seed=cfg.seed + rep))
        for rep in range(cfg.random_reps)
    ]
    return float(np.mean(vals))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=64)
    parser.add_argument("--random-reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    cfg = parser.parse_args(argv)

    print("n,vdc_hammersley,lattice,grid,random_mean,lower_bound")
    n = 1
    while n <= cfg.n_max:
        cells = [str(n)]
        cells.append(repr(l2_of(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, cfg.d))))
        if n >= 2:
            spec = GeneratorSpec(
                GeneratorKind.LATTICE, n, cfg.d, gen_vector=korobov_vector(n, cfg.d)
            )
            cells.append(repr(l2_of(spec)))
        else:
            cells.append("")
        side = round(n ** (1.0 / cfg.d))
        if side**cfg.d == n:
            cells.append(repr(l2_of(GeneratorSpec(GeneratorKind.GRID, n, cfg.d))))
        else:
            cells.append("")
        cells.append(repr(random_mean(cfg, n)))
        cells.append(repr(error_lower_bound(2.0, cfg.d, n)))
        print(",".join(cells))
        n *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
