"""Exact rational reference for the d = 1 extreme L_p discrepancy, even p.

The anchor domain {0 <= a <= b <= 1} splits into cells on which the
weighted count C of the box [a, b) is constant.  Over a cell the integrand
is (C - (b - a))^p; with K(a, b) = (C - b + a)^(p+2) / ((p+1)(p+2)) the
mixed partial is -(C - b + a)^p, so a rectangle cell integrates to minus
the mixed difference of K at its corners.  A diagonal cell of side L has
C = 0 and integrates to L^(p+2) / ((p+1)(p+2)).

Coordinates and weights are converted to fractions without rounding and
scaled to integers by their common denominator, so the sum over cells is
exact integer arithmetic.  Only the final p-th root is taken in floating
point.

Run `python3 bench/oracle.py` to print the references for the van der
Corput rules the benchmark checks.
"""

from __future__ import annotations

import math
from fractions import Fraction


def lp_power_exact(coords, weights, p: int) -> Fraction:
    """Exact integral of |local discrepancy|^p over the d = 1 anchor domain."""
    if p < 2 or p % 2:
        raise ValueError("the oracle needs an even integer p >= 2")
    xs = [Fraction(float(x)) for x in coords]
    ws = [Fraction(float(w)) for w in weights]
    den = math.lcm(*(v.denominator for v in xs + ws + [Fraction(1)]))
    grid = sorted({0, den, *(int(x * den) for x in xs)})
    index = {g: i for i, g in enumerate(grid)}
    # weight (times den) of the points sitting on each grid line
    at = [0] * len(grid)
    for x, w in zip(xs, ws):
        at[index[int(x * den)]] += int(w * den)
    prefix = [0]
    for v in at:
        prefix.append(prefix[-1] + v)
    k = p + 2
    total = 0
    m = len(grid) - 1
    for s in range(m):
        a0, a1 = grid[s], grid[s + 1]
        total += (a1 - a0) ** k
        for t in range(s + 1, m):
            b0, b1 = grid[t], grid[t + 1]
            # points on grid lines s+1 .. t lie in every box of the cell
            c = prefix[t + 1] - prefix[s + 1]
            total -= (c - b1 + a1) ** k - (c - b0 + a1) ** k - (c - b1 + a0) ** k + (
                c - b0 + a0
            ) ** k
    return Fraction(total, (p + 1) * (p + 2) * den**k)


def lp_exact(coords, weights, p: int) -> float:
    """Exact L_p value, rounded once at the end."""
    return float(lp_power_exact(coords, weights, p)) ** (1.0 / p)


def vdc_1d(n: int) -> tuple[list[float], list[float]]:
    """The base-2 van der Corput rule with n points and weights 1/n."""
    coords = []
    for k in range(n):
        x, scale = 0.0, 0.5
        while k:
            x += (k & 1) * scale
            k >>= 1
            scale /= 2
        coords.append(x)
    return coords, [1.0 / n] * n


# (n, p) cases the exact workload times and checks against the oracle
CASES = tuple((n, p) for n in (16, 32, 64) for p in (2, 4)) + ((512, 2),)

# (n, p) cases of the known even-p defect (the engine's binomial expansion
# cancels): run once per exact run outside the timed phase and reported by
# name, but not part of the checked workload, whose operations must all
# succeed.  A case that starts to agree with the oracle is reported as fixed.
KNOWN_DEFECTS = tuple((n, p) for n in (16, 32, 64) for p in (6, 8, 12)) + ((512, 4),)


if __name__ == "__main__":
    for n, p in CASES + KNOWN_DEFECTS:
        print(f"vdc{n}x1 p={p}: {lp_exact(*vdc_1d(n), p)!r}")
