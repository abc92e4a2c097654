"""Tabulate curse-of-dimensionality constants over a range of exponents.

Writes a CSV with one row per exponent: the integral-ratio constant a_p,
the interpolation-norm constant b_p with its maximizing center y*, the
resulting geometric base c_p, and the implied minimal point count c_p^d
for a few dimensions.

Usage:
    python3 scripts/constants_table.py --p-min 1.05 --p-max 20 --count 80 \
        --dims 5 10 20 --out constants.csv
"""

import argparse
import sys

import numpy as np

from extdisc import curse_constants, min_points_lower_bound


def build_rows(cfg: argparse.Namespace):
    header = ["p", "a_p", "b_p", "y_star", "c_p", "b_method"]
    header += [f"min_points_d{d}" for d in cfg.dims]
    rows = [header]
    for p in np.linspace(cfg.p_min, cfg.p_max, cfg.count):
        c = curse_constants(float(p))
        row = [repr(float(p)), repr(c.a_p), repr(c.b_p), repr(c.y_star),
               repr(c.c_p), c.b_method.value]
        row += [repr(min_points_lower_bound(float(p), d, cfg.eps)) for d in cfg.dims]
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--p-min", type=float, default=1.05)
    parser.add_argument("--p-max", type=float, default=20.0)
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument("--dims", type=int, nargs="+", default=[5, 10, 20])
    parser.add_argument("--eps", type=float, default=0.0)
    parser.add_argument("--out", default="")
    cfg = parser.parse_args(argv)

    rows = build_rows(cfg)
    text = "\n".join(",".join(r) for r in rows) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows) - 1} rows to {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
