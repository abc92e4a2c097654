"""Command line interface.

Subcommands:

  disc           evaluate one discrepancy (exact or Monte Carlo)
  constants      CSV table of the curse constants over an exponent grid
  bounds         CSV table of point-count bounds over a dimension range
  certify        certified per-node-set lower bound
  duality-check  sampled audit of the duality identities
  generate       write a reference point set in the CSV point format

Results go to stdout: JSON objects for single evaluations, CSV with a
leading '#' config comment for tables.  Every run echoes the fields that
determine its result; --workers only changes scheduling, never output.
Exit codes: 0 success, 2 invalid input, 3 over budget, 4 inconsistent result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import (
    Certificate,
    certificate_lower_bound,
    curse_constants,
    gnewuch_linf_upper,
    min_points_lower_bound,
    nw10_l2_lower,
)
from .core import (
    _RANDOMIZED,
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    Method,
    equal_weights,
    load_points,
    points_csv,
)
from .dual import conjugate_exponent, duality_gap_mc
from .engines import (
    _EXPONENT_RULES,
    _check_exponent,
    extreme_l2_exact,
    extreme_linf_exact,
    extreme_linf_lower_mc,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
)
from .generators import GeneratorKind, GeneratorSpec, generate


def _exponent(token: str) -> float:
    try:
        v = float(token)  # takes 'inf' and 'infinity' in any case, padded or not
    except ValueError:
        raise InvalidInputError(f"exponent {token!r} is not a number or 'inf'") from None
    if not v >= 1.0:  # NaN included
        raise InvalidInputError("exponent must be >= 1 or 'inf'")
    return v


def _resolve_p(args, default: float | None = None) -> float:
    if args.p is not None:
        return _exponent(args.p)
    if args.q is not None:
        return conjugate_exponent(_exponent(args.q))
    if default is not None:
        return default
    raise InvalidInputError("an exponent is required: pass --p or --q")


def _p_repr(p: float) -> str | float:
    return "inf" if math.isinf(p) else p


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _config_comment(**fields) -> str:
    return "# config: " + json.dumps(fields)


# ---------------------------------------------------------------------------
# disc


def cmd_disc(args) -> int:
    ps, ws = load_points(args.input, d=args.d)
    if args.weights == "qmc" and ps.n:  # an empty rule has no 1/n weights to force
        ws = equal_weights(ps.n)
    method = Method(args.method)
    p = _resolve_p(args, default=_EXPONENT_RULES[method][2])
    _check_exponent(method, p)
    if method in _RANDOMIZED:
        _need_sampling(args)
    # without --budget the exact engines keep their default budgets
    budget = () if args.budget is None else (args.budget,)
    samples, seed, workers = args.samples, args.seed, args.workers
    engines = {
        Method.L2_EXACT: lambda: extreme_l2_exact(ps, ws),
        Method.EVEN_P_EXACT: lambda: extreme_lp_exact_even_p(ps, ws, p, *budget),
        Method.MC: lambda: extreme_lp_mc(ps, ws, p, samples, seed, workers),
        Method.LINF_EXACT: lambda: extreme_linf_exact(ps, ws, *budget),
        Method.LINF_SAMPLED: lambda: extreme_linf_lower_mc(ps, ws, samples, seed, workers),
    }
    res = engines[method]()
    _print_json(res.to_json_dict("disc", ps.d, ps.n))
    return 0


def _need_sampling(args) -> None:
    if args.samples is None or args.seed is None:
        raise InvalidInputError("sampled methods require --samples and --seed")


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    if not (1.0 <= args.p_min <= args.p_max) or math.isinf(args.p_max):
        raise InvalidInputError("need 1 <= p-min <= p-max < inf")
    if args.count < 1:
        raise InvalidInputError("count must be >= 1")
    step = (args.p_max - args.p_min) / max(args.count - 1, 1)
    grid = [args.p_min + i * step for i in range(args.count)]
    out = sys.stdout
    out.write(
        _config_comment(
            task="constants", p_min=args.p_min, p_max=args.p_max, count=args.count
        )
        + "\n"
    )
    out.write("p,a_p,b_p,c_p,y_star,b_method\n")
    for p in grid:
        cc = curse_constants(p)
        out.write(
            f"{p!r},{cc.a_p!r},{cc.b_p!r},{cc.c_p!r},{cc.y_star!r},{cc.b_method.value}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    p = _resolve_p(args)
    if args.d_min < 1 or args.d_max < args.d_min:
        raise InvalidInputError("need 1 <= d-min <= d-max")
    if not 0.0 <= args.eps < math.inf:  # NaN included
        raise InvalidInputError("eps must be >= 0 and finite")
    out = sys.stdout
    out.write(
        _config_comment(
            task="bounds", p=_p_repr(p), d_min=args.d_min, d_max=args.d_max, eps=args.eps
        )
        + "\n"
    )
    out.write("p,d,eps,thm2_lower,nw10_lower,gnewuch_upper\n")
    p_field = "inf" if math.isinf(p) else repr(p)
    for d in range(args.d_min, args.d_max + 1):
        thm2 = "" if math.isinf(p) else repr(min_points_lower_bound(p, d, args.eps))
        nw10 = _bound_cell(nw10_l2_lower, args.eps, d) if p == 2.0 else ""
        gnew = _bound_cell(gnewuch_linf_upper, args.eps, d) if math.isinf(p) else ""
        out.write(f"{p_field},{d},{args.eps!r},{thm2},{nw10},{gnew}\n")
    return 0


def _bound_cell(bound, eps: float, d: int) -> str:
    """repr of bound(eps, d), or empty where (eps, d) is outside its domain."""
    try:
        return repr(bound(eps, d))
    except InvalidInputError:
        return ""


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    ps, _ = load_points(args.input, d=args.d)
    p = _resolve_p(args)
    cert: Certificate = certificate_lower_bound(ps, p)
    _print_json(
        {
            "task": "certify",
            "p": _p_repr(p),
            "d": cert.d,
            "n": cert.n,
            "value": cert.value,
            "initial_term": cert.initial_term,
            "interp_term": cert.interp_term,
            "norm_sum": cert.norm_sum,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# duality-check


def cmd_duality_check(args) -> int:
    ps, ws = load_points(args.input, d=args.d)
    p = _resolve_p(args)
    _need_sampling(args)
    chk = duality_gap_mc(ps, ws, p, args.samples, args.seed, workers=args.workers)
    _print_json(
        {
            "task": "duality-check",
            "p": _p_repr(chk.p),
            "q": chk.q,
            "d": ps.d,
            "n": ps.n,
            "samples": chk.samples,
            "seed": chk.seed,
            "norm": chk.norm,
            "norm_method": chk.norm_method,
            "pairing": chk.pairing,
            "pairing_stderr": chk.pairing_stderr,
            "pairing_z": chk.pairing_z,
            "qnorm_pow": chk.qnorm_pow,
            "qnorm_stderr": chk.qnorm_stderr,
            "qnorm_z": chk.qnorm_z,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    gen_vector = None
    if args.gen_vector:
        try:
            gen_vector = tuple(int(t) for t in args.gen_vector.split(","))
        except ValueError:
            raise InvalidInputError("gen-vector must be comma-separated integers") from None
    spec = GeneratorSpec(
        kind=GeneratorKind(args.kind),
        n=args.n,
        d=args.d,
        seed=args.seed,
        gen_vector=gen_vector,
    )
    ps, ws = generate(spec)
    config = _config_comment(
        task="generate",
        kind=args.kind,
        n=args.n,
        d=args.d,
        seed=args.seed,
        gen_vector=list(gen_vector) if gen_vector else None,
    )
    text = config + "\n" + points_csv(ps, ws)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extdisc", description="extreme L_p discrepancy toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # argument families shared by several subcommands
    rule = argparse.ArgumentParser(add_help=False)
    rule.add_argument("--input", required=True, help="CSV point file")
    rule.add_argument("--d", type=int, help="dimension for empty or headerless files")
    exponent = argparse.ArgumentParser(add_help=False)
    grp = exponent.add_mutually_exclusive_group()
    grp.add_argument("--p", help="discrepancy exponent, a number >= 1 or 'inf'")
    grp.add_argument("--q", help="conjugate exponent; equivalent to --p p/(p-1)")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=int, help="Monte Carlo sample count")
    sampling.add_argument("--seed", type=int, help="stream seed; required when sampling")
    sampling.add_argument("--workers", type=int, default=1, help="threads; output-neutral")

    disc = subs.add_parser(
        "disc", parents=[rule, exponent, sampling], help="evaluate one discrepancy"
    )
    disc.add_argument(
        "--method",
        required=True,
        choices=[m.value for m in Method],
    )
    disc.add_argument("--budget", type=int, help="cell/box budget for exact engines")
    disc.add_argument(
        "--weights",
        choices=["file", "qmc"],
        default="file",
        help="use the file's weights, or force equal weights",
    )
    disc.set_defaults(func=cmd_disc)

    cons = subs.add_parser("constants", help="curse constants table")
    cons.add_argument("--p-min", type=float, required=True, dest="p_min")
    cons.add_argument("--p-max", type=float, required=True, dest="p_max")
    cons.add_argument("--count", type=int, default=50)
    cons.set_defaults(func=cmd_constants)

    bnds = subs.add_parser("bounds", parents=[exponent], help="point-count bounds table")
    bnds.add_argument("--d-min", type=int, default=1, dest="d_min")
    bnds.add_argument("--d-max", type=int, required=True, dest="d_max")
    bnds.add_argument("--eps", type=float, required=True)
    bnds.set_defaults(func=cmd_bounds)

    subs.add_parser(
        "certify", parents=[rule, exponent], help="certified lower bound for a node set"
    ).set_defaults(func=cmd_certify)

    subs.add_parser(
        "duality-check", parents=[rule, exponent, sampling], help="sampled duality audit"
    ).set_defaults(func=cmd_duality_check)

    gen = subs.add_parser("generate", help="write a reference point set")
    gen.add_argument(
        "--kind", required=True, choices=[k.value for k in GeneratorKind]
    )
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--gen-vector", dest="gen_vector", help="lattice vector, e.g. 1,3")
    gen.add_argument("--out", help="output path; stdout when omitted")
    gen.set_defaults(func=cmd_generate)

    return parser


# error class -> exit code; the first match wins (FileNotFoundError is an OSError)
_EXIT_CODES = {
    InvalidInputError: 2, BudgetExceededError: 3, InternalConsistencyError: 4, OSError: 2
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
