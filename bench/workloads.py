"""The benchmark's three closed-loop workloads: mc, exact and cli.

Each workload builds its inputs from the seed (`__init__`, the set-up),
runs one pass of calls one after another (`run_pass`, the timed phase),
checks every output of a pass (`check`) and turns a pass into metrics
(`metrics`).  Work counts (boxes, cells, rows) are computed here from the
inputs, so they keep their meaning when an engine's algorithm changes.

Sample counts are the smallest that give every sampler call two chunks of
`extdisc.core.CHUNK` boxes, so that `workers=2` has work for both threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from extdisc import cli, core, dual, engines, generators

import oracle

CHUNK = 1 << 16
Z_LIMIT = 5.0
ORACLE_RTOL = 1e-9
L2_EVEN_ATOL = 1e-10


def vdc(n: int, d: int):
    """The seed-free van der Corput/Hammersley rule with equal weights."""
    spec = generators.GeneratorSpec(generators.GeneratorKind.VDC_HAMMERSLEY, n, d)
    return generators.generate(spec)


def signed_rule(seed: int, n: int, d: int):
    """Uniform points with weights (1 + 0.5 z)/n, z standard normal."""
    coords = core.substream(seed, 0).random((n, d))
    w = (1.0 + 0.5 * core.substream(seed, 1).standard_normal(n)) / n
    return core.PointSet(coords), core.WeightSet(w, core.classify_weights(w))


def interval_pairs(coords: np.ndarray) -> int:
    """Cells of the even-p engine: ordered interval pairs per axis, multiplied."""
    total = 1
    for col in coords.T:
        m = len(np.unique(np.concatenate(([0.0, 1.0], col)))) - 1
        total *= m * (m + 1) // 2
    return total


def grid_pairs(coords: np.ndarray) -> int:
    """Candidate boxes of the sup-norm enumeration: ordered grid pairs."""
    total = 1
    for col in coords.T:
        b = len(np.unique(np.concatenate(([0.0, 1.0], col))))
        total *= b * (b + 1) // 2
    return total


def normalized(value: float, p: float, d: int) -> float:
    """L_p under the probability measure on box pairs; monotone in p."""
    return value * 2.0 ** (d / p)


@dataclass
class Call:
    tag: str
    wall: float
    out: object
    error: str | None


def timed(calls: list, tag: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a raised error is recorded and fails its check
        out, err = None, f"{type(exc).__name__}: {exc}"
    calls.append(Call(tag, time.perf_counter() - t0, out, err))


class Checks:
    """Counts checks attempted and failed; failures are named, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(name, detail)

    def value(self, call: Call, v) -> None:
        """The call returned, and its value is finite and >= 0."""
        if call.error is not None:
            self.add(f"{call.tag}: value", False, call.error)
            return
        self.add(f"{call.tag}: value", math.isfinite(v) and v >= 0.0, f"value {v!r}")


def _by_tag(calls):
    return {c.tag: c for c in calls}


def _walls(calls, prefix: str) -> float:
    return sum(c.wall for c in calls if c.tag.startswith(prefix))


# ---------------------------------------------------------------------------


class MonteCarlo:
    """The three samplers at workers=2 on an equal-weight and a signed rule."""

    name = "mc"
    samples = 2 * CHUNK
    workers = 2
    p = 3.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rules = {"qmc": vdc(256, 4), "signed": signed_rule(seed, 512, 8)}
        self._l2 = {}

    def run_pass(self) -> list:
        calls = []
        s, w, p = self.samples, self.workers, self.p
        for rule in ("qmc", "signed"):
            ps, ws = self.rules[rule]
            timed(calls, f"{rule}.lp_mc", lambda: engines.extreme_lp_mc(ps, ws, p, s, self.seed, workers=w))
            timed(calls, f"{rule}.linf_mc", lambda: engines.extreme_linf_lower_mc(ps, ws, s, self.seed, workers=w))
            if rule == "qmc":
                timed(calls, "qmc.duality", lambda: dual.duality_gap_mc(ps, ws, p, s, self.seed, workers=w))
        return calls

    def check(self, calls, checks: Checks) -> None:
        by = _by_tag(calls)
        for rule in ("qmc", "signed"):
            ps, ws = self.rules[rule]
            lp, linf = by[f"{rule}.lp_mc"], by[f"{rule}.linf_mc"]
            for c in (lp, linf):
                checks.value(c, c.out.value if c.out else None)
            if lp.error or linf.error:
                continue
            # same seed and sample count: both samplers see the same boxes,
            # and a sample maximum bounds the sample's p-th power mean
            mean_root = normalized(lp.out.value, self.p, ps.d)
            checks.add(
                f"{rule}: linf_mc >= p-mean of the same boxes",
                linf.out.value >= mean_root * (1.0 - 1e-12),
                f"{linf.out.value!r} < {mean_root!r}",
            )
            if rule not in self._l2:
                self._l2[rule] = normalized(engines.extreme_l2_exact(ps, ws).value, 2.0, ps.d)
            se = normalized(lp.out.stderr, self.p, ps.d)
            checks.add(
                f"{rule}: lp_mc(p=3) >= exact L2 within {Z_LIMIT} stderr",
                mean_root + Z_LIMIT * se >= self._l2[rule],
                f"{mean_root!r} + {Z_LIMIT}*{se!r} < {self._l2[rule]!r}",
            )
        _check_duality(checks, by["qmc.duality"])

    def metrics(self, calls) -> dict:
        by = _by_tag(calls)
        lp = by["qmc.lp_mc"]
        sampled = [c for c in calls if c.tag.endswith(("lp_mc", "linf_mc"))]
        rel = lp.out.stderr / lp.out.value if lp.out and lp.out.value else math.nan
        return {
            "boxes_per_s": (self.samples * len(sampled) / sum(c.wall for c in sampled), "boxes/s"),
            "mc.qmc_boxes_per_s": (2 * self.samples / (_walls(calls, "qmc.l")), "boxes/s"),
            "mc.signed_boxes_per_s": (2 * self.samples / (_walls(calls, "signed.l")), "boxes/s"),
            "mc.relerr_sqrt_s": (rel * math.sqrt(lp.wall), "sqrt(s)"),
            "mc.duality_s": (by["qmc.duality"].wall, "s"),
        }


def _check_duality(checks: Checks, call: Call) -> None:
    if call.error is not None:
        checks.add(f"{call.tag}: audit", False, call.error)
        return
    chk = call.out
    for name in ("pairing_z", "qnorm_z"):
        z = getattr(chk, name)
        checks.add(f"{call.tag}: |{name}| <= {Z_LIMIT}", abs(z) <= Z_LIMIT, f"{name} = {z!r}")


# ---------------------------------------------------------------------------


class Exact:
    """The exact engines; nothing here samples boxes."""

    name = "exact"
    EVEN = (("vdc64x2", 4), ("vdc12x3", 4), ("vdc64x2", 2)) + tuple(
        (f"vdc{n}x1", p) for n, p in oracle.CASES
    )
    LINF = ("vdc100x2", "vdc20x3")

    def __init__(self, seed: int, workdir: Path):
        sizes = {(4096, 8), (64, 2), (12, 3), (100, 2), (20, 3)}
        sizes |= {(n, 1) for n, _ in oracle.CASES + oracle.KNOWN_DEFECTS}
        self.rules = {f"vdc{n}x{d}": vdc(n, d) for n, d in sorted(sizes)}
        self._refs = {}
        self._l2 = {}

    def run_pass(self) -> list:
        calls = []
        r = self.rules
        timed(calls, "l2.vdc4096x8", lambda: engines.extreme_l2_exact(*r["vdc4096x8"]))
        timed(calls, "l2.vdc64x2", lambda: engines.extreme_l2_exact(*r["vdc64x2"]))
        for name, p in self.EVEN:
            timed(calls, f"even{p}.{name}", lambda: engines.extreme_lp_exact_even_p(*r[name], p))
        for name in self.LINF:
            timed(calls, f"linf.{name}", lambda: engines.extreme_linf_exact(*r[name]))
        return calls

    def _ref(self, n: int, p: int) -> float:
        if (n, p) not in self._refs:
            ps, ws = self.rules[f"vdc{n}x1"]
            self._refs[n, p] = oracle.lp_exact(ps.coords[:, 0], ws.values, p)
        return self._refs[n, p]

    def _oracle_check(self, checks: Checks, n: int, p: int, got: float) -> None:
        ref = self._ref(n, p)
        checks.add(
            f"oracle vdc{n}x1 p={p}: rel err <= {ORACLE_RTOL}",
            abs(got - ref) <= ORACLE_RTOL * ref,
            f"engine {got!r}, exact {ref!r}",
        )

    def audit(self) -> dict:
        """The known even-p defect cases against the oracle, once, untimed.

        They are reported, not counted in the workload's checks: the
        checked workload holds only operations that succeed today.
        """
        checks = Checks()
        for n, p in oracle.KNOWN_DEFECTS:
            try:
                got = engines.extreme_lp_exact_even_p(*self.rules[f"vdc{n}x1"], p).value
            except Exception as exc:  # a raised error is part of the defect
                checks.add(f"oracle vdc{n}x1 p={p}: rel err <= {ORACLE_RTOL}", False, f"{type(exc).__name__}: {exc}")
                continue
            self._oracle_check(checks, n, p, got)
        return {"cases": checks.attempted, "still_failing": checks.failures}

    def _l2_of(self, name: str) -> float:
        if name not in self._l2:
            ps, ws = self.rules[name]
            self._l2[name] = normalized(engines.extreme_l2_exact(ps, ws).value, 2.0, ps.d)
        return self._l2[name]

    def check(self, calls, checks: Checks) -> None:
        by = _by_tag(calls)
        for c in calls:
            checks.value(c, c.out.value if c.out else None)
        for n, p in oracle.CASES:
            call = by[f"even{p}.vdc{n}x1"]
            got = call.out.value if call.out else math.nan
            self._oracle_check(checks, n, p, got)
        l2, even2 = by["l2.vdc64x2"], by["even2.vdc64x2"]
        if not (l2.error or even2.error):
            checks.add(
                f"vdc64x2: |l2_exact - even_p(2)| <= {L2_EVEN_ATOL}",
                abs(l2.out.value - even2.out.value) <= L2_EVEN_ATOL,
                f"{l2.out.value!r} vs {even2.out.value!r}",
            )
        # L_p under the probability measure grows with p up to the sup norm
        for tag, p in (("even4.vdc64x2", 4.0), ("even4.vdc12x3", 4.0), ("linf.vdc100x2", math.inf), ("linf.vdc20x3", math.inf)):
            call = by[tag]
            if call.error:
                continue
            name = tag.split(".")[1]
            d = self.rules[name][0].d
            got, low = normalized(call.out.value, p, d), self._l2_of(name)
            checks.add(f"{tag} >= L2 of the same rule", got >= low * (1.0 - 1e-9), f"{got!r} < {low!r}")

    def metrics(self, calls) -> dict:
        even = [c for c in calls if c.tag.startswith("even")]
        linf = [c for c in calls if c.tag.startswith("linf")]
        cells = sum(interval_pairs(self.rules[c.tag.split(".")[1]][0].coords) for c in even)
        boxes = sum(grid_pairs(self.rules[c.tag.split(".")[1]][0].coords) for c in linf)
        linf_wall = sum(c.wall for c in linf)
        return {
            "boxes_per_s": (boxes / linf_wall, "boxes/s"),
            "exact.l2_s": (_by_tag(calls)["l2.vdc4096x8"].wall, "s"),
            "exact.cells_per_s": (cells / sum(c.wall for c in even), "cells/s"),
            "exact.boxes_per_s": (boxes / linf_wall, "boxes/s"),
        }


# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    code: int
    stdout: str
    stderr: str


class Cli:
    """The whole CLI in-process, through extdisc.cli.main(argv)."""

    name = "cli"
    samples = 4 * CHUNK
    linf_samples = 2 * CHUNK
    ROWS = 50000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rnd = generators.generate(
            generators.GeneratorSpec(generators.GeneratorKind.RANDOM, self.ROWS, 8, seed=seed)
        )
        self.rules = {"rnd50000x8": rnd, "vdc1024x8": vdc(1024, 8), "vdc64x2": vdc(64, 2)}
        self.files = {}
        for name, (ps, ws) in self.rules.items():
            self.files[name] = str(workdir / f"{name}.csv")
            core.save_points(self.files[name], ps, ws)
        self._lib = {}

    def _argvs(self):
        f, s, seed = self.files, str(self.samples), str(self.seed)
        small = ["--input", f["vdc64x2"]]
        yield "certify", ["certify", "--input", f["rnd50000x8"], "--p", "3"]
        yield "disc.l2", ["disc", "--input", f["vdc1024x8"], "--method", "l2-exact"]
        yield "constants", ["constants", "--p-min", "1.05", "--p-max", "20", "--count", "200"]
        yield "bounds", ["bounds", "--p", "2", "--d-max", "12", "--eps", "0.1"]
        yield "disc.even4", ["disc", *small, "--method", "even-exact", "--p", "4"]
        yield "disc.linf_exact", ["disc", *small, "--method", "linf-exact"]
        yield "disc.linf_mc", ["disc", *small, "--method", "linf-mc", "--samples", str(self.linf_samples), "--seed", seed]
        for w in ("1", "2"):
            yield f"disc.mc.w{w}", ["disc", *small, "--method", "mc", "--p", "3", "--samples", s, "--seed", seed, "--workers", w]
        for w in ("1", "2"):
            yield f"duality.w{w}", ["duality-check", *small, "--p", "2", "--samples", s, "--seed", seed, "--workers", w]

    def _invoke(self, argv) -> Invocation:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return Invocation(code, out.getvalue(), err.getvalue())

    def run_pass(self) -> list:
        calls = []
        for tag, argv in self._argvs():
            timed(calls, tag, lambda: self._invoke(argv))
        return calls

    def check(self, calls, checks: Checks) -> None:
        parsed = {}
        for c in calls:
            ok = c.error is None and c.out.code == 0
            detail = c.error or (f"exit {c.out.code}: {c.out.stderr.strip()}" if c.out else "")
            checks.add(f"{c.tag}: exit 0", ok, detail)
            if ok and not c.tag.startswith(("constants", "bounds")):
                parsed[c.tag] = json.loads(c.out.stdout)
        for tag, obj in parsed.items():
            if "value" in obj:
                v = obj["value"]
                checks.add(f"{tag}: value", math.isfinite(v) and v >= 0.0, f"value {v!r}")
        by = _by_tag(calls)
        for a, b in (("disc.mc.w1", "disc.mc.w2"), ("duality.w1", "duality.w2")):
            if a in parsed and b in parsed:
                checks.add(
                    f"{a[:-3]}: stdout identical for workers 1 and 2",
                    by[a].out.stdout == by[b].out.stdout,
                    f"{by[a].out.stdout.strip()} != {by[b].out.stdout.strip()}",
                )
        for tag in ("duality.w1", "duality.w2"):
            if tag in parsed:
                for name in ("pairing_z", "qnorm_z"):
                    z = parsed[tag][name]
                    checks.add(f"{tag}: |{name}| <= {Z_LIMIT}", abs(z) <= Z_LIMIT, f"{name} = {z!r}")
        if "disc.linf_mc" in parsed and "disc.linf_exact" in parsed:
            lo, hi = parsed["disc.linf_mc"]["value"], parsed["disc.linf_exact"]["value"]
            checks.add("vdc64x2: linf-mc <= linf-exact", lo <= hi * (1.0 + 1e-12), f"{lo!r} > {hi!r}")
        if "disc.l2" in parsed:
            if "l2" not in self._lib:
                self._lib["l2"] = engines.extreme_l2_exact(*self.rules["vdc1024x8"]).value
            got, ref = parsed["disc.l2"]["value"], self._lib["l2"]
            checks.add("disc l2-exact matches the library call", abs(got - ref) <= 1e-12 * ref, f"{got!r} vs {ref!r}")
        if "disc.mc.w1" in parsed:
            if "l2_small" not in self._lib:
                self._lib["l2_small"] = normalized(engines.extreme_l2_exact(*self.rules["vdc64x2"]).value, 2.0, 2)
            obj = parsed["disc.mc.w1"]
            est, se = normalized(obj["value"], 3.0, 2), normalized(obj["stderr"], 3.0, 2)
            low = self._lib["l2_small"]
            checks.add(
                f"disc mc(p=3) >= exact L2 within {Z_LIMIT} stderr",
                est + Z_LIMIT * se >= low,
                f"{est!r} + {Z_LIMIT}*{se!r} < {low!r}",
            )
        if "certify" in parsed:
            checks.add("certify: n equals the file's rows", parsed["certify"]["n"] == self.ROWS, str(parsed["certify"]["n"]))
        for tag, rows in (("constants", 200), ("bounds", 12)):
            c = by[tag]
            if c.error or c.out.code:
                continue
            lines = [ln for ln in c.out.stdout.splitlines() if ln and not ln.startswith("#")]
            body = [ln.split(",") for ln in lines[1:]]
            ok = len(body) == rows and all(
                math.isfinite(float(v)) and float(v) >= 0.0 for r in body for v in r if _is_number(v)
            )
            checks.add(f"{tag}: {rows} finite nonnegative rows", ok, f"{len(body)} rows")

    def metrics(self, calls) -> dict:
        by = _by_tag(calls)
        sampled = {"disc.linf_mc": self.linf_samples}
        sampled.update({t: self.samples for t in ("disc.mc.w1", "disc.mc.w2", "duality.w1", "duality.w2")})
        return {
            "boxes_per_s": (sum(sampled.values()) / sum(by[t].wall for t in sampled), "boxes/s"),
            "cli.disc_s": (_walls(calls, "disc."), "s"),
            "cli.duality_s": (_walls(calls, "duality."), "s"),
            "cli.certify_rows_per_s": (self.ROWS / by["certify"].wall, "rows/s"),
            "cli.mc_w2_speedup": (by["disc.mc.w1"].wall / by["disc.mc.w2"].wall, "ratio"),
        }


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


WORKLOADS = {cls.name: cls for cls in (MonteCarlo, Exact, Cli)}
