"""Per-layer timing of the extdisc package, applied from outside.

The tracer wraps the public functions listed in `TABLE` wherever the
package binds them: a name imported with `from .core import x` is a
separate binding in the importing module, so every `extdisc.*` module
attribute that is the original function object gets the wrapper.  A name
that no longer exists is reported as absent, with zero counts, so that a
refactor which renames or removes a function does not break the run.

Per function it records calls, busy seconds (summed over threads) and
exceptions raised.  Entry points also get self time: their duration minus
the part of it covered by the intervals of their direct children, which
may run on pool threads.  A call made on a pool thread with no traced
caller on that thread is a child of the innermost traced call of the
thread that installed the tracer, because the package's thread pools are
only started from inside a traced sampler.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time


def _load_rows(a, result):
    return {"rows": result[0].n}


def _sample_boxes(a, result):
    return {"boxes": a["m"]}


def _kernel_work(a, result):
    m = a["lower"].shape[0]
    n, d = a["coords"].shape
    return {"boxes": m, "tests": m * n * d}


# (layer, public name, role, counts, counter).  Roles: "core" marks the
# leaf work a sampler spreads over its workers; "entry" gets self time;
# "sampler" gets self time and parallel efficiency.  The counter maps the
# bound call arguments and the result to the named work counts.
TABLE = (
    ("core", "load_points", "", ("rows",), _load_rows),
    ("core", "substream", "core", (), None),
    ("core", "sample_box_pairs", "core", ("boxes",), _sample_boxes),
    ("core", "local_discrepancy_batch", "core", ("boxes", "tests"), _kernel_work),
    ("engines", "CellDecomposition.from_points", "", (), None),
    ("engines", "extreme_l2_exact", "entry", (), None),
    ("engines", "extreme_lp_exact_even_p", "entry", (), None),
    ("engines", "extreme_linf_exact", "entry", (), None),
    ("engines", "extreme_lp_mc", "sampler", (), None),
    ("engines", "extreme_linf_lower_mc", "sampler", (), None),
    ("dual", "duality_gap_mc", "sampler", (), None),
    ("dual", "representer_value", "", (), None),
    ("bounds", "curse_constants", "", (), None),
    ("bounds", "certificate_lower_bound", "", (), None),
    ("generators", "generate", "", (), None),
    ("cli", "main", "entry", (), None),
)

UNITS = {
    "calls": "count",
    "busy_s": "s",
    "errors": "count",
    "self_s": "s",
    "parallel_eff": "ratio",
    "rows": "rows",
    "boxes": "boxes",
    "tests": "tests",
}


def _union_length(spans, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for s, e in sorted(spans):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


class _Frame:
    __slots__ = ("parent", "children", "core_busy")

    def __init__(self, parent):
        self.parent = parent
        self.children = []
        self.core_busy = 0.0


class _Stat:
    __slots__ = ("calls", "busy", "errors", "self", "counts", "core_busy", "capacity")

    def __init__(self):
        self.calls = self.errors = 0
        self.busy = self.self = self.core_busy = self.capacity = 0.0
        self.counts = {}


class Tracer:
    """Wraps the TABLE functions while installed and accumulates their stats."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_ident = None
        self._root_stack = []
        self._patches = []
        self.stats = {f"{row[0]}.{row[1]}": _Stat() for row in TABLE}
        self.absent = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_ident = threading.get_ident()
        self.absent = []
        mods = [m for k, m in list(sys.modules.items()) if k == "extdisc" or k.startswith("extdisc.")]
        for layer, name, role, _, counter in TABLE:
            key = f"{layer}.{name}"
            try:
                owner = importlib.import_module(f"extdisc.{layer}")
            except ImportError:
                self.absent.append(key)
                continue
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(owner, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if not isinstance(raw, classmethod):
                    self.absent.append(key)
                    continue
                wrapped = classmethod(self._wrap(key, role, counter, raw.__func__))
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, name, None)
            if not callable(orig):
                self.absent.append(key)
                continue
            wrapped = self._wrap(key, role, counter, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._root_ident:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, role, counter, fn):
        needs_args = counter is not None or role == "sampler"
        sig = inspect.signature(fn) if needs_args else None
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root_stack[-1:] or [None])[0]
            frame = _Frame(parent)
            stack.append(frame)
            failed = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._record(stat, role, frame, t0, t1, failed)
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._after(stat, role, counter, bound.arguments, result, t1 - t0)
            return result

        return wrapper

    def _record(self, stat, role, frame, t0, t1, failed) -> None:
        dt = t1 - t0
        with self._lock:
            stat.calls += 1
            stat.busy += dt
            stat.errors += failed
            if frame.parent is not None:
                frame.parent.children.append((t0, t1))
            if role == "core":
                anc = frame.parent
                while anc is not None:
                    anc.core_busy += dt
                    anc = anc.parent
            if role in ("entry", "sampler"):
                stat.self += dt - _union_length(frame.children, t0, t1)
            if role == "sampler":
                stat.core_busy += frame.core_busy

    def _after(self, stat, role, counter, arguments, result, dt) -> None:
        with self._lock:
            if role == "sampler":
                stat.capacity += int(arguments.get("workers", 1)) * dt
            if counter is not None:
                for name, v in counter(arguments, result).items():
                    stat.counts[name] = stat.counts.get(name, 0) + v

    # -- reporting ----------------------------------------------------------

    def metrics(self, passes: int, setup: "Tracer | None" = None) -> dict:
        """Every per-layer metric, for one set-up plus one pass.

        Pass stats are averaged over `passes`; the stats of the `setup`
        tracer, which saw the set-up once, are added as they are.
        """
        out = {}
        for layer, name, role, counts, _ in TABLE:
            key = f"{layer}.{name}"
            parts = [(self.stats[key], passes)]
            if setup is not None:
                parts.append((setup.stats[key], 1))
            vals = {
                "calls": sum(st.calls / k for st, k in parts),
                "busy_s": sum(st.busy / k for st, k in parts),
                "errors": sum(st.errors / k for st, k in parts),
            }
            if role in ("entry", "sampler"):
                vals["self_s"] = sum(st.self / k for st, k in parts)
            for c in counts:
                vals[c] = sum(st.counts.get(c, 0) / k for st, k in parts)
            if role == "sampler":
                cap = sum(st.capacity for st, _ in parts)
                vals["parallel_eff"] = sum(st.core_busy for st, _ in parts) / cap if cap else 0.0
            for k, v in vals.items():
                out[f"{key}.{k}"] = {"value": v, "unit": UNITS[k]}
        return out
