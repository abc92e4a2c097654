"""Benchmark of the extdisc package from source; see bench/README.md.

    python3 bench/run.py --workload {mc,exact,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source tree.  The workload runs in this process:
set-up (import + inputs), then timed passes until --seconds have been
used, then the output checks.  Set-up is also repeated in fresh child
processes and its median is reported.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it holds the run record and every workload metric.
"""

import time

SETUP_T0 = time.perf_counter()  # set-up is timed from before the package import

import os

# The closed loop runs at most two threads, the sampler workers: BLAS
# calls inside them stay single-threaded.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-up samples per run: this process and four children


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["mc", "exact", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import extdisc from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "extdisc" / "__init__.py").is_file():
        sys.exit(f"error: no extdisc sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import extdisc

    if Path(extdisc.__file__).resolve().parent != src / "extdisc":
        sys.exit(f"error: imported extdisc from {extdisc.__file__}, not from {src}")
    import workloads

    return workloads


def set_up(workloads, args, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return wl, time.perf_counter() - SETUP_T0


def child_setups(args, count: int) -> list:
    """Set-up seconds measured in `count` fresh interpreter processes."""
    out = []
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(count):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def run_record() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def median_metrics(per_pass: list) -> dict:
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            _, setup_s = set_up(workloads, args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = setup_tracer = None
        if args.trace:
            import tracing

            tracer, setup_tracer = tracing.Tracer(), tracing.Tracer()
            setup_tracer.install()
        try:
            wl, setup_s = set_up(workloads, args, workdir)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        setups = [setup_s] + child_setups(args, SETUPS - 1)

        # timed phase: whole passes until the next one would overrun
        untraced, traced, walls = [], [], {0: [], 1: []}
        start = time.perf_counter()
        while True:
            mode = len(untraced) + len(traced) if args.trace else 0
            mode %= 2
            if mode:
                tracer.install()
            try:
                t0 = time.perf_counter()
                calls = wl.run_pass()
                wall = time.perf_counter() - t0
            finally:
                if mode:
                    tracer.uninstall()
            (traced if mode else untraced).append(calls)
            walls[mode].append(wall)
            done = untraced and (traced or not args.trace)
            if done and time.perf_counter() - start + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = workloads.Checks()
        for calls in untraced + traced:
            wl.check(calls, checks)
        known_defects = wl.audit() if hasattr(wl, "audit") else None
        if known_defects:
            for name, detail in known_defects["still_failing"].items():
                print(f"known defect, still failing: {name}: {detail}", file=sys.stderr)

        per_pass = []
        for calls, wall in zip(untraced, walls[0]):
            m = {"wall_s": (wall, "s")}
            m.update(wl.metrics(calls))
            per_pass.append(m)
        e2e = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_ratio": {"value": 1.0 - checks.failed / checks.attempted, "unit": "ratio"},
        }
        e2e.update(median_metrics(per_pass))
        report = dict(e2e, fail_ratio={"value": checks.failed / checks.attempted, "unit": "ratio"})
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.trace:
            layers = tracer.metrics(len(traced), setup_tracer)
            overhead = statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0
            layers["trace_overhead"] = {"value": overhead, "unit": "ratio"}
            report.update(layers)
            metrics = {m["name"]: layers[m["name"]] for m in declared["per_layer"]}
        else:
            metrics = {m["name"]: e2e[m["name"]] for m in declared["end_to_end"]}
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "record": run_record(),
            "passes": {"untraced": walls[0], "traced": walls[1]},
            "setups_s": setups,
            "failed_checks": checks.failures,
            "known_defects": known_defects,
            "report": report,
            "absent": tracer.absent if tracer else [],
        }))
        print(json.dumps({
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
