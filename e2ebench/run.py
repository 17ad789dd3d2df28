"""End-to-end benchmark for qnslab.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload chain-restricted --seed 1 --seconds 25 --trace 0

One process runs the workload in a closed loop, one operation after another,
for ``--seconds``.  An operation is one workload run together with its
correctness checks.  An operation fails when a check fails, an exception
escapes, or its result digest differs from the other operations of the same
invocation.  Every input and spec seed comes from ``--seed``.

``--trace 0`` reports the end-to-end metrics (median operation wall time, set-up
time, peak resident memory through the first operation).  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer split (see layertrace.py).  Lines before the
last one are for people: the environment, each metric with its unit, the error
rate.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout.  Without it the
benchmark exits with code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chain-restricted", "chain-failure-deep", "similarity-battery", "composite-check")
# Set-up is timed this many times per invocation (once here, the rest in fresh
# interpreters, since imports only run once per process); the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_checkout():
    """Import qnslab from the checkout's src/ and the benchmark modules; exit 2 if absent."""
    if not (SRC / "qnslab" / "__init__.py").is_file():
        print(f"e2ebench: no qnslab package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qnslab

    if not Path(qnslab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"e2ebench: qnslab was imported from {qnslab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import layertrace as tracing
    import workloads

    return qnslab, tracing, workloads


def kernel_site(regions):
    """(owner, attribute) through which Region.contains_many calls the membership kernel."""
    for value in vars(regions).values():
        if isinstance(value, types.ModuleType) and callable(getattr(value, "contains_many", None)):
            return value, "contains_many"
    for attr, value in vars(regions).items():
        if callable(value) and getattr(value, "__name__", "") == "contains_many" \
                and getattr(value, "__module__", regions.__name__) != regions.__name__:
            return regions, attr
    return None


def run_op(workload, state):
    """One operation: run, check, digest.  Returns (digest or None, problems)."""
    try:
        result = workload.run(state)
        problems = workload.check(state, result)
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    except Exception:  # an escaping exception fails the operation, not the benchmark
        return None, [traceback.format_exc()]
    return digest, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, state, seconds, trace_step=None):
    """Closed loop for ``seconds``.

    Returns [(traced, seconds, digest, problems)] and the peak RSS in MB after
    the first operation.  With ``trace_step`` (a callable running one traced
    operation) operations alternate untraced and traced, and at least one of
    each runs.  A new operation starts only if the median so far still fits
    before the deadline.
    """
    ops = []
    first_peak = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace_step is not None and len(ops) % 2 == 1
        t = time.perf_counter()
        if traced:
            digest, problems, duration = trace_step()
        else:
            digest, problems = run_op(workload, state)
            duration = time.perf_counter() - t
        ops.append((traced, duration, digest, problems))
        if first_peak is None:
            first_peak = peak_rss_mb()
        typical = statistics.median(op[1] for op in ops)
        if time.perf_counter() + typical > deadline and (trace_step is None or len(ops) >= 2):
            return ops, first_peak


def failed_ops(ops) -> list:
    """Indices of failed operations: a check failed, or the digest differs from the common one."""
    digests = Counter(op[2] for op in ops if op[2] is not None)
    common = digests.most_common(1)[0][0] if digests else None
    return [i for i, op in enumerate(ops) if op[3] or op[2] != common]


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(qnslab, site) -> dict:
    import numpy

    kernel = getattr(*site) if site else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_module": getattr(kernel, "__module__", None),
        "qnslab": qnslab.__version__,
    }


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    qnslab, tracing, workloads = import_checkout()
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".e2ebench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        state = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        modules = {name: sys.modules[f"qnslab.{name}"] for name in
                   ("cli", "counterexample", "fields", "geometry", "qns_engine", "quadrature", "regions")}
        site = kernel_site(modules["regions"])
        trace_step = totals = None
        if args.trace:
            tracer = tracing.Tracer()
            totals = tracing.LayerTotals(modules["quadrature"])

            def trace_step():
                tracing.install(tracer, modules, site)
                try:
                    t = time.perf_counter()
                    digest, problems = tracer.run_root(lambda: run_op(workload, state))
                    duration = time.perf_counter() - t
                finally:
                    tracer.uninstall()
                totals.add(tracer.take_spans())
                return digest, problems, duration

        ops, first_peak_mb = measure(workload, state, args.seconds, trace_step)
        failed = failed_ops(ops)
        env = environment(qnslab, site)
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
        print("env " + json.dumps(env, sort_keys=True))
        for i in failed:
            print(f"operation {i} failed: {ops[i][3] or ['result digest differs']}", file=sys.stderr)
        print(f"operations = {len(ops)}, failed = {len(failed)}, error_rate = {len(failed) / len(ops):.6g}")
        print("operation_wall_s = " + " ".join(f"{op[1]:.4f}" for op in ops))
        # Worker threads can make the allocator keep freed memory, so the peak
        # keeps creeping up over a run by an amount that depends on thread
        # timing; the metric stops at the first operation, the run's peak is shown here.
        print(f"run_peak_rss_mb = {peak_rss_mb():.6g} MB")
        if args.trace:
            print("hooks " + " ".join(tracer.hooks))
            untraced = [op[1] for op in ops if not op[0]]
            metrics = totals.metrics(statistics.fmean(untraced))
            units = tracing.LAYER_METRICS
        else:
            setups = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics = {
                "wall_s": statistics.median(op[1] for op in ops),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": first_peak_mb,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        report(not failed, len(ops), len(failed), metrics, units)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it


if __name__ == "__main__":
    sys.exit(main())
