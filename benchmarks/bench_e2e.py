"""End-to-end benchmark of a change against its parent commit, written as BENCH_<n>.json.

Run from the root of a checkout:

    python3 benchmarks/bench_e2e.py --parent <commit> --out BENCH_5.json \\
        [--pairs 10] [--seconds 30] [--seed 5150] [--workloads similarity-battery,...] \\
        [--claim "similarity-battery wall_s"]
    python3 benchmarks/bench_e2e.py --parent <commit> --out BENCH_5.json \\
        --pytest tests/test_acceptance.py::test_acceptance_3_counterexample_pass_side [--pairs 10]

The change is the working tree of the checkout this script lives in, and the
parent is the given commit.  Both run from copies in temporary directories, so
the two sides differ only in their files, and the repository's own metadata is
not touched: the parent is extracted with ``git archive``, and the change's copy
holds the tracked files plus the untracked ones that ``.gitignore`` does not
exclude, without the files deleted from the working tree.  For every workload the
benchmark's runner ``e2ebench/run.py --trace 0`` runs in alternating pairs:
the parent goes first in even-numbered pairs and the change first in odd ones,
so a slow drift of the host counts against both sides alike.  Each side then
makes one ``--trace 1`` run for its per-layer split, with the steal ticks of
the host during that run.  A trace whose untraced operations took a mean time
off the side's ``wall_s`` pair median by more than the ``BENCHMARK.json`` bound
ran on a host unlike the pairs', so its split is marked ``"usable": false``.

The output holds, per workload and end-to-end metric, every run of both sides,
their medians and quartiles, the change/parent ratio of the medians, and in
how many pairs the change was better or worse (in the direction that
``BENCHMARK.json`` gives); also the runner's environment line, the CPU model,
and both trace splits with their checks.  A run's operations must all be correct, else the
script stops with the runner's output.

With ``--pytest NODEID`` the script times one Tier-1 target instead of the
workloads: ``python -m pytest -q -p no:cacheprovider NODEID`` with ``src/`` on
``PYTHONPATH``, in each tree, in the same alternating pairs.  Every wall time,
both sides' medians and quartiles and the win counts go under
``pytest.<NODEID>`` of the output, which is added to an existing ``--out``
file (run the workloads first, since that mode writes the file afresh).  Every
run must pass, else the script stops with pytest's output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST_ARGS = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
ORDER = "parent first in even-numbered pairs (0, 2, ...), change first in odd-numbered pairs"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=5150)
    p.add_argument("--workloads", default=None, help="comma-separated names (default: all of BENCHMARK.json)")
    p.add_argument("--claim", default=None, help='the claimed gain, e.g. "similarity-battery wall_s"')
    p.add_argument("--no-trace", action="store_true", help="skip the --trace 1 runs")
    p.add_argument("--pytest", metavar="NODEID", default=None,
                   help="time this Tier-1 test target instead of the workloads")
    return p.parse_args(argv)


def extract(commit: str, dest: Path) -> str:
    """Write the files of ``commit`` under ``dest``; returns the full commit id."""
    full = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", full], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return full


def copy_worktree(dest: Path) -> str:
    """Copy the working tree's files under ``dest``; returns the ``HEAD`` commit id."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout
    for name in dict.fromkeys(listed.split("\0")):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted from the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def sides_in(tmp: str, parent: str) -> tuple[dict, str, str]:
    """Both sides' copies under ``tmp``: ``({side: dir}, parent commit, change HEAD)``."""
    sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
    for d in sides.values():
        d.mkdir()
    return sides, extract(parent, sides["parent"]), copy_worktree(sides["change"])


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One runner invocation: its metrics, environment line and operation counts."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} had failed operations\n{done.stdout}\n{done.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "env": env,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def run_pytest(checkout: Path, nodeid: str) -> float:
    """Wall time in seconds of one passing pytest run of ``nodeid`` in ``checkout``."""
    cmd = [sys.executable, *PYTEST_ARGS, nodeid]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
    return wall


def alternating_pairs(pairs: int, run_side) -> dict:
    """``run_side(side, pair)`` for both sides of every pair, in the order ``ORDER`` states."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run_side(side, i))
    return runs


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def stats(values):
        if len(values) == 1:  # quantiles needs two runs; one run is its own median and quartiles
            return {"median": values[0], "q1": values[0], "q3": values[0]}
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    sign = 1.0 if better == "lower" else -1.0
    p, c = stats(parent), stats(change)
    return {
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "change_worse_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "parent_runs": parent,
        "change_runs": change,
    }


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs so far, from ``/proc/stat``."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return None
    return fields[7], sum(fields)


def steal_since(start: tuple[int, int] | None) -> dict | None:
    """Steal ticks and all ticks since ``start``, a ``cpu_ticks()`` reading."""
    end = cpu_ticks()
    if start is None or end is None:
        return None
    return {"steal": end[0] - start[0], "total": end[1] - start[1]}


def trace_run(checkout: Path, workload: str, seed: int, seconds: float, pair_median: float, bound: float) -> tuple:
    """One ``--trace 1`` run: ``(metrics, check)``, where the check holds the
    run's steal ticks and whether its untraced mean ``wall_s`` lies within
    ``bound`` (relative) of ``pair_median``, the side's median in the pairs."""
    ticks = cpu_ticks()
    metrics = run_bench(checkout, workload, seed, seconds, 1)["metrics"]
    untraced = metrics.get("trace.untraced_wall_s")
    usable = untraced is not None and abs(untraced - pair_median) <= bound * pair_median
    if not usable:
        print(f"{workload} trace in {checkout.name}: untraced {untraced} s against a pair median of "
              f"{pair_median:.4g} s; its split is marked unusable", file=sys.stderr)
    return metrics, {"steal_ticks": steal_since(ticks), "untraced_wall_s": untraced,
                     "pair_median_wall_s": pair_median, "usable": usable}


def print_summary(name: str, metric: str, m: dict, pairs: int) -> None:
    print(f"{name} {metric}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
          f"({m['change_over_parent']:.3f}x), better {m['change_better_pairs']}/{pairs}, "
          f"worse {m['change_worse_pairs']}/{pairs}")


def time_pytest(args: argparse.Namespace) -> int:
    """The ``--pytest`` mode: alternating pairs of one Tier-1 target, added to ``--out``."""
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench_e2e_") as tmp:
        sides, parent_commit, _ = sides_in(tmp, args.parent)

        def run_side(side, i):
            wall = run_pytest(sides[side], args.pytest)
            print(f"{args.pytest} pair {i} {side}: {wall:.3f} s", file=sys.stderr)
            return wall

        ticks = cpu_ticks()
        runs = alternating_pairs(args.pairs, run_side)
        steal = steal_since(ticks)
    entry = {
        "parent_commit": parent_commit,
        "claim": args.claim,
        "command": " ".join(["PYTHONPATH=src python", *PYTEST_ARGS, args.pytest]),
        "pairs": args.pairs,
        "order": ORDER,
        "cpu": cpu_model(),
        "steal_ticks": steal,
        "metrics": {"wall_s": summarize(runs["parent"], runs["change"], "lower")},
    }
    out.setdefault("pytest", {})[args.pytest] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print_summary(args.pytest, "wall_s", entry["metrics"]["wall_s"], args.pairs)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pytest:
        return time_pytest(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    wall_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    command = "python3 e2ebench/run.py --workload {workload} --seed %d --seconds %g --trace {trace}" % (
        args.seed, args.seconds)
    with tempfile.TemporaryDirectory(prefix="bench_e2e_") as tmp:
        sides, parent_commit, head = sides_in(tmp, args.parent)
        out = {
            "parent_commit": parent_commit,
            "change": "working tree of " + head,
            "claim": args.claim,
            "command": command.format(workload="W", trace=0),
            "environment": None,
            "runs": {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds, "order": ORDER,
                     "workloads": {}},
            "traces": {},
        }
        ticks = cpu_ticks()
        for name in names:
            def run_side(side, i, _name=name):
                result = run_bench(sides[side], _name, args.seed, args.seconds, 0)
                print(f"{_name} pair {i} {side}: {result['metrics']}", file=sys.stderr)
                return result

            runs = alternating_pairs(args.pairs, run_side)
            if out["environment"] is None:
                env = runs["change"][0]["env"]
                out["environment"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "seconds", "trace")}
                out["environment"]["cpu"] = cpu_model()
            out["environment"]["steal_ticks"] = steal_since(ticks)
            out["runs"]["workloads"][name] = {
                side: {"operations": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs)}
                for side, rs in runs.items()
            }
            out["runs"]["workloads"][name]["metrics"] = {
                metric: summarize([r["metrics"][metric] for r in runs["parent"]],
                                  [r["metrics"][metric] for r in runs["change"]], better)
                for metric, better in directions.items()
            }
            if not args.no_trace:
                wall = out["runs"]["workloads"][name]["metrics"]["wall_s"]
                traced = {side: trace_run(sides[side], name, args.seed, args.seconds, wall[side]["median"], wall_bound)
                          for side in sides}
                out["traces"][name] = {
                    "command": command.format(workload=name, trace=1),
                    **{side: metrics for side, (metrics, _) in traced.items()},
                    "checks": {side: check for side, (_, check) in traced.items()},
                }
            args.out.write_text(json.dumps(out, indent=1) + "\n")  # partial results survive an interruption
    for name, entry in out["runs"]["workloads"].items():
        for metric, m in entry["metrics"].items():
            print_summary(name, metric, m, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
