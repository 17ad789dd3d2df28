"""Throughput of the membership kernel against the plain reference kernel.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py [--points 2000000]

The reference is the kernel without bounding-box culling, kept in
``tests/test_backend.py``: it tests every primitive on a fancy-indexed copy
of the points not yet inside.  Both return bit-identical masks (asserted
here), and an indicator ball mean is bit-identical under either (asserted),
so the only difference is speed.  Region membership is the hot kernel behind
every Monte Carlo mean in the package.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from qnslab import _kernels_py
from qnslab.fields import indicator_field
from qnslab.geometry import Ball
from qnslab.quadrature import QuadratureSpec, mean_over_ball
from qnslab.regions import Polygon, Rect, Region

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_backend import reference_contains_many  # noqa: E402


def reference_kernel(dim, types, closed, offsets, payload, boxes, pts):
    """The reference under the kernel's signature; it ignores the boxes."""
    return reference_contains_many(dim, types, closed, offsets, payload, pts)


CULLED = _kernels_py.contains_many
KERNELS = [("reference", reference_kernel), ("culled", CULLED)]


def make_regions():
    ring = [Ball((math.cos(t), math.sin(t)), 0.5) for t in np.linspace(0, 2 * math.pi, 10, endpoint=False)]
    gon = Polygon(tuple((math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 24, endpoint=False)))
    return {
        "single ball": Region((Ball((0.0, 0.0), 1.0),)),
        "10-ball ring": Region(tuple(ring)),
        "mixed (ball+rect+24-gon)": Region((Ball((0.0, 0.0), 1.0), Rect((-1.0, -1.0), (1.0, 1.0)), gon)),
    }


def best_of(fn, repeat: int = 3) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_membership(n_points: int):
    rng = np.random.Generator(np.random.PCG64(0))
    pts = np.ascontiguousarray(rng.uniform(-2.0, 2.0, size=(n_points, 2)))
    print(f"\nmembership kernel, {n_points:,} points, best of 3")
    print(f"{'region':<28}{'kernel':<11}{'Mpts/s':>9}{'speedup':>9}")
    for name, region in make_regions().items():
        d = region._data
        args = (d.dim, d.types, d.closed, d.offsets, d.payload, d.boxes)
        masks = {label: kernel(*args, pts) for label, kernel in KERNELS}
        assert np.array_equal(masks["reference"], masks["culled"]), name
        rates = {label: n_points / best_of(lambda: kernel(*args, pts)) / 1e6 for label, kernel in KERNELS}
        for label, rate in rates.items():
            print(f"{name:<28}{label:<11}{rate:9.1f}{rate / rates['reference']:9.2f}x")


def bench_mean(n_samples: int = 200_000):
    omega = Region((Ball((0.0, 0.0), 2.0),))
    support = Region((Ball((0.0, 0.0), 1.0, closed=True), Rect((0.5, -0.3), (1.6, 0.3))))
    chi = indicator_field(support, omega)
    spec = QuadratureSpec(method="mc", target_rel_error=1e-4, max_samples=n_samples, seed=3)
    print(f"\nend-to-end indicator ball mean, {n_samples:,} samples")
    results = {}
    for label, kernel in KERNELS:
        _kernels_py.contains_many = kernel  # the module attribute Region.contains_many calls
        try:
            t0 = time.perf_counter()
            res = mean_over_ball(chi, Ball((0.2, 0.1), 1.5), spec)
            dt = time.perf_counter() - t0
        finally:
            _kernels_py.contains_many = CULLED
        results[label] = res
        print(f"  {label:<10} mean={res.mean:.6f}  stderr={res.stderr:.2e}  {dt * 1e3:8.1f} ms")
    assert results["reference"] == results["culled"], "kernels disagree on the estimate"
    print("  estimates are bit-identical across kernels")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=2_000_000)
    args = parser.parse_args()
    bench_membership(args.points)
    bench_mean()
