"""Averages of fields over balls and over similarity images of marked sets.

Methods: ``"auto"`` (the default) returns a closed form where one exists and
otherwise samples as ``"stratified"`` does; ``"stratified"``, ``"mc"`` and
``"grid"`` always take their own sampler, which keeps them available as the
Monte Carlo cross-check of the closed forms.  The closed forms, reported as
method ``"exact"`` with stderr 0, are:

- constant fields (under every method);
- over a 2-D disk, the indicator of a union of pairwise-disjoint 2-D disks:
  the mean is sum_i lens_area(r, r_i, |c - c_i|) / (pi r^2).

``"auto"`` is resolved before any sampling, so no result reports it; image
means have no closed form and sample as ``"stratified"``.  The containment
check runs first on every path.

All randomness is driven by a spec seed through ``numpy`` PCG64 streams; for a
fixed spec (seed and worker count included) results are bit-identical across
runs and across membership backends.  Worker chunks draw from independent
child streams and are reduced in a fixed order, so threading never changes the
estimate.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .fields import Field
from .geometry import Ball, Similarity
from .regions import MarkedSet, _pair_overlap_kind, _pair_overlap_measure, ball_in_region


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed from (seed, label)."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "auto"  # "auto" | "stratified" | "mc" | "grid"
    target_rel_error: float = 1e-3
    max_samples: int = 10_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in ("auto", "stratified", "mc", "grid"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if not (0.0 < self.target_rel_error <= 0.1):
            raise ValueError("target relative error must lie in (0, 0.1]")
        if self.max_samples < 1000:
            raise ValueError("max_samples must be at least 1000")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def child(self, label: str) -> "QuadratureSpec":
        return replace(self, seed=derive_seed(self.seed, label))


class MeanResult(NamedTuple):
    mean: float
    stderr: float
    n_samples: int
    method: str


class ContainmentError(ValueError):
    """The probe ball (or image) is not contained in the field's domain."""

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _cube_to_ball(cube: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Map unit-cube points to uniform points in a ball (constant Jacobian)."""
    dim = center.size
    if dim == 2:
        r = radius * np.sqrt(cube[:, 0])
        theta = 2.0 * math.pi * cube[:, 1]
        return center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    r = radius * np.cbrt(cube[:, 0])
    cos_t = 1.0 - 2.0 * cube[:, 1]
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    phi = 2.0 * math.pi * cube[:, 2]
    return center + np.stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * cos_t], axis=1)


def _cube_samples(n: int, dim: int, rng: np.random.Generator, stratified: bool) -> np.ndarray:
    if not stratified:
        return rng.random((n, dim))
    g = max(int(round(n ** (1.0 / dim))), 1)
    axes = np.meshgrid(*[np.arange(g)] * dim, indexing="ij")
    cells = np.stack([a.ravel() for a in axes], axis=1).astype(np.float64)
    jitter = rng.random(cells.shape)
    return (cells + jitter) / g


def sample_in_ball(center, radius: float, n: int, rng: np.random.Generator, stratified: bool = False) -> np.ndarray:
    center = np.asarray(center, dtype=np.float64)
    cube = _cube_samples(n, center.size, rng, stratified)
    return _cube_to_ball(cube, center, radius)


def _reduce_chunks(spec: QuadratureSpec, chunk_fn: Callable[[int], tuple], n_chunks: int):
    """Run chunk_fn over chunk indices, reducing results in index order."""
    if spec.workers == 1 or n_chunks == 1:
        return [chunk_fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        return list(pool.map(chunk_fn, range(n_chunks)))


def _stat_result(s1: float, s2: float, n: int, method: str) -> MeanResult:
    mean = s1 / n
    if n > 1:
        var = max(s2 - n * mean * mean, 0.0) / (n - 1)
    else:
        var = 0.0
    return MeanResult(mean, math.sqrt(var / n), n, method)


def _sample_mean(spec: QuadratureSpec, draw_values: Callable[[int, int, int], np.ndarray], method: str) -> MeanResult:
    """Shared batching loop: draw_values(batch, chunk, size) -> value array."""
    stratified = method == "stratified"
    s1 = s2 = 0.0
    n = 0
    batch_size = min(4096, spec.max_samples)
    batch_index = 0
    while True:
        n_chunks = min(spec.workers, max(batch_size // 512, 1))
        sizes = [batch_size // n_chunks] * n_chunks
        sizes[-1] += batch_size - sum(sizes)

        def run(i: int, _sizes=sizes, _b=batch_index):
            vals = draw_values(_b, i, _sizes[i])
            return float(vals.sum()), float((vals * vals).sum()), vals.size

        for cs1, cs2, cn in _reduce_chunks(spec, run, n_chunks):
            s1 += cs1
            s2 += cs2
            n += cn
        batch_index += 1
        result = _stat_result(s1, s2, n, method)
        if n >= spec.max_samples:
            return result
        if result.stderr <= spec.target_rel_error * abs(result.mean):
            return result
        batch_size = min(batch_size * 2, spec.max_samples - n)


def _disk_indicator_mean(u: Field, ball: Ball) -> float | None:
    """Closed-form mean over a 2-D ball of the indicator of pairwise-disjoint
    2-D disks, or None when the field is not of that form."""
    if u.kind != "indicator" or ball.dim != 2:
        return None
    disks = u.params["support"].primitives
    if not all(isinstance(p, Ball) for p in disks):
        return None
    if any(_pair_overlap_kind(p, q) != "disjoint" for p, q in itertools.combinations(disks, 2)):
        return None
    covered = 0.0
    for p in disks:
        kind = _pair_overlap_kind(ball, p)
        if kind != "disjoint":
            covered += _pair_overlap_measure(ball, p, kind)
    return covered / (math.pi * ball.radius * ball.radius)


def mean_over_ball(u: Field, ball: Ball, spec: QuadratureSpec = QuadratureSpec()) -> MeanResult:
    """Average of ``u`` over the ball, with standard error.

    The closed ball must lie inside the field's domain; a violation reports
    the offending boundary direction.  Under ``"auto"`` the closed forms of
    the module docstring are used where they apply; otherwise the mean is
    sampled.  The grid method is rejected for indicator-bearing fields
    (boundary bias); Monte Carlo is unbiased there.
    """
    if ball.dim != u.dim:
        raise ValueError("ball and field dimensions differ")
    ok, direction = ball_in_region(u.domain, ball.center, ball.radius)
    if not ok:
        raise ContainmentError(
            f"ball at {ball.center} with radius {ball.radius} leaves the domain near direction {direction}",
            direction,
        )
    if u.kind == "constant":
        return MeanResult(u.params["value"], 0.0, 1, "exact")
    method = spec.method
    if method == "auto":
        exact = _disk_indicator_mean(u, ball)
        if exact is not None:
            return MeanResult(exact, 0.0, 1, "exact")
        method = "stratified"
    center = np.asarray(ball.center, dtype=np.float64)
    if method == "grid":
        if u.has_indicator:
            raise ValueError("grid quadrature is biased for indicator fields; use mc or stratified")
        return _grid_ball_mean(u, center, ball.radius, spec)

    stratified = method == "stratified"

    def draw(batch: int, chunk: int, size: int) -> np.ndarray:
        rng = _rng(spec.seed, batch, chunk)
        pts = sample_in_ball(center, ball.radius, size, rng, stratified)
        return u.evaluate_many(pts, check_domain=False)

    return _sample_mean(spec, draw, method)


def _grid_ball_mean(u: Field, center: np.ndarray, radius: float, spec: QuadratureSpec) -> MeanResult:
    dim = center.size
    prev = None
    k = 8
    while True:
        axes = [(np.arange(k) + 0.5) / k] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        cube = np.stack([m.ravel() for m in mesh], axis=1)
        pts = _cube_to_ball(cube, center, radius)
        mean = float(u.evaluate_many(pts, check_domain=False).mean())
        n = cube.shape[0]
        if prev is not None:
            err = abs(mean - prev)
            if err <= spec.target_rel_error * abs(mean) or (2 * k) ** dim > spec.max_samples:
                return MeanResult(mean, err, n, "grid")
        prev = mean
        k *= 2


def mean_over_image(
    u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec = QuadratureSpec()
) -> MeanResult:
    """Average of ``u`` over h(D), sampling in D and mapping through h.

    Uniform candidates are drawn in D's bounding box, rejected to D, then
    mapped; any mapped sample outside the field domain rejects the whole call,
    which realizes the containment precondition sample-by-sample.
    """
    if d.dim != u.dim or h.dim != u.dim:
        raise ValueError("marked set, similarity and field dimensions must agree")
    if u.kind == "constant":
        _probe_image_containment(u, d, h, spec)
        return MeanResult(u.params["value"], 0.0, 1, "exact")
    lo, hi = d.region.bbox
    span = hi - lo

    def draw(batch: int, chunk: int, size: int) -> np.ndarray:
        rng = _rng(spec.seed, batch, chunk)
        vals = np.empty(0)
        attempts = 0
        while vals.size < size and attempts < 64:
            cand = lo + rng.random((2 * size, d.dim)) * span
            cand = cand[d.region.contains_many(cand).astype(bool)]
            if cand.size:
                mapped = h.apply_many(cand)
                vals = np.concatenate([vals, u.evaluate_many(mapped)])
            attempts += 1
        if vals.size < size:
            raise RuntimeError("rejection sampling failed to hit the marked set")
        return vals[:size]

    # image means have no closed form and no grid rule
    return _sample_mean(spec, draw, {"auto": "stratified", "grid": "mc"}.get(spec.method, spec.method))


def _probe_image_containment(u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec, n: int = 512):
    lo, hi = d.region.bbox
    rng = _rng(derive_seed(spec.seed, "containment"), 0)
    cand = lo + rng.random((4 * n, d.dim)) * (hi - lo)
    cand = cand[d.region.contains_many(cand).astype(bool)][:n]
    if cand.size:
        u.evaluate_many(h.apply_many(cand))  # raises DomainError on exterior hits
