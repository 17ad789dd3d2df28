"""Averages of fields over balls and over similarity images of marked sets.

Methods: ``"auto"`` (the default) returns a closed form where one exists and
otherwise samples as ``"stratified"`` does; ``"stratified"`` and ``"mc"``
always take their own sampler, which keeps them available as the Monte Carlo
cross-check of the closed forms.  The closed forms, reported as method
``"exact"`` with stderr 0, are:

- constant fields (under every method);
- harmonic fields over a ball: the mean is the value at the center (the mean
  value property, exact in 2-D and 3-D since x^2 - y^2 is harmonic in both);
- over a 2-D disk, the indicator of a union of pairwise-disjoint 2-D disks:
  the mean is sum_i lens_area(r, r_i, |c - c_i|) / (pi r^2).

``"auto"`` is resolved before any sampling, so no result reports it.  Image
means have no closed form besides constants: they are plain Monte Carlo under
every method (rejection sampling in D does not stratify) and report ``"mc"``.
The containment check runs first on every ball path.  For an image mean, h(D)
inside the field domain is certified where simple geometry proves it
(``_images_certified``: in 2-D, every primitive of h(D) inside one ball or
rect primitive of the domain); otherwise it is checked sample by sample.

All randomness is driven by a spec seed through ``numpy`` PCG64 streams; for a
fixed spec (seed and worker count included) results are bit-identical across
runs.  Worker chunks draw from independent
child streams and are reduced in a fixed order, so threading never changes the
estimate.

A sampled mean is two steps.  The base sample is a pure function of the spec
seed, the (batch, chunk) index and the chunk size (and, for image means, of
the marked set D): radius-free factors of uniform unit-ball points (exactly
the points ``sample_in_ball`` draws from that stream), or every candidate that
the rejection loop accepts in D, over-draw included.  The per-probe step maps
it by ``c + r*x`` or by ``h`` and evaluates the field.  An image mean maps the
whole over-draw and checks it against the domain only when h(D) is not
certified inside the domain; a certified image maps just the first ``size``
candidates of each chunk, the ones that enter the mean.  Means take an array
of probes on one spec (``_ball_means``, ``_image_means``), and
``mean_over_ball`` and ``mean_over_image`` are their one-probe cases.  The
sampling loop runs batch-major: each chunk's base sample is drawn once and
mapped to every probe of the array that is still running.  The probe
batteries of ``qns_engine`` run each battery as one array on the battery's
own spec seed, so its probes share common random numbers.  Each probe's mean
stays unbiased and equals a one-probe call with that spec bit for bit, but
the errors of one battery's probes are correlated.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .fields import DomainError, Field
from .geometry import Ball, Similarity, SimilarityArray
from .regions import MarkedSet, Rect, Region, _pair_overlap_kind, _pair_overlap_measure, ball_in_region


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed from (seed, label)."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "auto"  # "auto" (closed forms where they exist) | "stratified" | "mc"
    target_rel_error: float = 1e-3
    max_samples: int = 10_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in ("auto", "stratified", "mc"):
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


def _ball_base(cube: np.ndarray) -> tuple:
    """Radius-free factors of uniform unit-ball points, from unit-cube points.

    2-D: (rho, cos theta, sin theta); 3-D: (rho, sin t, cos phi, sin phi, cos t).
    """
    if cube.shape[1] == 2:
        theta = 2.0 * math.pi * cube[:, 1]
        return np.sqrt(cube[:, 0]), np.cos(theta), np.sin(theta)
    cos_t = 1.0 - 2.0 * cube[:, 1]
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    phi = 2.0 * math.pi * cube[:, 2]
    return np.cbrt(cube[:, 0]), sin_t, np.cos(phi), np.sin(phi), cos_t


def _place_in_ball(base: tuple, center: np.ndarray, radius: float) -> np.ndarray:
    """The points center + radius * x of the ball for unit-ball factors x.

    Coordinates are written into one preallocated array, so placing a chunk
    holds no more memory than drawing it.
    """
    r = radius * base[0]
    pts = np.empty((r.size, center.size))
    if len(base) == 3:
        _, cos_theta, sin_theta = base
        np.multiply(r, cos_theta, out=pts[:, 0])
        np.multiply(r, sin_theta, out=pts[:, 1])
    else:
        _, sin_t, cos_phi, sin_phi, cos_t = base
        r_sin = r * sin_t
        np.multiply(r_sin, cos_phi, out=pts[:, 0])
        np.multiply(r_sin, sin_phi, out=pts[:, 1])
        np.multiply(r, cos_t, out=pts[:, 2])
    pts += center
    return pts


def _cube_samples(n: int, dim: int, rng: np.random.Generator, stratified: bool) -> np.ndarray:
    """n points of the unit cube; stratified: one jittered point per cell of a
    g^dim grid with g^dim <= n, and the remaining n - g^dim points uniform."""
    if not stratified:
        return rng.random((n, dim))
    g = max(int(round(n ** (1.0 / dim))), 1)
    while g**dim > n:
        g -= 1
    axes = np.meshgrid(*[np.arange(g)] * dim, indexing="ij")
    cells = np.stack([a.ravel() for a in axes], axis=1).astype(np.float64)
    jitter = rng.random(cells.shape)
    strata = (cells + jitter) / g
    if cells.shape[0] == n:
        return strata
    return np.concatenate([strata, rng.random((n - cells.shape[0], dim))])


def sample_in_ball(center, radius: float, n: int, rng: np.random.Generator, stratified: bool = False) -> np.ndarray:
    center = np.asarray(center, dtype=np.float64)
    return _place_in_ball(_ball_base(_cube_samples(n, center.size, rng, stratified)), center, radius)


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


def _sample_means(spec: QuadratureSpec, method: str, u: Field, base: Callable[[int, int, int], object],
                  places: list[Callable[[object], np.ndarray]]) -> list:
    """The batching loop of every sampled mean, batch-major over a probe array.

    ``base(batch, chunk, size)`` draws one chunk's base sample, once for the
    whole array; ``places[i]`` maps it to probe i's points, where ``u`` is
    evaluated.  Every probe sees the same chunk layout and stops on its own
    error target or at the sample cap.  The outcome of a probe is its
    ``MeanResult``, or the ``DomainError`` that its place raised on its first
    failing chunk.
    """
    out: list = [None] * len(places)
    s1 = [0.0] * len(places)
    s2 = [0.0] * len(places)
    running = list(range(len(places)))
    n = 0
    batch_size = min(4096, spec.max_samples)
    batch_index = 0
    while running:
        n_chunks = min(spec.workers, max(batch_size // 512, 1))
        sizes = [batch_size // n_chunks] * n_chunks
        sizes[-1] += batch_size - sum(sizes)

        def run(i: int, _sizes=sizes, _b=batch_index, _running=running) -> list:
            drawn = base(_b, i, _sizes[i])
            sums = []
            for k, p in enumerate(_running):
                try:
                    pts = places[p](drawn)
                except DomainError as exc:
                    sums.append(exc)
                    continue
                if k == len(_running) - 1:
                    drawn = None  # the last probe evaluates without the base held, as a lone probe did
                vals = u.evaluate_many(pts, check_domain=False)
                sums.append((float(vals.sum()), float((vals * vals).sum())))
            return sums

        for chunk in _reduce_chunks(spec, run, n_chunks):
            for p, sums in zip(running, chunk):
                if out[p] is not None:
                    continue
                if isinstance(sums, DomainError):
                    out[p] = sums
                    continue
                s1[p] += sums[0]
                s2[p] += sums[1]
        n += batch_size
        batch_index += 1
        still = []
        for p in running:
            if out[p] is None:
                result = _stat_result(s1[p], s2[p], n, method)
                if n >= spec.max_samples or result.stderr <= spec.target_rel_error * abs(result.mean):
                    out[p] = result
                else:
                    still.append(p)
        running = still
        batch_size = min(batch_size * 2, spec.max_samples - n)
    return out


def _outcome(res):
    """A probe's ``MeanResult``; a probe that failed raises its error."""
    if isinstance(res, Exception):
        raise res
    return res


def _disjoint_disk_support(u: Field) -> tuple | None:
    """The disks of a 2-D indicator field whose support is a union of
    pairwise-disjoint disks, or None when the field is not of that form."""
    if u.kind != "indicator" or u.dim != 2:
        return None
    disks = u.params["support"].primitives
    if not all(isinstance(p, Ball) for p in disks):
        return None
    if any(_pair_overlap_kind(p, q) != "disjoint" for p, q in itertools.combinations(disks, 2)):
        return None
    return disks


def _ball_means_exact(u: Field, method: str) -> bool:
    """Whether ``mean_over_ball`` returns a closed form for ``u`` under ``method``.

    The one rule for the exact path: ``mean_over_ball`` branches on it, and
    callers use it to skip work that only sampled means need.
    """
    if u.kind == "constant":
        return True
    return method == "auto" and (u.kind == "harmonic" or _disjoint_disk_support(u) is not None)


def _exact_ball_mean(u: Field, ball: Ball) -> float:
    """The closed-form mean over ``ball`` of a field that ``_ball_means_exact``
    accepts: a constant, a harmonic field (its value at the center), or the
    indicator of pairwise-disjoint 2-D disks (sum of lens areas over the disk
    area)."""
    if u.kind == "constant":
        return u.params["value"]
    if u.kind == "harmonic":
        return float(u.values(np.asarray([ball.center]))[0])
    covered = 0.0
    for p in u.params["support"].primitives:
        kind = _pair_overlap_kind(ball, p)
        if kind != "disjoint":
            covered += _pair_overlap_measure(ball, p, kind)
    return covered / (math.pi * ball.radius * ball.radius)


def mean_over_ball(u: Field, ball: Ball, spec: QuadratureSpec = QuadratureSpec()) -> MeanResult:
    """Average of ``u`` over the ball, with standard error.

    The one-probe case of ``_ball_means``.  The closed ball must lie inside
    the field's domain; a violation reports the offending boundary direction.
    Under ``"auto"`` the closed forms of the module docstring are used where
    they apply; otherwise the mean is sampled.
    """
    return _outcome(_ball_means(u, [ball], spec)[0])


def _ball_means(u: Field, balls: list[Ball], spec: QuadratureSpec) -> list:
    """Means of ``u`` over an array of balls, one outcome per ball: its
    ``MeanResult``, or the ``ContainmentError`` that refuses it.

    Every probe runs on ``spec``'s seed; the sampled ones share each chunk's
    base sample.
    """
    exact = _ball_means_exact(u, spec.method)
    out: list = []
    sampled = []
    for ball in balls:
        if ball.dim != u.dim:
            raise ValueError("ball and field dimensions differ")
        ok, direction = ball_in_region(u.domain, ball.center, ball.radius)
        if not ok:
            out.append(ContainmentError(
                f"ball at {ball.center} with radius {ball.radius} leaves the domain near direction {direction}",
                direction,
            ))
        elif exact:
            out.append(MeanResult(_exact_ball_mean(u, ball), 0.0, 1, "exact"))
        else:
            out.append(None)
            sampled.append(ball)
    if not sampled:
        return out
    method = "stratified" if spec.method == "auto" else spec.method
    stratified = method == "stratified"

    def base(batch: int, chunk: int, size: int) -> tuple:
        return _ball_base(_cube_samples(size, u.dim, _rng(spec.seed, batch, chunk), stratified))

    places = [partial(_place_in_ball, center=np.asarray(b.center, dtype=np.float64), radius=b.radius)
              for b in sampled]
    means = iter(_sample_means(spec, method, u, base, places))
    return [next(means) if res is None else res for res in out]


def mean_over_image(u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec = QuadratureSpec()) -> MeanResult:
    """Average of ``u`` over h(D), sampling in D and mapping through h.

    The one-probe case of ``_image_means``: uniform candidates are drawn in
    D's bounding box and rejected to D, and the field is evaluated on the
    first ``size`` mapped candidates of each chunk.  Unless h(D) inside the
    field domain is certified (``_images_certified``), every accepted
    candidate, over-draw included, is mapped and must land in the domain
    (else ``DomainError``).
    """
    return _outcome(_image_means(u, d, SimilarityArray.of(h), spec)[0])


def _image_means(u: Field, d: MarkedSet, probes: SimilarityArray, spec: QuadratureSpec) -> list:
    """Means of ``u`` over the images h_i(D) of a probe array, one outcome per
    probe: its ``MeanResult``, or the ``DomainError`` that rejects it.

    Every probe runs on ``spec``'s seed.  A probe whose image is certified
    inside the domain maps only the candidates that enter its mean and checks
    none of them; any other probe maps and checks the whole over-draw.
    """
    if d.dim != u.dim or probes.orthogonal.shape[1] != u.dim:
        raise ValueError("marked set, similarity and field dimensions must agree")
    certified = _images_certified(d.region, u.domain, probes).tolist()
    sims = probes.similarities()
    if u.kind == "constant":
        cand = None if all(certified) else _containment_sample(d, spec)
        out = []
        for h, proven in zip(sims, certified):
            try:
                if not proven and cand.size:
                    u.evaluate_many(h.apply_many(cand))  # raises DomainError on exterior hits
            except DomainError as exc:
                out.append(exc)
            else:
                out.append(MeanResult(u.params["value"], 0.0, 1, "exact"))
        return out

    def base(batch: int, chunk: int, size: int) -> tuple:
        drawn = _image_base(d, spec.seed, batch, chunk, size)
        return drawn[:size], drawn

    def place(h: Similarity, proven: bool) -> Callable[[tuple], np.ndarray]:
        def mapped(sample: tuple) -> np.ndarray:
            kept, drawn = sample
            if proven:
                return h.apply_many(kept)
            pts = h.apply_many(drawn)
            u.require_in_domain(pts)
            return pts[:len(kept)]

        return mapped

    return _sample_means(spec, "mc", u, base, [place(h, proven) for h, proven in zip(sims, certified)])


# Margin, relative to the largest coordinate involved, by which a certified
# image stays inside a domain primitive.  Rounding in mapping a point, or in a
# membership test, errs by a few ulps of those coordinates, far inside it.
_CERTIFY_MARGIN = 1e-9


def _images_certified(d: Region, omega: Region, probes: SimilarityArray) -> np.ndarray:
    """Which images h_i(D) are proven to lie inside ``omega``, as a bool per probe.

    2-D only (elsewhere nothing is proven).  h_i(D) is certified when each
    primitive of h_i(D) lies, with the margin, inside one ball or rect
    primitive of ``omega``: a ball of D maps to a ball, and a rect or polygon
    of D lies in the convex hull of its mapped vertices, so it is inside a
    convex primitive when all of those vertices are.  Polygons of ``omega``
    prove nothing.  False means "not proven", not "outside".
    """
    targets = [q for q in omega.primitives if isinstance(q, (Ball, Rect))]
    if d.dim != 2 or not targets:
        return np.zeros(len(probes), dtype=bool)
    # the largest coordinate involved: of D scaled, of the translation, of omega
    reach = np.maximum(probes.scale * float(np.max(np.abs(d.bbox))), np.max(np.abs(probes.translation), axis=1))
    margin = _CERTIFY_MARGIN * np.maximum(reach, float(np.max(np.abs(omega.bbox))))
    proven = np.ones(len(probes), dtype=bool)
    for p in d.primitives:
        if isinstance(p, Ball):
            pts = probes.apply_many(np.asarray([p.center]))  # (P, 1, 2) image centers
            room = (probes.scale * p.radius + margin)[:, None]
        else:
            pts = probes.apply_many(np.asarray(_vertices(p)))  # (P, V, 2) image vertices
            room = margin[:, None]
        x, y = pts[:, :, 0], pts[:, :, 1]
        inside = np.zeros(len(probes), dtype=bool)
        for q in targets:
            if isinstance(q, Ball):
                inside |= np.all(np.hypot(x - q.center[0], y - q.center[1]) + room <= q.radius, axis=1)
            else:
                inside |= np.all((x - room >= q.lo[0]) & (x + room <= q.hi[0])
                                 & (y - room >= q.lo[1]) & (y + room <= q.hi[1]), axis=1)
        proven &= inside
    return proven


def _vertices(p) -> list:
    """Corners of a 2-D rect, or a polygon's vertices."""
    if isinstance(p, Rect):
        return [(p.lo[0], p.lo[1]), (p.hi[0], p.lo[1]), (p.hi[0], p.hi[1]), (p.lo[0], p.hi[1])]
    return list(p.vertices)


def _image_base(d: MarkedSet, seed: int, batch: int, chunk: int, size: int) -> np.ndarray:
    """Every candidate the rejection loop accepts in D until it holds ``size``."""
    rng = _rng(seed, batch, chunk)
    lo, hi = d.region.bbox
    span = hi - lo
    kept = []
    n = 0
    attempts = 0
    while n < size and attempts < 64:
        cand = lo + rng.random((2 * size, d.dim)) * span
        cand = cand[d.region.contains_many(cand).astype(bool)]
        kept.append(cand)
        n += len(cand)
        attempts += 1
    if n < size:
        raise RuntimeError("rejection sampling failed to hit the marked set")
    # column-major, so that mapping the candidates reads each coordinate contiguously
    return np.concatenate(kept, out=np.empty((n, d.dim), order="F"))


# Points of D that check an uncertified constant-field image h(D) against the domain.
_CONTAINMENT_SAMPLES = 512


def _containment_sample(d: MarkedSet, spec: QuadratureSpec) -> np.ndarray:
    """Up to ``_CONTAINMENT_SAMPLES`` uniform points of D, on the spec's ``"containment"`` seed."""
    lo, hi = d.region.bbox
    rng = _rng(derive_seed(spec.seed, "containment"), 0)
    cand = lo + rng.random((4 * _CONTAINMENT_SAMPLES, d.dim)) * (hi - lo)
    return cand[d.region.contains_many(cand).astype(bool)][:_CONTAINMENT_SAMPLES]
