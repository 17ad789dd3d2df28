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

A sampled mean is two steps, on one code path with or without a memo.  The
base sample is a pure function of the spec seed, the (batch, chunk) index and
the chunk size (and, for image means, of the marked set D): radius-free
factors of uniform unit-ball points (exactly the points ``sample_in_ball``
draws from that stream), or every candidate that the rejection loop accepts in
D, over-draw included.  The per-probe step maps it by ``c + r*x`` or by ``h``
and evaluates the field.  An image mean maps the whole over-draw and checks it
against the domain only when h(D) is not certified inside the domain; a
certified image maps just the first ``size`` candidates of each chunk, the
ones that enter the mean.  Image means take an array of probes
(``_image_means``); ``mean_over_image`` is its one-probe case.  The probe
batteries of ``qns_engine`` run every probe on the battery's own spec seed
and pass a ``_SampleMemo`` that keeps the base samples for the battery's
lifetime: the probes then share common random numbers.  Each probe's mean
stays unbiased and equals a standalone call with that spec bit for bit, but
the errors of one battery's probes are correlated.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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


# Largest number of base-sample points one memo holds; later draws are not kept.
_MEMO_CAP_POINTS = 1 << 18


class _SampleMemo:
    """Base samples shared by the probes of one battery.

    An entry is a pure function of its key (sampler, spec seed, batch, chunk,
    size), so a hit returns exactly what a fresh draw would and the memo never
    changes a result.  One memo serves one battery: one field dimension and at
    most one marked set.  It keeps no entry past ``_MEMO_CAP_POINTS`` points
    and is dropped with the battery that made it.  Stored arrays are made
    read-only, since every probe receives the same ones.
    """

    def __init__(self):
        self._entries: dict = {}
        self._points = 0
        self._lock = threading.Lock()

    def get(self, key: tuple, draw: Callable[[], object]):
        hit = self._entries.get(key)
        if hit is not None:
            return hit
        value = draw()
        arrays = value if isinstance(value, tuple) else (value,)
        for a in arrays:
            a.setflags(write=False)
        n = len(arrays[0])
        with self._lock:
            if key not in self._entries and self._points + n <= _MEMO_CAP_POINTS:
                self._entries[key] = value
                self._points += n
        return value


def _memoized(memo: "_SampleMemo | None", key: tuple, draw: Callable[[], object]):
    return draw() if memo is None else memo.get(key, draw)


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


def _sample_means(spec: QuadratureSpec, method: str, draws: list[Callable[[int, int, int], np.ndarray]]) -> list:
    """The batching loop of every sampled mean, run for each probe of an array in turn.

    ``draws[i](batch, chunk, size)`` returns probe i's field values on one
    chunk.  Every probe sees the same chunk layout and stops on its own error
    target or at the sample cap.  The outcome of a probe is its
    ``MeanResult``, or the ``DomainError`` that one of its draws raised.
    """
    out = []
    for draw_values in draws:
        s1 = s2 = 0.0
        n = 0
        batch_size = min(4096, spec.max_samples)
        batch_index = 0
        try:
            while True:
                n_chunks = min(spec.workers, max(batch_size // 512, 1))
                sizes = [batch_size // n_chunks] * n_chunks
                sizes[-1] += batch_size - sum(sizes)

                def run(i: int, _sizes=sizes, _b=batch_index, _draw=draw_values):
                    vals = _draw(_b, i, _sizes[i])
                    return float(vals.sum()), float((vals * vals).sum()), vals.size

                for cs1, cs2, cn in _reduce_chunks(spec, run, n_chunks):
                    s1 += cs1
                    s2 += cs2
                    n += cn
                batch_index += 1
                result = _stat_result(s1, s2, n, method)
                if n >= spec.max_samples or result.stderr <= spec.target_rel_error * abs(result.mean):
                    break
                batch_size = min(batch_size * 2, spec.max_samples - n)
        except DomainError as exc:
            out.append(exc)
            continue
        out.append(result)
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


def mean_over_ball(
    u: Field, ball: Ball, spec: QuadratureSpec = QuadratureSpec(), *, _memo: _SampleMemo | None = None
) -> MeanResult:
    """Average of ``u`` over the ball, with standard error.

    The closed ball must lie inside the field's domain; a violation reports
    the offending boundary direction.  Under ``"auto"`` the closed forms of
    the module docstring are used where they apply; otherwise the mean is
    sampled.  ``_memo`` (a battery's base samples) saves work and never
    changes the result.
    """
    if ball.dim != u.dim:
        raise ValueError("ball and field dimensions differ")
    ok, direction = ball_in_region(u.domain, ball.center, ball.radius)
    if not ok:
        raise ContainmentError(
            f"ball at {ball.center} with radius {ball.radius} leaves the domain near direction {direction}",
            direction,
        )
    if _ball_means_exact(u, spec.method):
        return MeanResult(_exact_ball_mean(u, ball), 0.0, 1, "exact")
    method = "stratified" if spec.method == "auto" else spec.method
    stratified = method == "stratified"
    center = np.asarray(ball.center, dtype=np.float64)

    def draw(batch: int, chunk: int, size: int) -> np.ndarray:
        # the base tuple is a temporary, so a memo-free chunk frees it before evaluating
        pts = _place_in_ball(
            _memoized(_memo, ("ball", spec.seed, stratified, batch, chunk, size),
                      lambda: _ball_base(_cube_samples(size, center.size, _rng(spec.seed, batch, chunk), stratified))),
            center, ball.radius,
        )
        return u.evaluate_many(pts, check_domain=False)

    return _outcome(_sample_means(spec, method, [draw])[0])


def mean_over_image(
    u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec = QuadratureSpec(),
    *, _memo: _SampleMemo | None = None,
) -> MeanResult:
    """Average of ``u`` over h(D), sampling in D and mapping through h.

    The one-probe case of ``_image_means``: uniform candidates are drawn in
    D's bounding box and rejected to D, and the field is evaluated on the
    first ``size`` mapped candidates of each chunk.  Unless h(D) inside the
    field domain is certified (``_images_certified``), every accepted
    candidate, over-draw included, is mapped and must land in the domain
    (else ``DomainError``).  ``_memo`` (a battery's base samples) saves work
    and never changes the result.
    """
    return _outcome(_image_means(u, d, SimilarityArray.of(h), spec, _memo)[0])


def _image_means(u: Field, d: MarkedSet, probes: SimilarityArray, spec: QuadratureSpec,
                 memo: _SampleMemo | None = None) -> list:
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
        out = []
        for h, proven in zip(sims, certified):
            try:
                if not proven:
                    _probe_image_containment(u, d, h, spec, memo)
            except DomainError as exc:
                out.append(exc)
                continue
            out.append(MeanResult(u.params["value"], 0.0, 1, "exact"))
        return out

    def drawer(h: Similarity, proven: bool) -> Callable[[int, int, int], np.ndarray]:
        def draw(batch: int, chunk: int, size: int) -> np.ndarray:
            cand = _memoized(memo, ("image", spec.seed, batch, chunk, size),
                             lambda: _image_base(d, spec.seed, batch, chunk, size))
            if proven:
                return u.evaluate_many(h.apply_many(cand[:size]), check_domain=False)
            mapped = h.apply_many(cand)
            u.require_in_domain(mapped)
            return u.evaluate_many(mapped[:size], check_domain=False)

        return draw

    return _sample_means(spec, "mc", [drawer(h, proven) for h, proven in zip(sims, certified)])


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


def _probe_image_containment(
    u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec, memo: _SampleMemo | None = None, n: int = 512
):
    def draw() -> np.ndarray:
        lo, hi = d.region.bbox
        rng = _rng(derive_seed(spec.seed, "containment"), 0)
        cand = lo + rng.random((4 * n, d.dim)) * (hi - lo)
        return cand[d.region.contains_many(cand).astype(bool)][:n]

    cand = _memoized(memo, ("containment", spec.seed, n), draw)
    if cand.size:
        u.evaluate_many(h.apply_many(cand))  # raises DomainError on exterior hits
