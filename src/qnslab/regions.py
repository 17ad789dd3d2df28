"""Composite measurable sets: finite unions of balls, axis rectangles, polygons.

Regions are immutable.  Measure uses closed forms for single primitives,
inclusion-exclusion for certified pairwise overlaps (disk-disk, box-box), and
seeded Monte Carlo otherwise.  A ``MarkedSet`` adds a marked interior point
together with its outer radius ``R_D`` and inner radius ``r_D``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels_py as kernels
from .geometry import Ball, Similarity, as_point, lens_area, unit_ball_volume

DEFAULT_BOUNDARY_SAMPLES = 20_000
# The sampled check of balls_in_region: boundary directions, the multiples of
# the radius they are tested at, and the balls per membership call, which keep
# a large probe array's points to a few MB at a time.
_BALL_DIRS = 64
_BALL_RHOS = (1.0, 0.7, 0.35)
_BALL_GROUP = 1024
_MEASURE_SEED = 20_250_809


@dataclass(frozen=True)
class Rect:
    """Axis-aligned open (default) or closed rectangle / box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    closed: bool = False

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) not in (2, 3):
            raise ValueError("rect bounds must both be 2-D or 3-D")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("rect bounds must be finite")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("rect must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class Polygon:
    """Simple planar polygon given by its vertex loop (no closing repeat)."""

    vertices: tuple[tuple[float, float], ...]
    closed: bool = False

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in verts):
            raise ValueError("polygon vertices must be finite")

    @property
    def dim(self) -> int:
        return 2

    def signed_area(self) -> float:
        s = 0.0
        v = self.vertices
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            s += x0 * y1 - x1 * y0
        return 0.5 * s


Primitive = Union[Ball, Rect, Polygon]


def _primitive_measure(p: Primitive) -> float:
    if isinstance(p, Ball):
        return unit_ball_volume(p.dim) * p.radius**p.dim
    if isinstance(p, Rect):
        out = 1.0
        for a, b in zip(p.lo, p.hi):
            out *= b - a
        return out
    return abs(p.signed_area())


def _primitive_bbox(p: Primitive) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Ball):
        c = np.asarray(p.center)
        return c - p.radius, c + p.radius
    if isinstance(p, Rect):
        return np.asarray(p.lo), np.asarray(p.hi)
    v = np.asarray(p.vertices)
    return v.min(axis=0), v.max(axis=0)


def _primitive_max_dist(p: Primitive, q: np.ndarray) -> float:
    """sup over the primitive's closure of |q - y|."""
    if isinstance(p, Ball):
        return float(np.linalg.norm(q - np.asarray(p.center))) + p.radius
    if isinstance(p, Rect):
        corners = np.array(np.meshgrid(*[(a, b) for a, b in zip(p.lo, p.hi)], indexing="ij"))
        corners = corners.reshape(p.dim, -1).T
        return float(np.max(np.linalg.norm(corners - q, axis=1)))
    v = np.asarray(p.vertices)
    return float(np.max(np.linalg.norm(v - q, axis=1)))


def _point_segment_dist(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    t = float(np.dot(q - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(q - (a + t * ab)))


def _primitive_inner_dist(p: Primitive, q: np.ndarray) -> float:
    """Distance from an interior point q to the primitive's boundary (< 0 if outside-ish)."""
    if isinstance(p, Ball):
        return p.radius - float(np.linalg.norm(q - np.asarray(p.center)))
    if isinstance(p, Rect):
        return min(min(q[k] - p.lo[k], p.hi[k] - q[k]) for k in range(p.dim))
    v = [np.asarray(vert, dtype=np.float64) for vert in p.vertices]
    d = min(_point_segment_dist(q, v[i], v[(i + 1) % len(v)]) for i in range(len(v)))
    return d


def _primitive_boundary_samples(p: Primitive, n: int) -> np.ndarray:
    if isinstance(p, Ball):
        if p.dim == 2:
            theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            return np.asarray(p.center) + p.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts = _fibonacci_sphere(n)
        return np.asarray(p.center) + p.radius * pts
    if isinstance(p, Rect):
        if p.dim == 2:
            per = max(n // 4, 2)
            xs = np.linspace(p.lo[0], p.hi[0], per, endpoint=False)
            ys = np.linspace(p.lo[1], p.hi[1], per, endpoint=False)
            bottom = np.stack([xs, np.full(per, p.lo[1])], axis=1)
            top = np.stack([p.lo[0] + p.hi[0] - xs, np.full(per, p.hi[1])], axis=1)
            left = np.stack([np.full(per, p.lo[0]), p.lo[1] + p.hi[1] - ys], axis=1)
            right = np.stack([np.full(per, p.hi[0]), ys], axis=1)
            return np.concatenate([bottom, right, top, left], axis=0)
        # 3-D box faces, a coarse grid per face
        per = max(int(math.sqrt(n / 6)), 2)
        faces = []
        for axis in range(3):
            u_ax, v_ax = [k for k in range(3) if k != axis]
            us = np.linspace(p.lo[u_ax], p.hi[u_ax], per)
            vs = np.linspace(p.lo[v_ax], p.hi[v_ax], per)
            uu, vv = np.meshgrid(us, vs)
            for val in (p.lo[axis], p.hi[axis]):
                face = np.empty((per * per, 3))
                face[:, axis] = val
                face[:, u_ax] = uu.ravel()
                face[:, v_ax] = vv.ravel()
                faces.append(face)
        return np.concatenate(faces, axis=0)
    v = np.asarray(p.vertices)
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    total = lengths.sum()
    out = []
    for i in range(len(v)):
        k = max(int(round(n * lengths[i] / total)), 2)
        t = np.linspace(0.0, 1.0, k, endpoint=False)[:, None]
        out.append(v[i] + t * edges[i])
    return np.concatenate(out, axis=0)


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# Relative padding of the kernel's culling boxes.  Rounding in the membership
# tests (``s <= r**2``, a polygon edge crossing) errs by a few ulps of the
# coordinates, far inside this margin, so a point outside a padded box is
# never inside its primitive.
_BOX_PAD = 1e-9


def _padded_box(p: Primitive) -> tuple[float, ...]:
    box = []
    for lo, hi in zip(*_primitive_bbox(p)):
        pad = _BOX_PAD * max(abs(lo), abs(hi))
        box.extend((float(lo - pad), float(hi + pad)))
    return tuple(box)


@dataclass(frozen=True, eq=False)
class Region:
    """A finite union of primitives sharing one ambient dimension."""

    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        prims = tuple(self.primitives)
        object.__setattr__(self, "primitives", prims)
        if not prims:
            raise ValueError("region needs at least one primitive")
        dims = {p.dim for p in prims}
        if len(dims) != 1:
            raise ValueError("all primitives must share one dimension")
        dim = dims.pop()
        if any(isinstance(p, Polygon) for p in prims) and dim != 2:
            raise ValueError("polygons are 2-D only")
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_boxes", tuple(_padded_box(p) for p in prims))
        los, his = zip(*(_primitive_bbox(p) for p in prims))
        object.__setattr__(self, "_bbox", (np.min(los, axis=0), np.max(his, axis=0)))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self._bbox

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim})")
        return kernels.contains_many(self.primitives, self._boxes, pts)

    def contains(self, p) -> bool:
        q = as_point(p, self.dim)
        return bool(self.contains_many(q[None, :])[0])

    def contains_interior(self, p) -> bool:
        """Membership in the union of the primitives' interiors (strict tests)."""
        q = as_point(p, self.dim)
        return bool(kernels.contains_many(tuple(map(_as_open, self.primitives)), self._boxes, q[None, :])[0])

    def measure(self) -> float:
        return self.measure_detail()[0]

    def measure_detail(self) -> tuple[float, float, str]:
        """(value, standard error, method); stderr is 0 for exact paths.

        The result is memoized: overlap terms and Monte Carlo passes run once
        per region.
        """
        return _cached(self, "_measure_cache", self._measure_detail_uncached)

    def _measure_detail_uncached(self) -> tuple[float, float, str]:
        prims = self.primitives
        if len(prims) == 1:
            return _primitive_measure(prims[0]), 0.0, "exact"
        overlaps = []
        exact_ok = True
        for i in range(len(prims)):
            for j in range(i + 1, len(prims)):
                kind = _pair_overlap_kind(prims[i], prims[j])
                if kind == "disjoint":
                    continue
                if kind == "unknown":
                    exact_ok = False
                overlaps.append((i, j, kind))
        if exact_ok and not _has_triple_bbox_overlap(prims, overlaps):
            total = sum(_primitive_measure(p) for p in prims)
            for i, j, kind in overlaps:
                total -= _pair_overlap_measure(prims[i], prims[j], kind)
            method = "inclusion-exclusion" if overlaps else "disjoint-sum"
            return total, 0.0, method
        return self._measure_mc()

    def _measure_mc(self, n: int = 2_000_000) -> tuple[float, float, str]:
        lo, hi = self._bbox
        vol_box = float(np.prod(hi - lo))
        rng = np.random.Generator(np.random.PCG64(_MEASURE_SEED))
        hits = 0
        for _ in range(4):
            pts = lo + rng.random((n // 4, self.dim)) * (hi - lo)
            hits += int(self.contains_many(pts).sum())
        p = hits / n
        value = p * vol_box
        stderr = vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / n)
        return value, stderr, "monte-carlo"

    def transformed(self, h: Similarity) -> "Region":
        """Image of the region under a similarity (rects may become polygons)."""
        out = []
        for p in self.primitives:
            if isinstance(p, Ball):
                out.append(Ball(tuple(h(np.asarray(p.center))), h.scale * p.radius, p.closed))
            elif isinstance(p, Rect):
                if p.dim != 2:
                    raise ValueError("3-D box transforms are not supported")
                corners = [
                    (p.lo[0], p.lo[1]),
                    (p.hi[0], p.lo[1]),
                    (p.hi[0], p.hi[1]),
                    (p.lo[0], p.hi[1]),
                ]
                imgs = [tuple(h(np.asarray(c))) for c in corners]
                if _is_axis_aligned(h):
                    xs = [q[0] for q in imgs]
                    ys = [q[1] for q in imgs]
                    out.append(Rect((min(xs), min(ys)), (max(xs), max(ys)), p.closed))
                else:
                    out.append(Polygon(tuple(imgs), p.closed))
            else:
                out.append(Polygon(tuple(tuple(h(np.asarray(v))) for v in p.vertices), p.closed))
        return Region(tuple(out))

    def boundary_samples(self, total: int = DEFAULT_BOUNDARY_SAMPLES) -> np.ndarray:
        """Points sampled on the union's boundary (primitive boundaries minus interior overlaps)."""
        per = max(total // len(self.primitives), 64)
        kept = []
        for i, p in enumerate(self.primitives):
            samples = _primitive_boundary_samples(p, per)
            others = [prim for j, prim in enumerate(self.primitives) if j != i]
            if others:
                mask = ~Region(tuple(_as_open(o) for o in others)).contains_many(samples).astype(bool)
                samples = samples[mask]
            kept.append(samples)
        return np.concatenate(kept, axis=0)


def _cached(owner, attr: str, build: Callable[[], object]):
    """``owner.attr``, built by ``build()`` on first use and kept on the (frozen) owner."""
    value = owner.__dict__.get(attr)
    if value is None:
        value = build()
        object.__setattr__(owner, attr, value)
    return value


def _as_open(p: Primitive) -> Primitive:
    if isinstance(p, Ball):
        return Ball(p.center, p.radius, closed=False)
    if isinstance(p, Rect):
        return Rect(p.lo, p.hi, closed=False)
    return p


def _is_axis_aligned(h: Similarity) -> bool:
    T = np.abs(h.orthogonal)
    return bool(np.all((T > 1.0 - 1e-12) | (T < 1e-12)))


def _dist_point_rect(q: np.ndarray, r: Rect) -> float:
    clamped = np.minimum(np.maximum(q, np.asarray(r.lo)), np.asarray(r.hi))
    return float(np.linalg.norm(q - clamped))


def _pair_overlap_kind(p: Primitive, q: Primitive) -> str:
    """"disjoint", an exact overlap kind ("disk-disk", "box-box"), or "unknown"."""
    if isinstance(p, Ball) and isinstance(q, Ball):
        d = float(np.linalg.norm(np.asarray(p.center) - np.asarray(q.center)))
        if d >= p.radius + q.radius:
            return "disjoint"
        return "disk-disk" if p.dim == 2 else "unknown"
    if isinstance(p, Rect) and isinstance(q, Rect):
        for k in range(p.dim):
            if p.hi[k] <= q.lo[k] or q.hi[k] <= p.lo[k]:
                return "disjoint"
        return "box-box"
    if isinstance(p, Ball) and isinstance(q, Rect) or isinstance(p, Rect) and isinstance(q, Ball):
        ball, rect = (p, q) if isinstance(p, Ball) else (q, p)
        if _dist_point_rect(np.asarray(ball.center), rect) >= ball.radius:
            return "disjoint"
        return "unknown"
    lo1, hi1 = _primitive_bbox(p)
    lo2, hi2 = _primitive_bbox(q)
    if np.any(hi1 <= lo2) or np.any(hi2 <= lo1):
        return "disjoint"
    return "unknown"


def _pair_overlap_measure(p: Primitive, q: Primitive, kind: str) -> float:
    if kind == "disk-disk":
        d = float(np.linalg.norm(np.asarray(p.center) - np.asarray(q.center)))
        return lens_area(p.radius, q.radius, d)
    lo = np.maximum(np.asarray(p.lo), np.asarray(q.lo))
    hi = np.minimum(np.asarray(p.hi), np.asarray(q.hi))
    return float(np.prod(np.maximum(hi - lo, 0.0)))


def _has_triple_bbox_overlap(prims, overlaps) -> bool:
    adj: dict[int, set[int]] = {}
    for i, j, _ in overlaps:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    for i, nbrs in adj.items():
        for j in nbrs:
            if i < j and adj.get(j, set()) & nbrs:
                return True
    return False


def balls_in_region(region: Region, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, list]:
    """Which closed balls, given as ``(P, dim)`` centers and ``(P,)`` radii, lie
    inside the region: ``(ok, directions)``, a bool per ball and per ball the
    direction that refutes it, or None.

    Exact for a ball that one primitive holds (``balls_in_one_primitive``);
    every other ball is checked by sampling (approximate, documented): the
    points ``(r*rho)*d + c`` of the ``_BALL_DIRS`` directions d at each rho of
    ``_BALL_RHOS``, then the center.  A refused ball reports its first missing
    direction at the first rho that misses, or the zero direction when only
    its center misses.
    """
    ok = balls_in_one_primitive(region, centers, radii)
    directions: list = [None] * len(radii)
    rest = np.flatnonzero(~ok)
    if region.dim == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, _BALL_DIRS, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        dirs = _fibonacci_sphere(_BALL_DIRS)
    for lo in range(0, len(rest), _BALL_GROUP):
        group = rest[lo:lo + _BALL_GROUP]
        c = centers[group]
        pts = (radii[group][:, None] * np.asarray(_BALL_RHOS))[:, :, None, None] * dirs + c[:, None, None, :]
        inside = region.contains_many(pts.reshape(-1, region.dim)).reshape(len(group), len(_BALL_RHOS), _BALL_DIRS)
        missed = inside.min(axis=2) == 0  # (ball, rho): some direction misses
        first = inside[np.arange(len(group)), missed.argmax(axis=1)].argmin(axis=1)
        ok[group] = ~missed.any(axis=1) & region.contains_many(c).astype(bool)
        for i, miss, j in zip(group.tolist(), missed.any(axis=1).tolist(), first.tolist()):
            if not ok[i]:
                directions[i] = tuple(dirs[j] if miss else dirs[0] * 0.0)
    return ok, directions


def balls_in_one_primitive(region: Region, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Which closed balls, given as ``(P, dim)`` centers and ``(P,)`` radii,
    lie inside a single primitive of the region: exact, a bool per ball."""
    held = np.zeros(len(radii), dtype=bool)
    for p in region.primitives:
        held |= _balls_in_primitive(p, centers, radii)
    return held


def _balls_in_primitive(p: Primitive, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    if isinstance(p, Ball):
        reach = np.sqrt(np.square(c - np.asarray(p.center)).sum(axis=1)) + r
        return reach <= p.radius if p.closed else reach < p.radius
    if isinstance(p, Rect):
        lo, hi, r = np.asarray(p.lo), np.asarray(p.hi), r[:, None]
        inside = (lo <= c - r) & (c + r <= hi) if p.closed else (lo < c - r) & (c + r < hi)
        return inside.all(axis=1)
    # a polygon holds the ball when it holds the center and every edge is farther than r
    a = np.asarray(p.vertices)
    ab = np.roll(a, -1, axis=0) - a
    t = np.fmin(np.fmax(((c[:, None, :] - a) * ab).sum(axis=2) / (ab * ab).sum(axis=1), 0.0), 1.0)
    edge_dist = np.sqrt(np.square(c[:, None, :] - (a + t[:, :, None] * ab)).sum(axis=2))
    inside = kernels.contains_many((p,), (_padded_box(p),), c).astype(bool)
    return inside & (edge_dist.min(axis=1) > r)


@dataclass(frozen=True, eq=False)
class MarkedSet:
    """A bounded region with a marked interior point.

    ``outer_radius`` is the supremum of distances from the marked point to the
    set; ``inner_radius`` its distance to the complement of the interior.
    Both are exact for single primitives and come from dense boundary sampling
    for composites.
    """

    region: Region
    marked_point: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "marked_point", tuple(float(v) for v in self.marked_point))
        q = as_point(self.marked_point, self.region.dim)
        if not self.region.contains_interior(q):
            raise ValueError("marked point must lie in the interior of the region")
        outer = max(_primitive_max_dist(p, q) for p in self.region.primitives)
        if len(self.region.primitives) == 1:
            inner = _primitive_inner_dist(self.region.primitives[0], q)
        else:
            pts = self.region.boundary_samples(DEFAULT_BOUNDARY_SAMPLES)
            inner = float(np.min(np.linalg.norm(pts - q, axis=1)))
        object.__setattr__(self, "_outer", float(outer))
        object.__setattr__(self, "_inner", float(inner))
        volume, stderr, method = self.region.measure_detail()
        object.__setattr__(self, "_measure", float(volume))
        object.__setattr__(self, "_measure_stderr", float(stderr))
        if not (0.0 < inner <= outer):
            raise ValueError("marked set needs 0 < inner_radius <= outer_radius")

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def outer_radius(self) -> float:
        return self._outer

    @property
    def inner_radius(self) -> float:
        return self._inner

    @property
    def measure(self) -> float:
        return self._measure


def similarity_image_measure(d: MarkedSet, h: Similarity) -> float:
    """Measure of h(D) via the exact scaling law k^n * m(D); never re-integrates."""
    if h.dim != d.dim:
        raise ValueError("similarity and marked set dimensions differ")
    return h.scale**d.dim * d.measure


@dataclass(frozen=True)
class RadialProfile:
    """Monotone profile r -> m(D ∩ B(p, r)) for an unbounded-support set D."""

    profile: Callable[[float], float]
    total: float

    def __post_init__(self):
        if not (self.total > 0 and math.isfinite(self.total)):
            raise ValueError("profile total must be positive and finite")


def truncation_radius(p: RadialProfile, t: float, rel_tol: float = 1e-9) -> float:
    """Minimal radius r with t * profile(r) >= total, located by bisection.

    Requires t > 1: at t <= 1 no finite radius can satisfy the condition for a
    set with unbounded support.
    """
    if t <= 1:
        raise ValueError("truncation requires t > 1")
    target = p.total / t
    hi = 1.0
    for _ in range(2000):
        if p.profile(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("profile never reaches total/t; is `total` correct?")
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if p.profile(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# -- JSON round-tripping -----------------------------------------------------
#
# Coordinates are serialized as decimal strings (shortest round-trip repr), so
# a load of a dump reproduces every float bit-exactly.


def _num(x: float) -> str:
    return repr(float(x))


def _primitive_to_json(p: Primitive) -> dict:
    if isinstance(p, Ball):
        return {
            "type": "ball",
            "center": [_num(c) for c in p.center],
            "radius": _num(p.radius),
            "closed": p.closed,
        }
    if isinstance(p, Rect):
        return {
            "type": "rect",
            "lo": [_num(v) for v in p.lo],
            "hi": [_num(v) for v in p.hi],
            "closed": p.closed,
        }
    return {
        "type": "polygon",
        "vertices": [[_num(x), _num(y)] for x, y in p.vertices],
        "closed": p.closed,
    }


def _primitive_from_json(obj: dict) -> Primitive:
    kind = obj.get("type")
    if kind == "ball":
        return Ball(tuple(float(c) for c in obj["center"]), float(obj["radius"]), bool(obj.get("closed", False)))
    if kind == "rect":
        return Rect(
            tuple(float(v) for v in obj["lo"]),
            tuple(float(v) for v in obj["hi"]),
            bool(obj.get("closed", False)),
        )
    if kind == "polygon":
        return Polygon(tuple((float(x), float(y)) for x, y in obj["vertices"]), bool(obj.get("closed", False)))
    raise ValueError(f"unknown primitive type {kind!r}")


def region_to_json(region: Region, marked_point=None) -> dict:
    doc = {
        "dimension": region.dim,
        "primitives": [_primitive_to_json(p) for p in region.primitives],
    }
    if marked_point is not None:
        doc["marked_point"] = [_num(v) for v in marked_point]
    return doc


def region_from_json(doc: dict) -> tuple[Region, tuple[float, ...] | None]:
    if "primitives" not in doc or not doc["primitives"]:
        raise ValueError("region document needs a nonempty 'primitives' list")
    region = Region(tuple(_primitive_from_json(p) for p in doc["primitives"]))
    if int(doc.get("dimension", region.dim)) != region.dim:
        raise ValueError("declared dimension does not match primitives")
    marked = doc.get("marked_point")
    if marked is not None:
        marked = tuple(float(v) for v in marked)
    return region, marked


def load_region(path) -> tuple[Region, tuple[float, ...] | None]:
    with open(path, encoding="utf-8") as fh:
        return region_from_json(json.load(fh))
