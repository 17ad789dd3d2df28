"""Composite measurable sets: finite unions of balls, axis rectangles, polygons.

Regions are immutable.  Measure uses closed forms for single primitives,
inclusion-exclusion for certified pairwise overlaps (disk-disk, box-box), and
seeded Monte Carlo otherwise.  A ``MarkedSet`` adds a marked interior point
together with its outer radius ``R_D`` and inner radius ``r_D``.

Containment of a ball is exact when one primitive holds it.  In 2-D every
containment decision (balls, polygons, similarity images, a marked set's
inner radius) is exact, read from the region's boundary pieces, up to a
margin of 1e-9 of its largest coordinate, so tangency is refused.  An edge
that two open primitives share is a slit outside the region, and a seam of
two closed ones is refused conservatively.  A 3-D ball that no single
primitive holds is checked by sampling; 3-D images and 3-D composite marked
sets are refused.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels_py as kernels
from .geometry import Ball, Similarity, SimilarityArray, as_point, lens_area, unit_ball_volume

# The sampled 3-D check of balls_in_region: boundary directions, the multiples
# of the radius they are tested at, and the balls per membership call, which
# keep a large probe array's points to a few MB at a time.
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


def _primitive_inner_dist(p: Primitive, q: np.ndarray) -> float:
    """Distance from an interior point q to the boundary of a ball or box (< 0 if outside-ish)."""
    if isinstance(p, Ball):
        return p.radius - float(np.linalg.norm(q - np.asarray(p.center)))
    return min(min(q[k] - p.lo[k], p.hi[k] - q[k]) for k in range(p.dim))


def _corners(p: Primitive) -> list:
    """Corners of a 2-D rect, or a polygon's vertices, in loop order."""
    if isinstance(p, Rect):
        return [(p.lo[0], p.lo[1]), (p.hi[0], p.lo[1]), (p.hi[0], p.hi[1]), (p.lo[0], p.hi[1])]
    return list(p.vertices)


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
                continue
            if p.dim != 2:
                raise ValueError("3-D box transforms are not supported")
            imgs = [tuple(h(np.asarray(c))) for c in _corners(p)]
            if isinstance(p, Rect) and _is_axis_aligned(h):
                xs = [q[0] for q in imgs]
                ys = [q[1] for q in imgs]
                out.append(Rect((min(xs), min(ys)), (max(xs), max(ys)), p.closed))
            else:
                out.append(Polygon(tuple(imgs), p.closed))
        return Region(tuple(out))


def _cached(owner, attr: str, build: Callable[[], object]):
    """``owner.attr``, built by ``build()`` on first use and kept on the (frozen) owner."""
    value = owner.__dict__.get(attr)
    if value is None:
        value = build()
        object.__setattr__(owner, attr, value)
    return value


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


def balls_in_region(region: Region, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which closed balls, given as ``(P, dim)`` centers and ``(P,)`` radii, lie
    inside the region: ``(ok, directions)``, a bool per ball and a ``(P, dim)``
    array whose row for a refused ball is a direction that refutes it (zero
    for an admitted ball, or when the center misses).

    Exact for a ball that one primitive holds (``balls_in_one_primitive``).
    In 2-D every other ball is inside when its center is in the region and its
    distance to the boundary pieces exceeds its radius by the margin, and is
    refuted by the unit direction to its nearest boundary point.  In 3-D every
    other ball is checked by sampling (approximate, documented): the points
    ``(r*rho)*d + c`` of the ``_BALL_DIRS`` directions d at each rho of
    ``_BALL_RHOS``, then the center; it is refuted by its first missing
    direction at the first rho that misses.
    """
    ok = balls_in_one_primitive(region, centers, radii)
    way = np.zeros(centers.shape)
    rest = np.flatnonzero(~ok)
    if rest.size and region.dim == 2:
        c = centers[rest]
        dist, near = boundary_distance(region, c)
        inside = region.contains_many(c).astype(bool)
        ok[rest] = inside & (dist > radii[rest] + _margin(region))
        with np.errstate(divide="ignore", invalid="ignore"):
            way[rest] = np.where((~ok[rest] & inside & (dist > 0.0))[:, None], (near - c) / dist[:, None], 0.0)
    elif rest.size:
        dirs = _fibonacci_sphere(_BALL_DIRS)
        for lo in range(0, len(rest), _BALL_GROUP):
            group = rest[lo:lo + _BALL_GROUP]
            c = centers[group]
            pts = (radii[group][:, None] * np.asarray(_BALL_RHOS))[:, :, None, None] * dirs + c[:, None, None, :]
            inside = region.contains_many(pts.reshape(-1, region.dim)).reshape(len(group), len(_BALL_RHOS), _BALL_DIRS)
            missed = inside.min(axis=2) == 0  # (ball, rho): some direction misses
            first = inside[np.arange(len(group)), missed.argmax(axis=1)].argmin(axis=1)
            ok[group] = ~missed.any(axis=1) & region.contains_many(c).astype(bool)
            way[group] = np.where(missed.any(axis=1)[:, None], dirs[first], 0.0)
    return ok, way


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
    edge_dist = _project(c[:, None, :], a, np.roll(a, -1, axis=0) - a)[1]
    inside = kernels.contains_many((p,), (_padded_box(p),), c).astype(bool)
    return inside & (edge_dist.min(axis=1) > r)


# -- the 2-D boundary model ----------------------------------------------------
#
# A region's boundary pieces are the arcs and segments of each primitive's
# boundary, split wherever another primitive's boundary crosses or nears them,
# that no other primitive covers.  They contain the boundary of the union, and
# also any edge that two primitives share (a slit or a seam).

# Containment margin, relative to the region's largest coordinate: rounding in
# mapping a point or in a membership test errs by a few ulps, far inside it.
_MARGIN = 1e-9


def _margin(region: Region) -> float:
    return _MARGIN * float(np.max(np.abs(region.bbox)))


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _project(pts: np.ndarray, a: np.ndarray, ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest points to ``pts`` of the segments a + t*ab, t in [0, 1], and their distances."""
    t = np.clip(((pts - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    near = a + t[..., None] * ab
    return near, np.linalg.norm(pts - near, axis=-1)


def _on_sweep(v: np.ndarray, start, sweep) -> np.ndarray:
    """Whether the directions v from arcs' centers lie on their sweeps."""
    return np.mod(np.arctan2(v[..., 1], v[..., 0]) - start, 2.0 * math.pi) <= sweep


def _edge_arc_hits(a: np.ndarray, ab: np.ndarray, arcs: np.ndarray, m: float) -> np.ndarray:
    """Parameters t in [0, 1] at which the edges a + t*ab cross the arcs or come
    within m of them: the two line-circle crossings and the foot of the arc's
    center, each on the arc's sweep.  Shape (..., A, 3), nan for a miss."""
    f = a - arcs[:, :2]  # (..., A, 2)
    dd = (ab * ab).sum(axis=-1)
    foot = -(f * ab).sum(axis=-1) / dd
    with np.errstate(invalid="ignore"):
        root = np.sqrt(foot * foot - ((f * f).sum(axis=-1) - arcs[:, 2] ** 2) / dd)
    t = np.stack([foot - root, foot + root, foot], axis=-1)
    pt = f[..., None, :] + t[..., None] * ab[..., None, :]  # relative to the center
    tol = m / np.sqrt(dd)[..., None]
    hit = (t >= -tol) & (t <= 1.0 + tol) & (np.abs(np.linalg.norm(pt, axis=-1) - arcs[:, 2:3]) <= m)
    return np.where(hit & _on_sweep(pt, arcs[:, 3:4], arcs[:, 4:5]), np.clip(t, 0.0, 1.0), np.nan)


def _arc_points(arcs: np.ndarray, fraction: float) -> np.ndarray:
    """The point of each arc at the given fraction of its sweep."""
    t = arcs[:, 3] + fraction * arcs[:, 4]
    return arcs[:, :2] + arcs[:, 2:3] * np.stack([np.cos(t), np.sin(t)], axis=1)


def _meet(e: tuple, f: tuple, m: float) -> list:
    """Points where two boundary elements, each a circle ``(center, radius)``
    or an edge ``(a, b)``, cross or touch, or come within m of each other (a
    near-tangent, or an end of an edge near the other element)."""
    if np.ndim(e[1]) > np.ndim(f[1]):
        e, f = f, e  # a circle first
    if np.ndim(f[1]) == 0:  # two circles
        (c, r), (c2, r2) = e, f
        v = c2 - c
        d = math.hypot(*v)
        if d == 0.0 or d > r + r2 + m or d < abs(r - r2) - m:
            return []
        along = (d * d + r * r - r2 * r2) / (2.0 * d)
        h = math.sqrt(max(r * r - along * along, 0.0))
        return [c + (along * v + s * h * np.array([-v[1], v[0]])) / d for s in (1.0, -1.0)]
    if np.ndim(e[1]) == 0:  # a circle and an edge
        (c, r), (a, b) = e, f
        ts = _edge_arc_hits(a, b - a, np.array([[*c, r, 0.0, 2.0 * math.pi]]), m).ravel()
        return [a + t * (b - a) for t in ts[~np.isnan(ts)]]
    (a, b), (c, g) = e, f  # two edges
    near = [q for q, (s, t) in ((a, (c, g)), (b, (c, g)), (c, (a, b)), (g, (a, b)))
            if _project(q, s, t - s)[1] <= m]
    den = _cross(b - a, g - c)
    if den != 0.0:
        t, s = _cross(c - a, g - c) / den, _cross(c - a, b - a) / den
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            near.append(a + t * (b - a))
    return near


def _pieces(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The region's boundary pieces, built on first use and kept on the region:
    ``(arcs, segments)``, arcs as rows (center x, center y, radius, start angle,
    sweep) and segments as rows (a x, a y, b x, b y)."""
    return _cached(region, "_pieces_cache", lambda: _build_pieces(region))


def _build_pieces(region: Region) -> tuple[np.ndarray, np.ndarray]:
    if region.dim != 2:
        raise ValueError("the boundary model is 2-D")
    m = _margin(region)
    elements = []  # each primitive's circle or edges
    for p in region.primitives:
        if isinstance(p, Ball):
            elements.append((np.asarray(p.center), p.radius))
        else:
            v = np.asarray(_corners(p), dtype=np.float64)
            elements.extend(zip(v, np.roll(v, -1, axis=0)))
    cuts = [[] for _ in elements]
    for (x, e), (y, f) in itertools.combinations(enumerate(elements), 2):
        pts = _meet(e, f, m)  # edges of one polygon meet only at their shared ends
        cuts[x] += pts
        cuts[y] += pts
    arcs, segs = [], []
    for e, pts in zip(elements, cuts):
        if np.ndim(e[1]) == 0:
            (cx, cy), r = e
            # an uncut circle is one arc, from angle 0
            angles = sorted(set(np.mod([math.atan2(q[1] - cy, q[0] - cx) for q in pts] or [0.0], 2.0 * math.pi)))
            arcs += [(cx, cy, r, s, w) for s, w in zip(angles, np.diff(angles, append=angles[0] + 2.0 * math.pi))]
        else:
            a, b = e
            ts = sorted({0.0, 1.0, *(min(max((q - a) @ (b - a) / ((b - a) @ (b - a)), 0.0), 1.0) for q in pts)})
            segs += [(*((1.0 - t0) * a + t0 * b), *((1.0 - t1) * a + t1 * b)) for t0, t1 in zip(ts[:-1], ts[1:])]
    arcs, segs = np.asarray(arcs).reshape(-1, 5), np.asarray(segs).reshape(-1, 4)
    mids = np.concatenate([_arc_points(arcs, 0.5), 0.5 * (segs[:, :2] + segs[:, 2:])])
    # a midpoint lies on its own primitive's boundary, so no primitive but another holds it with the margin
    covered = np.zeros(len(mids), dtype=bool)
    for p in region.primitives:
        covered |= _balls_in_primitive(p, mids, np.full(len(mids), m))
    return arcs[~covered[:len(arcs)]], segs[~covered[len(arcs):]]


def boundary_distance(region: Region, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of the ``(N, 2)`` points, its distance to the region's boundary
    pieces and the nearest point of them, ``(dist, nearest)``: on an arc the
    radial foot if it lies on the sweep, else the nearer end; on a segment the
    clamped projection."""
    arcs, segs = _pieces(region)
    pts = np.asarray(pts, dtype=np.float64)[:, None, :]
    v = pts - arcs[:, :2]  # (N, A, 2)
    rho = np.linalg.norm(v, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        feet = arcs[:, :2] + (arcs[:, 2] / rho)[..., None] * v
    ends = np.concatenate([_arc_points(arcs, 0.0), _arc_points(arcs, 1.0)])
    near = np.concatenate([feet, np.broadcast_to(ends, (len(pts), *ends.shape)),
                           _project(pts, segs[:, :2], segs[:, 2:] - segs[:, :2])[0]], axis=1)
    dist = np.linalg.norm(pts - near, axis=-1)
    dist[:, :len(arcs)][~_on_sweep(v, arcs[:, 3], arcs[:, 4]) | (rho == 0.0)] = np.inf  # a foot off its arc
    rows, best = np.arange(len(dist)), dist.argmin(axis=1)
    return dist[rows, best], near[rows, best]


def polygons_in_region(region: Region, verts: np.ndarray) -> np.ndarray:
    """Which closed polygons, given as ``(P, V, 2)`` vertex loops, lie inside the
    2-D region: exact up to the margin, a bool per polygon.

    A polygon is inside when its vertices lie in the region farther than the
    margin from the boundary pieces, no piece end lies inside it (even-odd
    rule) or within the margin of an edge, no edge crosses or nears an arc
    (``_edge_arc_hits``) and no edge crosses a segment.
    """
    verts = np.asarray(verts, dtype=np.float64)
    m = _margin(region)
    arcs, segs = _pieces(region)
    flat = verts.reshape(-1, 2)
    ok = region.contains_many(flat).astype(bool) & (boundary_distance(region, flat)[0] > m)
    ok = ok.reshape(verts.shape[:2]).all(axis=1)
    a = verts[:, :, None, :]  # (P, V, 1, 2): edge k runs from a to a + ab
    ab = np.roll(verts, -1, axis=1)[:, :, None, :] - a
    ends = np.concatenate([_arc_points(arcs, 0.0), _arc_points(arcs, 1.0), segs[:, :2], segs[:, 2:]])
    ok &= ~kernels.in_polygons(ends, verts).any(axis=1) & ~(_project(ends, a, ab)[1] <= m).any(axis=(1, 2))
    ok &= np.isnan(_edge_arc_hits(a, ab, arcs, m)).all(axis=(1, 2, 3))
    s0, s = segs[:, :2], segs[:, 2:] - segs[:, :2]
    crossed = (_cross(ab, s0 - a) * _cross(ab, s0 + s - a) < 0.0) & (_cross(s, a - s0) * _cross(s, a + ab - s0) < 0.0)
    return ok & ~crossed.any(axis=(1, 2))


def images_in_region(d: Region, omega: Region, probes: SimilarityArray) -> np.ndarray:
    """Which images h_i(D) of a 2-D region D under a probe array lie inside the
    2-D region ``omega``, a bool per probe: a ball of D maps to a ball
    (``balls_in_region``), a rect or polygon of D to the polygon of its mapped
    corners (``polygons_in_region``).
    """
    if d.dim != 2 or omega.dim != 2:
        raise ValueError("image containment is 2-D")
    ok = np.ones(len(probes), dtype=bool)
    for p in d.primitives:
        if isinstance(p, Ball):
            ok &= balls_in_region(omega, probes.apply_many(np.asarray([p.center]))[:, 0], probes.scale * p.radius)[0]
        else:
            ok &= polygons_in_region(omega, probes.apply_many(np.asarray(_corners(p), dtype=np.float64)))
    return ok


@dataclass(frozen=True, eq=False)
class MarkedSet:
    """A bounded region with a marked interior point.

    ``outer_radius`` is the supremum of distances from the marked point to the
    set; ``inner_radius`` its distance to the complement of the interior, in
    2-D its distance to the boundary pieces.  Both are exact; a 3-D marked
    set must be a single ball or box.
    """

    region: Region
    marked_point: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "marked_point", tuple(float(v) for v in self.marked_point))
        q = as_point(self.marked_point, self.region.dim)
        if not self.region.contains(q):
            raise ValueError("marked point must lie in the interior of the region")
        outer = max(_primitive_max_dist(p, q) for p in self.region.primitives)
        if self.region.dim == 2:
            inner = float(boundary_distance(self.region, q[None, :])[0][0])
        elif len(self.region.primitives) == 1:
            inner = _primitive_inner_dist(self.region.primitives[0], q)
        else:
            raise ValueError("a 3-D marked set must be a single ball or box")
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
