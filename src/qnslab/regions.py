"""Composite measurable sets: finite unions of balls, axis rectangles, polygons.

Regions are immutable.  Measure is exact: a closed form for a single
primitive, and Green's theorem over the boundary pieces for every other 2-D
region (``ball_areas``, which also gives the area of a region inside any
disk).  A 3-D union of several primitives has no measure here.  A
``MarkedSet`` adds a marked interior point together with its outer radius
``R_D`` and inner radius ``r_D``.

Containment of a ball is exact when one primitive holds it.  In 2-D every
containment decision (balls, polygons, similarity images, a marked set's
inner radius) is exact, read from the region's boundary pieces, up to a
margin of 1e-9 of its largest coordinate, so tangency is refused.  An edge
that two open primitives share is a slit outside the region, and a seam of
two closed ones is refused conservatively.  A 3-D ball that no single
primitive holds is refused, since no 3-D boundary model certifies it; 3-D
images and 3-D composite marked sets are refused too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels_py as kernels
from .geometry import (Ball, Similarity, SimilarityArray, as_point, chord_segments, lens_angles,
                       unit_ball_volume)


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
        pts = np.asarray(pts, dtype=np.float64)  # any layout: the kernel reads by column
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim})")
        return kernels.contains_many(self.primitives, self._boxes, pts)

    def contains(self, p) -> bool:
        q = as_point(p, self.dim)
        return bool(self.contains_many(q[None, :])[0])

    def measure(self) -> float:
        """The exact measure, memoized: a primitive's closed form, or for a
        2-D union ½∮ over its boundary pieces, the area inside a ball that
        holds them all.  A 3-D union of several primitives is refused."""
        return _cached(self, "_measure_cache", self._measure_uncached)

    def _measure_uncached(self) -> float:
        if len(self.primitives) == 1:
            return _primitive_measure(self.primitives[0])
        if self.dim != 2:
            raise ValueError("a 3-D union of several primitives has no exact measure")
        lo, hi = self._bbox
        return float(ball_areas(self, 0.5 * (lo + hi)[None, :], np.asarray([float(np.hypot(*(hi - lo)))]))[0])

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


def balls_in_region(region: Region, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which closed balls, given as ``(P, dim)`` centers and ``(P,)`` radii, lie
    inside the region: ``(ok, directions)``, a bool per ball and a ``(P, dim)``
    array whose row for a refused ball is a direction that refutes it (zero
    for an admitted ball, when the center misses a 2-D region, or when the
    ball is refused uncertified).

    Exact for a ball that one primitive holds (``balls_in_one_primitive``).
    In 2-D every other ball is inside when its center is in the region and its
    distance to the boundary pieces exceeds its radius by the margin, and is
    refuted by the unit direction to its nearest boundary point.  In 3-D every
    other ball is refused: on a one-primitive region, exactly, with the radial
    direction from a ball's center or the outward normal of a box's nearest
    face; elsewhere with a zero direction, since no boundary model certifies it.
    """
    ok = balls_in_one_primitive(region, centers, radii)
    way = np.zeros(centers.shape)
    rest = np.flatnonzero(~ok)
    if rest.size and region.dim == 3 and len(region.primitives) == 1:
        (p,), c = region.primitives, centers[rest]
        if isinstance(p, Ball):  # zero at the primitive's center
            v = c - np.asarray(p.center)
            way[rest] = v / np.maximum(np.linalg.norm(v, axis=1), np.finfo(float).tiny)[:, None]
        else:  # a box: the face with the least gap, which is negative past it
            gaps = np.concatenate([c - np.asarray(p.lo), np.asarray(p.hi) - c], axis=1).argmin(axis=1)
            way[rest, gaps % 3] = np.where(gaps < 3, -1.0, 1.0)
    elif rest.size and region.dim == 2:
        c = centers[rest]
        dist, near = boundary_distance(region, c)
        inside = region.contains_many(c).astype(bool)
        ok[rest] = inside & (dist > radii[rest] + _margin(region))
        with np.errstate(divide="ignore", invalid="ignore"):
            way[rest] = np.where((~ok[rest] & inside & (dist > 0.0))[:, None], (near - c) / dist[:, None], 0.0)
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
    edge_dist = np.concatenate([_project(c[b, None, :], a, np.roll(a, -1, axis=0) - a)[1].min(axis=1)
                                for b in _row_blocks(len(c), len(a))])
    inside = kernels.contains_many((p,), (_padded_box(p),), c).astype(bool)
    return inside & (edge_dist > r)


# -- the 2-D boundary model ----------------------------------------------------
#
# A region's boundary pieces are the arcs and segments of each primitive's
# boundary, split wherever another primitive's boundary crosses or nears them,
# that no other primitive covers.  They contain the boundary of the union, and
# also any edge that two primitives share (a slit or a seam).

# Containment margin, relative to the region's largest coordinate: rounding in
# mapping a point or in a membership test errs by a few ulps, far inside it.
_MARGIN = 1e-9
_PAIR_BLOCK = 1 << 18  # element or piece pairs per block of an all-pairs test


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


def _circle_meets(c: np.ndarray, r: np.ndarray, c2: np.ndarray, r2: np.ndarray, m: float) -> tuple:
    """Where the circles (c, r) and (c2, r2), row by row, cross or touch, or come
    within m of each other (a near-tangent): ``(rows, points)``, each meeting
    row listed twice, with its two points."""
    v = c2 - c
    d = np.asarray([math.hypot(x, y) for x, y in v.tolist()]).reshape(len(v))
    rows = np.flatnonzero((d != 0.0) & (d <= r + r2 + m) & (d >= np.abs(r - r2) - m))
    v, d, r, r2 = v[rows], d[rows, None], r[rows, None], r2[rows, None]
    along = (d * d + r * r - r2 * r2) / (2.0 * d)
    h = np.sqrt(np.maximum(r * r - along * along, 0.0))
    perp = np.stack([-v[:, 1], v[:, 0]], axis=1)
    return np.tile(rows, 2), np.concatenate([c[rows] + (along * v + s * h * perp) / d for s in (1.0, -1.0)])


def _edge_meets(a: np.ndarray, b: np.ndarray, c: np.ndarray, g: np.ndarray, m: float) -> tuple:
    """Where the edges (a, b) and (c, g), row by row, cross, or where an end of one
    lies within m of the other: ``(rows, points)``, a row per point."""
    ends = [(a, c, g), (b, c, g), (c, a, b), (g, a, b)]
    rows = [np.flatnonzero(_project(q, s, t - s)[1] <= m) for q, s, t in ends]
    points = [q[k] for (q, _, _), k in zip(ends, rows)]
    den = _cross(b - a, g - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, s = _cross(c - a, g - c) / den, _cross(c - a, b - a) / den
    crossed = np.flatnonzero((den != 0.0) & (0.0 <= t) & (t <= 1.0) & (0.0 <= s) & (s <= 1.0))
    rows.append(crossed)
    points.append(a[crossed] + t[crossed, None] * (b - a)[crossed])
    return np.concatenate(rows), np.concatenate(points)


def _pieces(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The region's boundary pieces, built on first use and kept on the region:
    ``(arcs, segments)``, arcs as rows (center x, center y, radius, start angle,
    sweep) and segments as rows (a x, a y, b x, b y).  Each piece runs with
    its primitive on its left (arcs counter-clockwise, a polygon's edges in
    its counter-clockwise order), so an edge that two primitives share runs
    once each way; of pieces that coincide and run the same way, one is kept."""
    return _cached(region, "_pieces_cache", lambda: _build_pieces(region))


def _build_pieces(region: Region) -> tuple[np.ndarray, np.ndarray]:
    if region.dim != 2:
        raise ValueError("the boundary model is 2-D")
    m = _margin(region)
    # each primitive's circle or edges, as elements in primitive order
    circles, ends, kinds, prims = [], [], [], []
    for n, p in enumerate(region.primitives):
        if isinstance(p, Ball):
            kinds.append(len(circles))
            circles.append((*p.center, p.radius))
        else:
            v = np.asarray(_corners(p), dtype=np.float64)
            if isinstance(p, Polygon) and p.signed_area() < 0.0:
                v = v[::-1]
            kinds.extend(~np.arange(len(ends), len(ends) + len(v)))
            ends.extend(np.concatenate([v, np.roll(v, -1, axis=0)], axis=1))
        prims.extend([n] * (len(kinds) - len(prims)))
    kinds = np.asarray(kinds)
    circle_of = np.flatnonzero(kinds >= 0)  # the element of each circle, and of each edge
    edge_of = np.flatnonzero(kinds < 0)
    circles, ends = np.asarray(circles).reshape(-1, 3), np.asarray(ends).reshape(-1, 4)
    owners, points = [np.zeros(0, dtype=int)], [np.zeros((0, 2))]

    def meet(x: np.ndarray, y: np.ndarray, rows: np.ndarray, pts: np.ndarray) -> None:
        # the points where element x[k] meets element y[k] cut both of them
        owners.extend((x[rows], y[rows]))
        points.extend((pts, pts))

    full = np.concatenate([circles, np.tile([0.0, 2.0 * math.pi], (len(circles), 1))], axis=1)
    # only elements whose bounding boxes, padded by m, overlap can meet: the circles, then the edges
    n_c = len(circles)
    lo = np.concatenate([circles[:, :2] - circles[:, 2:], np.minimum(ends[:, :2], ends[:, 2:])]) - m
    hi = np.concatenate([circles[:, :2] + circles[:, 2:], np.maximum(ends[:, :2], ends[:, 2:])]) + m
    for rows in _row_blocks(len(lo), len(lo)):
        i, j = np.nonzero((lo[rows, None] <= hi[None]).all(axis=2) & (lo[None] <= hi[rows, None]).all(axis=2))
        i += rows.start
        i, j = i[j > i], j[j > i]
        cc, ce, ee = j < n_c, (i < n_c) & (j >= n_c), i >= n_c
        c1, c2 = i[cc], j[cc]
        meet(circle_of[c1], circle_of[c2],
             *_circle_meets(circles[c1, :2], circles[c1, 2], circles[c2, :2], circles[c2, 2], m))
        c, e = i[ce], j[ce] - n_c
        a, ab = ends[e, :2], ends[e, 2:] - ends[e, :2]
        ts = _edge_arc_hits(a, ab, full[c], m)  # (pair, 3)
        hit, n = np.nonzero(~np.isnan(ts))
        meet(edge_of[e], circle_of[c], hit, a[hit] + ts[hit, n, None] * ab[hit])
        e1, e2 = i[ee] - n_c, j[ee] - n_c  # edges of one polygon meet only at their shared ends
        meet(edge_of[e1], edge_of[e2], *_edge_meets(ends[e1, :2], ends[e1, 2:], ends[e2, :2], ends[e2, 2:], m))
    owners, points = np.concatenate(owners), np.concatenate(points)
    arcs, segs, arc_of, seg_of = [], [], [], []  # and the primitive of each piece
    for x, (kind, pts) in enumerate(zip(kinds, _by_owner(owners, points, len(kinds)))):
        if kind >= 0:
            cx, cy, r = circles[kind]
            # an uncut circle is one arc, from angle 0
            angles = sorted(set(np.mod([math.atan2(q[1] - cy, q[0] - cx) for q in pts] or [0.0], 2.0 * math.pi)))
            arcs += [(cx, cy, r, s, w) for s, w in zip(angles, np.diff(angles, append=angles[0] + 2.0 * math.pi))]
            arc_of += [prims[x]] * len(angles)
        else:
            a, b = ends[~kind, :2], ends[~kind, 2:]
            ts = sorted({0.0, 1.0, *(min(max((q - a) @ (b - a) / ((b - a) @ (b - a)), 0.0), 1.0) for q in pts)})
            segs += [(*((1.0 - t0) * a + t0 * b), *((1.0 - t1) * a + t1 * b)) for t0, t1 in zip(ts[:-1], ts[1:])]
            seg_of += [prims[x]] * (len(ts) - 1)
    arcs, segs = np.asarray(arcs).reshape(-1, 5), np.asarray(segs).reshape(-1, 4)
    mids = np.concatenate([_arc_points(arcs, 0.5), 0.5 * (segs[:, :2] + segs[:, 2:])])
    # a midpoint lies on its own primitive's boundary, so no primitive but another holds it with the margin
    covered = np.zeros(len(mids), dtype=bool)
    for p in region.primitives:
        covered |= _balls_in_primitive(p, mids, np.full(len(mids), m))
    kept_arcs, kept_segs = ~covered[:len(arcs)], ~covered[len(arcs):]
    return (_distinct(arcs[kept_arcs], np.asarray(arc_of, dtype=int)[kept_arcs], m),
            _distinct(segs[kept_segs], np.asarray(seg_of, dtype=int)[kept_segs], m))


def _by_owner(owners: np.ndarray, points: np.ndarray, n: int) -> list:
    """The points of each owner 0..n-1, in their order in ``points``: the
    rows ``points[owners == x]`` of each x, grouped by one stable sort."""
    order = np.argsort(owners, kind="stable")
    return np.split(points[order], np.searchsorted(owners[order], np.arange(1, n)))


def _row_blocks(n: int, width: int) -> list:
    """Slices of range(n) whose rows, each against ``width`` others, make at
    most about ``_PAIR_BLOCK`` pairs, so that an all-pairs test stays in
    bounded memory (one slice, possibly empty, when they all fit)."""
    step = max(1, _PAIR_BLOCK // max(width, 1))
    return [slice(s, s + step) for s in range(0, max(n, 1), step)]


def _distinct(rows: np.ndarray, prims: np.ndarray, m: float) -> np.ndarray:
    """The pieces, without those that equal a piece of an earlier primitive
    within m in every column (and so run the same way).  Pieces come in
    primitive order, so a block is compared only with the rows before its
    last primitive."""
    dup = np.zeros(len(rows), dtype=bool)
    for b in _row_blocks(len(rows), len(rows)):
        earlier = rows[:np.searchsorted(prims, prims[b].max(initial=-1))]
        same = (np.abs(rows[b, None] - earlier) <= m).all(axis=2) & (prims[b, None] > prims[:len(earlier)])
        dup[b] = same.any(axis=1)
    return rows[~dup]


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


def radial_bounds(region: Region, centers: np.ndarray, radii: np.ndarray) -> tuple:
    """For the 2-D balls given as ``(P, 2)`` centers and ``(P,)`` radii, the
    distances ``(lo, hi)`` from each center and its membership ``inside``: a
    point nearer its center than lo has the center's membership, and one
    farther than hi lies outside the region.

    lo is the center's distance to the boundary pieces and hi its largest
    distance to them (|c - center| + rho for an arc, the farther end for a
    segment), less and plus a margin: the region's, and at least 1e-9 of the
    ball's |c|_inf + r, so that it dominates the rounding of placing a point
    in the ball and of testing it, however small the ball is.
    """
    arcs, segs = _pieces(region)
    centers, radii = np.asarray(centers, dtype=np.float64), np.asarray(radii, dtype=np.float64)
    m = np.maximum(_margin(region), _MARGIN * (np.abs(centers).max(axis=1, initial=0.0) + radii))
    v = centers[:, None, :] - arcs[:, :2]
    far = np.concatenate([np.hypot(v[..., 0], v[..., 1]) + arcs[:, 2],
                          np.linalg.norm(centers[:, None, :] - segs[:, :2], axis=-1),
                          np.linalg.norm(centers[:, None, :] - segs[:, 2:], axis=-1)], axis=1)
    inside = region.contains_many(centers).astype(bool)
    return boundary_distance(region, centers)[0] - m, far.max(axis=1, initial=0.0) + m, inside


def ball_areas(region: Region, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """area(B_i ∩ region) for the 2-D balls B_i given as ``(P, 2)`` centers and
    ``(P,)`` radii, by Green's theorem: ½∮(x dy - y dx), in coordinates
    relative to each ball's center, over the boundary of B_i ∩ region.

    That boundary is the part of each boundary piece inside the ball (an arc
    clips to at most two sub-arcs of its sweep, a segment to one sub-segment),
    and the arcs of the ball's circle between its crossings with the pieces
    whose midpoint lies in the region (one ``contains_many`` call; a circle
    with no crossing is tested at one point).  Touching within the margin
    counts as crossing, and a piece on the ball's own circle counts in place
    of the ball's arcs on it.  Every arc adds the triangle on its chord plus
    its circular segment, and the triangles are summed apart from the
    segments, so for a disk the result is ``lens_area``'s sum of two
    segments, to a few ulps.
    """
    arcs, segs = _pieces(region)
    m = _margin(region)
    centers, r = np.asarray(centers, dtype=np.float64), np.asarray(radii, dtype=np.float64)[:, None]
    # -- arcs: the circle of each arc meets the ball's in the chord of lens_angles
    v = arcs[:, :2] - centers[:, None, :]  # arc centers relative to ball centers, (P, A, 2)
    d = np.hypot(v[..., 0], v[..., 1])
    rho, start, sweep = arcs[:, 2], arcs[:, 3], arcs[:, 4]
    beta, gamma, h, x = lens_angles(r, rho, d)
    own = (d <= m) & (np.abs(r - rho) <= m)
    near = ~own & (d >= np.abs(r - rho) - m) & (d <= r + rho + m)
    held = own | ~near & (d < r - rho)  # the whole circle inside the ball, or on its circle
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / d[..., None]
    w = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    # the crossings at angles psi -+ beta on the ball's circle, psi the direction of the arc center
    p_minus, p_plus = x[..., None] * u - h[..., None] * w, x[..., None] * u + h[..., None] * w
    # the arc's part inside the ball runs from p_plus to p_minus: offsets [lo, hi] from its start, mod 2 pi
    lo = np.mod(np.arctan2(v[..., 1], v[..., 0]) + math.pi - gamma - start, 2.0 * math.pi)
    lo = np.where(sweep >= 2.0 * math.pi, 0.0, lo)  # a whole circle starts where the part does
    hi = np.where(held, np.inf, lo + 2.0 * gamma)
    first, wraps = near & (lo <= sweep), (near | held) & (hi > 2.0 * math.pi)
    ends1, ends2 = first & (hi <= sweep), wraps & (hi - 2.0 * math.pi <= sweep)  # at p_minus
    whole = held & (sweep >= 2.0 * math.pi)  # a whole circle in the ball adds pi rho^2, with no triangle
    e0 = v + rho[:, None] * np.stack([np.cos(start), np.sin(start)], axis=1)
    e1 = v + rho[:, None] * np.stack([np.cos(start + sweep), np.sin(start + sweep)], axis=1)
    tri = [np.where(first, _cross(p_plus, np.where(ends1[..., None], p_minus, e1)), 0.0),
           np.where(wraps & ~whole, _cross(e0, np.where(ends2[..., None], p_minus, e1)), 0.0)]
    seg = [np.where(first, chord_segments(rho, np.where(ends1, 2.0 * gamma, sweep - lo)), 0.0),
           np.where(whole, math.pi * rho * rho,
                    np.where(wraps, chord_segments(rho, np.minimum(hi - 2.0 * math.pi, sweep)), 0.0))]
    # -- segments: the part inside the ball is [t1, t2] of a + t*ab, clipped to [0, 1]
    a = segs[:, :2] - centers[:, None, :]
    ab = segs[:, 2:] - segs[:, :2]
    dd = (ab * ab).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a piece between cuts an ulp apart is a point: nan, no part
        foot = -(a * ab).sum(axis=-1) / dd
        root = np.sqrt(np.maximum(foot * foot - ((a * a).sum(axis=-1) - r * r) / dd, 0.0))
        off = _cross(ab, a) / np.sqrt(dd)  # the line's distance from the center, toward the segment's primitive
    t1, t2 = foot - root, foot + root
    inside = (np.abs(off) <= r + m) & (t1 <= 1.0) & (t2 >= 0.0)
    q1 = a + np.maximum(t1, 0.0)[..., None] * ab
    q2 = a + np.minimum(t2, 1.0)[..., None] * ab
    tri.append(np.where(inside, _cross(q1, q2), 0.0))
    # -- the ball's circle, cut at the crossings: an arc from column 2k to 2k + 1 of the
    # pair spans 2 * half[k] (from p_minus to p_plus of an arc, from the exit to the entry of a segment)
    n_cuts = 2 * (len(arcs) + len(segs))
    cuts = np.concatenate([np.stack([p_minus, p_plus], axis=2), np.stack([q2, q1], axis=2)], axis=1)
    cuts = cuts.reshape(len(r), n_cuts, 2)
    cut = np.concatenate([np.stack([ends1 | ends2, first], axis=2),
                          np.stack([inside & (t2 <= 1.0), inside & (t1 >= 0.0)], axis=2)], axis=1)
    cut = cut.reshape(len(r), n_cuts)
    half = np.concatenate([beta, np.arctan2(root * np.sqrt(dd), off)], axis=1)
    theta = np.where(cut, np.arctan2(cuts[..., 1], cuts[..., 0]), np.inf)
    col = np.argsort(theta, axis=1, kind="stable")
    theta = np.take_along_axis(theta, col, axis=1)
    cuts = np.take_along_axis(cuts, col[..., None], axis=1)
    n = cut.sum(axis=1)[:, None]
    k = np.arange(n_cuts)
    nxt = np.where(k + 1 < n, k + 1, 0)
    valid = k < n
    with np.errstate(invalid="ignore"):
        width = np.take_along_axis(theta, nxt, axis=1) - theta + np.where(k + 1 < n, 0.0, 2.0 * math.pi)
    pair = 2.0 * np.take_along_axis(half, col // 2, axis=1)
    pair_next = (col % 2 == 0) & (np.take_along_axis(col, nxt, axis=1) == col + 1)
    width = np.where(pair_next & (pair < math.pi), pair, width)  # the accurate width of a thin lens or cap
    width[~valid] = 0.0
    # which of the ball's arcs (a whole circle when there is no cut) lie in the region: those whose
    # midpoint the region holds, except on a piece of the ball's own circle, which counts instead
    ball, arc = np.nonzero(k < np.maximum(n, 1))
    mid = np.where(n > 0, theta + 0.5 * width, 0.0)[ball, arc]
    held_arc = np.zeros(cut.shape, dtype=bool)
    held_arc[ball, arc] = region.contains_many(
        centers[ball] + r[ball] * np.stack([np.cos(mid), np.sin(mid)], axis=1)).astype(bool) & ~(
        own[ball] & (np.mod(mid[:, None] - start, 2.0 * math.pi) <= sweep)).any(axis=1)
    on = held_arc & valid
    tri.append(np.where(on, _cross(cuts, np.take_along_axis(cuts, nxt[..., None], axis=1)), 0.0))
    seg.append(np.where(on, chord_segments(r, width), 0.0))
    seg.append(np.where((n == 0) & held_arc[:, :1], math.pi * r * r, 0.0))
    return 0.5 * sum(t.sum(axis=1) for t in tri) + sum(t.sum(axis=1) for t in seg)


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
    2-D its distance to the boundary pieces.  Both are exact, and so is the
    measure; a 3-D marked set must be a single ball or box, since a 3-D union
    has neither an inner radius nor a measure here.
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
        object.__setattr__(self, "_measure", self.region.measure())
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
