"""The membership kernel: culled, copy-free masks equal the plain reference kernel's bit for bit."""

import math

import numpy as np
import pytest

from qnslab import _kernels_py
from qnslab.fields import indicator_field
from qnslab.geometry import Ball, Similarity
from qnslab.quadrature import QuadratureSpec, mean_over_ball
from qnslab.regions import Polygon, Rect, Region, _primitive_bbox


def reference_contains_many(primitives, pts):
    """The kernel before culling: every primitive on every point not yet inside."""
    n, dim = pts.shape
    out = np.zeros(n, dtype=np.uint8)
    for p in primitives:
        todo = out == 0
        if not todo.any():
            break
        if todo.all():
            todo = slice(None)  # skip the fancy-index copy on untouched masks
        sub = pts[todo]
        if isinstance(p, Ball):
            d = sub[:, 0] - p.center[0]
            s = d * d
            for k in range(1, dim):
                d = sub[:, k] - p.center[k]
                s += d * d
            r2 = p.radius * p.radius
            hit = s <= r2 if p.closed else s < r2
        elif isinstance(p, Rect):
            hit = np.ones(sub.shape[0], dtype=bool)
            for k in range(dim):
                lo = p.lo[k]
                hi = p.hi[k]
                if p.closed:
                    hit &= (lo <= sub[:, k]) & (sub[:, k] <= hi)
                else:
                    hit &= (lo < sub[:, k]) & (sub[:, k] < hi)
        else:
            v = p.vertices
            px = sub[:, 0]
            py = sub[:, 1]
            hit = np.zeros(sub.shape[0], dtype=bool)
            j = len(v) - 1
            with np.errstate(divide="ignore", invalid="ignore"):
                for i in range(len(v)):
                    xi, yi = v[i]
                    xj, yj = v[j]
                    cond = (yi > py) != (yj > py)
                    cross = px < (xj - xi) * (py - yi) / (yj - yi) + xi
                    hit ^= cond & cross
                    j = i
        out[todo] |= hit.astype(np.uint8)
    return out


def reference_kernel(primitives, boxes, pts):
    """The reference under the kernel's signature; it ignores the boxes."""
    return reference_contains_many(primitives, pts)


RING = tuple(Ball((math.cos(t), math.sin(t)), 0.5) for t in np.linspace(0, 2 * math.pi, 10, endpoint=False))
GON = Polygon(tuple((math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 24, endpoint=False)))
NAMED_REGIONS = {
    "single-ball": Region((Ball((0.0, 0.0), 1.0),)),
    "10-ball-ring": Region(RING),
    "ball-rect-24-gon": Region((Ball((0.0, 0.0), 1.0), Rect((-1.0, -1.0), (1.0, 1.0)), GON)),
}


def random_region(rng, dim):
    prims = []
    for _ in range(rng.integers(1, 6)):
        kind = rng.integers(0, 3 if dim == 2 else 2)
        closed = bool(rng.integers(0, 2))
        center = rng.normal(scale=2.0, size=dim)
        if kind == 0:
            prims.append(Ball(tuple(center), float(rng.uniform(0.2, 1.5)), closed=closed))
        elif kind == 1:
            prims.append(Rect(tuple(center), tuple(center + rng.uniform(0.2, 2.0, size=dim)), closed=closed))
        else:
            n = int(rng.integers(3, 9))
            theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
            radius = rng.uniform(0.3, 1.5, size=n)  # star-shaped about center, so the loop is simple
            verts = [(center[0] + r * math.cos(t), center[1] + r * math.sin(t)) for r, t in zip(radius, theta)]
            prims.append(Polygon(tuple(verts), closed=closed))
    return Region(tuple(prims))


def boundary_points(region):
    """Exact boundary points, vertices and unpadded box corners of every primitive."""
    pts = []
    for p in region.primitives:
        if isinstance(p, Ball):
            c = np.asarray(p.center)
            for k in range(p.dim):
                e = np.zeros(p.dim)
                e[k] = p.radius
                pts.extend((c + e, c - e))
            pts.append(c + p.radius / math.sqrt(p.dim))
        elif isinstance(p, Rect):
            lo, hi = np.asarray(p.lo), np.asarray(p.hi)
            mid = 0.5 * (lo + hi)
            pts.extend((lo, hi))
            for k in range(p.dim):
                for v in (lo[k], hi[k]):
                    q = mid.copy()
                    q[k] = v
                    pts.append(q)
        else:
            v = np.asarray(p.vertices)
            pts.extend(v)
            pts.extend(0.5 * (v + np.roll(v, -1, axis=0)))
            lo, hi = v.min(axis=0), v.max(axis=0)
            pts.extend(((lo[0], hi[1]), (hi[0], lo[1])))
    return np.asarray(pts, dtype=np.float64)


def near_boundary_points(region):
    """Boundary points, their nextafter neighbours on every axis, and points just past each unpadded box."""
    base = boundary_points(region)
    out = [base]
    for k in range(region.dim):
        for toward in (-np.inf, np.inf):
            q = base.copy()
            q[:, k] = np.nextafter(q[:, k], toward)
            out.append(q)
    for p in region.primitives:
        lo, hi = (np.asarray(a, dtype=np.float64) for a in _primitive_bbox(p))
        mid = 0.5 * (lo + hi)
        for k in range(region.dim):
            for edge, toward in ((lo[k], -np.inf), (hi[k], np.inf)):
                for step in (np.nextafter(edge, toward), edge + (edge - mid[k]) * 1e-12, edge + (edge - mid[k]) * 1e-6):
                    q = mid.copy()
                    q[k] = step
                    out.append(q[None, :])
    return np.ascontiguousarray(np.concatenate(out, axis=0))


def assert_matches_reference(region, pts):
    want = reference_contains_many(region.primitives, pts)
    got = region.contains_many(pts)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)


class TestFallbackKernel:
    def test_ball_membership(self):
        region = Region((Ball((0.0, 0.0), 1.0),))
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [2.0, 0.0]])
        assert region.contains_many(pts).tolist() == [1, 1, 0, 0]

    def test_closed_boundary(self):
        region = Region((Ball((0.0, 0.0), 1.0, closed=True),))
        assert region.contains_many(np.array([[1.0, 0.0]]))[0] == 1

    def test_polygon_even_odd(self):
        region = Region((Polygon(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))),))
        pts = np.array([[1.0, 1.0], [3.0, 1.0], [-0.5, 1.0]])
        assert region.contains_many(pts).tolist() == [1, 0, 0]


class TestKernelParity:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_regions(self, dim):
        rng = np.random.Generator(np.random.PCG64(99 + dim))
        for _ in range(60):
            region = random_region(rng, dim)
            cloud = rng.normal(scale=float(rng.choice([0.5, 2.0, 6.0])), size=(int(rng.integers(1, 3000)), dim))
            near = near_boundary_points(region)
            pts = np.ascontiguousarray(np.concatenate([cloud, near]))
            assert_matches_reference(region, pts)
            # small batches cull primitives whose padded box misses them
            for q in near:
                assert_matches_reference(region, q[None, :])
            for _ in range(10):
                sub = pts[rng.choice(len(pts), size=int(rng.integers(1, 20)))]
                assert_matches_reference(region, np.ascontiguousarray(sub))

    def test_rotated_and_translated_images(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            region = random_region(rng, 2).transformed(
                Similarity.rotation(float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.1, 5.0)),
                                    tuple(rng.normal(scale=50.0, size=2))))
            pts = np.ascontiguousarray(np.concatenate([near_boundary_points(region),
                                                       region.bbox[0] + rng.random((500, 2)) * (region.bbox[1] - region.bbox[0])]))
            assert_matches_reference(region, pts)
            for q in pts[:200]:
                assert_matches_reference(region, q[None, :])

    @pytest.mark.parametrize("name", NAMED_REGIONS)
    def test_named_regions(self, name):
        region = NAMED_REGIONS[name]
        cloud = np.random.Generator(np.random.PCG64(0)).uniform(-2.0, 2.0, size=(200_000, 2))
        assert_matches_reference(region, np.ascontiguousarray(np.concatenate([cloud, near_boundary_points(region)])))

    def test_indicator_mean_is_bit_identical_under_the_reference(self, monkeypatch):
        omega = Region((Ball((0.0, 0.0), 2.0),))
        chi = indicator_field(Region((Ball((0.0, 0.0), 1.0, closed=True), Rect((0.5, -0.3), (1.6, 0.3)))), omega)
        spec = QuadratureSpec(method="mc", target_rel_error=1e-4, max_samples=200_000, seed=3)
        ball = Ball((0.2, 0.1), 1.5)
        culled = mean_over_ball(chi, ball, spec)
        calls = []
        # the module attribute that Region.contains_many calls
        monkeypatch.setattr(_kernels_py, "contains_many", lambda *args: calls.append(1) or reference_kernel(*args))
        assert mean_over_ball(chi, ball, spec) == culled
        assert culled.n_samples == 200_000 and calls

    @pytest.mark.parametrize("region", [
        Region((Ball((0.0, 0.0), 1.0),)),
        Region((Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),)),
        Region((Ball((0.0, 0.0, 0.0), 1.0), Rect((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)))),
    ])
    def test_empty_points(self, region):
        got = region.contains_many(np.empty((0, region.dim)))
        assert got.dtype == np.uint8 and got.shape == (0,)


class TestCulling:
    def test_primitive_missing_every_point_is_never_evaluated(self, monkeypatch):
        tested = []
        hits = _kernels_py._hits

        def counting(p, sub):
            tested.append(p)
            return hits(p, sub)

        monkeypatch.setattr(_kernels_py, "_hits", counting)
        far = Polygon(((10.0, 10.0), (12.0, 10.0), (11.0, 12.0)))
        region = Region((Ball((0.0, 0.0), 1.0), far, Rect((0.5, -0.5), (3.0, 0.5))))
        prims = region.primitives
        pts = np.random.Generator(np.random.PCG64(1)).uniform(-2.0, 2.0, size=(1000, 2))
        mask = region.contains_many(pts)
        assert not any(p is prims[1] for p in tested)
        assert [id(p) for p in tested] == [id(prims[0]), id(prims[2])]
        assert np.array_equal(mask, reference_contains_many(prims, pts))

    def test_lone_polygon_is_culled(self, monkeypatch):
        tested = []
        monkeypatch.setattr(_kernels_py, "_hits", lambda *args: tested.append(args) or None)
        region = Region((Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),))
        assert region.contains_many(np.array([[2.0, 2.0], [3.0, -1.0]])).tolist() == [0, 0]
        assert tested == []

    def test_padded_boxes_hold_the_primitives(self):
        region = Region((Ball((1e6, -2.0), 1e-3), Rect((-1.0, 0.0), (0.0, 1.0)),
                         Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))))
        for p, box in zip(region.primitives, region._boxes):
            lo, hi = _primitive_bbox(p)
            for k in range(region.dim):
                assert box[2 * k] < lo[k] and hi[k] < box[2 * k + 1]
