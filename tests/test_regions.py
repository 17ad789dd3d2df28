import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnslab import regions
from qnslab.geometry import Ball, Similarity, as_point, lens_area
from qnslab.regions import (
    MarkedSet,
    Polygon,
    RadialProfile,
    Rect,
    Region,
    balls_in_one_primitive,
    balls_in_region,
    load_region,
    region_from_json,
    region_to_json,
    similarity_image_measure,
    truncation_radius,
)


def bisect_oracle(fn, target, lo, hi, iters=80):
    """Independent bisection used to freeze truncation expectations."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


UNIT_DISK = Region((Ball((0.0, 0.0), 1.0),))
TWO_BALL = Region((Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0)))


class TestContains:
    def test_unit_ball(self):
        assert UNIT_DISK.contains((0.0, 0.0))
        assert not UNIT_DISK.contains((2.0, 0.0))

    def test_closed_flag(self):
        closed = Region((Ball((0.0, 0.0), 1.0, closed=True),))
        assert closed.contains((1.0, 0.0))
        assert not UNIT_DISK.contains((1.0, 0.0))

    def test_rect_and_polygon(self):
        r = Region((Rect((0.0, 0.0), (2.0, 3.0)),))
        assert r.contains((1.0, 1.0)) and not r.contains((2.5, 1.0))
        tri = Region((Polygon(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))),))
        assert tri.contains((0.5, 0.5)) and not tri.contains((1.5, 1.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UNIT_DISK.contains((1.0, 0.0, 0.0))

    def test_union_membership(self):
        assert TWO_BALL.contains((1.5, 0.0))
        assert TWO_BALL.contains((-0.5, 0.0))
        assert not TWO_BALL.contains((2.5, 0.0))


class TestMeasure:
    def test_unit_disk(self):
        assert math.isclose(UNIT_DISK.measure(), math.pi, rel_tol=1e-12)

    def test_rect(self):
        assert Region((Rect((0.0, 0.0), (2.0, 3.0)),)).measure() == 6.0

    def test_two_ball_union_inclusion_exclusion(self):
        expected = 2.0 * math.pi - lens_area(1.0, 1.0, 1.0)
        value, stderr, method = TWO_BALL.measure_detail()
        assert method == "inclusion-exclusion"
        assert stderr == 0.0
        assert math.isclose(value, expected, rel_tol=1e-12)
        assert math.isclose(value, 5.0548, abs_tol=1e-4)

    def test_disjoint_sum(self):
        r = Region((Ball((0.0, 0.0), 1.0), Ball((5.0, 0.0), 2.0)))
        value, stderr, method = r.measure_detail()
        assert method == "disjoint-sum"
        assert math.isclose(value, math.pi * (1 + 4), rel_tol=1e-12)

    def test_mc_fallback_matches_inclusion_exclusion(self):
        # ball overlapping a rectangle forces sampling; compare against the
        # splits computed analytically: area = pi + 4 - overlap(quarter disk cap)
        r = Region((Ball((0.0, 0.0), 1.0), Rect((0.0, -1.0), (2.0, 1.0))))
        value, stderr, method = r.measure_detail()
        assert method == "monte-carlo"
        # exact union area: rect (4) plus the left half-disk of B(0,1)
        exact = 4.0 + math.pi / 2.0
        assert abs(value - exact) <= 3.0 * stderr

    def test_three_way_overlap_mc(self):
        r = Region((Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0), Ball((0.25, 0.2), 1.0)))
        value, stderr, method = r.measure_detail()
        assert method == "monte-carlo"
        rng = np.random.Generator(np.random.PCG64(123))
        pts = rng.random((400_000, 2)) * 4.0 - 2.0
        hits = r.contains_many(pts).astype(bool).mean()
        oracle = hits * 16.0
        assert abs(value - oracle) <= 3.0 * (stderr + 16.0 * math.sqrt(hits * (1 - hits) / 400_000))

    def test_pairwise_mc_consistency(self):
        # inclusion-exclusion value for two disks agrees with plain sampling
        value = TWO_BALL.measure()
        rng = np.random.Generator(np.random.PCG64(5))
        n = 500_000
        pts = rng.random((n, 2)) * np.array([4.0, 2.0]) + np.array([-1.0, -1.0])
        p = TWO_BALL.contains_many(pts).astype(bool).mean()
        est = p * 8.0
        stderr = 8.0 * math.sqrt(p * (1 - p) / n)
        assert abs(value - est) <= 3.0 * stderr


class TestTransformAndScaling:
    def test_similarity_image_measure_scaling(self):
        d = MarkedSet(UNIT_DISK, (0.0, 0.0))
        h = Similarity(2.0, np.eye(2), (0.0, 0.0))
        assert math.isclose(similarity_image_measure(d, h), 4.0 * math.pi, rel_tol=1e-12)

    def test_unit_square_scaling(self):
        d = MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5))
        h = Similarity(3.0, np.eye(2), (1.0, 1.0))
        assert math.isclose(similarity_image_measure(d, h), 9.0, rel_tol=1e-12)

    def test_two_ball_scaling(self):
        d = MarkedSet(TWO_BALL, (0.5, 0.0))
        h = Similarity(2.0, np.eye(2), (0.0, 0.0))
        expected = 4.0 * (2.0 * math.pi - lens_area(1.0, 1.0, 1.0))
        assert math.isclose(similarity_image_measure(d, h), expected, rel_tol=1e-12)

    def test_transformed_measure_matches_scaling(self):
        # double route: transform the region geometrically, then re-measure
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(10):
            k = float(rng.uniform(0.5, 3.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            h = Similarity.rotation(theta, scale=k, translation=tuple(rng.normal(size=2)))
            for region in (UNIT_DISK, Region((Polygon(((0, 0), (1, 0), (1, 1), (0, 1))),))):
                img = region.transformed(h)
                assert math.isclose(img.measure(), k**2 * region.measure(), rel_tol=1e-9)

    def test_rect_under_rotation_becomes_polygon(self):
        r = Region((Rect((0.0, 0.0), (2.0, 1.0)),))
        img = r.transformed(Similarity.rotation(0.3))
        assert isinstance(img.primitives[0], Polygon)
        assert math.isclose(img.measure(), 2.0, rel_tol=1e-12)


class TestMarkedSet:
    def test_unit_square_radii(self):
        d = MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5))
        assert math.isclose(d.outer_radius, math.sqrt(2.0) / 2.0, rel_tol=1e-12)
        assert d.inner_radius == 0.5

    def test_unit_disk_radii(self):
        d = MarkedSet(UNIT_DISK, (0.0, 0.0))
        assert d.outer_radius == 1.0 and d.inner_radius == 1.0

    def test_two_ball_radii(self):
        # outer radius exact (farthest union point), inner by boundary sampling;
        # the waist of the union sits sqrt(3)/2 from the midpoint
        d = MarkedSet(TWO_BALL, (0.5, 0.0))
        assert math.isclose(d.outer_radius, 1.5, rel_tol=1e-12)
        assert math.isclose(d.inner_radius, math.sqrt(3.0) / 2.0, abs_tol=2e-3)

    def test_marked_point_must_be_interior(self):
        with pytest.raises(ValueError):
            MarkedSet(UNIT_DISK, (1.0, 0.0))

    def test_boundary_sample_bounds(self):
        d = MarkedSet(TWO_BALL, (0.5, 0.0))
        p = np.array(d.marked_point)
        boundary = d.region.boundary_samples(4000)
        dists = np.linalg.norm(boundary - p, axis=1)
        assert np.all(dists >= d.inner_radius - 1e-9)
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.random((20_000, 2)) * np.array([4.0, 2.0]) + np.array([-1.0, -1.0])
        inside = pts[d.region.contains_many(pts).astype(bool)]
        assert np.all(np.linalg.norm(inside - p, axis=1) <= d.outer_radius + 1e-12)


def one_ball(region, center, radius):
    """``balls_in_region`` on a one-ball array: ``(ok, direction)``."""
    ok, directions = balls_in_region(region, np.asarray([center], dtype=np.float64), np.asarray([float(radius)]))
    return bool(ok[0]), directions[0]


class TestBallInRegion:
    def test_single_primitive_exact(self):
        ok, _ = one_ball(UNIT_DISK, (0.0, 0.0), 0.99)
        assert ok
        ok, direction = one_ball(UNIT_DISK, (0.5, 0.0), 0.6)
        assert not ok and direction is not None

    def test_union_spanning_ball(self):
        ok, _ = one_ball(TWO_BALL, (0.5, 0.0), 0.6)
        assert ok  # spans both disks; no single primitive contains it

    def test_rejects_at_tangency(self):
        ok, _ = one_ball(UNIT_DISK, (0.0, 0.0), 1.0)
        assert not ok

    def test_containment_builds_no_region(self, monkeypatch):
        # the square (0,0)-(2,2) as a polygon, joined to a rect: every probe
        # ball tests the polygon primitive, and neither that test nor
        # contains_interior builds a Region of its own
        square = Polygon(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
        region = Region((square, Rect((2.0, 0.5), (3.0, 1.5))))
        built = []
        post_init = Region.__post_init__
        monkeypatch.setattr(Region, "__post_init__", lambda self: built.append(1) or post_init(self))
        rng = np.random.Generator(np.random.PCG64(8))
        balls = [(tuple(rng.uniform(0.0, 3.0, 2)), float(rng.uniform(0.05, 1.0))) for _ in range(200)]
        answers = [one_ball(region, c, r) for c, r in balls]
        interior = [region.contains_interior(c) for c, _ in balls]
        assert built == []
        assert {ok for ok, _ in answers} == {True, False}
        # the same answers as from primitives built afresh for every call
        monkeypatch.undo()
        for (c, r), got in zip(balls, answers):
            assert got == one_ball(Region((Polygon(square.vertices), region.primitives[1])), c, r)
        opened = Region(tuple(regions._as_open(p) for p in region.primitives))
        assert interior == [opened.contains(c) for c, _ in balls]


def ball_in_region_oracle(region, center, radius):
    """The per-ball containment check as it stood before the array form, kept as the oracle."""
    c = as_point(center, region.dim)
    if balls_in_one_primitive(region, c[None, :], np.asarray([radius], dtype=np.float64))[0]:
        return True, None
    if region.dim == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        dirs = regions._fibonacci_sphere(64)
    for rho in (1.0, 0.7, 0.35):
        pts = c + radius * rho * dirs
        mask = region.contains_many(pts).astype(bool)
        if not mask.all():
            return False, tuple(dirs[int(np.argmin(mask))])
    if not region.contains(c):
        return False, tuple(dirs[0] * 0.0)
    return True, None


# Two overlapping disks joined by a rect (as in tests/test_quadrature.py).
SPANNED = Region((Ball((-1.0, 0.0), 1.5), Ball((1.0, 0.0), 1.5), Rect((-1.0, -0.5), (3.0, 0.5))))
# The check-qns benchmark domain: two unit disks at (+-1.35, 0) joined by a bridge of half-height 0.25.
BRIDGED = Region((Ball((-1.35, 0.0), 1.0), Ball((1.35, 0.0), 1.0), Rect((-1.35, -0.25), (1.35, 0.25))))
# A square with a square hole (as in tests/test_qns_engine.py): a ball around the
# hole can keep every sampled ring point inside and fail on its center alone.
HOLED = Region((Rect((-2.0, -2.0), (0.3, 2.0)), Rect((0.5, -2.0), (2.0, 2.0)),
                Rect((0.3, -2.0), (0.5, -0.1)), Rect((0.3, 0.1), (0.5, 2.0))))
BALL_BOX = Region((Ball((0.0, 0.0, 0.0), 1.0), Rect((0.5, -0.4, -0.4), (2.0, 0.4, 0.4))))


class TestBallsInRegion:
    """The array check equals the per-ball check, verdicts and witness directions bit for bit."""

    @staticmethod
    def random_balls(region, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        lo, hi = region.bbox
        centers = lo + rng.random((n, region.dim)) * (hi - lo)
        return centers, rng.uniform(0.02, 0.4, n) * float(np.max(hi - lo)) / 2.0

    @pytest.mark.parametrize("region, n", [(SPANNED, 1500), (BRIDGED, 3000), (HOLED, 1500), (BALL_BOX, 1500)],
                             ids=["spanned", "bridged", "holed", "ball-box"])
    def test_matches_the_per_ball_oracle(self, region, n):
        centers, radii = self.random_balls(region, n, seed=n + region.dim)
        if region is HOLED:  # around the hole: only the center misses
            centers, radii = np.concatenate([centers, [[0.4, 0.0]]]), np.append(radii, 0.5)
        ok, directions = balls_in_region(region, centers, radii)
        want = [ball_in_region_oracle(region, c, r) for c, r in zip(centers, radii.tolist())]
        assert ok.dtype == bool and ok.tolist() == [w[0] for w in want]
        assert [repr(d) for d in directions] == [repr(w[1]) for w in want]
        sampled = ~balls_in_one_primitive(region, centers, radii)
        assert ok.any() and (~ok).any() and (ok & sampled).any()  # some balls pass the sampled check
        if region is BRIDGED:
            assert sampled.sum() > regions._BALL_GROUP
        if region is HOLED:
            assert not ok[-1] and directions[-1] == (0.0, 0.0)

    def test_sampled_balls_go_to_the_kernel_in_groups(self, monkeypatch):
        centers, radii = self.random_balls(BRIDGED, 3000, seed=3002)
        rest = int((~balls_in_one_primitive(BRIDGED, centers, radii)).sum())
        calls = []
        contains_many = Region.contains_many
        monkeypatch.setattr(Region, "contains_many",
                            lambda self, pts: calls.append(len(pts)) or contains_many(self, pts))
        balls_in_region(BRIDGED, centers, radii)
        groups = [min(regions._BALL_GROUP, rest - lo) for lo in range(0, rest, regions._BALL_GROUP)]
        assert len(groups) > 1
        # per group, one call on the ring points and one on the centers
        assert calls == [k for g in groups for k in (g * 3 * regions._BALL_DIRS, g)]


def ball_in_primitive_oracle(p, c, r):
    """The one-ball containment test as it stood before the array form, kept as the oracle."""
    if isinstance(p, Ball):
        d = float(np.linalg.norm(c - np.asarray(p.center)))
        return d + r <= p.radius if p.closed else d + r < p.radius
    if isinstance(p, Rect):
        if p.closed:
            return all(p.lo[k] <= c[k] - r and c[k] + r <= p.hi[k] for k in range(p.dim))
        return all(p.lo[k] < c[k] - r and c[k] + r < p.hi[k] for k in range(p.dim))
    if not Region((p,)).contains(c):
        return False
    v = [np.asarray(vert, dtype=np.float64) for vert in p.vertices]

    def segment_dist(a, b):
        ab = b - a
        t = float(np.dot(c - a, ab) / np.dot(ab, ab))
        t = min(1.0, max(0.0, t))
        return float(np.linalg.norm(c - (a + t * ab)))

    return min(segment_dist(v[i], v[(i + 1) % len(v)]) for i in range(len(v))) > r


COORD = st.floats(min_value=-3.0, max_value=3.0)
# Dyadic coordinates with few bits: the sums, differences and 3-4-5 and 1-2-2
# distances built from them are exact, so a tangent ball has d + r == R (or
# c - r == lo) exactly in floating point.
DYADIC = st.integers(min_value=-24, max_value=24).map(lambda k: k / 8.0)
EXTENT = st.integers(min_value=1, max_value=24).map(lambda k: k / 8.0)


@st.composite
def primitives(draw, kind):
    closed = draw(st.booleans())
    dim = draw(st.sampled_from([2, 3])) if kind in ("ball", "rect") else 2
    if kind == "ball":
        return Ball(tuple(draw(DYADIC) for _ in range(dim)), draw(EXTENT), closed)
    lo = [draw(DYADIC) for _ in range(dim)]
    hi = [a + draw(EXTENT) for a in lo]
    if kind == "rect":
        return Rect(tuple(lo), tuple(hi), closed)
    if kind == "square":  # an axis-aligned polygon, which has exact tangent balls
        return Polygon(((lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])), closed)
    # star-shaped about the origin, with distinct vertices, so the vertex loop is simple
    degrees = draw(st.lists(st.integers(0, 359), min_size=3, max_size=8, unique=True))
    rhos = [draw(st.floats(0.3, 3.0)) for _ in degrees]
    return Polygon(tuple((rho * math.cos(math.radians(t)), rho * math.sin(math.radians(t)))
                         for t, rho in zip(sorted(degrees), rhos)), closed)


@st.composite
def tangent_balls(draw, p):
    """A ball that touches the boundary of a ball, rect or axis-aligned polygon from inside."""
    j = draw(st.integers(min_value=1, max_value=31))
    if isinstance(p, Ball):
        k = j * p.radius / 256.0  # few bits, and k * dist < radius
        step, dist = ((3.0, 4.0), 5.0) if p.dim == 2 else ((1.0, 2.0, 2.0), 3.0)
        return tuple(a + k * s for a, s in zip(p.center, step)), p.radius - k * dist
    lo, hi = (p.lo, p.hi) if isinstance(p, Rect) else (p.vertices[0], p.vertices[2])
    r = j * min(b - a for a, b in zip(lo, hi)) / 64.0
    return (lo[0] + r,) + tuple((a + b) / 2.0 for a, b in zip(lo[1:], hi[1:])), r


class TestBallsInOnePrimitive:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_scalar_oracle(self, data):
        kind = data.draw(st.sampled_from(["ball", "rect", "square", "polygon"]))
        p = data.draw(primitives(kind))
        balls = data.draw(st.lists(st.tuples(st.tuples(*[COORD] * p.dim), st.floats(1e-3, 3.0)),
                                   min_size=1, max_size=12))
        tangent = data.draw(st.lists(tangent_balls(p), max_size=4)) if kind != "polygon" else []
        centers = np.asarray([c for c, _ in balls + tangent], dtype=np.float64)
        radii = np.asarray([r for _, r in balls + tangent], dtype=np.float64)
        held = regions._balls_in_primitive(p, centers, radii)
        assert held.tolist() == [ball_in_primitive_oracle(p, c, float(r)) for c, r in zip(centers, radii)]
        # a tangent ball is held only by a closed ball or rect
        assert held[len(balls):].tolist() == [p.closed and not isinstance(p, Polygon)] * len(tangent)

    def test_region_holds_a_ball_that_one_of_its_primitives_holds(self):
        region = Region((Ball((0.0, 0.0), 1.0), Rect((0.5, -0.5), (3.0, 0.5), closed=True),
                         Polygon(((-3.0, -3.0), (-1.0, -3.0), (-1.0, -1.0)))))
        centers = np.array([[0.0, 0.0], [2.5, 0.0], [2.5, 0.0], [-1.5, -2.5], [0.9, 0.0], [8.0, 8.0]])
        radii = np.array([0.5, 0.5, 0.6, 0.1, 0.45, 1.0])
        held = balls_in_one_primitive(region, centers, radii)
        assert held.tolist() == [True, True, False, True, False, False]
        assert held.tolist() == [any(ball_in_primitive_oracle(p, c, r) for p in region.primitives)
                                 for c, r in zip(centers, radii)]


class TestRadialProfile:
    def test_exponential_profile(self):
        p = RadialProfile(lambda r: 1.0 - math.exp(-r), 1.0)
        expected = bisect_oracle(lambda r: 2.0 * (1.0 - math.exp(-r)), 1.0, 0.0, 10.0)
        r_t = truncation_radius(p, 2.0)
        assert math.isclose(r_t, expected, rel_tol=1e-8)
        assert math.isclose(r_t, math.log(2.0), rel_tol=1e-8)

    def test_linear_profile(self):
        p = RadialProfile(lambda r: min(r, 1.0), 1.0)
        assert math.isclose(truncation_radius(p, 4.0), 0.25, rel_tol=1e-8)

    def test_t_at_most_one_rejected(self):
        p = RadialProfile(lambda r: min(r, 1.0), 1.0)
        with pytest.raises(ValueError):
            truncation_radius(p, 1.0)

    def test_monotone_in_t(self):
        p = RadialProfile(lambda r: 1.0 - math.exp(-r), 1.0)
        rs = [truncation_radius(p, t) for t in (1.5, 2.0, 3.0, 5.0)]
        assert all(a >= b for a, b in zip(rs, rs[1:]))


class TestJson:
    def test_round_trip_bit_exact(self, tmp_path):
        region = Region(
            (
                Ball((0.1, 1.0 / 3.0), 0.7, closed=True),
                Rect((-1.5, 2.25), (0.125, 7.0)),
                Polygon(((0.0, 0.0), (1e-30, 0.0), (0.3, math.pi))),
            )
        )
        doc = region_to_json(region, marked_point=(0.05, 0.4))
        text = json.dumps(doc)
        back, marked = region_from_json(json.loads(text))
        assert marked == (0.05, 0.4)
        for p, q in zip(region.primitives, back.primitives):
            assert type(p) is type(q)
        assert back.primitives[0].center == region.primitives[0].center
        assert back.primitives[0].radius == region.primitives[0].radius
        assert back.primitives[2].vertices == region.primitives[2].vertices
        path = tmp_path / "region.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        again, _ = load_region(path)
        assert again.primitives[1].lo == region.primitives[1].lo

    def test_empty_primitives_rejected(self):
        with pytest.raises(ValueError):
            region_from_json({"dimension": 2, "primitives": []})

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            Rect((0.0, 0.0), (math.inf, 1.0))
