import importlib.util
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnslab import regions
from qnslab.counterexample import build_domain, default_sequences
from qnslab.geometry import Ball, Similarity, SimilarityArray, lens_area
from qnslab.regions import (
    MarkedSet,
    Polygon,
    Rect,
    Region,
    balls_in_one_primitive,
    balls_in_region,
    boundary_distance,
    images_in_region,
    load_region,
    polygons_in_region,
    region_from_json,
    region_to_json,
    similarity_image_measure,
)


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

    def test_column_major_points_reach_the_kernel_uncopied(self, monkeypatch):
        seen = []
        kernel = regions.kernels.contains_many
        monkeypatch.setattr(regions.kernels, "contains_many",
                            lambda prims, boxes, pts: seen.append(pts) or kernel(prims, boxes, pts))
        pts = np.asfortranarray(np.random.Generator(np.random.PCG64(3)).uniform(-2.0, 2.0, (500, 2)))
        mask = TWO_BALL.contains_many(pts)
        assert len(seen) == 1 and np.shares_memory(seen[0], pts)
        assert np.array_equal(mask, TWO_BALL.contains_many(np.ascontiguousarray(pts)))


class TestMeasure:
    def test_unit_disk(self):
        assert math.isclose(UNIT_DISK.measure(), math.pi, rel_tol=1e-12)

    def test_rect(self):
        assert Region((Rect((0.0, 0.0), (2.0, 3.0)),)).measure() == 6.0

    def test_two_ball_union_inclusion_exclusion(self):
        expected = 2.0 * math.pi - lens_area(1.0, 1.0, 1.0)
        value = TWO_BALL.measure()  # Green's theorem over the boundary pieces, as every 2-D union
        assert math.isclose(value, expected, rel_tol=1e-12)
        assert math.isclose(value, 5.0548, abs_tol=1e-4)

    def test_disjoint_sum(self):
        r = Region((Ball((0.0, 0.0), 1.0), Ball((5.0, 0.0), 2.0)))
        assert math.isclose(r.measure(), math.pi * (1 + 4), rel_tol=1e-12)
        r3 = Region((Ball((0.0, 0.0, 0.0), 1.0), Ball((5.0, 0.0, 0.0), 2.0)))
        with pytest.raises(ValueError, match="no exact measure"):  # a 3-D union has no measure, even when disjoint
            r3.measure()

    def test_3d_box_inclusion_exclusion(self):
        r = Region((Rect((0.0, 0.0, 0.0), (2.0, 1.0, 1.0)), Rect((1.0, 0.5, 0.0), (3.0, 2.0, 1.0))))
        with pytest.raises(ValueError, match="no exact measure"):
            r.measure()
        assert Region(r.primitives[:1]).measure() == 2.0  # one 3-D primitive keeps its closed form

    def test_mc_fallback_matches_inclusion_exclusion(self):
        # a ball overlapping a rectangle has no inclusion-exclusion term; its
        # area comes from Green's theorem over the boundary pieces
        r = Region((Ball((0.0, 0.0), 1.0), Rect((0.0, -1.0), (2.0, 1.0))))
        value = r.measure()
        # exact union area: rect (4) plus the left half-disk of B(0,1)
        assert math.isclose(value, 4.0 + math.pi / 2.0, rel_tol=1e-12)

    def test_three_way_overlap_mc(self):
        r = Region((Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0), Ball((0.25, 0.2), 1.0)))
        value = r.measure()
        rng = np.random.Generator(np.random.PCG64(123))
        pts = rng.random((400_000, 2)) * 4.0 - 2.0
        hits = r.contains_many(pts).astype(bool).mean()
        oracle = hits * 16.0
        assert abs(value - oracle) <= 3.0 * 16.0 * math.sqrt(hits * (1 - hits) / 400_000)

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
        # outer radius exact (farthest union point), inner from the boundary
        # pieces; the waist of the union sits sqrt(3)/2 from the midpoint
        d = MarkedSet(TWO_BALL, (0.5, 0.0))
        assert math.isclose(d.outer_radius, 1.5, rel_tol=1e-12)
        assert math.isclose(d.inner_radius, math.sqrt(3.0) / 2.0, abs_tol=2e-3)

    def test_marked_point_must_be_interior(self):
        with pytest.raises(ValueError):
            MarkedSet(UNIT_DISK, (1.0, 0.0))

    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 0.99])
    def test_two_disk_inner_radius_is_exact(self, c):
        # the waist of two unit disks at (+-c, 0) sits sqrt(1 - c^2) from the origin
        d = MarkedSet(Region((Ball((-c, 0.0), 1.0), Ball((c, 0.0), 1.0))), (0.0, 0.0))
        assert math.isclose(d.inner_radius, math.sqrt(1.0 - c * c), rel_tol=1e-12)

    def test_3d_composite_is_refused(self):
        with pytest.raises(ValueError):
            MarkedSet(BALL_BOX, (0.0, 0.0, 0.0))
        assert MarkedSet(Region((Ball((0.0, 0.0, 0.0), 2.0),)), (0.5, 0.0, 0.0)).inner_radius == 1.5

    def test_boundary_sample_bounds(self):
        d = MarkedSet(TWO_BALL, (0.5, 0.0))
        p = np.array(d.marked_point)
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.random((20_000, 2)) * np.array([4.0, 2.0]) + np.array([-1.0, -1.0])
        inside = pts[d.region.contains_many(pts).astype(bool)]
        assert np.all(np.linalg.norm(inside - p, axis=1) <= d.outer_radius + 1e-12)


def one_ball(region, center, radius):
    """``balls_in_region`` on a one-ball array: ``(ok, direction)``."""
    ok, directions = balls_in_region(region, np.asarray([center], dtype=np.float64), np.asarray([float(radius)]))
    return bool(ok[0]), tuple(directions[0].tolist())


class TestBallInRegion:
    def test_single_primitive_exact(self):
        ok, _ = one_ball(UNIT_DISK, (0.0, 0.0), 0.99)
        assert ok
        ok, direction = one_ball(UNIT_DISK, (0.5, 0.0), 0.6)
        assert not ok and direction == (1.0, 0.0)  # toward the nearest boundary point

    def test_union_spanning_ball(self):
        ok, _ = one_ball(TWO_BALL, (0.5, 0.0), 0.6)
        assert ok  # spans both disks; no single primitive contains it

    def test_rejects_at_tangency(self):
        ok, _ = one_ball(UNIT_DISK, (0.0, 0.0), 1.0)
        assert not ok

    def test_containment_builds_no_region(self, monkeypatch):
        # the square (0,0)-(2,2) as a polygon, joined to a rect: every probe
        # ball tests the polygon primitive, and that test builds no Region of
        # its own
        square = Polygon(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
        region = Region((square, Rect((2.0, 0.5), (3.0, 1.5))))
        built = []
        post_init = Region.__post_init__
        monkeypatch.setattr(Region, "__post_init__", lambda self: built.append(1) or post_init(self))
        rng = np.random.Generator(np.random.PCG64(8))
        balls = [(tuple(rng.uniform(0.0, 3.0, 2)), float(rng.uniform(0.05, 1.0))) for _ in range(200)]
        answers = [one_ball(region, c, r) for c, r in balls]
        assert built == []
        assert {ok for ok, _ in answers} == {True, False}
        # the same answers as from primitives built afresh for every call
        monkeypatch.undo()
        for (c, r), got in zip(balls, answers):
            assert got == one_ball(Region((Polygon(square.vertices), region.primitives[1])), c, r)


# Two overlapping disks joined by a rect (as in tests/test_quadrature.py).
SPANNED = Region((Ball((-1.0, 0.0), 1.5), Ball((1.0, 0.0), 1.5), Rect((-1.0, -0.5), (3.0, 0.5))))
# The check-qns benchmark domain: two unit disks at (+-1.35, 0) joined by a bridge of half-height 0.25.
BRIDGED = Region((Ball((-1.35, 0.0), 1.0), Ball((1.35, 0.0), 1.0), Rect((-1.35, -0.25), (1.35, 0.25))))
# A square with a square hole (as in tests/test_qns_engine.py).  Its open rects
# share the edges x = 0.3 and x = 0.5 outside the hole: slits, outside the region.
HOLED = Region((Rect((-2.0, -2.0), (0.3, 2.0)), Rect((0.5, -2.0), (2.0, 2.0)),
                Rect((0.3, -2.0), (0.5, -0.1)), Rect((0.3, 0.1), (0.5, 2.0))))
HOLED_SLITS = [((x, y0), (x, y1)) for x in (0.3, 0.5) for y0, y1 in ((-2.0, -0.1), (0.1, 2.0))]
# Ten overlapping disks around a hole (as in tests/test_backend.py).
RING = Region(tuple(Ball((math.cos(t), math.sin(t)), 0.5) for t in np.linspace(0, 2 * math.pi, 10, endpoint=False)))
# The second component of the default chain domain: a disk of radius 5.1e-6 at
# the origin, bridges of half-height 6.4e-7 and 4e-13, and neighbor disks.
CHAIN = build_domain(default_sequences(3, 5)).components[1].omega_local
BALL_BOX = Region((Ball((0.0, 0.0, 0.0), 1.0), Rect((0.5, -0.4, -0.4), (2.0, 0.4, 0.4))))
# Three unit balls around the z axis, and two along the x axis whose waist is the circle
# x = 0, |(y, z)| = sqrt(0.19) ~ 0.436.
THREE_BALLS = Region(tuple(Ball((0.8 * math.cos(t), 0.8 * math.sin(t), 0.0), 1.0) for t in (0.0, 2.1, 4.2)))
WAIST_3D = Region((Ball((-0.9, 0.0, 0.0), 1.0), Ball((0.9, 0.0, 0.0), 1.0)))
# each 2-D domain with the box its random shapes are drawn in: the chain
# component's is the junction of its center disk and its left bridge
DOMAINS_2D = {"bridged": (BRIDGED, BRIDGED.bbox), "spanned": (SPANNED, SPANNED.bbox), "holed": (HOLED, HOLED.bbox),
              "ring": (RING, RING.bbox), "chain": (CHAIN, (np.array([-8e-6, -1e-6]), np.array([-2e-6, 1e-6])))}


def dense_points(region, n, rng):
    """About n points of a 2-D region's closure: its primitives' boundaries, evenly
    spaced, and uniform points of the region drawn in its bounding box."""
    out = []
    for p in region.primitives:
        if isinstance(p, Ball):
            t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            out.append(np.asarray(p.center) + p.radius * np.stack([np.cos(t), np.sin(t)], axis=1))
        else:
            v = np.asarray(regions._corners(p))
            s = np.linspace(0.0, 1.0, n // len(v), endpoint=False)[:, None]
            out.extend(a + s * (b - a) for a, b in zip(v, np.roll(v, -1, axis=0)))
    lo, hi = region.bbox
    cand = lo + rng.random((n, 2)) * (hi - lo)
    return np.concatenate(out + [cand[region.contains_many(cand).astype(bool)]])


def random_balls(box, n, seed):
    """n balls with centers uniform in the box ``(lo, hi)`` and radii up to a fifth of its largest side."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = box
    centers = lo + rng.random((n, len(lo))) * (hi - lo)
    return centers, rng.uniform(0.02, 0.4, n) * float(np.max(hi - lo)) / 2.0


UNIT_CIRCLE = Region((Ball((0.0, 0.0), 1.0, closed=True),))


class TestBoundaryModel:
    """2-D containment from the boundary pieces: sound against dense samples, complete up to slits."""

    def test_waist_of_two_disks(self):
        # two unit disks at +-0.9 (cos pi/64, sin pi/64): a ball at the origin
        # just wider than the waist sqrt(0.19) leaves the union
        u = (math.cos(math.pi / 64.0), math.sin(math.pi / 64.0))
        region = Region((Ball((-0.9 * u[0], -0.9 * u[1]), 1.0), Ball((0.9 * u[0], 0.9 * u[1]), 1.0)))
        factors = [0.999, 1.001, 1.01, 1.03]
        ok, directions = balls_in_region(region, np.zeros((4, 2)), math.sqrt(0.19) * np.asarray(factors))
        assert ok.tolist() == [True, False, False, False]
        # refuted toward the waist, perpendicular to the line of centers
        assert np.allclose(np.abs(directions[1:] @ np.asarray(u)), 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(directions[1:], axis=1), 1.0)

    @pytest.mark.parametrize("name", list(DOMAINS_2D))
    def test_accepted_balls_hold_only_points_of_the_region(self, name):
        region, box = DOMAINS_2D[name]
        centers, radii = random_balls(box, 1500, seed=len(name))
        ok, directions = balls_in_region(region, centers, radii)
        assert 0 < ok.sum() < len(ok)
        # some accepted balls span several primitives (in HOLED, every such ball crosses a slit)
        assert (ok & ~balls_in_one_primitive(region, centers, radii)).any() == (name != "holed")
        disk = dense_points(UNIT_CIRCLE, 400, np.random.Generator(np.random.PCG64(1)))
        for c, r in zip(centers[ok], radii[ok]):
            assert region.contains_many(c + r * disk).all()
        # a refused ball is refuted toward a point of the boundary pieces
        refused = ~ok & region.contains_many(centers).astype(bool)
        dist, near = boundary_distance(region, centers[refused])
        assert np.allclose(directions[refused], (near - centers[refused]) / dist[:, None])

    @pytest.mark.parametrize("name", list(DOMAINS_2D))
    def test_a_ball_with_clearance_is_accepted(self, name):
        # a ball whose 1% wider copy has every dense sample in the region is
        # accepted, unless it crosses a slit (a line that sampling cannot see)
        region, box = DOMAINS_2D[name]
        centers, radii = random_balls(box, 1500, seed=7 + len(name))
        circle = dense_points(UNIT_CIRCLE, 2000, np.random.Generator(np.random.PCG64(2)))
        wide = np.asarray([region.contains_many(c + 1.01 * r * circle).all() for c, r in zip(centers, radii)])
        if name == "holed":
            a = np.asarray([s[0] for s in HOLED_SLITS])
            ab = np.asarray([s[1] for s in HOLED_SLITS]) - a
            slit_dist = regions._project(centers[:, None, :], a, ab)[1].min(axis=1)
            wide &= slit_dist > 1.01 * radii
        assert wide.sum() > 100
        assert balls_in_region(region, centers[wide], radii[wide])[0].all()

    def test_slits_and_seams_are_refused(self):
        # a ball across HOLED's slit x = 0.3 leaves the region; two closed rects
        # sharing an edge hold its seam, which is still refused conservatively
        ok, direction = one_ball(HOLED, (0.32, 1.0), 0.05)
        assert not ok and direction == pytest.approx((-1.0, 0.0), abs=1e-12)
        seam = Region((Rect((0.0, 0.0), (1.0, 1.0), closed=True), Rect((1.0, 0.0), (2.0, 1.0), closed=True)))
        assert seam.contains_many(np.asarray([[1.0, 0.5]])).all()
        assert not one_ball(seam, (1.0, 0.5), 0.1)[0]
        assert one_ball(seam, (0.5, 0.5), 0.1)[0]

    @pytest.mark.parametrize("name", list(DOMAINS_2D))
    def test_accepted_polygons_hold_only_points_of_the_region(self, name):
        region, (lo, hi) = DOMAINS_2D[name]
        rng = np.random.Generator(np.random.PCG64(30 + len(name)))
        n = 600
        centers = lo + rng.random((n, 2)) * (hi - lo)
        radii = rng.uniform(0.02, 0.4, n) * float(np.max(hi - lo)) / 2.0
        angles = np.sort(rng.random((n, 4)) * 2.0 * math.pi, axis=1)
        verts = centers[:, None, :] + radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=2)
        ok = polygons_in_region(region, verts)
        assert 0 < ok.sum() < len(ok)
        for v in verts[ok]:
            quad = Region((Polygon(tuple(map(tuple, v))),))
            assert region.contains_many(dense_points(quad, 800, rng)).all()

    @pytest.mark.parametrize("name", list(DOMAINS_2D))
    def test_accepted_images_hold_only_points_of_the_region(self, name):
        region, (lo, hi) = DOMAINS_2D[name]
        rng = np.random.Generator(np.random.PCG64(50 + len(name)))
        span = float(np.max(hi - lo))
        marked = [UNIT_CIRCLE, Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), TWO_BALL,
                  Region((Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0))),))]
        n = 200
        for d in marked:
            theta = rng.uniform(0.0, 2.0 * math.pi, n)
            flip = np.where(rng.random(n) < 0.5, -1.0, 1.0)  # half of them reflections
            rot = np.stack([np.stack([np.cos(theta), -np.sin(theta) * flip], axis=1),
                            np.stack([np.sin(theta), np.cos(theta) * flip], axis=1)], axis=1)
            rot.setflags(write=False)
            probes = SimilarityArray(rng.uniform(0.02, 0.4, n) * span / 2.0, rot, lo + rng.random((n, 2)) * (hi - lo))
            ok = images_in_region(d, region, probes)
            assert 0 < ok.sum() < n
            dense = dense_points(d, 1000, rng)
            assert region.contains_many(probes.take(ok).apply_many(dense).reshape(-1, 2)).all()

    def test_an_edge_across_the_boundary_is_refused(self):
        # thin triangles with every vertex in the region and no piece end inside
        # or near them, whose long edge leaves the region: across the gap above
        # BRIDGED's bridge (crossing arcs), and across the notch of an L (crossing segments)
        assert not polygons_in_region(BRIDGED, np.asarray([[(-1.35, 0.9), (1.35, 0.9), (1.35, 0.8)]]))[0]
        ell = Region((Polygon(((-2.0, -2.0), (2.0, -2.0), (2.0, 0.0), (0.0, 0.0), (0.0, 2.0), (-2.0, 2.0))),))
        assert not polygons_in_region(ell, np.asarray([[(1.5, -0.5), (-0.5, 1.5), (1.4, -0.5)]]))[0]
        assert polygons_in_region(ell, np.asarray([[(0.5, -0.6), (-0.6, 0.5), (-1.5, -1.5)]]))[0]  # passes the notch

    def test_polygon_holding_a_hole_is_refused(self):
        # a square around the ring's hole, with every edge inside the ring
        square = 0.95 * np.asarray([[[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]]) / math.sqrt(2.0)
        assert RING.contains_many(dense_points(Region((Polygon(tuple(map(tuple, square[0]))),)), 800,
                                               np.random.Generator(np.random.PCG64(4)))[:800]).all()
        assert not polygons_in_region(RING, square)[0]
        assert polygons_in_region(RING, 0.2 * square + np.asarray([1.0, 0.0]))[0]


def meet_reference(e, f, m):
    """Where two boundary elements meet, one pair at a time: the scalar form
    that the array form of ``_build_pieces`` replaced, kept as its oracle."""
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
        ts = regions._edge_arc_hits(a, b - a, np.array([[*c, r, 0.0, 2.0 * math.pi]]), m).ravel()
        return [a + t * (b - a) for t in ts[~np.isnan(ts)]]
    (a, b), (c, g) = e, f  # two edges
    near = [q for q, (s, t) in ((a, (c, g)), (b, (c, g)), (c, (a, b)), (g, (a, b)))
            if regions._project(q, s, t - s)[1] <= m]
    den = regions._cross(b - a, g - c)
    if den != 0.0:
        t, s = regions._cross(c - a, g - c) / den, regions._cross(c - a, b - a) / den
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            near.append(a + t * (b - a))
    return near


def reference_pieces(region):
    """The boundary pieces as the pairwise form built them (every polygon here
    runs counter-clockwise, and no two pieces coincide)."""
    m = regions._margin(region)
    elements = []
    for p in region.primitives:
        if isinstance(p, Ball):
            elements.append((np.asarray(p.center), p.radius))
        else:
            v = np.asarray(regions._corners(p), dtype=np.float64)
            elements.extend(zip(v, np.roll(v, -1, axis=0)))
    cuts = [[] for _ in elements]
    for (x, e), (y, f) in itertools.combinations(enumerate(elements), 2):
        pts = meet_reference(e, f, m)
        cuts[x] += pts
        cuts[y] += pts
    arcs, segs = [], []
    for e, pts in zip(elements, cuts):
        if np.ndim(e[1]) == 0:
            (cx, cy), r = e
            angles = sorted(set(np.mod([math.atan2(q[1] - cy, q[0] - cx) for q in pts] or [0.0], 2.0 * math.pi)))
            arcs += [(cx, cy, r, s, w) for s, w in zip(angles, np.diff(angles, append=angles[0] + 2.0 * math.pi))]
        else:
            a, b = e
            ts = sorted({0.0, 1.0, *(min(max((q - a) @ (b - a) / ((b - a) @ (b - a)), 0.0), 1.0) for q in pts)})
            segs += [(*((1.0 - t0) * a + t0 * b), *((1.0 - t1) * a + t1 * b)) for t0, t1 in zip(ts[:-1], ts[1:])]
    arcs, segs = np.asarray(arcs).reshape(-1, 5), np.asarray(segs).reshape(-1, 4)
    mids = np.concatenate([regions._arc_points(arcs, 0.5), 0.5 * (segs[:, :2] + segs[:, 2:])])
    covered = np.zeros(len(mids), dtype=bool)
    for p in region.primitives:
        covered |= regions._balls_in_primitive(p, mids, np.full(len(mids), m))
    return arcs[~covered[:len(arcs)]], segs[~covered[len(arcs):]]


def composite_regions(seed):
    """The domain and the indicator support of the ``composite-check`` benchmark problem at a seed."""
    spec = importlib.util.spec_from_file_location("workloads", Path(__file__).parents[1] / "e2ebench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = workloads.composite_problem(seed)
    return region_from_json(doc["region"])[0], region_from_json(doc["field"]["terms"][1][1]["support"])[0]


ELL = Region((Polygon(((-2.0, -2.0), (2.0, -2.0), (2.0, 0.0), (0.0, 0.0), (0.0, 2.0), (-2.0, 2.0))),))
SEAM = Region((Rect((0.0, 0.0), (1.0, 1.0), closed=True), Rect((1.0, 0.0), (2.0, 1.0), closed=True)))
# a polygon, a disk and a rect that overlap one another
MIXED = Region((Polygon(((-1.0, -1.0), (1.0, -0.5), (0.3, 1.2))), Ball((0.5, 0.2), 0.6),
                Rect((-0.2, -1.5), (1.5, 0.0))))
PIECE_FIXTURES = {"unit-disk": UNIT_DISK, "two-ball": TWO_BALL, "spanned": SPANNED, "bridged": BRIDGED,
                  "holed": HOLED, "ring": RING, "chain": CHAIN, "ell": ELL, "seam": SEAM, "mixed": MIXED,
                  "triangle": Region((Polygon(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))),))}


def star_and_disk(n):
    """An n-vertex star-shaped polygon about the origin with a disk across its rim."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    rho = 1.0 + 0.3 * np.cos(7.0 * angles)
    star = Polygon(tuple(map(tuple, np.stack([rho * np.cos(angles), rho * np.sin(angles)], axis=1))))
    return Region((star, Ball((1.2, 0.0), 0.5)))


class TestPieces:
    @pytest.mark.parametrize("name", list(PIECE_FIXTURES))
    def test_match_the_pairwise_form(self, name):
        region = PIECE_FIXTURES[name]
        for got, want in zip(regions._pieces(region), reference_pieces(region)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [1, 2, 5150])
    def test_match_the_pairwise_form_on_the_benchmark_problem(self, seed):
        for region in composite_regions(seed):
            for got, want in zip(regions._pieces(region), reference_pieces(region)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(PIECE_FIXTURES))
    def test_blocks_do_not_change_the_pieces(self, name, monkeypatch):
        # element pairs, piece pairs and polygon edge distances in blocks of a few pairs each
        monkeypatch.setattr(regions, "_PAIR_BLOCK", 5)
        region = Region(PIECE_FIXTURES[name].primitives)  # a fresh region: pieces are cached
        for got, want in zip(regions._pieces(region), reference_pieces(region)):
            assert np.array_equal(got, want)

    def test_many_edges_in_bounded_memory(self):
        # only element pairs whose bounding boxes overlap are built, a block at a time
        tracemalloc.start()
        try:
            arcs, segs = regions._pieces(star_and_disk(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(arcs) == 1 and len(segs) == 898
        assert peak < 40e6

    def test_grouped_cuts_match_the_mask_form(self, monkeypatch):
        # one stable sort hands each element its meeting points in the order of points[owners == x]
        region = star_and_disk(600)
        grouped = regions._build_pieces(region)
        monkeypatch.setattr(regions, "_by_owner", lambda owners, points, n: [points[owners == x] for x in range(n)])
        assert len(grouped[0]) == 1 and len(grouped[1]) > 500
        for got, want in zip(grouped, regions._build_pieces(region)):
            assert np.array_equal(got, want)

    def test_clockwise_polygons_run_counter_clockwise(self):
        cw = Region((Polygon(ELL.primitives[0].vertices[::-1]),))
        segs = regions._pieces(cw)[1]
        assert regions._cross(segs[:, :2], segs[:, 2:]).sum() == 2.0 * abs(ELL.primitives[0].signed_area())
        assert {tuple(row) for row in segs.tolist()} == {tuple(row) for row in regions._pieces(ELL)[1].tolist()}

    def test_coinciding_pieces_are_kept_once(self):
        # two rects with one bottom line share the piece from x = 1 to 2, running one way;
        # two equal disks share their whole circle
        segs = regions._pieces(Region((Rect((0.0, 0.0), (2.0, 1.0)), Rect((1.0, 0.0), (3.0, 2.0)))))[1]
        assert [row for row in segs.tolist() if row[1] == row[3] == 0.0] == [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0],
                                                                             [2.0, 0.0, 3.0, 0.0]]
        assert len(regions._pieces(Region((Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0, closed=True))))[0]) == 1


def disk_area_mc(region, centers, radii, n, seed):
    """area(B ∩ region) for each ball by plain sampling, with its standard error."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rho, theta = np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
    unit = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
    frac = np.asarray([region.contains_many(c + r * unit).mean() for c, r in zip(centers, radii)])
    return frac * math.pi * radii**2, math.pi * radii**2 * np.sqrt(frac * (1.0 - frac) / n)


class TestBallAreas:
    """``ball_areas``: area(B ∩ S) by Green's theorem over S's boundary pieces."""

    def test_matches_lens_area(self):
        rng = np.random.Generator(np.random.PCG64(61))
        for k in range(2000):
            o, c = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
            rho, r = rng.uniform(0.05, 2.0, 2)
            if k % 3 == 0:  # a thin lens: the disks overlap by 1e-10 to 1e-2 of the sum of the radii
                t = rng.uniform(0.0, 2.0 * math.pi)
                c = o + (r + rho) * (1.0 - 10.0 ** rng.uniform(-10.0, -2.0)) * np.array([math.cos(t), math.sin(t)])
            area = regions.ball_areas(Region((Ball(tuple(o), rho, closed=bool(k % 2)),)), c[None], np.array([r]))[0]
            want = lens_area(r, rho, float(np.hypot(*(o - c))))
            assert abs(area - want) <= 1e-12 * want

    def test_whole_disks_are_exact(self):
        # a disk inside the ball adds pi rho^2 exactly, as lens_area does for nested disks
        support = Region((Ball((0.0, 0.0), 0.7), Ball((3.0, 0.0), 0.25), Ball((-3.0, 0.0), 1.0)))
        centers, radii = np.array([[0.0, 0.0], [0.2, 0.1], [3.0, 0.0], [-3.0, 0.0]]), np.array([1.0, 1.0, 1.0, 1.0])
        want = [lens_area(r, p.radius, math.hypot(*(c - p.center))) for c, r in zip(centers, radii)
                for p in support.primitives if math.hypot(*(c - p.center)) < 2.0]
        assert regions.ball_areas(support, centers, radii).tolist() == want

    @pytest.mark.parametrize("name", ["bridged", "holed", "spanned", "mixed", "composite-1", "composite-2",
                                      "composite-5150"])
    def test_matches_monte_carlo(self, name):
        if name.startswith("composite"):
            region = composite_regions(int(name.split("-")[1]))[1]
        else:
            region = {"bridged": BRIDGED, "holed": HOLED, "spanned": SPANNED, "mixed": MIXED}[name]
        lo, hi = region.bbox
        rng = np.random.Generator(np.random.PCG64(70 + len(name)))
        centers = lo - 0.2 + rng.random((40, 2)) * (hi - lo + 0.4)
        radii = rng.uniform(0.02, 0.6, 40) * float(np.max(hi - lo))
        area = regions.ball_areas(region, centers, radii)
        want, stderr = disk_area_mc(region, centers, radii, 200_000, seed=9)
        assert ((area > 0.0) & (area < 0.999 * math.pi * radii**2)).sum() >= 10  # most balls cross the boundary
        assert np.all(np.abs(area - want) <= 5.0 * np.maximum(stderr, 1e-12))

    def test_random_regions_match_monte_carlo(self):
        # unions of up to four balls, rects and star-shaped polygons (either orientation, open or
        # closed): the area inside random balls, and the region's own measure, against sampling
        rng = np.random.Generator(np.random.PCG64(73))

        def primitive():
            kind, closed, c = int(rng.integers(4)), bool(rng.integers(2)), rng.uniform(-1.0, 1.0, 2)
            if kind == 0:
                return Ball(tuple(c), rng.uniform(0.1, 0.8), closed)
            if kind == 1:
                half = rng.uniform(0.05, 0.5, 2)
                return Rect(tuple(c - half), tuple(c + half), closed)
            n = int(rng.integers(3, 8))
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            while np.diff(angles, append=angles[0] + 2.0 * math.pi).max() >= math.pi:  # keep c inside: simple
                angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            v = c + rng.uniform(0.2, 0.9, (n, 1)) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            return Polygon(tuple(map(tuple, v if kind == 2 else v[::-1])), closed)

        for _ in range(25):
            region = Region(tuple(primitive() for _ in range(int(rng.integers(2, 5)))))
            lo, hi = region.bbox
            centers = lo - 0.3 + rng.random((8, 2)) * (hi - lo + 0.6)
            radii = rng.uniform(0.05, 1.2, 8)
            want, stderr = disk_area_mc(region, centers, radii, 100_000, seed=10)
            stderr = np.maximum(stderr, math.pi * radii**2 * math.sqrt(3e-5))  # three expected hits
            assert np.all(np.abs(regions.ball_areas(region, centers, radii) - want) <= 5.0 * stderr)
            value = region.measure()
            pts = lo + rng.random((100_000, 2)) * (hi - lo)
            p = region.contains_many(pts).mean()
            box = float(np.prod(hi - lo))
            assert abs(value - p * box) <= 5.0 * box * math.sqrt(max(p * (1.0 - p), 3e-5) / 100_000)

    def test_clockwise_polygon_support(self):
        ccw = MIXED.primitives[0]
        cw = Region((Polygon(ccw.vertices[::-1]),) + MIXED.primitives[1:])
        centers, radii = random_balls(MIXED.bbox, 300, seed=72)
        assert np.allclose(regions.ball_areas(cw, centers, radii), regions.ball_areas(MIXED, centers, radii),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("support, center, radius, want", [
        ((Ball((0.0, 0.0), 1.0), Rect((0.5, -0.2), (2.0, 0.2))), (0.0, 0.0), 1.0, math.pi),  # the ball's own circle
        ((Ball((2.0, 0.0), 1.0, closed=True), Rect((5.0, 5.0), (6.0, 6.0))), (0.0, 0.0), 1.0, 0.0),  # touching outside
        ((Ball((0.5, 0.0), 0.5, closed=True), Rect((5.0, 5.0), (6.0, 6.0))), (0.0, 0.0), 1.0, math.pi / 4.0),
        ((Ball((0.0, 0.0), 2.0, closed=True), Rect((5.0, 5.0), (6.0, 6.0))), (1.0, 0.0), 1.0, math.pi),
        ((Rect((-5.0, -1.0), (5.0, 5.0), closed=True),), (0.0, 0.0), 1.0, math.pi),  # an edge touching inside
        ((Rect((-5.0, 1.0), (5.0, 5.0), closed=True),), (0.0, 0.0), 1.0, 0.0),  # and outside
        ((Polygon(((1.0, 0.0), (3.0, 0.0), (3.0, 2.0))),), (0.0, 0.0), 1.0, 0.0),  # a corner on the circle
        (HOLED.primitives, (0.3, 1.0), 0.5, math.pi / 4.0),  # across a slit
        (HOLED.primitives, (0.4, 0.0), 1.0, math.pi - 0.04),  # around the hole
    ], ids=["own-circle", "touching-disk-outside", "touching-disk-inside", "inside-touching-disk",
            "touching-edge-inside", "touching-edge-outside", "corner", "slit", "hole"])
    def test_touching_and_shared_boundaries(self, support, center, radius, want):
        area = regions.ball_areas(Region(tuple(support)), np.asarray([center]), np.asarray([radius]))[0]
        assert area == pytest.approx(want, rel=1e-12, abs=1e-15)


def sphere_points(n, seed):
    """n points of the unit sphere in 3-D, normalized Gaussian vectors, and its six poles."""
    g = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, 3))
    return np.concatenate([g / np.linalg.norm(g, axis=1, keepdims=True), np.eye(3), -np.eye(3)])


class TestBallsInRegion3D:
    """3-D containment admits exactly the balls that one primitive holds, and no ball that leaves the region."""

    def test_waist_of_two_balls_is_refused(self):
        # B(0, 0.44) and B(0, 0.437) reach past the waist on their whole circle x = 0
        t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        for r in (0.44, 0.437):
            assert not WAIST_3D.contains_many(np.stack([0.0 * t, r * np.cos(t), r * np.sin(t)], axis=1)).any()
        ok, directions = balls_in_region(WAIST_3D, np.zeros((2, 3)), np.asarray([0.44, 0.437]))
        assert not ok.any() and not directions.any()

    def test_one_primitive_refutes_with_its_direction(self):
        # a ball domain refutes along the radius, a box along the normal of the nearest face; a ball
        # concentric with the domain ball has no direction
        centers = np.asarray([[2.5, 0.0, 0.0], [0.0, -2.5, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        radii = np.asarray([1.0, 1.0, 1.0, 3.5, 0.5])
        ok, way = balls_in_region(Region((Ball((0.0, 0.0, 0.0), 3.0),)), centers, radii)
        assert ok.tolist() == [False, False, False, False, True]
        assert way.tolist() == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ok, way = balls_in_region(Region((Rect((-3.0, -3.0, -3.0), (3.0, 3.0, 4.0)),)), centers, radii)
        assert ok.tolist() == [False, False, False, False, True]
        assert way.tolist() == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("region, spanning", [(BALL_BOX, ((0.7, 0.0, 0.0), 0.35)),
                                                  (THREE_BALLS, ((0.0, 0.0, 0.0), 0.3))],
                             ids=["ball-box", "three-balls"])
    def test_admitted_balls_are_those_one_primitive_holds(self, region, spanning):
        centers, radii = random_balls(region.bbox, 1500, seed=1503)
        ok, directions = balls_in_region(region, centers, radii)
        assert ok.dtype == bool and np.array_equal(ok, balls_in_one_primitive(region, centers, radii))
        assert 0 < ok.sum() < len(ok) and not directions.any()
        shell = np.concatenate([rho * sphere_points(2000, seed=len(region.primitives)) for rho in (1.0, 0.5)])
        for c, r in zip(centers[ok], radii[ok]):
            assert region.contains_many(c + r * shell).all()
        # the refusal is conservative: a ball across two primitives, inside the region, is refused
        c, r = np.asarray(spanning[0]), spanning[1]
        assert region.contains_many(c + r * shell).all()
        assert not balls_in_region(region, c[None, :], np.asarray([r]))[0][0]


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
