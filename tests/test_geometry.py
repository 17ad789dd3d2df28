import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnslab.geometry import (
    Ball,
    Similarity,
    SimilarityArray,
    apply_similarity,
    chord_segments,
    lens_angles,
    lens_area,
    lens_constant,
    unit_ball_volume,
)


def mc_disk_overlap_fraction(d, n=1_000_000, seed=42):
    """Independent oracle: fraction of a unit disk covered by a unit disk at
    center distance d, by direct rejection sampling."""
    rng = np.random.Generator(np.random.PCG64(seed))
    r = np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    x = r * np.cos(theta)
    y = r * np.sin(theta)
    inside = (x + d) ** 2 + y**2 < 1.0
    return float(inside.mean())


class TestSimilarity:
    def test_identity(self):
        h = Similarity.identity(2)
        assert np.allclose(apply_similarity(h, (3.0, 4.0)), [3.0, 4.0])

    def test_scale_translate(self):
        h = Similarity(2.0, np.eye(2), (1.0, 0.0))
        assert np.allclose(apply_similarity(h, (1.0, 1.0)), [3.0, 2.0])

    def test_rotation_scales_distances(self):
        # |h(e1) - h(e2)| must equal scale * |e1 - e2| by the defining identity
        h = Similarity.rotation(math.pi / 2.0, scale=2.0)
        y1 = apply_similarity(h, (1.0, 0.0))
        y2 = apply_similarity(h, (0.0, 1.0))
        assert math.isclose(np.linalg.norm(y1 - y2), 2.0 * math.sqrt(2.0), rel_tol=1e-12)

    def test_dimension_mismatch_rejected(self):
        h = Similarity.identity(2)
        with pytest.raises(ValueError):
            apply_similarity(h, (1.0, 2.0, 3.0))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            Similarity(1.0, np.array([[1.0, 0.1], [0.0, 1.0]]), (0.0, 0.0))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Similarity(0.0, np.eye(2), (0.0, 0.0))

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_distance_scaling_invariant(self, k, theta, ax, ay):
        h = Similarity.rotation(theta, scale=k, translation=(ax, ay))
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.normal(size=(50, 2, 2))
        for x, y in pts:
            lhs = np.linalg.norm(h(x) - h(y))
            rhs = k * np.linalg.norm(x - y)
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-30)

    def test_inverse(self):
        h = Similarity.rotation(0.7, scale=3.0, translation=(1.0, -2.0))
        p = np.array([0.3, 0.4])
        assert np.allclose(h.inverse()(h(p)), p, atol=1e-12)


class TestSimilarityArray:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_map_like_their_similarities(self, dim):
        rng = np.random.Generator(np.random.PCG64(dim))
        sims = []
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            sims.append(Similarity(float(rng.uniform(0.01, 50.0)), q, tuple(rng.normal(scale=10.0, size=dim))))
        parts = np.stack([h.orthogonal for h in sims])
        parts.setflags(write=False)
        arr = SimilarityArray(np.array([h.scale for h in sims]), parts, np.array([h.translation for h in sims]))
        pts = rng.normal(scale=5.0, size=(300, dim))
        mapped = arr.apply_many(pts)
        rows = arr.similarities()
        for i, h in enumerate(sims):
            assert np.array_equal(mapped[i], h.apply_many(pts))
            assert np.array_equal(rows[i].apply_many(pts), h.apply_many(pts))
            assert (rows[i].scale, rows[i].translation, rows[i]._linear) == (h.scale, h.translation, h._linear)
            assert np.array_equal(rows[i].orthogonal, h.orthogonal) and not rows[i].orthogonal.flags.writeable
        column_major = sims[0].apply_many(np.asfortranarray(pts))
        assert column_major.flags.f_contiguous and np.array_equal(column_major, sims[0].apply_many(pts))
        assert sims[0].apply_many(pts).flags.f_contiguous  # column-major from a row-major input too
        one = SimilarityArray.of(sims[0])
        assert len(one) == 1 and np.array_equal(one.apply_many(pts)[0], sims[0].apply_many(pts))
        some = arr.take(np.array([3, 5]))
        assert len(some) == 2 and not some.similarities()[1].orthogonal.flags.writeable
        assert np.array_equal(some.apply_many(pts)[1], sims[5].apply_many(pts))


class TestBall:
    def test_open_vs_closed(self):
        b_open = Ball((0.0, 0.0), 1.0)
        b_closed = Ball((0.0, 0.0), 1.0, closed=True)
        assert not b_open.contains((1.0, 0.0))
        assert b_closed.contains((1.0, 0.0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            Ball((0.0,), 1.0)


class TestUnitBallVolume:
    def test_values(self):
        assert unit_ball_volume(2) == math.pi
        assert unit_ball_volume(3) == 4.0 * math.pi / 3.0
        with pytest.raises(ValueError):
            unit_ball_volume(4)

    @pytest.mark.parametrize("dim,radius", [(2, 1.0), (2, 2.5), (3, 1.0), (3, 0.7)])
    def test_volume_matches_mc_cube(self, dim, radius):
        # volume of B(0,r) by counting samples of the bounding cube
        rng = np.random.Generator(np.random.PCG64(7))
        n = 400_000
        pts = (rng.random((n, dim)) * 2.0 - 1.0) * radius
        p = float((np.sum(pts * pts, axis=1) < radius * radius).mean())
        vol_cube = (2.0 * radius) ** dim
        est = p * vol_cube
        stderr = vol_cube * math.sqrt(p * (1 - p) / n)
        assert abs(est - unit_ball_volume(dim) * radius**dim) <= 3.0 * stderr


class TestLensArea:
    def test_nested(self):
        assert lens_area(1.0, 1.0, 0.0) == math.pi

    def test_disjoint(self):
        assert lens_area(1.0, 1.0, 2.5) == 0.0

    def test_unit_distance_value(self):
        # two unit disks at center distance 1: area 2*pi/3 - sqrt(3)/2
        expected = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        assert math.isclose(lens_area(1.0, 1.0, 1.0), expected, rel_tol=1e-12)
        assert math.isclose(lens_area(1.0, 1.0, 1.0), 1.2283697, abs_tol=1e-7)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            lens_area(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lens_area(1.0, 1.0, -0.5)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=25.0),
    )
    @settings(max_examples=300)
    def test_symmetry(self, r1, r2, d):
        assert lens_area(r1, r2, d) == lens_area(r2, r1, d)

    def test_monotone_in_distance(self):
        ds = np.linspace(0.0, 3.0, 400)
        vals = [lens_area(1.0, 1.2, d) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_continuity_at_tangency(self):
        for r1, r2 in [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)]:
            d_out = r1 + r2
            d_in = abs(r1 - r2)
            assert abs(lens_area(r1, r2, d_out - 1e-14) - lens_area(r1, r2, d_out)) < 1e-12
            assert abs(lens_area(r1, r2, d_in + 1e-14) - lens_area(r1, r2, d_in)) < 1e-12

    def test_overlap_monotone_in_big_radius(self):
        # area of B(0,r) ∩ B(r,1) grows with r on a grid r in {1, 1.1, ..., 10}
        vals = [lens_area(r, 1.0, r) for r in np.arange(1.0, 10.01, 0.1)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mc_oracle(self):
        est = mc_disk_overlap_fraction(1.0)
        assert abs(est - lens_area(1.0, 1.0, 1.0) / math.pi) < 0.002

    # covered fraction of a disk of radius x*R centred on the boundary of a
    # disk of radius R, from the textbook formula at 50 digits (mpmath)
    BOUNDARY_FRACTION = {
        1e-3: 0.49989389670195283,
        1e-4: 0.49998938967045786,
        1e-5: 0.49999893896704606,
        1e-6: 0.49999989389670463,
        1e-7: 0.49999998938967044,
        1e-8: 0.49999999893896707,
        1e-9: 0.4999999998938967,
    }

    @pytest.mark.parametrize("big", [1.0, 4.0421986745463475e-13])
    @pytest.mark.parametrize("ratio", sorted(BOUNDARY_FRACTION))
    def test_very_unequal_radii(self, big, ratio):
        small = ratio * big
        frac = lens_area(small, big, big) / (math.pi * small * small)
        assert math.isclose(frac, self.BOUNDARY_FRACTION[ratio], rel_tol=1e-14)

    def test_chain_sharp_probe_input(self):
        # the deepest restricted probe of default_sequences(3, 5) at m = 3:
        # the direct acos form returned 219.19 here
        a = 4.0421986745463475e-13
        frac = lens_area(1e-19, a, a) / (math.pi * 1e-38)
        assert math.isclose(frac, 0.4999999737510934, rel_tol=1e-14)
        for r in (1e-25, 1e-22, 1e-16):
            assert 0.49 < lens_area(r, a, a) / (math.pi * r * r) <= 0.5


class TestLensAngles:
    @pytest.mark.parametrize("r1, r2, d, t", [
        (1.0, 1.0, 0.0, (math.pi, 0.0)),  # coincident equal disks: the whole disk
        (1.0, 0.5, 0.2, (0.0, math.pi)),
        (0.5, 1.0, 0.2, (math.pi, 0.0)),
        (1.0, 1.0, 2.5, (0.0, 0.0)),
    ], ids=["coincident", "two-in-one", "one-in-two", "apart"])
    def test_containment_cases(self, r1, r2, d, t):
        t1, t2, _, _ = lens_angles(r1, r2, d)
        assert (float(t1), float(t2)) == t

    @pytest.mark.parametrize("r1, r2, d", [(1.0, 1.0, 0.0), (0.7, 0.7, 0.0), (1.0, 0.5, 0.2), (0.5, 1.0, 0.2),
                                           (1.0, 1.0, 1.0), (1.0, 1.2, 0.9), (1.0, 1.0, 2.5)])
    def test_segments_sum_to_lens_area(self, r1, r2, d):
        t1, t2, _, _ = lens_angles(r1, r2, d)
        lens = float(chord_segments(np.float64(r1), 2.0 * t1) + chord_segments(np.float64(r2), 2.0 * t2))
        assert math.isclose(lens, lens_area(r1, r2, d), rel_tol=1e-14, abs_tol=1e-300)


class TestLensConstant:
    def test_value(self):
        assert math.isclose(lens_constant(), 0.3910022, abs_tol=1e-7)

    def test_matches_lens_area(self):
        assert math.isclose(lens_constant(), lens_area(1.0, 1.0, 1.0) / math.pi, rel_tol=0.0, abs_tol=1e-15)

    def test_is_infimum_over_big_radii(self):
        # the normalized overlap at distance = big radius is smallest at r = 1
        c = lens_constant()
        for r in np.arange(1.0, 10.01, 0.25):
            assert lens_area(r, 1.0, r) / math.pi >= c - 1e-12

    def test_mc_estimate(self):
        assert abs(mc_disk_overlap_fraction(1.0) - lens_constant()) < 0.002
