import functools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from qnslab.counterexample import build_domain, default_sequences
from qnslab.fields import (
    DomainError,
    Field,
    constant_field,
    harmonic_field,
    indicator_field,
    radial_bump_field,
    sum_field,
)
from qnslab.geometry import Ball, Similarity, SimilarityArray, lens_area, lens_constant
from qnslab import quadrature, regions
from qnslab.quadrature import (
    ContainmentError,
    QuadratureSpec,
    _cube_blocks,
    derive_seed,
    mean_over_ball,
    mean_over_image,
    sample_in_ball,
)
from qnslab.regions import MarkedSet, Polygon, Rect, Region, images_in_region, radial_bounds
from test_qns_engine import reference_sample_mean
from test_regions import RING, WAIST_3D, dense_points

OMEGA = Region((Ball((0.0, 0.0), 4.0),))
SUPPORT = Region((Ball((0.0, 0.0), 1.0, closed=True),))
CHI = indicator_field(SUPPORT, OMEGA)


def ball_arrays(balls):
    """The ``(centers, radii)`` probe array of a list of balls."""
    return np.asarray([b.center for b in balls]), np.asarray([b.radius for b in balls])


class TestSpecValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method="qmc")

    def test_bad_target(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_error=0.5)

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_samples=10)


class TestSampling:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stratified", [False, True])
    def test_samples_inside_ball(self, dim, stratified):
        rng = np.random.Generator(np.random.PCG64(0))
        center = np.zeros(dim)
        pts = sample_in_ball(center, 2.0, 4096, rng, stratified)
        assert np.all(np.sum(pts * pts, axis=1) <= 4.0 + 1e-12)

    def test_uniformity_moment(self):
        # E|X|^2 over the unit disk is 1/2
        rng = np.random.Generator(np.random.PCG64(1))
        pts = sample_in_ball(np.zeros(2), 1.0, 200_000, rng)
        m2 = float(np.mean(np.sum(pts * pts, axis=1)))
        assert abs(m2 - 0.5) < 0.01

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_are_column_major(self, dim):
        rng = np.random.Generator(np.random.PCG64(2))
        assert sample_in_ball(np.zeros(dim), 1.5, 1000, rng).flags.f_contiguous
        base = quadrature._ball_base(rng.random((1000, dim)))
        assert quadrature._place_in_ball(base, np.ones(dim), 0.5).flags.f_contiguous

    @pytest.mark.parametrize("stratified", [False, True])
    def test_negative_count_is_refused(self, stratified):
        with pytest.raises(ValueError):
            sample_in_ball(np.zeros(2), 1.0, -5, np.random.Generator(np.random.PCG64(0)), stratified)


class TestAngleFactors:
    """The ball sampler's cos and sin of 2 pi u against 110-bit mpmath values."""

    @pytest.fixture(scope="class")
    def reference(self):
        u = np.concatenate([[0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 2.0**-53],
                            np.random.Generator(np.random.PCG64(15)).random(100_000)])
        with mpmath.workprec(110):
            two_pi = 2 * mpmath.pi
            exact = [v for x in u.tolist() for v in mpmath.cos_sin(two_pi * x)]
            hi = np.array([float(v) for v in exact])
            lo = np.array([float(v - h) for v, h in zip(exact, hi.tolist())])  # each value is hi + lo to about 2^-106
        return u, hi.reshape(-1, 2), lo.reshape(-1, 2)

    @staticmethod
    def errors(factors, hi, lo):
        """Max |error| of the cos and sin columns, and of c^2 + s^2 - 1, all to about 1e-32."""
        cs = np.stack(factors, axis=1)
        err = (cs - hi) - lo
        # c^2 + s^2 - 1 = sum of (c - cos)(c + cos) over both factors
        return np.abs(err).max(axis=0), np.abs((err * (cs + hi)).sum(axis=1)).max()

    def test_match_mpmath(self, reference):
        u, hi, lo = reference
        factors = quadrature._turn_cos_sin(u * quadrature._TURN)
        err, unit = self.errors(factors, hi, lo)
        assert (err <= 2.0**-51).all() and unit <= 2.0**-51
        # the quarter turns are exact
        assert np.array_equal(np.stack(factors, axis=1)[[0, 2, 3, 4]], [[1, 0], [0, 1], [-1, 0], [0, -1]])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ball_base_angle(self, reference, dim):
        # theta in 2-D and phi in 3-D are 2 pi times the last uniform of a row
        u, hi, lo = reference
        cube = np.random.Generator(np.random.PCG64(dim)).random((len(u), dim))
        cube[:, -1] = u
        base = quadrature._ball_base(cube)
        err, unit = self.errors(base[-2:], hi, lo)
        assert (err <= 2.0**-51).all() and unit <= 2.0**-51


def joined_blocks(n, dim, rng, stratified):
    """The blocks of ``_cube_blocks``, joined."""
    return np.concatenate(list(_cube_blocks(n, dim, rng, stratified)))


def reference_cube_samples(n, dim, rng, stratified):
    """The unit-cube sampler as it was before blocks: one whole draw per chunk."""
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


class TestStratifiedSampler:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 2025, 2048, 4096, 8192, 9999])
    def test_draws_exactly_n(self, dim, n):
        cube = joined_blocks(n, dim, np.random.Generator(np.random.PCG64(0)), True)
        assert cube.shape == (n, dim)
        assert np.all((cube >= 0.0) & (cube < 1.0))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("stratified", [False, True])
    # 9999 and 133,333 put the grid's end g^dim inside a block in 2-D
    @pytest.mark.parametrize("n", [1, 2025, 8191, 8192, 8193, 9999, 16_383, 16_384, 16_385, 133_333, 262_144])
    def test_blocks_equal_one_whole_draw(self, dim, stratified, n):
        blocks = list(_cube_blocks(n, dim, np.random.Generator(np.random.PCG64(n)), stratified))
        assert all(len(b) <= quadrature._BLOCK for b in blocks) and len(blocks) == -(-n // quadrature._BLOCK)
        whole = reference_cube_samples(n, dim, np.random.Generator(np.random.PCG64(n)), stratified)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_perfect_square_keeps_one_point_per_cell(self):
        cube = joined_blocks(4096, 2, np.random.Generator(np.random.PCG64(1)), True)
        cells = np.floor(cube * 64).astype(int)
        assert len({tuple(c) for c in cells}) == 4096

    @pytest.mark.parametrize("workers", [1, 2])
    def test_n_samples_is_the_requested_count(self, workers):
        # batches of 4096 then 8192 points; 8192 is not a square
        spec = QuadratureSpec(method="stratified", target_rel_error=1e-3, max_samples=12_288, seed=5,
                              workers=workers)
        res = mean_over_ball(CHI, Ball((1.0, 0.0), 1.0), spec)
        assert res.n_samples == 12_288
        assert abs(res.mean - lens_area(1.0, 1.0, 1.0) / math.pi) <= 4.0 * res.stderr

    def test_large_batches_split_into_non_square_chunks(self, monkeypatch):
        # batches of 4096 up to 2^17 points (258,048 in all), then 2^18 and
        # 400,001 points, which split into 2 and 3 chunks of non-square sizes
        sizes = []

        def recording(n, *args, _original=_cube_blocks):
            sizes.append(n)
            return _original(n, *args)

        monkeypatch.setattr(quadrature, "_cube_blocks", recording)
        spec = QuadratureSpec(method="stratified", target_rel_error=1e-4, max_samples=920_193, seed=5)
        res = mean_over_ball(CHI, Ball((1.0, 0.0), 1.0), spec)
        assert sizes == [4096 * 2**k for k in range(6)] + [2**17] * 2 + [133_333, 133_333, 133_335]
        assert res.n_samples == 920_193
        assert abs(res.mean - lens_area(1.0, 1.0, 1.0) / math.pi) <= 4.0 * res.stderr


class TestSampleMemo:
    """Probe arrays: every probe maps the one base sample drawn per chunk."""

    # balls that stop after different numbers of batches, and one the domain refuses
    BALLS = (Ball((1.0, 0.0), 1.0), Ball((0.5, 0.5), 0.7), Ball((1.8, 0.0), 1.0), Ball((3.5, 0.0), 1.0),
             Ball((1.0, 0.0), 1.0))

    @staticmethod
    def assert_matches_one_probe_calls(outcomes, one_probe, probes):
        assert len(outcomes) == len(probes)
        for outcome, probe in zip(outcomes, probes):
            try:
                alone = one_probe(probe)
            except (ContainmentError, DomainError) as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
            else:
                assert outcome == alone

    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_ball_array_matches_one_probe_calls(self, method):
        spec = QuadratureSpec(method=method, target_rel_error=0.01, max_samples=30_000, seed=11, workers=2)
        outcomes = quadrature._ball_means(CHI, *ball_arrays(self.BALLS), spec)
        assert isinstance(outcomes[3], ContainmentError)
        assert len({res.n_samples for res in outcomes if not isinstance(res, Exception)}) > 1
        self.assert_matches_one_probe_calls(outcomes, lambda b: mean_over_ball(CHI, b, spec), self.BALLS)

    def test_3d_ball_array_matches_one_probe_calls(self):
        omega = Region((Ball((0.0, 0.0, 0.0), 3.0),))
        u = indicator_field(Region((Ball((0.0, 0.0, 0.0), 1.0, closed=True),)), omega)
        spec = QuadratureSpec(method="mc", target_rel_error=0.01, max_samples=20_000, seed=12)
        balls = [Ball((0.5, 0.0, 0.0), 1.0), Ball((0.0, 0.5, 0.2), 0.8), Ball((1.2, 0.0, 0.0), 0.6)]
        outcomes = quadrature._ball_means(u, *ball_arrays(balls), spec)
        self.assert_matches_one_probe_calls(outcomes, lambda b: mean_over_ball(u, b, spec), balls)

    def test_image_array_matches_one_probe_calls(self):
        # a domain of two open rects: their shared edge x = 0 is a slit outside
        # the domain, so the images that straddle it are refused
        u = indicator_field(SUPPORT, Region((Rect((-4.0, -4.0), (0.0, 4.0)), Rect((0.0, -4.0), (4.0, 4.0)))))
        d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
        spec = QuadratureSpec(method="mc", target_rel_error=0.01, max_samples=30_000, seed=13, workers=2)
        sims = [Similarity(2.0, np.eye(2), (0.5, 0.0)), Similarity.rotation(0.3, scale=1.2, translation=(0.2, 0.1)),
                Similarity(0.5, np.eye(2), (-1.0, 0.5)), Similarity(1.0, np.eye(2), (2.0, 0.0))]
        probes = SimilarityArray(np.array([h.scale for h in sims]), np.stack([h.orthogonal for h in sims]),
                                 np.array([h.translation for h in sims]))
        assert images_in_region(d.region, u.domain, probes).tolist() == [False, False, True, True]
        outcomes = quadrature._image_means(u, d, probes, spec)
        assert len({res.n_samples for res in outcomes if not isinstance(res, Exception)}) > 1
        self.assert_matches_one_probe_calls(outcomes, lambda h: mean_over_image(u, d, h, spec), sims)

    @pytest.mark.parametrize("method", ["mc", "stratified", "auto"])
    def test_labeled_ball_array_matches_one_probe_calls_on_child_specs(self, monkeypatch, method):
        # under "auto" every contained probe is an exact disk mean; only
        # sampled probes derive a seed
        spec = QuadratureSpec(method=method, target_rel_error=0.01, max_samples=30_000, seed=11, workers=2)
        labels = [f"ball:{i}" for i in range(len(self.BALLS))]
        derived = []

        def counting(seed, label, _original=derive_seed):
            derived.append(label)
            return _original(seed, label)

        monkeypatch.setattr(quadrature, "derive_seed", counting)
        outcomes = quadrature._ball_means(CHI, *ball_arrays(self.BALLS), spec, labels)
        assert isinstance(outcomes[3], ContainmentError)
        methods = {res.method for res in outcomes if not isinstance(res, Exception)}
        assert methods == ({"exact"} if method == "auto" else {method})
        assert derived == [label for label, res in zip(labels, outcomes)
                           if not isinstance(res, Exception) and res.method != "exact"]
        self.assert_matches_one_probe_calls(
            outcomes, lambda probe: mean_over_ball(CHI, probe[1], spec.child(probe[0])), list(zip(labels, self.BALLS)))

    @pytest.mark.parametrize("field", ["indicator", "constant"])
    def test_labeled_image_array_matches_one_probe_calls_on_child_specs(self, field):
        # images inside one rect, two across the slit x = 0 between the rects,
        # and one that leaves the domain
        omega = Region((Rect((-4.0, -4.0), (0.0, 4.0)), Rect((0.0, -4.0), (4.0, 4.0))))
        u = indicator_field(SUPPORT, omega) if field == "indicator" else constant_field(1.0, omega)
        d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
        spec = QuadratureSpec(method="mc", target_rel_error=0.01, max_samples=30_000, seed=13)
        sims = [Similarity(2.0, np.eye(2), (0.5, 0.0)), Similarity.rotation(0.3, scale=1.2, translation=(0.2, 0.1)),
                Similarity(0.5, np.eye(2), (-1.0, 0.5)), Similarity(1.0, np.eye(2), (2.0, 0.0)),
                Similarity(2.0, np.eye(2), (3.5, 0.0))]
        probes = SimilarityArray(np.array([h.scale for h in sims]), np.stack([h.orthogonal for h in sims]),
                                 np.array([h.translation for h in sims]))
        assert images_in_region(d.region, omega, probes).tolist() == [False, False, True, True, False]
        labels = [f"image:{i}" for i in range(len(sims))]
        outcomes = quadrature._image_means(u, d, probes, spec, labels)
        assert isinstance(outcomes[4], DomainError)
        self.assert_matches_one_probe_calls(
            outcomes, lambda probe: mean_over_image(u, d, probe[1], spec.child(probe[0])), list(zip(labels, sims)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_ball_mean_draws_the_public_sampler_stream(self, dim, method):
        # one chunk of 4096 points from the (seed, 0, 0) stream: the base-sample
        # path must place exactly the points that sample_in_ball draws
        u = indicator_field(Region((Ball((0.0,) * dim, 1.0, closed=True),)), Region((Ball((0.0,) * dim, 4.0),)))
        ball = Ball((0.5,) + (0.25,) * (dim - 1), 1.3)
        spec = QuadratureSpec(method=method, max_samples=4096, seed=15)
        pts = sample_in_ball(ball.center, ball.radius, 4096, quadrature._rng(spec.seed, 0, 0), method == "stratified")
        expected = float(u.evaluate_many(pts).sum()) / 4096
        assert mean_over_ball(u, ball, spec).mean == expected

    def test_over_draw_outside_the_domain_is_rejected(self):
        # the first `size` mapped candidates, the ones that enter the mean, lie
        # in the domain and one over-drawn candidate does not: h(D) leaves the
        # domain, so the call must still fail
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        spec = QuadratureSpec(method="mc", max_samples=4096, seed=14)
        base = quadrature._image_base(d, spec.seed, 0, 0, 4096)
        assert len(base) > 4096
        for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            h = Similarity.rotation(float(theta))
            x = h.apply_many(base)[:, 0]
            if x[4096:].max() > x[:4096].max():
                break
        else:
            pytest.fail("no direction puts an over-drawn candidate outermost")
        cut = 0.5 * (x[:4096].max() + x[4096:].max())
        u = indicator_field(SUPPORT, Region((Rect((-2.0, -2.0), (cut, 2.0)),)))
        u.require_in_domain(h.apply_many(base[:4096]))
        with pytest.raises(DomainError):
            mean_over_image(u, d, h, spec)
        # in an array, only that probe fails
        sims = [Similarity(0.5, np.eye(2), (-1.0, 0.0)), h, Similarity.rotation(0.2, scale=0.8)]
        probes = SimilarityArray(np.array([g.scale for g in sims]), np.stack([g.orthogonal for g in sims]),
                                 np.array([g.translation for g in sims]))
        outcomes = quadrature._image_means(u, d, probes, spec)
        assert isinstance(outcomes[1], DomainError)
        self.assert_matches_one_probe_calls(outcomes, lambda g: mean_over_image(u, d, g, spec), sims)


# the indicator of an overlapping disk and rect: sampled under every method
DISK_RECT = indicator_field(Region((Ball((-0.5, 0.0), 1.0, closed=True), Rect((0.0, -0.5), (1.5, 0.5)))), OMEGA)


def comparable(outcomes):
    return [(type(res), str(res)) if isinstance(res, Exception) else res for res in outcomes]


class TestWorkerIndependence:
    """The worker count only schedules chunks: results depend on the seed alone."""

    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_two_million_sample_means(self, method):
        spec = QuadratureSpec(method=method, target_rel_error=1e-4, max_samples=2_000_000, seed=3)
        ball = Ball((0.2, 0.1), 2.0)
        one, two, four = (mean_over_ball(DISK_RECT, ball, replace(spec, workers=w)) for w in (1, 2, 4))
        assert one.n_samples == 2_000_000
        assert one == two == four

    BALLS = [Ball((0.0, 0.0), 2.0), Ball((0.5, 0.5), 1.0), Ball((3.5, 0.0), 1.0), Ball((-0.5, 0.2), 1.5)]
    IMAGES = SimilarityArray(np.array([1.5, 0.8, 1.0, 1.2]), np.stack([np.eye(2)] * 4),
                             np.array([[0.0, 0.0], [0.5, -0.5], [3.5, 0.0], [-0.5, 0.2]]))

    @pytest.mark.parametrize("labels", [None, ["a", "b", "c", "d"]], ids=["shared", "labeled"])
    @pytest.mark.parametrize("max_samples", [20_000, 530_000])
    def test_probe_arrays(self, labels, max_samples):
        # 20,000 samples: every batch is one chunk, run without a pool;
        # 530,000: the batch of 2^18 points splits into two chunks, one task each
        spec = QuadratureSpec(method="mc", target_rel_error=1e-4, max_samples=max_samples, seed=21)
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))

        def outcomes(workers):
            w = replace(spec, workers=workers)
            return (comparable(quadrature._ball_means(DISK_RECT, *ball_arrays(self.BALLS), w, labels)),
                    comparable(quadrature._image_means(DISK_RECT, d, self.IMAGES, w, labels)))

        balls_out, images_out = outcomes(1)
        assert balls_out[0].n_samples == images_out[0].n_samples == max_samples
        assert outcomes(2) == outcomes(3) == (balls_out, images_out)

    def test_workers_run_one_task_per_chunk(self, monkeypatch):
        tasks = []
        pools = []

        class Recording(quadrature.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables):
                items = list(iterables[0])
                tasks.append((self._max_workers, len(items)))
                return super().map(fn, items)

        monkeypatch.setattr(quadrature, "ThreadPoolExecutor", Recording)
        spec = QuadratureSpec(method="mc", target_rel_error=1e-6, max_samples=8192, seed=21, workers=2)
        # batches of 4096 points, one chunk each: the chunk runs in the caller, with no pool
        assert quadrature._ball_means(DISK_RECT, *ball_arrays(self.BALLS), spec)[0].n_samples == 8192
        assert tasks == [] and pools == []
        # batches of 4096 up to 2^17 points (258,048 in all), then 2^18 points in two chunks, two tasks
        spec = replace(spec, max_samples=520_192)
        assert quadrature._ball_means(DISK_RECT, *ball_arrays(self.BALLS), spec)[0].n_samples == 520_192
        assert tasks == [(2, 2)] and len(pools) == 1
        # then 2^19 points in four chunks: the mean opens one pool, at its first batch of several
        # chunks, runs every later batch on it, and shuts it down when it returns
        tasks.clear()
        pools.clear()
        spec = replace(spec, max_samples=1_044_480)
        assert quadrature._ball_means(DISK_RECT, *ball_arrays(self.BALLS), spec)[0].n_samples == 1_044_480
        assert tasks == [(2, 2), (2, 4)] and len(pools) == 1 and pools[0]._shutdown


class TestBlocks:
    """A chunk runs through blocks of ``_BLOCK`` samples, with the results of one whole-chunk evaluation."""

    BUMP = radial_bump_field((0.3, -0.2), 1.3, 2.0, OMEGA)
    FIELDS = {"bump": BUMP, "sum": sum_field([(0.7, BUMP), (1.3, DISK_RECT)], OMEGA)}

    @pytest.mark.parametrize("field", ["bump", "sum"])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_two_million_sample_means_equal_whole_chunk_evaluation(self, field, method):
        u, ball = self.FIELDS[field], Ball((0.2, 0.1), 2.0)
        spec = QuadratureSpec(method=method, target_rel_error=1e-6, max_samples=2_000_003, seed=7)

        def whole_chunk(batch, chunk, size):
            cube = reference_cube_samples(size, 2, quadrature._rng(spec.seed, batch, chunk), method == "stratified")
            pts = quadrature._place_in_ball(quadrature._ball_base(cube), np.asarray(ball.center), ball.radius)
            return u.evaluate_many(pts, check_domain=False)

        expected = reference_sample_mean(spec, whole_chunk, method)
        assert expected.n_samples == 2_000_003
        assert mean_over_ball(u, ball, spec) == mean_over_ball(u, ball, replace(spec, workers=2)) == expected

    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_chunk_temporaries_stay_block_sized(self, method):
        self.assert_peak_below_4_mib(method, workers=1)

    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_chunk_temporaries_stay_block_sized_on_two_workers(self, method):
        # the two chunks of the last batch run at once; tracemalloc counts the allocations of every thread
        self.assert_peak_below_4_mib(method, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_buffered_chunk_temporaries_stay_block_sized(self, method, workers):
        # an indicator (CHI above) counts hits; a bump takes the chunk buffer of values
        self.assert_peak_below_4_mib(method, workers, self.BUMP)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_screened_chunk_temporaries_stay_block_sized(self, method, workers):
        # rows nearer the center than 0.5 are decided by radius; the band rows, three quarters, are taken out
        self.assert_peak_below_4_mib(method, workers, ball=Ball((0.5, 0.0), 1.0))

    @staticmethod
    def assert_peak_below_4_mib(method, workers, u=CHI, ball=Ball((1.0, 0.0), 1.0)):
        # batches of 4096 up to 2^17 points (258,048 in all), then 2^18 points in two chunks of 2^17
        spec = QuadratureSpec(method=method, target_rel_error=1e-6, max_samples=520_192, seed=5, workers=workers)
        tracemalloc.start()
        try:
            res = mean_over_ball(u, ball, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_samples == 520_192
        # per running task, a few blocks, plus the 1 MiB chunk buffer of values (squared in place) off indicators
        assert peak < 4 * 2**20


class TestHitCounts:
    """An indicator's chunk sums are its hit count, with the results of the buffer of values."""

    SUPPORTS = {"disk": SUPPORT, "disk-rect": DISK_RECT.params["support"],
                "polygon": Region((Polygon(((-1.0, -1.2), (1.6, -0.4), (0.3, 1.5), (-0.6, 0.2))),))}
    BALLS = [Ball((0.2, 0.1), 2.0), Ball((1.0, 0.0), 1.0)]
    MARKED = {"square": MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0)),
              "two-ball": MarkedSet(Region((Ball((-0.4, 0.0), 0.6), Ball((0.4, 0.0), 0.6))), (0.0, 0.0))}
    IMAGES = SimilarityArray(np.array([1.5, 0.8, 2.0]), np.stack([np.eye(2)] * 3),
                             np.array([[0.0, 0.0], [0.9, -0.2], [-0.5, 0.3]]))

    @staticmethod
    def means_and_buffered_means(means, chi, monkeypatch):
        """``means(chi)`` and ``means`` of the one-term sum of ``chi``, whose values are the
        indicator's and which takes the buffer; the indicator never evaluates the field."""
        evaluated = []
        evaluate_many = Field.evaluate_many
        monkeypatch.setattr(Field, "evaluate_many",
                            lambda self, pts, **kw: evaluated.append(self.kind) or evaluate_many(self, pts, **kw))
        counted = means(chi)
        assert evaluated == []
        buffered = means(sum_field([(1.0, chi)], chi.domain))
        assert evaluated and set(evaluated) == {"weighted_sum"}
        return counted, buffered

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    @pytest.mark.parametrize("support", SUPPORTS)
    def test_ball_means_equal_the_buffer_path(self, support, method, workers, monkeypatch):
        # batches of 4096 up to 2^17 points, then 2^18 points in two chunks; the two balls share each chunk
        spec = QuadratureSpec(method=method, target_rel_error=1e-6, max_samples=520_192, seed=19, workers=workers)
        counted, buffered = self.means_and_buffered_means(
            lambda u: quadrature._ball_means(u, *ball_arrays(self.BALLS), spec),
            indicator_field(self.SUPPORTS[support], OMEGA), monkeypatch)
        assert counted == buffered and counted[0].n_samples == 520_192

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("marked", MARKED)
    def test_image_means_equal_the_buffer_path(self, marked, workers, monkeypatch):
        spec = QuadratureSpec(method="mc", target_rel_error=1e-6, max_samples=520_192, seed=23, workers=workers)
        counted, buffered = self.means_and_buffered_means(
            lambda u: quadrature._image_means(u, self.MARKED[marked], self.IMAGES, spec), CHI, monkeypatch)
        assert counted == buffered and counted[0].n_samples == 520_192

    def test_seeded_means_are_pinned(self):
        # recorded before indicators counted hits: a change to the sample stream must update them on purpose
        spec = QuadratureSpec(method="stratified", target_rel_error=1e-4, max_samples=300_000, seed=5)
        assert mean_over_ball(CHI, Ball((1.0, 0.0), 1.0), spec) == (
            0.3910866666666667, 0.0008909520743149262, 300_000, "stratified")
        h = Similarity.rotation(0.4, scale=0.8, translation=(0.9, -0.2))
        spec = QuadratureSpec(target_rel_error=1e-4, max_samples=300_000, seed=16)
        assert mean_over_image(CHI, self.MARKED["square"], h, spec) == (0.55383, 0.0009075666270806836, 300_000, "mc")


# The indicator of the chain's m = 5 disk (radius a_5, about 1.3e-32) on its component's domain.
CHAIN_5 = build_domain(default_sequences(3, 5)).components[4].field_local
A_5 = CHAIN_5.params["support"].primitives[0].radius


def count_tested_points(monkeypatch) -> list:
    """The sizes of the point arrays that ``Region.contains_many`` tests from now on."""
    tested = []
    contains_many = Region.contains_many
    monkeypatch.setattr(Region, "contains_many", lambda self, pts: tested.append(len(pts)) or contains_many(self, pts))
    return tested


class TestRadialScreen:
    """A 2-D indicator ball mean decides rows by their radius where it can,
    with the hit counts of placing and testing every row."""

    POLYGON = Region((Polygon(((-1.0, -1.2), (1.6, -0.4), (0.3, 1.5), (-0.6, 0.2))),))
    TWO_DISKS = Region((Ball((-0.4, 0.0), 0.6, closed=True), Ball((0.4, 0.0), 0.6, closed=True)))
    # per support, balls in units of its scale that meet its boundary: concentric with it (or about
    # its middle), then with the center inside, on the boundary and outside
    CASES = {
        "disk": (CHI, 1.0, [((0.0, 0.0), 1.5), ((0.3, 0.2), 1.0), ((1.0, 0.0), 1.0), ((1.8, 0.3), 1.2)]),
        "disk-rect": (DISK_RECT, 1.0, [((-0.5, 0.0), 1.5), ((0.5, 0.1), 0.6), ((1.5, 0.0), 0.8), ((2.3, 0.4), 1.2)]),
        "polygon": (indicator_field(POLYGON, OMEGA), 1.0,
                    [((0.0, 0.0), 1.5), ((0.2, 0.0), 0.8), ((0.3, 1.5), 1.0), ((1.8, 0.5), 1.2)]),
        "two-disks": (indicator_field(TWO_DISKS, OMEGA), 1.0,
                      [((0.0, 0.0), 1.5), ((-0.4, 0.0), 0.9), ((1.0, 0.0), 0.7), ((1.6, 0.4), 1.0)]),
        # the first ball is certify_failure's, of radius 10 a_5
        "chain-5": (CHAIN_5, A_5, [((0.0, 0.0), 10.0), ((0.3, 0.2), 1.0), ((1.0, 0.0), 1.0), ((1.8, 0.3), 1.2)]),
    }
    LABELS = ["concentric", "inside", "boundary", "outside"]

    @classmethod
    def balls(cls, support):
        _, scale, balls = cls.CASES[support]
        return np.asarray([c for c, _ in balls]) * scale, np.asarray([r for _, r in balls]) * scale

    @staticmethod
    @functools.cache
    def reference_mean(support, method, seed, k):
        """Ball k's mean as every row placed and tested: ``_ball_base`` of the chunk's
        ``_cube_blocks``, ``_place_in_ball`` and the support's ``contains_many``."""
        u = TestRadialScreen.CASES[support][0]
        centers, radii = TestRadialScreen.balls(support)
        spec = QuadratureSpec(method=method, target_rel_error=1e-6, max_samples=520_192, seed=seed)

        def values(batch, chunk, size):
            cube = np.concatenate(list(_cube_blocks(size, 2, quadrature._rng(seed, batch, chunk),
                                                    method == "stratified")))
            pts = quadrature._place_in_ball(quadrature._ball_base(cube), centers[k], float(radii[k]))
            return u.params["support"].contains_many(pts).astype(np.float64)

        return reference_sample_mean(spec, values, method)

    @pytest.mark.parametrize("labels", [None, LABELS], ids=["shared", "labeled"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["mc", "stratified"])
    @pytest.mark.parametrize("support", CASES)
    def test_means_equal_placing_every_row(self, support, method, workers, labels, monkeypatch):
        # batches of 4096 up to 2^17 points, then 2^18 points in two chunks; without labels the
        # balls share each chunk's base sample, with them each streams its own
        spec = QuadratureSpec(method=method, target_rel_error=1e-6, max_samples=520_192, seed=29, workers=workers)
        centers, radii = self.balls(support)
        seeds = [spec.seed] * 4 if labels is None else [derive_seed(spec.seed, label) for label in labels]
        expected = [self.reference_mean(support, method, seed, k) for k, seed in enumerate(seeds)]
        tested = count_tested_points(monkeypatch)
        outcomes = quadrature._ball_means(self.CASES[support][0], centers, radii, spec, labels)
        assert outcomes == expected and all(res.n_samples == 520_192 for res in outcomes)
        # some rows were decided by their radius alone
        assert sum(tested) < 4 * 520_192

    @pytest.mark.parametrize("support", ["disk", "chain-5"])
    def test_rows_within_ulps_of_the_bounds(self, support, monkeypatch):
        u, scale, _ = self.CASES[support]
        region = u.params["support"]
        center, radius = np.asarray([0.25, 0.0]) * scale, 2.0 * scale
        lo, hi, inside = (b[0] for b in radial_bounds(region, center[None, :], np.asarray([radius])))
        assert 0.0 < lo < hi < radius and inside
        # radial factors 1 to 4 ulps on each side of lo / radius and hi / radius
        rho = []
        for bound in (lo, hi):
            for direction in (-1.0, 1.0):
                x = bound / radius
                for _ in range(4):
                    x = np.nextafter(x, direction * np.inf)
                    rho.append(x)
        # each toward angles 0, pi/2, pi and 3 pi/2, exact in the table: the support's boundary is
        # nearest the center toward 0 and farthest toward pi, where a bound off by its margin shows
        rho = np.repeat(rho, 4)
        steps = np.tile(np.arange(4) * (quadrature._TURN / 4.0), len(rho) // 4)
        s = radius * rho
        assert (s < lo).any() and (s > lo).any() and (s < hi).any() and (s > hi).any()

        def screened(k):
            return quadrature._screened_hits(region, center, radius, lo, hi, inside, (rho[k], steps[k].copy()))

        def placed(k):
            base = quadrature._angle_factors((rho[k], steps[k].copy()))
            return np.count_nonzero(region.contains_many(quadrature._place_in_ball(base, center, radius)))

        for k in range(len(rho)):
            assert screened(slice(k, k + 1)) == placed(slice(k, k + 1))
        tested = count_tested_points(monkeypatch)
        assert screened(slice(None)) == placed(slice(None))
        # the screen tested just the band rows; placing every row tests them all
        assert tested == [np.count_nonzero((s >= lo) & (s <= hi)), len(rho)]
        # a shared seed's block, which carries its angle factors, is screened alike
        full = quadrature._angle_factors((rho, steps.copy()))
        assert quadrature._screened_hits(region, center, radius, lo, hi, inside, full) == placed(slice(None))


# Two overlapping disks joined by a rect: some probe balls fit one primitive,
# some span two and take the sampled check, and some leave the domain.
SPANNED = Region((Ball((-1.0, 0.0), 1.5), Ball((1.0, 0.0), 1.5), Rect((-1.0, -0.5), (3.0, 0.5))))


class TestBallArrays:
    """A ``(centers, radii)`` probe array equals one-probe ``mean_over_ball`` calls, bit for bit."""

    RNG = np.random.Generator(np.random.PCG64(90))
    # random balls, then three that only the union of the two disks holds
    CENTERS = np.concatenate([RNG.uniform(-2.0, 2.5, (60, 2)) * np.array([1.0, 0.4]),
                              [[0.0, 0.0], [0.0, 0.2], [0.3, -0.1]]])
    RADII = np.concatenate([RNG.uniform(0.05, 1.2, 60), [1.0, 0.9, 0.95]])

    @staticmethod
    def assert_matches_one_probe_calls(u, centers, radii, outcomes, spec_of):
        assert len(outcomes) == len(radii)
        for i, (c, r, outcome) in enumerate(zip(centers.tolist(), radii.tolist(), outcomes)):
            try:
                alone = mean_over_ball(u, Ball(c, r), spec_of(i))
            except ContainmentError as exc:
                assert type(outcome) is ContainmentError and str(outcome) == str(exc)
                assert (outcome.center, outcome.radius, outcome.direction) == (exc.center, exc.radius, exc.direction)
            else:
                assert outcome == alone

    @pytest.mark.parametrize("u", [
        constant_field(2.5, SPANNED),
        harmonic_field(10.0, 2.0, SPANNED),
        indicator_field(Region((Ball((-1.0, 0.0), 0.7, closed=True), Ball((1.2, 0.2), 0.5))), SPANNED),
        indicator_field(Region((Ball((-1.0, 0.0), 0.7), Rect((-1.0, -0.2), (1.5, 0.3)))), SPANNED),
        sum_field([(2.0, radial_bump_field((0.5, 0.1), 0.8, 1.0, SPANNED)), (1.0, constant_field(0.5, SPANNED))],
                  SPANNED),
    ], ids=["constant", "harmonic", "disjoint-disks", "overlapping-support", "bump-plus-constant"])
    def test_exact_kinds(self, u):
        spec = QuadratureSpec(seed=4)
        outcomes = quadrature._ball_means(u, self.CENTERS, self.RADII, spec)
        held = regions.balls_in_one_primitive(SPANNED, self.CENTERS, self.RADII)
        refused = [isinstance(res, ContainmentError) for res in outcomes]
        assert 0 < sum(refused) < sum(~held) < len(outcomes)  # some balls pass the sampled check
        assert {res.method for res in outcomes if not isinstance(res, Exception)} == {"exact"}
        self.assert_matches_one_probe_calls(u, self.CENTERS, self.RADII, outcomes, lambda i: spec)

    def test_labeled_mc_probes(self):
        u = indicator_field(Region((Rect((-0.5, -0.5), (0.5, 0.5), closed=True),)), SPANNED)
        spec = QuadratureSpec(method="mc", target_rel_error=0.05, max_samples=8192, seed=6)
        centers, radii = self.CENTERS[:20], self.RADII[:20]
        labels = [f"probe:{i}" for i in range(len(radii))]
        outcomes = quadrature._ball_means(u, centers, radii, spec, labels)
        assert any(isinstance(res, ContainmentError) for res in outcomes)
        assert {res.method for res in outcomes if not isinstance(res, Exception)} == {"mc"}
        self.assert_matches_one_probe_calls(u, centers, radii, outcomes, lambda i: spec.child(labels[i]))

    @pytest.mark.parametrize("center, radius, message", [
        ((0.0, 0.0), 0.0, "radius"), ((0.0, 0.0), -1.0, "radius"), ((0.0, 0.0), math.nan, "radius"),
        ((0.0, 0.0), math.inf, "radius"), ((math.nan, 0.0), 1.0, "center"), ((0.0, -math.inf), 1.0, "center"),
        ((0.0, 0.0, 0.0), 1.0, "dimension"),
    ])
    def test_invalid_balls_are_rejected(self, center, radius, message):
        with pytest.raises(ValueError, match=message):
            quadrature._ball_means(CHI, np.asarray([center]), np.asarray([radius]), QuadratureSpec())
        # a stand-in for Ball, which validates on its own, reaches the array path unchecked
        with pytest.raises(ValueError, match=message):
            mean_over_ball(CHI, SimpleNamespace(center=center, radius=radius), QuadratureSpec())


class TestMeanOverBall:
    def test_constant_exact(self):
        u = constant_field(5.0, OMEGA)
        res = mean_over_ball(u, Ball((0.3, 0.2), 1.0), QuadratureSpec(seed=1))
        assert res.mean == 5.0 and res.stderr == 0.0

    def test_indicator_area_ratio(self):
        res = mean_over_ball(CHI, Ball((0.0, 0.0), 2.0),
                             QuadratureSpec(method="stratified", seed=2, max_samples=300_000))
        assert abs(res.mean - 0.25) <= max(3.0 * res.stderr, 1e-3)

    def test_harmonic_mean_value(self):
        omega = Region((Ball((2.0, 1.0), 2.0),))
        u = harmonic_field(1.0, 10.0, omega)
        res = mean_over_ball(u, Ball((2.0, 1.0), 0.5), QuadratureSpec(seed=3, max_samples=400_000))
        assert abs(res.mean - 1.3) <= max(3.0 * res.stderr, 1e-6)

    @pytest.mark.parametrize("center", [(2.0, 1.0), (2.0, 1.0, -0.5)])
    def test_harmonic_auto_is_the_center_value(self, center):
        # x^2 - y^2 is harmonic in 2-D and in 3-D, so the ball mean is u(center)
        omega = Region((Ball(center, 2.0),))
        u = harmonic_field(1.0, 10.0, omega)
        ball = Ball(center, 0.5)
        value = 1.0 + (center[0] ** 2 - center[1] ** 2) / 10.0
        res = mean_over_ball(u, ball, QuadratureSpec(seed=3))
        assert res.method == "exact" and res.stderr == 0.0
        assert abs(res.mean - value) <= 1e-12
        for method in ("mc", "stratified"):
            sampled = mean_over_ball(u, ball, QuadratureSpec(method=method, seed=3, max_samples=200_000))
            assert sampled.method == method and sampled.stderr > 0.0
            assert abs(sampled.mean - value) <= 3.0 * sampled.stderr

    def test_grid_method_refused(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method="grid")

    def test_containment_rejection_reports_direction(self):
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(CHI, Ball((3.5, 0.0), 1.0), QuadratureSpec(seed=1))
        assert err.value.direction is not None

    def test_refusal_messages(self):
        # a refuted ball names its direction; a zero direction (here a center outside the domain) is not a direction
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(CHI, Ball((3.5, 0.0), 1.0))
        assert str(err.value) == "ball at (3.5, 0.0) with radius 1.0 leaves the domain near direction (1.0, 0.0)"
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(CHI, Ball((5.0, 0.0), 0.5))
        assert err.value.direction == (0.0, 0.0)
        assert str(err.value) == "ball at (5.0, 0.0) with radius 0.5 is not certified inside the domain"

    @pytest.mark.parametrize("domain", [Region((Ball((0.0, 0.0, 0.0), 3.0),)),
                                        Region((Rect((-3.0, -3.0, -3.0), (3.0, 3.0, 3.0)),))], ids=["ball", "box"])
    def test_3d_refusal_on_one_primitive_names_its_direction(self, domain):
        # one ball or box refutes a ball exactly: the radial direction, or the outward normal of the nearest face
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(indicator_field(domain, domain), Ball((2.5, 0.0, 0.0), 1.0))
        assert str(err.value) == ("ball at (2.5, 0.0, 0.0) with radius 1.0 leaves the domain near direction "
                                  "(1.0, 0.0, 0.0)")

    def test_ball_across_a_3d_waist_is_refused(self):
        # B(0, 0.44) reaches past the waist of the unit balls at (+-0.9, 0, 0) on its whole circle
        # x = 0; no primitive holds it, so it is refused, not sampled
        u = indicator_field(WAIST_3D, WAIST_3D)
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(u, Ball((0.0, 0.0, 0.0), 0.44), QuadratureSpec(seed=1))
        assert err.value.direction == (0.0, 0.0, 0.0)
        assert str(err.value) == "ball at (0.0, 0.0, 0.0) with radius 0.44 is not certified inside the domain"

    def test_seed_determinism(self):
        spec = QuadratureSpec(method="stratified", seed=7, max_samples=50_000)
        a = mean_over_ball(CHI, Ball((0.2, 0.1), 1.5), spec)
        b = mean_over_ball(CHI, Ball((0.2, 0.1), 1.5), spec)
        assert a == b

    def test_seed_sensitivity(self):
        ball = Ball((0.2, 0.1), 1.5)
        a = mean_over_ball(CHI, ball, QuadratureSpec(method="stratified", seed=7, max_samples=50_000))
        b = mean_over_ball(CHI, ball, QuadratureSpec(method="stratified", seed=8, max_samples=50_000))
        assert a.mean != b.mean

    def test_worker_determinism(self):
        spec2 = QuadratureSpec(method="stratified", seed=7, max_samples=50_000, workers=2)
        a = mean_over_ball(CHI, Ball((0.2, 0.1), 1.5), spec2)
        b = mean_over_ball(CHI, Ball((0.2, 0.1), 1.5), spec2)
        assert a == b

    def test_stratified_matches_mc(self):
        ball = Ball((0.1, 0.0), 1.8)
        a = mean_over_ball(CHI, ball, QuadratureSpec(method="mc", seed=5, max_samples=200_000))
        b = mean_over_ball(CHI, ball, QuadratureSpec(method="stratified", seed=5, max_samples=200_000))
        assert abs(a.mean - b.mean) <= 3.0 * (a.stderr + b.stderr)

    def test_3d_indicator(self):
        omega3 = Region((Ball((0.0, 0.0, 0.0), 4.0),))
        support3 = Region((Ball((0.0, 0.0, 0.0), 1.0, closed=True),))
        u3 = indicator_field(support3, omega3)
        res = mean_over_ball(u3, Ball((0.0, 0.0, 0.0), 2.0), QuadratureSpec(seed=4, max_samples=400_000))
        assert abs(res.mean - 0.125) <= max(3.0 * res.stderr, 2e-3)


class TestExactDiskMeans:
    TWO_DISKS = indicator_field(
        Region((Ball((-1.5, 0.0), 1.0, closed=True), Ball((1.5, 0.0), 1.0, closed=True))), OMEGA
    )

    @pytest.mark.parametrize(
        "u, ball, expected",
        [
            (CHI, Ball((0.0, 0.0), 2.0), 0.25),  # concentric
            (CHI, Ball((1.0, 0.0), 1.0), lens_constant()),  # on the boundary, r = a
            (CHI, Ball((0.0, 1.0), 1e-6), lens_area(1e-6, 1.0, 1.0) / (math.pi * 1e-12)),  # r/a = 1e-6
            (TWO_DISKS, Ball((0.0, 0.0), 2.0), 2.0 * lens_area(2.0, 1.0, 1.5) / (4.0 * math.pi)),  # straddles both
        ],
        ids=["concentric", "boundary", "boundary-tiny", "two-disks"],
    )
    def test_exact_matches_mc(self, u, ball, expected):
        exact = mean_over_ball(u, ball)
        assert exact.method == "exact" and exact.stderr == 0.0 and exact.n_samples == 1
        assert math.isclose(exact.mean, expected, rel_tol=1e-14)
        mc = mean_over_ball(u, ball, QuadratureSpec(method="mc", seed=11, max_samples=200_000))
        assert mc.method == "mc" and mc.n_samples >= 100_000
        assert abs(exact.mean - mc.mean) <= 3.0 * mc.stderr

    @pytest.mark.parametrize(
        "support",
        [
            Region((Ball((-0.5, 0.0), 1.0), Ball((0.5, 0.0), 1.0))),  # overlapping disks
            Region((Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),)),
            Region((Rect((0.0, 0.0), (1.0, 1.0)),)),
        ],
        ids=["overlapping-disks", "polygon", "rect"],
    )
    def test_other_supports_are_exact(self, support):
        u = indicator_field(support, OMEGA)
        res = mean_over_ball(u, Ball((0.0, 0.0), 1.5), QuadratureSpec(seed=1))
        assert res.method == "exact" and res.stderr == 0.0
        mc = mean_over_ball(u, Ball((0.0, 0.0), 1.5), QuadratureSpec(method="mc", seed=11, max_samples=200_000))
        assert abs(res.mean - mc.mean) <= 5.0 * mc.stderr

    BUMP = radial_bump_field((0.3, -0.2), 0.7, 1.5, OMEGA)
    MIXED = indicator_field(Region((Polygon(((-1.0, -1.0), (1.0, -0.5), (0.3, 1.2))), Ball((0.5, 0.2), 0.6),
                                    Rect((-0.2, -1.5), (1.5, 0.0)))), OMEGA)

    @pytest.mark.parametrize("u", [
        BUMP, sum_field([(0.8, BUMP), (1.3, MIXED), (0.5, constant_field(1.0, OMEGA))], OMEGA),
    ], ids=["radial-bump", "weighted-sum"])
    def test_closed_forms_match_mc(self, u):
        # balls inside the bump, on its own circle, across its edge, holding it, and off it
        centers = np.asarray([[0.3, -0.2], [0.3, -0.2], [0.5, 0.0], [0.9, -0.2], [0.0, 0.0], [-1.2, 0.9], [2.0, 2.0]])
        radii = np.asarray([0.3, 0.7, 0.6, 0.5, 1.9, 0.6, 0.5])
        exact = quadrature._ball_means(u, centers, radii, QuadratureSpec())
        mc = quadrature._ball_means(u, centers, radii, QuadratureSpec(method="mc", target_rel_error=1e-4,
                                                                      max_samples=400_000, seed=12))
        assert {res.method for res in exact} == {"exact"}
        for e, m in zip(exact, mc):
            assert abs(e.mean - m.mean) <= 5.0 * max(m.stderr, 1e-15)

    def test_weighted_sum_is_the_sum_of_its_terms(self):
        terms = [(0.8, self.BUMP), (1.3, self.MIXED), (0.5, harmonic_field(10.0, 2.0, OMEGA))]
        centers, radii = np.asarray([[0.5, 0.0], [0.0, 0.0], [-1.2, 0.9]]), np.asarray([0.6, 1.9, 0.6])
        means = [res.mean for res in quadrature._ball_means(sum_field(terms, OMEGA), centers, radii, QuadratureSpec())]
        parts = [[res.mean for res in quadrature._ball_means(t, centers, radii, QuadratureSpec())] for _, t in terms]
        assert means == pytest.approx([sum(w * p[i] for (w, _), p in zip(terms, parts)) for i in range(3)], rel=1e-15)

    def test_sum_with_a_term_without_closed_form_is_sampled(self):
        omega3 = Region((Ball((0.0, 0.0, 0.0), 4.0),))
        u = sum_field([(1.0, constant_field(1.0, omega3)),
                       (1.0, indicator_field(Region((Ball((0.0, 0.0, 0.0), 1.0),)), omega3))], omega3)
        assert mean_over_ball(u, Ball((0.5, 0.0, 0.0), 1.0), QuadratureSpec(seed=1)).method == "stratified"

    def test_3d_ball_is_sampled(self):
        omega3 = Region((Ball((0.0, 0.0, 0.0), 4.0),))
        u3 = indicator_field(Region((Ball((0.0, 0.0, 0.0), 1.0, closed=True),)), omega3)
        res = mean_over_ball(u3, Ball((0.5, 0.0, 0.0), 1.0), QuadratureSpec(seed=1))
        assert res.method == "stratified"

    def test_auto_checks_containment(self):
        with pytest.raises(ContainmentError) as err:
            mean_over_ball(CHI, Ball((3.5, 0.0), 1.0), QuadratureSpec(method="auto"))
        assert err.value.direction is not None

    def test_explicit_samplers_bypass_exact_path(self):
        for method in ("mc", "stratified"):
            res = mean_over_ball(CHI, Ball((1.0, 0.0), 1.0), QuadratureSpec(method=method, seed=3))
            assert res.method == method and res.stderr > 0.0

    def test_image_means_are_plain_monte_carlo(self):
        # rejection sampling in D does not stratify: every method draws the same mc samples
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        h = Similarity(1.0, np.eye(2), (1.0, 0.0))
        res = mean_over_image(CHI, d, h, QuadratureSpec(seed=2, max_samples=50_000))
        stratified = mean_over_image(CHI, d, h, QuadratureSpec(method="stratified", seed=2, max_samples=50_000))
        assert res == stratified and res.method == "mc"


class TestMeanOverImage:
    def test_constant(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        u = constant_field(3.0, OMEGA)
        res = mean_over_image(u, d, Similarity.identity(2), QuadratureSpec(seed=1))
        assert res.mean == 3.0

    def test_identity_disk_on_support(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        res = mean_over_image(CHI, d, Similarity.identity(2), QuadratureSpec(seed=2, max_samples=50_000))
        assert res.mean == 1.0

    def test_scaled_square(self):
        # unit square centered at the marked point, doubled: the image is
        # [-1,1]^2 and the support covers pi/4 of it
        omega = Region((Ball((0.0, 0.0), 10.0),))
        u = indicator_field(Region((Ball((0.0, 0.0), 1.0, closed=True),)), omega)
        d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
        h = Similarity(2.0, np.eye(2), (0.0, 0.0))
        res = mean_over_image(u, d, h, QuadratureSpec(seed=3, max_samples=400_000))
        assert abs(res.mean - math.pi / 4.0) <= max(3.0 * res.stderr, 2e-3)

    def test_exterior_image_rejected(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        h = Similarity(1.0, np.eye(2), (3.8, 0.0))
        with pytest.raises(DomainError):
            mean_over_image(CHI, d, h, QuadratureSpec(seed=4))

    def test_similarity_covariance(self):
        # mean of u over h(D) equals the mean of u∘h over D
        omega = Region((Ball((0.0, 0.0), 10.0),))
        support = Region((Ball((1.0, 0.5), 0.8, closed=True),))
        u = indicator_field(support, omega)
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        h = Similarity.rotation(0.4, scale=1.5, translation=(0.7, 0.2))
        direct = mean_over_image(u, d, h, QuadratureSpec(seed=5, max_samples=300_000))
        h_inv = h.inverse()
        pulled = indicator_field(support.transformed(h_inv), omega.transformed(h_inv))
        pullback = mean_over_image(pulled, d, Similarity.identity(2), QuadratureSpec(seed=6, max_samples=300_000))
        assert abs(direct.mean - pullback.mean) <= 3.0 * (direct.stderr + pullback.stderr)


class TestMeanResultBound:
    """``MeanResult.bound`` is the one verdict rule: K * mean plus a slack."""

    def test_exact_mean_gets_the_relative_rounding_slack(self):
        res = quadrature.MeanResult(0.4, 0.0, 1, "exact")
        assert res.bound(2.5) == 2.5 * 0.4 + quadrature.EXACT_MEAN_REL_TOL * 2.5 * 0.4
        assert res.bound(2.5) > 1.0 > 2.5 * 0.4 * (1.0 - 1e-15)

    def test_sampled_mean_gets_3_k_stderr(self):
        assert quadrature.MeanResult(0.4, 0.01, 4096, "mc").bound(2.5) == 2.5 * 0.4 + 3.0 * 2.5 * 0.01
        assert quadrature.MeanResult(0.4, 0.01, 4096, "stratified").bound(2.0) == 2.0 * 0.4 + 3.0 * 2.0 * 0.01

    def test_zero_variance_sample_keeps_3_k_stderr(self):
        # a sample whose points all hit reports stderr 0: it keeps its 3 * K * 0 slack, not the exact one
        assert quadrature.MeanResult(0.4, 0.0, 4096, "mc").bound(2.5) == 2.5 * 0.4

    def test_importable_from_counterexample(self):
        from qnslab import counterexample

        assert counterexample.EXACT_MEAN_REL_TOL is quadrature.EXACT_MEAN_REL_TOL == 1e-12


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        assert 0 <= derive_seed(123, "abc") < 2**64


class TestImageCertificate:
    """``images_in_region`` certifies h(D) ⊆ Ω exactly, up to its margin."""

    MARKED = [
        Region((Ball((0.0, 0.0), 1.0),)),
        Region((Rect((-0.5, -0.5), (0.5, 0.5)),)),
        Region((Ball((-0.5, 0.0), 1.0), Ball((0.5, 0.0), 1.0))),
        Region((Polygon(((-0.5, -0.5), (0.5, -0.5), (0.5, 0.0), (0.0, 0.0), (0.0, 0.5), (-0.5, 0.5))),)),
    ]
    DOMAINS = [
        Region((Ball((0.0, 0.0), 2.0),)),
        Region((Ball((-1.35, 0.0), 1.0), Ball((1.35, 0.0), 1.0), Rect((-1.35, -0.25), (1.35, 0.25)))),
        Region((
            Rect((-2.0, -2.0), (0.3, 2.0)), Rect((0.5, -2.0), (2.0, 2.0)),
            Rect((0.3, -2.0), (0.5, -0.1)), Rect((0.3, 0.1), (0.5, 2.0)),
        )),
        # a non-convex polygon domain: an L of two 4x2 arms
        Region((Polygon(((-2.0, -2.0), (2.0, -2.0), (2.0, 0.0), (0.0, 0.0), (0.0, 2.0), (-2.0, 2.0))),)),
    ]

    @staticmethod
    def certified(d, omega, *sims):
        return images_in_region(d, omega, SimilarityArray(
            np.array([h.scale for h in sims]), np.stack([h.orthogonal for h in sims]),
            np.array([h.translation for h in sims])))

    @pytest.mark.parametrize("di", range(4))
    @pytest.mark.parametrize("oi", range(4))
    def test_never_certifies_an_image_that_leaves(self, di, oi):
        d, omega = self.MARKED[di], self.DOMAINS[oi]
        rng = np.random.Generator(np.random.PCG64(100 + 10 * di + oi))
        dense = dense_points(d, 4000, rng)
        o_lo, o_hi = omega.bbox
        sims = []
        for _ in range(400):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            h = Similarity.rotation(theta, scale=float(np.exp(rng.uniform(np.log(0.05), np.log(2.0)))),
                                    translation=tuple(o_lo + rng.random(2) * (o_hi - o_lo)))
            if rng.random() < 0.5:
                h = Similarity(h.scale, h.orthogonal @ np.diag([1.0, -1.0]), h.translation)
            sims.append(h)
        proven = self.certified(d, omega, *sims)
        assert 0 < proven.sum() < len(sims)
        for h, ok in zip(sims, proven):
            if ok:
                assert omega.contains_many(h.apply_many(dense)).all()

    def test_refuses_tangent_images(self):
        disk, square = self.MARKED[0], self.MARKED[1]
        omega = self.DOMAINS[0]
        # internally tangent unit disk, and the same disk a hair away from tangency
        assert not self.certified(disk, omega, Similarity(1.0, np.eye(2), (1.0, 0.0)),
                                  Similarity(1.0, np.eye(2), (0.0, -1.0))).any()
        assert self.certified(disk, omega, Similarity(1.0, np.eye(2), (1.0 - 1e-6, 0.0))).all()
        # a square whose corner touches the circle
        corner = 2.0 - 0.5 * math.sqrt(2.0)
        touching = Similarity.rotation(math.pi / 4.0, translation=(corner, 0.0))
        assert not self.certified(square, omega, touching).any()
        # a square with an edge on a rect's side
        box = Region((Rect((0.0, 0.0), (1.0, 1.0)),))
        assert not self.certified(square, box, Similarity(1.0, np.eye(2), (0.5, 0.5))).any()
        assert self.certified(square, box, Similarity(0.99, np.eye(2), (0.5, 0.5))).all()

    def test_refuses_images_that_hold_a_hole(self):
        disk, square, holed = self.MARKED[0], self.MARKED[1], self.DOMAINS[2]
        assert not self.certified(disk, holed, Similarity(0.6, np.eye(2), (0.0, 0.0)),
                                  Similarity(1.0, np.eye(2), (0.0, 0.0))).any()
        # the same disk inside one rect of the domain
        assert self.certified(disk, holed, Similarity(0.5, np.eye(2), (-1.0, 0.0))).all()
        # a disk and a square around the hole of a ring of disks, their boundaries inside the ring
        rng = np.random.Generator(np.random.PCG64(5))
        for d, h in ((disk, Similarity(1.0, np.eye(2), (0.0, 0.0))), (square, Similarity.rotation(0.2, scale=1.3))):
            assert RING.contains_many(h.apply_many(dense_points(d, 2000, rng)[:2000])).all()
            assert not self.certified(d, RING, h).any()
        assert self.certified(disk, RING, Similarity(0.2, np.eye(2), (1.0, 0.0))).all()

    def test_polygon_domains_are_decided_and_3d_is_refused(self):
        tri = Region((Polygon(((-3.0, -3.0), (3.0, -3.0), (0.0, 3.0))),))
        assert self.certified(self.MARKED[0], tri, Similarity(0.1, np.eye(2), (0.0, 0.0))).all()
        assert not self.certified(self.MARKED[0], tri, Similarity(1.0, np.eye(2), (0.0, 2.5))).any()
        # the L-shaped marked set against the L-shaped domain: inside an arm, and across the notch
        ell, omega = self.MARKED[3], self.DOMAINS[3]
        assert self.certified(ell, omega, Similarity(1.0, np.eye(2), (-1.0, 1.0))).all()
        assert not self.certified(ell, omega, Similarity(2.0, np.eye(2), (0.5, 0.5))).any()
        ball3 = Region((Ball((0.0, 0.0, 0.0), 1.0),))
        h3 = Similarity(0.1, np.eye(3), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            self.certified(ball3, Region((Ball((0.0, 0.0, 0.0), 5.0),)), h3)

    def test_certified_image_maps_only_the_mean_samples(self, monkeypatch):
        d = MarkedSet(self.MARKED[1], (0.0, 0.0))
        spec = QuadratureSpec(method="mc", max_samples=8192, target_rel_error=1e-3, seed=16)
        h = Similarity.rotation(0.4, scale=0.8, translation=(0.9, -0.2))  # straddles the support's edge
        checks, mapped = [], []
        require, apply_many = Field.require_in_domain, Similarity.apply_many
        monkeypatch.setattr(Field, "require_in_domain",
                            lambda self, pts: checks.append(len(pts)) or require(self, pts))
        monkeypatch.setattr(Similarity, "apply_many",
                            lambda self, pts: mapped.append(len(pts)) or apply_many(self, pts))
        res = mean_over_image(CHI, d, h, spec)
        assert checks == [] and sum(mapped) == res.n_samples == 8192
        # an image within the margin of the domain's boundary is refused before any sample is mapped
        far = indicator_field(SUPPORT, Region((Rect((-4.0, -4.0), (4.0, 4.0)), Ball((0.0, 0.0), 0.1))))
        mapped.clear()
        near = Similarity(1.0, np.eye(2), (3.5 - 1e-12, 0.0))
        assert not self.certified(d.region, far.domain, near).any()
        with pytest.raises(DomainError):
            mean_over_image(far, d, near, spec)
        assert checks == [] and mapped == []
