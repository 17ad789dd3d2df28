import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qnslab import qns_engine, quadrature
from qnslab.fields import DomainError, Field, constant_field, indicator_field
from qnslab.geometry import Ball, Similarity, lens_area, lens_constant
from qnslab.qns_engine import (
    BallProbeGrid,
    ScaleFunction,
    SimilarityProbeGrid,
    ball_constant_from_image_constant,
    check_K,
    estimate_K,
    f_admissibility,
    generalized_test,
    image_constant_from_ball_constant,
    indicator_density,
    phi_functional,
)
from qnslab.quadrature import QuadratureSpec
from qnslab.regions import MarkedSet, Polygon, Rect, Region

OMEGA = Region((Ball((0.0, 0.0), 2.0),))
GAMMA = Region((Ball((0.0, 0.0), 1.0, closed=True),))
CHI = indicator_field(GAMMA, OMEGA)
ONE = constant_field(1.0, OMEGA)

# probe layout from the worked example: centers in the support, radii capped
# so each ball stays inside both the domain and the unit-disk geometry
EXAMPLE_GRID = BallProbeGrid(center_resolution=13, radii_per_center=6, radius_range=(0.1, 0.999))
FAST_SPEC = QuadratureSpec(method="mc", target_rel_error=0.1, max_samples=8192, seed=20)
DEFAULT_SPEC = qns_engine.DEFAULT_PROBE_SPEC


def lens_density_brute_force(n_centers=60, n_radii=40):
    """Oracle: inf over (center, radius) of the covered fraction of a probe
    disk inside the unit disk, radii <= min(1, headroom), via the analytic
    overlap formula."""
    worst = 1.0
    for c in np.linspace(0.0, 1.0, n_centers):
        r_cap = min(1.0, 2.0 - c - 1e-9)
        for r in np.linspace(0.05, r_cap, n_radii):
            frac = lens_area(1.0, r, c) / (math.pi * r * r)
            worst = min(worst, frac)
    return worst


class TestEstimateK:
    def test_constant_is_one(self):
        est = estimate_K(ONE, OMEGA, BallProbeGrid(center_resolution=5, radii_per_center=4,
                                                   radius_range=(0.1, 0.5)), FAST_SPEC)
        assert est.k_hat == 1.0
        assert not est.vacuous

    def test_indicator_matches_lens_geometry(self):
        est = estimate_K(CHI, OMEGA, EXAMPLE_GRID, FAST_SPEC)
        bound = 1.0 / lens_constant() + 0.05
        assert est.k_hat <= bound * 1.1  # sampling noise rides on the grid supremum
        assert est.k_hat >= 2.0
        oracle = 1.0 / lens_density_brute_force()
        assert abs(est.k_hat - oracle) < 0.35

    def test_witness_near_boundary(self):
        est = estimate_K(CHI, OMEGA, EXAMPLE_GRID, FAST_SPEC)
        assert est.witness is not None
        assert np.linalg.norm(est.witness["center"]) > 0.8
        assert est.witness["radius"] > 0.6

    def test_vacuous_when_nothing_fits(self):
        grid = BallProbeGrid(center_resolution=3, radii_per_center=2, radius_range=(5.0, 6.0))
        est = estimate_K(ONE, OMEGA, grid, FAST_SPEC)
        assert est.vacuous and est.probes_used == 0

    @pytest.mark.parametrize("settings", [
        {"radius_range": (0.5, 0.1)}, {"radius_range": (0.0, 0.5)}, {"radius_range": (-1.0, 0.5)},
        {"center_resolution": 0}, {"radii_per_center": 0},
    ], ids=["reversed-radius-range", "zero-radius", "negative-radius", "no-centers", "no-radii"])
    def test_invalid_grid_is_refused(self, settings):
        with pytest.raises(ValueError):
            BallProbeGrid(**settings)

    def test_first_probe_of_tied_ratios_is_the_witness(self):
        # every ratio of a constant field is 1.0: the witness is the first admitted probe in probe order
        grid = BallProbeGrid(center_resolution=5, radii_per_center=4, radius_range=(0.1, 1.5))
        admitted, skipped = qns_engine._ball_probes(ONE, grid.centers(OMEGA), grid.radii(OMEGA), DEFAULT_SPEC)
        assert skipped > 0 and admitted[0].idx > 1  # the first probe in probe order leaves the domain
        est = estimate_K(ONE, OMEGA, grid)
        assert (est.k_hat, est.probes_used, est.exact_means) == (1.0, len(admitted), len(admitted))
        assert (est.witness["center"], est.witness["radius"]) == (list(admitted[0].center), admitted[0].radius)

    def test_report_schema(self):
        est = estimate_K(CHI, OMEGA, EXAMPLE_GRID, FAST_SPEC)
        doc = est.to_json()
        assert set(doc) >= {"verdict", "K_hat", "witness", "probes", "seed", "worker_count", "quadrature"}
        assert doc["quadrature"]["method"] == "mc"
        # every admitted probe's mean was sampled, including the vacuous 0/0 probes that are not used
        assert doc["quadrature"]["exact_means"] == 0 and doc["quadrature"]["sampled_means"] >= est.probes_used > 0


class TestCheckK:
    def test_constant_k1(self):
        rep = check_K(ONE, OMEGA, 1.0, BallProbeGrid(center_resolution=5, radii_per_center=3,
                                                     radius_range=(0.1, 0.5)), FAST_SPEC)
        assert rep.passed

    def test_indicator_k3_passes(self):
        rep = check_K(CHI, OMEGA, 3.0, EXAMPLE_GRID, FAST_SPEC)
        assert rep.passed

    def test_indicator_k15_fails_near_boundary(self):
        rep = check_K(CHI, OMEGA, 1.5, EXAMPLE_GRID, FAST_SPEC)
        assert not rep.passed
        worst = max(rep.failures, key=lambda f: f["ratio"])
        assert np.linalg.norm(worst["center"]) > 0.8

    def test_consistency_with_estimate(self):
        est = estimate_K(CHI, OMEGA, EXAMPLE_GRID, FAST_SPEC)
        rep = check_K(CHI, OMEGA, est.k_hat * (1.0 + 1e-9), EXAMPLE_GRID, FAST_SPEC)
        assert rep.passed

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_K(ONE, OMEGA, 0.5)

    def test_exact_means_pass_at_their_own_supremum(self):
        # the witness's value 1.0 exceeds K_hat * mean = 0.9999999999999999 by rounding alone; the
        # exact-mean slack EXACT_MEAN_REL_TOL * K * mean covers it
        omega = Region((Ball((0.0, 0.0), 1.5),))
        u = indicator_field(GAMMA, omega)
        grid = BallProbeGrid(center_resolution=9, radii_per_center=4, radius_range=(0.1, 0.999))
        est = estimate_K(u, omega, grid)
        assert est.sampled_means == 0 and est.witness["value"] > est.k_hat * est.witness["mean"]
        rep = check_K(u, omega, est.k_hat, grid)
        assert rep.passed and not rep.failures and rep.probes_used > est.probes_used

    def test_sampled_failures_are_those_above_k_times_mean_plus_3_stderr(self, monkeypatch):
        # at K just above the exact grid supremum, a sampled probe fails only when u(x) > K * (mean + 3 * stderr)
        k = estimate_K(CHI, OMEGA, EXAMPLE_GRID).k_hat * (1.0 + 1e-9)
        runs = []

        def recording(*args, _original=qns_engine._ball_probes):
            runs.append(_original(*args)[0])
            return runs[-1], 0

        monkeypatch.setattr(qns_engine, "_ball_probes", recording)
        within_k_stderr = 0  # probes that only the K-scaled stderr slack passes
        for seed in range(1000, 1040):
            rep = check_K(CHI, OMEGA, k, EXAMPLE_GRID, replace(FAST_SPEC, seed=seed))
            admitted = runs[-1]
            assert all(p.mean.method == "mc" for p in admitted)
            over = [p for p in admitted if p.value > k * p.mean.mean + 3.0 * k * p.mean.stderr]
            assert [(f["center"], f["radius"]) for f in rep.failures] == [(list(p.center), p.radius) for p in over]
            within_k_stderr += sum(k * p.mean.mean + 3.0 * p.mean.stderr < p.value for p in admitted) - len(over)
        assert within_k_stderr > 0


class TestIndicatorDensity:
    def test_gamma_equals_omega(self):
        omega = Region((Ball((0.0, 0.0), 1.0),))
        gamma = Region((Ball((0.0, 0.0), 1.0),))
        rep = indicator_density(gamma, omega,
                                BallProbeGrid(center_resolution=5, radii_per_center=3,
                                              radius_range=(0.05, 0.2)), FAST_SPEC)
        assert rep.inf_ratio == 1.0 and rep.compatible

    def test_first_probe_of_tied_means_is_the_witness(self):
        # with Γ = Ω every mean is 1.0: the witness is the first admitted probe in probe order
        grid = BallProbeGrid(center_resolution=5, radii_per_center=4, radius_range=(0.1, 1.5))
        u = indicator_field(OMEGA, OMEGA)
        admitted, skipped = qns_engine._ball_probes(u, grid.centers(OMEGA), grid.radii(OMEGA), DEFAULT_SPEC)
        assert skipped > 0 and admitted[0].idx > 1
        rep = indicator_density(OMEGA, OMEGA, grid)
        assert (rep.inf_ratio, rep.probes_used, rep.compatible) == (1.0, len(admitted), True)
        assert (rep.witness["center"], rep.witness["radius"]) == (list(admitted[0].center), admitted[0].radius)

    def test_disk_in_disk_attains_lens_constant(self):
        grid = BallProbeGrid(center_resolution=15, radii_per_center=6, radius_range=(0.1, 1.0))
        spec = QuadratureSpec(method="mc", target_rel_error=0.05, max_samples=40_000, seed=9)
        rep = indicator_density(GAMMA, OMEGA, grid, spec)
        assert abs(rep.inf_ratio - lens_constant()) < 0.01
        oracle = lens_density_brute_force()
        assert abs(rep.inf_ratio - oracle) < 0.01

    def test_half_disk_edge_density(self):
        # a fine polygon approximating the right half-disk: small probes at the
        # flat edge see one-sided density about 1/2
        theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, 80)
        verts = [(math.cos(t), math.sin(t)) for t in theta]
        half = Region((Polygon(tuple(verts)),))
        omega = Region((Ball((0.0, 0.0), 1.0),))
        grid = BallProbeGrid(center_resolution=21, radii_per_center=3, radius_range=(0.02, 0.05))
        spec = QuadratureSpec(method="mc", target_rel_error=0.05, max_samples=30_000, seed=10)
        rep = indicator_density(half, omega, grid, spec)
        assert 0.42 <= rep.inf_ratio <= 0.55
        assert abs(rep.witness["center"][0]) < 0.1  # witness hugs the flat edge


class TestConstantConversion:
    def test_unit_ball_identity(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        assert image_constant_from_ball_constant(7.0, d) == 7.0
        assert math.isclose(ball_constant_from_image_constant(5.0, d), 5.0, rel_tol=1e-12)

    def test_unit_square(self):
        d = MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5))
        assert math.isclose(image_constant_from_ball_constant(1.0, d), 2.0, rel_tol=1e-12)
        assert math.isclose(image_constant_from_ball_constant(3.0, d), 6.0, rel_tol=1e-12)
        assert math.isclose(ball_constant_from_image_constant(2.0, d), math.pi, rel_tol=1e-12)

    def test_round_trip_dominates(self):
        for d in (
            MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0)),
            MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5)),
            MarkedSet(Region((Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0))), (0.5, 0.0)),
        ):
            k0 = 2.0
            assert ball_constant_from_image_constant(
                image_constant_from_ball_constant(k0, d), d
            ) >= k0 * (1.0 - 1e-12)

    def test_preconditions(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        with pytest.raises(ValueError):
            image_constant_from_ball_constant(0.5, d)
        with pytest.raises(ValueError):
            ball_constant_from_image_constant(0.5, d)


class TestGeneralizedTest:
    def test_constant_is_one(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=4, rotations=2,
                                   include_reflections=False)
        est = generalized_test(ONE, OMEGA, d, None, sims, FAST_SPEC)
        assert est.k_hat == 1.0

    def test_measure_normalizing_scale_function_is_one(self):
        # f(k) = k * sqrt(m(D)) makes the normalizer equal the image measure
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        f = ScaleFunction(lambda k: k * math.sqrt(math.pi), (1e-3, 1e3))
        sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=4, rotations=2,
                                   include_reflections=False)
        est = generalized_test(ONE, OMEGA, d, f, sims, FAST_SPEC)
        assert abs(est.k_hat - 1.0) < 1e-9

    def test_disk_marked_set_matches_ball_estimate(self):
        # with the unit disk as marked set the similarity probes are balls, so
        # the restricted-scale supremum tracks the lens geometry bound
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=13, scales_per_center=6,
                                   scale_range=(0.1, 0.999), rotations=1,
                                   include_reflections=False)
        est = generalized_test(CHI, OMEGA, d, None, sims,
                               QuadratureSpec(method="mc", target_rel_error=0.1,
                                              max_samples=8192, seed=21))
        assert est.k_hat <= (1.0 / lens_constant() + 0.05) * 1.1
        assert est.k_hat >= 2.0

    def test_vacuous(self):
        d = MarkedSet(Region((Ball((0.0, 0.0), 10.0),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=3, scales_per_center=2,
                                   scale_range=(1.0, 2.0), rotations=1, include_reflections=False)
        est = generalized_test(ONE, OMEGA, d, None, sims, FAST_SPEC)
        assert est.vacuous
        assert est.to_json()["verdict"] == "vacuously-true"


def record_probe_arrays(monkeypatch, name):
    """Record every probe of the battery's calls to ``name`` (``_ball_means`` or
    ``_image_means``) as ((u, [d,] probe, spec), array call number, result or exception)."""
    calls = []
    arrays = []
    original = getattr(qns_engine, name)

    def recording(u, *rest):
        outcomes = original(u, *rest)
        arrays.append(len(outcomes))
        if name == "_ball_means":  # (centers, radii, spec)
            centers, radii, spec = rest
            head, singles = [], [Ball(tuple(c), r) for c, r in zip(centers.tolist(), radii.tolist())]
        else:  # (d, probes, spec)
            *head, probes, spec = rest
            singles = probes.similarities()
        for probe, outcome in zip(singles, outcomes):
            calls.append(((u, *head, probe, spec), len(arrays), outcome))
        return outcomes

    monkeypatch.setattr(qns_engine, name, recording)
    return calls


def standalone(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- compared by type below
        return exc


def assert_matches_standalone(calls, fn, spec):
    """Every battery mean equals a one-probe call with the battery spec, bit for
    bit, and the battery ran its probes as one array."""
    assert calls
    assert len({array for _, array, _ in calls}) == 1
    for args, _, outcome in calls:
        assert args[-1] == spec
        alone = standalone(fn, args)
        if isinstance(outcome, Exception):
            assert type(alone) is type(outcome)
        else:
            assert alone == outcome


# a 4x4 square with an off-center square hole, so an image h(D) can hold the
# hole while its boundary and marked point lie in the domain; the open rects
# share the edges x = 0.3 and x = 0.5 outside the hole, slits outside the domain
HOLED = Region((
    Rect((-2.0, -2.0), (0.3, 2.0)), Rect((0.5, -2.0), (2.0, 2.0)),
    Rect((0.3, -2.0), (0.5, -0.1)), Rect((0.3, 0.1), (0.5, 2.0)),
))
HOLE_SIMS = SimilarityProbeGrid(center_resolution=5, scales_per_center=2, scale_range=(0.6, 1.0),
                                rotations=1, include_reflections=False)


class TestCommonRandomNumbers:
    SPEC = QuadratureSpec(method="mc", target_rel_error=0.05, max_samples=16_384, seed=31)
    GRID = BallProbeGrid(center_resolution=5, radii_per_center=4, radius_range=(0.1, 0.999))

    @pytest.mark.parametrize("method", ["mc", "stratified"])
    def test_ball_battery_means_match_standalone(self, monkeypatch, method):
        spec = replace(self.SPEC, method=method)
        calls = record_probe_arrays(monkeypatch, "_ball_means")
        estimate_K(CHI, OMEGA, self.GRID, spec)
        assert any(isinstance(c[2], quadrature.ContainmentError) for c in calls)
        assert_matches_standalone(calls, quadrature.mean_over_ball, spec)
        calls.clear()
        indicator_density(GAMMA, OMEGA, self.GRID, spec)
        assert_matches_standalone(calls, quadrature.mean_over_ball, spec)

    @pytest.mark.parametrize("u", [CHI, ONE], ids=["indicator", "constant"])
    def test_image_battery_means_match_standalone(self, monkeypatch, u):
        calls = record_probe_arrays(monkeypatch, "_image_means")
        d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, scale_range=(0.2, 1.4))
        generalized_test(u, OMEGA, d, None, sims, self.SPEC)
        assert_matches_standalone(calls, quadrature.mean_over_image, self.SPEC)

    @pytest.mark.parametrize("u", [indicator_field(GAMMA, HOLED), constant_field(1.0, HOLED)],
                             ids=["indicator", "constant"])
    def test_image_leaving_the_domain_is_skipped(self, monkeypatch, u):
        calls = record_probe_arrays(monkeypatch, "_image_means")
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        est = generalized_test(u, HOLED, d, None, HOLE_SIMS, self.SPEC)
        exterior = [c for c in calls if isinstance(c[2], DomainError)]
        # the probes centered at the origin hold the hole
        assert {(tuple(c[0][2].translation), c[0][2].scale) for c in exterior} >= {((0.0, 0.0), 0.6),
                                                                                    ((0.0, 0.0), 1.0)}
        assert len(calls) == 2 * 25  # every probe goes to the image means, which refuse the exterior ones
        assert est.probes_skipped == len(exterior)
        assert est.probes_used == len(calls) - len(exterior)
        assert_matches_standalone(calls, quadrature.mean_over_image, self.SPEC)

    def test_rerun_is_identical_and_memo_is_dropped(self, monkeypatch):
        # no battery keeps a base sample, or one of its blocks, once it returns
        drawn = []

        def tracking(name):
            original = getattr(quadrature, name)

            def draw(*args):
                base = original(*args)
                drawn.extend(weakref.ref(a) for a in (base if isinstance(base, tuple) else (base,)))
                return base

            monkeypatch.setattr(quadrature, name, draw)

        tracking("_angle_factors")
        tracking("_image_base")
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, scale_range=(0.2, 0.9))

        def batteries():
            return [
                estimate_K(CHI, OMEGA, self.GRID, self.SPEC).to_json(),
                generalized_test(CHI, OMEGA, d, None, sims, self.SPEC).to_json(),
                indicator_density(GAMMA, OMEGA, self.GRID, self.SPEC).to_json(),
            ]

        first = batteries()
        # a different battery in between must leave nothing behind
        generalized_test(CHI, OMEGA, MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0)),
                         None, sims, replace(self.SPEC, method="stratified"))
        assert batteries() == first
        gc.collect()
        assert drawn and all(ref() is None for ref in drawn)

    def test_ball_battery_evaluates_each_center_once(self, monkeypatch):
        # u(center) is one call on the battery's centers, not one call per center
        evaluated = []
        values = Field.values

        def recording(self, pts):
            evaluated.append(np.array(pts))
            return values(self, pts)

        monkeypatch.setattr(Field, "values", recording)
        centers, radii = self.GRID.centers(OMEGA), self.GRID.radii(OMEGA)
        admitted, skipped = qns_engine._ball_probes(CHI, centers, radii, self.SPEC)
        assert skipped > 0 and skipped + len(admitted) == len(centers) * len(radii)
        assert [p.idx for p in admitted] == sorted({p.idx for p in admitted})
        assert sum(pts.shape == centers.shape and bool((pts == centers).all()) for pts in evaluated) == 1
        assert not any(len(pts) < len(centers) for pts in evaluated)
        assert all(p.value == float(values(CHI, np.asarray([p.center]))[0]) for p in admitted)
        rep = check_K(CHI, OMEGA, 3.0, self.GRID, self.SPEC)
        assert (rep.probes_used, rep.probes_skipped) == (len(admitted), skipped)

    @staticmethod
    def chunk_pairs(spec, n_samples):
        """The (batch, chunk) pairs that a probe of ``n_samples`` samples runs through."""
        pairs = n = 0
        batch = min(4096, spec.max_samples)
        while n < n_samples:
            pairs += max(batch // quadrature._CHUNK, 1)
            n += batch
            batch = min(batch * 2, spec.max_samples - n)
        return pairs

    @pytest.mark.parametrize("resolution", [3, 5])
    def test_each_base_is_drawn_once_per_battery(self, monkeypatch, resolution):
        spec = replace(self.SPEC, workers=2)
        draws = {}
        # the chunk-level draws: _cube_blocks per (seed, batch, chunk) of a ball mean, _image_base of an image mean
        for name in ("_cube_blocks", "_image_base"):
            def counting(*args, _name=name, _original=getattr(quadrature, name)):
                draws[_name] = draws.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(quadrature, name, counting)
        keys, rng = [], quadrature._rng
        monkeypatch.setattr(quadrature, "_rng", lambda seed, *key: keys.append((seed, *key)) or rng(seed, *key))
        # per probe array, the outcomes of the probes that sample: decided probes never reach _sample_means
        sampled, sample_means = [], quadrature._sample_means

        def recording(*args):
            outcomes = sample_means(*args)
            sampled.append(outcomes)
            return outcomes

        monkeypatch.setattr(quadrature, "_sample_means", recording)
        ball_calls = record_probe_arrays(monkeypatch, "_ball_means")
        image_calls = record_probe_arrays(monkeypatch, "_image_means")
        grid = BallProbeGrid(center_resolution=resolution, radii_per_center=4, radius_range=(0.1, 0.999))
        estimate_K(CHI, OMEGA, grid, spec)
        ball_keys, keys[:] = keys[:], []
        sims = SimilarityProbeGrid(center_resolution=resolution, scales_per_center=3, scale_range=(0.2, 0.9))
        generalized_test(CHI, OMEGA, MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0)), None, sims, spec)
        assert len(sampled) == 2  # one probe array per battery
        for name, calls, outcomes in (("_cube_blocks", ball_calls, sampled[0]), ("_image_base", image_calls, sampled[1])):
            admitted = [res for _, _, res in calls if not isinstance(res, Exception)]
            assert len(outcomes) < len(admitted)  # some probes are decided
            # each chunk is drawn once per seed, up to the longest probe that samples
            assert draws.get(name, 0) == self.chunk_pairs(spec, max((res.n_samples for res in outcomes), default=0))
        # no (seed, batch, chunk) is drawn twice in a battery
        assert len(set(ball_keys)) == len(ball_keys) == draws.get("_cube_blocks", 0)
        assert len(set(keys)) == len(keys) == draws.get("_image_base", 0)
        # at resolution 3 every probe of both batteries is decided, and neither draws
        assert (sampled == [[], []] and draws == {}) == (resolution == 3)

    def test_battery_derives_no_seeds(self, monkeypatch):
        def no_seed(*args):
            raise AssertionError("a battery derived a per-probe seed")

        monkeypatch.setattr(QuadratureSpec, "child", no_seed)
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, scale_range=(0.2, 0.9))
        estimate_K(CHI, OMEGA, self.GRID, self.SPEC)
        indicator_density(GAMMA, OMEGA, self.GRID, self.SPEC)
        generalized_test(CHI, OMEGA, d, None, sims, self.SPEC)


MU = lambda x: 0.5 * (x + 1.0 / x)  # noqa: E731


class TestFAdmissibility:
    def test_linear(self):
        f = ScaleFunction(lambda k: k, (1e-3, 1e3))
        rep = f_admissibility(f, t_grid=(0.5, 1.0), eps_threshold=1.0)
        assert rep.admissible
        assert math.isclose(rep.c_window, 1.0, rel_tol=1e-12)
        entry = [e for e in rep.entries if e.t == 1.0][0]
        assert entry.eps_star == 0.0
        assert entry.intervals == [[f.window[0], f.window[1]]]

    def test_periodic_modulation(self):
        # bounded periodic modulation: threshold sets keep bounded log-gaps
        f = ScaleFunction(lambda k: k * (1.5 + math.sin(2.0 * math.pi * MU(k))), (1e-3, 1e3), grid=6000)
        rep = f_admissibility(f, t_grid=(0.5, 1.0, 1.25), eps_threshold=1.0)
        assert rep.admissible
        assert rep.c_window <= 2.5 + 1e-9
        entry = [e for e in rep.entries if e.t == 1.25][0]
        assert entry.eps_star < 0.5
        assert not entry.growing
        # oracle: measure the worst log-gap of {psi(mu(k)) >= 1.25} by scanning
        ks = np.geomspace(1e-3, 1e3, 200_000)
        mask = 1.5 + np.sin(2.0 * math.pi * (0.5 * (ks + 1.0 / ks))) >= 1.25
        idx = np.where(mask)[0]
        gaps = np.diff(np.log(ks[idx]))
        assert abs(entry.eps_star - float(gaps.max()) / 2.0) < 0.02

    def test_chain_rule_not_admissible(self):
        from qnslab.counterexample import PiecewiseScaleRule, f1_sequences

        seq = f1_sequences(3, 6)
        rule = PiecewiseScaleRule(1.0, seq.a, seq.indices().start)
        f = ScaleFunction(rule, (seq.a[-1] / 4.0, 1.0), grid=5000)
        rep = f_admissibility(f, t_grid=(0.25, 0.5), eps_threshold=1.0)
        assert not rep.admissible
        entry = rep.entries[0]
        assert entry.growing
        lows = entry.log_gaps[:3]
        assert lows[0] > lows[1] > lows[2]

    def test_nonpositive_rejected(self):
        f = ScaleFunction(lambda k: k - 1.0, (0.5, 2.0))
        with pytest.raises(ValueError):
            f_admissibility(f)


class TestPhiFunctional:
    SQUARE = Region((Rect((0.0, 0.0), (1.0, 1.0)),))
    DISK = Region((Ball((0.0, 0.0), 1.0),))

    def test_perimeter_scaled_disk(self):
        h = Similarity.rotation(0.0, scale=2.0)
        assert math.isclose(phi_functional("perimeter", self.DISK, h), 4.0 * math.pi, rel_tol=1e-12)

    def test_boundary_square(self):
        assert phi_functional("boundary_h1", self.SQUARE, Similarity.identity(2)) == 4.0

    def test_deficit_square(self):
        expected = math.sqrt(16.0 - 4.0 * math.pi)
        assert math.isclose(
            phi_functional("isoperimetric_deficit", self.SQUARE, Similarity.identity(2)),
            expected, rel_tol=1e-12,
        )
        assert math.isclose(expected, 1.8530, abs_tol=1e-4)

    def test_deficit_disk_rejected(self):
        with pytest.raises(ValueError):
            phi_functional("isoperimetric_deficit", self.DISK, Similarity.identity(2))

    @pytest.mark.parametrize("kind", ["boundary_h1", "perimeter", "isoperimetric_deficit"])
    def test_homogeneity(self, kind):
        rng = np.random.Generator(np.random.PCG64(14))
        base = phi_functional(kind, self.SQUARE, Similarity.identity(2))
        for _ in range(100):
            k = float(rng.uniform(0.01, 50.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            h = Similarity.rotation(theta, scale=k, translation=tuple(rng.normal(size=2)))
            value = phi_functional(kind, self.SQUARE, h)
            assert abs(value - k * base) <= 1e-9 * k * base

    def test_polygon_matches_rect(self):
        poly = Region((Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),))
        for kind in ("perimeter", "isoperimetric_deficit"):
            assert math.isclose(
                phi_functional(kind, poly, Similarity.identity(2)),
                phi_functional(kind, self.SQUARE, Similarity.identity(2)),
                rel_tol=1e-12,
            )


# -- parity of the probe-array generalized_test with the per-probe loop it replaced --


def reference_sample_mean(spec, draw_values, method):
    """The batching loop as it was before probe arrays (one probe), on the
    worker-independent chunk layout."""
    s1 = s2 = 0.0
    n = 0
    batch_size = min(4096, spec.max_samples)
    batch_index = 0
    while True:
        n_chunks = max(batch_size // quadrature._CHUNK, 1)
        sizes = [batch_size // n_chunks] * n_chunks
        sizes[-1] += batch_size - sum(sizes)

        def run(i, _sizes=sizes, _b=batch_index):
            vals = draw_values(_b, i, _sizes[i])
            return float(vals.sum()), float((vals * vals).sum()), vals.size

        for cs1, cs2, cn in map(run, range(n_chunks)):
            s1 += cs1
            s2 += cs2
            n += cn
        batch_index += 1
        result = quadrature._stat_result(s1, s2, n, method)
        if n >= spec.max_samples:
            return result
        if result.stderr <= spec.target_rel_error * abs(result.mean):
            return result
        batch_size = min(batch_size * 2, spec.max_samples - n)


def reference_mean_over_image(u, d, h, spec):
    """The image mean as it was before probe arrays, for a probe that a
    one-probe ``mean_over_image`` admits (a refused probe raises its
    ``DomainError``): the first ``size`` mapped candidates of each chunk."""
    quadrature.mean_over_image(constant_field(1.0, u.domain), d, h, spec)  # containment alone
    if u.kind == "constant":
        return quadrature.MeanResult(u.params["value"], 0.0, 1, "exact")

    def draw(batch, chunk, size):
        cand = quadrature._image_base(d, spec.seed, batch, chunk, size)
        return u.evaluate_many(h.apply_many(cand[:size]), check_domain=False)

    return reference_sample_mean(spec, draw, "mc")


def reference_generalized_test(u, omega, d, f, sims, spec):
    """The per-probe generalized_test loop as it was before probe arrays.

    Returns (k_hat, witness, used, skipped) and the counts of probes refused
    by containment (``DomainError``) and vacuous (0/0).
    """
    p_d = np.asarray(d.marked_point)
    centers = BallProbeGrid(center_resolution=sims.center_resolution).centers(omega)
    scales = sims.scales(omega, d)
    parts = sims.orthogonal_parts(2)
    m_d = d.measure
    best = (-math.inf, -1)
    witness = None
    used = skipped = 0
    counts = {"refused": 0, "vacuous": 0}
    idx = 0
    for c in centers:
        x = np.asarray(c, dtype=np.float64)
        for k in scales:
            for T in parts:
                idx += 1
                h = Similarity(float(k), T, tuple(x - float(k) * (T @ p_d)))
                try:
                    res = reference_mean_over_image(u, d, h, spec)
                except DomainError:
                    skipped += 1
                    counts["refused"] += 1
                    continue
                val = float(u.evaluate_many(x[None, :], check_domain=False)[0])
                integral = res.mean * (float(k) ** 2) * m_d
                norm = (float(k) ** 2) * m_d if f is None else f.fn(float(k)) ** 2
                if integral <= 0.0:
                    if val <= 0.0:
                        counts["vacuous"] += 1
                        continue
                    ratio = math.inf
                else:
                    ratio = val * norm / integral
                used += 1
                if (ratio, -idx) > (best[0], -best[1]):
                    best = (ratio, idx)
                    witness = {"center": [float(v) for v in x], "scale": float(k),
                               "mean": res.mean, "stderr": res.stderr}
    k_hat = best[0] if used else 0.0
    return (k_hat, witness, used, skipped), counts


MARKED = {
    "ball": MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0)),
    "square": MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0)),
    "two-balls": MarkedSet(Region((Ball((-0.5, 0.0), 1.0), Ball((0.5, 0.0), 1.0))), (0.0, 0.0)),
    # a non-convex L shape
    "polygon": MarkedSet(Region((Polygon(((-0.5, -0.5), (0.5, -0.5), (0.5, 0.0), (0.0, 0.0),
                                          (0.0, 0.5), (-0.5, 0.5))),)), (-0.25, -0.25)),
}
PARITY_SIMS = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, rotations=2, include_reflections=True)
PARITY_F = ScaleFunction(lambda k: 1.3 * k, (1e-3, 1e3))


class TestProbeArrayParity:
    SPEC = QuadratureSpec(method="mc", target_rel_error=0.1, max_samples=8192, seed=41)

    @staticmethod
    def run_both(u, omega, d, f, sims, spec):
        est = generalized_test(u, omega, d, f, sims, spec)
        expected, counts = reference_generalized_test(u, omega, d, f, sims, spec)
        assert (est.k_hat, est.witness, est.probes_used, est.probes_skipped) == expected
        return counts, est.probes_used

    @pytest.mark.parametrize("f", [None, PARITY_F], ids=["f=None", "f"])
    @pytest.mark.parametrize("field", ["indicator", "constant"])
    @pytest.mark.parametrize("dname", list(MARKED))
    def test_matches_per_probe_loop(self, dname, field, f):
        u = CHI if field == "indicator" else ONE
        counts, used = self.run_both(u, OMEGA, MARKED[dname], f, PARITY_SIMS, self.SPEC)
        assert counts["refused"] > 0 and used > 0
        if field == "indicator":
            assert counts["vacuous"] > 0

    @pytest.mark.parametrize("f", [None, PARITY_F], ids=["f=None", "f"])
    @pytest.mark.parametrize("field", ["indicator", "constant"])
    def test_matches_per_probe_loop_with_domain_errors(self, field, f):
        u = indicator_field(GAMMA, HOLED) if field == "indicator" else constant_field(1.0, HOLED)
        counts, used = self.run_both(u, HOLED, MARKED["ball"], f, HOLE_SIMS, self.SPEC)
        assert counts["refused"] > 0 and used > 0

    def test_matches_per_probe_loop_stratified_two_workers(self):
        spec = replace(self.SPEC, method="stratified", workers=2, target_rel_error=0.02, max_samples=40_000)
        self.run_both(CHI, OMEGA, MARKED["polygon"], None, PARITY_SIMS, spec)
