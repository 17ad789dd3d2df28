import csv
import json
import math

import mpmath
import numpy as np
import pytest

from qnslab.counterexample import (
    ConstructionError,
    PiecewiseScaleRule,
    RestrictedProbeSpec,
    SequencePair,
    avoided_complement_set,
    build_domain,
    build_f1_counterexample,
    center_gap,
    certify_f1,
    certify_failure,
    certify_restricted,
    default_sequences,
    export_domain_json,
    export_failure_csv,
    f1_sequences,
)
from qnslab.geometry import Ball, lens_area, lens_constant
from qnslab import counterexample
from qnslab.quadrature import MeanResult, QuadratureSpec, derive_seed
from qnslab.radius_sets import RadiusSet, classify
from qnslab.regions import MarkedSet, Region

SPEC = QuadratureSpec(method="mc", target_rel_error=1e-3, max_samples=200_000, seed=17)


class TestSequences:
    def test_default_values(self):
        s = default_sequences(3, 5)
        assert math.isclose(s.a[0], 1.0 / 192.0, rel_tol=1e-12)
        assert s.b[1] == 16.0**-4
        assert s.b[1] < s.a[0]
        ratios = [b / a for a, b in zip(s.a, s.b)]
        assert ratios == sorted(ratios)
        assert math.isclose(ratios[0], 12.0, rel_tol=1e-12)

    def test_chain_violation_named(self):
        s = default_sequences(3, 5)
        bad_a = tuple(b / 4.0 for b in s.b)  # forces 2a = b/2 >= b/3
        with pytest.raises(ConstructionError, match="2 a_m < b_m/N0"):
            SequencePair(bad_a, s.b, 3, "gap-chain")

    def test_small_n0_rejected(self):
        with pytest.raises(ConstructionError, match="N0"):
            default_sequences(2, 5)
        with pytest.raises(ConstructionError):
            default_sequences(3, 2)

    def test_f1_sequences(self):
        s = f1_sequences(3, 5)
        assert list(s.indices()) == [4, 5, 6, 7, 8]
        for i, m in enumerate(s.indices()):
            assert math.isclose(s.b[i], m * s.a[i], rel_tol=1e-12)
        assert all(b2 < a1 for a1, b2 in zip(s.a, s.b[1:]))


class TestBuildDomain:
    def test_center_offsets(self):
        dom = build_domain(default_sequences(3, 5))
        assert dom.centers[0] == 0.0
        assert dom.centers[1] == 0.125  # twice the first scale
        assert math.isclose(center_gap(dom, 1, 2), 2.0 * 16.0**-1, rel_tol=1e-12)

    def test_centers_inside_domain(self):
        dom = build_domain(default_sequences(3, 5))
        for c in dom.centers:
            assert dom.omega.contains((c, 0.0))

    def test_inner_set_closed_boundary(self):
        s = default_sequences(3, 5)
        dom = build_domain(s)
        # component 1 has comfortably representable coordinates
        a1 = s.a[0]
        assert dom.inner_set.contains((a1, 0.0))
        assert not dom.inner_set.contains((a1 * 1.001, 0.0))
        assert dom.field.values(np.array([[a1, 0.0]]))[0] == 1.0

    def test_local_frames(self):
        dom = build_domain(default_sequences(3, 5))
        for comp in dom.components:
            assert comp.omega_local.contains((0.0, 0.0))
            assert comp.inner_local.contains((comp.inner_radius, 0.0))
            assert not comp.inner_local.contains((comp.inner_radius * 1.001, 0.0))
            # the inner disk sits well inside the domain disk
            assert 2.0 * comp.inner_radius < comp.omega_radius

    def test_pairwise_disjointness_margin(self):
        s = default_sequences(3, 5)
        dom = build_domain(s)
        idx = list(s.indices())
        for i, m1 in enumerate(idx):
            for m2 in idx[i + 1:]:
                gap = center_gap(dom, m1, m2)
                radii = (s.b_of(m1) + s.b_of(m2)) / s.n0
                assert gap - radii > 0.0

    def test_connectivity_via_bridges(self):
        # the bridging strip midpoint belongs to the domain
        s = default_sequences(3, 4)
        dom = build_domain(s)
        mid = 0.5 * (dom.centers[0] + dom.centers[1])
        assert dom.omega.contains((mid, 0.0))


class TestCertifyFailure:
    def test_means_match_area_ratios(self):
        dom = build_domain(default_sequences(3, 5))
        rep = certify_failure(dom, SPEC)
        assert rep.passed
        expected = [1.0 / (4.0 * m * m) for m in range(1, 6)]
        for row, want in zip(rep.rows, expected):
            assert math.isclose(row.expected_mean, want, rel_tol=1e-9)
            assert abs(row.mean - want) <= 3.0 * max(row.stderr, 1e-12)

    def test_implied_k_bounds(self):
        dom = build_domain(default_sequences(3, 5))
        rep = certify_failure(dom, SPEC)
        ks = rep.implied_k_bounds()
        assert [round(k) for k in ks] == [4, 16, 36, 64, 100]
        assert ks[-1] >= 100.0 - 1e-9
        assert all(x < y for x, y in zip(ks, ks[1:]))

    # (mean, stderr) of each component on the spec of the chain-failure-deep benchmark
    # workload, recorded before the radial screen of indicator ball means
    PINNED_ROWS = [(0.25009125, 0.00021653271320972115), (0.06251725, 0.00012104633214667435),
                   (0.0277535, 8.213289533366411e-05), (0.01567275, 6.210297650720372e-05),
                   (0.00998975, 4.972413238918011e-05)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_are_pinned(self, workers):
        # a change to the sample stream or to the screen must update them on purpose
        spec = QuadratureSpec(method="mc", target_rel_error=1e-3, max_samples=4_000_000,
                              seed=derive_seed(5150, "chain-failure-deep"), workers=workers)
        rep = certify_failure(build_domain(default_sequences(3, 5)), spec)
        assert [(row.mean, row.stderr) for row in rep.rows] == self.PINNED_ROWS
        assert rep.passed


class TestCertifyRestricted:
    def test_admissible_set_classifies_unfavorable(self):
        dom = build_domain(default_sequences(3, 5))
        a = avoided_complement_set(dom)
        c = classify(a)
        assert c.favorable_all_open == "no"
        assert math.isinf(c.i0)

    def test_gap_intersection_rejected(self):
        dom = build_domain(default_sequences(3, 5))
        bad = RadiusSet("elements", (1e-4, 1.0), elements=(0.01,))  # inside gap (a_1, b_1)
        with pytest.raises(ConstructionError, match="avoided gap"):
            certify_restricted(dom, bad, RestrictedProbeSpec(), SPEC)

    def test_too_few_samples_per_probe_rejected(self):
        # sampled probe means need at least 1000 samples, as QuadratureSpec does
        with pytest.raises(ValueError, match="samples_per_probe"):
            RestrictedProbeSpec(samples_per_probe=999)

    def test_center_probe_ratio_one(self):
        # a probe at the component center with the top admissible radius stays
        # inside the inner disk, so the mean is 1
        s = default_sequences(3, 5)
        dom = build_domain(s)
        comp = dom.components[0]
        from qnslab.quadrature import mean_over_ball

        res = mean_over_ball(comp.field_local, Ball((0.0, 0.0), comp.inner_radius), SPEC)
        assert res.mean == 1.0

    def test_extremal_probe_matches_lens_oracle(self):
        # center on the inner boundary, radius = inner radius: the overlap is
        # the two-congruent-disk lens
        s = default_sequences(3, 5)
        dom = build_domain(s)
        comp = dom.components[1]
        a = comp.inner_radius
        from qnslab.quadrature import mean_over_ball

        res = mean_over_ball(comp.field_local, Ball((a, 0.0), a),
                             QuadratureSpec(method="mc", target_rel_error=1e-3,
                                            max_samples=400_000, seed=23))
        oracle = lens_area(a, a, a) / (math.pi * a * a)
        assert math.isclose(oracle, lens_constant(), rel_tol=1e-12)
        assert abs(res.mean - oracle) <= 3.0 * res.stderr

    def test_full_certification(self):
        dom = build_domain(default_sequences(3, 5))
        a = avoided_complement_set(dom)
        probes = RestrictedProbeSpec(offsets=(0.0, 0.5, 0.9, 1.0), angles=6,
                                     radii_per_component=8, samples_per_probe=4096)
        rep = certify_restricted(dom, a, probes, QuadratureSpec(seed=29))
        assert rep.passed
        assert rep.dichotomy_passed and rep.dichotomy_checked > 0
        assert rep.max_ratio <= (1.0 / lens_constant()) * 1.1
        assert rep.sharpness_witness["ratio"] >= 2.3

    def test_exact_means_reach_the_sharp_constant(self):
        dom = build_domain(default_sequences(3, 5))
        rep = certify_restricted(dom, avoided_complement_set(dom))
        assert rep.passed and not rep.violations
        assert rep.probes == 10_355
        assert rep.sharpness_witness["stderr"] == 0.0
        assert math.isclose(rep.max_ratio, 1.0 / lens_constant(), rel_tol=0.0, abs_tol=1e-12)

    def test_exact_means_break_2_5575_at_the_sharp_probes(self):
        # 2.5575 * lens_constant() = 0.999988 < 1: with exact means only the
        # Monte Carlo slack lets acceptance 3 pass at 2.5575
        dom = build_domain(default_sequences(3, 5))
        probes = RestrictedProbeSpec()
        rep = certify_restricted(dom, avoided_complement_set(dom), probes, constant=2.5575)
        assert not rep.passed
        assert len(rep.violations) == len(dom.components) * probes.angles == 60
        radius = {comp.m: comp.inner_radius for comp in dom.components}
        for v in rep.violations:
            assert v["radius"] == radius[v["m"]]
            assert math.isclose(math.hypot(*v["center"]), radius[v["m"]], rel_tol=1e-12)

    @pytest.mark.parametrize("method, violations", [("mc", 1), ("exact", 0)])
    def test_only_exact_means_get_the_rounding_slack(self, monkeypatch, method, violations):
        # a sampled mean whose first 4,096 points all hit or all miss reports stderr 0; it keeps the
        # 3-stderr slack, which is then 0, while an exact mean gets EXACT_MEAN_REL_TOL
        k = 1.0 / lens_constant()

        def one_probe_below(u, centers, radii, spec, labels=None, _original=counterexample._ball_means):
            out = _original(u, centers, radii, spec, labels)
            if u is dom.components[0].field_local:
                out[0] = MeanResult((1.0 / k) * (1.0 - 5e-13), 0.0, 4096, method)
            return out

        dom = build_domain(default_sequences(3, 3))
        monkeypatch.setattr(counterexample, "_ball_means", one_probe_below)
        probes = RestrictedProbeSpec(offsets=(0.0, 1.0), angles=4, radii_per_component=3)
        rep = certify_restricted(dom, avoided_complement_set(dom), probes)
        assert len(rep.violations) == violations and rep.passed == (violations == 0)

    def test_exact_mean_tolerance_covers_the_sharp_probes(self, monkeypatch):
        # the 60 sharp probes (center on the inner circle, radius a_m) against the lens area of the
        # same float balls at 50 digits: the rounding of both the certified means and lens_area
        # stays far below EXACT_MEAN_REL_TOL
        calls = []

        def recording(u, centers, radii, spec, labels=None, _original=counterexample._ball_means):
            out = _original(u, centers, radii, spec, labels)
            calls.append((u.params["support"].primitives[0].radius, centers, radii, out))
            return out

        def lens_mean(r, a, d):  # area(B(c, r) ∩ B(0, a)) / (pi r^2) at |c| = d, with mpmath
            r, a = mpmath.mpf(r), mpmath.mpf(a)
            lens = (r * r * mpmath.acos((d * d + r * r - a * a) / (2 * d * r))
                    + a * a * mpmath.acos((d * d + a * a - r * r) / (2 * d * a))
                    - mpmath.sqrt((-d + r + a) * (d + r - a) * (d - r + a) * (d + r + a)) / 2)
            return lens / (mpmath.pi * r * r)

        dom = build_domain(default_sequences(3, 5))
        monkeypatch.setattr(counterexample, "_ball_means", recording)
        certify_restricted(dom, avoided_complement_set(dom))
        errors = []
        with mpmath.workdps(50):
            for comp, (a, centers, radii, out) in zip(dom.components, calls):
                assert a == comp.inner_radius
                for (cx, cy), r, res in zip(centers.tolist(), radii.tolist(), out):
                    if r == a and math.isclose(math.hypot(cx, cy), a, rel_tol=1e-12):
                        d = mpmath.sqrt(mpmath.mpf(cx) ** 2 + mpmath.mpf(cy) ** 2)
                        exact = lens_mean(r, a, d)
                        errors.append(float(abs(res.mean - exact) / exact))
                        exact = lens_mean(r, a, mpmath.mpf(float(d)))
                        errors.append(float(abs(lens_area(r, a, float(d)) / (math.pi * r * r) - exact) / exact))
        assert len(errors) == 2 * 60
        assert max(errors) <= counterexample.EXACT_MEAN_REL_TOL / 100  # about 6e-16 is seen

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_probe_seeds_are_derived_only_for_sampled_means(self, monkeypatch, method):
        from qnslab import quadrature

        labels = []

        def counting(seed, label, _original=quadrature.derive_seed):
            labels.append(label)
            return _original(seed, label)

        monkeypatch.setattr(quadrature, "derive_seed", counting)
        dom = build_domain(default_sequences(3, 3))
        probes = RestrictedProbeSpec(offsets=(0.0, 1.0), angles=4, radii_per_component=3,
                                     samples_per_probe=1024)
        rep = certify_restricted(dom, avoided_complement_set(dom), probes, QuadratureSpec(method=method, seed=5))
        assert rep.passed
        assert len(labels) == (0 if method == "auto" else rep.probes)

    @pytest.mark.parametrize("sequences", [default_sequences(3, 5), f1_sequences(3, 5)], ids=["gap-chain", "f1"])
    def test_dichotomy_blocks_large_radii(self, sequences):
        from qnslab.counterexample import _certify_dichotomy

        dom = build_domain(sequences)
        top = dom.avoided_gaps[0][1] * 2.0
        for comp in dom.components:
            b_m = sequences.b_of(comp.m)
            # a pass at b_m covers the ray: 8 larger radii up to twice the first gap top are the reference
            assert _certify_dichotomy(dom, comp, b_m)
            assert all(_certify_dichotomy(dom, comp, float(r)) for r in np.geomspace(b_m, max(top, 2.0 * b_m), 8))
            assert not _certify_dichotomy(dom, comp, 2.0 * comp.inner_radius)
        rep = certify_restricted(dom, avoided_complement_set(dom), RestrictedProbeSpec(offsets=(0.0,), angles=1,
                                                                                      radii_per_component=2))
        assert rep.dichotomy_passed and rep.dichotomy_checked == len(dom.components)

    @pytest.mark.parametrize("sequences", [default_sequences(3, 5), f1_sequences(3, 5)], ids=["gap-chain", "f1"])
    def test_dichotomy_verdict_is_monotone_in_r(self, sequences):
        from qnslab.counterexample import _certify_dichotomy

        dom = build_domain(sequences)
        for comp in dom.components:
            b_m = sequences.b_of(comp.m)
            radii = np.concatenate([np.linspace(0.0, b_m, 400), np.geomspace(b_m, 1e6 * b_m, 200)])
            verdicts = [_certify_dichotomy(dom, comp, float(r)) for r in radii]
            # fails below some radius at most b_m and passes from there on, so one check at b_m decides the ray
            first = verdicts.index(True)
            assert 0 < first and radii[first] <= b_m and all(verdicts[first:])


class TestF1Variant:
    D = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))

    def test_rule_values(self):
        s = f1_sequences(3, 5)
        rule = PiecewiseScaleRule(1.0, s.a, s.indices().start)
        m, lo, hi = rule.gaps()[0]
        k = math.sqrt(lo * hi)
        assert rule(k) == k / m
        assert rule(k) <= lo  # the small branch stays below the gap bottom
        assert rule(0.5) == 0.5  # linear branch off the gaps

    def test_build_requires_matching_n0(self):
        s = f1_sequences(3, 5)
        small = MarkedSet(Region((Ball((0.0, 0.0), 0.05),)), (0.0, 0.0))
        with pytest.raises(ConstructionError, match="N0"):
            build_f1_counterexample(s, small)

    def test_build_and_certify(self):
        s = f1_sequences(3, 5)
        dom, u, rule = build_f1_counterexample(s, self.D)
        assert u.kind == "indicator"
        rep = certify_f1(dom, rule, self.D,
                         QuadratureSpec(seed=31, max_samples=100_000, target_rel_error=1e-3),
                         scales_per_component=5, centers_per_component=3)
        assert rep.passed
        assert rep.scale_checks > 0
        assert rep.scale_bound_checked
        ks = rep.failure.implied_k_bounds()
        assert ks[-1] > ks[0]

    def test_failure_side_means(self):
        s = f1_sequences(3, 5)
        dom, _, _ = build_f1_counterexample(s, self.D)
        rep = certify_failure(dom, SPEC)
        # probe disks exceed the inner disks only past m = 2*N0
        for row in rep.rows:
            want = min(1.0, (2.0 * 3.0 / row.m) ** 2)
            assert math.isclose(row.expected_mean, want, rel_tol=1e-9)


def record_probe_specs(monkeypatch) -> list:
    """Record (mean function, spec, result method) for every probe mean that
    the certify_* functions take through the counterexample module.  A probe
    of a labeled array call (``_ball_means``, ``_image_means``) is recorded on
    ``spec.child(label)``, the spec of the one-probe call that it equals."""
    calls = []

    def one_probe(*args, _original=counterexample.mean_over_ball):
        res = _original(*args)
        calls.append(("mean_over_ball", args[-1], res.method))
        return res

    def array(name):
        def recording(*args, _original=getattr(counterexample, name)):
            *_, spec, labels = args
            outcomes = _original(*args)
            calls.extend((name, spec.child(label), res.method) for label, res in zip(labels, outcomes))
            return outcomes

        return recording

    monkeypatch.setattr(counterexample, "mean_over_ball", one_probe)
    for name in ("_ball_means", "_image_means"):
        monkeypatch.setattr(counterexample, name, array(name))
    return calls


class TestProbeSpecs:
    """Each probe runs on the spec that certify_* built explicitly field by field:
    the caller's settings with the probe's own derived seed and overrides."""

    SPEC_FIELDS = dict(target_rel_error=0.05, max_samples=20_000, seed=11, workers=2)

    @staticmethod
    def explicit(spec, method, target, max_samples, label):
        return QuadratureSpec(method=method, target_rel_error=target, max_samples=max_samples,
                              seed=derive_seed(spec.seed, label), workers=spec.workers)

    @staticmethod
    def check(calls, expected):
        assert [name for name, _, _ in calls] == [name for name, _ in expected]
        for (_, got, result_method), (_, want) in zip(calls, expected):
            if result_method == "exact":
                assert got.method == want.method
            else:
                assert got == want

    def failure_probes(self, dom, spec):
        return [("mean_over_ball", self.explicit(spec, spec.method, spec.target_rel_error, spec.max_samples,
                                                 f"failure:{comp.m}"))
                for comp in dom.components]

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_certify_failure(self, monkeypatch, method):
        spec = QuadratureSpec(method=method, **self.SPEC_FIELDS)
        dom = build_domain(default_sequences(3, 3))
        calls = record_probe_specs(monkeypatch)
        certify_failure(dom, spec)
        self.check(calls, self.failure_probes(dom, spec))
        assert {m for _, _, m in calls} == {"exact" if method == "auto" else "mc"}

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_certify_restricted(self, monkeypatch, method):
        spec = QuadratureSpec(method=method, **self.SPEC_FIELDS)
        dom = build_domain(default_sequences(3, 3))
        probes = RestrictedProbeSpec(offsets=(0.0, 1.0), angles=4, radii_per_component=3, samples_per_probe=1024)
        calls = record_probe_specs(monkeypatch)
        rep = certify_restricted(dom, avoided_complement_set(dom), probes, spec)
        self.check(calls, [("_ball_means", self.explicit(spec, method, 0.1, probes.samples_per_probe,
                                                             f"restricted:{i}"))
                           for i in range(1, rep.probes + 1)])
        assert {m for _, _, m in calls} == {"exact" if method == "auto" else "mc"}

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_certify_f1(self, monkeypatch, method):
        spec = QuadratureSpec(method=method, **self.SPEC_FIELDS)
        d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
        dom, _, rule = build_f1_counterexample(f1_sequences(3, 3), d)
        calls = record_probe_specs(monkeypatch)
        rep = certify_f1(dom, rule, d, spec, scales_per_component=2, centers_per_component=2)
        image_probes = [("_image_means", self.explicit(spec, "mc", 0.1, 4096, f"f1:{i}"))
                        for i in range(1, rep.scale_checks + 1)]
        self.check(calls, self.failure_probes(dom, spec) + image_probes)
        assert rep.scale_checks > 0
        assert all(m == "mc" for name, _, m in calls if name == "_image_means")


class TestExport:
    def test_domain_json(self, tmp_path):
        dom = build_domain(default_sequences(3, 5))
        path = tmp_path / "domain.json"
        export_domain_json(dom, path)
        doc = json.loads(path.read_text())
        assert doc["n0"] == 3
        assert len(doc["sequences"]["a"]) == 5
        assert [float(v) for v in doc["centers"]] == list(dom.centers)
        assert doc["omega"]["primitives"][0]["type"] == "ball"
        # sequence values round-trip bit exactly through the decimal strings
        assert [float(v) for v in doc["sequences"]["b"]] == list(dom.sequences.b)

    def test_failure_csv(self, tmp_path):
        dom = build_domain(default_sequences(3, 5))
        rep = certify_failure(dom, SPEC)
        path = tmp_path / "implied_k.csv"
        export_failure_csv(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["m", "a_m", "b_m", "z_m"]
        assert len(rows) == 6
        assert float(rows[-1][8]) >= 100.0 - 1e-9
