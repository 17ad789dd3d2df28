"""Battery reductions over ``Means`` arrays, against one-probe references.

Each battery reads its probe array's ``Means`` as arrays: the verdict through
``Means.bound`` and the extreme through ``argmax`` or ``argmin``.  Every test
here rebuilds a battery's report from one-probe ``mean_over_ball`` and
``mean_over_image`` calls, Python ``max`` and ``min`` (which keep the first of
ties) and ``MeanResult.bound``, and asks for equality, bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnslab import counterexample, qns_engine, quadrature
from qnslab.counterexample import (
    RestrictedProbeSpec,
    _component_probe_radii,
    avoided_complement_set,
    build_domain,
    build_f1_counterexample,
    certify_f1,
    certify_failure,
    certify_restricted,
    default_sequences,
    f1_sequences,
)
from qnslab.fields import DomainError, constant_field, indicator_field, radial_bump_field, sum_field
from qnslab.geometry import Ball, lens_constant
from qnslab.qns_engine import (
    BallProbeGrid,
    CheckReport,
    DensityReport,
    KEstimate,
    ScaleFunction,
    SimilarityProbeGrid,
    check_K,
    estimate_K,
    generalized_test,
    indicator_density,
)
from qnslab.quadrature import (
    EXACT_MEAN_REL_TOL,
    ContainmentError,
    Means,
    MeanResult,
    QuadratureSpec,
    mean_over_ball,
    mean_over_image,
)
from qnslab.radius_sets import GeometricFamily, RadiusSet, gap_constant
from qnslab.regions import MarkedSet, Rect, Region

OMEGA = Region((Ball((0.0, 0.0), 2.0),))
GAMMA = Region((Ball((0.0, 0.0), 1.0, closed=True),))
GRID = BallProbeGrid(center_resolution=7, radii_per_center=5, radius_range=(0.1, 1.5))
# a closed disk of radius 1e-3 about a probe center: under "mc" most of its balls draw no point of it, so
# their mean is 0 while u(center) = 1, a zero denominator; exact means stay positive
SPECK = indicator_field(Region((Ball(tuple(GRID.centers(OMEGA)[20].tolist()), 1e-3, closed=True),)), OMEGA)
FIELDS = {
    "indicator": indicator_field(GAMMA, OMEGA),  # centers off the disk, with balls that miss it: vacuous 0/0
    "constant": constant_field(1.0, OMEGA),  # every ratio ties at 1
    "speck": SPECK,
    "sum": sum_field([(0.7, radial_bump_field((0.3, -0.2), 1.1, 2.0, OMEGA)), (1.3, indicator_field(GAMMA, OMEGA))],
                     OMEGA),
}
SPECS = {"exact": QuadratureSpec(method="auto", target_rel_error=0.1, max_samples=8192, seed=3),
         "mc": QuadratureSpec(method="mc", target_rel_error=0.1, max_samples=8192, seed=3)}


def counts(results):
    exact = sum(res.method == "exact" for res in results)
    return exact, len(results) - exact


def one_probe_balls(u, centers, radii, spec):
    """(center, radius, u(center), mean) of every admitted ball probe, in probe order, and the skip count."""
    rows, skipped = [], 0
    for c, v in zip(centers.tolist(), u.values(centers).tolist()):
        for r in radii:
            try:
                rows.append((c, float(r), v, mean_over_ball(u, Ball(tuple(c), float(r)), spec)))
            except ContainmentError:
                skipped += 1
    return rows, skipped


def reference_sup(rated, skipped, spec, witness):
    """``KEstimate`` by Python ``max`` over (u(x) * normalizer, denominator, mean, probe) per admitted probe."""
    tail = (spec.seed, spec.workers, spec.method, *counts([res for _, _, res, _ in rated]))
    used = [(s / d if d > 0.0 else math.inf, res, p) for s, d, res, p in rated if d > 0.0 or s > 0.0]
    if not used:
        return KEstimate(0.0, None, 0, skipped, 0.0, True, *tail)
    k_hat, res, p = max(used, key=lambda t: t[0])
    return KEstimate(k_hat, witness(p, res), len(used), skipped, max(r.stderr for _, r, _ in used), False, *tail)


def reference_estimate_K(u, grid, spec):
    rows, skipped = one_probe_balls(u, grid.centers(OMEGA), grid.radii(OMEGA), spec)
    return reference_sup([(v, res.mean, res, (c, r, v)) for c, r, v, res in rows], skipped, spec,
                         lambda p, res: {"center": p[0], "radius": p[1], "value": p[2], "mean": res.mean,
                                         "stderr": res.stderr})


def reference_check_K(u, k, grid, spec):
    rows, skipped = one_probe_balls(u, grid.centers(OMEGA), grid.radii(OMEGA), spec)
    failures = [{"center": c, "radius": r, "value": v, "mean": res.mean, "stderr": res.stderr,
                 "ratio": v / res.mean if res.mean > 0 else math.inf} for c, r, v, res in rows if v > res.bound(k)]
    return CheckReport(not failures, k, failures, len(rows), skipped, max((res.stderr for *_, res in rows), default=0.0),
                       spec.seed, spec.workers, spec.method, *counts([res for *_, res in rows]))


def reference_density(gamma, grid, spec):
    rows, skipped = one_probe_balls(indicator_field(gamma, OMEGA), grid.centers(gamma), grid.radii(OMEGA), spec)
    if not rows:
        return DensityReport(math.inf, None, 0.0, False, 0, skipped, spec.seed, 0, 0)
    c, r, _, res = min(rows, key=lambda row: row[3].mean)
    return DensityReport(res.mean, {"center": c, "radius": r, "mean": res.mean, "stderr": res.stderr},
                         1.0 / res.mean if res.mean > 0 else math.inf, res.mean > 3.0 * res.stderr, len(rows),
                         skipped, spec.seed, *counts([res for *_, res in rows]))


def record_image_arrays(monkeypatch, module):
    """The ``(d, probes)`` of every ``_image_means`` call that ``module`` makes."""
    arrays = []

    def recording(u, d, probes, *rest, _original=module._image_means):
        arrays.append((d, probes))
        return _original(u, d, probes, *rest)

    monkeypatch.setattr(module, "_image_means", recording)
    return arrays


@pytest.mark.parametrize("spec", SPECS)
class TestBallBatteries:
    @pytest.mark.parametrize("field", FIELDS)
    def test_estimate_K(self, field, spec):
        est = estimate_K(FIELDS[field], OMEGA, GRID, SPECS[spec])
        assert est == reference_estimate_K(FIELDS[field], GRID, SPECS[spec])
        if field == "speck":  # the zero denominators: ratio inf, of which the first is the witness
            assert math.isinf(est.k_hat) == (spec == "mc")

    @pytest.mark.parametrize("field", FIELDS)
    def test_check_K(self, field, spec):
        for k in (1.0, 2.5):
            assert check_K(FIELDS[field], OMEGA, k, GRID, SPECS[spec]) == reference_check_K(FIELDS[field], k, GRID,
                                                                                            SPECS[spec])

    @pytest.mark.parametrize("gamma", [GAMMA, OMEGA], ids=["disk", "all"])  # with Γ = Ω every mean ties at 1
    def test_indicator_density(self, gamma, spec):
        assert indicator_density(gamma, OMEGA, GRID, SPECS[spec]) == reference_density(gamma, GRID, SPECS[spec])

    def test_vacuous_and_tied_probes_occur(self, spec):
        # the reference above runs over each kind of probe the reduction must treat alike
        rows, _ = one_probe_balls(FIELDS["indicator"], GRID.centers(OMEGA), GRID.radii(OMEGA), SPECS[spec])
        assert any(v == 0.0 and res.mean == 0.0 for _, _, v, res in rows)
        est = estimate_K(FIELDS["constant"], OMEGA, GRID, SPECS[spec])
        assert est.k_hat == 1.0 and est.probes_used > 1


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("field", ["indicator", "constant", "speck"])
@pytest.mark.parametrize("f", [None, ScaleFunction(lambda k: 1.3 * k, (1e-3, 1e3))], ids=["f=None", "f"])
def test_generalized_test(monkeypatch, field, spec, f):
    u, spec = FIELDS[field], SPECS[spec]
    d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
    sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, scale_range=(0.2, 1.4), rotations=2)
    arrays = record_image_arrays(monkeypatch, qns_engine)
    est = generalized_test(u, OMEGA, d, f, sims, spec)
    (_, probes), = arrays
    centers = BallProbeGrid(center_resolution=sims.center_resolution).centers(OMEGA)
    values = u.values(centers).tolist()
    per_center = len(probes) // len(centers)
    rated, skipped = [], 0
    for i, h in enumerate(probes.similarities()):
        try:
            res = mean_over_image(u, d, h, spec)
        except DomainError:
            skipped += 1
            continue
        k = h.scale
        norm = (k**2) * d.measure if f is None else f.fn(k) ** 2
        rated.append((values[i // per_center] * norm, res.mean * (k**2) * d.measure, res, (i // per_center, k)))
    assert skipped > 0
    assert est == reference_sup(rated, skipped, spec, lambda p, res: {
        "center": centers[p[0]].tolist(), "scale": p[1], "mean": res.mean, "stderr": res.stderr})


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("constant", [None, 2.5575])  # at 2.5575 the exact sharp probes are violations
def test_certify_restricted(spec, constant):
    spec = SPECS[spec]
    dom = build_domain(default_sequences(3, 3))
    probes = RestrictedProbeSpec(offsets=(0.0, 0.5, 1.0), angles=4, radii_per_component=3, samples_per_probe=2048)
    rep = certify_restricted(dom, avoided_complement_set(dom), probes, spec, constant)
    k = 1.0 / lens_constant() if constant is None else constant
    probe_spec = replace(spec, target_rel_error=0.1, max_samples=probes.samples_per_probe)
    max_ratio, witness, violations, results = -math.inf, None, [], []
    for comp in dom.components:
        a_m = comp.inner_radius
        thetas = [2.0 * math.pi * t / probes.angles for t in range(probes.angles)]
        centers = [(0.0, 0.0)] + [(rho * a_m * math.cos(theta), rho * a_m * math.sin(theta))
                                  for rho in probes.offsets if rho != 0.0 for theta in thetas]
        ratios = []
        for cx, cy in centers:
            for r in _component_probe_radii(dom, comp, probes):
                res = mean_over_ball(comp.field_local, Ball((cx, cy), r),
                                     probe_spec.child(f"restricted:{len(results) + 1}"))
                results.append(res)
                row = {"m": comp.m, "center": [cx, cy], "radius": r, "mean": res.mean, "stderr": res.stderr}
                if 1.0 > res.bound(k):
                    violations.append(row)
                ratios.append((1.0 / res.mean if res.mean > 0 else -math.inf, row))
        best, row = max(ratios, key=lambda t: t[0])
        if best > max_ratio:
            max_ratio, witness = best, {**row, "ratio": best}
    assert rep.dichotomy_passed
    assert (rep.passed, rep.max_ratio, rep.sharpness_witness, rep.probes, rep.violations) == (
        not violations, max_ratio, witness, len(results), violations)
    assert (rep.exact_means, rep.sampled_means) == counts(results)
    assert bool(violations) == (constant is not None and spec.method == "auto")


@pytest.mark.parametrize("spec", SPECS)
def test_certify_f1(monkeypatch, spec):
    spec = SPECS[spec]
    d = MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0))
    dom, _, rule = build_f1_counterexample(f1_sequences(3, 3), d)
    arrays = record_image_arrays(monkeypatch, counterexample)
    rep = certify_f1(dom, rule, d, spec, scales_per_component=4, centers_per_component=3)
    k_const = rule.c**2 / (math.pi * min(d.inner_radius, 1.0) ** 2 * lens_constant())
    probe_spec = replace(spec, method="mc", target_rel_error=0.1, max_samples=4096)
    violations, results, bound_ok = [], [], True
    comps = [comp for comp in dom.components if comp.omega_radius > comp.inner_radius]
    assert len(comps) == len(arrays)
    for comp, (_, probes) in zip(comps, arrays):
        for h in probes.similarities():
            res = mean_over_image(comp.field_local, d, h, probe_spec.child(f"f1:{len(results) + 1}"))
            results.append(res)
            k = h.scale
            bound_ok = bound_ok and not k * d.inner_radius > 2.0 * comp.m * comp.inner_radius / dom.sequences.n0
            lhs = rule(k) ** 2
            if lhs > res.bound(k_const) * k**2 * d.measure:
                violations.append({"m": comp.m, "scale": k, "lhs": lhs, "integral": res.mean * k**2 * d.measure,
                                   "stderr": res.stderr * k**2 * d.measure})
    failure = certify_failure(dom, spec)
    assert rep.failure == failure
    assert (rep.scale_checks, rep.scale_violations, rep.scale_bound_checked, rep.passed) == (
        len(results), violations, bound_ok, failure.passed and not violations and bound_ok)
    assert (rep.exact_means, rep.sampled_means) == counts(results) == (0, len(results))


class TestMeansBound:
    """``Means.bound(K)`` is ``MeanResult.bound(K)`` of every row, bit for bit."""

    @staticmethod
    def means(rng, exact):
        n = 200
        out = Means(np.ones(n, dtype=bool), exact, "mc", None)
        out.mean[:] = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 3, n)
        out.mean[:5] = (0.0, 1.0, 5e-324, 1.0 / lens_constant(), lens_constant())
        if not exact:
            out.stderr[:] = out.mean * rng.uniform(0.0, 0.3, n)
            out.stderr[::3] = 0.0  # a sample whose draws all hit or all miss
            out.n_samples[:] = 4096
        return out

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_rows_match_mean_result(self, exact):
        rng = np.random.Generator(np.random.PCG64(8))
        means = self.means(rng, exact)
        for k in (1.0, 1.0 / lens_constant(), 2.5575, 3.0 + 1e-9, 1e6):
            bound = means.bound(k)
            assert [float(b).hex() for b in bound] == [res.bound(k).hex() for res in means]

    def test_mixed_rows(self):
        # a mixed array: each row takes its own slack, exact or sampled
        rng = np.random.Generator(np.random.PCG64(9))
        means = self.means(rng, False)
        means.exact[1::2] = True
        assert {res.method for res in means} == {"exact", "mc"}
        bound = means.bound(2.5)
        assert [float(b).hex() for b in bound] == [res.bound(2.5).hex() for res in means]

    def test_refused_rows_pass_no_comparison(self):
        means = Means(np.array([True, False]), True, "mc", lambda i: DomainError("refused"))
        means.mean[0] = 0.5
        assert isinstance(means[1], DomainError) and math.isnan(means.bound(2.0)[1])
        assert (np.asarray([10.0, 10.0]) > means.bound(2.0)).tolist() == [True, False]
        assert means.counts() == (1, 0) and means[0] == MeanResult(0.5, 0.0, 1, "exact")


class TestSupRatio:
    """``_sup_ratio`` on hand-made arrays: ties, zero denominators, 0/0 and refused probes."""

    CASES = {
        "tied": ([2.0, 3.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
        "inf": ([1.0, 2.0, 1.0, 3.0], [0.5, 0.0, 0.0, 1.0]),  # two zero denominators: the first is the witness
        "vacuous": ([0.0, 0.0, 0.5], [0.0, 0.0, 0.25]),
        "all-vacuous": ([0.0, 0.0], [0.0, 0.0]),
        "negative": ([-1.0, 0.5, 0.0], [-2.0, 1.0, 0.0]),
    }

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_python_max(self, case, exact):
        scaled, den = (np.asarray(x) for x in self.CASES[case])
        for admitted in (np.ones(len(den), dtype=bool), np.arange(len(den)) % 3 != 1):
            means = Means(admitted, exact, "mc", lambda i: DomainError("refused"))
            means.mean[admitted] = den[admitted]
            if not exact:
                means.stderr[admitted] = 0.01 * np.arange(admitted.sum())
            spec = SPECS["mc"]
            est = qns_engine._sup_ratio(scaled, means.mean, means, lambda i: {"probe": i}, spec)
            rated = [(s, res.mean, res, i) for i, (s, res) in enumerate(zip(scaled.tolist(), means))
                     if not isinstance(res, Exception)]
            assert est == reference_sup(rated, int((~admitted).sum()), spec, lambda i, res: {"probe": i})


def test_batteries_never_index_a_means_row(monkeypatch):
    """The batteries read ``Means`` as arrays: no battery builds a row's ``MeanResult``."""
    def no_row(self, i):
        raise AssertionError("a battery indexed a Means row")

    monkeypatch.setattr(Means, "__getitem__", no_row)
    d = MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0))
    sims = SimilarityProbeGrid(center_resolution=5, scales_per_center=3, scale_range=(0.2, 1.4))
    dom = build_domain(default_sequences(3, 3))
    probes = RestrictedProbeSpec(offsets=(0.0, 1.0), angles=4, radii_per_component=3, samples_per_probe=1024)
    for spec in SPECS.values():
        for u in FIELDS.values():
            estimate_K(u, OMEGA, GRID, spec)
            check_K(u, OMEGA, 2.0, GRID, spec)
            generalized_test(u, OMEGA, d, None, sims, spec)
        indicator_density(GAMMA, OMEGA, GRID, spec)
        certify_restricted(dom, avoided_complement_set(dom), probes, spec)
    with pytest.raises(AssertionError, match="indexed"):
        quadrature.mean_over_ball(FIELDS["constant"], Ball((0.0, 0.0), 1.0))


class TestSufficiencyK:
    """The paper's sufficiency direction on a probe grid: if A is favorable with gap constant C, a
    ball of radius r contains the concentric one of radius r_A in A ∩ [r / C, r], so K_hat over
    every radius is at most C^n times K_hat over the radii of A."""

    OMEGA = Region((Ball((0.0, 0.0), 2.0),))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(ratio=st.floats(1.3, 3.0), base=st.floats(0.1, 1.0),
           bump=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.2, 1.5), st.floats(0.1, 3.0)),
           disk=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
           weights=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)))
    def test_k_hat_is_bounded_by_the_favorable_radii(self, ratio, base, bump, disk, weights):
        a = RadiusSet(form="family", window=(1e-3, 4.0), family=GeometricFamily(base, ratio))
        c = gap_constant(a).value
        r_lo, r_hi = 0.02, 0.98
        # A's points from r_lo / C up: each radius r of the full grid has one in [r / C, r]
        grids = BallProbeGrid(9, 24, (r_lo, r_hi)), BallProbeGrid(9, 24, (r_lo / c, r_hi), a)
        indicator = indicator_field(Region((Ball(disk[:2], disk[2], closed=True),)), self.OMEGA)
        hill = radial_bump_field(bump[:2], bump[2], bump[3], self.OMEGA)
        for u in (indicator, hill, sum_field([(weights[0], hill), (weights[1], indicator)], self.OMEGA)):
            full, favorable = (estimate_K(u, self.OMEGA, grid, QuadratureSpec()) for grid in grids)
            assert full.sampled_means == favorable.sampled_means == 0 and full.probes_used > 0
            assert full.k_hat <= c**2 * favorable.k_hat * (1.0 + EXACT_MEAN_REL_TOL)
