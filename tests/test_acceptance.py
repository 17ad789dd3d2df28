"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and checking the stated tolerance and runtime cap."""

import json
import math
import time

import numpy as np

from qnslab.counterexample import (
    RestrictedProbeSpec,
    avoided_complement_set,
    build_domain,
    default_sequences,
    f1_sequences,
    certify_failure,
    certify_restricted,
    PiecewiseScaleRule,
)
from qnslab.fields import constant_field, harmonic_field, indicator_field
from qnslab.geometry import Ball, Similarity, lens_constant
from qnslab.qns_engine import (
    BallProbeGrid,
    ScaleFunction,
    SimilarityProbeGrid,
    ball_constant_from_image_constant,
    estimate_K,
    f_admissibility,
    generalized_test,
    image_constant_from_ball_constant,
    indicator_density,
    phi_functional,
)
from qnslab.quadrature import QuadratureSpec, mean_over_ball, sample_in_ball
from qnslab.radius_sets import (
    BlocksFamily,
    FullRayFamily,
    GeometricFamily,
    RadiusSet,
    SuperGeometricFamily,
    classify,
    gap_constant,
    porosity,
    rescale,
)
from qnslab.regions import MarkedSet, Rect, Region


def report(n, label, t0, cap):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {n}: PASS - {label} ({elapsed:.1f} s, cap {cap:.0f} s)")
    assert elapsed <= cap, f"criterion {n} exceeded its runtime cap"


def test_acceptance_1_lens_constant():
    t0 = time.time()
    # analytic value
    assert abs(lens_constant() - 0.3910022) <= 1e-7
    # Monte Carlo estimate, one million draws
    rng = np.random.Generator(np.random.PCG64(2024))
    pts = sample_in_ball((0.0, 0.0), 1.0, 1_000_000, rng)
    mc = float((((pts[:, 0] + 1.0) ** 2 + pts[:, 1] ** 2) < 1.0).mean())
    assert abs(mc - lens_constant()) <= 0.002
    # grid brute force over (center, radius) probes
    gamma = Region((Ball((0.0, 0.0), 1.0, closed=True),))
    omega = Region((Ball((0.0, 0.0), 2.0),))
    grid = BallProbeGrid(center_resolution=15, radii_per_center=6, radius_range=(0.1, 1.0))
    spec = QuadratureSpec(method="mc", target_rel_error=0.05, max_samples=30_000, seed=41)
    rep = indicator_density(gamma, omega, grid, spec)
    assert abs(rep.inf_ratio - 0.3910) <= 0.01
    report(1, f"lens constant analytic/MC/grid ({mc:.4f}, {rep.inf_ratio:.4f})", t0, 30.0)


def test_acceptance_2_counterexample_failure_side():
    t0 = time.time()
    dom = build_domain(default_sequences(3, 5))
    spec = QuadratureSpec(method="mc", target_rel_error=1e-3, max_samples=400_000, seed=57)
    rep = certify_failure(dom, spec)
    for row, m in zip(rep.rows, range(1, 6)):
        assert math.isclose(row.expected_mean, 1.0 / (4.0 * m * m), rel_tol=1e-9)
        assert abs(row.mean - row.expected_mean) <= 3.0 * max(row.stderr, 1e-12), f"m={m}"
    ks = rep.implied_k_bounds()
    assert all(x < y for x, y in zip(ks, ks[1:]))
    assert ks[-1] >= 100.0 - 1e-9
    report(2, f"failure-side means match 1/(4m^2), implied K -> {ks[-1]:.6f}", t0, 120.0)


def test_acceptance_3_counterexample_pass_side():
    t0 = time.time()
    dom = build_domain(default_sequences(3, 5))
    admissible = avoided_complement_set(dom)
    probes = RestrictedProbeSpec(
        offsets=(0.0, 0.2, 0.4, 0.6, 0.75, 0.85, 0.92, 0.97, 0.99, 1.0),
        angles=12,
        radii_per_component=19,
        samples_per_probe=4096,
    )
    rep = certify_restricted(dom, admissible, probes, QuadratureSpec(method="mc", seed=202), constant=2.5575)
    assert rep.probes >= 10_000, f"only {rep.probes} probes"
    assert rep.passed, f"{len(rep.violations)} probes broke the stderr-slack bound"
    assert rep.max_ratio >= 2.50, f"sharpness witness only reached {rep.max_ratio:.4f}"
    assert rep.dichotomy_passed
    report(3, f"{rep.probes} restricted probes under K=2.5575, max ratio {rep.max_ratio:.4f}", t0, 300.0)


def _independent_criteria(rs):
    asym = rs.asymptotics()
    c1 = asym.accumulates_at_zero and asym.accumulates_at_inf and not math.isinf(asym.gap_ratio_sup)
    if asym.accumulates_at_zero and asym.accumulates_at_inf and not math.isinf(asym.gap_ratio_sup):
        c2 = math.isfinite(0.5 * math.log(asym.gap_ratio_sup))
    else:
        c2 = False
    c3 = max(asym.i0, asym.i_inf) < math.inf
    return c1, c2, c3


def test_acceptance_4_favorable_equivalence_suite():
    t0 = time.time()
    families = {
        "geometric": (RadiusSet("family", (0.01, 100.0), family=GeometricFamily(1.0, 2.0)), 0.5),
        "blocks": (RadiusSet("family", (1e-6, 1e3), family=BlocksFamily(2.0, 0.25)), 0.5),
        "super_geometric": (RadiusSet("family", (math.exp(-16.0), 1.0), family=SuperGeometricFamily(2.0)), 1.0),
        "full_interval": (RadiusSet("family", (0.01, 100.0), family=FullRayFamily()), 0.0),
    }
    for name, (rs, p0_target) in families.items():
        c1, c2, c3 = _independent_criteria(rs)
        assert c1 == c2 == c3, f"{name}: criteria disagree"
        verdict = classify(rs)
        assert (verdict.favorable_all_open == "yes") == c1, name
        p = porosity(rs)
        assert abs(p.p0_window - p0_target) <= 0.02, f"{name}: window p0 {p.p0_window}"
        if p.p0_window < 1.0:
            assert abs(p.i0_window - p.p0_window / (1.0 - p.p0_window)) <= 1e-9, name
    report(4, "three all-open criteria agree; window p0 in {1/2, 1/2, 1, 0} +- 0.02", t0, 10.0)


def test_acceptance_5_rescale_invariance():
    t0 = time.time()
    families = [
        RadiusSet("family", (0.01, 100.0), family=GeometricFamily(1.0, 2.0)),
        RadiusSet("family", (1e-6, 1e3), family=BlocksFamily(2.0, 0.25)),
        RadiusSet("family", (math.exp(-16.0), 1.0), family=SuperGeometricFamily(2.0)),
        RadiusSet("family", (0.01, 100.0), family=FullRayFamily()),
    ]
    alphas = (0.5, 1.0, 3.0)
    betas = (0.5, 1.0, 2.0)
    for rs in families:
        base = classify(rs)
        for alpha in alphas:
            for beta in betas:
                image = classify(rescale(rs, alpha, beta))
                assert image.favorable_all_open == base.favorable_all_open
                assert image.favorable_bounded == base.favorable_bounded
    geo = families[0]
    c0 = gap_constant(geo).value
    for alpha in alphas:
        for beta in betas:
            c = gap_constant(rescale(geo, alpha, beta)).value
            assert abs(c - c0**beta) <= 1e-6 * c0**beta
    report(5, "verdicts invariant under 9 rescalings; geometric constant maps as C^beta", t0, 10.0)


def test_acceptance_6_constant_algebra():
    t0 = time.time()
    omega = Region((Ball((0.0, 0.0), 2.0),))
    support = Region((Ball((0.0, 0.0), 1.0, closed=True),))
    fields = {
        "constant": constant_field(1.0, omega),
        "indicator": indicator_field(support, omega),
    }
    marked_sets = {
        "unit-ball": MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0)),
        "unit-square": MarkedSet(Region((Rect((-0.5, -0.5), (0.5, 0.5)),)), (0.0, 0.0)),
        "two-ball": MarkedSet(Region((Ball((-0.5, 0.0), 1.0), Ball((0.5, 0.0), 1.0))), (0.0, 0.0)),
    }
    ball_grid = BallProbeGrid(center_resolution=13, radii_per_center=6, radius_range=(0.1, 0.999))
    spec = QuadratureSpec(method="mc", target_rel_error=0.1, max_samples=8192, seed=71)
    for fname, u in fields.items():
        k_ball = estimate_K(u, omega, ball_grid, spec)
        slack = 1.0 + 3.0 * (k_ball.stderr_max / max(k_ball.witness["mean"], 1e-9) if k_ball.witness else 0.0)
        for dname, d in marked_sets.items():
            k_cap = 0.999 / d.outer_radius
            sims = SimilarityProbeGrid(center_resolution=13, scales_per_center=6,
                                       scale_range=(k_cap / 10.0, k_cap), rotations=4,
                                       include_reflections=True)
            k_gen = generalized_test(u, omega, d, None, sims, spec)
            c_bound = image_constant_from_ball_constant(max(k_ball.k_hat, 1.0), d)
            assert k_gen.k_hat <= c_bound * slack, (
                f"{fname}/{dname}: forward bound {k_gen.k_hat:.3f} > {c_bound:.3f}"
            )
            k_back = ball_constant_from_image_constant(max(k_gen.k_hat, 1.0), d)
            assert k_ball.k_hat <= k_back * slack, (
                f"{fname}/{dname}: reverse bound {k_ball.k_hat:.3f} > {k_back:.3f}"
            )
    square = MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5))
    assert abs(image_constant_from_ball_constant(1.0, square) - 2.0) <= 2e-12
    assert abs(ball_constant_from_image_constant(2.0, square) - math.pi) <= 2e-12 * math.pi
    report(6, "forward/reverse constant algebra on 3 marked sets x 2 fields", t0, 180.0)


def test_acceptance_7_quadrature_oracle():
    t0 = time.time()
    omega = Region((Ball((0.0, 0.0), 2.0),))
    u = harmonic_field(2.0, 2.0, omega)  # 2 + (x^2 - y^2)/2 >= 0 on the disk
    rng = np.random.Generator(np.random.PCG64(88))
    for trial in range(100):
        center = rng.uniform(-1.0, 1.0, size=2)
        radius = float(rng.uniform(0.05, 2.0 - np.linalg.norm(center) - 1e-6))
        radius = min(radius, 0.9)
        spec = QuadratureSpec(method="stratified", target_rel_error=1e-3,
                              max_samples=200_000, seed=1000 + trial)
        res = mean_over_ball(u, Ball(tuple(center), radius), spec)
        target = 2.0 + (center[0] ** 2 - center[1] ** 2) / 2.0
        assert abs(res.mean - target) <= max(3.0 * res.stderr, 1e-6), f"ball {trial}"
    # constant fields are exact
    c = constant_field(3.25, omega)
    res = mean_over_ball(c, Ball((0.1, 0.2), 0.5), QuadratureSpec(seed=5))
    assert res.mean == 3.25 and res.stderr == 0.0
    # byte-identical reruns
    support = Region((Ball((0.0, 0.0), 1.0, closed=True),))
    chi = indicator_field(support, omega)
    spec = QuadratureSpec(method="stratified", target_rel_error=1e-3, max_samples=50_000, seed=99)
    a = mean_over_ball(chi, Ball((0.2, 0.1), 1.0), spec)
    b = mean_over_ball(chi, Ball((0.2, 0.1), 1.0), spec)
    assert json.dumps(a._asdict()) == json.dumps(b._asdict())
    report(7, "harmonic mean-value oracle on 100 balls; constants exact; reruns identical", t0, 60.0)


def test_acceptance_8_phi_homogeneity():
    t0 = time.time()
    square = Region((Rect((0.0, 0.0), (1.0, 1.0)),))
    rng = np.random.Generator(np.random.PCG64(12))
    for kind in ("perimeter", "boundary_h1", "isoperimetric_deficit"):
        base = phi_functional(kind, square, Similarity.identity(2))
        for _ in range(100):
            k = float(rng.uniform(0.01, 100.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            h = Similarity.rotation(theta, scale=k, translation=tuple(rng.normal(size=2)))
            value = phi_functional(kind, square, h)
            assert abs(value - k * base) <= 1e-9 * abs(k * base), kind
    deficit = phi_functional("isoperimetric_deficit", square, Similarity.identity(2))
    assert abs(deficit - math.sqrt(16.0 - 4.0 * math.pi)) <= 1e-9
    report(8, "phi(h) = scale * phi(id) to 1e-9 across kinds; square deficit exact", t0, 30.0)


def test_acceptance_9_f_admissibility():
    t0 = time.time()
    mu = lambda x: 0.5 * (x + 1.0 / x)  # noqa: E731
    periodic = ScaleFunction(lambda k: k * (1.5 + math.sin(2.0 * math.pi * mu(k))),
                             (1e-3, 1e3), grid=6000)
    rep = f_admissibility(periodic, t_grid=(0.5, 1.0, 1.25), eps_threshold=1.0)
    assert rep.admissible
    assert rep.c_window <= 2.5 + 1e-9
    entry = [e for e in rep.entries if e.t == 1.25][0]
    assert math.isfinite(entry.eps_star) and entry.eps_star <= 1.0

    seq = f1_sequences(3, 6)
    rule = PiecewiseScaleRule(1.0, seq.a, seq.indices().start)
    chain = ScaleFunction(rule, (seq.a[-1] / 4.0, 1.0), grid=5000)
    rep2 = f_admissibility(chain, t_grid=(0.25, 0.5), eps_threshold=1.0)
    assert not rep2.admissible
    for e in rep2.entries:
        assert e.growing
        assert e.log_gaps[0] > e.log_gaps[1] > e.log_gaps[2]
    report(9, f"periodic rule admissible (c={rep.c_window:.3f}); chain rule rejected "
              f"with growing log-gaps", t0, 30.0)
