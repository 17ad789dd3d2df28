"""Explicit planar domains on which restricted-radius mean tests mislead.

The construction strings together a rapidly shrinking chain of disks joined
by thin rectangles.  The indicator of the inner disks fails every uniform
ball-mean inequality (certified by measured means matching the analytic area
ratios, with the implied constants growing without bound), yet passes the
inequality at the fixed constant 1/lens_constant() for every probe whose
radius avoids the chain's gap intervals.

Geometry note: centers are sums of the chain scales, so for deep components
the offsets between a center and its own disks fall below double-precision
resolution of the absolute coordinates.  All certification therefore runs in
per-component local frames (coordinates relative to the component center),
where every length is well scaled.  The absolute-coordinate region is still
built for export and coarse membership queries.

Both pass sides decide each probe by the package's one verdict rule,
``MeanResult.bound``: K * mean plus a rounding or 3 * K * stderr slack,
applied to a whole probe array at once by ``Means.bound``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fields import Field, indicator_field
from .geometry import Ball, SimilarityArray, lens_constant
from .quadrature import EXACT_MEAN_REL_TOL  # noqa: F401  (the certificates' exact-mean slack, kept importable here)
from .quadrature import QuadratureSpec, _ball_means, _image_means, mean_over_ball
from .radius_sets import GapComplementFamily, RadiusSet
from .regions import MarkedSet, Rect, Region, region_to_json


class ConstructionError(ValueError):
    """A sequence constraint failed; the message names the inequality and index."""


@dataclass(frozen=True)
class SequencePair:
    """Gap sequences (a_m, b_m) driving the construction.

    variant "gap-chain": the full chain 0 < b_{m+1} < a_m < 2 a_m < b_m/N0 < b_m
    holds for every m, and b_m/a_m increases.
    variant "linear-gap": b_m = m * a_m with components kept only for
    m > N0; gaps (a_m, m a_m) are disjoint and decreasing.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    n0: int
    variant: str = "gap-chain"

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) != len(self.b):
            raise ConstructionError("sequences a and b must have equal length")
        if self.variant not in ("gap-chain", "linear-gap"):
            raise ConstructionError(f"unknown variant {self.variant!r}")
        validate = _validate_gap_chain if self.variant == "gap-chain" else _validate_linear_gap
        validate(self)

    @property
    def length(self) -> int:
        return len(self.a)

    def indices(self) -> range:
        """Component indices m (1-based for gap-chain, n0+1-based for linear-gap)."""
        if self.variant == "gap-chain":
            return range(1, self.length + 1)
        return range(self.n0 + 1, self.n0 + 1 + self.length)

    def a_of(self, m: int) -> float:
        return self.a[m - self.indices().start]

    def b_of(self, m: int) -> float:
        return self.b[m - self.indices().start]


def _validate_gap_chain(s: SequencePair) -> None:
    if s.n0 <= 2:
        raise ConstructionError(f"N0 must exceed 2, got {s.n0}")
    if s.length < 3:
        raise ConstructionError(f"need at least 3 components, got {s.length}")
    for i in range(s.length):
        m = i + 1
        a_m, b_m = s.a[i], s.b[i]
        if not b_m > 0:
            raise ConstructionError(f"'0 < b_m' fails at m={m}")
        if i + 1 < s.length and not s.b[i + 1] < a_m:
            raise ConstructionError(f"'b_(m+1) < a_m' fails at m={m}")
        if not a_m < 2 * a_m:
            raise ConstructionError(f"'a_m < 2 a_m' fails at m={m} (nonpositive a_m)")
        if not 2 * a_m < b_m / s.n0:
            raise ConstructionError(f"'2 a_m < b_m/N0' fails at m={m}")
        if not b_m / s.n0 < b_m:
            raise ConstructionError(f"'b_m/N0 < b_m' fails at m={m}")
    ratios = [b / a for a, b in zip(s.a, s.b)]
    for i in range(len(ratios) - 1):
        if not ratios[i + 1] > ratios[i]:
            raise ConstructionError(f"'b_m/a_m increasing' fails at m={i + 1}")


def _validate_linear_gap(s: SequencePair) -> None:
    if s.n0 <= 2:
        raise ConstructionError(f"N0 must exceed 2, got {s.n0}")
    if s.length < 3:
        raise ConstructionError(f"need at least 3 components, got {s.length}")
    start = s.n0 + 1
    for i in range(s.length):
        m = start + i
        a_m, b_m = s.a[i], s.b[i]
        if not a_m > 0:
            raise ConstructionError(f"'a_m > 0' fails at m={m}")
        if abs(b_m - m * a_m) > 1e-12 * b_m:
            raise ConstructionError(f"'b_m = m a_m' fails at m={m}")
        if i + 1 < s.length and not s.b[i + 1] < a_m:
            raise ConstructionError(f"gap disjointness 'b_(m+1) < a_m' fails at m={m}")


def default_sequences(n0: int = 3, length: int = 5) -> SequencePair:
    """b_m = 16**(-m^2) and a_m = b_m / (4 N0 m): comfortable chain margins."""
    if n0 < 3:
        raise ConstructionError(f"N0 must exceed 2, got {n0}")
    if length < 3:
        raise ConstructionError(f"need at least 3 components, got {length}")
    b = tuple(16.0 ** -(m * m) for m in range(1, length + 1))
    a = tuple(b[m - 1] / (4.0 * n0 * m) for m in range(1, length + 1))
    return SequencePair(a, b, n0, "gap-chain")


def f1_sequences(n0: int = 3, length: int = 5) -> SequencePair:
    """a_m = 16**(-m^2), b_m = m a_m, components m = N0+1 .. N0+length."""
    if n0 < 3:
        raise ConstructionError(f"N0 must exceed 2, got {n0}")
    start = n0 + 1
    a = tuple(16.0 ** -(m * m) for m in range(start, start + length))
    b = tuple(m * a[m - start] for m in range(start, start + length))
    return SequencePair(a, b, n0, "linear-gap")


@dataclass(frozen=True, eq=False)
class LocalComponent:
    """One chain component in coordinates centered at its disk center."""

    m: int
    center_offset: float  # exact center spacing to the previous component
    omega_radius: float  # radius of the component's domain disk
    inner_radius: float  # radius of the component's indicator disk
    omega_local: Region
    inner_local: Region
    field_local: Field


@dataclass(frozen=True, eq=False)
class CounterexampleDomain:
    sequences: SequencePair
    centers: tuple[float, ...]  # absolute x-coordinates of the disk centers
    omega: Region  # absolute-coordinate domain (export / coarse queries)
    inner_set: Region  # absolute-coordinate union of closed inner disks
    field: Field  # indicator of the inner set on the absolute domain
    components: tuple[LocalComponent, ...]
    avoided_gaps: tuple[tuple[float, float], ...]


def _omega_radius(s: SequencePair, m: int) -> float:
    return s.b_of(m) / s.n0


def _rect_half_height(s: SequencePair, m: int) -> Optional[float]:
    """Half-height of the rectangle bridging component m to m+1 (a_{m+1})."""
    if m + 1 in s.indices():
        return s.a_of(m + 1)
    return None


def build_domain(s: SequencePair) -> CounterexampleDomain:
    """Assemble the chain domain, its inner disks, and the indicator field.

    Disks sit at x-offsets 2*b_m from one another; bridging rectangles span
    consecutive centers with half-height a_{m+1}.  Local frames are exact;
    the absolute region is exported as-is (deep centers collapse in floats,
    which only affects the absolute picture, never the certification).
    """
    idx = list(s.indices())
    centers = []
    z = 0.0
    prev = None
    for m in idx:
        if prev is not None:
            z += 2.0 * s.b_of(prev)
        centers.append(z)
        prev = m

    abs_prims = []
    inner_prims = []
    for j, m in enumerate(idx):
        abs_prims.append(Ball((centers[j], 0.0), _omega_radius(s, m)))
        inner_prims.append(Ball((centers[j], 0.0), s.a_of(m), closed=True))
    for j, m in enumerate(idx[:-1]):
        hh = _rect_half_height(s, m)
        x0, x1 = centers[j], centers[j + 1]
        if x1 > x0:  # deep spacings can collapse in absolute floats; skip those
            abs_prims.append(Rect((x0, -hh), (x1, hh)))
    omega = Region(tuple(abs_prims))
    inner = Region(tuple(inner_prims))
    u = indicator_field(inner, omega)

    comps = []
    for j, m in enumerate(idx):
        r_omega = _omega_radius(s, m)
        prims = [Ball((0.0, 0.0), r_omega)]
        hh_right = _rect_half_height(s, m)
        if j + 1 < len(idx) and hh_right is not None:
            prims.append(Rect((0.0, -hh_right), (2.0 * s.b_of(m), hh_right)))
        if j > 0:
            m_prev = idx[j - 1]
            hh_left = _rect_half_height(s, m_prev)
            prims.append(Rect((-2.0 * s.b_of(m_prev), -hh_left), (0.0, hh_left)))
            prims.append(Ball((-2.0 * s.b_of(m_prev), 0.0), _omega_radius(s, m_prev)))
        if j + 1 < len(idx):
            prims.append(Ball((2.0 * s.b_of(m), 0.0), _omega_radius(s, idx[j + 1])))
        omega_local = Region(tuple(prims))
        inner_local = Region((Ball((0.0, 0.0), s.a_of(m), closed=True),))
        comps.append(
            LocalComponent(
                m,
                2.0 * s.b_of(idx[j - 1]) if j > 0 else 0.0,
                r_omega,
                s.a_of(m),
                omega_local,
                inner_local,
                indicator_field(inner_local, omega_local),
            )
        )

    gaps = tuple((s.a_of(m), s.b_of(m)) for m in idx)
    _check_disjointness(s)
    return CounterexampleDomain(s, tuple(centers), omega, inner, u, tuple(comps), gaps)


def _check_disjointness(s: SequencePair) -> None:
    """Center spacing must clear both disk radii with margin (exact sums)."""
    idx = list(s.indices())
    for j in range(len(idx) - 1):
        m, m2 = idx[j], idx[j + 1]
        spacing = 2.0 * s.b_of(m)
        margin = spacing - (_omega_radius(s, m) + _omega_radius(s, m2))
        if margin <= 0:
            raise ConstructionError(f"domain disks at m={m}, m={m2} are not disjoint")


def center_gap(dom: CounterexampleDomain, m1: int, m2: int) -> float:
    """|z_m1 - z_m2| computed from the scale sums (no absolute-float collapse)."""
    s = dom.sequences
    idx = list(s.indices())
    j1, j2 = idx.index(m1), idx.index(m2)
    if j1 > j2:
        j1, j2 = j2, j1
    return 2.0 * sum(s.b_of(idx[j]) for j in range(j1, j2))


def avoided_complement_set(dom: CounterexampleDomain, window: Optional[tuple[float, float]] = None) -> RadiusSet:
    """The admissible radius set: everything outside the avoided gaps.

    Captures (0, a_last], the blocks [b_{m+1}, a_m], and [b_first, ∞); its
    gap ratios diverge, so the set classifies as unfavorable.
    """
    if window is None:
        window = (dom.avoided_gaps[-1][0] / 4.0, 4.0 * dom.avoided_gaps[0][1])
    return RadiusSet("family", window, family=GapComplementFamily(dom.avoided_gaps))


# -- certification: the failure side ---------------------------------------------


@dataclass
class FailureRow:
    m: int
    a_m: float
    b_m: float
    center: float
    probe_radius: float
    mean: float
    stderr: float
    expected_mean: float
    implied_k: float
    consistent: bool


@dataclass
class FailureReport:
    rows: list
    passed: bool
    seed: int

    def implied_k_bounds(self) -> list[float]:
        return [r.implied_k for r in self.rows]

    def to_json(self) -> dict:
        return {
            "verdict": "unbounded-constant-confirmed" if self.passed else "inconsistent",
            "rows": [vars(r) for r in self.rows],
            "seed": self.seed,
        }


def certify_failure(dom: CounterexampleDomain, spec: QuadratureSpec = QuadratureSpec()) -> FailureReport:
    """Means of the indicator over the half-radius domain disks.

    For component m the mean over the disk of radius b_m/(2 N0) at the center
    equals the area ratio (2 N0 a_m / b_m)^2 (capped at 1 when the inner disk
    is the larger one, which happens for the first linear-gap components).
    The implied constants, the reciprocals of the analytic ratios, must grow.
    """
    s = dom.sequences
    rows = []
    ok = True
    for j, comp in enumerate(dom.components):
        r_probe = 0.5 * comp.omega_radius
        ratio = comp.inner_radius / r_probe
        expected = min(1.0, ratio * ratio)
        implied = max(1.0, (r_probe / comp.inner_radius) ** 2)
        res = mean_over_ball(comp.field_local, Ball((0.0, 0.0), r_probe), spec.child(f"failure:{comp.m}"))
        consistent = abs(res.mean - expected) <= 3.0 * max(res.stderr, 1e-12)
        ok = ok and consistent
        rows.append(FailureRow(comp.m, s.a[j], s.b[j], dom.centers[j], r_probe, res.mean, res.stderr,
                               expected, implied, consistent))
    ks = [r.implied_k for r in rows]
    # nondecreasing with genuine growth; early linear-gap components tie at 1
    # while the probe disk still sits inside the inner disk
    increasing = all(x <= y for x, y in zip(ks, ks[1:])) and ks[-1] > ks[0]
    return FailureReport(rows, ok and increasing, spec.seed)


# -- certification: the restricted pass side --------------------------------------


class _Labels:
    """The labels ``f"{prefix}:{i}"`` of a probe array's probes, i counted from
    ``first``, each formatted when read: only a probe that samples reads its
    label, to derive its seed."""

    __slots__ = ("prefix", "numbers")

    def __init__(self, prefix: str, first: int, n: int):
        self.prefix, self.numbers = prefix, range(first, first + n)

    def __len__(self) -> int:
        return len(self.numbers)

    def __getitem__(self, i: int) -> str:
        return f"{self.prefix}:{self.numbers[i]}"


# Probe radii below this fraction of a_m are not resolvable against the center offset.
_MIN_RADIUS_REL = 1e-12


@dataclass(frozen=True)
class RestrictedProbeSpec:
    offsets: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.75, 0.85, 0.92, 0.97, 0.99, 1.0)
    angles: int = 12
    radii_per_component: int = 19
    samples_per_probe: int = 4096

    def __post_init__(self):
        if self.samples_per_probe < 1000:
            raise ValueError("samples_per_probe must be at least 1000")


@dataclass
class RestrictedReport:
    passed: bool
    max_ratio: float
    sharpness_witness: Optional[dict]
    probes: int
    violations: list
    dichotomy_checked: int
    dichotomy_passed: bool
    constant: float
    seed: int
    exact_means: int  # probes whose mean is a closed form
    sampled_means: int

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "K": self.constant,
            "max_ratio": self.max_ratio,
            "sharpness_witness": self.sharpness_witness,
            "probes": self.probes,
            "violations": self.violations[:32],
            "dichotomy": {"checked": self.dichotomy_checked, "passed": self.dichotomy_passed},
            "quadrature": {"exact_means": self.exact_means, "sampled_means": self.sampled_means},
            "seed": self.seed,
        }


def _component_probe_radii(dom: CounterexampleDomain, comp: LocalComponent, probes: RestrictedProbeSpec) -> list[float]:
    """Radii from the avoided-gap complement at or below a_m, floored to stay
    resolvable relative to the component scale."""
    s = dom.sequences
    idx = list(s.indices())
    j = idx.index(comp.m)
    a_m = comp.inner_radius
    lo_block = s.b[j + 1] if j + 1 < len(idx) else a_m * 1e-6
    lo = max(lo_block, a_m * _MIN_RADIUS_REL)
    radii = list(np.geomspace(lo, a_m, probes.radii_per_component))
    radii[-1] = a_m  # exact top: the sharp configuration
    if lo_block >= a_m * _MIN_RADIUS_REL:
        radii[0] = lo_block
    return radii


def _certify_dichotomy(dom: CounterexampleDomain, comp: LocalComponent, r: float) -> bool:
    """Sequence-arithmetic proof that a probe with radius >= r cannot fit.

    The point straight above the probe center at height ~r clears every domain
    disk and rectangle: components at or past m are smaller than b_m - a_m,
    and earlier components are separated horizontally by at least 2*b_j.
    Every test is free of r or reads q_height <= X, with q_height = r - a_m
    growing in r, so a pass at r = b_m proves the whole ray [b_m, ∞).
    """
    s = dom.sequences
    idx = list(s.indices())
    m = comp.m
    a_m = comp.inner_radius
    q_height = r - a_m  # worst case over probe centers in the inner disk
    if q_height <= 0:
        return False
    for j, mj in enumerate(idx):
        if mj >= m:
            if q_height <= _omega_radius(s, mj):
                return False
        else:
            horiz = center_gap(dom, mj, m) - a_m
            if horiz <= _omega_radius(s, mj):
                return False
        hh = _rect_half_height(s, mj)
        if hh is not None and mj >= m and q_height <= hh:
            return False
        if hh is not None and mj < m:
            horiz_rect = center_gap(dom, idx[min(j + 1, len(idx) - 1)], m) - a_m
            if mj + 1 != m and horiz_rect <= 0:
                return False
            if mj + 1 == m and q_height <= hh:
                return False
    return True


def certify_restricted(
    dom: CounterexampleDomain,
    admissible: RadiusSet,
    probes: RestrictedProbeSpec = RestrictedProbeSpec(),
    spec: QuadratureSpec = QuadratureSpec(),
    constant: Optional[float] = None,
) -> RestrictedReport:
    """Verify the mean inequality at K = 1/lens_constant() for admissible probes.

    Probes take centers in the inner disks and radii from the admissible set;
    each must satisfy 1 <= ``mean.bound(K)``.  Probe means use ``spec.method``
    and run as one probe array per component, each probe on its own label.
    Under the default ``"auto"`` they are the exact lens-area ratios, and the
    sharp probes (center on the inner boundary, radius a_m) reach the ratio
    1/lens_constant() itself.  Sampled means (``"mc"`` or ``"stratified"``)
    draw at most ``probes.samples_per_probe`` points each.  ``max_ratio`` is
    the largest 1/mean, at the first probe that attains it.
    Radii in [b_m, ∞) must be rejected by the geometry (the containment
    dichotomy): every such probe is certified non-containable by sequence
    arithmetic, one ``_certify_dichotomy`` call at b_m per component, which
    covers the whole ray.  ``constant`` overrides the default K.
    """
    for g_lo, g_hi in dom.avoided_gaps:
        if admissible.intersects_open_interval(g_lo, g_hi):
            raise ConstructionError(
                f"admissible radius set intersects the avoided gap ({g_lo!r}, {g_hi!r})"
            )
    k_const = 1.0 / lens_constant() if constant is None else float(constant)
    max_ratio, witness, violations, n_probes, n_exact, n_sampled = -math.inf, None, [], 0, 0, 0
    dichotomy_ok = True
    probe_spec = replace(spec, target_rel_error=0.1, max_samples=probes.samples_per_probe)
    for comp in dom.components:
        a_m = comp.inner_radius
        radii = _component_probe_radii(dom, comp, probes)
        thetas = [2.0 * math.pi * t / probes.angles for t in range(probes.angles)]
        centers = [(0.0, 0.0)] + [(rho * a_m * math.cos(theta), rho * a_m * math.sin(theta))
                                  for rho in probes.offsets if rho != 0.0 for theta in thetas]
        # every (center, radius) probe, center-major
        grid_c, grid_r = np.repeat(np.asarray(centers), len(radii), axis=0), np.tile(radii, len(centers))
        means = _ball_means(comp.field_local, grid_c, grid_r, probe_spec,
                            _Labels("restricted", n_probes + 1, len(grid_r))).admit_all()
        n_probes += len(grid_r)
        exact, sampled = means.counts()
        n_exact, n_sampled = n_exact + exact, n_sampled + sampled

        def row(i):
            return {"m": comp.m, "center": grid_c[i].tolist(), "radius": float(grid_r[i]),
                    "mean": float(means.mean[i]), "stderr": float(means.stderr[i])}

        violations += [row(i) for i in np.flatnonzero(1.0 > means.bound(k_const)).tolist()]
        ratios = np.divide(1.0, means.mean, out=np.full(len(grid_r), -math.inf), where=means.mean > 0.0)
        best = int(np.argmax(ratios))  # the first of ties; an earlier component keeps a tie
        if ratios[best] > max_ratio:
            max_ratio = float(ratios[best])
            witness = {**row(best), "ratio": max_ratio}
        # the containment dichotomy: admissible radii >= b_m never fit
        dichotomy_ok &= _certify_dichotomy(dom, comp, dom.sequences.b_of(comp.m))
    return RestrictedReport(not violations and dichotomy_ok, max_ratio, witness, n_probes, violations,
                            len(dom.components), dichotomy_ok, k_const, spec.seed, n_exact, n_sampled)


# -- the scale-function variant ----------------------------------------------------


@dataclass(frozen=True)
class PiecewiseScaleRule:
    """f(k) = k/m inside the gap (a_m, m a_m), and c*k elsewhere."""

    c: float
    a: tuple[float, ...]
    start_index: int  # the m of a[0]

    def __post_init__(self):
        if self.c < 1:
            raise ConstructionError("the linear bound constant c must be >= 1")

    def gaps(self) -> list[tuple[int, float, float]]:
        return [(self.start_index + i, a, (self.start_index + i) * a) for i, a in enumerate(self.a)]

    def __call__(self, k: float) -> float:
        for m, lo, hi in self.gaps():
            if lo < k < hi:
                return k / m
        return self.c * k


def build_f1_counterexample(
    s: SequencePair,
    d: MarkedSet,
    c: float = 1.0,
) -> tuple[CounterexampleDomain, Field, PiecewiseScaleRule]:
    """The scale-function variant: drop the first N0 components, set b = m*a.

    N0 is the sequences' own; it must satisfy N0 >= 2 / inner_radius(D) so
    the large-scale probe case lands back inside the gap where the rule
    takes the small branch.
    """
    if s.variant != "linear-gap":
        raise ConstructionError("the scale-function variant needs linear-gap sequences (b_m = m a_m)")
    need = 2.0 / d.inner_radius
    if s.n0 < need:
        raise ConstructionError(
            f"N0={s.n0} too small for this marked set: need N0 >= 2/r_D = {need:.3f}"
        )
    dom = build_domain(s)
    rule = PiecewiseScaleRule(c, s.a, s.indices().start)
    return dom, dom.field, rule


@dataclass
class F1Report:
    failure: FailureReport
    scale_checks: int
    scale_violations: list
    scale_bound_checked: bool
    constant: float
    passed: bool
    seed: int
    exact_means: int  # scale-side image means that are a closed form
    sampled_means: int

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "failure_side": self.failure.to_json(),
            "scale_side": {
                "checks": self.scale_checks,
                "violations": self.scale_violations[:32],
                "scale_radius_bound_checked": self.scale_bound_checked,
                "K": self.constant,
                "quadrature": {"exact_means": self.exact_means, "sampled_means": self.sampled_means},
            },
            "seed": self.seed,
        }


def certify_f1(
    dom: CounterexampleDomain,
    rule: PiecewiseScaleRule,
    d: MarkedSet,
    spec: QuadratureSpec = QuadratureSpec(),
    scales_per_component: int = 8,
    centers_per_component: int = 5,
) -> F1Report:
    """Certify both sides of the scale-function variant.

    Failure side: component means as in ``certify_failure``.  Pass side: for
    sampled admissible similarities h anchored at inner-set points, verify
    f(scale)^2 <= ``mean.bound(K)`` * m(h(D)) (the image integral with its
    slack) at K = c^2 / (pi * min(r_D,1)^2 * lens_constant()), and confirm
    the scale bound scale * r_D <= 2 m a_m / N0.
    """
    s = dom.sequences
    failure = certify_failure(dom, spec)
    k_const = rule.c**2 / (math.pi * min(d.inner_radius, 1.0) ** 2 * lens_constant())
    p_d = np.asarray(d.marked_point)
    probe_spec = replace(spec, method="mc", target_rel_error=0.1, max_samples=4096)
    violations = []
    bound_ok = True
    idx = n_exact = n_sampled = 0
    m_d = d.measure
    for comp in dom.components:
        a_m = comp.inner_radius
        k_cap = 0.98 * (comp.omega_radius - a_m) / d.outer_radius
        if k_cap <= 0:
            continue
        scales = np.geomspace(k_cap * 1e-4, k_cap, scales_per_component)
        offsets = np.linspace(0.0, a_m, centers_per_component)
        # every (offset, scale) probe, offset-major: h(p_D) = (offset, 0) for the translation x - k * p_D
        ks = np.tile(scales, len(offsets))
        xs = np.stack([np.repeat(offsets, len(scales)), np.zeros(len(ks))], axis=1)
        sims = SimilarityArray(ks, np.broadcast_to(np.eye(2), (len(ks), 2, 2)), xs - ks[:, None] * p_d)
        means = _image_means(comp.field_local, d, sims, probe_spec, _Labels("f1", idx + 1, len(ks))).admit_all()
        idx += len(ks)
        exact, sampled = means.counts()
        n_exact, n_sampled = n_exact + exact, n_sampled + sampled
        bound_ok = bound_ok and not (ks * d.inner_radius > 2.0 * comp.m * a_m / s.n0).any()
        # k**2 and rule(k)**2 per probe in Python, as one probe at a time computes them
        k2, lhs = zip(*[(k**2, rule(k) ** 2) for k in ks.tolist()])
        for i in np.flatnonzero(np.asarray(lhs) > means.bound(k_const) * k2 * m_d).tolist():
            violations.append({"m": comp.m, "scale": float(ks[i]), "lhs": lhs[i],
                               "integral": float(means.mean[i]) * k2[i] * m_d,
                               "stderr": float(means.stderr[i]) * k2[i] * m_d})
    return F1Report(failure, idx, violations, bound_ok, k_const,
                    failure.passed and not violations and bound_ok, spec.seed, n_exact, n_sampled)


# -- export ------------------------------------------------------------------------


def export_domain_json(dom: CounterexampleDomain, path) -> None:
    """Domain, inner set, center list and exact sequences as one JSON file."""
    s = dom.sequences
    doc = {
        "variant": s.variant,
        "n0": s.n0,
        "omega": region_to_json(dom.omega),
        "inner_set": region_to_json(dom.inner_set),
        "centers": [repr(c) for c in dom.centers],
        "sequences": {
            "indices": list(s.indices()),
            "a": [repr(v) for v in s.a],
            "b": [repr(v) for v in s.b],
        },
        "avoided_gaps": [[repr(a), repr(b)] for a, b in dom.avoided_gaps],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def export_failure_csv(report: FailureReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "a_m", "b_m", "z_m", "probe_radius", "mean", "stderr",
                    "ratio_analytic", "implied_K", "consistent"])
        for r in report.rows:
            w.writerow([r.m, repr(r.a_m), repr(r.b_m), repr(r.center), repr(r.probe_radius),
                        repr(r.mean), repr(r.stderr), repr(r.expected_mean), repr(r.implied_k),
                        r.consistent])
