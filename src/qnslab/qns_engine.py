"""Mean-value inequality test battery.

Estimates the best multiplicative constant K for the ball-mean inequality
``u(x) <= K * mean_B u`` over finite probe grids (a certified lower bound for
the true constant; pass verdicts carry standard-error slack), runs the
analogous test over similarity images of a marked set, converts between the
ball and image constants, measures indicator densities, checks scale-function
admissibility, and evaluates scale-homogeneous shape functionals.

Each probe battery (``estimate_K``/``check_K``, ``indicator_density``,
``generalized_test``) runs every probe on the battery's spec seed, as one
probe array that draws each chunk's base sample once (common random numbers,
see the ``quadrature`` module docstring).  u(x) is evaluated once per center that
admits a probe.  A ball or an image h(D) that leaves the domain is skipped
and counted; 2-D containment is exact (see ``regions``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

log = logging.getLogger(__name__)

from .fields import DomainError, Field
from .geometry import Ball, Similarity, SimilarityArray, unit_ball_volume
from .quadrature import ContainmentError, MeanResult, QuadratureSpec, _ball_means, _image_means
from .radius_sets import RadiusSet, log_eps_net
from .regions import MarkedSet, Region, _pieces

DEFAULT_PROBE_SPEC = QuadratureSpec(method="auto", target_rel_error=0.1, max_samples=8192)


# -- ball probe grids ----------------------------------------------------------


@dataclass(frozen=True)
class BallProbeGrid:
    """Tensor grid of centers times log-spaced radii.

    Radii may be restricted to a radius set; probes whose closed ball leaves
    the domain are skipped and counted, not fatal.
    """

    center_resolution: int = 9
    radii_per_center: int = 8
    radius_range: Optional[tuple[float, float]] = None
    radius_set: Optional[RadiusSet] = None

    def __post_init__(self):
        if self.center_resolution < 1 or self.radii_per_center < 1:
            raise ValueError("a probe grid needs at least one center per axis and one radius per center")
        if self.radius_range is not None:
            r_lo, r_hi = self.radius_range
            if not 0 < r_lo <= r_hi:
                raise ValueError("invalid probe radius range")

    def centers(self, inside: Region) -> np.ndarray:
        lo, hi = inside.bbox
        margin = 1e-9 * float(np.max(hi - lo))
        axes = [np.linspace(lo[k] + margin, hi[k] - margin, self.center_resolution) for k in range(inside.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return pts[inside.contains_many(pts).astype(bool)]

    def radii(self, omega: Region) -> list[float]:
        if self.radius_range is not None:
            r_lo, r_hi = self.radius_range
        else:
            lo, hi = omega.bbox
            r_hi = 0.49 * float(np.min(hi - lo))
            r_lo = r_hi / 64.0
        if self.radius_set is None:
            return list(np.geomspace(r_lo, r_hi, self.radii_per_center))
        out: list[float] = []
        if self.radius_set.form == "elements":
            out = [e for e in self.radius_set.elements if r_lo <= e <= r_hi]
        else:
            if self.radius_set.form == "intervals":
                ivs = self.radius_set.intervals
            else:
                ivs = self.radius_set.family.intervals_between(r_lo, r_hi)
            for a, b in ivs:
                a2, b2 = max(a, r_lo), min(b, r_hi)
                if a2 > b2:
                    continue
                if a2 == b2:
                    out.append(a2)
                else:
                    out.extend(np.geomspace(a2, b2, max(2, self.radii_per_center // 2)))
        return sorted(set(out))


@dataclass
class KEstimate:
    """Supremum of u(x) / (ball mean of u) over a finite probe grid."""

    k_hat: float
    witness: Optional[dict]
    probes_used: int
    probes_skipped: int
    stderr_max: float
    vacuous: bool
    seed: int
    workers: int
    method: str
    exact_means: int  # admitted probes whose mean is a closed form
    sampled_means: int
    note: str = "K_hat is a certified lower bound for the true constant; pass verdicts use stderr slack"

    def to_json(self) -> dict:
        return {
            "verdict": "vacuously-true" if self.vacuous else "estimated",
            "K_hat": self.k_hat,
            "witness": self.witness,
            "probes": {"used": self.probes_used, "skipped": self.probes_skipped},
            "seed": self.seed,
            "worker_count": self.workers,
            "quadrature": {"method": self.method, "stderr_max": self.stderr_max,
                           "exact_means": self.exact_means, "sampled_means": self.sampled_means},
            "note": self.note,
        }


class BallProbe(NamedTuple):
    """One admitted ball probe: its index in probe order, the ball, u(center) and the mean."""

    idx: int
    center: tuple[float, ...]
    radius: float
    value: float
    mean: MeanResult


def _ball_probes(u: Field, centers: np.ndarray, radii: list[float], spec: QuadratureSpec) -> tuple[list, int]:
    """Run every (center, radius) probe of a ball battery as one ``_ball_means`` array.

    Returns the admitted probes in probe order and the count of probes whose
    ball left the domain.  u is evaluated at every center of the battery in
    one call.
    """
    outcomes = _ball_means(u, np.repeat(centers, len(radii), axis=0), np.tile(radii, len(centers)), spec)
    values = u.values(centers).tolist()
    pairs = [(c, v, float(r)) for c, v in zip(map(tuple, centers.tolist()), values) for r in radii]
    admitted = []
    for idx, ((c, v, r), res) in enumerate(zip(pairs, outcomes), start=1):
        if isinstance(res, ContainmentError):
            log.debug("probe %d skipped: %s", idx, res)
            continue
        admitted.append(BallProbe(idx, c, r, v, res))
    return admitted, len(pairs) - len(admitted)


def estimate_K(
    u: Field,
    omega: Region,
    probes: BallProbeGrid = BallProbeGrid(),
    spec: QuadratureSpec = DEFAULT_PROBE_SPEC,
) -> KEstimate:
    """Largest observed ratio u(x) / mean over the probe grid.

    Probes with u(x) = 0 = mean are vacuous and skipped.  The reduction is
    order-independent: ties in the ratio break on the probe index.
    """
    if omega.dim != u.dim:
        raise ValueError("field and region dimensions differ")
    best = (-math.inf, -1)
    witness = None
    used = 0
    stderr_max = 0.0
    admitted, skipped = _ball_probes(u, probes.centers(omega), probes.radii(omega), spec)
    provenance = _provenance([p.mean for p in admitted])
    for idx, c, r, val, res in admitted:
        if res.mean <= 0.0:
            if val <= 0.0:
                continue  # 0/0 probe: the inequality is vacuous there
            ratio = math.inf
        else:
            ratio = val / res.mean
        used += 1
        stderr_max = max(stderr_max, res.stderr)
        if (ratio, -idx) > (best[0], -best[1]):
            best = (ratio, idx)
            witness = {"center": list(c), "radius": r, "value": val, "mean": res.mean, "stderr": res.stderr}
    if used == 0:
        return KEstimate(0.0, None, 0, skipped, 0.0, True, spec.seed, spec.workers, spec.method, *provenance)
    return KEstimate(best[0], witness, used, skipped, stderr_max, False, spec.seed, spec.workers, spec.method,
                     *provenance)


def _provenance(means: list) -> tuple[int, int]:
    """How many of the means are closed forms, and how many were sampled."""
    exact = sum(res.method == "exact" for res in means)
    return exact, len(means) - exact


@dataclass
class CheckReport:
    passed: bool
    k: float
    failures: list
    probes_used: int
    probes_skipped: int
    stderr_max: float
    seed: int
    workers: int
    method: str
    exact_means: int
    sampled_means: int

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "K": self.k,
            "failures": self.failures,
            "probes": {"used": self.probes_used, "skipped": self.probes_skipped},
            "seed": self.seed,
            "worker_count": self.workers,
            "quadrature": {"method": self.method, "stderr_max": self.stderr_max,
                           "exact_means": self.exact_means, "sampled_means": self.sampled_means},
        }


def check_K(
    u: Field,
    omega: Region,
    k: float,
    probes: BallProbeGrid = BallProbeGrid(),
    spec: QuadratureSpec = DEFAULT_PROBE_SPEC,
) -> CheckReport:
    """Verify u(x) <= K * mean + 3 * stderr at every admissible probe."""
    if k < 1:
        raise ValueError("the mean-inequality constant must satisfy K >= 1")
    failures = []
    used = 0
    stderr_max = 0.0
    admitted, skipped = _ball_probes(u, probes.centers(omega), probes.radii(omega), spec)
    for idx, c, r, val, res in admitted:
        used += 1
        stderr_max = max(stderr_max, res.stderr)
        if val > k * res.mean + 3.0 * res.stderr:
            failures.append(
                {"center": list(c), "radius": r, "value": val, "mean": res.mean,
                 "stderr": res.stderr, "ratio": (val / res.mean if res.mean > 0 else math.inf)}
            )
    return CheckReport(not failures, k, failures, used, skipped, stderr_max, spec.seed, spec.workers, spec.method,
                       *_provenance([p.mean for p in admitted]))


@dataclass
class DensityReport:
    inf_ratio: float
    witness: Optional[dict]
    k: float
    compatible: bool
    probes_used: int
    probes_skipped: int
    seed: int

    def to_json(self) -> dict:
        return {
            "verdict": "ok" if self.compatible else "not QNS-compatible",
            "inf_ratio": self.inf_ratio,
            "K": self.k if self.compatible else "inf",
            "witness": self.witness,
            "probes": {"used": self.probes_used, "skipped": self.probes_skipped},
            "seed": self.seed,
        }


def indicator_density(
    gamma: Region,
    omega: Region,
    probes: BallProbeGrid = BallProbeGrid(),
    spec: QuadratureSpec = DEFAULT_PROBE_SPEC,
) -> DensityReport:
    """Infimum over probes of m(Γ ∩ B) / m(B), for probe centers in Γ.

    The reciprocal of a positive infimum is the indicator's mean-inequality
    constant; an infimum at 0 (within slack) reports the pair as not
    QNS-compatible.
    """
    from .fields import indicator_field

    u = indicator_field(gamma, omega)
    worst = (math.inf, -1)
    witness = None
    used = 0
    admitted, skipped = _ball_probes(u, probes.centers(gamma), probes.radii(omega), spec)
    for idx, c, r, _, res in admitted:
        used += 1
        if (res.mean, idx) < (worst[0], worst[1]):
            worst = (res.mean, idx)
            witness = {"center": list(c), "radius": r, "mean": res.mean, "stderr": res.stderr}
    inf_ratio = worst[0] if used else math.inf
    tol = 3.0 * (witness["stderr"] if witness else 0.0)
    compatible = used > 0 and inf_ratio > tol
    return DensityReport(
        inf_ratio, witness, (1.0 / inf_ratio if inf_ratio > 0 else math.inf),
        compatible, used, skipped, spec.seed,
    )


# -- ball/image constant conversion ---------------------------------------------


def image_constant_from_ball_constant(k: float, d: MarkedSet) -> float:
    """The image-mean constant implied by a ball-mean constant: K * (R/r)^n."""
    if k < 1:
        raise ValueError("need K >= 1")
    return k * (d.outer_radius / d.inner_radius) ** d.dim


def ball_constant_from_image_constant(c: float, d: MarkedSet) -> float:
    """The ball-mean constant implied by an image-mean constant: C * v_n R^n / m(D)."""
    if c < 1:
        raise ValueError("need C >= 1")
    return c * unit_ball_volume(d.dim) * d.outer_radius**d.dim / d.measure


# -- the generalized (similarity image) test -------------------------------------


@dataclass(frozen=True)
class ScaleFunction:
    """A positive function of the similarity scale, sampled on a log grid."""

    fn: Callable[[float], float]
    window: tuple[float, float]
    grid: int = 2048

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.geomspace(self.window[0], self.window[1], self.grid)
        vals = np.array([self.fn(float(k)) for k in ks])
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("scale function must be positive and finite on the window")
        return ks, vals

    def c_bound(self) -> float:
        ks, vals = self.sample()
        return float(np.max(vals / ks))


@dataclass(frozen=True)
class SimilarityProbeGrid:
    """Probes h = (scale, rotation/reflection, translation) with h(p_D) = x."""

    center_resolution: int = 7
    scales_per_center: int = 6
    scale_range: Optional[tuple[float, float]] = None
    rotations: int = 4
    include_reflections: bool = True

    def orthogonal_parts(self, dim: int) -> list[np.ndarray]:
        if dim != 2:
            raise ValueError("similarity probes are 2-D")
        parts = []
        for i in range(self.rotations):
            theta = 2.0 * math.pi * i / self.rotations
            c, s = math.cos(theta), math.sin(theta)
            parts.append(np.array([[c, -s], [s, c]]))
        if self.include_reflections:
            parts.append(np.array([[1.0, 0.0], [0.0, -1.0]]))
        return parts

    def scales(self, omega: Region, d: MarkedSet) -> np.ndarray:
        if self.scale_range is not None:
            k_lo, k_hi = self.scale_range
        else:
            lo, hi = omega.bbox
            k_hi = 0.49 * float(np.min(hi - lo)) / d.outer_radius
            k_lo = k_hi / 64.0
        return np.geomspace(k_lo, k_hi, self.scales_per_center)


def generalized_test(
    u: Field,
    omega: Region,
    d: MarkedSet,
    f: Optional[ScaleFunction],
    sims: SimilarityProbeGrid = SimilarityProbeGrid(),
    spec: QuadratureSpec = DEFAULT_PROBE_SPEC,
) -> KEstimate:
    """Supremum of u(x) * norm(h) / integral of u over h(D).

    With ``f`` given the normalizer is f(scale)^n; otherwise it is the measure
    of h(D) (so the ratio is u(x) over the image mean).  Inadmissible
    similarities (image leaving the domain) are skipped; an empty admissible
    set reports a vacuous pass.
    """
    if not (u.dim == omega.dim == d.dim == 2):
        raise ValueError("the generalized test is 2-D")
    if f is not None:
        f.sample()  # rejects nonpositive scale functions up front
    p_d = np.asarray(d.marked_point)
    grid = BallProbeGrid(center_resolution=sims.center_resolution)
    centers = grid.centers(omega)
    scales = sims.scales(omega, d)
    parts = [Similarity(1.0, T, (0.0, 0.0)).orthogonal for T in sims.orthogonal_parts(2)]  # checked once each
    m_d = d.measure
    # every center's probes, center-major and then scale-major: (x, k, T) for x in
    # centers for k in scales for T in parts
    probe_scale = np.repeat(scales, len(parts))
    probe_part = np.tile(np.asarray(parts), (len(centers) * len(scales), 1, 1))
    probe_part.setflags(write=False)
    # k * (T @ p_D), so that h(p_D) = x for the translation x - k * (T @ p_D)
    probe_offset = probe_scale[:, None] * np.tile(np.asarray([T @ p_d for T in parts]), (len(scales), 1))
    every = SimilarityArray(np.tile(probe_scale, len(centers)), probe_part,
                            (centers[:, None, :] - probe_offset).reshape(-1, 2))
    outcomes = _image_means(u, d, every, spec)
    provenance = _provenance([res for res in outcomes if not isinstance(res, DomainError)])
    best = (-math.inf, -1)
    witness = None
    used = 0
    skipped = 0
    stderr_max = 0.0
    idx = 0
    for c in centers:
        x = np.asarray(c, dtype=np.float64)
        val = None
        for k in probe_scale.tolist():
            res = outcomes[idx]
            idx += 1
            if isinstance(res, DomainError):
                skipped += 1
                continue
            if val is None:
                val = float(u.evaluate_many(x[None, :], check_domain=False)[0])
            integral = res.mean * (k**2) * m_d
            if f is None:
                norm = (k**2) * m_d  # == m(h(D))
            else:
                norm = f.fn(k) ** 2
            if integral <= 0.0:
                if val <= 0.0:
                    continue
                ratio = math.inf
            else:
                ratio = val * norm / integral
            used += 1
            stderr_max = max(stderr_max, res.stderr)
            if (ratio, -idx) > (best[0], -best[1]):
                best = (ratio, idx)
                witness = {
                    "center": [float(v) for v in x],
                    "scale": k,
                    "mean": res.mean,
                    "stderr": res.stderr,
                }
    if used == 0:
        return KEstimate(0.0, None, 0, skipped, 0.0, True, spec.seed, spec.workers, spec.method, *provenance)
    return KEstimate(best[0], witness, used, skipped, stderr_max, False, spec.seed, spec.workers, spec.method,
                     *provenance)


# -- scale-function admissibility -------------------------------------------------


@dataclass
class ThresholdSetReport:
    t: float
    intervals: list
    eps_star: float
    log_gaps: list
    growing: bool
    admissible_at_t: bool


@dataclass
class FAdmissibilityReport:
    c_window: float
    entries: list
    admissible: bool
    window: tuple[float, float]
    eps_threshold: float

    def to_json(self) -> dict:
        def enc(x):
            return "inf" if isinstance(x, float) and math.isinf(x) else x

        return {
            "verdict": "admissible on window" if self.admissible else "not admissible",
            "c_window": self.c_window,
            "window": list(self.window),
            "eps_threshold": self.eps_threshold,
            "thresholds": [
                {
                    "t": e.t,
                    "intervals": e.intervals,
                    "eps_star": enc(e.eps_star),
                    "log_gaps": e.log_gaps,
                    "growing": e.growing,
                    "admissible_at_t": e.admissible_at_t,
                }
                for e in self.entries
            ],
        }


def _threshold_set_intervals(f: ScaleFunction, t: float, refine: int = 40) -> list[tuple[float, float]]:
    """Intervals of {k in window : f(k) >= t*k}, endpoints refined by bisection."""
    ks, vals = f.sample()
    mask = vals >= t * ks
    out = []
    i = 0
    n = len(ks)

    def g(k: float) -> float:
        return f.fn(k) - t * k

    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and mask[j + 1]:
            j += 1
        lo = ks[i]
        hi = ks[j]
        if i > 0:
            a, b = ks[i - 1], ks[i]
            for _ in range(refine):
                mid = math.sqrt(a * b)
                if g(mid) >= 0:
                    b = mid
                else:
                    a = mid
            lo = b
        if j + 1 < n:
            a, b = ks[j], ks[j + 1]
            for _ in range(refine):
                mid = math.sqrt(a * b)
                if g(mid) >= 0:
                    a = mid
                else:
                    b = mid
            hi = a
        if hi > lo:
            out.append((float(lo), float(hi)))
        i = j + 1
    return out


def f_admissibility(
    f: ScaleFunction,
    t_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25),
    eps_threshold: float = 1.0,
) -> FAdmissibilityReport:
    """Window admissibility of a scale function.

    Reports the minimal linear bound c on the window, and for each threshold t
    the set {f >= t*k} with the ε-net radius of its log image.  Admissible on
    the window when some threshold yields a small ε-net radius without the
    low-end log-gaps growing (growth toward the window's lower end is the
    divergence signature, reported as such).
    """
    c_window = f.c_bound()
    entries = []
    admissible = False
    for t in t_grid:
        ivs = _threshold_set_intervals(f, t)
        if not ivs:
            entries.append(ThresholdSetReport(t, [], math.inf, [], False, False))
            continue
        a_t = RadiusSet("intervals", f.window, intervals=tuple(ivs))
        eps = log_eps_net(a_t).eps_star
        gaps = []
        for g in a_t.window_gaps():
            if g["headless"]:
                continue
            gaps.append(float(math.log(min(g["hi"], f.window[1]) / g["lo"])))
        growing = len(gaps) >= 3 and gaps[0] == max(gaps) and gaps[0] > gaps[1] > gaps[2]
        ok = (eps <= eps_threshold) and not growing
        admissible = admissible or ok
        entries.append(
            ThresholdSetReport(t, [[a, b] for a, b in ivs[:64]], eps, gaps[:64], growing, ok)
        )
    return FAdmissibilityReport(c_window, entries, admissible, f.window, eps_threshold)


# -- scale-homogeneous shape functionals ------------------------------------------


def _boundary_length(d: Region) -> float:
    """The boundary length of a single 2-D primitive, summed over its boundary
    pieces (a composite is refused: its pieces keep shared edges)."""
    if len(d.primitives) != 1 or d.dim != 2:
        raise ValueError("shape functionals take a single-primitive 2-D region")
    arcs, segs = _pieces(d)
    return float((arcs[:, 2] * arcs[:, 4]).sum() + np.hypot(*(segs[:, 2:] - segs[:, :2]).T).sum())


PHI_KINDS = ("boundary_h1", "perimeter", "isoperimetric_deficit")


def phi_functional(kind: str, d: Region, h: Similarity) -> float:
    """Scale-homogeneous functionals of the image h(D) for disk/polygon D.

    boundary_h1 and perimeter are the boundary length of h(D); the
    isoperimetric deficit is sqrt(L^2 - 4*pi*area), positive exactly for
    non-disks, so a disk input is rejected for that kind.
    """
    if kind not in PHI_KINDS:
        raise ValueError(f"unknown functional kind {kind!r}")
    length = _boundary_length(d)
    if kind in ("boundary_h1", "perimeter"):
        return h.scale * length
    if isinstance(d.primitives[0], Ball):
        raise ValueError("the isoperimetric deficit of a disk is 0; the functional must stay positive")
    area = d.measure()
    return h.scale * math.sqrt(length * length - 4.0 * math.pi * area)
