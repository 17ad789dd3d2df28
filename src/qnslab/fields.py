"""Nonnegative measurable fields on a region.

Supported kinds: constant, indicator of a region, the harmonic rule
``c + (x^2 - y^2)/s``, a radial bump, and nonnegative weighted sums.  Every
kind is bounded on compacts by construction, so local integrability holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import as_point
from .regions import Region, region_from_json, region_to_json

_SANITY_SEED = 1_234_567
_SANITY_SAMPLES = 512


class DomainError(ValueError):
    """A point, or an image h(D) of a marked set, lies outside the field's domain."""


@dataclass(frozen=True, eq=False)
class Field:
    """A nonnegative field on ``domain``; use the factory functions below."""

    kind: str
    domain: Region
    params: dict = field(default_factory=dict)
    terms: tuple = ()

    @property
    def dim(self) -> int:
        return self.domain.dim

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, dim) array without domain checks."""
        pts = np.asarray(pts, dtype=np.float64)
        if self.kind == "constant":
            return np.full(pts.shape[0], self.params["value"])
        if self.kind == "indicator":
            return self.params["support"].contains_many(pts).astype(np.float64)
        if self.kind == "harmonic":
            c, s = self.params["offset"], self.params["scale"]
            return c + (pts[:, 0] * pts[:, 0] - pts[:, 1] * pts[:, 1]) / s
        if self.kind == "radial_bump":
            radius = self.params["radius"]
            height = self.params["height"]
            # column by column: the same sum as np.sum((pts - center)**2, axis=1), without the N x dim temporaries
            d2 = None
            for k, c in enumerate(self.params["center"]):
                d = pts[:, k] - c
                if d2 is None:
                    d2 = d * d
                else:
                    d2 += d * d
            return height * np.maximum(0.0, 1.0 - d2 / (radius * radius))
        out = np.zeros(pts.shape[0])
        for w, term in self.terms:
            out += w * term.values(pts)
        return out

    def require_in_domain(self, pts: np.ndarray) -> None:
        """Raise ``DomainError`` unless every point lies in the domain."""
        mask = self.domain.contains_many(pts)
        if not mask.all():
            bad = np.asarray(pts)[int(np.argmin(mask))]
            raise DomainError(f"point {tuple(bad)} lies outside the field domain")

    def evaluate_many(self, pts: np.ndarray, check_domain: bool = True) -> np.ndarray:
        if check_domain:
            self.require_in_domain(pts)
        return self.values(pts)


def evaluate(u: Field, p) -> float:
    """Value of the field at one point; rejects points outside the domain."""
    q = as_point(p, u.dim)
    return float(u.evaluate_many(q[None, :])[0])


def _check_nonnegative(u: Field) -> Field:
    lo, hi = u.domain.bbox
    rng = np.random.Generator(np.random.PCG64(_SANITY_SEED))
    pts = lo + rng.random((_SANITY_SAMPLES, u.dim)) * (hi - lo)
    pts = pts[u.domain.contains_many(pts).astype(bool)]
    if pts.size and float(np.min(u.values(pts))) < 0.0:
        raise ValueError("field takes negative values on its domain")
    return u


def constant_field(value: float, domain: Region) -> Field:
    if value < 0:
        raise ValueError("constant fields must be nonnegative")
    return Field("constant", domain, {"value": float(value)})


def indicator_field(support: Region, domain: Region) -> Field:
    if support.dim != domain.dim:
        raise ValueError("support and domain dimensions differ")
    return Field("indicator", domain, {"support": support})


def harmonic_field(offset: float, scale: float, domain: Region) -> Field:
    """The harmonic rule offset + (x^2 - y^2)/scale; must be >= 0 on the domain."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    return _check_nonnegative(Field("harmonic", domain, {"offset": float(offset), "scale": float(scale)}))


def radial_bump_field(center, radius: float, height: float, domain: Region) -> Field:
    if radius <= 0 or height < 0:
        raise ValueError("bump needs radius > 0 and height >= 0")
    return Field(
        "radial_bump",
        domain,
        {"center": tuple(float(c) for c in center), "radius": float(radius), "height": float(height)},
    )


def sum_field(terms, domain: Region) -> Field:
    """Nonnegative weighted sum of fields sharing the given domain dimension."""
    packed = []
    for w, term in terms:
        if w < 0:
            raise ValueError("sum weights must be nonnegative")
        if term.dim != domain.dim:
            raise ValueError("term dimension mismatch")
        packed.append((float(w), term))
    if not packed:
        raise ValueError("sum needs at least one term")
    return Field("weighted_sum", domain, terms=tuple(packed))


def field_to_json(u: Field) -> dict:
    if u.kind == "constant":
        body = {"kind": "constant", "value": repr(u.params["value"])}
    elif u.kind == "indicator":
        body = {"kind": "indicator", "support": region_to_json(u.params["support"])}
    elif u.kind == "harmonic":
        body = {"kind": "harmonic", "offset": repr(u.params["offset"]), "scale": repr(u.params["scale"])}
    elif u.kind == "radial_bump":
        body = {
            "kind": "radial_bump",
            "center": [repr(c) for c in u.params["center"]],
            "radius": repr(u.params["radius"]),
            "height": repr(u.params["height"]),
        }
    else:
        body = {
            "kind": "weighted_sum",
            "terms": [[repr(w), field_to_json(t)["field"]] for w, t in u.terms],
        }
    return {"field": body, "domain": region_to_json(u.domain)}


def field_from_json(doc: dict, domain: Optional[Region] = None) -> Field:
    if domain is None:
        domain, _ = region_from_json(doc["domain"])
    body = doc["field"]
    kind = body.get("kind")
    if kind == "constant":
        return constant_field(float(body["value"]), domain)
    if kind == "indicator":
        support, _ = region_from_json(body["support"])
        return indicator_field(support, domain)
    if kind == "harmonic":
        return harmonic_field(float(body["offset"]), float(body["scale"]), domain)
    if kind == "radial_bump":
        return radial_bump_field(
            tuple(float(c) for c in body["center"]), float(body["radius"]), float(body["height"]), domain
        )
    if kind == "weighted_sum":
        terms = [(float(w), field_from_json({"field": t}, domain)) for w, t in body["terms"]]
        return sum_field(terms, domain)
    raise ValueError(f"unknown field kind {kind!r}")
