"""Euclidean primitives: balls, similarity maps, and two-disk overlap areas.

Everything here is immutable and pure; dimensions 2 and 3 are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-12

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n (pi for n=2, 4*pi/3 for n=3)."""
    try:
        return _UNIT_BALL_VOLUME[n]
    except KeyError:
        raise ValueError(f"unsupported dimension {n}; expected 2 or 3") from None


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce a point-like value to a float64 vector, optionally checking its dimension."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1 or q.size not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D point, got shape {q.shape}")
    if dim is not None and q.size != dim:
        raise ValueError(f"dimension mismatch: point has {q.size} coordinates, expected {dim}")
    return q


@dataclass(frozen=True)
class Ball:
    """An open (default) or closed ball."""

    center: tuple[float, ...]
    radius: float
    closed: bool = False

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if len(center) not in (2, 3):
            raise ValueError("balls are supported in dimensions 2 and 3 only")
        if not all(math.isfinite(c) for c in center):
            raise ValueError("ball center must be finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, p) -> bool:
        q = as_point(p, self.dim)
        s = 0.0
        for i in range(self.dim):
            d = q[i] - self.center[i]
            s += d * d
        r2 = self.radius * self.radius
        return s <= r2 if self.closed else s < r2


@dataclass(frozen=True, eq=False)
class Similarity:
    """The map x -> scale * orthogonal @ x + translation.

    The orthogonal part must satisfy ``T.T @ T = I`` to within
    ``ORTHOGONALITY_TOL`` in max norm; distances then scale by exactly
    ``scale``.
    """

    scale: float
    orthogonal: np.ndarray
    translation: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        T = np.array(self.orthogonal, dtype=np.float64)
        T.setflags(write=False)
        object.__setattr__(self, "orthogonal", T)
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("similarity scale must be positive and finite")
        n = len(self.translation)
        if T.shape != (n, n) or n not in (2, 3):
            raise ValueError("orthogonal part must be a 2x2 or 3x3 matrix matching the translation")
        residual = np.max(np.abs(T.T @ T - np.eye(n)))
        if residual > ORTHOGONALITY_TOL:
            raise ValueError(f"orthogonality residual {residual:.3e} exceeds {ORTHOGONALITY_TOL}")
        object.__setattr__(self, "_linear", (self.scale * T).tolist())  # rows of scale * T, for apply_many

    @classmethod
    def _trusted(cls, scale: float, orthogonal: np.ndarray, translation: tuple, linear: list) -> "Similarity":
        """The similarity of parts that already passed the checks, without repeating them.

        ``orthogonal`` is a read-only float64 part that a checked similarity
        accepted, ``scale`` a positive finite float, ``translation`` a tuple of
        floats and ``linear`` the rows of ``scale * orthogonal``: the object
        then equals ``Similarity(scale, orthogonal, translation)`` field for field.
        """
        h = object.__new__(cls)
        object.__setattr__(h, "scale", scale)
        object.__setattr__(h, "orthogonal", orthogonal)
        object.__setattr__(h, "translation", translation)
        object.__setattr__(h, "_linear", linear)
        return h

    @property
    def dim(self) -> int:
        return len(self.translation)

    def __call__(self, p) -> np.ndarray:
        q = as_point(p, self.dim)
        return self.scale * (self.orthogonal @ q) + np.asarray(self.translation)

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Apply to an (N, dim) array of points."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim})")
        # Column by column, x'_i = sum_k (scale*T)_ik x_k + t_i: faster than a matmul on N x dim, and
        # free of the BLAS kernel's fused multiply-adds, so the result does not depend on the host's BLAS.
        # Column-major whatever the input's layout, so that every column is written and later read contiguously.
        out = np.empty(pts.shape, order="F")
        cols = [pts[:, k] for k in range(self.dim)]
        for i, (row, t) in enumerate(zip(self._linear, self.translation)):
            acc = row[0] * cols[0]
            for a, x in zip(row[1:], cols[1:]):
                acc += a * x
            np.add(acc, t, out=out[:, i])
        return out

    def inverse(self) -> "Similarity":
        Tinv = self.orthogonal.T
        a = np.asarray(self.translation)
        return Similarity(1.0 / self.scale, Tinv, tuple((-1.0 / self.scale) * (Tinv @ a)))

    @staticmethod
    def identity(dim: int = 2) -> "Similarity":
        return Similarity(1.0, np.eye(dim), (0.0,) * dim)

    @staticmethod
    def rotation(theta: float, scale: float = 1.0, translation=(0.0, 0.0)) -> "Similarity":
        """Planar rotation by ``theta`` composed with scaling and translation."""
        c, s = math.cos(theta), math.sin(theta)
        return Similarity(scale, np.array([[c, -s], [s, c]]), tuple(translation))


@dataclass(frozen=True, eq=False)
class SimilarityArray:
    """An array of similarities h_i(x) = scale_i * T_i @ x + t_i, one row per probe.

    Row i holds the numbers of ``Similarity(scale_i, T_i, t_i)``, and both
    ``apply_many`` and ``similarities`` repeat that class's arithmetic, so
    mapping through row i is mapping through that similarity, bit for bit.
    Every ``T_i`` must be a read-only part that ``Similarity`` accepted.
    """

    scale: np.ndarray  # (P,)
    orthogonal: np.ndarray  # (P, dim, dim)
    translation: np.ndarray  # (P, dim)

    @staticmethod
    def of(h: Similarity) -> "SimilarityArray":
        return SimilarityArray(np.array([h.scale]), h.orthogonal[None], np.array([h.translation]))

    def __len__(self) -> int:
        return self.scale.size

    def take(self, idx) -> "SimilarityArray":
        orthogonal = self.orthogonal[idx]
        orthogonal.setflags(write=False)
        return SimilarityArray(self.scale[idx], orthogonal, self.translation[idx])

    def _linear(self) -> np.ndarray:
        return self.scale[:, None, None] * self.orthogonal

    def similarities(self) -> list[Similarity]:
        return [
            Similarity._trusted(k, T, tuple(t), rows)
            for k, T, t, rows in zip(self.scale.tolist(), self.orthogonal, self.translation.tolist(),
                                     self._linear().tolist())
        ]

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Map an (N, dim) array through every row: shape (P, N, dim)."""
        linear = self._linear()
        dim = linear.shape[1]
        cols = [pts[:, k] for k in range(dim)]
        out = np.empty((len(self), pts.shape[0], dim))
        for i in range(dim):
            acc = linear[:, i, 0, None] * cols[0]
            for k in range(1, dim):
                acc += linear[:, i, k, None] * cols[k]
            np.add(acc, self.translation[:, i, None], out=out[:, :, i])
        return out


def apply_similarity(h: Similarity, p) -> np.ndarray:
    """Image of a point under a similarity; rejects dimension mismatches."""
    return h(as_point(p, h.dim))


def _chord_segment(r: float, t: float) -> float:
    """Area r^2 (t - sin t) / 2 of the disk segment cut off by a chord at central angle t.

    For t < 1 the difference t - sin t is summed as its Taylor series (terms
    through t^17 leave a relative error below 1e-16), since the direct form
    loses every digit as t -> 0.
    """
    if t >= 1.0:
        return 0.5 * r * r * (t - math.sin(t))
    return _chord_series(r, t)


def _chord_series(r, t):
    """The series form of ``_chord_segment``, for floats or arrays."""
    t2 = t * t
    s = 1.0
    for k in (16, 14, 12, 10, 8, 6, 4):  # Horner form of 1 - t^2/20 + t^4/840 - ...
        s = 1.0 - t2 / (k * (k + 1)) * s
    return 0.5 * r * r * t * t2 / 6.0 * s


def chord_segments(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_chord_segment`` over arrays of radii and central angles."""
    return np.where(t >= 1.0, 0.5 * r * r * (t - np.sin(t)), _chord_series(r, t))


def lens_area(r1: float, r2: float, d: float) -> float:
    """Exact area of the intersection of two planar disks.

    ``r1`` and ``r2`` are the radii, ``d`` the distance between centers.
    Returns 0 for disjoint disks and the smaller disk's area when one disk
    contains the other.  The lens is the sum of the two chord segments, each
    computed without cancellation, so the area stays accurate to a few ulps
    for any radius ratio and up to tangency:

    - the half-chord ``h`` comes from Kahan's form of Heron's product for
      the triangle (r1, r2, d);
    - the chord's signed distance to each center comes from sums of like-signed
      terms (or a Sterbenz-exact difference);
    - the half-angles are ``atan2(h, distance)`` and each segment is
      r^2 (t - sin t) / 2 at central angle t, with a series for small t.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("disk radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    if r1 < r2:
        r1, r2 = r2, r1  # canonical order keeps the formula exactly symmetric
    if d >= r1 + r2:
        return 0.0
    if d <= r1 - r2:
        return math.pi * r2 * r2
    a, b, c = sorted((r1, r2, d), reverse=True)
    heron = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    h = math.sqrt(max(heron, 0.0)) / (2.0 * d)
    # chord distance from the larger disk's center: a sum of nonnegative terms
    d1 = (d * d + (r1 - r2) * (r1 + r2)) / (2.0 * d)
    # from the smaller disk's center (negative past it); for 2d >= r1 the
    # difference d - r1 is exact (Sterbenz), so no digits cancel
    d2 = ((d - r1) * (d + r1) + r2 * r2) / (2.0 * d) if 2.0 * d >= r1 else d - d1
    return _chord_segment(r1, 2.0 * math.atan2(h, d1)) + _chord_segment(r2, 2.0 * math.atan2(h, d2))


def lens_angles(r1, r2, d) -> tuple:
    """``lens_area``'s geometry over arrays of radii and center distances:
    ``(t1, t2, h, x1)``, the half-angles that the common chord subtends at
    centers 1 and 2, the half-chord, and the chord's signed distance from
    center 1 along the line to center 2.  The lens is
    ``chord_segments(r1, 2 t1) + chord_segments(r2, 2 t2)``, with
    ``lens_area``'s arithmetic.  Disjoint disks give ``t1 = t2 = 0``, disk 2
    inside disk 1 gives ``(0, pi)`` and disk 1 inside disk 2 ``(pi, 0)``, which
    two coincident equal disks give too; ``h`` and ``x1`` are then what the
    formulas give (``h`` is 0 past tangency).
    """
    r1, r2, d = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (r1, r2, d)))
    big, small = np.maximum(r1, r2), np.minimum(r1, r2)
    c, b, a = np.sort(np.stack([r1, r2, d]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        heron = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
        h = np.sqrt(np.maximum(heron, 0.0)) / (2.0 * d)
        x_big = (d * d + (big - small) * (big + small)) / (2.0 * d)
        x_small = np.where(2.0 * d >= big, ((d - big) * (d + big) + small * small) / (2.0 * d), d - x_big)
    x1, x2 = np.where(r1 >= r2, x_big, x_small), np.where(r1 >= r2, x_small, x_big)
    apart, one_in_two = d >= r1 + r2, d <= r2 - r1
    two_in_one = (d <= r1 - r2) & ~one_in_two
    t1 = np.where(apart | two_in_one, 0.0, np.where(one_in_two, math.pi, np.arctan2(h, x1)))
    t2 = np.where(apart | one_in_two, 0.0, np.where(two_in_one, math.pi, np.arctan2(h, x2)))
    return t1, t2, h, x1


def lens_constant() -> float:
    """Worst-case density of a disk inside a congruent disk centered on its boundary.

    Equals ``2/3 - sqrt(3)/(2*pi)``, i.e. ``lens_area(1, 1, 1) / pi``: the
    smallest fraction of a probe disk's area that an overlapping congruent
    disk whose boundary passes through the probe center can cover.
    """
    return 2.0 / 3.0 - math.sqrt(3.0) / (2.0 * math.pi)
