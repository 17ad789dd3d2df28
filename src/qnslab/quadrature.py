"""Averages of fields over balls and over similarity images of marked sets.

Methods: ``"auto"`` (the default) returns a closed form where one exists and
otherwise samples as ``"stratified"`` does; ``"stratified"`` and ``"mc"``
always take their own sampler, which keeps them available as the Monte Carlo
cross-check of the closed forms.  The closed forms, reported as method
``"exact"`` with stderr 0, are:

- constant fields (under every method);
- harmonic fields over a ball: the mean is the value at the center (the mean
  value property, exact in 2-D and 3-D since x^2 - y^2 is harmonic in both);
- over a 2-D disk, the indicator of any 2-D support S: the mean is
  area(B ∩ S) / (pi r^2), by Green's theorem over S's boundary pieces
  (``regions.ball_areas``; for a disk support that is ``lens_area`` to a few
  ulps);
- over a 2-D disk B, a radial bump h * max(0, 1 - |y - p|^2 / rho^2): the
  mean is h * (A - I2 / rho^2) / (pi r^2), with A = lens_area(r, rho, |c - p|)
  and I2 the integral of |y - p|^2 over the lens, 1/4 of the flux of
  |v|^2 v (v = y - p) through the lens's two arcs, both in closed form;
- a weighted sum of such terms, over the balls where all of them have one:
  sum_i w_i * mean_i.  A sum with any other term samples as a whole.

Every other mean, and every 3-D indicator or bump, samples (``"auto"`` as
``"stratified"``).  ``"auto"`` is resolved before any sampling, so no result
reports it.  Image means have no closed form besides constants: they are plain Monte Carlo under
every method (rejection sampling in D does not stratify) and report ``"mc"``,
decided probes included (below).
Containment runs first, as one call over a whole probe array of ``(P, dim)``
ball centers and ``(P,)`` radii (``balls_in_region``) or of images
(``images_in_region``, 2-D only; a refused image's refusal is a
``DomainError``), and so do the closed forms.  2-D containment is exact up to
a margin (see ``regions``); a 3-D ball that no single primitive holds is
refused.

All randomness is driven by PCG64 streams keyed on a seed, so results are
bit-identical across runs and depend on the seed, not on the worker count: a
batch splits into chunks of ``_CHUNK`` samples (one chunk below twice that),
each chunk draws its own child stream, and chunk sums are reduced in index
order.  ``spec.workers`` only sizes the thread pool that runs a batch's
chunks, one task per chunk.  A mean opens one pool, at its first batch of
several chunks, runs every later such batch on it and shuts it down when it
returns; a batch of one chunk runs in the caller and starts no pool.

A sampled mean is two steps.  The base sample is a pure function of the seed,
the (batch, chunk) index and the chunk size (and, for image means, of the
marked set D): radius-free factors of uniform unit-ball points (exactly the
points ``sample_in_ball`` draws from that stream), or every candidate that the
rejection loop accepts in D, over-draw included.  A ball's angle factors, cos
and sin of 2 pi u for a uniform u, come from a 257-entry table with short
Taylor corrections, within 2^-52 of the true values (``_turn_cos_sin``).  The
uniform stream does not depend on how they are computed, so the points equal
those that libm ``np.cos`` and ``np.sin`` of the same uniforms give, up to
the last-bit rounding of the factors.  The per-probe step maps the base
sample by ``c + r*x`` or by ``h`` and evaluates the field.  Points are
column-major ``(N, dim)`` arrays once accepted in D, placed or mapped, since
every stage reads and writes whole columns.  A ball chunk runs
in blocks of ``_BLOCK`` = 2^14 samples, drawn, placed and evaluated one at a
time into a chunk-length buffer of values that is summed whole, so results are
bit for bit those of a whole-chunk evaluation; an image chunk is one block, of
which an image mean maps just the first ``size`` candidates.  An indicator
takes no buffer: each block's points go to the support's membership test and
the chunk is reduced by its hit count, which is exactly both float sums of
its 0/1 values.

A 2-D indicator screens each ball's block by radius before building any of
its points (``_screened_hits``).  Once per probe array, ``radial_bounds``
gives each ball's lo, its center's distance to the support's boundary
pieces, and hi, its largest distance to them, less and plus a margin: the
support's, and at least 1e-9 of the ball's |c|_inf + r, which dominates the
rounding of placing and testing a point at any scale (the chain's m = 5 disk
has radius 1.3e-32).  A row is placed at distance s = r * rho from the
center, computed as placement computes it: if s < lo it is a hit exactly
when the center is in the support, and if s > hi it is a miss.  Only the band rows between are
taken out, given angle factors, placed and tested; elementwise operations
give the same bits on a subset, so every hit count equals that of testing
every row.  A seed with one probe streams radial factors alone, and the
probe builds the angle factors of its band rows.  A seed that several probes
share builds them for whole blocks, once for all its probes, since building
them per probe's band costs a battery more than it saves.  3-D balls and
other fields take every row.

A 2-D indicator probe can be decided whole.  A ball B(c, r) whose lo exceeds
r, and an image h(D) whose disk B(h(p_D), k R_D) has lo above k R_D (R_D is
D's ``outer_radius`` about its marked point p_D, and every point of h(D) lies
in that disk), has every point on the side of its center: every sample hits,
or every one misses.  Its first batch then has variance 0 and stops it, so its
outcome is ``_stat_result(n * inside, n * inside, n, method)`` with n the
first batch size (``_FIRST_BATCH``, or the cap if lower), the bits sampling
gives, reported under the sampled method with stderr 0.  An image's margin
takes the scale |h(p_D)|_inf + k (R_D + |p_D|_inf), the size of the terms
that mapping a point of D adds up, since k R_D alone misses the rounding of
an image of a D far from the origin; the orthogonal part's tolerance, 1e-12,
stretches k R_D by far less than the margin.  Every decided probe is settled
before sampling, whatever its seed, and draws, places, maps and tests
nothing: a chunk's base sample depends only on its seed, (batch, chunk) and
size, so the other probes on its seed get the same bits.  Every other image
probe maps and tests every row.

A streamed block is freed stage by stage: its cube once the radial factors
and angle steps are read from it, its base factors once placed, its points
once evaluated.  So a task holds at most seven block arrays, those of the
angle factors (under 1 MiB at ``_BLOCK``), plus, for every field but an
indicator, its chunk buffer (1 MiB at ``_CHUNK``), and two workers stay
under 4 MiB.  A screened block whose band is part of it holds, besides,
the index array of the band rows and its two radial factors while the band's
copies go through those stages: about nine block arrays when the band is
most of the block (1.1 MiB at 1 worker, measured), fewer as it narrows.  Means
take an array of probes (``_ball_means``, ``_image_means``); ``mean_over_ball``
and ``mean_over_image`` are their one-probe cases.  A probe array's outcome is
one ``Means`` record of ``(P,)`` arrays (mean, stderr, sample count, exact
mask, admitted mask), which the closed forms, the decided probes and the
sampling loop write in place; a battery reads it as arrays, its verdicts
through ``Means.bound`` and its extreme through ``argmax`` or ``argmin``, and
no ``MeanResult`` is built per probe.  Indexing it builds one probe's
``MeanResult``, or returns its refusal.  The loop runs batch-major and
draws each chunk's base sample once per seed: a seed with one probe in a task
streams its blocks, and a seed that several probes share is held as a list.
Without labels every probe runs on the spec seed: each ``qns_engine`` battery
is one such array, so its probes share common random numbers and their errors
are correlated.  The ``counterexample`` certificates are arrays with per-probe
labels: probe i runs on the seed of ``spec.child(labels[i])``, independent of
the others.  Every probe that reports a sampled method derives its seed,
decided ones included, and no other probe reads its label.  Either way a
probe's row equals a one-probe call on its spec bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .fields import DomainError, Field
from .geometry import Ball, Similarity, SimilarityArray, chord_segments, lens_angles
from .regions import MarkedSet, Region, ball_areas, balls_in_region, images_in_region, radial_bounds


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed from (seed, label)."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "auto"  # "auto" (closed forms where they exist) | "stratified" | "mc"
    target_rel_error: float = 1e-3
    max_samples: int = 10_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in ("auto", "stratified", "mc"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if not (0.0 < self.target_rel_error <= 0.1):
            raise ValueError("target relative error must lie in (0, 0.1]")
        if self.max_samples < 1000:
            raise ValueError("max_samples must be at least 1000")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def child(self, label: str) -> "QuadratureSpec":
        return replace(self, seed=derive_seed(self.seed, label))


# Relative rounding slack of an exact mean in a K verdict: exact means are good to a few
# ulps, and 1e-12 is far below the gap 1.2e-5 between 2.5575 and 1/lens_constant() = 2.5575302...
EXACT_MEAN_REL_TOL = 1e-12


class MeanResult(NamedTuple):
    mean: float
    stderr: float
    n_samples: int
    method: str

    def bound(self, k: float) -> float:
        """The largest value that passes ``value <= K * mean``: K * mean plus its
        rounding slack for an exact mean, else 3 * K * stderr (also at stderr 0)."""
        if self.method == "exact":
            return k * self.mean + EXACT_MEAN_REL_TOL * k * self.mean
        return k * self.mean + 3.0 * k * self.stderr


class Means:
    """The outcomes of a probe array, one row per probe in probe order.

    ``mean``, ``stderr``, ``n_samples`` and ``exact`` are ``(P,)`` arrays,
    ``admitted`` marks the probes whose ball or image lies in the domain, and
    ``refusal(i)`` builds the error that refuses probe i.  An exact row
    reports method ``"exact"`` and a sampled one ``method``.  A refused row
    holds NaN, so that it fails every comparison.  Indexing builds one row's
    ``MeanResult`` (or returns its refusal); a battery reads the arrays.
    """

    __slots__ = ("mean", "stderr", "n_samples", "exact", "method", "admitted", "refusal")

    def __init__(self, admitted: np.ndarray, exact: bool, method: str, refusal: Callable[[int], Exception]):
        self.admitted, self.method, self.refusal = admitted, method, refusal
        self.exact = admitted & exact
        self.mean = np.where(admitted, 0.0, math.nan)
        self.stderr = self.mean.copy()
        self.n_samples = admitted.astype(np.int64)  # 1 for an exact mean; a sampled row takes its count

    def __len__(self) -> int:
        return len(self.mean)

    def __getitem__(self, i: int):
        i = range(len(self.mean))[i]  # past the last row, IndexError ends an iteration
        if not self.admitted[i]:
            return self.refusal(i)
        return MeanResult(float(self.mean[i]), float(self.stderr[i]), int(self.n_samples[i]),
                          "exact" if self.exact[i] else self.method)

    def __eq__(self, other) -> bool:  # row by row, as a list of outcomes compares
        return list(self) == list(other)

    def admit_all(self) -> "Means":
        """``self`` when every probe was admitted; else the first refusal is raised."""
        refused = np.flatnonzero(~self.admitted)
        if refused.size:
            raise self.refusal(int(refused[0]))
        return self

    def counts(self) -> tuple[int, int]:
        """How many admitted means are exact, and how many sampled."""
        exact = int(np.count_nonzero(self.exact))
        return exact, int(np.count_nonzero(self.admitted)) - exact

    def bound(self, k: float) -> np.ndarray:
        """``MeanResult.bound(k)`` of every row, by the same operations in the same order."""
        return np.where(self.exact, k * self.mean + EXACT_MEAN_REL_TOL * k * self.mean,
                        k * self.mean + 3.0 * k * self.stderr)


class ContainmentError(ValueError):
    """The probe ball is not contained in the field's domain; the message is built when read."""

    def __init__(self, center, radius: float, direction):
        super().__init__(center, radius, direction)
        self.center, self.radius, self.direction = center, radius, direction

    def __str__(self) -> str:
        if not any(self.direction):  # a center outside the domain, or a ball nothing certifies
            return f"ball at {self.center} with radius {self.radius} is not certified inside the domain"
        return f"ball at {self.center} with radius {self.radius} leaves the domain near direction {self.direction}"


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# Table steps per turn of the angle factors (a multiple of 8).
_TURN = 256


def _turn_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / n for k = 0..n: libm on the first octant, the
    other octants by the exact symmetries of cos and sin."""
    angles = [2.0 * math.pi * k / n for k in range(n // 8)]
    c = [*map(math.cos, angles), math.sqrt(0.5)]
    s = [*map(math.sin, angles), math.sqrt(0.5)]
    c, s = c + s[-2::-1], s + c[-2::-1]  # to pi/2: cos(pi/2 - a) = sin a
    c, s = c + [-x for x in s[1:]], s + c[1:]  # to pi: cos(pi/2 + a) = -sin a
    c, s = c + [-x for x in c[1:]], s + [-x for x in s[1:]]  # to 2 pi: cos(pi + a) = -cos a
    return np.array(c) + 0.0, np.array(s) + 0.0  # +0.0 turns the negative zeros positive


_TURN_COS, _TURN_SIN = _turn_table(_TURN)


def _turn_cos_sin(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi u, sin 2 pi u) for u in [0, 1] given as steps = _TURN u, each
    within 2^-52 of the true value.  ``steps`` is used as scratch and
    returned holding the cos, so that a caller that still holds it holds no
    extra array.

    With k = rint(steps), the angle is the table angle 2 pi k / _TURN plus
    b = (steps - k) 2 pi / _TURN, where the subtraction is exact and
    |b| <= pi / _TURN.  1 - cos b and sin b are Taylor polynomials to b^6 and
    b^5 (the next terms are below 1e-17), and the angle-sum formulas apply
    them to the table values C and S as small corrections:
    cos = C - (C (1 - cos b) + S sin b), sin = S - (S (1 - cos b) - C sin b).
    The error is the table's (under 1e-16: libm on angles of at most pi/4),
    plus at most 2^-54 from the last subtraction, plus under 1e-17 from the
    corrections.  Against 110-bit values on 10^5 uniforms the largest seen is
    1.54e-16, where libm ``np.cos`` and ``np.sin`` of the rounded angle
    2 pi u reach 6.9e-16.
    """
    # each operation writes into a buffer that is free by then, so a call holds six arrays of steps' size at most
    b = steps
    k = np.rint(b)
    b -= k
    b *= 2.0 * math.pi / _TURN
    k = k.astype(np.intp)
    c, s = _TURN_COS.take(k), _TURN_SIN.take(k)
    del k
    m = b * b
    t = m * (1.0 / 120.0)  # sin b = b + b b^2 (b^2 / 120 - 1/6), into b
    t -= 1.0 / 6.0
    t *= m
    t *= b
    b += t
    np.multiply(m, 1.0 / 720.0, out=t)  # 1 - cos b = b^2 (1/2 - b^2 (1/24 - b^2 / 720)), into m
    t -= 1.0 / 24.0
    t *= m
    t += 0.5
    m *= t
    np.multiply(c, b, out=t)  # C sin b
    b *= s  # S sin b
    b += c * m
    np.subtract(c, b, out=b)  # cos = C - (C (1 - cos b) + S sin b), into steps' buffer
    del c
    m *= s
    m -= t
    np.subtract(s, m, out=s)  # sin = S - (S (1 - cos b) - C sin b)
    return b, s


def _ball_base(cube: np.ndarray) -> tuple:
    """Radius-free factors of uniform unit-ball points, from unit-cube points.

    2-D: (rho, cos theta, sin theta); 3-D: (rho, sin t, cos t, cos phi, sin phi).
    The angle factors of theta = 2 pi u and phi = 2 pi u, for the row's last
    uniform u, come from ``_turn_cos_sin``: a table of 257 angles with short
    Taylor corrections, within 2^-52 of the true cos and sin, at about a
    third of the cost of libm ``np.cos`` and ``np.sin``; the points equal those
    of libm factors of the same uniforms up to last-bit rounding.

    It is ``_angle_factors`` of ``_radial_factors``.  A block stream maps the
    two stages one after the other, so that each cube is freed before the
    angle factors, the peak of a block's memory, are computed.
    """
    return _angle_factors(_radial_factors(cube))


def _radial_factors(cube: np.ndarray) -> tuple:
    """The factors of ``_ball_base`` before the angle ones, then the angle's
    steps _TURN u: 2-D (rho, steps), 3-D (rho, sin t, cos t, steps)."""
    steps = cube[:, -1] * _TURN
    if cube.shape[1] == 2:
        return np.sqrt(cube[:, 0]), steps
    cos_t = 1.0 - 2.0 * cube[:, 1]
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    return np.cbrt(cube[:, 0]), sin_t, cos_t, steps


def _angle_factors(radial: tuple) -> tuple:
    """``_ball_base`` from ``_radial_factors``: the steps give way to cos and sin."""
    return (*radial[:-1], *_turn_cos_sin(radial[-1]))


def _place_in_ball(base: tuple, center: np.ndarray, radius: float) -> np.ndarray:
    """The points center + radius * x of the ball for unit-ball factors x.

    Coordinates are written into one preallocated array, so placing a chunk
    holds no more memory than drawing it.  The array is column-major, since
    every later stage reads and writes whole columns.
    """
    r = radius * base[0]
    pts = np.empty((r.size, center.size), order="F")
    if len(base) == 3:
        _, cos_theta, sin_theta = base
        np.multiply(r, cos_theta, out=pts[:, 0])
        np.multiply(r, sin_theta, out=pts[:, 1])
    else:
        _, sin_t, cos_t, cos_phi, sin_phi = base
        r_sin = r * sin_t
        np.multiply(r_sin, cos_phi, out=pts[:, 0])
        np.multiply(r_sin, sin_phi, out=pts[:, 1])
        np.multiply(r, cos_t, out=pts[:, 2])
    for k in range(center.size):  # by column: a broadcast over N x dim runs a dim-long inner loop
        pts[:, k] += center[k]
    return pts


def _hits(support: Region, place: Callable[[object], np.ndarray], block) -> int:
    """The number of a block's points, ``place(block)``, that lie in an indicator's support."""
    return np.count_nonzero(support.contains_many(place(block)))


def _screened_hits(support: Region, center: np.ndarray, radius: float, lo: float, hi: float, inside: bool,
                   block: tuple) -> int:
    """``_hits`` of a 2-D ball's points, deciding what it can by radius alone.

    ``block`` holds ``_radial_factors`` (a seed of one probe, streamed) or
    ``_ball_base`` (a seed that several probes share); ``lo``, ``hi`` and
    ``inside`` are the ball's ``radial_bounds``.  A row placed at distance
    s = radius * rho from the center, computed as ``_place_in_ball`` computes
    it, is a hit if s < lo and the center is inside, and a miss if s > hi.
    Only the band rows between are taken, given angle factors, placed and
    tested, and elementwise operations give the same bits on a subset, so the
    count is that of ``_hits`` on every row.
    """
    n = 0
    if lo > 0.0 or hi < radius:  # else no row is decided by its radius: s lies in [0, radius]
        s = radius * block[0]
        n = np.count_nonzero(s < lo) if inside else 0
        band = np.flatnonzero((s >= lo) & (s <= hi))
        if band.size == 0:
            return n
        if band.size < s.size:
            block = tuple(x.take(band) for x in block)
        del s, band
    if len(block) == 2:
        block = _angle_factors(block)
    pts = _place_in_ball(block, center, radius)
    del block  # the caller holds the block it passed, but not a band's subset or angle factors
    return n + np.count_nonzero(support.contains_many(pts))


# Samples per block.  A chunk is drawn, placed and evaluated one block at a
# time, so its temporaries stay cache-sized and are not re-faulted per chunk;
# a block long enough that each numpy call runs long lets the pool's threads
# overlap the calls, which release the interpreter lock.
_BLOCK = 2**14


def _cube_blocks(n: int, dim: int, rng: np.random.Generator, stratified: bool):
    """n points of the unit cube in blocks of at most ``_BLOCK`` rows: the values of one
    ``rng.random((n, dim))`` draw, except that stratified, the first g^dim <= n rows
    are one jittered point per cell of a g^dim grid, cells in C order.

    The blocks are drawn as they are read, and the stream holds none of them,
    so a reader that drops a block frees it.
    """
    g = max(int(round(n ** (1.0 / dim))), 1) if stratified else 0
    while g**dim > n:
        g -= 1
    # n = 0 gives one empty block
    return (_cube_block(rng, lo, min(n - lo, _BLOCK), dim, g) for lo in range(0, max(n, 1), _BLOCK))


def _cube_block(rng: np.random.Generator, lo: int, size: int, dim: int, g: int) -> np.ndarray:
    """Rows lo to lo + size of ``_cube_blocks`` on a grid of side g (0: none)."""
    block = rng.random((size, dim))
    k = min(max(g**dim - lo, 0), size)  # the rows of the block that lie in a cell
    if k:
        for j, cell in enumerate(np.unravel_index(np.arange(lo, lo + k), (g,) * dim)):
            block[:k, j] += cell
        block[:k] /= g
    return block


def sample_in_ball(center, radius: float, n: int, rng: np.random.Generator, stratified: bool = False) -> np.ndarray:
    if n < 0:
        raise ValueError("sample count must be non-negative")
    center = np.asarray(center, dtype=np.float64)
    return _place_in_ball(_ball_base(np.concatenate([*_cube_blocks(n, center.size, rng, stratified)])), center, radius)


def _stat_result(s1, s2, n: int) -> tuple:
    """The mean and its standard error from the sums of n > 1 values and of
    their squares, elementwise over arrays of sums."""
    mean = s1 / n
    return mean, np.sqrt(np.maximum(s2 - n * mean * mean, 0.0) / (n - 1) / n)


# Samples per chunk of a batch.  The chunk layout depends on the batch size
# alone, so the worker count schedules chunks and never changes a result.
_CHUNK = 2**17
# Samples in a mean's first batch (or the cap, if lower); each later batch doubles the total.
_FIRST_BATCH = 4096


def _sample_means(spec: QuadratureSpec, u: Field, base: Callable[[int, int, int, int, bool], object],
                  seeds: list[int], probes: list[Callable[[object], object]], out: Means, rows: np.ndarray) -> None:
    """The batching loop of every sampled mean, batch-major over a probe array.

    ``base(seed, batch, chunk, size, shared)`` returns one chunk's base sample
    on a seed as blocks, drawn as they are read, and probe i runs on
    ``seeds[i]``.  A batch runs one task per chunk, on the call's one pool of
    ``spec.workers`` threads when it has several chunks, and a task runs its
    chunk for every running probe.  Each chunk is drawn once per seed: a seed
    with one running probe streams its blocks, and probes that share a seed
    share a list of them (``shared`` is then true).
    ``probes[i]`` maps a block to probe i's points, where ``u`` is evaluated
    into the task's chunk-length buffer of values, summed whole.  An indicator
    takes no buffer: ``probes[i]`` maps a block to its hit count, and both of
    the chunk's sums of 0/1 values are the sum of those counts, exactly (it is
    below 2^53).  Every probe sees the same chunk layout and stops on its own
    error target or at the sample cap; its mean, stderr and sample count go to
    row ``rows[i]`` of ``out``.
    """
    counted = u.kind == "indicator"
    s1 = np.zeros(len(probes))
    s2 = np.zeros(len(probes))
    running = np.arange(len(probes))
    n = 0
    batch_size = min(_FIRST_BATCH, spec.max_samples)
    batch_index = 0
    pool = None
    with ExitStack() as stack:
        while running.size:
            n_chunks = max(batch_size // _CHUNK, 1)
            sizes = [batch_size // n_chunks] * n_chunks
            sizes[-1] += batch_size - sum(sizes)
            order = running.tolist()
            last = {seeds[p]: p for p in order}  # the last running probe on each seed

            def run(i: int) -> list:  # chunk i of this batch, for every running probe
                held = {}
                vals = None if counted else np.empty(sizes[i])
                sums = []
                for p in order:
                    seed = seeds[p]
                    if seed not in held:  # probes that share a seed share a list of its blocks; a lone one streams
                        shared = last[seed] != p
                        blocks = base(seed, batch_index, i, sizes[i], shared)
                        held[seed] = list(blocks) if shared else blocks
                    blocks = held.pop(seed) if last[seed] == p else held[seed]
                    if counted:  # map releases each block once counted, before drawing the next
                        count = float(sum(map(probes[p], blocks)))
                        sums.append((count, count))
                        continue
                    lo = 0
                    for pts in map(probes[p], blocks):  # a streamed block's base is dropped once placed
                        vals[lo:lo + len(pts)] = u.evaluate_many(pts, check_domain=False)
                        lo += len(pts)
                        del pts  # so that no block array is held while the next one is drawn
                    # per-block sums would round differently; vals is squared in place once summed
                    sums.append((float(vals.sum()), float(np.multiply(vals, vals, out=vals).sum())))
                return sums

            if n_chunks == 1 or spec.workers == 1:
                tasks = map(run, range(n_chunks))
            else:  # the mean's one pool, opened at its first batch of several chunks
                pool = pool or stack.enter_context(ThreadPoolExecutor(max_workers=spec.workers))
                tasks = pool.map(run, range(n_chunks))
            # tasks come back in chunk order, so each probe's chunk sums add in that order
            for task_sums in tasks:
                task_sums = np.asarray(task_sums)
                s1[running] += task_sums[:, 0]
                s2[running] += task_sums[:, 1]
            n += batch_size
            batch_index += 1
            mean, stderr = _stat_result(s1[running], s2[running], n)
            done = (stderr <= spec.target_rel_error * np.abs(mean)) | (n >= spec.max_samples)
            at = rows[running[done]]
            out.mean[at], out.stderr[at], out.n_samples[at] = mean[done], stderr[done], n
            running = running[~done]
            batch_size = min(batch_size * 2, spec.max_samples - n)


def _settle(out: Means, spec: QuadratureSpec, rows: np.ndarray, decided: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Set row ``rows[j]`` of ``out`` for each decided probe j (every point of
    it has the membership ``inside[j]``) to what ``_sample_means`` gives: its
    first batch, all hits or all misses, has variance 0 and stops it.  Returns
    the positions j of the other probes, which sample.
    """
    n = min(_FIRST_BATCH, spec.max_samples)
    hits = np.where(inside[decided], float(n), 0.0)
    at = rows[decided]
    out.mean[at], out.stderr[at] = _stat_result(hits, hits, n)
    out.n_samples[at] = n
    return np.flatnonzero(~decided)


def _closed_form(u: Field) -> bool:
    """Whether ``u``'s ball means have a closed form under ``"auto"``: a
    constant or harmonic field, a 2-D indicator or radial bump, or a weighted
    sum of such terms."""
    if u.kind == "weighted_sum":
        return all(_closed_form(term) for _, term in u.terms)
    return u.kind in ("constant", "harmonic") or u.dim == 2 and u.kind in ("indicator", "radial_bump")


def _exact_ball_means(u: Field, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The closed-form means over an array of balls of a field with one (see
    ``_closed_form`` and the module docstring)."""
    if u.kind == "constant":
        return np.full(len(radii), u.params["value"])
    if u.kind == "harmonic":
        return u.values(centers)
    area = math.pi * radii * radii
    if u.kind == "indicator":
        return ball_areas(u.params["support"], centers, radii) / area
    if u.kind == "radial_bump":
        rho, height = u.params["radius"], u.params["height"]
        d = np.hypot(*(centers - np.asarray(u.params["center"])).T)
        beta, gamma, _, _ = lens_angles(radii, rho, d)
        lens = chord_segments(radii, 2.0 * beta) + chord_segments(rho, 2.0 * gamma)
        # the integral of |y - center|^2 over the lens, as 1/4 of the flux of |v|^2 v through its two arcs
        moment = (0.5 * rho**4 * gamma + 0.5 * radii**2 * beta * (2.0 * d * d + radii**2)
                  + 0.25 * radii**2 * d * d * np.sin(2.0 * beta)
                  - 0.5 * radii * d * (d * d + 3.0 * radii**2) * np.sin(beta))
        return np.maximum(height * (lens - moment / rho**2) / area, 0.0)
    out = np.zeros(len(radii))
    for w, term in u.terms:
        out += w * _exact_ball_means(term, centers, radii)
    return out


def _seeds(spec: QuadratureSpec, labels, rows: np.ndarray) -> list[int]:
    """The seed of each probe i in ``rows``: the spec seed, or with labels
    the seed of ``spec.child(labels[i])``.  Only these labels are read."""
    if labels is None:
        return [spec.seed] * len(rows)
    return [derive_seed(spec.seed, labels[i]) for i in rows.tolist()]


def mean_over_ball(u: Field, ball: Ball, spec: QuadratureSpec = QuadratureSpec()) -> MeanResult:
    """Average of ``u`` over the ball, with standard error.

    The one-probe case of ``_ball_means``.  The closed ball must lie inside
    the field's domain; a violation reports the offending boundary direction
    where one is known.
    Under ``"auto"`` the closed forms of the module docstring are used where
    they apply; otherwise the mean is sampled.
    """
    return _ball_means(u, np.asarray([ball.center]), np.asarray([ball.radius]), spec).admit_all()[0]


def _ball_means(u: Field, centers: np.ndarray, radii: np.ndarray, spec: QuadratureSpec, labels=None) -> Means:
    """Means of ``u`` over an array of balls, given as ``(P, dim)`` centers and
    ``(P,)`` radii; a ball that the domain refuses has the refusal
    ``ContainmentError``.

    Containment is one ``balls_in_region`` call over the whole array (exact;
    a 3-D ball that no single primitive holds is refused), and the closed
    forms are one call too.  A mean is closed-form for a constant
    field under every method, and under ``"auto"`` for every field of
    ``_closed_form``.  A sampled 2-D indicator ball that lies wholly on one
    side of its support's boundary is decided (see the module docstring).
    Without ``labels`` every probe runs on
    ``spec``'s seed and the sampled ones share each chunk's base sample; with
    them (a sequence of strings, read only for the probes that sample), row i
    equals a one-probe call on ``spec.child(labels[i])``.
    """
    centers, radii = np.asarray(centers, dtype=np.float64), np.asarray(radii, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != u.dim or radii.shape != (len(centers),):
        raise ValueError("ball and field dimensions differ")
    if not np.isfinite(centers).all():
        raise ValueError("ball center must be finite")
    if not (np.isfinite(radii) & (radii > 0)).all():
        raise ValueError("ball radius must be positive and finite")
    ok, directions = balls_in_region(u.domain, centers, radii)
    exact = u.kind == "constant" or spec.method == "auto" and _closed_form(u)
    out = Means(ok, exact, "stratified" if spec.method == "auto" else spec.method, lambda i: ContainmentError(
        tuple(centers[i].tolist()), float(radii[i]), tuple(directions[i].tolist())))
    rows = np.flatnonzero(ok)
    if exact:
        out.mean[rows] = _exact_ball_means(u, centers[rows], radii[rows])
        return out
    stratified = out.method == "stratified"
    screened = u.kind == "indicator" and u.dim == 2
    seeds = _seeds(spec, labels, rows)

    def base(seed: int, batch: int, chunk: int, size: int, shared: bool):  # _ball_base of each block, in two stages
        radial = map(_radial_factors, _cube_blocks(size, u.dim, _rng(seed, batch, chunk), stratified))
        # a screened probe with a seed of its own takes the angle factors of its band rows alone
        return radial if screened and not shared else map(_angle_factors, radial)

    if screened:
        support = u.params["support"]
        lo, hi, inside = radial_bounds(support, centers[rows], radii[rows])
        # a ball inside lo is decided: each of its rows is placed within its radius of the center
        rest = _settle(out, spec, rows, lo > radii[rows], inside)
        rows, seeds = rows[rest], [seeds[j] for j in rest.tolist()]
        bounds = zip(lo[rest].tolist(), hi[rest].tolist(), inside[rest].tolist())
        probes = [partial(_screened_hits, support, centers[i], float(radii[i]), *b) for i, b in zip(rows, bounds)]
    else:
        probes = [partial(_place_in_ball, center=centers[i], radius=float(radii[i])) for i in rows]
        if u.kind == "indicator":
            probes = [partial(_hits, u.params["support"], place) for place in probes]
    _sample_means(spec, u, base, seeds, probes, out, rows)
    return out


def mean_over_image(u: Field, d: MarkedSet, h: Similarity, spec: QuadratureSpec = QuadratureSpec()) -> MeanResult:
    """Average of ``u`` over h(D), sampling in D and mapping through h.

    The one-probe case of ``_image_means``: h(D) must lie inside the field
    domain (else ``DomainError``); uniform candidates are drawn in D's
    bounding box and rejected to D, and the field is evaluated on the first
    ``size`` mapped candidates of each chunk.
    """
    return _image_means(u, d, SimilarityArray.of(h), spec).admit_all()[0]


def _image_means(u: Field, d: MarkedSet, probes: SimilarityArray, spec: QuadratureSpec, labels=None) -> Means:
    """Means of ``u`` over the images h_i(D) of a probe array; an image that
    leaves the domain has the refusal ``DomainError``.

    Containment is decided once, up front, for the whole array
    (``images_in_region``), and only the admitted probes are sampled; of an
    indicator's, those whose disk B(h(p_D), k R_D) lies wholly on one side of
    the support's boundary are decided (see the module docstring).
    Without ``labels`` every probe runs on ``spec``'s seed; with them, row
    i equals a one-probe call on ``spec.child(labels[i])``.
    """
    if d.dim != u.dim or probes.orthogonal.shape[1] != u.dim:
        raise ValueError("marked set, similarity and field dimensions must agree")
    ok = images_in_region(d.region, u.domain, probes)
    out = Means(ok, u.kind == "constant", "mc", lambda i: DomainError("the image h(D) leaves the field domain"))
    rows = np.flatnonzero(ok)
    if u.kind == "constant":
        out.mean[rows] = u.params["value"]
        return out

    def base(seed: int, batch: int, chunk: int, size: int, shared: bool) -> list:
        return [_image_base(d, seed, batch, chunk, size)[:size]]  # one block: a split draw would change the stream

    seeds = _seeds(spec, labels, rows)
    sims = probes.take(rows)
    if u.kind == "indicator":  # images are 2-D
        support = u.params["support"]
        p = np.asarray([d.marked_point])
        centers, rho = sims.apply_many(p)[:, 0], sims.scale * d.outer_radius
        # h(D) lies in B(h(p_D), k R_D); mapping a point rounds by ulps of the terms it adds up
        scale = np.abs(centers).max(axis=1) + sims.scale * (d.outer_radius + np.abs(p).max())
        lo, _, inside = radial_bounds(support, centers, rho, scale)
        rest = _settle(out, spec, rows, lo > rho, inside)
        rows, seeds = rows[rest], [seeds[j] for j in rest.tolist()]
        places = [partial(_hits, support, h.apply_many) for h in sims.take(rest).similarities()]
    else:
        places = [h.apply_many for h in sims.similarities()]
    _sample_means(spec, u, base, seeds, places, out, rows)
    return out


def _image_base(d: MarkedSet, seed: int, batch: int, chunk: int, size: int) -> np.ndarray:
    """Every candidate the rejection loop accepts in D until it holds ``size``."""
    rng = _rng(seed, batch, chunk)
    lo, hi = d.region.bbox
    span = hi - lo
    kept = []
    n = 0
    attempts = 0
    while n < size and attempts < 64:
        cand = rng.random((2 * size, d.dim))
        for k in range(d.dim):  # lo + cand * span in place, by column, as in _place_in_ball
            cand[:, k] *= span[k]
            cand[:, k] += lo[k]
        cand = cand[d.region.contains_many(cand).astype(bool)]
        kept.append(cand)
        n += len(cand)
        attempts += 1
    if n < size:
        raise RuntimeError("rejection sampling failed to hit the marked set")
    # column-major, so that mapping the candidates reads each coordinate contiguously
    return np.concatenate(kept, out=np.empty((n, d.dim), order="F"))
