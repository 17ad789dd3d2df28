"""Numpy membership kernel: union membership of points in a region's primitives.

Each primitive (a ball, an axis rectangle or a polygon of ``regions``) is
tested column by column, on the points that no earlier primitive holds.  A
primitive whose padded bounding box misses the bounding box of the query points
is skipped; the padding (see ``regions._padded_box``) is wide enough that
rounding in a test can never accept a point outside it, so skipping never
changes a mask.
"""

from __future__ import annotations

import numpy as np


def contains_many(primitives, boxes, pts):
    """Union membership of ``pts`` (N x dim float64, of any layout) in ``primitives``.

    ``boxes[p]`` is the padded box ``(lo_0, hi_0, lo_1, ...)`` of
    ``primitives[p]``.  Returns a uint8 mask.  Balls and rectangles honor their
    closed flag; polygon membership uses the even-odd crossing rule (boundary
    points fall on whichever side the crossing parity assigns, a measure-zero
    choice).
    """
    n, dim = pts.shape
    cull = n > 0 and (len(primitives) > 1 or hasattr(primitives[0], "vertices"))
    if cull:
        # per column: pts.min(axis=0) is an order of magnitude slower on N x 2
        qbox = [(float(pts[:, k].min()), float(pts[:, k].max())) for k in range(dim)]
    out = None  # bool hits of the first tested primitive, over every point
    idx = None  # indices of the points not yet inside, once a primitive was tested
    for p, box in zip(primitives, boxes):
        if cull and any(box[2 * k + 1] < qlo or qhi < box[2 * k] for k, (qlo, qhi) in enumerate(qbox)):
            continue
        if out is None:
            sub = pts
        else:
            if idx is None:
                idx = np.flatnonzero(~out)
            if idx.size == 0:
                break
            sub = pts.take(idx, axis=0)
        hit = _hits(p, sub)
        if out is None:
            out = hit
        else:
            out[idx[hit]] = True
            idx = idx[~hit]
    if out is None:
        return np.zeros(n, dtype=np.uint8)
    return out.view(np.uint8)


def _hits(p, sub):
    """Bool membership of ``sub`` in one primitive, told apart by its fields
    (``regions``, which defines the rect and polygon classes, imports this module)."""
    if hasattr(p, "radius"):
        c = p.center
        d = sub[:, 0] - c[0]
        s = d * d
        for k in range(1, len(c)):
            d = sub[:, k] - c[k]
            s += d * d
        r2 = p.radius * p.radius
        return s <= r2 if p.closed else s < r2
    if not hasattr(p, "vertices"):
        hit = None
        for k, (lo, hi) in enumerate(zip(p.lo, p.hi)):
            x = sub[:, k]
            inside = (lo <= x) & (x <= hi) if p.closed else (lo < x) & (x < hi)
            if hit is None:
                hit = inside
            else:
                hit &= inside
        return hit
    return in_polygons(sub, np.asarray(p.vertices)[None])[0]


def in_polygons(pts, verts):
    """Even-odd membership of ``pts`` (N x 2) in each polygon of ``verts``
    (P x V x 2 vertex loops), as in ``contains_many``: a (P, N) bool array."""
    px = pts[:, 0]
    py = pts[:, 1]
    # each vertex's coordinates, broadcast over the points: a lone polygon's as
    # Python floats, which keep numpy on its scalar fast path, else (P, 1) columns
    corners = verts[0].tolist() if len(verts) == 1 else verts.transpose(1, 2, 0)[..., None]
    hit = np.zeros(px.shape if len(verts) == 1 else (len(verts), len(px)), dtype=bool)
    xj, yj = corners[-1]
    above_j = yj > py
    with np.errstate(divide="ignore", invalid="ignore"):
        for xi, yi in corners:
            above_i = yi > py
            cond = above_i != above_j
            cross = px < (xj - xi) * (py - yi) / (yj - yi) + xi
            hit ^= cond & cross
            xj, yj, above_j = xi, yi, above_i
    return hit.reshape(len(verts), len(pts))
