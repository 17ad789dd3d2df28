"""Numpy membership kernel: union membership of points in packed primitives.

Each primitive is tested column by column, on the points that no earlier
primitive holds.  A primitive whose padded bounding box misses the bounding
box of the query points is skipped; the padding (see ``regions._padded_box``) is
wide enough that rounding in a test can never accept a point outside it, so
skipping never changes a mask.
"""

from __future__ import annotations

import numpy as np

PRIM_BALL = 0
PRIM_RECT = 1
PRIM_POLYGON = 2


def contains_many(dim, types, closed, offsets, payload, boxes, pts):
    """Union membership of ``pts`` (N x dim float64) against packed primitives.

    ``boxes[p]`` is primitive ``p``'s padded box ``(lo_0, hi_0, lo_1, ...)``.
    Returns a uint8 mask.  Balls and rectangles honor their closed flag;
    polygon membership uses the even-odd crossing rule (boundary points fall
    on whichever side the crossing parity assigns, a measure-zero choice).
    """
    n = pts.shape[0]
    cull = n > 0 and (len(types) > 1 or types[0] == PRIM_POLYGON)
    if cull:
        # per column: pts.min(axis=0) is an order of magnitude slower on N x 2
        qbox = [(float(pts[:, k].min()), float(pts[:, k].max())) for k in range(dim)]
    out = None  # bool hits of the first tested primitive, over every point
    idx = None  # indices of the points not yet inside, once a primitive was tested
    for p in range(len(types)):
        if cull and any(boxes[p][2 * k + 1] < qlo or qhi < boxes[p][2 * k] for k, (qlo, qhi) in enumerate(qbox)):
            continue
        if out is None:
            sub = pts
        else:
            if idx is None:
                idx = np.flatnonzero(~out)
            if idx.size == 0:
                break
            sub = pts.take(idx, axis=0)
        hit = _hits(dim, int(types[p]), bool(closed[p]), payload, int(offsets[p]), sub)
        if out is None:
            out = hit
        else:
            out[idx[hit]] = True
            idx = idx[~hit]
    if out is None:
        return np.zeros(n, dtype=np.uint8)
    return out.view(np.uint8)


def _hits(dim, t, is_closed, payload, off, sub):
    """Bool membership of ``sub`` in one primitive."""
    if t == PRIM_BALL:
        d = sub[:, 0] - payload[off]
        s = d * d
        for k in range(1, dim):
            d = sub[:, k] - payload[off + k]
            s += d * d
        r2 = payload[off + dim] * payload[off + dim]
        return s <= r2 if is_closed else s < r2
    if t == PRIM_RECT:
        hit = None
        for k in range(dim):
            x = sub[:, k]
            lo = payload[off + 2 * k]
            hi = payload[off + 2 * k + 1]
            inside = (lo <= x) & (x <= hi) if is_closed else (lo < x) & (x < hi)
            if hit is None:
                hit = inside
            else:
                hit &= inside
        return hit
    nv = int(payload[off])
    px = sub[:, 0]
    py = sub[:, 1]
    hit = np.zeros(sub.shape[0], dtype=bool)
    xj = payload[off + 2 * nv - 1]
    yj = payload[off + 2 * nv]
    above_j = yj > py
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(nv):
            xi = payload[off + 1 + 2 * i]
            yi = payload[off + 2 + 2 * i]
            above_i = yi > py
            cond = above_i != above_j
            cross = px < (xj - xi) * (py - yi) / (yj - yi) + xi
            hit ^= cond & cross
            xj, yj, above_j = xi, yi, above_i
    return hit
