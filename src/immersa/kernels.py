"""Segment-pair kernels: the two hot loops in crossing extraction.

candidate_pairs takes all polyline segments of an immersion as floats and
reports the pairs that could possibly touch.  A pair is dropped only when it
is provably separated even after accounting for float rounding of the exact
rational inputs, so the exact classifier downstream never misses a contact.

classify_pairs then decides the surviving pairs exactly on integer
coordinates (the caller scales the rationals by a common denominator when
that fits the int64 budget; otherwise it classifies in rational arithmetic
without this kernel).

Both kernels are vectorized numpy.
"""

from __future__ import annotations

import numpy as np

# Largest scaled coordinate magnitude classify_pairs accepts.  Orientation
# determinants on inputs up to this size stay below 8e16 < 2**63, so the
# int64 arithmetic is overflow-free.
INT_COORD_LIMIT = 10**8


def rounding_bounds(max_abs_coordinate):
    """Conservative float-error allowances for coordinates up to M.

    Returns (box_margin, orient_eps).  Coordinates are correctly rounded
    rationals (error <= M * 2^-52 each); an orientation determinant on such
    inputs, evaluated in double precision, differs from the exact value by
    well under 2^-46 * (M^2 + 1), and bounding boxes by under 2^-40 * (M+1).
    """
    m = float(max_abs_coordinate)
    if not np.isfinite(m):
        return float("inf"), float("inf")
    return 2.0**-40 * (m + 1.0), 2.0**-46 * (m * m + 1.0)


def candidate_pairs(segs, box_margin, orient_eps):
    """Indices (i, j), i < j, of segment pairs that might intersect.

    Args:
        segs: float64 array of shape (n, 4) holding x0, y0, x1, y1 per
            segment (rounded from exact rationals).
        box_margin: Bounding-box slack, from rounding_bounds.
        orient_eps: Orientation determinant slack, from rounding_bounds.

    Returns:
        int64 array of shape (m, 2).  Guaranteed to contain every pair of
        segments whose exact originals intersect.
    """
    segs = np.ascontiguousarray(segs, dtype=np.float64)
    if segs.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    x0, y0, x1, y1 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    minx = np.minimum(x0, x1) - box_margin
    maxx = np.maximum(x0, x1) + box_margin
    miny = np.minimum(y0, y1) - box_margin
    maxy = np.maximum(y0, y1) + box_margin
    sep = (minx[:, None] > maxx[None, :]) | (miny[:, None] > maxy[None, :])
    sep |= sep.T
    rx = (x1 - x0)[:, None]
    ry = (y1 - y0)[:, None]
    # inf - inf produces nans here; the shaky mask below keeps those pairs.
    with np.errstate(invalid="ignore"):
        o1 = rx * (y0[None, :] - y0[:, None]) - ry * (x0[None, :] - x0[:, None])
        o2 = rx * (y1[None, :] - y0[:, None]) - ry * (x1[None, :] - x0[:, None])
        off = ((o1 > orient_eps) & (o2 > orient_eps)) | (
            (o1 < -orient_eps) & (o2 < -orient_eps)
        )
    sep |= off | off.T
    # Pairs with non-finite floats are never provably separated.
    shaky = ~np.isfinite(segs).all(axis=1)
    sep &= ~(shaky[:, None] | shaky[None, :])
    keep = np.triu(~sep, k=1)
    return np.argwhere(keep).astype(np.int64)


def classify_pairs(segs_int, pairs):
    """Exact contact decision for candidate pairs on integer coordinates.

    Args:
        segs_int: int64 array of shape (n, 4) holding x0, y0, x1, y1 per
            segment, pre-scaled by a common denominator; the caller must
            keep every value within INT_COORD_LIMIT in magnitude and every
            segment nondegenerate.
        pairs: int64 array of shape (m, 2) of segment index pairs.

    Returns:
        Arrays (code, unum, wnum, den) of length m.  code 0 means no
        contact.  code 1 means a single common point, at parameter
        unum/den along the first segment and wnum/den along the second,
        with den > 0 and both parameters in [0, 1] (fractions are left
        unreduced).  code 2 means the segments are collinear; the caller
        decides those pairs in rational arithmetic.
    """
    segs_int = np.asarray(segs_int, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    p = segs_int[pairs[:, 0]]
    q = segs_int[pairs[:, 1]]
    rx = p[:, 2] - p[:, 0]
    ry = p[:, 3] - p[:, 1]
    sx = q[:, 2] - q[:, 0]
    sy = q[:, 3] - q[:, 1]
    o1 = rx * (q[:, 1] - p[:, 1]) - ry * (q[:, 0] - p[:, 0])
    o2 = rx * (q[:, 3] - p[:, 1]) - ry * (q[:, 2] - p[:, 0])
    o3 = sx * (p[:, 1] - q[:, 1]) - sy * (p[:, 0] - q[:, 0])
    o4 = sx * (p[:, 3] - q[:, 1]) - sy * (p[:, 2] - q[:, 0])
    collinear = (o1 == 0) & (o2 == 0)
    off = ((o1 != 0) & (o2 != 0) & ((o1 > 0) == (o2 > 0))) | (
        (o3 != 0) & (o4 != 0) & ((o3 > 0) == (o4 > 0))
    )
    den = rx * sy - ry * sx
    dx = q[:, 0] - p[:, 0]
    dy = q[:, 1] - p[:, 1]
    unum = dx * sy - dy * sx
    wnum = dx * ry - dy * rx
    neg = den < 0
    den = np.where(neg, -den, den)
    unum = np.where(neg, -unum, unum)
    wnum = np.where(neg, -wnum, wnum)
    outside = (unum < 0) | (unum > den) | (wnum < 0) | (wnum > den)
    code = np.where(collinear, 2, np.where(off | outside, 0, 1)).astype(np.int8)
    point = code == 1
    zero = np.int64(0)
    return (
        code,
        np.where(point, unum, zero),
        np.where(point, wnum, zero),
        np.where(point, den, zero),
    )
