"""Segment-pair kernels: the two hot loops in crossing extraction.

candidate_pairs takes all polyline segments of an immersion as one int64
table on one scale and reports the pairs whose closed bounding boxes meet.
The test is exact, so a pair is dropped only when its segments are provably
apart, and the exact classifier downstream never misses a contact.  The
caller hands it its int64 segment table as it is; a Python-int table is
boxed first, each box rounded outward onto one int64 scale, which can only
add pairs.  It sorts and sweeps (Bentley and Ottmann, IEEE Trans. Computers
1979): only segments whose intervals overlap on one axis become pairs, and
only those take the box test on the other axis, so time and memory grow
with the overlapping pairs, not with n^2.

classify_pairs then decides the surviving pairs exactly on integer
coordinates: the caller scales each pair of segments to integers.  It runs
on int64 when every scaled coordinate is at most INT_COORD_LIMIT = L in
magnitude: differences then reach 2 L, products 4 L^2, and the orientation
determinants, parameter numerators and denominators 8 L^2 < 2^63 for
L = 10^9.  Larger coordinates run through the same numpy code on arrays of
Python ints (dtype object), which cannot overflow.  classify_pairs decides
the orientations exactly, so the prefilter needs no orientation test.
Both kernels are vectorized numpy, and neither uses floating point.
"""

import numpy as np

# Largest scaled coordinate magnitude classify_pairs takes in int64: its
# determinants stay below 8 * INT_COORD_LIMIT**2 = 8e18 < 2**63.
INT_COORD_LIMIT = 10**9


def candidate_pairs(segs):
    """Indices (i, j), i < j, of segment pairs whose closed bounding boxes
    meet.

    Args:
        segs: int64 array of shape (n, 4) holding x0, y0, x1, y1 per
            segment, every row on one scale; a row may also be a box
            (xlo, ylo, xhi, yhi) that contains its segment.

    Returns:
        int64 array of shape (m, 2) in lexicographic order.  Guaranteed to
        contain every pair of segments that intersect.
    """
    segs = np.asarray(segs, dtype=np.int64)
    n = len(segs)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    x0, y0, x1, y1 = segs.T
    lo = (np.minimum(x0, x1), np.minimum(y0, y1))
    hi = (np.maximum(x0, x1), np.maximum(y0, y1))
    # Sweep the axis with fewer overlaps.  In lo order, an interval meets the
    # later ones starting at or below its hi; earlier ones pair it.  Any
    # order of equal lo values counts each pair once.
    after = np.arange(1, n + 1)
    sweeps = []
    for axis in (0, 1):
        order = np.argsort(lo[axis])
        count = np.searchsorted(lo[axis][order], hi[axis][order], "right") - after
        sweeps.append((int(count.sum()), axis, order, count))
    total, axis, order, count = min(sweeps, key=lambda s: s[0])
    first = np.repeat(order, count)
    second = order[np.arange(total) - np.repeat(np.cumsum(count) - count - after, count)]
    lo, hi = lo[1 - axis], hi[1 - axis]
    box = (lo[first] <= hi[second]) & (lo[second] <= hi[first])
    first, second = first[box], second[box]
    # i * n + j < n**2 < 2**63 orders the pairs (i, j), i < j,
    # lexicographically.
    key = np.sort(np.minimum(first, second) * n + np.maximum(first, second))
    return np.stack(np.divmod(key, n), axis=1)


def classify_pairs(segs_int, pairs):
    """Exact contact decision for candidate pairs on integer coordinates.

    Args:
        segs_int: Integer array of shape (n, 4) holding x0, y0, x1, y1 per
            segment, the two segments of each pair scaled by one positive
            common denominator; every segment nondegenerate.  int64 needs
            every value within INT_COORD_LIMIT in magnitude; dtype object
            (Python ints) takes any size.
        pairs: int64 array of shape (m, 2) of segment index pairs.

    Returns:
        Arrays (code, unum, wnum, den) of length m, of the dtype of
        segs_int except for the int8 code.  code 0 means no contact.
        code 1 means a single common point, at parameter unum/den along
        the first segment and wnum/den along the second, with den > 0 and
        both parameters in [0, 1] (fractions are left unreduced).  code 2
        means the segments are collinear; the caller compares their spans
        on the same integers.
    """
    segs_int = np.asarray(segs_int)
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
    return code, np.where(point, unum, 0), np.where(point, wnum, 0), np.where(point, den, 0)
