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
with the overlapping pairs, not with n^2.  The swept axis is the one on
which every 16th interval overlaps fewer others, so one full sweep runs;
that estimate is formed only when the sample holds two intervals or more
(n > 16), as a single interval ties the axes at axis 0.  The axis changes
only the speed, never the pairs or their order.

classify_pairs then decides exactly, on integer coordinates, the pairs its
caller hands it: the caller scales each pair of segments to integers.  The
scan of immersion hands it every candidate pair but the ordinary polyline
joints, segments s and s + 1 of one edge, which it decides off the
segments' directions; only when some joint folds back does it hand over
every candidate pair.  For segments p0 + u r and q0 + w s and d = q0 - p0
it forms three determinants only, den = det[r, s], unum = det[d, s] and
wnum = det[d, r]; the four orientations of the endpoints against the other
segment's line are -wnum and den - wnum (q0 and q1 on p's line) and unum
and unum - den (p0 and p1 on q's line), and the crossing sign is the sign
of den.  It runs on int64 when every scaled coordinate is at most
INT_COORD_LIMIT = L in magnitude: differences then reach 2 L, products
4 L^2, and each of the three determinants 8 L^2 < 2^63 for L = 10^9.  No
sum of two of them is formed: off collinear pairs, the segments meet
exactly when u = unum/den and w = wnum/den both lie in [0, 1], which
implies every orientation test.  Larger coordinates run through the same
numpy code on arrays of Python ints (dtype object), which cannot overflow.
classify_pairs decides the orientations exactly, so the prefilter needs no
orientation test.  Both kernels are vectorized numpy, and neither uses
floating point.
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
    # Sweep the axis with fewer overlaps, as every 16th interval estimates
    # them.  Among m intervals, the ordered pairs (i, j) with lo[j] <= hi[i]
    # are the m with i == j, both orders of each overlapping pair and one
    # order of each disjoint pair: m (m + 1) / 2 plus the overlapping pairs,
    # so the two ends may be sorted apart.  A sample of one interval (n <=
    # 16) counts 1 on both axes, a tie that picks axis 0, so it is not
    # formed.  The choice affects only speed.
    axis = 0 if n <= 16 else min((0, 1), key=lambda a: int(
        np.sort(lo[a][::16]).searchsorted(np.sort(hi[a][::16]), "right").sum()))
    # In lo order, an interval meets the later ones starting at or below
    # its hi; earlier ones pair it.  Any order of equal lo values counts
    # each pair once.
    after = np.arange(1, n + 1)
    order = lo[axis].argsort()
    count = lo[axis][order].searchsorted(hi[axis][order], "right") - after
    total = int(count.sum())
    first = order.repeat(count)
    second = order[np.arange(total) - (count.cumsum() - count - after).repeat(count)]
    lo, hi = lo[1 - axis], hi[1 - axis]
    box = ((lo[first] <= hi[second]) & (lo[second] <= hi[first])).nonzero()[0]
    first, second = first[box], second[box]
    # i * n + j < n**2 < 2**63 orders the pairs (i, j), i < j,
    # lexicographically.
    key = np.minimum(first, second) * n + np.maximum(first, second)
    key.sort()
    # Filled column by column, so each of the two is contiguous.
    out = np.empty((2, len(key)), dtype=np.int64)
    np.divmod(key, n, out=(out[0], out[1]))
    return out.T


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
        Arrays (code, unum, wnum, den, sign) of length m, of the dtype of
        segs_int except for the int8 code and the int64 sign.  code 0
        means no contact.  code 1 means a single common point, at
        parameter unum/den along the first segment and wnum/den along the
        second, with den > 0 and both parameters in [0, 1] (fractions are
        left unreduced).  code 2 means the segments are collinear; the
        caller compares their spans on the same integers.  sign is -1 when
        det[first direction, second direction] < 0, else +1: for code 1
        pairs, the side from which the second segment crosses the first.
        unum, wnum and den are meaningful only for code 1 pairs.
    """
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    # One gather per column: fancy indexing a 2-d table is much slower.
    x0, y0, x1, y1 = np.asarray(segs_int).T
    p0x, p0y, p1x, p1y = x0[i], y0[i], x1[i], y1[i]
    q0x, q0y, q1x, q1y = x0[j], y0[j], x1[j], y1[j]
    rx, ry = p1x - p0x, p1y - p0y
    sx, sy = q1x - q0x, q1y - q0y
    dx, dy = q0x - p0x, q0y - p0y
    # The three determinants every orientation is made of: q0 and q1 lie
    # on p's line at orientations -wnum and den - wnum, and p0 and p1 on
    # q's line at unum and unum - den.
    den = rx * sy - ry * sx
    unum = dx * sy - dy * sx
    wnum = dx * ry - dy * rx
    collinear = (wnum == 0) & (den == 0)
    sign = np.where(den < 0, -1, 1)
    den = den * sign
    unum = unum * sign
    wnum = wnum * sign
    # Off collinear pairs, the segments meet exactly when both parameters
    # lie in [0, 1]: for den != 0 they place the one common point of the
    # two lines, and parallel lines apart have den == 0 and wnum != 0.  So
    # the four orientation tests need no pass of their own.
    outside = (unum < 0) | (unum > den) | (wnum < 0) | (wnum > den)
    code = np.where(collinear, 2, ~outside).astype(np.int8)
    return code, unum, wnum, den, sign
