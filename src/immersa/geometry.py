"""Exact planar predicates over rational coordinates.

Points are pairs of Fractions.  Every predicate here is decided in exact
arithmetic.  The scan prefilters and decides contacts on integer tables
(kernels); segment_contact is the rational reference they are tested
against.
"""

from __future__ import annotations

from fractions import Fraction


def as_point(xy):
    """Coerce a coordinate pair to exact Fractions.

    Accepts ints, Fractions, decimal strings and floats (floats convert via
    their exact binary value).
    """
    x, y = xy
    if type(x) is Fraction and type(y) is Fraction:
        return (x, y)
    return (Fraction(x), Fraction(y))


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def orient(a, b, c):
    """Twice the signed area of triangle abc; > 0 when c lies left of ab."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segment_contact(p0, p1, q0, q1):
    """Classify the intersection of two closed segments, exactly.

    Segments must be nondegenerate (p0 != p1, q0 != q1).

    Returns:
        ("none", None) for disjoint segments;
        ("overlap", None) for collinear intersection in more than one point;
        ("point", (point, u, w)) for a single common point, with u and w the
        rational position parameters on [0, 1] along each segment.
    """
    o1 = orient(p0, p1, q0)
    o2 = orient(p0, p1, q1)
    o3 = orient(q0, q1, p0)
    o4 = orient(q0, q1, p1)
    if o1 == 0 and o2 == 0:
        # Collinear lines: compare along a non-constant axis.
        axis = 0 if p0[0] != p1[0] else 1
        s_lo, s_hi = sorted((p0[axis], p1[axis]))
        t_lo, t_hi = sorted((q0[axis], q1[axis]))
        lo = max(s_lo, t_lo)
        hi = min(s_hi, t_hi)
        if lo > hi:
            return ("none", None)
        if lo < hi:
            return ("overlap", None)
        point = p0 if p0[axis] == lo else p1
        u = Fraction(0) if point == p0 else Fraction(1)
        w = Fraction(0) if point == q0 else Fraction(1)
        return ("point", (point, u, w))
    if o1 != 0 and o2 != 0 and (o1 > 0) == (o2 > 0):
        return ("none", None)
    if o3 != 0 and o4 != 0 and (o3 > 0) == (o4 > 0):
        return ("none", None)
    r = sub(p1, p0)
    s = sub(q1, q0)
    denom = cross(r, s)
    # Parallel lines were fully handled above, so the lines meet once.
    d = sub(q0, p0)
    u = Fraction(cross(d, s), denom)
    w = Fraction(cross(d, r), denom)
    if not (0 <= u <= 1 and 0 <= w <= 1):
        return ("none", None)
    point = (p0[0] + u * r[0], p0[1] + u * r[1])
    return ("point", (point, u, w))
