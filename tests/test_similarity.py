"""Exact similarities: moving a drawing by a translation, a power-of-ten
scale or a rotation by a Pythagorean angle changes no verdict, crossing or
rotation number, whichever integer path (int64 or Python ints) each drawing
takes, and whatever scale the prefilter's boxes take."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from immersa import kernels
from immersa.graphs import (
    complete_graph,
    enumerate_cycles,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    theta_graph,
)
from immersa.immersion import PlaneImmersion, crossings, random_immersion, rotation_number, validate
from test_weights import passes_rotation, rotation_oracle

GRAPHS = {"HG": heawood_graph, "K5": lambda: complete_graph(5), "T3": lambda: theta_graph(3)}
# More graphs for the rotation property, which draws HG, K5 and these.
MORE_GRAPHS = {"PG": petersen_graph, "multi-T3": lambda: multi_triangle(3),
               "theta4": lambda: theta_graph(4)}


@lru_cache(maxsize=None)
def graph(name):
    # One graph object per name, so its drawings share the per-graph data.
    return {**GRAPHS, **MORE_GRAPHS}[name]()


@lru_cache(maxsize=None)
def drawing(name, seed):
    return random_immersion(graph(name), seed)


def similar(imm, factor, shift):
    # imm with every point p sent to factor * p + shift.
    def move(p):
        return (p[0] * factor + shift[0], p[1] * factor + shift[1])

    return PlaneImmersion(imm.graph, {v: move(p) for v, p in imm.vertex_position.items()},
                          {e: [move(p) for p in pts] for e, pts in imm.edge_polyline.items()})


def rotated(imm, cos, sin):
    # imm with every point p turned by the matrix [[cos, -sin], [sin, cos]].
    def turn(p):
        return (p[0] * cos - p[1] * sin, p[0] * sin + p[1] * cos)

    return PlaneImmersion(imm.graph, {v: turn(p) for v, p in imm.vertex_position.items()},
                          {e: [turn(p) for p in pts] for e, pts in imm.edge_polyline.items()})


denominators = st.sampled_from([1, 3, 64, 10**8 + 7, 2**31 - 1, 2**61 - 1])
shifts = st.builds(Fraction, st.integers(-10**9, 10**9), denominators)


@given(st.sampled_from(sorted(GRAPHS)), st.integers(0, 4), st.integers(0, 14),
       st.tuples(shifts, shifts))
@example("HG", 0, 0, (Fraction(0), Fraction(0)))
@example("HG", 0, 14, (Fraction(1, 3), Fraction(-2)))
@example("K5", 1, 3, (Fraction(1, 2**61 - 1), Fraction(5, 64)))
def test_similarity_keeps_crossings_and_rotations(name, seed, k, shift):
    imm = drawing(name, seed)
    factor = 10**k
    moved = similar(imm, factor, shift)
    assert validate(moved) == validate(imm)
    assert list(moved._pair_crossings.items()) == list(imm._pair_crossings.items())
    before, after = crossings(imm), crossings(moved)
    assert [(r.id, r.geometric_sign) for r in after] == [
        (r.id, r.geometric_sign) for r in before]
    for r, s in zip(before, after):
        assert s.point == (r.point[0] * factor + shift[0], r.point[1] * factor + shift[1])
        assert (s.param_a, s.param_b) == (r.param_a, r.param_b)
    cycles = enumerate_cycles(graph(name))
    assert [rotation_number(moved, c) for c in cycles] == [
        rotation_number(imm, c) for c in cycles]


@seed(14)
@given(st.sampled_from(sorted(GRAPHS)), st.integers(0, 4), st.integers(-330, 420))
@example("HG", 0, 400)
@example("HG", 0, -315)
@example("K5", 2, -330)
def test_power_of_ten_scale_keeps_report_and_crossing_columns(name, seed, k):
    # From far below the smallest float to far past the largest: the same
    # report, and the same crossings row by row (segment pair, sign and
    # both parameters, compared as fractions).
    imm = drawing(name, seed)
    moved = similar(imm, Fraction(10)**k, (0, 0))
    assert validate(moved) == validate(imm)
    a, b = imm._scan[1], moved._scan[1]
    for column in ("left", "right", "sign"):
        assert getattr(b, column).tolist() == getattr(a, column).tolist()
    for nums in ("unum", "wnum"):
        assert [p * e == q * d for p, d, q, e in zip(
            getattr(a, nums).tolist(), a.den.tolist(),
            getattr(b, nums).tolist(), b.den.tolist())] == [True] * len(a.left)


# (a, b, c) with a^2 + b^2 = c^2: the rotation with cosine a/c and sine
# b/c maps rational points to rational points.
PYTHAGOREAN = [(3, 4, 5), (-5, 12, 13), (15, -8, 17), (-20, -21, 29), (0, 1, 1)]


@seed(16)
@settings(max_examples=12)
@given(st.sampled_from(["HG", "K5", *MORE_GRAPHS]), st.integers(0, 2),
       st.sampled_from(PYTHAGOREAN), st.integers(-8, 14))
@example("HG", 0, (3, 4, 5), 12)
@example("PG", 1, (-5, 12, 13), -8)
@example("theta4", 2, (0, 1, 1), 0)
def test_rotation_table_matches_exact_and_float_oracles(name, seed, triple, k):
    # A rotation by a Pythagorean angle and a scale by 10^k keep every
    # rotation number in both orientations.  The table of the moved drawing,
    # on int64 or, past INT_COORD_LIMIT either way, on Python ints, equals
    # the corner-by-corner sum of passes past +x on Fractions and the float
    # turning sum; the oracles, slow on Fractions, take about 36 cycles of
    # each drawing.
    imm = drawing(name, seed)
    a, b, c = triple
    moved = rotated(imm, Fraction(a, c) * Fraction(10)**k, Fraction(b, c) * Fraction(10)**k)
    assert validate(moved).ok
    cycles = enumerate_cycles(graph(name))
    stride = len(cycles) // 36 + 1
    for i, cycle in enumerate(cycles):
        for orientation in (1, -1):
            want = rotation_number(imm, cycle, orientation)
            assert rotation_number(moved, cycle, orientation) == want
            if i % stride == seed % stride:
                assert passes_rotation(moved, cycle, orientation) == want
                assert rotation_oracle(moved, cycle, orientation) == want


def test_similarities_cross_the_int64_limit_both_ways():
    # The generated drawings are int64; scaling by 10^14 or shifting by a
    # reciprocal past INT_COORD_LIMIT takes them to Python ints, and the
    # inverse similarity brings them back.
    imm = drawing("HG", 0)
    assert imm._scan[2][0].dtype == np.int64
    for factor, shift in ((10**14, (0, 0)), (1, (Fraction(1, 2**61 - 1), 0))):
        moved = similar(imm, factor, shift)
        assert moved._scan[2][0].dtype == object
        back = similar(moved, Fraction(1, factor),
                       (Fraction(-shift[0], factor), Fraction(-shift[1], factor)))
        assert back._scan[2][0].dtype == np.int64
        assert back.edge_polyline == imm.edge_polyline


def test_int64_kernel_at_the_coordinate_limit():
    # Coordinates of magnitude INT_COORD_LIMIT = L reach the largest int64
    # values classify_pairs forms: the diagonals of the square [-L, L]^2
    # have det = -8 L^2, and the int64 result equals the Python-int one,
    # the sign column included.
    lim = kernels.INT_COORD_LIMIT
    assert 8 * lim**2 < 2**63
    segs = np.array([[-lim, -lim, lim, lim], [-lim, lim, lim, -lim], [lim, -lim, -lim, lim],
                     [-lim, -lim, lim, -lim], [lim, lim, -lim, lim]], dtype=np.int64)
    pairs = np.array([(i, j) for i in range(5) for j in range(i + 1, 5)], dtype=np.int64)
    got = kernels.classify_pairs(segs, pairs)
    want = kernels.classify_pairs(segs.astype(object), pairs)
    for a, b in zip(got, want):
        assert a.dtype != object and a.tolist() == b.tolist()
    assert got[3][0] == 8 * lim**2 and got[1][0] == got[2][0] == 4 * lim**2
    dets = [(c - a) * (h - f) - (d - b) * (g - e)
            for (a, b, c, d), (e, f, g, h) in (segs[pair].tolist() for pair in pairs)]
    assert got[4].tolist() == [-1 if det < 0 else 1 for det in dets]
    assert got[4][0] == -1 and dets[0] == -8 * lim**2
