"""Kernel soundness: the prefilter may drop no contacting pair and must
return exactly the pairs of the dense all-pairs reference, and the integer
classifier must agree with the rational reference predicate."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from immersa import kernels
from immersa.geometry import segment_contact

# The largest magnitude the scan hands the prefilter: its boxes of a
# Python-int table stay below 2**62.
BIG = 2**62 - 1


def exact_contact_pairs(segs):
    pairs = set()
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p0 = (Fraction(segs[i][0]), Fraction(segs[i][1]))
            p1 = (Fraction(segs[i][2]), Fraction(segs[i][3]))
            q0 = (Fraction(segs[j][0]), Fraction(segs[j][1]))
            q1 = (Fraction(segs[j][2]), Fraction(segs[j][3]))
            if segment_contact(p0, p1, q0, q1)[0] != "none":
                pairs.add((i, j))
    return pairs


def random_segments(rng, n, denom=64, span=8):
    # Segments on the 1/denom grid in [-span, span]^2, scaled by denom.
    segs = []
    while len(segs) < n:
        vals = [rng.randint(-span * denom, span * denom) for _ in range(4)]
        if (vals[0], vals[1]) != (vals[2], vals[3]):
            segs.append(tuple(vals))
    return segs


def to_array(segs):
    return np.array(segs, dtype=np.int64).reshape(len(segs), 4)


def test_prefilter_keeps_every_contacting_pair():
    rng = random.Random(0)
    for trial in range(8):
        segs = random_segments(rng, 40)
        got = {tuple(p) for p in kernels.candidate_pairs(to_array(segs)).tolist()}
        assert exact_contact_pairs(segs) <= got


def test_empty_input():
    arr = np.zeros((0, 4), dtype=np.int64)
    assert len(kernels.candidate_pairs(arr)) == 0


def test_far_apart_segments_are_dropped():
    arr = np.array([[0, 0, 1, 0], [100, 100, 101, 100]], dtype=np.int64)
    assert len(kernels.candidate_pairs(arr)) == 0
    # Closed boxes: one unit closer, the boxes touch and the pair stays.
    arr = np.array([[0, 0, 1, 0], [1, 0, 101, 100]], dtype=np.int64)
    assert kernels.candidate_pairs(arr).tolist() == [[0, 1]]


def test_boxes_at_the_int64_extremes_survive():
    # A box spanning the largest magnitudes meets every other box; the
    # comparisons and pair keys do not overflow.
    arr = np.array([[0, 0, 1, 0], [-BIG, -BIG, BIG, BIG], [BIG - 1, BIG, BIG, BIG - 1]],
                   dtype=np.int64)
    got = kernels.candidate_pairs(arr)
    assert got.dtype == np.int64
    assert got.tolist() == [[0, 1], [1, 2]]


def dense_reference(segs):
    # All-pairs closed-box test with n x n temporaries: the reference that
    # the sort-and-sweep in candidate_pairs must match in values and order.
    segs = np.asarray(segs, dtype=np.int64)
    if segs.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    x0, y0, x1, y1 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    minx, maxx = np.minimum(x0, x1), np.maximum(x0, x1)
    miny, maxy = np.minimum(y0, y1), np.maximum(y0, y1)
    sep = (minx[:, None] > maxx[None, :]) | (miny[:, None] > maxy[None, :])
    sep |= sep.T
    return np.argwhere(np.triu(~sep, k=1)).astype(np.int64)


def assert_matches_reference(arr):
    got = kernels.candidate_pairs(arr)
    want = dense_reference(arr)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_sweep_matches_dense_reference():
    rng = random.Random(11)
    cases = [to_array(random_segments(rng, 40)) for _ in range(4)]
    # Long horizontal and vertical segments: every interval overlaps on one
    # axis, so the sweep has to pick the other.
    arr = to_array(random_segments(rng, 20))
    long_h = [[-6400, y, 6400, y] for y in range(-384, 385, 128)]
    long_v = [[x, -6400, x, 6400] for x in range(-384, 385, 192)]
    for extra in (long_h, long_v, long_h + long_v):
        cases.append(np.vstack([arr, to_array(extra)]))
    # Duplicate segments, in both orientations.
    cases.append(np.vstack([arr, arr[:8], arr[:8, [2, 3, 0, 1]]]))
    # Boxes at the largest magnitudes.
    wide = arr.copy()
    wide[3, 0], wide[7, 3], wide[11, 2] = BIG, -BIG, BIG
    cases.append(wide)
    # A grid polyline: consecutive segments share endpoints, so intervals
    # touch exactly.
    walk = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(30)]
    cases.append(to_array([[*a, *b] for a, b in zip(walk, walk[1:])]))
    # n = 0, 1 and 2.
    for n in (0, 1, 2):
        cases.append(arr[:n])
    cases.append(np.array([[0, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64))
    for arr in cases:
        assert_matches_reference(arr)


reference_coords = (
    st.integers(min_value=-4, max_value=4)
    | st.integers(min_value=-BIG, max_value=BIG)
    | st.sampled_from([BIG, -BIG])
)


@given(st.lists(st.tuples(*[reference_coords] * 4), max_size=14))
def test_sweep_matches_dense_reference_property(rows):
    assert_matches_reference(to_array(rows))


def test_prefilter_memory_is_subquadratic():
    # A flat strip: about 3.6M intervals overlap in y, about 9k in x, so the
    # bound also pins the sweep to the axis with fewer overlaps.
    rng = np.random.default_rng(6000)
    start = rng.uniform(0, 1, size=(6000, 2)) * (3000, 5)
    arr = np.hstack([start, start + rng.uniform(-1, 1, size=(6000, 2))])
    arr = np.round(arr * 2**20).astype(np.int64)
    tracemalloc.start()
    try:
        kernels.candidate_pairs(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A single 6000 x 6000 int64 temporary would take 288 MB.
    assert peak < 16 * 2**20


@given(st.integers(min_value=0, max_value=10**6))
def test_prefilter_soundness_random(seed):
    rng = random.Random(seed)
    segs = random_segments(rng, 12, denom=8, span=3)
    got = {tuple(p) for p in kernels.candidate_pairs(to_array(segs)).tolist()}
    assert exact_contact_pairs(segs) <= got


def int_segments(rng, n, span):
    segs = []
    while len(segs) < n:
        vals = [rng.randint(-span, span) for _ in range(4)]
        if (vals[0], vals[1]) != (vals[2], vals[3]):
            segs.append(tuple(vals))
    return np.array(segs, dtype=np.int64)


def all_pairs(n):
    return np.array(
        [(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64
    )


def reference_classification(segs, t, pairs):
    i, j = pairs[t]
    p0 = (Fraction(int(segs[i, 0])), Fraction(int(segs[i, 1])))
    p1 = (Fraction(int(segs[i, 2])), Fraction(int(segs[i, 3])))
    q0 = (Fraction(int(segs[j, 0])), Fraction(int(segs[j, 1])))
    q1 = (Fraction(int(segs[j, 2])), Fraction(int(segs[j, 3])))
    return segment_contact(p0, p1, q0, q1)


def test_classifier_matches_reference_predicate():
    # Small spans force plenty of touches, overlaps and shared endpoints.
    rng = random.Random(3)
    for span in (2, 5, 40):
        segs = int_segments(rng, 30, span)
        pairs = all_pairs(len(segs))
        code, unum, wnum, den, sign = kernels.classify_pairs(segs, pairs)
        for t in range(len(pairs)):
            # The sign of det[r, s] for the pair's directions r and s, in
            # Python ints; +1 for parallel pairs.
            (px0, py0, px1, py1), (qx0, qy0, qx1, qy1) = segs[pairs[t]].tolist()
            det = (px1 - px0) * (qy1 - qy0) - (py1 - py0) * (qx1 - qx0)
            assert sign[t] == (-1 if det < 0 else 1)
            kind, data = reference_classification(segs, t, pairs)
            if code[t] == 2:
                # Collinear pairs go back to the rational classifier, which
                # sees them as none, overlap or an endpoint touch.
                assert kind in ("none", "overlap", "point")
                continue
            if kind == "none":
                assert code[t] == 0
                continue
            assert kind == "point" and code[t] == 1
            _, u, w = data
            assert den[t] > 0
            assert Fraction(int(unum[t]), int(den[t])) == u
            assert Fraction(int(wnum[t]), int(den[t])) == w


def test_classifier_flags_collinear_pairs():
    segs = np.array(
        [[0, 0, 4, 0], [2, 0, 6, 0], [0, 1, 4, 1], [5, 0, 9, 0]], dtype=np.int64
    )
    pairs = all_pairs(4)
    code = kernels.classify_pairs(segs, pairs)[0]
    got = {tuple(pairs[t]): int(code[t]) for t in range(len(pairs))}
    assert got[(0, 1)] == 2  # overlapping collinear
    assert got[(0, 3)] == 2  # collinear, disjoint
    assert got[(1, 3)] == 2  # collinear, touching at one point
    assert got[(0, 2)] == 0  # parallel but not collinear


def test_classifier_reports_touch_parameters():
    # Shared endpoint: u = 1 on the first segment, w = 0 on the second.
    segs = np.array([[0, 0, 2, 2], [2, 2, 4, 0]], dtype=np.int64)
    pairs = np.array([[0, 1]], dtype=np.int64)
    code, unum, wnum, den, sign = kernels.classify_pairs(segs, pairs)
    assert code[0] == 1
    assert unum[0] == den[0] and wnum[0] == 0
    # det[(2, 2), (2, -2)] = -8.
    assert sign[0] == -1


def test_classifier_empty_pairs():
    segs = np.array([[0, 0, 1, 1]], dtype=np.int64)
    pairs = np.empty((0, 2), dtype=np.int64)
    code, unum, wnum, den, sign = kernels.classify_pairs(segs, pairs)
    assert len(code) == len(unum) == len(wnum) == len(den) == len(sign) == 0
