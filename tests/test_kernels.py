"""Kernel soundness: the prefilter may drop no contacting pair and must
return exactly the pairs of the dense all-pairs reference, and the integer
classifier must agree with the rational reference predicate."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from immersa import kernels
from immersa.geometry import segment_contact


def exact_contact_pairs(segs):
    pairs = set()
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p0 = (segs[i][0], segs[i][1])
            p1 = (segs[i][2], segs[i][3])
            q0 = (segs[j][0], segs[j][1])
            q1 = (segs[j][2], segs[j][3])
            if segment_contact(p0, p1, q0, q1)[0] != "none":
                pairs.add((i, j))
    return pairs


def random_segments(rng, n, denom=64, span=8):
    segs = []
    while len(segs) < n:
        vals = [Fraction(rng.randint(-span * denom, span * denom), denom) for _ in range(4)]
        if (vals[0], vals[1]) != (vals[2], vals[3]):
            segs.append(tuple(vals))
    return segs


def to_array(segs):
    return np.array([[float(x) for x in s] for s in segs], dtype=np.float64)


def test_prefilter_keeps_every_contacting_pair():
    rng = random.Random(0)
    for trial in range(8):
        segs = random_segments(rng, 40)
        arr = to_array(segs)
        margin = kernels.rounding_bounds(float(np.max(np.abs(arr))))
        got = {tuple(p) for p in kernels.candidate_pairs(arr, margin)}
        assert exact_contact_pairs(segs) <= got


def test_empty_input():
    arr = np.zeros((0, 4))
    assert len(kernels.candidate_pairs(arr, 0.1)) == 0


def test_far_apart_segments_are_dropped():
    arr = np.array([[0, 0, 1, 0], [100, 100, 101, 100]], dtype=np.float64)
    margin = kernels.rounding_bounds(101.0)
    assert len(kernels.candidate_pairs(arr, margin)) == 0


def test_nonfinite_segments_always_survive():
    arr = np.array([[0, 0, 1, 0], [math.inf, 0, 100, 0]], dtype=np.float64)
    margin = kernels.rounding_bounds(math.inf)
    got = kernels.candidate_pairs(arr, margin)
    assert [tuple(p) for p in got] == [(0, 1)]


def dense_reference(segs, box_margin):
    # All-pairs box test with n x n temporaries: the reference that the
    # sort-and-sweep in candidate_pairs must match in values and order.
    segs = np.ascontiguousarray(segs, dtype=np.float64)
    if segs.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    x0, y0, x1, y1 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    with np.errstate(invalid="ignore", over="ignore"):
        minx = np.minimum(x0, x1) - box_margin
        maxx = np.maximum(x0, x1) + box_margin
        miny = np.minimum(y0, y1) - box_margin
        maxy = np.maximum(y0, y1) + box_margin
        sep = (minx[:, None] > maxx[None, :]) | (miny[:, None] > maxy[None, :])
        sep |= sep.T
    shaky = ~np.isfinite(segs).all(axis=1)
    sep &= ~(shaky[:, None] | shaky[None, :])
    return np.argwhere(np.triu(~sep, k=1)).astype(np.int64)


def assert_matches_reference(arr, box_margin):
    got = kernels.candidate_pairs(arr, box_margin)
    want = dense_reference(arr, box_margin)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_sweep_matches_dense_reference():
    rng = random.Random(11)
    cases = []
    for _ in range(4):
        arr = to_array(random_segments(rng, 40))
        cases.append((arr, kernels.rounding_bounds(float(np.max(np.abs(arr))))))
    # Long horizontal and vertical segments: every interval overlaps on one
    # axis, so the sweep has to pick the other.
    arr = to_array(random_segments(rng, 20))
    long_h = [[-100, y, 100, y] for y in range(-6, 7, 2)]
    long_v = [[x, -100, x, 100] for x in range(-6, 7, 3)]
    for extra in (long_h, long_v, long_h + long_v):
        both = np.vstack([arr, np.array(extra, dtype=np.float64)])
        cases.append((both, kernels.rounding_bounds(100.0)))
    # Duplicate segments, in both orientations.
    dup = np.vstack([arr, arr[:8], arr[:8, [2, 3, 0, 1]]])
    cases.append((dup, kernels.rounding_bounds(8.0)))
    # Rows with inf or nan.
    shaky = arr.copy()
    shaky[3, 0], shaky[7, 3], shaky[11, 2] = math.inf, -math.inf, math.nan
    cases += [(shaky, 1e-9), (shaky, kernels.rounding_bounds(math.inf))]
    # An infinite box margin.
    cases.append((arr, math.inf))
    # A grid polyline with no slack: consecutive segments share endpoints,
    # so intervals touch exactly.
    walk = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(30)]
    chain = np.array([[*a, *b] for a, b in zip(walk, walk[1:])], dtype=np.float64)
    cases.append((chain, 0.0))
    # n = 0, 1 and 2.
    for n in (0, 1, 2):
        cases.append((arr[:n], 1e-9))
    cases.append((np.array([[0, 0, 1, 1], [0, 1, 1, 0]], dtype=np.float64), 0.0))
    for arr, box_margin in cases:
        assert_matches_reference(arr, box_margin)


reference_coords = (
    st.integers(min_value=-4, max_value=4).map(float)
    | st.floats(min_value=-5, max_value=5)
    | st.sampled_from([math.inf, -math.inf, math.nan])
)


@given(
    st.lists(st.tuples(*[reference_coords] * 4), max_size=14),
    st.sampled_from([0.0, 0.25, math.inf]),
)
def test_sweep_matches_dense_reference_property(rows, box_margin):
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
    assert_matches_reference(arr, box_margin)


def test_prefilter_memory_is_subquadratic():
    # A flat strip: about 3.6M intervals overlap in y, about 9k in x, so the
    # bound also pins the sweep to the axis with fewer overlaps.
    rng = np.random.default_rng(6000)
    start = rng.uniform(0, 1, size=(6000, 2)) * (3000, 5)
    arr = np.hstack([start, start + rng.uniform(-1, 1, size=(6000, 2))])
    margin = kernels.rounding_bounds(float(np.max(np.abs(arr))))
    tracemalloc.start()
    try:
        kernels.candidate_pairs(arr, margin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A single 6000 x 6000 float64 temporary would take 288 MB.
    assert peak < 16 * 2**20


def test_rounding_bounds_grow_with_coordinates():
    assert 0 < kernels.rounding_bounds(1.0) < kernels.rounding_bounds(1000.0)
    assert math.isfinite(kernels.rounding_bounds(2.0**510))
    assert kernels.rounding_bounds(math.inf) == math.inf


@given(st.integers(min_value=0, max_value=10**6))
def test_prefilter_soundness_random(seed):
    rng = random.Random(seed)
    segs = random_segments(rng, 12, denom=8, span=3)
    arr = to_array(segs)
    margin = kernels.rounding_bounds(float(np.max(np.abs(arr))))
    got = {tuple(p) for p in kernels.candidate_pairs(arr, margin)}
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
        code, unum, wnum, den = kernels.classify_pairs(segs, pairs)
        for t in range(len(pairs)):
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
    code, _, _, _ = kernels.classify_pairs(segs, pairs)
    got = {tuple(pairs[t]): int(code[t]) for t in range(len(pairs))}
    assert got[(0, 1)] == 2  # overlapping collinear
    assert got[(0, 3)] == 2  # collinear, disjoint
    assert got[(1, 3)] == 2  # collinear, touching at one point
    assert got[(0, 2)] == 0  # parallel but not collinear


def test_classifier_reports_touch_parameters():
    # Shared endpoint: u = 1 on the first segment, w = 0 on the second.
    segs = np.array([[0, 0, 2, 2], [2, 2, 4, 0]], dtype=np.int64)
    pairs = np.array([[0, 1]], dtype=np.int64)
    code, unum, wnum, den = kernels.classify_pairs(segs, pairs)
    assert code[0] == 1
    assert unum[0] == den[0] and wnum[0] == 0


def test_classifier_empty_pairs():
    segs = np.array([[0, 0, 1, 1]], dtype=np.int64)
    pairs = np.empty((0, 2), dtype=np.int64)
    code, unum, wnum, den = kernels.classify_pairs(segs, pairs)
    assert len(code) == len(unum) == len(wnum) == len(den) == 0
