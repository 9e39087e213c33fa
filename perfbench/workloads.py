"""The four workloads of the immersa benchmark.

A workload is built from the library package and a seed.  Its constructor
is the set-up: it builds graphs, generates every input that does not
depend on the op index, warms the library's per-graph caches and runs one
untimed warm-up op.  After that, op(i) runs op number i and returns None
when every law it checks holds, or a one-line reason when one does not.
The inputs of op i are a pure function of (workload, seed, i), and
replay(i) rebuilds them as text in the library's file formats.

Every library call goes through an attribute of the package at call time,
so that the traced run sees it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# Index of the untimed warm-up op; the timed loop never gets this far.
WARM_UP = 2**31


def op_seed(seed, i):
    """Seed of op i of a run with the given seed."""
    return seed * 2**32 + i


class HgLifts:
    """Random over/under lifts of a pool of Heawood immersions.

    Each op checks L odd, L = kappa(f, 2) (mod 2) and TB_k = q_k * TB_6,
    with q_k from tb_ratio.
    """

    # Op times differ by about 17% between immersions; averaging over 64
    # of them keeps the run-to-run spread of ops_per_s near 2%.
    POOL = 64

    def __init__(self, im, seed):
        self.im = im
        self.seed = seed
        graph = im.heawood_graph()
        lengths = sorted({len(c) for c in im.enumerate_cycles(graph)})
        self.base = im.girth(graph)
        self.ratios = {k: im.tb_ratio(graph, self.base, k)
                       for k in lengths if k != self.base}
        _check_ratios(im.census_table(graph, lengths), self.base, self.ratios)
        im.epsilon_table("HG")
        rng = random.Random(f"hg-lifts:{seed}")
        self.immersions = [im.random_immersion(graph, seed=rng.getrandbits(32))
                           for _ in range(self.POOL)]
        self.op(WARM_UP)

    def _lift(self, i):
        return self.im.random_lift(self.immersions[i % self.POOL],
                                   seed=op_seed(self.seed, i))

    def op(self, i):
        im = self.im
        diagram = self._lift(i)
        value = im.L_invariant(diagram, "HG")
        kap = im.kappa(diagram.immersion, 2)
        table = im.tb_by_length(diagram)
        if value % 2 != 1 or (value - kap) % 2:
            return f"L = {value}, kappa = {kap}"
        anchor = table[self.base]
        for k, q in self.ratios.items():
            if q is None or table[k] != q * anchor:
                return f"TB_{k} = {table[k]}, expected {q} * TB_{self.base} = {q} * {anchor}"
        return None

    def replay(self, i):
        return ".dgm", self.im.serialize_diagram(self._lift(i))


def _check_ratios(rows, base, ratios):
    # The TB ratios the campaign checks must be the census ratios: the edge,
    # adjacent-pair and disjoint-pair (beta) columns of a k-row are q_k
    # times the base row's.
    by_k = {row.k: row for row in rows}
    columns = ("alpha_edge", "alpha_adjacent", "beta_dist1", "beta_dist2")
    for k, q in ratios.items():
        for col in columns:
            ref, value = getattr(by_k[base], col), getattr(by_k[k], col)
            if q is None or (ref is not None and value != q * ref):
                raise ValueError(f"tb_ratio {q} disagrees with census column {col} at k={k}")


class HgImmersions:
    """Seeded random Heawood immersions, each checked against the HG
    parity theorem and rot - c odd on all of its cycles."""

    def __init__(self, im, seed):
        self.im = im
        self.seed = seed
        self.graph = im.heawood_graph()
        self.cycles = im.enumerate_cycles(self.graph)
        self.op(WARM_UP)

    def _immersion(self, i):
        return self.im.random_immersion(self.graph, seed=op_seed(self.seed, i))

    def op(self, i):
        im = self.im
        f = self._immersion(i)
        for v in im.run_checks(f, "HG-parity"):
            if not v.ok:
                return f"{v.check} = {v.value}, expected {v.expected}"
        for cycle in self.cycles:
            rot = im.rotation_number(f, cycle)
            c = im.cycle_crossing_number(f, cycle)
            if (rot - c) % 2 != 1:
                return f"cycle {cycle.steps} has rot {rot}, c {c}"
        return None

    def replay(self, i):
        return ".imm", self.im.serialize_immersion(self._immersion(i))


class DenseDrawings:
    """Large K5 and K3,3 drawings generated by the benchmark itself.

    Every edge is a polyline of SEGMENTS / |E| segments whose breakpoints
    are the points of the straight edge jittered by up to JITTER grid
    units.  Coordinates are integers on [0, GRID]^2 divided by DEN.  The
    set-up counts each drawing's proper crossings with its own exact
    integer sweep (crossing_oracle) and redraws a drawing in which any two
    segments touch without crossing properly.  A triple point, which the
    oracle does not look for, would fail the op's validate check.
    """

    SEGMENTS = 1600
    GRID = 2**20
    DEN = 2**10
    JITTER = 10000
    # An odd count, so that the median op falls inside one drawing's ops.
    SHAPES = ("K5", "K33", "K5", "K33", "K5")

    def __init__(self, im, seed):
        self.im = im
        self.seed = seed
        rng = random.Random(f"dense-drawings:{seed}")
        self.drawings = []
        for theorem in self.SHAPES:
            if theorem == "K5":
                graph = im.complete_graph(5)
                ring = graph.vertices
            else:
                graph = im.complete_bipartite_graph(3, 3)
                ring = ("a1", "b1", "a2", "b2", "a3", "b3")
            while True:
                positions, polylines = self._draw(graph, ring, rng)
                expected, degenerate = crossing_oracle(
                    segment_array(graph, polylines))
                if not degenerate:
                    break
            frac = self._fraction_point
            self.drawings.append((
                graph, theorem,
                {v: frac(p) for v, p in positions.items()},
                {e: tuple(frac(p) for p in pts) for e, pts in polylines.items()},
                expected,
            ))
        self.op(WARM_UP)

    def _fraction_point(self, p):
        return (Fraction(p[0], self.DEN), Fraction(p[1], self.DEN))

    def _draw(self, graph, ring, rng):
        # Vertices on a circle in ring order, each nudged by the seed; the
        # circle, nudge and jitter keep every point inside [0, GRID]^2.
        half = self.GRID // 2
        radius = 0.4 * self.GRID
        nudge = self.GRID // 64
        positions = {}
        for n, v in enumerate(ring):
            angle = 2 * math.pi * n / len(ring)
            positions[v] = (half + int(radius * math.cos(angle)) + rng.randint(-nudge, nudge),
                            half + int(radius * math.sin(angle)) + rng.randint(-nudge, nudge))
        used = set(positions.values())
        per = self.SEGMENTS // len(graph.edges)
        polylines = {}
        for name, tail, head in graph.edges:
            (x0, y0), (x1, y1) = positions[tail], positions[head]
            pts = [(x0, y0)]
            for s in range(1, per):
                while True:
                    p = (x0 + (x1 - x0) * s // per + rng.randint(-self.JITTER, self.JITTER),
                         y0 + (y1 - y0) * s // per + rng.randint(-self.JITTER, self.JITTER))
                    if p not in used:
                        break
                used.add(p)
                pts.append(p)
            pts.append((x1, y1))
            polylines[name] = pts
        return positions, polylines

    def _immersion(self, i):
        graph, _, positions, polylines, _ = self.drawings[i % len(self.drawings)]
        return self.im.PlaneImmersion(graph, positions, polylines)

    def op(self, i):
        im = self.im
        _, theorem, _, _, expected = self.drawings[i % len(self.drawings)]
        f = self._immersion(i)
        report = im.validate(f)
        if not report.ok:
            return f"drawing is not generic: {report.summary()[:200]}"
        found = len(im.crossings(f))
        if found != expected:
            return f"{found} crossings, the oracle counts {expected}"
        for v in im.run_checks(f, theorem):
            if not v.ok:
                return f"{v.check} = {v.value}, expected {v.expected}"
        return None

    def replay(self, i):
        return ".imm", self.im.serialize_immersion(self._immersion(i))


def segment_array(graph, polylines):
    """int64 array (n, 4) of x0, y0, x1, y1 over every polyline segment."""
    rows = []
    for name in graph.edge_names:
        pts = polylines[name]
        rows.extend((*pts[s], *pts[s + 1]) for s in range(len(pts) - 1))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def crossing_oracle(segs, chunk=256):
    """Exact count of properly crossing segment pairs, and of degenerate pairs.

    A pair is proper when each segment's endpoints lie strictly on both
    sides of the other's line.  A pair is degenerate when the segments meet
    any other way: touching, collinear, or sharing an endpoint while
    parallel.  Pairs that share an endpoint and are not parallel meet only
    there, which is a legal polyline joint or vertex.  Only pairs whose
    closed bounding boxes meet can meet at all.  Integer coordinates must
    stay below 2**30 so that every determinant fits int64.
    """
    lo = np.minimum(segs[:, :2], segs[:, 2:])
    hi = np.maximum(segs[:, :2], segs[:, 2:])
    proper = degenerate = 0
    for start in range(0, len(segs), chunk):
        stop = start + chunk
        boxes = ((lo[start:stop, None, 0] <= hi[None, start:, 0])
                 & (lo[None, start:, 0] <= hi[start:stop, None, 0])
                 & (lo[start:stop, None, 1] <= hi[None, start:, 1])
                 & (lo[None, start:, 1] <= hi[start:stop, None, 1]))
        i, j = np.nonzero(boxes)
        keep = j > i
        a, b = segs[start + i[keep]], segs[start + j[keep]]
        ax0, ay0, ax1, ay1 = a.T
        bx0, by0, bx1, by1 = b.T
        adx, ady, bdx, bdy = ax1 - ax0, ay1 - ay0, bx1 - bx0, by1 - by0
        s1 = np.sign(adx * (by0 - ay0) - ady * (bx0 - ax0))
        s2 = np.sign(adx * (by1 - ay0) - ady * (bx1 - ax0))
        s3 = np.sign(bdx * (ay0 - by0) - bdy * (ax0 - bx0))
        s4 = np.sign(bdx * (ay1 - by0) - bdy * (ax1 - bx0))
        shared = (((ax0 == bx0) & (ay0 == by0)) | ((ax0 == bx1) & (ay0 == by1))
                  | ((ax1 == bx0) & (ay1 == by0)) | ((ax1 == bx1) & (ay1 == by1)))
        parallel = adx * bdy - ady * bdx == 0
        crossing = (s1 * s2 < 0) & (s3 * s4 < 0)
        meeting = (s1 * s2 <= 0) & (s3 * s4 <= 0)
        proper += int(np.count_nonzero(crossing & ~shared))
        degenerate += int(np.count_nonzero(np.where(shared, parallel, meeting & ~crossing)))
    return proper, degenerate


class SpConstruct:
    """Zero-rotation constructions on a new graph every op.

    Op i uses a seeded random_sp_graph, except that every K4_EVERY-th op
    uses a wheel or a subdivided K4 that the benchmark builds, which must be
    refused with a K4MinorError carrying a reduction trace.
    """

    K4_EVERY = 8

    def __init__(self, im, seed):
        self.im = im
        self.seed = seed
        self.op(WARM_UP)
        self.op(WARM_UP + self.K4_EVERY - 1)

    def _refused(self, i):
        return i % self.K4_EVERY == self.K4_EVERY - 1

    def _graph(self, i):
        s = op_seed(self.seed, i)
        if self._refused(i):
            return k4_minor_graph(self.im, random.Random(s))
        return self.im.random_sp_graph(s)

    def op(self, i):
        im = self.im
        graph = self._graph(i)
        if self._refused(i):
            try:
                im.construct_zero_rotation(graph)
            except im.K4MinorError as exc:
                return None if exc.trace else "K4MinorError without a reduction trace"
            return "a graph with a K4 minor was not refused"
        f = im.construct_zero_rotation(graph)
        report = im.validate(f)
        if not report.ok:
            return f"construction is not generic: {report.summary()[:200]}"
        ok, cycle = im.verify_zero(f)
        if not ok:
            return f"cycle {cycle.steps} has nonzero rotation"
        return None

    def replay(self, i):
        return ".graph", self.im.serialize_graph(self._graph(i))


def k4_minor_graph(im, rng):
    """A wheel with 3 to 7 spokes, or K4 with each edge subdivided 0 to 2
    times; either way the graph has a K4 minor."""
    edges = []
    if rng.random() < 0.5:
        n = rng.randint(3, 7)
        vertices = ["h"] + [f"r{j}" for j in range(n)]
        for j in range(n):
            edges.append((f"s{j}", "h", f"r{j}"))
            edges.append((f"c{j}", f"r{j}", f"r{(j + 1) % n}"))
        return im.MultiGraph(tuple(vertices), tuple(edges))
    vertices = ["k0", "k1", "k2", "k3"]
    for a in range(4):
        for b in range(a + 1, 4):
            path = [f"k{a}"]
            for _ in range(rng.randint(0, 2)):
                path.append(f"m{len(vertices)}")
                vertices.append(path[-1])
            path.append(f"k{b}")
            for u, w in zip(path, path[1:]):
                edges.append((f"e{len(edges)}", u, w))
    return im.MultiGraph(tuple(vertices), tuple(edges))


WORKLOADS = {
    "hg-lifts": HgLifts,
    "hg-immersions": HgImmersions,
    "dense-drawings": DenseDrawings,
    "sp-construct": SpConstruct,
}
