"""Genericity validation, crossing extraction and rotation numbers."""

import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from immersa import geometry, immersion, kernels
from immersa.formats import serialize_immersion
from immersa.geometry import segment_contact
from immersa.graphs import (
    INFINITE_DISTANCE,
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    enumerate_cycles,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    theta_graph,
)
from immersa.immersion import (
    PlaneImmersion,
    crossings,
    cycle_crossing_number,
    kappa,
    random_immersion,
    rotation_number,
    rotation_sum,
    sum_crossing,
    validate,
)
from immersa.sp import construct_zero_rotation, verify_zero
from immersa.verify import run_checks
from test_weights import GRAPHS as WEIGHT_GRAPHS
from test_weights import passes


def param_location(t):
    # Where a parameter sits on a segment: "start", "end" or "interior".
    if t == 0:
        return "start"
    if t == 1:
        return "end"
    return "interior"


def oracle_pair_counts(imm):
    # Independent all-pairs reference: exact primitives only, no prefilter.
    segments = []
    for name in imm.graph.edge_names:
        pts = imm.edge_polyline[name]
        for i in range(len(pts) - 1):
            segments.append((name, pts[i], pts[i + 1]))
    index = imm.graph.edge_index
    counts = {}
    points = set()
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            na, a0, a1 = segments[i]
            nb, b0, b1 = segments[j]
            kind, data = segment_contact(a0, a1, b0, b1)
            if kind != "point":
                continue
            point, u, w = data
            if param_location(u) == "interior" and param_location(w) == "interior":
                key = (na, nb) if index[na] <= index[nb] else (nb, na)
                counts[key] = counts.get(key, 0) + 1
                points.add(point)
    return counts, points


def two_disjoint_edges():
    return MultiGraph(("a", "b", "c", "d"), (("ab", "a", "b"), ("cd", "c", "d")))


def straight_cross():
    g = two_disjoint_edges()
    return PlaneImmersion(
        g,
        {"a": (-1, -1), "b": (1, 1), "c": (-1, 1), "d": (1, -1)},
        {"ab": ((-1, -1), (1, 1)), "cd": ((-1, 1), (1, -1))},
    )


def violation_kinds(imm):
    report = validate(imm)
    assert not report.ok
    return {kind for kind, _ in report.violations}


class TestConstruction:
    def test_coordinates_become_fractions(self):
        imm = straight_cross()
        assert imm.vertex_position["a"] == (Fraction(-1), Fraction(-1))
        assert all(
            isinstance(x, Fraction)
            for pts in imm.edge_polyline.values()
            for p in pts
            for x in p
        )

    def test_missing_vertex_position_rejected(self):
        g = two_disjoint_edges()
        with pytest.raises(ValueError, match="vertex positions"):
            PlaneImmersion(g, {"a": (0, 0)}, {})

    def test_missing_polyline_rejected(self):
        g = two_disjoint_edges()
        pos = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
        with pytest.raises(ValueError, match="missing polyline"):
            PlaneImmersion(g, pos, {"ab": ((0, 0), (1, 0))})

    def test_short_polyline_rejected(self):
        g = two_disjoint_edges()
        pos = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
        with pytest.raises(ValueError, match="at least two"):
            PlaneImmersion(g, pos, {"ab": ((0, 0),), "cd": ((0, 1), (1, 1))})

    def test_unknown_edge_rejected(self):
        g = two_disjoint_edges()
        pos = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
        poly = {"ab": ((0, 0), (1, 0)), "cd": ((0, 1), (1, 1)), "zz": ((0, 0), (1, 1))}
        with pytest.raises(ValueError, match="unknown edges"):
            PlaneImmersion(g, pos, poly)


class TestSimpleCrossing:
    def test_single_transversal_crossing(self):
        imm = straight_cross()
        assert validate(imm).ok
        recs = crossings(imm)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.id == "ab:cd:0"
        assert rec.edges == ("ab", "cd")
        assert rec.point == (Fraction(0), Fraction(0))
        assert rec.param_a == rec.param_b == Fraction(1, 2)
        assert rec.seg_a == rec.seg_b == 0
        # det[(2,2),(2,-2)] = -8
        assert rec.geometric_sign == -1
        assert rec.distance_class == math.inf
        assert not rec.is_self
        assert rec.kind == "disjoint"

    def test_kappa_by_distance_class(self):
        imm = straight_cross()
        assert kappa(imm, math.inf) == 1
        assert kappa(imm, 1) == 0

    def test_refinement_keeps_crossings(self):
        g = two_disjoint_edges()
        refined = PlaneImmersion(
            g,
            {"a": (-1, -1), "b": (1, 1), "c": (-1, 1), "d": (1, -1)},
            {
                "ab": ((-1, -1), (Fraction(-1, 2), Fraction(-1, 2)), (1, 1)),
                "cd": ((-1, 1), (1, -1)),
            },
        )
        assert validate(refined).ok
        recs = crossings(refined)
        assert len(recs) == 1
        assert recs[0].point == (Fraction(0), Fraction(0))
        assert recs[0].seg_a == 1

    def test_crossing_kept_where_float_determinants_overflow(self):
        # Coordinates near 6.7e153: the float orientation determinants of
        # this pair overflow, so only the box test may drop it.
        u = (Fraction(-6.7039039649713e+153), Fraction(-6.703903964971302e+153))
        v = (Fraction(6.703903964971296e+153), Fraction(6.703903964971297e+153))
        w = (Fraction(6.7039039649712956e+153), Fraction(6.703903964971295e+153))
        z = (Fraction(5.027927973728471e+153), Fraction(8.379879956214119e+153))
        kind, (_, s, t) = segment_contact(u, v, w, z)
        assert kind == "point" and 0 < s < 1 and 0 < t < 1
        g = MultiGraph(("u", "v", "w", "z"), (("e", "u", "v"), ("f", "w", "z")))
        imm = PlaneImmersion(g, {"u": u, "v": v, "w": w, "z": z},
                             {"e": (u, v), "f": (w, z)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert validate(imm).ok
            assert len(crossings(imm)) == 1

    def test_foreign_cycle_rejected(self):
        imm = straight_cross()
        cyc = enumerate_cycles(complete_graph(4), 3)[0]
        with pytest.raises(ValueError, match="does not belong"):
            cycle_crossing_number(imm, cyc)


class TestViolations:
    def test_duplicate_vertex_positions(self):
        g = MultiGraph(("a", "b"), ())
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (0, 0)}, {})
        assert violation_kinds(imm) == {"duplicate-vertex-position"}

    def test_endpoint_mismatch(self):
        g = MultiGraph(("a", "b"), (("ab", "a", "b"),))
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (2, 0)}, {"ab": ((0, 1), (2, 0))})
        assert violation_kinds(imm) == {"endpoint-mismatch"}

    def test_zero_length_segment(self):
        g = MultiGraph(("a", "b"), (("ab", "a", "b"),))
        imm = PlaneImmersion(
            g, {"a": (0, 0), "b": (2, 0)}, {"ab": ((0, 0), (1, 1), (1, 1), (2, 0))}
        )
        assert violation_kinds(imm) == {"zero-length-segment"}

    def test_collinear_overlap(self):
        g = two_disjoint_edges()
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (2, 0), "c": (1, 0), "d": (3, 0)},
            {"ab": ((0, 0), (2, 0)), "cd": ((1, 0), (3, 0))},
        )
        assert "overlap" in violation_kinds(imm)

    def test_breakpoint_on_other_edge(self):
        g = two_disjoint_edges()
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (4, 0), "c": (1, 1), "d": (3, 1)},
            {"ab": ((0, 0), (4, 0)), "cd": ((1, 1), (2, 0), (3, 1))},
        )
        report = validate(imm)
        assert not report.ok
        kinds = [kind for kind, _ in report.violations]
        assert kinds == ["breakpoint-contact", "breakpoint-contact"]

    def test_edge_through_foreign_vertex(self):
        g = MultiGraph(("a", "b", "c", "e"), (("ab", "a", "b"), ("ce", "c", "e")))
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (4, 0), "c": (2, 0), "e": (2, 2)},
            {"ab": ((0, 0), (4, 0)), "ce": ((2, 0), (2, 2))},
        )
        assert violation_kinds(imm) == {"breakpoint-contact"}

    def test_triple_point(self):
        g = MultiGraph(
            ("a", "b", "c", "d", "e", "f"),
            (("ab", "a", "b"), ("cd", "c", "d"), ("ef", "e", "f")),
        )
        imm = PlaneImmersion(
            g,
            {
                "a": (-2, 0), "b": (2, 0),
                "c": (-2, -2), "d": (2, 2),
                "e": (-2, 2), "f": (2, -2),
            },
            {
                "ab": ((-2, 0), (2, 0)),
                "cd": ((-2, -2), (2, 2)),
                "ef": ((-2, 2), (2, -2)),
            },
        )
        report = validate(imm)
        assert [kind for kind, _ in report.violations] == ["triple-point"]
        assert "(0, 0)" in report.violations[0][1]

    def test_crossing_at_isolated_vertex(self):
        g = MultiGraph(("a", "b", "c", "d", "v"), (("ab", "a", "b"), ("cd", "c", "d")))
        imm = PlaneImmersion(
            g,
            {"a": (-1, -1), "b": (1, 1), "c": (-1, 1), "d": (1, -1), "v": (0, 0)},
            {"ab": ((-1, -1), (1, 1)), "cd": ((-1, 1), (1, -1))},
        )
        assert violation_kinds(imm) == {"crossing-at-breakpoint"}

    def test_near_reversal_corner(self):
        # The corner turns by less than pi, however close: generic.
        eps = Fraction(1, 10**12)
        g = MultiGraph(("a", "b"), (("ab", "a", "b"),))
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (0, 2 * eps)},
            {"ab": ((0, 0), (4, eps), (0, 2 * eps))},
        )
        assert validate(imm).ok

    def test_exact_reversal_is_overlap(self):
        g = MultiGraph(("a", "b"), (("ab", "a", "b"),))
        imm = PlaneImmersion(
            g, {"a": (0, 0), "b": (1, 0)}, {"ab": ((0, 0), (4, 0), (1, 0))}
        )
        assert violation_kinds(imm) == {"overlap"}

    def test_near_cusp_at_vertex(self):
        # Two edges leave v in directions 1e-10 apart: generic.
        eps = Fraction(1, 10**10)
        g = MultiGraph(("v", "a", "b"), (("va", "v", "a"), ("vb", "v", "b")))
        imm = PlaneImmersion(
            g,
            {"v": (0, 0), "a": (4, 0), "b": (4, eps)},
            {"va": ((0, 0), (4, 0)), "vb": ((0, 0), (4, eps))},
        )
        assert validate(imm).ok

    def test_exact_cusp_at_vertex_is_overlap(self):
        g = MultiGraph(("v", "a", "b"), (("va", "v", "a"), ("vb", "v", "b")))
        imm = PlaneImmersion(
            g,
            {"v": (0, 0), "a": (4, 0), "b": (4, 2)},
            {"va": ((0, 0), (4, 0)), "vb": ((0, 0), (2, 0), (4, 2))},
        )
        assert "overlap" in violation_kinds(imm)

    def test_crossings_refuses_invalid(self):
        g = MultiGraph(("a", "b"), ())
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (0, 0)}, {})
        with pytest.raises(ValueError, match="not generic"):
            crossings(imm)


class TestLoops:
    def loop_graph(self):
        return MultiGraph(("v",), (("l", "v", "v"),))

    def test_small_loop_triangle_is_valid(self):
        imm = PlaneImmersion(
            self.loop_graph(),
            {"v": (0, 0)},
            {"l": ((0, 0), (-2, -1), (-1, -2), (0, 0))},
        )
        assert validate(imm).ok
        assert crossings(imm) == ()

    def test_one_breakpoint_loop_is_degenerate(self):
        imm = PlaneImmersion(
            self.loop_graph(), {"v": (0, 0)}, {"l": ((0, 0), (2, 2), (0, 0))}
        )
        assert "overlap" in violation_kinds(imm)

    def test_figure_eight_loop(self):
        imm = PlaneImmersion(
            self.loop_graph(),
            {"v": (0, 0)},
            {"l": ((0, 0), (4, 0), (4, 4), (6, 2), (0, 0))},
        )
        assert validate(imm).ok
        recs = crossings(imm)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.id == "l:l:0"
        assert rec.is_self and rec.kind == "self"
        assert rec.point == (Fraction(4), Fraction(4, 3))
        assert (rec.seg_a, rec.seg_b) == (1, 3)
        # det[(0,4),(-6,-2)] = 24
        assert rec.geometric_sign == 1
        cyc = enumerate_cycles(imm.graph, 1)[0]
        assert cycle_crossing_number(imm, cyc) == 1
        assert rotation_number(imm, cyc) == 0
        assert sum_crossing(imm, 1) == 1

    def test_loop_beside_triangle(self):
        g = MultiGraph(
            ("a", "b", "c"),
            (("ab", "a", "b"), ("ac", "a", "c"), ("bc", "b", "c"), ("l", "a", "a")),
        )
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (4, 0), "c": (0, 4)},
            {
                "ab": ((0, 0), (4, 0)),
                "ac": ((0, 0), (0, 4)),
                "bc": ((4, 0), (0, 4)),
                "l": ((0, 0), (-2, -1), (-1, -2), (0, 0)),
            },
        )
        assert validate(imm).ok
        assert crossings(imm) == ()
        tri = enumerate_cycles(g, 3)[0]
        assert rotation_number(imm, tri) in (1, -1)


class TestRotation:
    def square(self):
        g = MultiGraph(
            ("a", "b", "c", "d"),
            (("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("da", "d", "a")),
        )
        imm = PlaneImmersion(
            g,
            {"a": (0, 0), "b": (4, 0), "c": (4, 4), "d": (0, 4)},
            {
                "ab": ((0, 0), (4, 0)),
                "bc": ((4, 0), (4, 4)),
                "cd": ((4, 4), (0, 4)),
                "da": ((0, 4), (0, 0)),
            },
        )
        return imm

    def test_convex_square_turns_once(self):
        imm = self.square()
        cyc = enumerate_cycles(imm.graph, 4)[0]
        assert cyc.steps == (("ab", 1), ("bc", 1), ("cd", 1), ("da", 1))
        assert rotation_number(imm, cyc) == 1
        assert rotation_number(imm, cyc, orientation=-1) == -1

    def test_orientation_argument_checked(self):
        imm = self.square()
        cyc = enumerate_cycles(imm.graph, 4)[0]
        with pytest.raises(ValueError, match="orientation"):
            rotation_number(imm, cyc, orientation=2)

    def test_refinement_keeps_rotation(self):
        imm = self.square()
        poly = dict(imm.edge_polyline)
        poly["ab"] = ((0, 0), (1, 0), (3, 0), (4, 0))
        refined = PlaneImmersion(imm.graph, imm.vertex_position, poly)
        cyc = enumerate_cycles(imm.graph, 4)[0]
        assert rotation_number(refined, cyc) == 1

    def test_hairpin_is_generic_with_exact_rotation(self):
        # The hairpin turns back at (10^7, -1/2) by less than pi; closed by
        # a straight edge it bounds a thin counterclockwise triangle.
        g = MultiGraph(("a", "b"), (("h", "a", "b"), ("s", "b", "a")))
        a, b = (0, Fraction(-1, 2)), (Fraction(1, 2), Fraction(-1, 2) + Fraction(1, 1000))
        imm = PlaneImmersion(
            g, {"a": a, "b": b}, {"h": (a, (10**7, Fraction(-1, 2)), b), "s": (b, a)}
        )
        assert validate(imm).ok
        (cyc,) = enumerate_cycles(g)
        ccw = 1 if ("h", 1) in cyc.steps else -1
        assert rotation_number(imm, cyc) == ccw
        assert rotation_number(imm, cyc, orientation=-1) == -ccw

    def test_huge_breakpoint_rotation_is_exact(self):
        # Float directions overflow at 10^400; the sign predicates do not.
        imm = self.square()
        poly = dict(imm.edge_polyline)
        poly["ab"] = ((0, 0), (10**400, -1), (4, 0))
        huge = PlaneImmersion(imm.graph, imm.vertex_position, poly)
        assert validate(huge).ok
        cyc = enumerate_cycles(imm.graph, 4)[0]
        rot = rotation_number(huge, cyc)
        assert type(rot) is int and rot == 1
        assert rotation_number(huge, cyc, orientation=-1) == -1


GRAPHS = {
    "K4": complete_graph(4),
    "theta3": theta_graph(3),
    "T2": multi_triangle(2),
    "K33": complete_bipartite_graph(3, 3),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_random_immersions_match_oracle_and_parity(name):
    graph = GRAPHS[name]
    for seed in range(6):
        imm = random_immersion(graph, seed)
        counts, points = oracle_pair_counts(imm)
        got = {}
        for rec in crossings(imm):
            got[rec.edges] = got.get(rec.edges, 0) + 1
        assert got == counts
        assert {rec.point for rec in crossings(imm)} == points
        for cyc in enumerate_cycles(graph):
            rot = rotation_number(imm, cyc)
            assert (rot - cycle_crossing_number(imm, cyc)) % 2 == 1
            assert rotation_number(imm, cyc, orientation=-1) == -rot


def test_petersen_five_cycle_rotation_sum_is_odd():
    # Each of the 12 five-cycles has rot = c + 1 (mod 2) and their crossing
    # sum is odd (PG-parity), so their rotation numbers add up to an odd
    # number, although the paper's abstract states "even".
    graph = petersen_graph()
    for seed in range(4):
        imm = random_immersion(graph, seed)
        total = rotation_sum(imm, 5)
        assert total == sum(rotation_number(imm, c)
                            for c in enumerate_cycles(graph, 5))
        assert sum_crossing(imm, 5) % 2 == 1
        assert total % 2 == 1


def test_kappa_splits_total_by_distance():
    graph = complete_bipartite_graph(3, 3)
    for seed in (11, 12):
        imm = random_immersion(graph, seed)
        recs = crossings(imm)
        non_self = sum(1 for r in recs if not r.is_self)
        # every disjoint edge pair of this graph is at distance one
        assert kappa(imm, 0) + kappa(imm, 1) == non_self
        assert kappa(imm, 2) == 0


def test_sum_crossing_past_int64(monkeypatch):
    # Weights near 2**62 make the int64 dot product overflow; the sum must
    # come out of Python ints instead.
    imm = random_immersion(heawood_graph(), 0)
    weights = immersion._weights(imm.graph, 6)
    factor = 2**62 // int(weights.counts.max())
    want = sum_crossing(imm, 6) * factor
    big = dataclasses.replace(weights, size=weights.size * factor,
                              counts=weights.counts * factor)
    monkeypatch.setattr(immersion, "_weights", lambda graph, k: big)
    assert big.counts.tolist() == [c * factor for c in weights.counts.tolist()]
    assert want >= 2**63
    assert sum_crossing(imm, 6) == want


def test_random_immersion_is_deterministic():
    graph = complete_graph(4)
    a = random_immersion(graph, 5)
    b = random_immersion(graph, 5)
    assert a.vertex_position == b.vertex_position
    assert a.edge_polyline == b.edge_polyline
    c = random_immersion(graph, 6)
    assert c.edge_polyline != a.edge_polyline


def test_random_immersion_respects_parameters():
    imm = random_immersion(complete_graph(4), 3, breakpoints=(3, 5), box=4)
    for pts in imm.edge_polyline.values():
        assert 3 <= len(pts) - 2 <= 5
        assert all(abs(x) <= 6 for p in pts for x in p)
    for p in imm.vertex_position.values():
        assert all(abs(x) <= 4 for x in p)


# The ranges random_immersion draws from at attempts 0 to 3 with its
# default box, breakpoints and grid, and the widths 2**j - 1, 2**j and
# 2**j + 1 around each number of bits getrandbits is asked for.
DRAW_RANGES = ([(-4 * (64 + 13 * a), 4 * (64 + 13 * a)) for a in range(4)] + [(3, 5), (2, 3)]
               + [(-7, -7 + width - 1) for j in (1, 2, 3, 8, 31, 32, 33, 64)
                  for width in (2**j - 1, 2**j, 2**j + 1)])


@pytest.mark.parametrize("lo, hi", DRAW_RANGES)
def test_draw_helper_is_randint(lo, hi):
    # The word-level draw of random_immersion against CPython's own randint:
    # the same values and the same generator state after them, so drawings
    # stay the same as long as this holds.
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = [immersion._randint(ours.getrandbits, lo, hi) for _ in range(100)]
        assert got == [theirs.randint(lo, hi) for _ in range(100)]
        assert ours.getstate() == theirs.getstate()


def oracle_random_immersion(graph, seed, breakpoints, box, max_attempts=60):
    # (drawing, attempt): random_immersion as it drew before its draws were
    # inlined, one _randint call per value, with the drawing built from
    # Fraction points by the public constructor.  An attempt whose grid
    # holds fewer points than the graph has vertices is skipped undrawn.
    bits = random.Random(seed).getrandbits
    bmin, bmax = breakpoints
    box_num, box_den = box.as_integer_ratio()
    for attempt in range(max_attempts):
        denom = 64 + 13 * attempt
        span = box_num * denom // box_den
        if (2 * span + 1) ** 2 < len(graph.vertices):
            continue
        lat = denom * math.lcm(*range(bmin + 1, bmax + 2), 2 * (attempt + 1))
        grid, jitter = lat // denom, lat // (2 * denom * (attempt + 1))
        lattice = {}
        used = set()
        for v in graph.vertices:
            p = (immersion._randint(bits, -span, span), immersion._randint(bits, -span, span))
            while p in used:
                p = (immersion._randint(bits, -span, span),
                     immersion._randint(bits, -span, span))
            used.add(p)
            lattice[v] = (p[0] * grid, p[1] * grid)
        inner = {}
        for name, t, h in graph.edges:
            nb = immersion._randint(bits, bmin, bmax)
            (tx, ty), (hx, hy) = lattice[t], lattice[h]
            pts = []
            for i in range(1, nb + 1):
                jx = immersion._randint(bits, -span, span) * jitter
                jy = immersion._randint(bits, -span, span) * jitter
                pts.append((tx + (hx - tx) * i // (nb + 1) + jx,
                            ty + (hy - ty) * i // (nb + 1) + jy))
            inner[name] = pts

        def point(p):
            return (Fraction(p[0], lat), Fraction(p[1], lat))

        imm = PlaneImmersion(
            graph, {v: point(p) for v, p in lattice.items()},
            {name: tuple(map(point, (lattice[t], *inner[name], lattice[h])))
             for name, t, h in graph.edges})
        if validate(imm).ok:
            return imm, attempt
    raise RuntimeError("retry budget exhausted")


GENERATOR_GRAPHS = {"HG": heawood_graph, "PG": petersen_graph, "K5": lambda: complete_graph(5),
                    "theta4": lambda: theta_graph(4)}


@pytest.mark.parametrize("name", sorted(GENERATOR_GRAPHS))
def test_generator_matches_the_one_call_per_value_oracle(name):
    # Seeds 0 to 199 at each of three breakpoint ranges, the box taking
    # the values 1, 5/2 and 4.5 in turn: whole point tables, retries
    # included.
    graph = GENERATOR_GRAPHS[name]()
    boxes = (1, Fraction(5, 2), 4.5)
    retried = 0
    for bp in ((2, 2), (2, 7), (3, 5)):
        for seed in range(200):
            box = boxes[seed % 3]
            got = random_immersion(graph, seed, breakpoints=bp, box=box)
            want, attempt = oracle_random_immersion(graph, seed, bp, box)
            assert got._points.rows.dtype == want._points.rows.dtype, (seed, bp, box)
            assert got._points.rows.tolist() == want._points.rows.tolist(), (seed, bp, box)
            assert got._points.counts.tolist() == want._points.counts.tolist(), (seed, bp, box)
            retried += attempt > 0
    # Some first attempts are not generic, so later draws are compared too.
    assert retried > 0


@pytest.mark.parametrize("breakpoints, box, message", [
    ((3, 2), 4, "breakpoints maximum 2 is below the minimum 3"),
    ((3, 5), 0, "box must be positive, got 0"),
    ((3, 5), -1.5, "box must be positive, got -1.5"),
    ((3, 5), Fraction(-1, 2), "box must be positive, got Fraction(-1, 2)"),
    ((1, 5), -1, "need at least 2 breakpoints per edge for loops"),
])
def test_generator_refuses_what_it_cannot_draw(breakpoints, box, message):
    for graph in (heawood_graph(), MultiGraph(("a",), ())):
        with pytest.raises(ValueError) as caught:
            random_immersion(graph, 1, breakpoints=breakpoints, box=box)
        assert str(caught.value) == message


def test_a_grid_too_small_for_the_vertices_fails_undrawn(monkeypatch):
    # box 0.01 puts 1 grid point at attempts 0 to 2 and 9 at attempts 3 to
    # 10, too few for HG's 14 vertices: those attempts fail without a draw.
    # At attempt 11 (span 2, 25 points) the first values are drawn, the
    # ones a fresh generator gives.
    hg = heawood_graph()
    calls = []
    real = random.Random

    class Counting(real):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Counting)
    with pytest.raises(RuntimeError, match="in 11 attempts"):
        random_immersion(hg, 1, box=0.01, max_attempts=11)
    assert calls == []
    monkeypatch.setattr(random, "Random", real)
    got = random_immersion(hg, 1, box=0.01)
    want, attempt = oracle_random_immersion(hg, 1, (3, 5), 0.01)
    assert attempt >= 11
    assert got._points.rows.tolist() == want._points.rows.tolist()
    # A grid of exactly as many points as vertices still draws.
    nine = MultiGraph(tuple(f"v{i}" for i in range(9)), ())
    f = random_immersion(nine, 3, box=Fraction(1, 64), max_attempts=1)
    assert sorted(f._points.rows.tolist()) == [[x, y, 64] for x in (-1, 0, 1) for y in (-1, 0, 1)]


@given(st.integers(min_value=0, max_value=10**6))
def test_digon_random_immersion_parity(seed):
    imm = random_immersion(theta_graph(2), seed)
    (cyc,) = enumerate_cycles(imm.graph)
    assert (rotation_number(imm, cyc) - cycle_crossing_number(imm, cyc)) % 2 == 1


def prefilter_call(imm, monkeypatch):
    # (the table _scan hands to candidate_pairs, the pairs it returns), on a
    # fresh copy so the cached scan of imm does not hide the call.
    seen = []
    real = kernels.candidate_pairs

    def spy(segs):
        seen.append((segs, real(segs)))
        return seen[-1][1]

    with monkeypatch.context() as m:
        m.setattr(kernels, "candidate_pairs", spy)
        validate(PlaneImmersion(imm.graph, imm.vertex_position, imm.edge_polyline))
    (call,) = seen
    return call


def dense_style_drawing(seed, per_edge=40):
    # K5 on a circle, each edge a jittered polyline on the 2^20 grid over
    # 2^10, as the dense-drawings benchmark draws them.
    rng = random.Random(seed)
    graph = complete_graph(5)
    grid, den, jitter = 2**20, 2**10, 10000
    pos = {}
    for n, v in enumerate(graph.vertices):
        angle = 2 * math.pi * n / 5
        pos[v] = (grid // 2 + int(0.4 * grid * math.cos(angle)),
                  grid // 2 + int(0.4 * grid * math.sin(angle)))
    poly = {}
    for name, t, h in graph.edges:
        (x0, y0), (x1, y1) = pos[t], pos[h]
        pts = [(x0 + (x1 - x0) * s // per_edge + rng.randint(-jitter, jitter),
                y0 + (y1 - y0) * s // per_edge + rng.randint(-jitter, jitter))
               for s in range(1, per_edge)]
        poly[name] = [pos[t], *pts, pos[h]]

    def frac(p):
        return (Fraction(p[0], den), Fraction(p[1], den))

    return PlaneImmersion(graph, {v: frac(p) for v, p in pos.items()},
                          {e: [frac(p) for p in pts] for e, pts in poly.items()})


def exact_boxes(imm):
    # (xlo, ylo, xhi, yhi) of every segment in edge order, as Fractions.
    return [(min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))
            for pts in (imm.edge_polyline[e] for e in imm.graph.edge_names)
            for p, q in zip(pts, pts[1:])]


def test_prefilter_boxes_contain_exact_boxes(monkeypatch):
    drawings = [random_immersion(heawood_graph(), seed) for seed in range(20)]
    drawings.append(dense_style_drawing(5))
    hg, k4 = drawings[0], random_immersion(complete_graph(4), 0)
    # Python-int tables, down to subnormal floats and past the float range.
    huge = moved(k4, 10**400)
    beyond = [prime_shifted(hg), moved(hg, 10**12), moved(hg, Fraction(1, 10**315)), huge]
    for imm in drawings + beyond:
        exact = exact_boxes(imm)
        got, pairs = prefilter_call(imm, monkeypatch)
        top = int(np.abs(got).max())
        assert got.dtype == np.int64 and got.shape == (len(exact), 4) and top < 2**62
        boxes = np.concatenate((np.minimum(got[:, :2], got[:, 2:]),
                                np.maximum(got[:, :2], got[:, 2:])), axis=1).tolist()
        if imm in beyond:
            # One power of two, found from the largest coordinate, that
            # keeps at least 58 bits of it.
            assert imm._scan[2][0].dtype == object and top >= 2**58
            big = max(abs(c) for box in exact for c in box)
            scale = Fraction(2) ** round(
                math.log2(top) - math.log2(big.numerator) + math.log2(big.denominator))
        else:
            # int64 tables share one scale: the boxes are exact.
            assert imm._scan[2][0].dtype == np.int64
            scale = int(imm._points.rows[0, 2])
        for box, ex in zip(boxes, exact):
            # Lower ends rounded down, upper ends up, each by less than one.
            for b, c in zip(box[:2], ex[:2]):
                assert b <= c * scale < b + 1
            for b, c in zip(box[2:], ex[2:]):
                assert b - 1 < c * scale <= b
    n = len(exact_boxes(huge))
    assert len(prefilter_call(huge, monkeypatch)[1]) < n * (n - 1) // 2
    assert [(r.id, r.geometric_sign) for r in crossings(huge)] == [
        (r.id, r.geometric_sign) for r in crossings(k4)]
    assert [r.point for r in crossings(huge)] == [
        (r.point[0] * 10**400, r.point[1] * 10**400) for r in crossings(k4)]


def float_rotation(imm, cycle, orientation):
    # Test-only oracle: the float turning sum, atan2 at every corner of the
    # closed polygon over 2 pi, as rotation numbers were once computed.
    steps = cycle.steps if orientation == 1 else [(n, -d) for n, d in reversed(cycle.steps)]
    pts = []
    for name, d in steps:
        poly = imm.edge_polyline[name]
        pts.extend((poly if d == 1 else poly[::-1])[:-1])
    dirs = [(float(q[0] - p[0]), float(q[1] - p[1])) for p, q in zip(pts, pts[1:] + pts[:1])]
    total = sum(math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
                for (x1, y1), (x2, y2) in zip(dirs, dirs[1:] + dirs[:1]))
    turns = total / (2 * math.pi)
    assert abs(turns - round(turns)) < 1e-6
    return round(turns)


def test_rotation_matches_float_turning_sum():
    graphs = (heawood_graph(), petersen_graph(), complete_graph(5),
              complete_bipartite_graph(3, 3))
    checked = 0
    for graph in graphs:
        cycles = enumerate_cycles(graph)
        for seed in range(5):
            imm = random_immersion(graph, seed)
            for cyc in cycles:
                for orientation in (1, -1):
                    want = float_rotation(imm, cyc, orientation)
                    assert rotation_number(imm, cyc, orientation) == want
                    checked += 1
    assert checked == 2 * 5 * (213 + 57 + 37 + 15)


directions = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda d: d != (0, 0))


@given(directions, directions)
def test_wrap_rule_matches_atan2(d1, d2):
    det = d1[0] * d2[1] - d1[1] * d2[0]
    dot = d1[0] * d2[0] + d1[1] * d2[1]
    assume(det != 0 or dot > 0)  # a turn shorter than pi

    def angle(d):
        return math.atan2(d[1], d[0]) % (2 * math.pi)

    unwrapped = angle(d1) + math.atan2(det, dot)
    assert passes(d1, d2) == round((unwrapped - angle(d2)) / (2 * math.pi))


def snapped(imm, den):
    # The drawing with every point rounded to the 1/den grid: mostly
    # non-generic, with overlaps, touching breakpoints and triple points.
    def snap(p):
        return (Fraction(round(p[0] * den), den), Fraction(round(p[1] * den), den))

    return PlaneImmersion(imm.graph, {v: snap(p) for v, p in imm.vertex_position.items()},
                          {e: [snap(p) for p in pts] for e, pts in imm.edge_polyline.items()})


def near_coordinate_limit(imm):
    # imm scaled to integer coordinates whose largest magnitude sits just
    # under INT_COORD_LIMIT, so crossing numerators pass int64.
    rows = imm._points.rows
    assert rows.dtype == np.int64
    factor = int(rows[0, 2]) * (kernels.INT_COORD_LIMIT // int(np.abs(rows[:, :2]).max()))

    def grow(p):
        return (p[0] * factor, p[1] * factor)

    return PlaneImmersion(imm.graph, {v: grow(p) for v, p in imm.vertex_position.items()},
                          {e: [grow(p) for p in pts] for e, pts in imm.edge_polyline.items()})


def moved(imm, factor, shift=lambda p: (0, 0)):
    # imm with every point p sent to factor * p + shift(p).
    def move(p):
        dx, dy = shift(p)
        return (p[0] * factor + dx, p[1] * factor + dy)

    return PlaneImmersion(imm.graph, {v: move(p) for v, p in imm.vertex_position.items()},
                          {e: [move(p) for p in pts] for e, pts in imm.edge_polyline.items()})


def prime_shifted(imm, bits=31):
    # imm with each distinct point shifted by (1/p, 1/p), p its own prime of
    # the given bit length, so that no common denominator stays small.
    primes = {}
    candidate = 2**bits - 1

    def shift(p):
        nonlocal candidate
        if p not in primes:
            while not _is_prime(candidate):
                candidate -= 2
            primes[p] = Fraction(1, candidate)
            candidate -= 2
        return (primes[p], primes[p])

    return moved(imm, 1, shift)


def _is_prime(n):
    # Miller-Rabin on the first 13 prime bases: exact below 3.3e24.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def python_int_scan(imm, monkeypatch):
    # A fresh copy of imm, scanned with INT_COORD_LIMIT forced to 0, so its
    # segment table holds Python ints whatever the size of its coordinates.
    with monkeypatch.context() as m:
        m.setattr(kernels, "INT_COORD_LIMIT", 0)
        forced = PlaneImmersion(imm.graph, imm.vertex_position, imm.edge_polyline)
        forced._scan
    assert forced._scan[2][0].dtype == object
    return forced


def test_integer_and_rational_paths_agree(monkeypatch):
    drawings = [random_immersion(graph, seed)
                for graph in (heawood_graph(), complete_graph(4), theta_graph(3))
                for seed in range(3)]
    drawings += [snapped(imm, den) for imm in drawings for den in (1, 2, 3)]
    square = TestRotation().square()
    straight = dict(square.edge_polyline, ab=((0, 0), (1, 0), (2, 0), (4, 0)))
    big = near_coordinate_limit(random_immersion(complete_graph(5), 0))
    drawings += [
        dense_style_drawing(1, per_edge=12),
        PlaneImmersion(square.graph, square.vertex_position, straight),
        PlaneImmersion(MultiGraph(("v",), (("l", "v", "v"),)), {"v": (0, 0)},
                       {"l": ((0, 0), (4, 0), (4, 4), (6, 2), (0, 0))}),
        straight_cross(),
        big,
    ]
    # An isolated vertex exactly on the crossing at (3/2, 1/2), a point off
    # the polylines' integer grid.
    on_crossing = PlaneImmersion(
        MultiGraph(("a", "b", "c", "d", "v"), (("ab", "a", "b"), ("cd", "c", "d"))),
        {"a": (0, 0), "b": (3, 1), "c": (0, 1), "d": (3, 0), "v": (Fraction(3, 2), Fraction(1, 2))},
        {"ab": ((0, 0), (3, 1)), "cd": ((0, 1), (3, 0))},
    )
    drawings.append(on_crossing)
    # Drawings past int64 on their own, which take the Python-int path
    # unforced: each point shifted by its own prime reciprocal, and a
    # drawing scaled by 10^12.
    hg = random_immersion(heawood_graph(), 0)
    beyond = [prime_shifted(hg), moved(hg, 10**12)]
    drawings += beyond
    kinds = set()
    for imm in drawings:
        forced = python_int_scan(imm, monkeypatch)
        report = validate(forced)
        assert imm._scan[2][0].dtype == (object if imm in beyond else np.int64)
        assert validate(imm) == report
        kinds.update(kind for kind, _ in report.violations)
        if report.ok:
            assert crossings(imm) == crossings(forced)
            assert list(imm._pair_crossings.items()) == list(forced._pair_crossings.items())
            distances = {0, INFINITE_DISTANCE, *imm.graph._edge_distances.values()}
            for k in distances:
                assert kappa(imm, k) == kappa(forced, k)
            for cyc in enumerate_cycles(imm.graph):
                assert rotation_number(imm, cyc) == rotation_number(forced, cyc)
    assert kinds >= {"overlap", "breakpoint-contact", "triple-point", "crossing-at-breakpoint"}
    assert validate(on_crossing).violations == (
        ("crossing-at-breakpoint", "crossing at node point (3/2, 1/2)"),)
    assert validate(big).ok and kappa(straight_cross(), INFINITE_DISTANCE) == 1
    assert int(np.abs(big._scan[2][0]).max()) > kernels.INT_COORD_LIMIT * 0.99
    # Crossing numerators x0 * den + unum * rx of the big drawing pass int64.
    table = big._scan[1]
    x0 = table.segs[table.left, 0]
    assert max(abs(x) * d for x, d in zip(x0.tolist(), table.den.tolist())) > 2**63
    # The drawings past int64 keep the generated drawing's crossings.
    for f in beyond:
        assert validate(f).ok
        assert [(r.id, r.geometric_sign) for r in crossings(f)] == [
            (r.id, r.geometric_sign) for r in crossings(hg)]


@pytest.fixture(scope="module")
def byte_drawings():
    graphs = (heawood_graph(), petersen_graph(), complete_graph(5),
              complete_bipartite_graph(3, 3), multi_triangle(3), theta_graph(4))
    return [random_immersion(graph, seed) for graph in graphs for seed in range(30)]


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


class TestByteIdentity:
    # SHA-256 of the generator's drawings, their crossing records and the
    # violations of their snapped copies, for HG, PG, K5, K3,3, T3 and
    # theta_4 at seeds 0-29.  Any change to the values drawn, the records
    # or the violation lists shows up here.
    def test_serialized_drawings(self, byte_drawings):
        assert _digest(serialize_immersion(f) for f in byte_drawings) == (
            "1ccdfe63021092c5ff5f2245c75c610704e59d6f9701b0f09ab7f89254ea738d"
        )

    def test_crossing_records(self, byte_drawings):
        assert _digest(repr(crossings(f)) for f in byte_drawings) == (
            "011bdf6ff5b5dc7018aa98bff283d0ad44432b879bd96d430f897ec683e9e702"
        )

    def test_second_attempts(self):
        # Seeds whose first attempt is not generic, so the lattice of the
        # second attempt, with its finer jitter, draws them.
        cases = [(heawood_graph(), 101), (petersen_graph(), 44),
                 (complete_bipartite_graph(3, 3), 105), (multi_triangle(3), 108),
                 (complete_graph(4), 120)]
        drawings = [random_immersion(graph, seed) for graph, seed in cases]
        assert _digest(text for f in drawings
                       for text in (serialize_immersion(f), repr(crossings(f)))) == (
            "077e06f72deca822de2bcb9bdaf95fc4bdbbac602adcb269ab37e0f6d79a48b5"
        )

    def test_snapped_violations(self, byte_drawings):
        assert _digest(repr(validate(snapped(f, den)).violations)
                       for f in byte_drawings for den in (1, 2, 3)) == (
            "f1bbaac4bc4a5c649c00e724725504668c33d25b1301970abb0407cad44baed3"
        )


def test_checks_build_fewer_fractions_than_crossings(monkeypatch):
    # validate, the parity checks and every per-cycle number read the
    # integer crossing table; Fractions are made for records only.
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(None)
            return super().__new__(cls, *args, **kwargs)

    graph = heawood_graph()
    cycles = enumerate_cycles(graph)
    for seed in range(10):
        drawn = random_immersion(graph, seed)
        # The generator's Fraction views, built before the count starts.
        pos, poly = drawn.vertex_position, drawn.edge_polyline
        made.clear()
        with monkeypatch.context() as m:
            m.setattr(immersion, "Fraction", Counted)
            f = PlaneImmersion(graph, pos, poly)
            assert validate(f).ok
            assert all(v.ok for v in run_checks(f, "HG-parity"))
            for cycle in cycles:
                rotation_number(f, cycle)
                cycle_crossing_number(f, cycle)
        assert len(made) < len(crossings(f))


def test_validate_builds_no_fractions(monkeypatch):
    # Contacts at shared vertices are located on the integer parameters, so
    # validating a generated drawing makes no Fraction at all.
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(None)
            return super().__new__(cls, *args, **kwargs)

    graph = heawood_graph()
    for seed in range(10):
        drawn = random_immersion(graph, seed)
        # The generator's Fraction views, built before the count starts.
        pos, poly = drawn.vertex_position, drawn.edge_polyline
        with monkeypatch.context() as m:
            m.setattr(immersion, "Fraction", Counted)
            f = PlaneImmersion(graph, pos, poly)
            assert validate(f).ok
        assert made == []


def _view_drawings():
    # HG and K5 drawings with crossings, and a triangle with none.
    triangle = complete_graph(3)
    pos = {"v1": (0, 0), "v2": (4, 0), "v3": (0, 4)}
    plain = PlaneImmersion(triangle, pos,
                           {name: (pos[t], pos[h]) for name, t, h in triangle.edges})
    return [random_immersion(heawood_graph(), 0), random_immersion(complete_graph(5), 1), plain]


class TestCrossingView:
    # crossings() is a read-only sequence over the immersion: it reads,
    # compares, hashes and prints as the tuple of records in id order.
    @pytest.mark.parametrize("case", range(3))
    def test_reads_as_the_record_tuple(self, case):
        f = _view_drawings()[case]
        view = crossings(f)
        records = f._records
        assert isinstance(records, tuple)
        assert len(view) == len(list(view)) == len(records)
        assert list(view) == list(records)
        assert [rec.id for rec in view] == f._record_order.ids
        for i in range(-len(records), len(records)):
            assert view[i] is records[i]
        assert view[1:3] == records[1:3] and view[::-2] == records[::-2]
        assert view[:] == records and isinstance(view[:], tuple)
        with pytest.raises(IndexError):
            view[len(records)]
        assert view == records and records == view and not view != records
        assert view == crossings(f) and hash(view) == hash(records)
        assert repr(view) == repr(records) and str(view) == str(records)
        assert list(reversed(view)) == list(reversed(records))
        if records:
            assert records[-1] in view and view.index(records[-1]) == len(records) - 1
        assert view != records + (None,) and view != list(records)

    def test_views_of_two_drawings(self):
        hg, k5, _ = _view_drawings()
        assert crossings(hg) != crossings(k5)
        same = PlaneImmersion(k5.graph, k5.vertex_position, k5.edge_polyline)
        assert crossings(same) == crossings(k5) and crossings(same) is not crossings(k5)

    def test_refuses_an_invalid_drawing_at_call_time(self):
        g = MultiGraph(("a", "b"), ())
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (0, 0)}, {})
        with pytest.raises(ValueError, match="not generic"):
            crossings(imm)

    def test_read_only(self):
        view = crossings(_view_drawings()[0])
        with pytest.raises(TypeError):
            view[0] = None
        with pytest.raises(AttributeError):
            view.extra = None


def test_len_of_crossings_builds_no_records(monkeypatch):
    # len(crossings(f)) reads the crossing table: no CrossingRecord and no
    # Fraction, on HG drawings and on a dense K5 drawing.
    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(None)
            return super().__new__(cls, *args, **kwargs)

    class CountedRecord(immersion.CrossingRecord):
        def __init__(self, *args, **kwargs):
            made.append(None)
            super().__init__(*args, **kwargs)

    drawings = [random_immersion(heawood_graph(), s) for s in range(3)]
    drawings.append(random_immersion(complete_graph(5), 0, breakpoints=(24, 32)))
    for drawn in drawings:
        # The generator's Fraction views, built before the count starts.
        pos, poly = drawn.vertex_position, drawn.edge_polyline
        with monkeypatch.context() as m:
            m.setattr(immersion, "Fraction", CountedFraction)
            m.setattr(immersion, "CrossingRecord", CountedRecord)
            f = PlaneImmersion(drawn.graph, pos, poly)
            n = len(crossings(f))
            assert made == [] and "_records" not in vars(f)
            assert n == len(list(crossings(f))) == len(crossings(drawn)) > 0
            assert len(made) > n
        made.clear()
    assert len(crossings(drawings[-1])) > 100


def _zigzag(scale=1):
    # Edge "cd" crosses the single segment of "ab" four times; ab runs right
    # to left, so its parameter falls as x grows.  A loop "l" crosses
    # itself once.
    graph = MultiGraph(("a", "b", "c", "d", "v"),
                       (("ab", "a", "b"), ("cd", "c", "d"), ("l", "v", "v")))
    s = Fraction(scale)
    pos = {"a": (10 * s, 0), "b": (0, 0), "c": (1 * s, -1 * s), "d": (9 * s, -1 * s),
           "v": (20 * s, 0)}
    poly = {
        "ab": (pos["a"], pos["b"]),
        "cd": (pos["c"], (2 * s, s), (4 * s, -s), (6 * s, s), (8 * s, s), pos["d"]),
        "l": (pos["v"], (24 * s, 0), (24 * s, 4 * s), (26 * s, 2 * s), pos["v"]),
    }
    return PlaneImmersion(graph, pos, poly)


def _check_record_order(f):
    # The record order read off the crossing table against the rule it
    # implements, applied to the records' own exact data: ids ranked by
    # (edge pair in index order, segment along a, parameter along a), and
    # geometric signs from the segments' directions.
    recs = crossings(f)
    index = f.graph.edge_index
    ordered = sorted(recs, key=lambda r: (index[r.edges[0]], index[r.edges[1]],
                                          r.seg_a, r.param_a))
    assert list(ordered) == list(recs)
    seen = {}
    for rec in recs:
        rank = seen[rec.edges] = seen.get(rec.edges, -1) + 1
        assert rec.id == f"{rec.edges[0]}:{rec.edges[1]}:{rank}"
        a = f.edge_polyline[rec.edges[0]][rec.seg_a:rec.seg_a + 2]
        b = f.edge_polyline[rec.edges[1]][rec.seg_b:rec.seg_b + 2]
        det = ((a[1][0] - a[0][0]) * (b[1][1] - b[0][1])
               - (a[1][1] - a[0][1]) * (b[1][0] - b[0][0]))
        assert rec.geometric_sign == (1 if det > 0 else -1)
    order = f._record_order
    assert order.ids == [rec.id for rec in recs]
    assert order.sign.tolist() == [rec.geometric_sign for rec in recs]
    names, n = f.graph.edge_names, len(f.graph.edges)
    assert [(names[k // n], names[k % n]) for k in order.key.tolist()] == [
        rec.edges for rec in recs]
    return recs


class TestRecordOrder:
    def test_parameter_ties_on_one_segment(self):
        f = _zigzag()
        assert f._scan[1].segs.dtype == np.int64
        recs = _check_record_order(f)
        on_ab = [rec for rec in recs if rec.edges == ("ab", "cd")]
        assert len(on_ab) == 4 and {rec.seg_a for rec in on_ab} == {0}
        assert [rec.point[0] for rec in on_ab] == [Fraction(17, 2), 5, 3, Fraction(3, 2)]

    def test_self_crossing(self):
        f = _zigzag()
        (rec,) = [rec for rec in _check_record_order(f) if rec.is_self]
        assert rec.id == "l:l:0" and (rec.seg_a, rec.seg_b) == (1, 3)

    def test_rational_path(self, monkeypatch):
        # A scale with a denominator past INT_COORD_LIMIT takes the
        # Python-int path, as does any drawing with the limit forced to 0.
        want = [rec.id for rec in crossings(_zigzag())]
        f = _zigzag(Fraction(1, kernels.INT_COORD_LIMIT + 7))
        assert f._scan[1].segs.dtype == object
        recs = _check_record_order(f)
        assert [rec.id for rec in recs] == want
        recs = _check_record_order(python_int_scan(_zigzag(), monkeypatch))
        assert [rec.id for rec in recs] == want

    def test_generated_drawings(self, byte_drawings):
        for f in byte_drawings[::7]:
            _check_record_order(f)

    def test_invalid_immersion_raises(self):
        graph = MultiGraph(("a", "b"), (("e", "a", "b"),))
        f = PlaneImmersion(graph, {"a": (0, 0), "b": (0, 0)}, {"e": ((0, 0), (0, 0))})
        with pytest.raises(ValueError, match="not generic"):
            f._record_order


def agreement_drawings():
    # The drawings of test_integer_and_rational_paths_agree, in its order.
    drawings = [random_immersion(graph, seed)
                for graph in (heawood_graph(), complete_graph(4), theta_graph(3))
                for seed in range(3)]
    drawings += [snapped(imm, den) for imm in drawings for den in (1, 2, 3)]
    square = TestRotation().square()
    straight = dict(square.edge_polyline, ab=((0, 0), (1, 0), (2, 0), (4, 0)))
    drawings += [
        dense_style_drawing(1, per_edge=12),
        PlaneImmersion(square.graph, square.vertex_position, straight),
        PlaneImmersion(MultiGraph(("v",), (("l", "v", "v"),)), {"v": (0, 0)},
                       {"l": ((0, 0), (4, 0), (4, 4), (6, 2), (0, 0))}),
        straight_cross(),
        near_coordinate_limit(random_immersion(complete_graph(5), 0)),
        PlaneImmersion(
            MultiGraph(("a", "b", "c", "d", "v"), (("ab", "a", "b"), ("cd", "c", "d"))),
            {"a": (0, 0), "b": (3, 1), "c": (0, 1), "d": (3, 0),
             "v": (Fraction(3, 2), Fraction(1, 2))},
            {"ab": ((0, 0), (3, 1)), "cd": ((0, 1), (3, 0))},
        ),
    ]
    return drawings


def rational_contact_calls(imm, monkeypatch):
    # (segment_contact calls, Fractions built) of a Python-int-path
    # validation of imm.  imm's Fraction views, which python_int_scan reads
    # to copy it, are built first, so only the copy and its scan count.
    imm.vertex_position, imm.edge_polyline
    calls, made = [], []
    real = geometry.segment_contact

    def counted(*args):
        calls.append(None)
        return real(*args)

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(None)
            return super().__new__(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(geometry, "segment_contact", counted)
        m.setattr(immersion, "Fraction", Counted)
        validate(python_int_scan(imm, monkeypatch))
    return len(calls), len(made)


def test_python_int_path_calls_no_segment_contact_and_builds_no_fractions(monkeypatch):
    hg = random_immersion(heawood_graph(), 0)
    drawings = agreement_drawings() + [prime_shifted(hg), moved(hg, 10**12)]
    assert not hasattr(immersion, "segment_contact")
    for f in drawings:
        assert rational_contact_calls(f, monkeypatch) == (0, 0)


def both_paths(imm, monkeypatch):
    # The reports of the int64 and the Python-int path on imm.
    report = validate(python_int_scan(imm, monkeypatch))
    assert imm._scan[2][0].dtype == np.int64
    return validate(imm), report


class TestVertexContacts:
    def test_three_segment_loop_meets_itself_at_its_vertex(self, monkeypatch):
        g = MultiGraph(("v", "w"), (("l", "v", "v"), ("e", "v", "w")))
        imm = PlaneImmersion(g, {"v": (0, 0), "w": (0, -3)},
                             {"l": ((0, 0), (4, 0), (2, 3), (0, 0)), "e": ((0, 0), (0, -3))})
        for report in both_paths(imm, monkeypatch):
            assert report.ok
        (cycle,) = [c for c in enumerate_cycles(g) if len(c) == 1]
        assert rotation_number(imm, cycle) in (1, -1)

    def test_terminal_slot_on_a_breakpoint(self, monkeypatch):
        # ab leaves a; the breakpoint of cd sits on a.
        g = two_disjoint_edges()
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (4, 0), "c": (-2, 2), "d": (2, 2)},
                             {"ab": ((0, 0), (4, 0)), "cd": ((-2, 2), (0, 0), (2, 2))})
        for report in both_paths(imm, monkeypatch):
            assert report.violations == (
                ("breakpoint-contact", "ab[0] touches cd[0] at (0, 0)"),
                ("breakpoint-contact", "ab[0] touches cd[1] at (0, 0)"),
            )

    def test_two_edges_leave_a_vertex_in_one_direction(self, monkeypatch):
        g = MultiGraph(("a", "b", "c"), (("ab", "a", "b"), ("ac", "a", "c")))
        imm = PlaneImmersion(g, {"a": (0, 0), "b": (2, 0), "c": (4, 3)},
                             {"ab": ((0, 0), (2, 0)), "ac": ((0, 0), (4, 0), (4, 3))})
        for report in both_paths(imm, monkeypatch):
            assert report.violations == (("overlap", "ab[0] and ac[0] overlap collinearly"),)


def test_crossings_closer_than_float_resolution_stay_apart():
    # cd and ef cross ab at parameters 1/2 and 1/2 - 1/(n (2n - 1)), closer
    # than the share_a_point float filter resolves, so the exact comparison
    # tells them apart.
    n = 2**26
    g = MultiGraph(("a", "b", "c", "d", "e", "f"),
                   (("ab", "a", "b"), ("cd", "c", "d"), ("ef", "e", "f")))
    pos = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, -1),
           "e": (Fraction(n // 2 + 1, n), 1), "f": (Fraction(n // 2 - 1, n), Fraction(1 - n, n))}
    imm = PlaneImmersion(g, pos, {name: (pos[t], pos[h]) for name, t, h in g.edges})
    assert validate(imm).ok and imm._scan[2][0].dtype == np.int64
    assert not imm._scan[1].share_a_point()
    on_ab = sorted(rec.param_a for rec in crossings(imm) if rec.edges[0] == "ab")
    assert on_ab == [Fraction(1, 2) - Fraction(1, n * (2 * n - 1)), Fraction(1, 2)]
    assert len(crossings(imm)) == len(list(crossings(imm))) == 3


def test_share_a_point_compares_float_neighbours_exactly():
    # Rows 0 and 2 sit at 17/140 of segment 0 in different terms, whose
    # quotients of rounded floats, as numpy divides int64, are one ulp
    # apart; row 1 has row 0's float but another value.  Only an exact
    # comparison over the whole run finds the pair.
    a, b = 2222188194313764, 18300373364936880
    c, d = 8376228159744851, 68980702492016420
    assert Fraction(a, b) == Fraction(c, d) and float(a) / float(b) != float(c) / float(d)
    assert float(16 * a + 1) / float(16 * b) == float(a) / float(b)
    assert Fraction(16 * a + 1, 16 * b) != Fraction(a, b)

    def table(unums, dens):
        n = len(unums)
        return immersion._Crossings(
            np.zeros((4, 2), dtype=np.int64), np.zeros(n, dtype=np.int64),
            np.arange(1, n + 1), np.ones(n, dtype=np.int64),
            np.array(unums), np.ones(n, dtype=np.int64), np.array(dens), None, None)

    assert table([a, c], [b, d]).share_a_point()
    assert table([a, 16 * a + 1, c], [b, 16 * b, d]).share_a_point()
    assert not table([a, 16 * a + 1], [b, 16 * b]).share_a_point()


def _band_table(rows, dtype):
    # A _Crossings table of rows (left, right, unum, wnum, den), its
    # parameter columns of the given dtype (int64, or object for Python
    # ints).
    left, right, unum, wnum, den = zip(*rows)
    return immersion._Crossings(
        None, np.array(left, dtype=np.int64), np.array(right, dtype=np.int64), None,
        np.array(unum, dtype=dtype), np.array(wnum, dtype=dtype), np.array(den, dtype=dtype),
        None, None)


def _shares_a_point(rows):
    # Whether two rows put one segment at one parameter, by Fractions.
    seen = set()
    for left, right, unum, wnum, den in rows:
        for key in ((left, Fraction(unum, den)), (right, Fraction(wnum, den))):
            if key in seen:
                return True
            seen.add(key)
    return False


def _midpoint_straddle(seg):
    # Two terms (n1, d1), (n2, d2) of one parameter t whose int64 float
    # quotients fall on either side of t, with seg + t / 2 halfway between
    # two floats: their keys round apart, one float step of 2**-12 at 2**40.
    # Numerators just past 2**55 round to a multiple of 8, which moves some
    # quotients by more than half a float step of t.
    t = Fraction(2047, 4096)
    below = above = None
    k = (2**55 // t.numerator) | 1
    while below is None or above is None:
        n, d = t.numerator * k, t.denominator * k
        q = float(n) / float(d)
        if q < t and below is None:
            below = (n, d)
        elif q > t and above is None:
            above = (n, d)
        k += 2
    key = [seg + (float(n) / float(d)) / 2 for n, d in (below, above)]
    assert key[1] - key[0] == 2.0**-12 and Fraction(*below) == Fraction(*above)
    return below, above


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "python-int"])
def test_share_a_point_is_exact_at_the_band_edge(dtype):
    # Segment indices near 2**40, where the one float key segment + t / 2
    # rounds in steps of 2**-12: rows it cannot tell apart, or puts out of
    # parameter order, still get the exact verdict.
    s = 2**40 + 5
    a, b = 2222188194313764, 18300373364936880
    c, d = 8376228159744851, 68980702492016420
    cases = [
        # n / d and 2n / 2d on one segment, and on two.
        [(s, s + 3, 1, 1, 3), (s - 2, s, 2, 5, 6)],
        [(s, s + 3, 1, 1, 3), (s + 1, s + 4, 2, 5, 6)],
        # One value in two terms whose float quotients are one ulp apart,
        # and two values with one float quotient.
        [(s, s + 1, a, 1, b), (s, s + 2, c, 1, d)],
        [(s, s + 1, a, 1, b), (s, s + 2, 16 * a + 1, 1, 16 * b)],
        # A third row whose key ties with, and may sort between, two equal
        # ones: the run of tied keys is compared whole.
        [(s, s + 1, 1, 1, 3), (s, s + 2, 2**30 + 1, 1, 3 * 2**30), (s, s + 3, 2, 1, 6)],
        [(s, s + 1, 1, 1, 3), (s, s + 2, 2**30 + 1, 1, 3 * 2**30), (s, s + 3, 2, 1, 5)],
        # A right strand meets a left one.
        [(s - 1, s, 1, 3, 4), (s, s + 1, 6, 1, 8)],
    ]
    below, above = _midpoint_straddle(s)
    cases.append([(s, s + 1, below[0], 1, below[1]), (s, s + 2, above[0], 1, above[1])])
    # Seeded mixes of the same terms on four segments.
    pool = [(1, 3), (2, 6), (a, b), (c, d), (16 * a + 1, 16 * b), below, above, (1, 2), (3, 6)]
    rng = random.Random(20)
    for _ in range(400):
        rows = []
        for _ in range(rng.randint(2, 5)):
            left = rng.choice((s, s + 1))
            (u, du), (w, dw) = rng.choice(pool), rng.choice(pool)
            den = math.lcm(du, dw)
            rows.append((left, left + rng.randint(1, 2), u * (den // du), w * (den // dw), den))
        cases.append(rows)
    checked = 0
    for rows in cases:
        if dtype is np.int64 and max(r[4] for r in rows) >= 2**63:
            continue
        assert _band_table(rows, dtype).share_a_point() == _shares_a_point(rows), rows
        checked += 1
    assert checked > 100
    assert any(_shares_a_point(rows) for rows in cases)
    assert not all(_shares_a_point(rows) for rows in cases)


class _Exact(Fraction):
    """A Fraction subclass, which the constructor coerces point by point."""


def _decimal_text(c):
    # c as an exact decimal string when its denominator divides a power of
    # ten below 10**40, else as "n/d".
    for k in range(40):
        if 10**k % c.denominator == 0:
            digits = str(abs(c.numerator) * (10**k // c.denominator)).rjust(k + 1, "0")
            sign = "-" if c < 0 else ""
            return sign + (f"{digits[:-k]}.{digits[-k:]}" if k else digits)
    return str(c)


def _exact_float(c):
    # c as a float when the float is exactly c, else c.
    try:
        x = float(c)
    except OverflowError:
        return c
    return x if Fraction(x) == c else c


_INTAKE_FORMS = {
    "ints": lambda p: tuple(int(c) if c.denominator == 1 else c for c in p),
    "floats": lambda p: tuple(map(_exact_float, p)),
    "strings": lambda p: tuple(map(_decimal_text, p)),
    "lists": list,
    "subclass": lambda p: tuple(map(_Exact, p)),
}


def _intake_drawings():
    drawings = [random_immersion(make(), 1) for make in WEIGHT_GRAPHS.values()]
    hg = drawings[list(WEIGHT_GRAPHS).index("HG")]
    # A dense drawing on the benchmark's grid, and one past int64.
    return drawings + [dense_style_drawing(1, per_edge=160), moved(hg, 10**30 + 1)]


def test_intake_is_one_function_of_the_values():
    for f in _intake_drawings():
        pos, poly = f.vertex_position, f.edge_polyline
        base = PlaneImmersion(f.graph, pos, poly)
        assert base._points.rows.dtype == f._points.rows.dtype
        assert base._points.rows.tolist() == f._points.rows.tolist()
        text = serialize_immersion(base)
        for name, form in _INTAKE_FORMS.items():
            g = PlaneImmersion(f.graph, {v: form(p) for v, p in pos.items()},
                               {e: tuple(map(form, pts)) for e, pts in poly.items()})
            assert g._points.rows.dtype == base._points.rows.dtype, name
            assert g._points.rows.tolist() == base._points.rows.tolist(), name
            assert g._points.counts.tolist() == base._points.counts.tolist(), name
            assert g.vertex_position == pos and g.edge_polyline == poly, name
            assert serialize_immersion(g) == text, name


def readme_rows(points):
    # (dtype, rows) of the point table by the rule the README states, in
    # Python ints: over the least common denominator when every entry then
    # fits INT_COORD_LIMIT, otherwise each point over the lcm of its own
    # coordinates' denominators.
    limit = kernels.INT_COORD_LIMIT
    scale = math.lcm(*(c.denominator for p in points for c in p))
    rows = [[int(x * scale), int(y * scale), scale] for x, y in points]
    if all(abs(c) <= limit for row in rows for c in row):
        return np.int64, rows
    rows = []
    for x, y in points:
        d = math.lcm(x.denominator, y.denominator)
        rows.append([int(x * d), int(y * d), d])
    return object, rows


def _boundary_drawing(a, b, c):
    # One edge from a to c bent at b, each point a pair of Fractions.
    g = MultiGraph(("u", "v"), (("e", "u", "v"),))
    point = lambda p: tuple(map(Fraction, p))  # noqa: E731
    return g, {"u": point(a), "v": point(c)}, {"e": (point(a), point(b), point(c))}


def _intake_boundaries():
    lim = kernels.INT_COORD_LIMIT
    half, third = Fraction(1, 2), Fraction(1, 3)
    p1, p2 = 99991, 99989  # primes: their lcm is past the limit
    return {
        "terms at the limit": _boundary_drawing((lim, -lim), (0, 1), (-lim, lim)),
        "one past the limit": _boundary_drawing((lim + 1, 0), (0, 1), (2, 3)),
        "one below minus the limit": _boundary_drawing((0, -lim - 1), (0, 1), (2, 3)),
        "scaled to the limit": _boundary_drawing((Fraction(lim - 1, 2), 0), (half, 1), (2, 3)),
        "scaled one past the limit": _boundary_drawing((Fraction(lim + 1, 2), 0), (half, 1),
                                                       (2, 3)),
        "denominator at the limit": _boundary_drawing((Fraction(1, lim), 0), (0, 1), (2, 3)),
        "denominator past the limit": _boundary_drawing((Fraction(1, lim + 7), 0), (0, 1),
                                                        (2, 3)),
        "numerator past 2**63": _boundary_drawing((Fraction(2**63 + 5, 7), 0), (0, 1), (2, 3)),
        "denominator past 2**63": _boundary_drawing((Fraction(1, 2**64 + 1), 0), (0, 1), (2, 3)),
        "lcm of 2 and 3": _boundary_drawing((half, 0), (third, half), (2, Fraction(5, 3))),
        "lcm past the limit": _boundary_drawing((Fraction(1, p1), half), (third, 1),
                                                (2, Fraction(1, p2))),
        "no edges": (MultiGraph(("u", "v"), ()), {"u": (half, third), "v": (Fraction(2), 0)},
                     {}),
        "no points": (MultiGraph((), ()), {}, {}),
    }


@pytest.mark.parametrize("case", sorted(_intake_boundaries()))
def test_intake_boundaries_follow_the_readme_rule(case):
    g, pos, poly = _intake_boundaries()[case]
    points = [pos[v] for v in g.vertices] + [p for name in g.edge_names for p in poly[name]]
    dtype, rows = readme_rows(points)
    # Tuples of Fractions are read term by term; lists are coerced point
    # by point first.  Both fill the same table.
    for form in (tuple, list):
        f = PlaneImmersion(g, {v: form(p) for v, p in pos.items()},
                           {e: tuple(map(form, pts)) for e, pts in poly.items()})
        assert f._points.rows.dtype == dtype, form
        assert f._points.rows.tolist() == rows, form
        assert all(type(c) is int for row in f._points.rows.tolist() for c in row), form
        assert f._points.counts.tolist() == [len(poly[e]) for e in g.edge_names], form
        assert f.vertex_position == pos and f.edge_polyline == poly, form


def _k3_drawing():
    # (graph, vertex positions, polylines) of a K3 drawing on Fractions.
    g = complete_graph(3)
    pos = {v: (Fraction(i), Fraction(i * i)) for i, v in enumerate(g.vertices)}
    poly = {name: (pos[t], ((pos[t][0] + pos[h][0]) / 2, (pos[t][1] + pos[h][1]) / 3), pos[h])
            for name, t, h in g.edges}
    return g, pos, poly


def _refusal_cases():
    g, pos, poly = _k3_drawing()
    v, e = g.vertices[0], g.edge_names[0]
    start, end = poly[e][0], poly[e][-1]
    without_e = {k: pts for k, pts in poly.items() if k != e}

    def bent(point):
        return {**poly, e: (start, point, end)}

    return {
        "missing vertex": ({k: p for k, p in pos.items() if k != v}, poly, ValueError,
                           "vertex positions must cover exactly the graph's vertices"),
        "extra vertex": ({**pos, "zz": (Fraction(9), Fraction(9))}, poly, ValueError,
                         "vertex positions must cover exactly the graph's vertices"),
        "missing edge": (pos, without_e, ValueError, "missing polyline for edge 'v1v2'"),
        "unknown edge": (pos, {**poly, "zz": poly[e]}, ValueError,
                         "polylines for unknown edges: ['zz']"),
        "one-point polyline": (pos, {**poly, e: (start,)}, ValueError,
                               "edge 'v1v2' needs at least two polyline points"),
        "3-tuple point": (pos, bent((Fraction(1), Fraction(2), Fraction(3))), ValueError,
                          "too many values to unpack (expected 2)"),
        "1-tuple point": (pos, bent((Fraction(1),)), ValueError,
                          "not enough values to unpack (expected 2, got 1)"),
        "None coordinate": (pos, bent((None, Fraction(2))), TypeError,
                            "argument should be a string or a Rational instance"),
        "bad string": (pos, bent(("1/x", Fraction(2))), ValueError,
                       "Invalid literal for Fraction: '1/x'"),
        # The vertex points are coerced before any edge is looked at.
        "bad vertex and missing edge": ({**pos, v: (Fraction(1), "zz")}, without_e, ValueError,
                                        "Invalid literal for Fraction: 'zz'"),
    }


@pytest.mark.parametrize("case", sorted(_refusal_cases()))
def test_intake_refusals_keep_their_type_message_and_order(case):
    g, _, _ = _k3_drawing()
    pos, poly, error, message = _refusal_cases()[case]
    with pytest.raises(error) as caught:
        PlaneImmersion(g, pos, poly)
    assert type(caught.value) is error and str(caught.value) == message


# -- polyline joints ----------------------------------------------------------
#
# An ordinary joint, segments s and s + 1 of one edge, skips the exact pair
# batch unless some joint folds back.  The reference below scans as the batch
# once ran, with every candidate pair decided by _resolve_contacts.


def every_pair_scan(imm, monkeypatch, python_ints=False):
    # A fresh copy of imm, scanned with every candidate pair, the ordinary
    # joints too, sent through _resolve_contacts; on Python ints when asked.
    with monkeypatch.context() as m:
        m.setattr(immersion, "_exact_pairs", lambda pairs, first, joints: pairs)
        if python_ints:
            return python_int_scan(imm, monkeypatch)
        copy = PlaneImmersion(imm.graph, imm.vertex_position, imm.edge_polyline)
        copy._scan
    return copy


def crossing_table(imm):
    found = imm._scan[1]
    return [column.tolist() for column in
            (found.left, found.right, found.sign, found.unum, found.wnum, found.den)]


def joint_turns(imm):
    # (cross, dot) of the two directions at every breakpoint of imm, from
    # its Fraction views.
    out = []
    for pts in imm.edge_polyline.values():
        for (ax, ay), (bx, by), (cx, cy) in zip(pts, pts[1:], pts[2:]):
            d, e = (bx - ax, by - ay), (cx - bx, cy - by)
            out.append((d[0] * e[1] - d[1] * e[0], d[0] * e[0] + d[1] * e[1]))
    return out


JOINT_GRAPHS = (
    # A loop, two parallel edges and a pendant edge.
    MultiGraph(("a", "b", "c"), (("l", "a", "a"), ("e", "a", "b"), ("f", "a", "b"),
                                 ("g", "b", "c"))),
    MultiGraph(("v", "w"), (("l", "v", "v"), ("e", "v", "w"))),
)


def grid_drawing(rng, graph):
    # Vertices and breakpoints on the grid 0..4, 1 to 4 segments an edge.
    # Three in ten breakpoints after the first go on along the last
    # segment's line: back to its start, back past it, or straight on.
    pos = {v: (rng.randint(0, 4), rng.randint(0, 4)) for v in graph.vertices}
    polylines = {}
    for name, t, h in graph.edges:
        pts = [pos[t]]
        for _ in range(rng.randint(0, 3)):
            if len(pts) > 1 and rng.random() < 0.3:
                (x0, y0), (x1, y1) = pts[-2:]
                k = rng.choice((-1, -2, 1))
                pts.append((x1 + k * (x1 - x0), y1 + k * (y1 - y0)))
            else:
                pts.append((rng.randint(0, 4), rng.randint(0, 4)))
        polylines[name] = (*pts, pos[h])
    return PlaneImmersion(graph, pos, polylines)


def joint_drawings():
    rng = random.Random(21)
    drawings = [grid_drawing(rng, JOINT_GRAPHS[k % 2]) for k in range(240)]
    g, loop = JOINT_GRAPHS
    drawings += [
        # A fold-back at the joint of e[1] and e[2], between contacts that
        # come before and after it in pair order.
        PlaneImmersion(loop, {"v": (0, 0), "w": (1, -2)},
                       {"l": ((0, 0), (-2, 1), (-2, -1), (0, 0)),
                        "e": ((0, 0), (2, 0), (2, 2), (2, 1), (1, 0), (1, -2))}),
        # A partial fold-back on half-integers, beside a crossing.
        PlaneImmersion(loop, {"v": (0, 0), "w": (4, 4)},
                       {"l": ((0, 0), (-1, 3), (-3, 1), (0, 0)),
                        "e": ((0, 0), (4, 0), (Fraction(7, 2), 0), (4, 4))}),
        # The 2-segment loop (v, a, v): its segments overlap entirely.
        PlaneImmersion(loop, {"v": (0, 0), "w": (0, 3)},
                       {"l": ((0, 0), (2, 1), (0, 0)), "e": ((0, 0), (0, 3))}),
        # Straight collinear continuations in a generic drawing with
        # crossings: e runs on along y = 0 and the loop crosses it.
        PlaneImmersion(loop, {"v": (0, 0), "w": (4, 0)},
                       {"l": ((0, 0), (2, 2), (3, -1), (0, 0)),
                        "e": ((0, 0), (1, 0), (2, 0), (4, 0))}),
        # Directions anti-parallel across two edges, but at no joint: the
        # last segment of e and the first of f.
        PlaneImmersion(g, {"a": (0, 0), "b": (4, 0), "c": (4, 3)},
                       {"l": ((0, 0), (-1, 2), (-2, -1), (0, 0)),
                        "e": ((0, 0), (2, 2), (4, 0)), "f": ((0, 0), (2, -2), (4, 0)),
                        "g": ((4, 0), (4, 3))}),
    ]
    generated = [random_immersion(graph, seed) for graph in (theta_graph(4), *JOINT_GRAPHS)
                 for seed in range(3)]
    return (drawings + list(joint_only_drawings().values()) + generated
            + [split_first_segments(imm) for imm in generated])


def joint_only_drawings():
    # Name -> a drawing whose candidate pairs are ordinary joints, but for
    # the path's two edges at their shared vertex and the hairpin's
    # fold-back; the first three leave the exact batch empty.
    edge = MultiGraph(("a", "b"), (("e", "a", "b"),))
    path = MultiGraph(("a", "b", "c"), (("e", "a", "b"), ("f", "b", "c")))
    sp_edge = construct_zero_rotation(MultiGraph(("a", "b"), (("e", "a", "b"),)))
    return {
        "straight edge": PlaneImmersion(edge, {"a": (0, 0), "b": (3, 1)},
                                        {"e": ((0, 0), (3, 1))}),
        "sp one-edge": PlaneImmersion(edge, sp_edge.vertex_position, sp_edge.edge_polyline),
        "zigzag": PlaneImmersion(edge, {"a": (0, 0), "b": (3, 1)},
                                 {"e": ((0, 0), (1, 2), (2, -1), (3, 1))}),
        "path": PlaneImmersion(path, {"a": (0, 0), "b": (2, 0), "c": (4, 0)},
                               {"e": ((0, 0), (1, 1), (2, 0)), "f": ((2, 0), (3, -1), (4, 0))}),
        "hairpin": PlaneImmersion(edge, {"a": (0, 0), "b": (1, 0)},
                                  {"e": ((0, 0), (2, 0), (1, 0))}),
    }


def split_first_segments(imm):
    # imm with the first segment of every edge split at its midpoint, a
    # straight continuation.
    def split(pts):
        (x0, y0), (x1, y1) = pts[:2]
        return (pts[0], ((x0 + x1) / 2, (y0 + y1) / 2), *pts[1:])

    return PlaneImmersion(imm.graph, imm.vertex_position,
                          {e: split(pts) for e, pts in imm.edge_polyline.items()})


def test_joints_off_the_batch_match_every_pair_decided(monkeypatch):
    folds = straight_generic = crossing_generic = 0
    kinds = set()
    for imm in joint_drawings():
        turns = joint_turns(imm)
        fold = any(c == 0 and d < 0 for c, d in turns)
        cases = [(imm, every_pair_scan(imm, monkeypatch))]
        if int(np.abs(imm._points.rows[:, :2]).max()) > 0:
            near = near_coordinate_limit(imm)
            cases.append((near, every_pair_scan(near, monkeypatch)))
        cases.append((python_int_scan(imm, monkeypatch),
                      every_pair_scan(imm, monkeypatch, python_ints=True)))
        for got, want in cases:
            assert got._scan[2][0].dtype == want._scan[2][0].dtype
            assert validate(got).violations == validate(want).violations
            if validate(got).ok:
                assert crossing_table(got) == crossing_table(want)
        folds += fold
        if not fold:
            kinds.update(kind for kind, _ in validate(imm).violations)
        if validate(imm).ok:
            straight_generic += any(c == 0 for c, _ in turns)
            crossing_generic += len(imm._scan[1].left) > 0
    assert folds >= 40 and straight_generic >= 5 and crossing_generic >= 10
    # Drawings with no fold-back, whose joints skip the batch, still give
    # every contact violation.
    assert kinds >= {"overlap", "breakpoint-contact", "triple-point", "crossing-at-breakpoint"}


def test_an_empty_exact_batch_calls_no_classifier(monkeypatch):
    # The sizes of the batches handed to classify_pairs, on each path: no
    # call when every candidate pair is an ordinary joint; the path's edges
    # at b, a vertex-terminal pair, stay on the batch; the hairpin's
    # fold-back sends its one joint through.
    want = {"straight edge": [], "sp one-edge": [], "zigzag": [], "path": [1], "hairpin": [1]}
    classified = []
    real = kernels.classify_pairs

    def classify(segs, pairs):
        classified.append(len(pairs))
        return real(segs, pairs)

    for name, imm in joint_only_drawings().items():
        want_ok = name != "hairpin"
        for fresh in (lambda: PlaneImmersion(imm.graph, imm.vertex_position, imm.edge_polyline),
                      lambda: near_coordinate_limit(imm),
                      lambda: python_int_scan(imm, monkeypatch)):
            classified.clear()
            with monkeypatch.context() as m:
                m.setattr(kernels, "classify_pairs", classify)
                got = fresh()
                got._scan
            assert classified == want[name], name
            every = every_pair_scan(got, monkeypatch,
                                    python_ints=got._scan[2][0].dtype == object)
            assert validate(got).ok == want_ok
            assert validate(got) == validate(every)
            if want_ok:
                for field in dataclasses.fields(got._scan[1]):
                    column, reference = (getattr(f._scan[1], field.name) for f in (got, every))
                    assert column.dtype == reference.dtype
                    assert column.tolist() == reference.tolist()
                assert got._pair_crossings == {}
                assert verify_zero(got) == (True, None)


def test_fold_backs_are_overlaps_in_pair_order(monkeypatch):
    drawings = joint_drawings()[240:243]
    assert [validate(imm).violations for imm in drawings] == [
        (("breakpoint-contact", "e[0] touches e[3] at (1, 0)"),
         ("breakpoint-contact", "e[0] touches e[4] at (1, 0)"),
         ("overlap", "e[1] and e[2] overlap collinearly"),
         ("breakpoint-contact", "e[1] touches e[3] at (2, 1)")),
        (("overlap", "e[0] and e[1] overlap collinearly"),
         ("breakpoint-contact", "e[0] touches e[2] at (7/2, 0)")),
        (("overlap", "l[0] and l[1] overlap collinearly"),),
    ]
    for imm in drawings:
        for report in both_paths(imm, monkeypatch):
            assert report == validate(imm)


def test_ordinary_joints_never_reach_the_classifier(monkeypatch):
    imm = random_immersion(complete_graph(5), 0, breakpoints=(24, 32))
    seen = {}
    real_candidates, real_classify = kernels.candidate_pairs, kernels.classify_pairs

    def candidates(segs):
        seen["candidates"] = real_candidates(segs)
        return seen["candidates"]

    def classify(segs, pairs):
        seen["classified"] = len(pairs)
        return real_classify(segs, pairs)

    with monkeypatch.context() as m:
        m.setattr(kernels, "candidate_pairs", candidates)
        m.setattr(kernels, "classify_pairs", classify)
        fresh = PlaneImmersion(imm.graph, imm.vertex_position, imm.edge_polyline)
        assert validate(fresh).ok
    # Segment s, number i of its edge: the pair (s, s + 1) is a joint when
    # both are on one edge, and every joint's boxes meet.
    edge_of = [e for e, pts in enumerate(imm.edge_polyline.values()) for _ in pts[1:]]
    joints = sum(j == i + 1 and edge_of[i] == edge_of[j]
                 for i, j in seen["candidates"].tolist())
    assert joints == len(edge_of) - len(imm.graph.edges) > 200
    assert seen["classified"] == len(seen["candidates"]) - joints

    # The cycle table reads the scan's joint-direction table as it is.
    dx, dy, turn = fresh._scan[3]
    segs = fresh._scan[2][0]
    assert dx.tolist() == (segs[:, 2] - segs[:, 0]).tolist()
    assert dy.tolist() == (segs[:, 3] - segs[:, 1]).tolist()
    assert turn.tolist() == (dx[:-1] * dy[1:] - dy[:-1] * dx[1:]).tolist()
    calls = []
    real_upward, real_passes = immersion._upward, immersion._passes_past_x
    with monkeypatch.context() as m:
        m.setattr(immersion, "_segment_table", None)
        m.setattr(immersion, "_upward", lambda *a: calls.append(a) or real_upward(*a))
        m.setattr(immersion, "_passes_past_x", lambda *a: calls.append(a) or real_passes(*a))
        fresh._cycle_table
    assert calls[0][0] is dx and calls[0][1] is dy and calls[1][2] is turn
    assert fresh._cycle_table == imm._cycle_table
