"""The cycle-family weight core and the cycle table against per-cycle oracles.

Every crossing sum, writhe sum, kappa and census column is read off one
per-pair weight object, and every per-cycle crossing number and rotation
number off one table per immersion; each is checked here against the plain
per-cycle (or per-pair) loop it replaces.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from immersa.census import (
    census_table,
    check_sum_divisibility,
    check_sum_invariance,
    pair_orientation_convention,
    tb_ratio,
)
from immersa.diagrams import L_invariant, ell, random_lift, tb, writhe_cycle
from immersa.epsilon import epsilon_table
from immersa.graphs import (
    Cycle,
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    edge_distance,
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
)
from immersa.sp import construct_zero_rotation, random_sp_graph, verify_zero


def triangle_and_square():
    # Two components, so some edge pairs sit at infinite distance.
    return MultiGraph(
        ("t1", "t2", "t3", "s1", "s2", "s3", "s4"),
        (("a", "t1", "t2"), ("b", "t2", "t3"), ("c", "t3", "t1"),
         ("p", "s1", "s2"), ("q", "s2", "s3"), ("r", "s3", "s4"), ("s", "s4", "s1")),
    )


def theta_with_loops():
    # theta_4 plus a loop at each vertex: 1-cycles, 2-cycles and pairs of
    # parallel edges in one graph.
    theta = theta_graph(4)
    return MultiGraph(theta.vertices,
                      theta.edges + (("lu", "u", "u"), ("lv", "v", "v")))


GRAPHS = {
    "PG": petersen_graph,
    "HG": heawood_graph,
    "K5": lambda: complete_graph(5),
    "K33": lambda: complete_bipartite_graph(3, 3),
    "T3": lambda: multi_triangle(3),
    "theta4": lambda: theta_graph(4),
    "sp0": lambda: random_sp_graph(0),
    "sp19": lambda: random_sp_graph(19),
    "sp29": lambda: random_sp_graph(29),
    "sp33": lambda: random_sp_graph(33),
    "two-components": triangle_and_square,
    "theta4-loops": theta_with_loops,
}


def crossing_oracle(f, cycle, counts):
    """Crossings of the cycle's restriction, edge pair by edge pair; counts
    maps each index-ordered pair to its crossings."""
    names = sorted(cycle.edge_name_set, key=f.graph.edge_index.get)
    return sum(counts[a, b] for i, a in enumerate(names) for b in names[i:])


def writhe_oracle(cycle, recs, signs):
    """Writhe of a cycle, crossing by crossing: each crossing with both
    strands on the cycle adds its sign times the cycle's traversal
    directions on the two strands; signs maps crossing ids to signs."""
    dirs = dict(cycle.steps)
    return sum(dirs[rec.edges[0]] * dirs[rec.edges[1]] * signs[rec.id] for rec in recs
               if rec.edges[0] in dirs and rec.edges[1] in dirs)


def rotation_oracle(f, cycle, orientation=1):
    """Turning number of the cycle's closed polygon: the sum of its exterior
    angles over 2 pi, each from the exact cross and dot products rounded to
    floats, so only for coordinates of float range."""
    steps = cycle.steps
    if orientation == -1:
        steps = tuple((name, -d) for name, d in reversed(steps))
    points = []
    for name, d in steps:
        pts = f.edge_polyline[name]
        points.extend((pts if d > 0 else pts[::-1])[:-1])
    dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:] + points[:1])]
    turn = sum(math.atan2(float(u[0] * v[1] - u[1] * v[0]), float(u[0] * v[0] + u[1] * v[1]))
               for u, v in zip(dirs[-1:] + dirs[:-1], dirs))
    return round(turn / (2 * math.pi))


def passes(d1, d2):
    """Signed passes of a tangent past the +x direction as it turns from d1
    to d2 by less than pi: +1 turning left from the lower into the upper
    half-plane, -1 turning right from the upper into the lower one, where
    upper means y > 0, or y == 0 and x > 0."""
    up1 = d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)
    up2 = d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)
    if up1 == up2:
        return 0
    turn = d1[0] * d2[1] - d1[1] * d2[0]
    if up2:
        return 1 if turn > 0 else 0
    return -1 if turn < 0 else 0


def passes_rotation(f, cycle, orientation=1):
    """Turning number of the cycle's closed polygon as the sum of passes
    past +x over its corners, corner by corner on Fractions: exact for
    coordinates of any size."""
    steps = cycle.steps
    if orientation == -1:
        steps = tuple((name, -d) for name, d in reversed(steps))
    points = []
    for name, d in steps:
        pts = f.edge_polyline[name]
        points.extend((pts if d > 0 else pts[::-1])[:-1])
    dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:] + points[:1])]
    return sum(map(passes, dirs[-1:] + dirs[:-1], dirs))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cycle_table_matches_per_cycle_oracles(name):
    graph = GRAPHS[name]()
    cycles = enumerate_cycles(graph)
    lengths = sorted({len(c) for c in cycles})
    for seed in (1, 2):
        f = random_immersion(graph, seed)
        counts = Counter(rec.edges for rec in crossings(f))
        rots = {}
        for c in cycles:
            assert cycle_crossing_number(f, c) == crossing_oracle(f, c, counts), c
            rots[c] = rotation_oracle(f, c)
            assert rotation_number(f, c) == rots[c], c
            assert rotation_number(f, c, orientation=-1) == rotation_oracle(f, c, -1), c
        for k in lengths + [lengths[-1] + 1, None]:
            assert rotation_sum(f, k) == sum(rots[c] for c in enumerate_cycles(graph, k)), k
        offender = next((c for c in cycles if rots[c]), None)
        assert verify_zero(f) == (offender is None, offender)


@pytest.mark.parametrize("k", [0, -3, True, False, 2.5, "3", 3.0])
def test_crossing_and_rotation_sums_refuse_the_same_lengths(k):
    f = random_immersion(complete_graph(4), 1)
    lift = random_lift(f, seed=1)
    for total in (sum_crossing, rotation_sum, lambda f, k: tb(lift, k)):
        with pytest.raises(ValueError, match="cycle length must be an integer of at least 1"):
            total(f, k)


def test_numpy_integer_lengths_read_as_ints():
    f = random_immersion(heawood_graph(), 1)
    lift = random_lift(f, seed=1)
    for total in (sum_crossing, rotation_sum, lambda f, k: tb(lift, k)):
        assert total(f, np.int64(6)) == total(f, 6)


@pytest.mark.parametrize("name", ["sp0", "sp19", "sp29", "sp33"])
def test_zero_rotation_constructions_match_oracle(name):
    f = construct_zero_rotation(GRAPHS[name]())
    assert all(rotation_oracle(f, c) == 0 for c in enumerate_cycles(f.graph))
    assert verify_zero(f) == (True, None)


def test_cycle_table_rejects_foreign_cycles():
    f = random_immersion(complete_graph(4), 1)
    foreign = (
        enumerate_cycles(complete_graph(5), 3)[-1],   # an edge K4 lacks
        Cycle((("v1v2", 1), ("v3v4", 1))),            # steps that do not chain
        Cycle((("v1v2", 1),)),                        # a 1-cycle that is no loop
        Cycle((("v1v2", 2), ("v2v3", 1), ("v1v3", -1))),  # a direction other than +-1
    )
    for cycle in foreign:
        for call in (cycle_crossing_number, rotation_number):
            with pytest.raises(ValueError, match="cycle does not belong to the graph"):
                call(f, cycle)


def test_cycle_table_with_no_cycle_and_with_one():
    pos = {"a": (0, 0), "b": (1, 0), "c": (1, 1)}
    path = MultiGraph(("a", "b", "c"), (("ab", "a", "b"), ("bc", "b", "c")))
    lines = {"ab": ((0, 0), (1, 0)), "bc": ((1, 0), (1, 1))}
    f = PlaneImmersion(path, pos, lines)
    assert rotation_sum(f, None) == rotation_sum(f, 3) == 0
    assert verify_zero(f) == (True, None)
    triangle = MultiGraph(path.vertices, path.edges + (("ca", "c", "a"),))
    f = PlaneImmersion(triangle, pos, {**lines, "ca": ((1, 1), (0, 0))})
    (cycle,) = enumerate_cycles(triangle)
    assert cycle_crossing_number(f, cycle) == 0
    assert rotation_number(f, cycle) == rotation_oracle(f, cycle) == rotation_sum(f, 3)
    assert abs(rotation_number(f, cycle)) == 1
    assert verify_zero(f) == (False, cycle)


def direct_counts(graph, cycles):
    """Edge counts, pair counts and signed pair counts, cycle by cycle."""
    index = graph.edge_index
    edges, pairs, signed = Counter(), Counter(), Counter()
    for c in cycles:
        dirs = dict(c.steps)
        names = sorted(c.edge_name_set, key=index.get)
        edges.update(names)
        for d, e in combinations(names, 2):
            pairs[d, e] += 1
            signed[d, e] += dirs[d] * dirs[e]
    return edges, pairs, signed


def column_values(graph, k):
    """Census column -> the set of values over its class, cycle by cycle."""
    edges, pairs, signed = direct_counts(graph, enumerate_cycles(graph, k))
    by_dist = {}
    for d, e in combinations(graph.edge_names, 2):
        by_dist.setdefault(edge_distance(graph, d, e), []).append((d, e))
    out = {"alpha_edge": {edges[e] for e in graph.edge_names} or {None}}
    for name, dist in (("adjacent", 0), ("dist1", 1), ("dist2", 2)):
        members = by_dist.get(dist, [])
        out["alpha_" + name] = {pairs[p] for p in members} or {None}
        if dist:
            out["beta_" + name] = {
                pair_orientation_convention(graph, *p) * signed[p] for p in members
            } or {None}
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_weight_core_matches_per_cycle_oracles(name):
    graph = GRAPHS[name]()
    cycles = enumerate_cycles(graph)
    lengths = sorted({len(c) for c in cycles})
    for seed in (1, 2):
        f = random_immersion(graph, seed)
        recs = crossings(f)
        counts = Counter(rec.edges for rec in recs)
        for k in lengths + [None]:
            assert sum_crossing(f, k) == sum(
                crossing_oracle(f, c, counts) for c in enumerate_cycles(graph, k))
        pair_crossings = Counter(rec.edges for rec in crossings(f) if not rec.is_self)
        for dist in (0, 1, 2, 3, math.inf):
            assert kappa(f, dist) == sum(
                n for (d, e), n in pair_crossings.items()
                if edge_distance(graph, d, e) == dist)
        for lift_seed in (5, 6):
            diagram = random_lift(f, lift_seed)
            for k in lengths:
                assert tb(diagram, k) == sum(
                    writhe_cycle(diagram, c) for c in enumerate_cycles(graph, k))
            # The signed sums against the crossing records and their signs.
            signs = {rec.id: diagram.sign(rec.id) for rec in recs}
            ells = Counter()
            for rec in recs:
                ells[rec.edges] += signs[rec.id]
            for d, e in combinations(graph.edge_names, 2):
                assert ell(diagram, d, e) == ell(diagram, (e, -1), (d, -1)) == ells[d, e]
                assert ell(diagram, (d, -1), e) == -ells[d, e]
            writhes = {c: writhe_oracle(c, recs, signs) for c in cycles}
            for c in cycles:
                assert writhe_cycle(diagram, c) == writhes[c], c
            for k in lengths:
                assert tb(diagram, k) == sum(writhes[c] for c in enumerate_cycles(graph, k))
            if name in ("PG", "HG"):
                weights = epsilon_table(name).weights
                assert L_invariant(diagram, name) == sum(
                    weights.get(rec.edges, 0) * signs[rec.id] for rec in recs)

    for row in census_table(graph, lengths):
        assert row.count == len(enumerate_cycles(graph, row.k))
    for k in lengths:
        rows = census_table(graph, [k])
        for column, values in column_values(graph, k).items():
            assert {getattr(r, column) for r in rows} == values, (k, column)

    # tb_ratio in its three-family form: edge counts, adjacent-pair counts,
    # signed counts on disjoint pairs.
    for j in lengths:
        ej, pj, sj = direct_counts(graph, enumerate_cycles(graph, j))
        first = next(e for e in graph.edge_names if ej[e])
        for k in lengths:
            ek, pk, sk = direct_counts(graph, enumerate_cycles(graph, k))
            q = Fraction(ek[first], ej[first])
            holds = all(ek[e] == q * ej[e] for e in graph.edge_names) and all(
                pk[p] == q * pj[p] if edge_distance(graph, *p) == 0
                else sk[p] == q * sj[p]
                for p in combinations(graph.edge_names, 2))
            assert tb_ratio(graph, j, k) == (q if holds else None), (j, k)

    for family in [[k] for k in lengths] + [lengths]:
        cycles = [c for k in family for c in enumerate_cycles(graph, k)]
        edges, pairs, _ = direct_counts(graph, cycles)
        for m in (2, 3, 4):
            ok, report = check_sum_divisibility(graph, family, m)
            edge_failures = {e: edges[e] for e in graph.edge_names if edges[e] % m}
            pair_failures = {p: pairs[p] for p in combinations(graph.edge_names, 2)
                             if pairs[p] % m}
            assert report["edge_failures"] == edge_failures
            assert report["pair_failures"] == pair_failures
            assert report["family_size"] == len(cycles)
            assert ok == (not edge_failures and not pair_failures)

            def count(d, e):
                return edges[d] if d == e else pairs[tuple(sorted(
                    (d, e), key=graph.edge_index.get))]

            expected = (
                not edge_failures,
                all(2 * n % m == 0 for n in pairs.values()),
                all(sum(count(e, ei) for ei in graph.incident[v]) % m == 0
                    for v in graph.vertices for e in graph.edge_names),
                all(pairs[p] % m == 0 for p in combinations(graph.edge_names, 2)
                    if edge_distance(graph, *p) == 0),
            )
            assert tuple(check_sum_invariance(graph, family, m)) == expected
