import gc
import math
import pickle
import random
import sys
import weakref
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from immersa.census import census_table
from immersa.epsilon import epsilon_table
from immersa.graphs import (
    INFINITE_DISTANCE,
    Cycle,
    MultiGraph,
    block_decomposition,
    build_named,
    complete_bipartite_graph,
    complete_graph,
    cycle_lengths,
    disjoint_edge_pairs,
    edge_distance,
    edge_pairs_at_distance,
    enumerate_cycles,
    has_K4_minor,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    sp_reduction_trace,
    theta_graph,
    _canonical_steps,
)
from immersa.immersion import sum_crossing
from immersa.sp import construct_zero_rotation, random_sp_graph

# Cycle-count ground truth, frozen up front.
PG_CYCLE_COUNTS = {5: 12, 6: 10, 8: 15, 9: 20}
HG_CYCLE_COUNTS = {6: 28, 8: 21, 10: 84, 12: 56, 14: 24}


def to_networkx(g: MultiGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from((t, h) for _, t, h in g.edges)
    return out


def from_networkx(g: nx.Graph) -> MultiGraph:
    verts = tuple(str(v) for v in g.nodes())
    edges = tuple((f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(g.edges()))
    return MultiGraph(verts, edges)


def test_named_graph_shapes():
    pg = petersen_graph()
    assert len(pg.vertices) == 10 and len(pg.edges) == 15
    hg = heawood_graph()
    assert len(hg.vertices) == 14 and len(hg.edges) == 21
    # HG is bipartite with parts {u_i}, {v_i}.
    for _, t, h in hg.edges:
        assert {t[0], h[0]} == {"u", "v"}
    assert len(complete_graph(4).edges) == 6
    assert len(complete_bipartite_graph(3, 3).edges) == 9
    tm = multi_triangle(3)
    assert len(tm.vertices) == 3 and len(tm.edges) == 9
    th = theta_graph(1)
    assert len(th.vertices) == 2 and len(th.edges) == 1
    assert enumerate_cycles(th) == ()


def test_build_named_dispatch():
    assert build_named("PG") == petersen_graph()
    assert build_named("K", 4) == complete_graph(4)
    assert build_named("K", 3, 3) == complete_bipartite_graph(3, 3)
    assert build_named("T", 2) == multi_triangle(2)
    assert build_named("theta", 5) == theta_graph(5)
    with pytest.raises(ValueError):
        build_named("Q")
    with pytest.raises(ValueError):
        build_named("K", 0)
    with pytest.raises(ValueError):
        build_named("PG", 3)


def test_bad_graphs_rejected():
    with pytest.raises(ValueError):
        MultiGraph(("a", "a"), ())
    with pytest.raises(ValueError):
        MultiGraph(("a", "b"), (("e", "a", "c"),))
    with pytest.raises(ValueError):
        MultiGraph(("a", "b"), (("e", "a", "b"), ("e", "b", "a")))
    with pytest.raises(ValueError):
        MultiGraph(("a:b",), ())


def test_subgraph_equals_the_checked_graph(monkeypatch):
    # A subgraph keeps its parent's checked names: it runs no name check,
    # and equals, hashes and pickles as the graph built through the
    # public constructor.
    g = multi_triangle(3)
    checked = []
    monkeypatch.setattr(MultiGraph, "__post_init__", lambda self: checked.append(self))
    subs = [g.subgraph_on_edges(g.edge_names[i::2]) for i in range(2)]
    subs.append(g.subgraph_on_edges(()))
    assert checked == []
    monkeypatch.undo()
    for sub in subs:
        edges = tuple(e for e in g.edges if e[0] in sub.edge_names)
        used = {v for _, t, h in edges for v in (t, h)}
        built = MultiGraph(tuple(v for v in g.vertices if v in used), edges)
        assert sub == built and hash(sub) == hash(built) and repr(sub) == repr(built)
        assert pickle.loads(pickle.dumps(sub)) == built
        assert sub.incident == built.incident and enumerate_cycles(sub) == enumerate_cycles(built)


def test_cycle_counts_match_frozen_tables():
    pg = petersen_graph()
    by_len = {}
    for c in enumerate_cycles(pg):
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == PG_CYCLE_COUNTS
    assert sum(by_len.values()) == 57
    hg = heawood_graph()
    by_len = {}
    for c in enumerate_cycles(hg):
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == HG_CYCLE_COUNTS
    assert sum(by_len.values()) == 213
    assert len(enumerate_cycles(hg, 14)) == 24


def test_cycle_lengths_are_kept_per_graph():
    hg = heawood_graph()
    assert cycle_lengths(hg) == tuple(sorted(HG_CYCLE_COUNTS))
    assert cycle_lengths(hg) is cycle_lengths(hg)
    assert cycle_lengths(petersen_graph()) == tuple(sorted(PG_CYCLE_COUNTS))
    assert cycle_lengths(MultiGraph(("a", "b"), (("e", "a", "b"),))) == ()


def test_k4_has_seven_cycles():
    cycles = enumerate_cycles(complete_graph(4))
    assert len(cycles) == 7
    assert sum(1 for c in cycles if len(c) == 3) == 4
    assert sum(1 for c in cycles if len(c) == 4) == 3


def test_cycle_counts_against_networkx():
    for g in (petersen_graph(), complete_graph(4), complete_graph(5), complete_bipartite_graph(3, 3)):
        ours = {}
        for c in enumerate_cycles(g):
            ours[len(c)] = ours.get(len(c), 0) + 1
        theirs = {}
        for cyc in nx.simple_cycles(to_networkx(g)):
            theirs[len(cyc)] = theirs.get(len(cyc), 0) + 1
        assert ours == theirs


def test_multigraph_cycles():
    th = theta_graph(3)
    cycles = enumerate_cycles(th)
    # Three parallel pairs give three 2-cycles; no longer simple cycles exist.
    assert [len(c) for c in cycles] == [2, 2, 2]
    tm = multi_triangle(2)
    counts = {}
    for c in enumerate_cycles(tm):
        counts[len(c)] = counts.get(len(c), 0) + 1
    # 2-cycles: one per doubled pair; 3-cycles: 2^3 choices of strand.
    assert counts == {2: 3, 3: 8}
    loopy = MultiGraph(("a", "b"), (("l", "a", "a"), ("e", "a", "b"), ("f", "b", "a")))
    cycles = enumerate_cycles(loopy)
    assert [len(c) for c in cycles] == [1, 2]


def test_cycles_validate_and_canonical_idempotent():
    for g in (petersen_graph(), heawood_graph(), multi_triangle(2), theta_graph(4)):
        for c in enumerate_cycles(g):
            c.validate(g)
            again = Cycle(c.steps)
            assert again == c
            rotated = Cycle(c.steps[1:] + c.steps[:1])
            assert rotated == c
            reversed_steps = tuple((n, -d) for n, d in reversed(c.steps))
            assert Cycle(reversed_steps) == c


def exhaustive_canonical_steps(steps):
    # The canonical form by its definition: the smallest of all 2n
    # rotations of the forward and the reversed traversal, keyed with +1
    # before -1, the first one met winning ties.
    reverse = tuple((name, -d) for name, d in reversed(steps))
    best = best_key = None
    for seq in (steps, reverse):
        for r in range(len(seq)):
            cand = seq[r:] + seq[:r]
            key = tuple((name, 0 if d > 0 else 1) for name, d in cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    return best


def test_canonical_steps_match_the_exhaustive_rule():
    # Seeded step sequences, half of them with repeated edge names (no
    # simple cycle, but Cycle still takes them), against the definition.
    rng = random.Random(20)
    for trial in range(4000):
        n = rng.randint(1, 9)
        if trial % 2:
            names = [f"e{rng.randrange(3)}" for _ in range(n)]
        else:
            names = [f"e{k}" for k in rng.sample(range(20), n)]
        steps = tuple((name, rng.choice((1, -1))) for name in names)
        assert _canonical_steps(steps) == exhaustive_canonical_steps(steps), steps
    assert _canonical_steps(()) is None
    for g in (heawood_graph(), complete_graph(5), multi_triangle(2), theta_graph(4)):
        for c in enumerate_cycles(g):
            assert c.steps == exhaustive_canonical_steps(c.steps)


def test_edge_distance_basics():
    pg = petersen_graph()
    assert edge_distance(pg, "u1u2", "u1v1") == 0
    assert edge_distance(pg, "u1u2", "u3u4") == 1
    assert edge_distance(pg, "u1u2", "u1u2") == 0
    for d, e in combinations(pg.edge_names, 2):
        td, hd = pg.endpoints[d]
        te, he = pg.endpoints[e]
        dist = edge_distance(pg, d, e)
        assert dist == edge_distance(pg, e, d)
        assert (dist == 0) == bool({td, hd} & {te, he})


def test_edge_distance_against_networkx():
    for g in (petersen_graph(), heawood_graph(), complete_bipartite_graph(3, 3)):
        nxg = to_networkx(g)
        sp = dict(nx.all_pairs_shortest_path_length(nxg))
        for d, e in combinations(g.edge_names, 2):
            td, hd = g.endpoints[d]
            te, he = g.endpoints[e]
            want = min(sp[a][b] for a in (td, hd) for b in (te, he))
            assert edge_distance(g, d, e) == want


def test_disconnected_edges_get_sentinel():
    g = MultiGraph(("a", "b", "c", "d"), (("e1", "a", "b"), ("e2", "c", "d")))
    assert edge_distance(g, "e1", "e2") == INFINITE_DISTANCE
    assert math.isinf(edge_distance(g, "e1", "e2"))


def test_distance_class_sizes():
    pg = petersen_graph()
    assert len(edge_pairs_at_distance(pg, 0)) == 30
    assert len(edge_pairs_at_distance(pg, 1)) == 60
    assert len(edge_pairs_at_distance(pg, 2)) == 15
    assert len(disjoint_edge_pairs(pg)) == 75
    hg = heawood_graph()
    assert len(edge_pairs_at_distance(hg, 0)) == 42
    assert len(edge_pairs_at_distance(hg, 1)) == 84
    assert len(edge_pairs_at_distance(hg, 2)) == 84
    assert len(disjoint_edge_pairs(hg)) == 168


def test_pg_distance_one_connector_unique():
    # For every distance-1 pair of PG there is exactly one edge meeting both.
    pg = petersen_graph()
    for d, e in edge_pairs_at_distance(pg, 1):
        connectors = [
            x
            for x in pg.edge_names
            if x not in (d, e)
            and edge_distance(pg, x, d) == 0
            and edge_distance(pg, x, e) == 0
        ]
        assert len(connectors) == 1, (d, e, connectors)


def test_derived_data_is_freed_with_its_graph():
    graph = random_sp_graph(5)
    imm = construct_zero_rotation(graph)
    sum_crossing(imm, None)
    census_table(graph, sorted({len(c) for c in enumerate_cycles(graph)}))
    assert pickle.loads(pickle.dumps(graph)) == graph  # the memo pickles too
    ref = weakref.ref(graph)
    del graph, imm
    gc.collect()
    assert ref() is None


def test_no_global_cache_is_keyed_on_graphs():
    # Per-graph data lives in the graph's memo; the one process-wide cache
    # left is the weight table loader, keyed on the "PG"/"HG" name.
    import immersa.cli  # noqa: F401  loads every module of the package
    cached = {
        obj
        for name, module in list(sys.modules.items())
        if module is not None and (name == "immersa" or name.startswith("immersa."))
        for obj in vars(module).values()
        if callable(obj) and hasattr(obj, "cache_info")
    }
    assert cached == {epsilon_table}


# --- K4 minors -------------------------------------------------------------


def _partitions_into_four(items):
    # Unordered partitions of a subset of items into exactly 4 nonempty blocks
    # (remaining items unused); blocks ordered by first item to avoid repeats.
    def rec(i, blocks):
        if i == len(items):
            if len(blocks) == 4:
                yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()
        yield from rec(i + 1, blocks)  # x unused

    yield from rec(0, [])


def brute_force_k4_minor(g: MultiGraph) -> bool:
    # Oracle: search directly for a K4 minor model (4 connected branch sets,
    # every pair joined by an edge).  Exponential but fine for <= 7 vertices.
    adjacency = {v: set() for v in g.vertices}
    for _, t, h in g.edges:
        if t != h:
            adjacency[t].add(h)
            adjacency[h].add(t)

    def connected(block):
        block = set(block)
        seen = {next(iter(block))}
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v] & block:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen == block

    def joined(b1, b2):
        return any(w in adjacency[v] for v in b1 for w in b2)

    for blocks in _partitions_into_four(list(g.vertices)):
        if all(connected(b) for b in blocks) and all(
            joined(b1, b2) for b1, b2 in combinations(blocks, 2)
        ):
            return True
    return False


def test_k4_minor_named_graphs():
    assert has_K4_minor(complete_graph(4))
    assert has_K4_minor(petersen_graph())
    assert has_K4_minor(heawood_graph())
    assert has_K4_minor(complete_bipartite_graph(3, 3))
    assert has_K4_minor(complete_graph(5))
    for n in range(1, 7):
        assert not has_K4_minor(theta_graph(n))
    for m in range(1, 5):
        assert not has_K4_minor(multi_triangle(m))
    assert not has_K4_minor(complete_graph(3))


def test_k4_minor_against_bruteforce_atlas():
    # Every graph in the atlas on <= 6 vertices.
    for nxg in nx.graph_atlas_g():
        if nxg.number_of_nodes() == 0 or nxg.number_of_nodes() > 6:
            continue
        g = from_networkx(nxg)
        assert has_K4_minor(g) == brute_force_k4_minor(g), nxg.edges()


@given(st.integers(0, 2**21 - 1))
def test_k4_minor_against_bruteforce_random7(mask):
    pairs = list(combinations(range(7), 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(7))
    nxg.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
    g = from_networkx(nxg)
    assert has_K4_minor(g) == brute_force_k4_minor(g)


def test_sp_reduction_trace():
    ok, lines = sp_reduction_trace(theta_graph(3))
    assert ok and lines[-1] == "reduced to the empty graph"
    ok, lines = sp_reduction_trace(petersen_graph())
    assert not ok and lines[-1].startswith("stuck:")


# --- blocks ----------------------------------------------------------------


def test_block_decomposition_examples():
    bowtie = MultiGraph(
        ("a", "b", "w", "c", "d"),
        (
            ("e1", "a", "b"), ("e2", "b", "w"), ("e3", "w", "a"),
            ("e4", "w", "c"), ("e5", "c", "d"), ("e6", "d", "w"),
        ),
    )
    blocks = block_decomposition(bowtie)
    assert len(blocks) == 2
    for block, cuts in blocks:
        assert len(block.edges) == 3
        assert cuts == ("w",)

    pg_blocks = block_decomposition(petersen_graph())
    assert len(pg_blocks) == 1
    assert pg_blocks[0][1] == ()
    assert len(pg_blocks[0][0].edges) == 15

    path5 = MultiGraph(
        ("a", "b", "c", "d", "e"),
        (("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "e")),
    )
    blocks = block_decomposition(path5)
    assert len(blocks) == 4
    assert all(len(b.edges) == 1 for b, _ in blocks)

    loopy = MultiGraph(("a", "b"), (("l", "a", "a"), ("e", "a", "b"), ("f", "a", "b")))
    blocks = block_decomposition(loopy)
    sizes = sorted(len(b.edges) for b, _ in blocks)
    assert sizes == [1, 2]


def test_every_cycle_lies_in_one_block():
    for g in (petersen_graph(), multi_triangle(2)):
        blocks = block_decomposition(g)
        for c in enumerate_cycles(g):
            homes = [b for b, _ in blocks if c.edge_name_set <= set(b.edge_names)]
            assert len(homes) == 1


@given(st.integers(0, 2**15 - 1))
def test_blocks_against_networkx(mask):
    pairs = list(combinations(range(6), 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(6))
    nxg.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
    g = from_networkx(nxg)
    ours = sorted(
        tuple(sorted(b.vertices)) for b, _ in block_decomposition(g) if len(b.edges) > 0
    )
    theirs = sorted(
        tuple(sorted(str(v) for v in comp))
        for comp in nx.biconnected_components(nxg)
    )
    assert ours == theirs
    cut_ours = sorted(
        {v for b, cuts in block_decomposition(g) for v in cuts}
    )
    assert cut_ours == sorted(str(v) for v in nx.articulation_points(nxg))
