"""Tests for series-parallel decomposition and zero-rotation construction."""

import hashlib
import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immersa import immersion, sp
from immersa.formats import serialize_immersion
from immersa.graphs import (
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    enumerate_cycles,
    has_K4_minor,
    heawood_graph,
    petersen_graph,
    theta_graph,
)
from immersa.immersion import (
    crossings,
    cycle_crossing_number,
    random_immersion,
    rotation_number,
    validate,
)
from immersa.sp import (
    HeightCertificate,
    K4MinorError,
    SPTree,
    construct_zero_rotation,
    random_sp_graph,
    sp_decompose,
    verify_zero,
    zero_rotation_certificates,
)


def graph_from_nx(nxg, prefix="v"):
    verts = tuple(f"{prefix}{w}" for w in sorted(nxg.nodes))
    edges = tuple(
        (f"e{i}", f"{prefix}{a}", f"{prefix}{b}")
        for i, (a, b) in enumerate(sorted(nxg.edges))
    )
    return MultiGraph(verts, edges)


def assert_zero_everywhere(graph, imm):
    report = validate(imm)
    assert report.ok, report.summary()
    for cycle in enumerate_cycles(graph):
        assert rotation_number(imm, cycle) == 0
        assert cycle_crossing_number(imm, cycle) % 2 == 1


K4_MINUS_EDGE = MultiGraph(
    ("1", "2", "3", "4"),
    (
        ("a", "1", "2"),
        ("b", "1", "3"),
        ("c", "1", "4"),
        ("d", "2", "3"),
        ("e", "2", "4"),
    ),
)


class TestDecompose:
    def test_theta_is_parallel_of_leaves(self):
        tree = sp_decompose(theta_graph(4), "u", "v")
        assert tree.kind == "parallel"
        assert tree.terminals == ("u", "v")
        assert len(tree.children) == 4
        assert all(child.kind == "leaf" for child in tree.children)
        assert set(tree.leaf_edges()) == {"e1", "e2", "e3", "e4"}

    def test_path_is_series_of_leaves(self):
        g = MultiGraph(("u", "w", "v"), (("e1", "u", "w"), ("e2", "w", "v")))
        tree = sp_decompose(g, "u", "v")
        assert tree.kind == "series"
        assert tree.cuts == ("w",)
        assert [child.kind for child in tree.children] == ["leaf", "leaf"]
        assert tree.children[0].terminals == ("u", "w")
        assert tree.children[1].terminals == ("w", "v")

    def test_triangle_nests_series_inside_parallel(self):
        tree = sp_decompose(complete_graph(3), "v1", "v2")
        assert tree.kind == "parallel"
        kinds = sorted(child.kind for child in tree.children)
        assert kinds == ["leaf", "series"]

    def test_leaves_partition_the_edges(self):
        g = K4_MINUS_EDGE
        tree = sp_decompose(g, "1", "2")
        tree.validate(g)
        assert sorted(tree.leaf_edges()) == sorted(g.edge_names)

    def test_k4_refused_with_trace(self):
        with pytest.raises(K4MinorError) as err:
            sp_decompose(complete_graph(4), "v1", "v2")
        assert err.value.trace
        assert err.value.trace[-1].startswith("stuck")

    def test_wrong_terminal_pair_is_a_minor_of_the_augmented_graph(self):
        # K4 minus an edge is series-parallel between its adjacent vertex
        # pairs, but adding the missing edge back makes K4.
        assert sp_decompose(K4_MINUS_EDGE, "1", "2").kind == "parallel"
        with pytest.raises(K4MinorError):
            sp_decompose(K4_MINUS_EDGE, "3", "4")

    def test_terminal_errors(self):
        g = theta_graph(2)
        with pytest.raises(ValueError, match="vertices"):
            sp_decompose(g, "u", "zzz")
        with pytest.raises(ValueError, match="distinct"):
            sp_decompose(g, "u", "u")
        loopy = MultiGraph(("u", "v"), (("e", "u", "v"), ("l", "u", "u")))
        with pytest.raises(ValueError, match="loop"):
            sp_decompose(loopy, "u", "v")

    def test_dangling_vertex_is_rejected(self):
        g = MultiGraph(
            ("u", "w", "v", "x"),
            (("e1", "u", "w"), ("e2", "w", "v"), ("e3", "w", "x")),
        )
        with pytest.raises(ValueError, match="no path between the terminals"):
            sp_decompose(g, "u", "v")

    @pytest.mark.parametrize("u, v", [("v8", "v7"), ("v7", "v8")])
    def test_piece_off_one_terminal_is_a_value_error(self, u, v):
        # The parallel split at v8, v7 cuts off a piece that meets v7 only;
        # decomposing it must refuse by name, not fail on a missing vertex.
        # The terminals are joined by an edge, but v1, v2, v3, v5 and v6 lie
        # on no v8-v7 path.
        ends = ("v4-v8 v3-v7 v7-v5 v8-v7 v3-v2 v7-v4 v5-v6 v1-v3 v6-v1 v6-v7").split()
        g = MultiGraph(tuple(f"v{i}" for i in range(1, 9)),
                       tuple((f"e{k}", *pair.split("-")) for k, pair in enumerate(ends)))
        with pytest.raises(ValueError, match="a vertex lies on no path between the terminals"
                           ) as caught:
            sp_decompose(g, u, v)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("ends", [
        # A one-edge parallel piece that meets one terminal only.
        ("u-v", "u-w"),
        # A one-edge piece that meets neither terminal, and one of two edges.
        ("u-v", "w-x"),
        ("u-v", "w-x", "x-y"),
    ])
    def test_one_edge_piece_off_the_terminals_is_refused_like_a_larger_one(self, ends):
        vertices = ("u", "v", "w", "x", "y")
        g = MultiGraph(vertices, tuple((f"e{k}", *pair.split("-"))
                                       for k, pair in enumerate(ends)))
        for u, v in (("u", "v"), ("v", "u")):
            with pytest.raises(ValueError, match="a vertex lies on no path between the terminals"
                               ) as caught:
                sp_decompose(g, u, v)
            assert type(caught.value) is ValueError

    @pytest.mark.parametrize("ends", [
        # One piece off the terminals, and u on no edge.
        ("w-v",),
        # Two one-edge pieces, one at each terminal.
        ("u-x", "w-v"),
        # Two paths, one from each terminal.
        ("u-x", "x-y", "w-v", "z-w"),
    ])
    def test_disconnected_terminals_are_a_value_error(self, ends):
        vertices = ("u", "v", "w", "x", "y", "z")
        g = MultiGraph(vertices, tuple((f"e{k}", *pair.split("-"))
                                       for k, pair in enumerate(ends)))
        for u, v in (("u", "v"), ("v", "u")):
            with pytest.raises(ValueError, match="terminals are not connected") as caught:
                sp_decompose(g, u, v)
            assert type(caught.value) is ValueError


class TestSPTreeInvariants:
    def test_series_chain_must_match_cuts(self):
        g = MultiGraph(("u", "w", "v"), (("e1", "u", "w"), ("e2", "w", "v")))
        bad = SPTree(
            "series",
            ("u", "v"),
            (
                SPTree("leaf", ("u", "w"), edge="e1"),
                SPTree("leaf", ("v", "w"), edge="e2"),
            ),
            cuts=("w",),
        )
        with pytest.raises(ValueError, match="chain"):
            bad.validate(g)

    def test_parallel_children_may_only_share_terminals(self):
        g = MultiGraph(
            ("u", "w", "v"),
            (
                ("e1", "u", "w"),
                ("e2", "w", "v"),
                ("e3", "u", "w"),
                ("e4", "w", "v"),
            ),
        )
        series = lambda a, b: SPTree(
            "series",
            ("u", "v"),
            (SPTree("leaf", ("u", "w"), edge=a), SPTree("leaf", ("w", "v"), edge=b)),
            cuts=("w",),
        )
        bad = SPTree("parallel", ("u", "v"), (series("e1", "e2"), series("e3", "e4")))
        with pytest.raises(ValueError, match="overlap"):
            bad.validate(g)

    def test_repeated_edge_is_rejected(self):
        g = theta_graph(2)
        bad = SPTree(
            "parallel",
            ("u", "v"),
            (
                SPTree("leaf", ("u", "v"), edge="e1"),
                SPTree("leaf", ("u", "v"), edge="e1"),
            ),
        )
        with pytest.raises(ValueError, match="repeats"):
            bad.validate(g)

    def test_leaf_terminals_must_match_endpoints(self):
        g = theta_graph(2)
        bad = SPTree("leaf", ("u", "u"), edge="e1")
        with pytest.raises(ValueError, match="terminals"):
            bad.validate(g)


class TestConstructTheta:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_two_edge_cycle_has_rotation_zero(self, n):
        g = theta_graph(n)
        imm = construct_zero_rotation(g)
        assert_zero_everywhere(g, imm)
        assert verify_zero(imm) == (True, None)

    def test_theta_crossing_count_is_one_per_cycle(self):
        g = theta_graph(5)
        imm = construct_zero_rotation(g)
        assert len(list(crossings(imm))) == math.comb(5, 2)
        for cycle in enumerate_cycles(g):
            assert cycle_crossing_number(imm, cycle) == 1


class TestConstructTrees:
    def test_all_trees_up_to_eight_vertices(self):
        count = 0
        for n in range(2, 9):
            for nxt in nx.nonisomorphic_trees(n):
                g = graph_from_nx(nxt)
                imm = construct_zero_rotation(g)
                report = validate(imm)
                assert report.ok, report.summary()
                assert verify_zero(imm) == (True, None)
                count += 1
        assert count == 47

    def test_single_vertex_and_single_edge(self):
        lone = MultiGraph(("a",), ())
        imm = construct_zero_rotation(lone)
        assert validate(imm).ok
        imm = construct_zero_rotation(MultiGraph(("a", "b"), (("e", "a", "b"),)))
        assert validate(imm).ok
        assert len(imm.edge_polyline["e"]) >= 2


class TestConstructGeneral:
    def test_loop_draws_as_figure_eight(self):
        g = MultiGraph(("a",), (("l", "a", "a"),))
        imm = construct_zero_rotation(g)
        assert_zero_everywhere(g, imm)
        [cycle] = enumerate_cycles(g)
        assert cycle_crossing_number(imm, cycle) == 1

    def test_loops_mixed_with_bridges(self):
        g = MultiGraph(
            ("a", "b"),
            (("l", "a", "a"), ("e", "a", "b"), ("l2", "b", "b")),
        )
        assert_zero_everywhere(g, construct_zero_rotation(g))

    def test_two_triangles_sharing_a_vertex(self):
        g = MultiGraph(
            ("a", "b", "c", "d", "e"),
            (
                ("e1", "a", "b"),
                ("e2", "b", "c"),
                ("e3", "c", "a"),
                ("e4", "c", "d"),
                ("e5", "d", "e"),
                ("e6", "e", "c"),
            ),
        )
        assert_zero_everywhere(g, construct_zero_rotation(g))

    def test_disconnected_graph_with_isolated_vertex(self):
        g = MultiGraph(
            ("a", "b", "c", "d", "z"),
            (("e1", "a", "b"), ("e2", "c", "d"), ("e3", "d", "c")),
        )
        imm = construct_zero_rotation(g)
        assert_zero_everywhere(g, imm)
        assert imm.vertex_position["z"] not in (
            imm.vertex_position["a"],
            imm.vertex_position["b"],
        )

    def test_k4_minus_edge(self):
        assert_zero_everywhere(
            K4_MINUS_EDGE, construct_zero_rotation(K4_MINUS_EDGE)
        )

    def test_deterministic(self):
        g = random_sp_graph(17)
        first = construct_zero_rotation(g)
        second = construct_zero_rotation(g)
        assert first.vertex_position == second.vertex_position
        assert first.edge_polyline == second.edge_polyline

    @pytest.mark.parametrize("seed", range(50))
    def test_random_sp_graphs(self, seed):
        g = random_sp_graph(seed)
        imm = construct_zero_rotation(g)
        report = validate(imm)
        assert report.ok, report.summary()
        assert verify_zero(imm) == (True, None)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=50, max_value=10**9))
    def test_random_sp_graphs_property(self, seed):
        g = random_sp_graph(seed)
        assert not has_K4_minor(g)
        imm = construct_zero_rotation(g)
        assert verify_zero(imm) == (True, None)


class TestRefusal:
    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(4),
            complete_graph(5),
            petersen_graph(),
            heawood_graph(),
            complete_bipartite_graph(3, 3),
        ],
        ids=["K4", "K5", "PG", "HG", "K33"],
    )
    def test_k4_minor_graphs_are_refused(self, graph):
        with pytest.raises(K4MinorError) as err:
            construct_zero_rotation(graph)
        assert "K4 minor" in str(err.value)
        assert err.value.trace
        assert err.value.trace[-1].startswith("stuck: irreducible core")

    def test_refusal_matches_the_minor_test(self):
        for seed in range(30):
            g = random_sp_graph(seed)
            assert not has_K4_minor(g)
            construct_zero_rotation(g)


class TestCertificates:
    def test_theta_certificate(self):
        g = theta_graph(5)
        imm, certs = zero_rotation_certificates(g)
        assert len(certs) == 1
        cert = certs[0]
        assert set(cert.terminals) == {"u", "v"}
        assert set(cert.down) == set(g.edge_names)
        cert.check(imm)

    def test_bridge_blocks_get_certificates(self):
        g = MultiGraph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
        imm, certs = zero_rotation_certificates(g)
        assert len(certs) == 2
        for cert in certs:
            cert.check(imm)

    def test_loop_blocks_carry_no_certificate(self):
        g = MultiGraph(("a",), (("l", "a", "a"),))
        _, certs = zero_rotation_certificates(g)
        assert certs == ()

    def test_flipped_functional_fails(self):
        g = theta_graph(3)
        imm, (cert,) = zero_rotation_certificates(g)
        upside_down = HeightCertificate(
            cert.terminals, cert.down, (-cert.functional[0], -cert.functional[1])
        )
        with pytest.raises(ValueError, match="height-monotone"):
            upside_down.check(imm)

    def test_swapped_terminals_fail(self):
        g = theta_graph(3)
        imm, (cert,) = zero_rotation_certificates(g)
        swapped = HeightCertificate(
            (cert.terminals[1], cert.terminals[0]), cert.down, cert.functional
        )
        with pytest.raises(ValueError, match="highest"):
            swapped.check(imm)


class TestVerifyZero:
    def test_flat_triangle_has_an_offender(self):
        g = complete_graph(3)
        pos = {"v1": (0, 0), "v2": (4, 0), "v3": (2, 3)}
        polylines = {
            name: (pos[t], pos[h]) for name, t, h in g.edges
        }
        from immersa.immersion import PlaneImmersion

        imm = PlaneImmersion(g, pos, polylines)
        assert validate(imm).ok
        ok, offender = verify_zero(imm)
        assert not ok
        assert offender is not None
        assert offender.edge_name_set == frozenset(g.edge_names)

    def test_constructed_immersions_pass(self):
        imm = construct_zero_rotation(theta_graph(4))
        assert verify_zero(imm) == (True, None)


class TestRandomSPGraph:
    def test_deterministic_in_the_seed(self):
        assert random_sp_graph(123).edges == random_sp_graph(123).edges
        shapes = {random_sp_graph(seed).edges for seed in range(12)}
        assert len(shapes) > 3

    def test_terminals_present(self):
        g = random_sp_graph(7)
        assert "t0" in g.vertices and "t1" in g.vertices


class TestSingleAudit:
    def test_crossing_audit_fires_on_a_wrong_prediction(self, monkeypatch):
        real = sp._block_piece

        def bogus(block):
            piece = real(block)
            name = block.edges[0][0]
            piece.predicted[(name, name)] += 1
            return piece

        monkeypatch.setattr(sp, "_block_piece", bogus)
        with pytest.raises(RuntimeError, match="crossing audit failed"):
            construct_zero_rotation(theta_graph(3))


def test_constructions_build_only_the_functionals(monkeypatch):
    # The constructor places pieces on integers and hands one lattice to the
    # immersion, so its audit, validate and verify_zero build no Fraction;
    # only each certificate's functional is one Fraction pair.  A random
    # immersion hands over its lattice and builds none.
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(None)
            return super().__new__(cls, *args, **kwargs)

    graphs = [random_sp_graph(seed) for seed in range(20)]
    functionals = sum(len(zero_rotation_certificates(g)[1]) for g in graphs)
    assert functionals > 20
    with monkeypatch.context() as m:
        m.setattr(sp, "Fraction", Counted)
        m.setattr(immersion, "Fraction", Counted)
        for g in graphs:
            f = construct_zero_rotation(g)
            assert validate(f).ok and verify_zero(f) == (True, None)
        assert len(made) == 2 * functionals
        made.clear()
        for seed in range(5):
            assert validate(random_immersion(heawood_graph(), seed)).ok
        assert made == []


LOOPS_AND_BRIDGE = MultiGraph(
    ("a", "b"), (("l", "a", "a"), ("e", "a", "b"), ("l2", "b", "b"))
)


def _construction_digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        imm, certs = zero_rotation_certificates(g)
        h.update(serialize_immersion(imm).encode())
        h.update(repr(certs).encode())
    return h.hexdigest()


def _refusal_digest(calls):
    h = hashlib.sha256()
    for call in calls:
        with pytest.raises(K4MinorError) as err:
            call()
        h.update(str(err.value).encode())
        h.update(repr(err.value.trace).encode())
    return h.hexdigest()


class TestByteIdentity:
    # SHA-256 of the constructor's exact output: drawings, certificates,
    # refusal messages and reduction traces.  Any change to the realization,
    # the placement or the refusals shows up here.
    def test_random_sp_constructions(self):
        assert _construction_digest(random_sp_graph(s) for s in range(50)) == (
            "940b2de59f5a75a405ed600d32685ee81f25fbfe0c7623a123f8ef2b74fee891"
        )

    def test_theta_constructions(self):
        assert _construction_digest(theta_graph(n) for n in range(2, 9)) == (
            "0fbc24b503449607aa7a9c50a1c632e396435eb43c17b47737b023dbf008fa6b"
        )

    def test_loops_and_bridge_construction(self):
        assert _construction_digest([LOOPS_AND_BRIDGE]) == (
            "dde683622bcbc088c0ebaa678ccc1a5e2eba15d7ea7cf1af15e319e65bab111d"
        )

    def test_refusals(self):
        graphs = (complete_graph(4), petersen_graph(), heawood_graph())
        calls = [lambda g=g: zero_rotation_certificates(g) for g in graphs]
        assert _refusal_digest(calls) == (
            "b5fe931046d98f55731e544c66da92a23ffa6ecdf503cae4e4dd4c5ca4761e40"
        )

    def test_decomposition_refusals(self):
        calls = [
            lambda: sp_decompose(complete_graph(4), "v1", "v2"),
            lambda: sp_decompose(K4_MINUS_EDGE, "3", "4"),
        ]
        assert _refusal_digest(calls) == (
            "1f2ebb54502aa9f7ae2b8a704640f1b20e119c4dbd2521fafa59995a5b339b3e"
        )
