"""Diagrams: over/under bookkeeping, signs, L invariants, writhe sums."""

import hashlib
import itertools
import random

import pytest

from immersa import immersion

from immersa.diagrams import (
    Diagram,
    L_invariant,
    crossing_change,
    ell,
    random_lift,
    tb,
    tb_by_length,
    tb_total,
    writhe_cycle,
)
from immersa.epsilon import epsilon_table
from immersa.formats import serialize_diagram
from immersa.graphs import (
    MultiGraph,
    complete_graph,
    enumerate_cycles,
    heawood_graph,
    petersen_graph,
)
from immersa.immersion import PlaneImmersion, crossings, kappa, random_immersion
from immersa.standard import standard_immersion


def writhe_oracle(diagram, cycle, flip=False):
    """Brute-force writhe straight from the crossing records, optionally
    traversing the cycle the other way round."""
    direction = {name: (-d if flip else d) for name, d in cycle.steps}
    names = cycle.edge_name_set
    total = 0
    for rec in crossings(diagram.immersion):
        a, b = rec.edges
        if a in names and b in names:
            sign = rec.geometric_sign
            if diagram.over[rec.id] == "second":
                sign = -sign
            total += sign * direction[a] * direction[b]
    return total


@pytest.fixture(scope="module")
def cross_imm():
    graph = MultiGraph(("a", "b", "c", "d"), (("ab", "a", "b"), ("cd", "c", "d")))
    return PlaneImmersion(
        graph,
        {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1)},
        {"ab": ((-1, 0), (1, 0)), "cd": ((0, -1), (0, 1))},
    )


@pytest.fixture(scope="module")
def figure_eight():
    graph = MultiGraph(("v",), (("l", "v", "v"),))
    return PlaneImmersion(
        graph,
        {"v": (0, 0)},
        {"l": ((0, 0), (4, 0), (4, 4), (6, 2), (0, 0))},
    )


class TestConstruction:
    def test_edge_name_normalizes(self, cross_imm):
        rec = crossings(cross_imm)[0]
        first = Diagram(cross_imm, {rec.id: rec.edges[0]})
        second = Diagram(cross_imm, {rec.id: rec.edges[1]})
        assert first.over[rec.id] == "first"
        assert second.over[rec.id] == "second"
        over = {"first": rec.edges[0], "second": rec.edges[1]}
        assert over[first.over[rec.id]] == rec.edges[0]
        assert over[second.over[rec.id]] == rec.edges[1]

    def test_wrong_edge_name_rejected(self, cross_imm):
        rec = crossings(cross_imm)[0]
        with pytest.raises(ValueError, match="not one of its edges"):
            Diagram(cross_imm, {rec.id: "nope"})

    def test_cover_must_be_exact(self, cross_imm):
        rec = crossings(cross_imm)[0]
        with pytest.raises(ValueError, match="missing"):
            Diagram(cross_imm, {})
        with pytest.raises(ValueError, match="unknown"):
            Diagram(cross_imm, {rec.id: "first", "ghost": "first"})

    def test_self_crossing_needs_positional_choice(self, figure_eight):
        rec = crossings(figure_eight)[0]
        with pytest.raises(ValueError, match="first"):
            Diagram(figure_eight, {rec.id: "l"})
        diagram = Diagram(figure_eight, {rec.id: "first"})
        assert diagram.sign(rec.id) == rec.geometric_sign

    def test_edge_names_give_the_positional_diagram(self):
        f = random_immersion(petersen_graph(), 3)
        lift = random_lift(f, 5)
        named = {}
        for rec in crossings(f):
            choice = lift.over[rec.id]
            named[rec.id] = choice if rec.is_self else rec.edges[choice == "second"]
        diagram = Diagram(f, named)
        assert diagram.over == lift.over
        assert L_invariant(diagram, "PG") == L_invariant(lift, "PG")
        assert tb_by_length(diagram) == tb_by_length(lift)
        assert all(diagram.sign(cid) == lift.sign(cid) for cid in lift.over)


class TestSigns:
    def test_over_choice_flips_sign(self, cross_imm):
        # ab runs rightward, cd upward: det[t_ab, t_cd] > 0.
        rec = crossings(cross_imm)[0]
        first = Diagram(cross_imm, {rec.id: "first"})
        second = Diagram(cross_imm, {rec.id: "second"})
        assert first.sign(rec.id) == rec.geometric_sign == 1
        assert second.sign(rec.id) == -1

    def test_crossing_change_is_an_involution(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        flipped = crossing_change(diagram, rec.id)
        assert flipped.over[rec.id] == "second"
        back = crossing_change(flipped, rec.id)
        assert back.over == diagram.over

    def test_crossing_change_unknown_id(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        with pytest.raises(ValueError, match="unknown crossing"):
            crossing_change(diagram, "zz:zz:0")


class TestEll:
    def test_hand_value_and_symmetry(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        assert ell(diagram, "ab", "cd") == 1
        assert ell(diagram, "cd", "ab") == 1
        assert ell(crossing_change(diagram, rec.id), "ab", "cd") == -1

    def test_orientation_flips_negate(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        assert ell(diagram, ("ab", -1), "cd") == -1
        assert ell(diagram, ("ab", -1), ("cd", -1)) == 1

    def test_same_edge_rejected(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        with pytest.raises(ValueError, match="distinct"):
            ell(diagram, "ab", "ab")
        with pytest.raises(ValueError, match="unknown edge"):
            ell(diagram, "ab", "zz")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_parity_matches_crossing_count(self, seed):
        imm = random_immersion(petersen_graph(), seed)
        diagram = random_lift(imm, seed + 100)
        counts = {}
        for rec in crossings(imm):
            if rec.distance_class and rec.distance_class != float("inf"):
                counts[rec.edges] = counts.get(rec.edges, 0) + 1
        for (d, e), count in counts.items():
            assert ell(diagram, d, e) % 2 == count % 2


class TestLInvariant:
    def test_wrong_graph_rejected(self):
        imm = standard_immersion("PG-star")
        diagram = random_lift(imm, 0)
        with pytest.raises(ValueError, match="canonical HG graph"):
            L_invariant(diagram, "HG")

    @pytest.mark.parametrize("model,target,kappa_class", [
        ("PG-star", "PG", 1),
        ("PG-min", "PG", 1),
        ("HG-ring", "HG", 2),
    ])
    def test_odd_and_tied_to_kappa(self, model, target, kappa_class):
        imm = standard_immersion(model)
        k = kappa(imm, kappa_class)
        for seed in range(4):
            value = L_invariant(random_lift(imm, seed), target)
            assert value % 2 == 1
            assert value % 2 == k % 2

    @pytest.mark.parametrize("graph,target,kappa_class,seed", [
        (petersen_graph(), "PG", 1, 7),
        (heawood_graph(), "HG", 2, 3),
    ])
    def test_random_immersions(self, graph, target, kappa_class, seed):
        imm = random_immersion(graph, seed)
        k = kappa(imm, kappa_class)
        values = [L_invariant(random_lift(imm, s), target) for s in range(3)]
        for value in values:
            assert value % 2 == 1 == k % 2
        # Different lifts move the invariant by even steps only.
        assert (values[0] - values[1]) % 2 == 0

    def test_crossing_change_shifts_by_twice_the_weight(self):
        # Flipping one crossing moves the sum by -2 * sign * weight when
        # the pair is weighted, and not at all otherwise.
        imm = random_immersion(petersen_graph(), 11)
        diagram = random_lift(imm, 5)
        table = epsilon_table("PG")
        base = L_invariant(diagram, "PG")
        for rec in crossings(imm):
            changed = L_invariant(crossing_change(diagram, rec.id), "PG")
            # rec.edges is index-ordered, as the table's keys are.
            if rec.edges in table.weights:
                want = base - 2 * diagram.sign(rec.id) * table.weights[rec.edges]
            else:
                want = base
            assert changed == want, rec.id


class TestWrithe:
    def test_figure_eight_loop(self, figure_eight):
        rec = crossings(figure_eight)[0]
        diagram = Diagram(figure_eight, {rec.id: "first"})
        (loop_cycle,) = enumerate_cycles(figure_eight.graph, 1)
        assert writhe_cycle(diagram, loop_cycle) == 1
        assert writhe_cycle(crossing_change(diagram, rec.id), loop_cycle) == -1

    def test_crossing_free_cycle_is_zero(self):
        imm = standard_immersion("PG-star")
        diagram = random_lift(imm, 0)
        pentagon = next(
            c for c in enumerate_cycles(imm.graph, 5)
            if c.edge_name_set == frozenset({"u1u2", "u2u3", "u3u4", "u4u5", "u5u1"})
        )
        assert writhe_cycle(diagram, pentagon) == 0

    def test_traversal_direction_does_not_matter(self):
        imm = random_immersion(petersen_graph(), 2)
        diagram = random_lift(imm, 9)
        for cycle in enumerate_cycles(imm.graph, 5):
            forward = writhe_oracle(diagram, cycle, flip=False)
            backward = writhe_oracle(diagram, cycle, flip=True)
            assert forward == backward == writhe_cycle(diagram, cycle)

    def test_foreign_cycle_rejected(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        (square,) = enumerate_cycles(standard_immersion("K33-hex").graph, 4)[:1]
        with pytest.raises(ValueError):
            writhe_cycle(diagram, square)


class TestTbSums:
    def test_matches_cycle_by_cycle_oracle(self):
        imm = random_immersion(petersen_graph(), 4)
        diagram = random_lift(imm, 1)
        for k in (5, 6, 8, 9):
            want = sum(writhe_oracle(diagram, c) for c in enumerate_cycles(imm.graph, k))
            assert tb(diagram, k) == want
        assert tb_total(diagram) == sum(
            writhe_oracle(diagram, c) for c in enumerate_cycles(imm.graph)
        )

    def test_unknown_length_rejected(self, cross_imm):
        rec = crossings(cross_imm)[0]
        diagram = Diagram(cross_imm, {rec.id: "first"})
        with pytest.raises(ValueError, match="no cycle"):
            tb(diagram, 3)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_petersen_ratios(self, seed):
        imm = random_immersion(petersen_graph(), seed)
        for lift_seed in (0, 1):
            diagram = random_lift(imm, lift_seed)
            sums = tb_by_length(diagram)
            base = sums[5]
            assert sums[6] == base
            assert sums[8] == 2 * base
            assert sums[9] == 3 * base
            assert tb_total(diagram) == 7 * base

    @pytest.mark.parametrize("seed", [1, 6])
    def test_heawood_ratios(self, seed):
        imm = random_immersion(heawood_graph(), seed)
        for lift_seed in (0, 2):
            diagram = random_lift(imm, lift_seed)
            sums = tb_by_length(diagram)
            base = sums[6]
            assert sums[8] == base
            assert sums[10] == 5 * base
            assert sums[12] == 4 * base
            assert sums[14] == 2 * base
            assert tb_total(diagram) == 13 * base

    def test_standard_models_have_the_ratios_too(self):
        star = random_lift(standard_immersion("PG-star"), 0)
        sums = tb_by_length(star)
        assert tb_total(star) == 7 * sums[5]
        ring = random_lift(standard_immersion("HG-ring"), 0)
        sums = tb_by_length(ring)
        assert tb_total(ring) == 13 * sums[6]


class TestRandomLift:
    def test_deterministic(self):
        imm = standard_immersion("HG-ring")
        assert random_lift(imm, 42).over == random_lift(imm, 42).over
        seen = {tuple(sorted(random_lift(imm, s).over.items())) for s in range(8)}
        assert len(seen) > 1

    def test_covers_every_crossing(self):
        imm = standard_immersion("PG-min")
        diagram = random_lift(imm, 0)
        assert set(diagram.over) == {rec.id for rec in crossings(imm)}

    def test_draws_what_rng_choice_draws(self):
        # random_lift reads its choices off whole words of the generator;
        # they must be the ones a rng.choice loop over the crossings makes.
        drawings = [random_immersion(heawood_graph(), s) for s in range(4)]
        for seed in range(200):
            f = drawings[seed % len(drawings)]
            rng = random.Random(seed)
            expected = {rec.id: rng.choice(("first", "second")) for rec in crossings(f)}
            over = random_lift(f, seed).over
            assert over == expected and list(over) == list(expected)


def test_lift_sums_build_no_records(monkeypatch):
    # A lift and its L, kappa and tb sums read the crossing table only.
    made = []

    class Counted(immersion.CrossingRecord):
        def __init__(self, *args, **kwargs):
            made.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(immersion, "CrossingRecord", Counted)
    graph = heawood_graph()
    for seed in range(5):
        f = random_immersion(graph, seed)
        for lift_seed in range(10):
            diagram = random_lift(f, lift_seed)
            assert L_invariant(diagram, "HG") % 2 == kappa(f, 2) % 2 == 1
            tb_by_length(diagram)
    assert made == []
    assert len(list(crossings(f))) == len(made) > 0


def _lift_cases():
    figure_eight = PlaneImmersion(
        MultiGraph(("v",), (("l", "v", "v"),)), {"v": (0, 0)},
        {"l": ((0, 0), (4, 0), (4, 4), (6, 2), (0, 0))})
    cases = [(random_immersion(heawood_graph(), s), "HG") for s in (0, 1)]
    cases += [(random_immersion(petersen_graph(), s), "PG") for s in (0, 1)]
    cases += [(random_immersion(complete_graph(5), s), None) for s in (0, 1)]
    cases.append((figure_eight, None))
    return [(f, target, random_lift(f, s)) for f, target in cases for s in range(20)]


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


class TestLiftByteIdentity:
    # SHA-256 of lifts 0-19 of two HG, PG and K5 drawings and of a figure
    # eight, and of their L, tb and ell values.  Any change to the choices
    # drawn, the crossing ids or the signed sums shows up here.
    @pytest.fixture(scope="class")
    def lifts(self):
        return _lift_cases()

    def test_serialized_lifts(self, lifts):
        assert _digest(serialize_diagram(d) for _, _, d in lifts) == (
            "bd071b45f80bcb56ac82c54338e080be666e2742934e9c933f9d2c0a13567c22"
        )

    def test_L_invariants(self, lifts):
        assert _digest(repr(L_invariant(d, t)) for _, t, d in lifts if t) == (
            "60974e144c3d2eadff269b6eeca673094a93a765f9c7af096adffd70845f160b"
        )

    def test_tb_by_length(self, lifts):
        assert _digest(repr(sorted(tb_by_length(d).items())) for _, _, d in lifts) == (
            "7834a2dc267707418727a04a41b8c29b997f4de49dadb5e6918ae752ea7f65ac"
        )

    def test_ell_on_every_pair(self, lifts):
        assert _digest(repr([ell(d, a, b) for a, b in itertools.combinations(f.graph.edge_names, 2)])
                       for f, _, d in lifts) == (
            "7ad7215d3c65cf60256cdc39af0ef8e769f023355fc1f0cda33f241d18084266"
        )
