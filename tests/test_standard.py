"""The fixed drawings and their exact crossing structure."""

import math
from fractions import Fraction

import pytest

from immersa.graphs import enumerate_cycles
from immersa.immersion import (
    crossings,
    cycle_crossing_number,
    kappa,
    rotation_number,
    rotation_sum,
    sum_crossing,
    validate,
)
from immersa.standard import MODEL_NAMES, standard_immersion


def test_model_names():
    assert MODEL_NAMES == ("HG-ring", "K33-hex", "PG-min", "PG-star", "theta")


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        standard_immersion("moebius")
    with pytest.raises(ValueError, match="strand count"):
        standard_immersion("theta")
    with pytest.raises(ValueError, match="no parameter"):
        standard_immersion("PG-star", n=3)


class TestPentagram:
    def test_crossing_structure(self):
        imm = standard_immersion("PG-star")
        recs = crossings(imm)
        assert len(recs) == 5
        assert all(rec.distance_class == 1 for rec in recs)
        assert sorted(rec.edges for rec in recs) == [
            ("v1v3", "v2v4"), ("v1v3", "v5v2"), ("v2v4", "v3v5"),
            ("v3v5", "v4v1"), ("v4v1", "v5v2"),
        ]

    def test_exact_sums(self):
        imm = standard_immersion("PG-star")
        assert sum_crossing(imm, 5) == 5
        assert sum_crossing(imm, 6) == 5
        assert sum_crossing(imm, 9) == 35
        assert kappa(imm, 1) == 5
        assert kappa(imm, 2) == 0

    def test_pentagon_is_embedded(self):
        imm = standard_immersion("PG-star")
        pentagon = next(
            c for c in enumerate_cycles(imm.graph, 5)
            if c.edge_name_set == {"u1u2", "u2u3", "u3u4", "u4u5", "u5u1"}
        )
        assert cycle_crossing_number(imm, pentagon) == 0
        assert abs(rotation_number(imm, pentagon)) == 1


class TestPetersenMinimal:
    def test_two_crossings_with_distinct_classes(self):
        imm = standard_immersion("PG-min")
        recs = crossings(imm)
        got = {rec.edges: rec.distance_class for rec in recs}
        assert got == {("u1u2", "v3v5"): 2, ("u3u4", "v4v1"): 1}
        assert kappa(imm, 1) == 1
        assert kappa(imm, 2) == 1

    def test_parity_on_all_cycles(self):
        imm = standard_immersion("PG-min")
        for cyc in enumerate_cycles(imm.graph):
            rot = rotation_number(imm, cyc)
            assert (rot - cycle_crossing_number(imm, cyc)) % 2 == 1


class TestHeawoodRing:
    def test_crossing_structure(self):
        imm = standard_immersion("HG-ring")
        recs = crossings(imm)
        assert len(recs) == 14
        by_class = {}
        for rec in recs:
            by_class[rec.distance_class] = by_class.get(rec.distance_class, 0) + 1
        assert by_class == {1: 7, 2: 7}

    def test_exact_sums(self):
        imm = standard_immersion("HG-ring")
        assert sum_crossing(imm, 6) == 21
        assert sum_crossing(imm, 8) == 35
        assert sum_crossing(imm, 10) == 245
        assert kappa(imm, 2) == 7

    def test_rim_is_embedded_14_cycle(self):
        imm = standard_immersion("HG-ring")
        rim = {f"u{i}v{i}" for i in range(1, 8)}
        rim |= {f"u{i}v{i % 7 or 7}" for i in range(1, 8)}
        n = len(imm.graph.edges)
        counts = imm._pair_counts.reshape(n, n)
        on_rim = [imm.graph.edge_index[name] for name in rim]
        assert counts.sum() and not counts[on_rim].any() and not counts[:, on_rim].any()


class TestK33Hexagon:
    def test_single_crossing(self):
        imm = standard_immersion("K33-hex")
        recs = crossings(imm)
        assert len(recs) == 1
        assert recs[0].edges == ("a1b2", "a2b3")
        assert recs[0].distance_class == 1

    def test_crossed_cycle_census(self):
        imm = standard_immersion("K33-hex")
        crossed4 = [c for c in enumerate_cycles(imm.graph, 4)
                    if cycle_crossing_number(imm, c)]
        crossed6 = [c for c in enumerate_cycles(imm.graph, 6)
                    if cycle_crossing_number(imm, c)]
        assert len(crossed4) == 1
        assert len(crossed6) == 3
        assert all(cycle_crossing_number(imm, c) == 1 for c in crossed4 + crossed6)

    def test_rotation_sum_over_4_cycles_is_even(self):
        imm = standard_immersion("K33-hex")
        total = rotation_sum(imm, 4)
        assert total == sum(rotation_number(imm, c)
                            for c in enumerate_cycles(imm.graph, 4))
        assert total % 2 == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_theta_fan(n):
    imm = standard_immersion("theta", n=n)
    assert validate(imm).ok
    recs = crossings(imm)
    assert len(recs) == n * (n - 1) // 2
    assert all(rec.distance_class == 0 and not rec.is_self for rec in recs)
    for cyc in enumerate_cycles(imm.graph, 2):
        assert rotation_number(imm, cyc) == 0
        assert cycle_crossing_number(imm, cyc) == 1


def test_grid_snapped_coordinates():
    imm = standard_immersion("PG-star")
    assert imm.vertex_position["v1"] == (Fraction(0), Fraction(1))
    assert imm.vertex_position["u1"] == (Fraction(0), Fraction(2))
    for x, y in imm.vertex_position.values():
        assert x.denominator <= 10**4 and y.denominator <= 10**4
