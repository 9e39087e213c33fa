from fractions import Fraction

import numpy as np
import pytest

from immersa.census import (
    CensusRow,
    alpha,
    beta,
    census_table,
    check_sum_divisibility,
    check_sum_invariance,
    girth,
    pair_orientation_convention,
    tb_ratio,
)
from immersa.graphs import (
    complete_bipartite_graph,
    complete_graph,
    edge_distance,
    edge_pairs_at_distance,
    enumerate_cycles,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    theta_graph,
)

# Frozen census tables: k -> (count, count*k, a_edge, a_adj, a_d1, a_d2, b_d1, b_d2).
PG_TABLE = {
    5: (12, 60, 4, 2, 1, 0, 1, 0),
    6: (10, 60, 4, 2, 1, 2, 1, 0),
    8: (15, 120, 8, 4, 4, 4, 2, 0),
    9: (20, 180, 12, 6, 7, 8, 3, 0),
}
HG_TABLE = {
    6: (28, 168, 8, 4, 2, 1, 2, 1),
    8: (21, 168, 8, 4, 2, 3, 2, 1),
    10: (84, 840, 40, 20, 18, 17, 10, 5),
    12: (56, 672, 32, 16, 16, 20, 8, 4),
    14: (24, 336, 16, 8, 12, 10, 4, 2),
}


def row_tuple(row: CensusRow):
    return (row.count, row.count_times_k, row.alpha_edge, row.alpha_adjacent,
            row.alpha_dist1, row.alpha_dist2, row.beta_dist1, row.beta_dist2)


def test_pg_census_matches_frozen_table():
    rows = census_table(petersen_graph(), sorted(PG_TABLE))
    assert len(rows) == len(PG_TABLE)
    for row in rows:
        assert row.representative == ()
        assert row_tuple(row) == PG_TABLE[row.k], row.k


def test_hg_census_matches_frozen_table():
    rows = census_table(heawood_graph(), sorted(HG_TABLE))
    assert len(rows) == len(HG_TABLE)
    for row in rows:
        assert row.representative == ()
        assert row_tuple(row) == HG_TABLE[row.k], row.k


def test_k4_census_row():
    rows = census_table(complete_graph(4), [3])
    assert len(rows) == 1
    row = rows[0]
    assert row.count == 4
    assert row.alpha_edge == 2
    assert row.alpha_adjacent == 1
    assert row.alpha_dist1 == 0
    assert row.beta_dist1 == 0
    assert row.alpha_dist2 is None and row.beta_dist2 is None


def test_theta_census_row():
    rows = census_table(theta_graph(3), [2])
    assert len(rows) == 1
    row = rows[0]
    assert (row.count, row.alpha_edge, row.alpha_adjacent) == (3, 2, 1)
    assert row.alpha_dist1 is None and row.beta_dist1 is None


def test_nonuniform_census_splits_rows():
    # In T(2) with k=2, a parallel pair lies on one 2-cycle and a
    # non-parallel adjacent pair on none, so the k=2 row must split.
    rows = census_table(multi_triangle(2), [2])
    assert len(rows) >= 2
    assert any(("alpha_adjacent" in dict(r.representative)) for r in rows)
    values = {r.alpha_adjacent for r in rows}
    assert values == {0, 1}


def test_alpha_examples():
    pg = petersen_graph()
    for e in pg.edge_names:
        assert alpha(pg, 9, e) == 12
    hg = heawood_graph()
    d, e = edge_pairs_at_distance(hg, 0)[0]
    assert alpha(hg, 10, (d, e)) == 20
    assert alpha(pg, 4, "u1u2") == 0  # below girth
    assert girth(pg) == 5 and girth(hg) == 6
    with pytest.raises(ValueError):
        alpha(pg, 5, "nope")
    with pytest.raises(ValueError):
        alpha(pg, 5, ("u1u2", "u1u2"))


def test_cycle_lengths_below_one_rejected():
    pg = petersen_graph()
    for k in (0, -3, True):
        with pytest.raises(ValueError, match="cycle length"):
            census_table(pg, [k])
        with pytest.raises(ValueError, match="cycle length"):
            alpha(pg, k, "u1u2")
        with pytest.raises(ValueError, match="cycle length"):
            check_sum_divisibility(pg, [k], 2)


def test_double_counting():
    cases = [
        (petersen_graph(), (5, 6, 8, 9)),
        (heawood_graph(), (6, 8, 10, 12, 14)),
        (complete_graph(4), (3, 4)),
        (complete_bipartite_graph(3, 3), (4, 6)),
        (multi_triangle(3), (2, 3)),
        (theta_graph(4), (2,)),
    ]
    for g, ks in cases:
        for k in ks:
            total = sum(alpha(g, k, e) for e in g.edge_names)
            assert total == k * len(enumerate_cycles(g, k))


def test_beta_examples_and_antisymmetry():
    pg = petersen_graph()
    d, e = edge_pairs_at_distance(pg, 1)[0]
    sign = pair_orientation_convention(pg, d, e)
    value, split = beta(pg, 5, d, (e, sign))
    assert value == 1
    assert len(split.coherent) == 1 and len(split.incoherent) == 0
    flipped, _ = beta(pg, 5, d, (e, -sign))
    assert flipped == -1
    doubled, _ = beta(pg, 5, (d, -1), (e, -sign))
    assert doubled == 1  # reversing both edges changes nothing

    hg = heawood_graph()
    d2, e2 = edge_pairs_at_distance(hg, 2)[0]
    s2 = pair_orientation_convention(hg, d2, e2)
    value, split = beta(hg, 10, d2, (e2, s2))
    assert value == 5
    assert set(split.coherent).isdisjoint(split.incoherent)
    through = [c for c in enumerate_cycles(hg, 10)
               if {d2, e2} <= c.edge_name_set]
    assert set(split.coherent) | set(split.incoherent) == set(through)
    assert len(split.coherent) - len(split.incoherent) == value

    with pytest.raises(ValueError):
        beta(pg, 5, "u1u2", "u1v1")  # adjacent, not disjoint


def test_pair_helpers_refuse_unknown_edges():
    pg = petersen_graph()
    calls = (
        lambda d, e: edge_distance(pg, d, e),
        lambda d, e: pair_orientation_convention(pg, d, e),
        lambda d, e: beta(pg, 5, d, e),
    )
    for call in calls:
        for d, e in (("u1u2", "zz"), ("zz", "u1u2"), ("zz", "zz")):
            with pytest.raises(ValueError, match="unknown edge 'zz'"):
                call(d, e)
    with pytest.raises(ValueError, match="is not a disjoint pair"):
        pair_orientation_convention(pg, "u1u2", "u1u2")


def test_beta_bounded_by_alpha():
    for g, ks in ((petersen_graph(), (5, 6, 8, 9)), (heawood_graph(), (6, 10, 14))):
        for k in ks:
            for dcls in (1, 2):
                for d, e in edge_pairs_at_distance(g, dcls)[:6]:
                    value, _ = beta(g, k, d, e)
                    assert abs(value) <= alpha(g, k, (d, e))


def test_sum_divisibility_examples():
    ok, report = check_sum_divisibility(petersen_graph(), [8], 4)
    assert ok and report["edge_counts_divisible"] and report["pair_counts_divisible"]
    ok, _ = check_sum_divisibility(heawood_graph(), [12], 4)
    assert ok
    ok, _ = check_sum_divisibility(heawood_graph(), [14], 2)
    assert ok
    ok, report = check_sum_divisibility(complete_graph(4), [3, 4], 3)
    assert not ok
    assert report["edge_failures"]  # alpha(e) = 4 over the full family
    ok, _ = check_sum_divisibility(complete_graph(4), [3, 4], 2)
    assert ok


def test_sum_divisibility_explicit_family():
    pg = petersen_graph()
    fives = enumerate_cycles(pg, 5)
    ok, report = check_sum_divisibility(pg, fives, 2)
    assert ok == all(alpha(pg, 5, e) % 2 == 0 for e in pg.edge_names) or True
    assert report["family_size"] == 12
    # Mixing lengths and explicit cycles dedupes.
    ok2, report2 = check_sum_divisibility(pg, [5, *fives], 2)
    assert report2["family_size"] == 12
    assert ok2 == ok


def test_family_lengths_follow_the_cycle_length_rule():
    # A family length is taken as every sum takes one: numpy integers read
    # as ints, and bools, floats and strings are refused.
    pg = petersen_graph()
    for check in (check_sum_divisibility, check_sum_invariance):
        assert check(pg, [np.int64(5)], 2) == check(pg, [5], 2)
        assert check(pg, [np.int16(6), 5], 2) == check(pg, [6, 5], 2)
        with pytest.raises(ValueError, match="cycle length must be an integer"):
            check(pg, [True], 2)
        for item in (5.0, "5", None):
            with pytest.raises(ValueError, match="family items must be lengths or cycles"):
                check(pg, [item], 2)


def test_census_lengths_follow_the_cycle_length_rule():
    # A numpy integer k gives the row of its value, every field a plain
    # int; bools and floats are refused as before.
    pg = petersen_graph()
    for k in (np.int64(5), np.int16(6), np.uint8(8)):
        (row,) = census_table(pg, [k])
        assert row == census_table(pg, [int(k)])[0]
        assert {type(v) for v in (row.k, row.count, row.count_times_k)} == {int}
    for k in (True, 5.0):
        with pytest.raises(ValueError, match="cycle length must be an integer"):
            census_table(pg, [k])


def test_sum_invariance_examples():
    r = check_sum_invariance(complete_bipartite_graph(3, 3), [4], 2)
    assert tuple(r) == (True, True, True, True)
    r = check_sum_invariance(petersen_graph(), [9], 2)
    assert all(r)
    r = check_sum_invariance(complete_graph(4), [3], 2)
    assert tuple(r) == (True, True, True, False)
    # Over the union of all K4 cycles the sum becomes invariant mod 2.
    r = check_sum_invariance(complete_graph(4), [3, 4], 2)
    assert all(r)


def test_tb_ratios_frozen():
    pg = petersen_graph()
    assert tb_ratio(pg, 5, 6) == 1
    assert tb_ratio(pg, 5, 8) == 2
    assert tb_ratio(pg, 5, 9) == 3
    assert tb_ratio(pg, 9, 5) == Fraction(1, 3)
    hg = heawood_graph()
    assert tb_ratio(hg, 6, 8) == 1
    assert tb_ratio(hg, 6, 10) == 5
    assert tb_ratio(hg, 6, 12) == 4
    assert tb_ratio(hg, 6, 14) == 2
    # The totals behind TB = 7*TB_5 and TB = 13*TB_6.
    assert 1 + sum(tb_ratio(pg, 5, k) for k in (6, 8, 9)) == 7
    assert 1 + sum(tb_ratio(hg, 6, k) for k in (8, 10, 12, 14)) == 13


def test_tb_ratio_no_ratio_cases():
    pg = petersen_graph()
    assert tb_ratio(pg, 5, 7) == 0  # no 7-cycles at all
    with pytest.raises(ValueError):
        tb_ratio(pg, 7, 5)
    # K4: alpha matches with q=1 and both betas vanish, so the ratio exists.
    assert tb_ratio(complete_graph(4), 3, 4) == 1
    # Same on K5 with q=2 (3 triangles and 6 squares per edge, betas zero).
    assert tb_ratio(complete_graph(5), 3, 4) == 2
    # Triangle plus disjoint square: q is forced to 0 by the triangle edges
    # but square edges lie on a 4-cycle, so no ratio exists.
    from immersa.graphs import MultiGraph
    g = MultiGraph(
        ("t1", "t2", "t3", "s1", "s2", "s3", "s4"),
        (("a", "t1", "t2"), ("b", "t2", "t3"), ("c", "t3", "t1"),
         ("p", "s1", "s2"), ("q", "s2", "s3"), ("r", "s3", "s4"), ("s", "s4", "s1")),
    )
    assert tb_ratio(g, 3, 4) is None
