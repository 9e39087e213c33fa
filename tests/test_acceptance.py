"""End-to-end acceptance checks, one test per delivery criterion.

Each test prints one "[criterion N] <label>: PASS|FAIL" line.  The heavy
shared inputs (200 seeded immersions per graph, the lift batches) are
produced once by module fixtures; any parity failure writes the offending
drawing under the test's temporary directory and names that path and the
exact replay command.
"""

import random
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import networkx as nx
import pytest
from test_graphs import brute_force_k4_minor, from_networkx

from immersa import cli
from immersa.census import (
    census_table,
    check_sum_divisibility,
    check_sum_invariance,
    enumerate_cycles,
)
from immersa.diagrams import (
    L_invariant,
    crossing_change,
    random_lift,
    tb_by_length,
    tb_total,
)
from immersa.epsilon import epsilon_table
from immersa.formats import serialize_diagram, serialize_immersion
from immersa.graphs import (
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    edge_pairs_at_distance,
    has_K4_minor,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    theta_graph,
)
from immersa.immersion import (
    crossings,
    cycle_crossing_number,
    kappa,
    random_immersion,
    rotation_number,
    sum_crossing,
    validate,
)
from immersa.sp import (
    K4MinorError,
    construct_zero_rotation,
    random_sp_graph,
    verify_zero,
)
from immersa.standard import standard_immersion


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


N_IMMERSIONS = 200
N_BASE_IMMERSIONS = 20
N_LIFTS = 50

FUZZ_GRAPHS = {
    "K4": (lambda: complete_graph(4), "@K 4"),
    "K5": (lambda: complete_graph(5), "@K 5"),
    "K33": (lambda: complete_bipartite_graph(3, 3), "@K 3 3"),
    "T2": (lambda: multi_triangle(2), "@T 2"),
    "T3": (lambda: multi_triangle(3), "@T 3"),
    "T4": (lambda: multi_triangle(4), "@T 4"),
    "PG": (petersen_graph, "@PG"),
    "HG": (heawood_graph, "@HG"),
}


def _fail_with_counterexample(directory, name, seed, label, text, suffix=".imm"):
    path = directory / f"counterexample-{label}-{name}-seed{seed}{suffix}"
    path.write_text(text, encoding="utf-8")
    shorthand = FUZZ_GRAPHS[name][1]
    pytest.fail(
        f"{label} failed on {name} at seed {seed}; offender written to "
        f"{path}; replay: immersa fuzz --graph '{shorthand}' --n 1 "
        f"--seed {seed}"
    )


@pytest.fixture(scope="module")
def fuzz_stats():
    """Per graph: one row per seed with crossing sums, rotation sums by
    cycle length, the all-cycles total, the rot - c parity flag, and the
    distance-restricted crossing counts."""
    stats = {}
    for name, (build, _) in FUZZ_GRAPHS.items():
        graph = build()
        cycles = enumerate_cycles(graph)
        rows = []
        for seed in range(N_IMMERSIONS):
            imm = random_immersion(graph, seed=seed)
            csum = Counter()
            rsum = Counter()
            total = 0
            rot_c_odd = True
            for cyc in cycles:
                c = cycle_crossing_number(imm, cyc)
                r = rotation_number(imm, cyc)
                csum[len(cyc)] += c
                rsum[len(cyc)] += r
                total += c
                rot_c_odd = rot_c_odd and (r - c) % 2 == 1
            kappas = {}
            if name == "PG":
                kappas[1] = kappa(imm, 1)
            elif name == "HG":
                kappas[2] = kappa(imm, 2)
            rows.append((seed, csum, rsum, total, rot_c_odd, kappas))
        stats[name] = rows
    return stats


@pytest.fixture(scope="module")
def lift_batches():
    """For PG and HG: 20 seeded immersions, each with kappa and 50 lifts."""
    batches = {}
    for name, build, dist in (("PG", petersen_graph, 1),
                              ("HG", heawood_graph, 2)):
        rows = []
        graph = build()  # one graph object, so its census data is counted once
        for seed in range(N_BASE_IMMERSIONS):
            imm = random_immersion(graph, seed=seed)
            kap = kappa(imm, dist)
            lifts = [(seed * 1000 + j, random_lift(imm, seed=seed * 1000 + j))
                     for j in range(N_LIFTS)]
            rows.append((seed, kap, lifts))
        batches[name] = rows
    return batches


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


def _row_cells(row):
    return (row.count, row.count_times_k, row.alpha_edge, row.alpha_adjacent,
            row.alpha_dist1, row.alpha_dist2, row.beta_dist1, row.beta_dist2)


def test_criterion_1_census_exactness(tmp_path):
    with criterion(1, "census tables reproduce the frozen values"):
        for graph, table in ((petersen_graph(), PG_TABLE),
                             (heawood_graph(), HG_TABLE)):
            rows = census_table(graph, sorted(table))
            assert len(rows) == len(table)
            for row in rows:
                assert row.representative == ()
                assert _row_cells(row) == table[row.k]
        # The command line agrees byte for byte.
        out = tmp_path / "pg.tsv"
        assert cli.main(["census", "@PG", "--format", "tsv",
                         "-o", str(out)]) == 0
        body = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [tuple(int(c) for c in cells[1:]) for cells in body] == \
            [PG_TABLE[int(cells[0])] for cells in body]


def test_criterion_2_standard_immersion_sums():
    with criterion(2, "fixed drawings have the exact crossing sums"):
        pg = standard_immersion("PG-star")
        assert sum_crossing(pg, 5) == 5
        assert sum_crossing(pg, 6) == 5
        assert sum_crossing(pg, 9) == 35
        assert kappa(pg, 1) == 5
        hg = standard_immersion("HG-ring")
        assert sum_crossing(hg, 6) == 21
        assert sum_crossing(hg, 8) == 35
        assert sum_crossing(hg, 10) == 245
        assert kappa(hg, 2) == 7
        minimal = standard_immersion("PG-min")
        records = crossings(minimal)
        assert len(records) == 2
        assert sorted(rec.distance_class for rec in records) == [1, 2]


def _parity_violation(name, csum, total, kappas):
    if name == "K4":
        if total % 2:
            return "total crossing sum over all cycles is odd"
    elif name == "K5":
        if csum[4] % 2 or csum[5] % 2:
            return "a 4- or 5-cycle sum is odd"
    elif name == "K33":
        if csum[4] % 2 == 0 or csum[6] % 2 == 0:
            return "a 4- or 6-cycle sum is even"
    elif name.startswith("T"):
        m = int(name[1:])
        if csum[3] % m:
            return f"triangle sum is not divisible by {m}"
    elif name == "PG":
        if (csum[5] % 2 == 0 or csum[6] % 2 == 0 or csum[9] % 2 == 0
                or csum[8] % 4 or kappas[1] % 2 == 0):
            return "a 5/6/9-cycle sum or kappa is even, or the 8-sum not 0 mod 4"
    elif name == "HG":
        if (csum[6] % 2 == 0 or csum[8] % 2 == 0 or csum[10] % 2 == 0
                or csum[12] % 4 or csum[14] % 2 or kappas[2] % 2 == 0):
            return "a 6/8/10-cycle sum or kappa has the wrong parity"
    return None


def test_criterion_3_fuzzed_parity_theorems(fuzz_stats, tmp_path):
    with criterion(3, "crossing-sum parities hold on 200 seeded "
                      "immersions per graph"):
        for name, (build, _) in FUZZ_GRAPHS.items():
            rows = fuzz_stats[name]
            assert len(rows) == N_IMMERSIONS
            for seed, csum, _, total, _, kappas in rows:
                reason = _parity_violation(name, csum, total, kappas)
                if reason is not None:
                    imm = random_immersion(build(), seed=seed)
                    _fail_with_counterexample(
                        tmp_path, name, seed, "parity", serialize_immersion(imm))


ROT_SUM_PARITY = {
    # graph -> cycle length (None = all) -> required parity of the rot sum
    "K4": {None: 1},
    "K33": {4: 0, 6: 1},
    "PG": {5: 1, 6: 1, 8: 1, 9: 1},
    "HG": {6: 1, 10: 1, 8: 0, 12: 0, 14: 0},
}


def test_criterion_4_rotation_corollaries(fuzz_stats, tmp_path):
    with criterion(4, "rot - c is odd on every cycle and the rot-sum "
                      "parities hold 200/200"):
        for name, (build, _) in FUZZ_GRAPHS.items():
            for seed, _, rsum, _, rot_c_odd, _ in fuzz_stats[name]:
                if not rot_c_odd:
                    imm = random_immersion(build(), seed=seed)
                    _fail_with_counterexample(
                        tmp_path, name, seed, "rot-parity", serialize_immersion(imm))
                for k, parity in ROT_SUM_PARITY.get(name, {}).items():
                    value = sum(rsum.values()) if k is None else rsum[k]
                    if value % 2 != parity:
                        imm = random_immersion(build(), seed=seed)
                        _fail_with_counterexample(
                            tmp_path, name, seed, "rot-sum", serialize_immersion(imm))


def test_rot_sum_parity_table_follows_from_whitney():
    # rot = c + 1 (mod 2) on every cycle (Whitney 1937), so the rotation
    # sum over k-cycles has the parity of their crossing sum plus their
    # number.  check_sum_invariance licenses that crossing sum's parity as
    # a regular invariant, so one immersion fixes it for all of them.
    for name, parities in ROT_SUM_PARITY.items():
        graph = FUZZ_GRAPHS[name][0]()
        lengths = sorted({len(c) for c in enumerate_cycles(graph)})
        f = random_immersion(graph, seed=0)
        for k, parity in parities.items():
            assert check_sum_invariance(graph, lengths if k is None else [k], 2).all_hold
            derived = (sum_crossing(f, k) + len(enumerate_cycles(graph, k))) % 2
            assert derived == parity, (name, k)


def test_criterion_5_weighted_linking_invariants(lift_batches, tmp_path):
    with criterion(5, "L is odd, matches kappa mod 2 on 1000 lifts per "
                      "graph, and moves by exactly 2 epsilon"):
        for name, dist in (("PG", 1), ("HG", 2)):
            checked = 0
            for seed, kap, lifts in lift_batches[name]:
                for lift_seed, diagram in lifts:
                    value = L_invariant(diagram, name)
                    if value % 2 != 1 or (value - kap) % 2 != 0:
                        _fail_with_counterexample(
                            tmp_path, name, lift_seed, "L", serialize_diagram(diagram),
                            suffix=".dgm")
                    checked += 1
            assert checked == N_BASE_IMMERSIONS * N_LIFTS
            # A single crossing change at a weighted pair moves L by
            # exactly -2 * sign * epsilon.
            table = epsilon_table(name)
            diagram = lift_batches[name][0][2][0][1]
            before = L_invariant(diagram, name)
            touched = 0
            for rec in crossings(diagram.immersion):
                # rec.edges is index-ordered, as the table's keys are.
                if rec.edges not in table.weights:
                    continue
                flipped = crossing_change(diagram, rec.id)
                delta = L_invariant(flipped, name) - before
                eps = table.weights[rec.edges]
                assert delta == -2 * diagram.sign(rec.id) * eps
                assert abs(delta) == 2 * abs(eps)
                touched += 1
            assert touched > 0


TB_MULTIPLIERS = {
    "PG": (5, {6: 1, 8: 2, 9: 3}, 7),
    "HG": (6, {8: 1, 10: 5, 12: 4, 14: 2}, 13),
}


def test_criterion_6_tb_ratios(lift_batches, tmp_path):
    with criterion(6, "writhe-sum ratios are exact integers on 1000 "
                      "lifts per graph"):
        for name, (base, multipliers, total_factor) in TB_MULTIPLIERS.items():
            checked = 0
            for seed, _, lifts in lift_batches[name]:
                for lift_seed, diagram in lifts:
                    table = tb_by_length(diagram)
                    anchor = table[base]
                    bad = any(table[k] != q * anchor
                              for k, q in multipliers.items())
                    if bad or tb_total(diagram) != total_factor * anchor:
                        _fail_with_counterexample(
                            tmp_path, name, lift_seed, "tb", serialize_diagram(diagram),
                            suffix=".dgm")
                    checked += 1
            assert checked == N_BASE_IMMERSIONS * N_LIFTS


def _assert_zero_rotation(graph):
    imm = construct_zero_rotation(graph)
    assert validate(imm).ok
    ok, offender = verify_zero(imm)
    assert ok, f"cycle {sorted(offender.edge_name_set)} has nonzero rotation"


def test_criterion_7_zero_rotation_constructor():
    with criterion(7, "construction succeeds on K4-minor-free inputs and "
                      "refuses the named graphs with a witness"):
        for seed in range(50):
            graph = random_sp_graph(seed)
            assert not has_K4_minor(graph)
            _assert_zero_rotation(graph)
        for n in range(2, 9):
            _assert_zero_rotation(theta_graph(n))
        trees = [MultiGraph(("v0",), ())]
        for n in range(2, 9):
            trees.extend(from_networkx(t) for t in nx.nonisomorphic_trees(n))
        assert len(trees) == 48
        for tree in trees:
            _assert_zero_rotation(tree)
        for graph in (complete_graph(4), petersen_graph(), heawood_graph(),
                      complete_bipartite_graph(3, 3)):
            with pytest.raises(K4MinorError) as info:
                construct_zero_rotation(graph)
            assert info.value.trace
            assert info.value.trace[-1].startswith("stuck")
        # Minor detection agrees with the brute-force oracle on random
        # 7-vertex graphs.
        rng = random.Random(2026)
        pairs = list(combinations(range(7), 2))
        for _ in range(150):
            mask = rng.getrandbits(len(pairs))
            nxg = nx.Graph()
            nxg.add_nodes_from(range(7))
            nxg.add_edges_from(p for i, p in enumerate(pairs)
                               if mask >> i & 1)
            graph = from_networkx(nxg)
            assert has_K4_minor(graph) == brute_force_k4_minor(graph)


def test_criterion_8_sum_invariance_checkers():
    with criterion(8, "divisibility and invariance checkers pass their "
                      "named instances"):
        assert check_sum_divisibility(petersen_graph(), [8], 4)[0]
        assert check_sum_divisibility(heawood_graph(), [12], 4)[0]
        assert check_sum_divisibility(heawood_graph(), [14], 2)[0]
        for m in (2, 3, 4):
            assert check_sum_divisibility(multi_triangle(m), [3], m)[0]
        instances = [
            (complete_bipartite_graph(3, 3), [4]),
            (complete_bipartite_graph(3, 3), [6]),
            (petersen_graph(), [5]),
            (petersen_graph(), [6]),
            (petersen_graph(), [9]),
            (heawood_graph(), [6]),
            (heawood_graph(), [8]),
            (heawood_graph(), [10]),
        ]
        for graph, family in instances:
            report = check_sum_invariance(graph, family, 2)
            assert tuple(report) == (True, True, True, True)


def test_criterion_9_weight_table_audits():
    with criterion(9, "weight tables cover exactly the distant pairs with "
                      "the parity split forced by the invariant"):
        pg_table = epsilon_table("PG")
        d1 = set(edge_pairs_at_distance(petersen_graph(), 1))
        assert len(d1) == 60
        assert set(dict(pg_table.items())) == d1
        assert all(w in (-1, 1) for _, w in pg_table.items())

        hg_table = epsilon_table("HG")
        hg = heawood_graph()
        d1 = set(edge_pairs_at_distance(hg, 1))
        d2 = set(edge_pairs_at_distance(hg, 2))
        assert set(dict(hg_table.items())) == d1 | d2
        # Reducing L mod 2 must leave exactly the distance-2 crossing
        # count, which pins even weights on D1 and odd weights on D2.
        for pair, weight in hg_table.items():
            assert weight != 0
            assert weight % 2 == (0 if pair in d1 else 1)
