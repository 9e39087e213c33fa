"""Weight table loading and its hard audits."""

from collections import Counter

import pytest

import immersa.epsilon as epsilon_mod
from immersa.epsilon import epsilon_table
from immersa.graphs import edge_distance, edge_pairs_at_distance, heawood_graph, petersen_graph


def weight(table, d, e):
    # The weight of the unordered pair {d, e}, looked up by its
    # index-ordered pair; KeyError off the table's domain.
    index = table.graph.edge_index
    return table.weights[(d, e) if index[d] < index[e] else (e, d)]


class TestPetersenTable:
    def test_domain_is_exactly_distance_one(self):
        table = epsilon_table("PG")
        assert len(table) == 60
        assert set(table.weights) == set(edge_pairs_at_distance(petersen_graph(), 1))

    def test_value_multiset(self):
        table = epsilon_table("PG")
        assert Counter(table.weights.values()) == {1: 40, -1: 20}
        assert sum(table.weights.values()) == 20

    def test_spot_values(self):
        table = epsilon_table("PG")
        assert weight(table, "u1u2", "u3u4") == 1
        assert weight(table, "u3u4", "u1u2") == 1
        assert weight(table, "u1u2", "u3v3") == -1

    def test_missing_pair_raises(self):
        table = epsilon_table("PG")
        with pytest.raises(KeyError):
            weight(table, "u1u2", "u2u3")


class TestHeawoodTable:
    def test_domain_is_every_distant_pair(self):
        table = epsilon_table("HG")
        graph = heawood_graph()
        want = set(edge_pairs_at_distance(graph, 1)) | set(edge_pairs_at_distance(graph, 2))
        assert len(table) == 168
        assert set(table.weights) == want

    def test_value_multiset(self):
        table = epsilon_table("HG")
        assert Counter(table.weights.values()) == {
            2: 70, 3: 28, 1: 21, -2: 14, 5: 14, -1: 14, -3: 7,
        }
        assert sum(table.weights.values()) == 252

    def test_parity_tracks_distance_class(self):
        # Even weights on distance-1 pairs, odd on distance-2: mod 2 the
        # weighted sum must reduce to the distance-2 crossing count.
        table = epsilon_table("HG")
        graph = heawood_graph()
        for (d, e), value in table.items():
            cls = edge_distance(graph, d, e)
            assert value % 2 == {1: 0, 2: 1}[cls], (d, e, value)

    def test_spot_values(self):
        table = epsilon_table("HG")
        assert weight(table, "u1v1", "u2v2") == 2
        assert weight(table, "u1v1", "u4v4") == -3


class TestAudit:
    def test_unknown_target(self):
        with pytest.raises(ValueError, match="PG or HG"):
            epsilon_table("K33")

    @pytest.mark.parametrize(
        "text",
        [
            "u1u2\t1\n",                          # missing column
            "u1u2\tu3u4\tx\n",                    # non-integer weight
            "u1u2\tzz\t1\n",                      # unknown edge
            "u1u2\tu3u4\t1\nu3u4\tu1u2\t1\n",     # duplicate pair
            "u1u2\tu3u4\t1\n",                    # 59 pairs missing
        ],
    )
    def test_corrupt_rows_fail_loudly(self, monkeypatch, tmp_path, text):
        bad = tmp_path / "pg_bad.tsv"
        bad.write_text(text)
        with pytest.raises(ValueError):
            _load_with_file(monkeypatch, "pg_bad.tsv", bad)

    def test_out_of_range_weight_fails(self, monkeypatch, tmp_path):
        table = epsilon_table("PG")
        lines = []
        for (d, e), value in sorted(table.items()):
            if (d, e) == ("u1u2", "u3u4"):
                value = 3
            lines.append(f"{d}\t{e}\t{value}")
        bad = tmp_path / "pg_range.tsv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="-1"):
            _load_with_file(monkeypatch, "pg_range.tsv", bad)

    def test_wrong_parity_fails(self, monkeypatch, tmp_path):
        # Flip one HG weight to the wrong parity and reload.
        table = epsilon_table("HG")
        lines = ["# header"]
        for (d, e), value in sorted(table.items()):
            if (d, e) == ("u1v1", "u2v2"):
                value = 3
            lines.append(f"{d}\t{e}\t{value}")
        bad = tmp_path / "hg_bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="parity"):
            _load_with_file(monkeypatch, "hg_bad.tsv", bad, target="HG", classes={1: 0, 2: 1})
        epsilon_table.cache_clear()


def _load_with_file(monkeypatch, filename, path, target="PG", classes=None):
    """Reload a table with one data file swapped for a scratch copy."""
    graph = petersen_graph if target == "PG" else heawood_graph
    monkeypatch.setitem(
        epsilon_mod._TABLES, target, (filename, graph, classes or {1: 1})
    )

    class _Anchor:
        def joinpath(self, *parts):
            return path

    monkeypatch.setattr(epsilon_mod.resources, "files", lambda _pkg: _Anchor())
    epsilon_table.cache_clear()
    try:
        return epsilon_table(target)
    finally:
        epsilon_table.cache_clear()
