"""Signed weight tables on distant edge pairs, used by the L invariants.

The tables ship as TSV data files and are audited hard at load time: the PG
table must cover exactly the 60 distance-1 pairs with weights in {-1, +1},
the HG table exactly the 168 pairs at distance 1 or 2, with even weights on
distance-1 pairs and odd weights on distance-2 pairs.  That parity split is
forced by the invariant itself: reducing the weighted sum mod 2 must leave
exactly the distance-2 crossing count.  The audit turns any transcription
error in the data files into an immediate load failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .graphs import (
    MultiGraph,
    edge_distance,
    edge_pairs_at_distance,
    heawood_graph,
    petersen_graph,
)


@dataclass(frozen=True, eq=False)
class EpsilonTable:
    """Symmetric integer weights on the distant edge pairs of a fixed graph.

    Attributes:
        target: "PG" or "HG".
        graph: The canonical graph the edge names refer to.
        weights: Index-ordered edge-name pair -> weight.
    """

    target: str
    graph: MultiGraph
    weights: dict

    def items(self):
        return self.weights.items()

    def __len__(self):
        return len(self.weights)


# target -> (data file, graph constructor, distance class -> weight parity)
_TABLES = {
    "PG": ("pg_weights.tsv", petersen_graph, {1: 1}),
    "HG": ("hg_weights.tsv", heawood_graph, {1: 0, 2: 1}),
}


def _rows(filename):
    text = resources.files("immersa").joinpath("data", filename).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{filename}:{lineno}: expected 3 tab-separated columns")
        try:
            value = int(parts[2])
        except ValueError:
            raise ValueError(f"{filename}:{lineno}: bad weight {parts[2]!r}") from None
        yield lineno, parts[0], parts[1], value


@lru_cache(maxsize=None)
def epsilon_table(target: str) -> EpsilonTable:
    """Load and audit the weight table for "PG" or "HG".

    Raises:
        ValueError: Unknown target, or the data file fails its audit:
            unknown edge, duplicate pair, wrong domain, zero weight, or a
            weight whose parity does not match the pair's distance class.
    """
    if target not in _TABLES:
        raise ValueError(f"no weight table for {target!r}; choose PG or HG")
    filename, build, parity = _TABLES[target]
    graph = build()
    index = graph.edge_index
    weights = {}
    for lineno, d, e, value in _rows(filename):
        if d not in index or e not in index:
            raise ValueError(f"{filename}:{lineno}: unknown edge in pair {d},{e}")
        key = (d, e) if index[d] < index[e] else (e, d)
        if key in weights:
            raise ValueError(f"{filename}:{lineno}: duplicate pair {d},{e}")
        weights[key] = value

    domain = set()
    for cls in parity:
        domain.update(edge_pairs_at_distance(graph, cls))
    missing = domain - set(weights)
    extra = set(weights) - domain
    if missing or extra:
        raise ValueError(
            f"{filename}: domain mismatch (missing {sorted(missing)[:4]}..., "
            f"extra {sorted(extra)[:4]}...)"
        )
    for (d, e), value in weights.items():
        if value == 0:
            raise ValueError(f"{filename}: zero weight on {d},{e}")
        if target == "PG" and value not in (-1, 1):
            raise ValueError(f"{filename}: PG weight {value} on {d},{e} not in {{-1,+1}}")
        cls = edge_distance(graph, d, e)
        if value % 2 != parity[cls]:
            raise ValueError(
                f"{filename}: weight {value} on distance-{cls} pair {d},{e} "
                f"has the wrong parity"
            )
    return EpsilonTable(target, graph, weights)
