"""Diagrams: an over/under choice at every crossing of an immersion,
plus the signed quantities read off them (crossing signs, pairwise
linking sums, weighted L invariants, and writhe sums over cycle classes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .census import _oriented, _weights
from .epsilon import epsilon_table
from .graphs import Cycle, enumerate_cycles
from .immersion import PlaneImmersion, crossings


@dataclass(frozen=True, eq=False)
class Diagram:
    """An immersion with a strand chosen to pass over at each crossing.

    Attributes:
        immersion: A valid PlaneImmersion.
        over: Crossing id -> "first" or "second", naming which of the
            record's two strands passes over.  For a crossing between two
            distinct edges an edge name is accepted in place of
            "first"/"second" and is normalized on construction; a self
            crossing needs the positional form ("first" is the strand
            reached earlier along the curve).

    Raises:
        ValueError: The immersion is not generic, the over map does not
            cover the crossings exactly, or a choice names a wrong edge.
    """

    immersion: PlaneImmersion
    over: dict

    def __post_init__(self):
        by_id = {rec.id: rec for rec in crossings(self.immersion)}
        if set(self.over) != set(by_id):
            missing = sorted(set(by_id) - set(self.over))
            unknown = sorted(set(self.over) - set(by_id))
            raise ValueError(
                f"over map must cover the crossings exactly "
                f"(missing {missing}, unknown {unknown})"
            )
        normalized = {}
        for cid, choice in self.over.items():
            rec = by_id[cid]
            if choice in ("first", "second"):
                normalized[cid] = choice
            elif rec.is_self:
                raise ValueError(f"self crossing {cid} needs 'first' or 'second'")
            elif choice == rec.edges[0]:
                normalized[cid] = "first"
            elif choice == rec.edges[1]:
                normalized[cid] = "second"
            else:
                raise ValueError(f"crossing {cid}: {choice!r} is not one of its edges")
        object.__setattr__(self, "over", normalized)

    @cached_property
    def _by_id(self) -> dict:
        return {rec.id: rec for rec in crossings(self.immersion)}

    @cached_property
    def _signs(self) -> dict:
        # The stored geometric sign is det[first tangent, second tangent];
        # the crossing sign wants the over tangent first.
        out = {}
        for cid, rec in self._by_id.items():
            sign = rec.geometric_sign
            out[cid] = sign if self.over[cid] == "first" else -sign
        return out

    @cached_property
    def _pair_signs(self) -> dict:
        # ell of every crossing pair: index-ordered (a, b), a == b for self
        # crossings -> signed crossing count.
        out = {}
        for cid, rec in self._by_id.items():
            out[rec.edges] = out.get(rec.edges, 0) + self._signs[cid]
        return out

    def sign(self, crossing_id) -> int:
        """Sign of one crossing: +1 when the over strand's tangent followed
        by the under strand's tangent is a positive frame, using the stored
        tail-to-head edge orientations.

        Raises:
            KeyError: Unknown crossing id.
        """
        return self._signs[crossing_id]

    def over_edge(self, crossing_id) -> str:
        """Name of the edge whose strand passes over at this crossing."""
        rec = self._by_id[crossing_id]
        return rec.edges[0] if self.over[crossing_id] == "first" else rec.edges[1]


def random_lift(immersion: PlaneImmersion, seed) -> Diagram:
    """Diagram with an independent fair over/under choice at each crossing.

    Deterministic in the seed: crossings are visited in record order.
    """
    rng = random.Random(seed)
    over = {rec.id: rng.choice(("first", "second")) for rec in crossings(immersion)}
    return Diagram(immersion, over)


def crossing_change(diagram: Diagram, crossing_id) -> Diagram:
    """New diagram with the over strand at one crossing swapped.

    Raises:
        ValueError: Unknown crossing id.
    """
    if crossing_id not in diagram.over:
        raise ValueError(f"unknown crossing id {crossing_id!r}")
    over = dict(diagram.over)
    over[crossing_id] = "second" if over[crossing_id] == "first" else "first"
    return Diagram(diagram.immersion, over)


def ell(diagram: Diagram, d, e) -> int:
    """Signed crossing count between two distinct edges: positive crossings
    minus negative ones.  Edges may be oriented as (name, -1) to flip the
    stored orientation; each flip negates the result.  Symmetric in d and e.

    Raises:
        ValueError: Unknown edge name, or d and e name the same edge.
    """
    d_name, d_sign = _oriented(d)
    e_name, e_sign = _oriented(e)
    index = diagram.immersion.graph.edge_index
    for name in (d_name, e_name):
        if name not in index:
            raise ValueError(f"unknown edge {name!r}")
    if d_name == e_name:
        raise ValueError("ell needs two distinct edges")
    key = (d_name, e_name) if index[d_name] < index[e_name] else (e_name, d_name)
    return d_sign * e_sign * diagram._pair_signs.get(key, 0)


def L_invariant(diagram: Diagram, target: str) -> int:
    """Weighted sum of pairwise linking numbers over the target's weight
    table: PG sums over the 60 distance-1 pairs, HG over all 168 distant
    pairs.  Uses the stored edge orientations throughout; the result is
    orientation-independent because every weighted pair is disjoint.

    Raises:
        ValueError: Unknown target, or the diagram's graph is not the
            table's graph.
    """
    table = epsilon_table(target)
    if diagram.immersion.graph != table.graph:
        raise ValueError(f"diagram graph is not the canonical {target} graph")
    return sum(table.weight(*pair) * value
               for pair, value in diagram._pair_signs.items()
               if table.has_pair(*pair))


def writhe_cycle(diagram: Diagram, cycle: Cycle) -> int:
    """Writhe of one cycle: signed count of the diagram's crossings where
    both strands lie on the cycle, signs taken along the traversal
    direction.  Independent of which way the cycle is traversed, since
    reversal flips both strands.

    Raises:
        ValueError: The cycle does not validate against the diagram's graph.
    """
    graph = diagram.immersion.graph
    cycle.validate(graph)
    direction = dict(cycle.steps)
    names = cycle.edge_name_set
    total = 0
    for cid, rec in diagram._by_id.items():
        a, b = rec.edges
        if a in names and b in names:
            total += diagram.sign(cid) * direction[a] * direction[b]
    return total


def tb(diagram: Diagram, k) -> int:
    """Sum of writhes over every cycle of length k: each crossing pair's
    ell weighted by the signed count of k-cycles through the pair.

    Raises:
        ValueError: No cycle of the graph has length k, or k is a bool or
            an integer below 1.
    """
    weights = _weights(diagram.immersion.graph, k)
    if not weights.size:
        raise ValueError(f"graph has no cycle of length {k}")
    signed = weights.signed
    return sum(signed.get(p, 0) * value for p, value in diagram._pair_signs.items())


def tb_by_length(diagram: Diagram) -> dict:
    """Writhe sum for each cycle length, as a length -> sum dict."""
    graph = diagram.immersion.graph
    lengths = sorted({len(c) for c in enumerate_cycles(graph)})
    return {k: tb(diagram, k) for k in lengths}


def tb_total(diagram: Diagram) -> int:
    """Sum of writhes over every cycle of the graph."""
    return sum(tb_by_length(diagram).values())
