"""Diagrams: an over/under choice at every crossing of an immersion,
plus the signed quantities read off them (crossing signs, pairwise
linking sums, weighted L invariants, and writhe sums over cycle classes).

A diagram is one over/under vector on its immersion's crossing table, in
record order (the order of the crossing ids).  Every pairwise linking sum
comes from it by one bincount over the crossings' edge pairs, and every
writhe or L sum is one product of those sums with weights gathered once
per immersion at its crossing pairs.  Nothing here builds CrossingRecords;
they are made only for readers that need a crossing's point or
parameters, such as the crossing listing and the SVG picture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import _oriented, _weights
from .epsilon import epsilon_table
from .graphs import Cycle, cycle_lengths
from .immersion import PlaneImmersion

_CHOICES = ("first", "second")
# Over choice -> the factor it puts on the geometric sign.
_FACTOR = {"first": 1, "second": -1}


@dataclass(frozen=True, eq=False)
class Diagram:
    """An immersion with a strand chosen to pass over at each crossing.

    The choices are kept as one vector in record order; see the module
    docstring.

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
        order = self.immersion._record_order
        over = dict(self.over)
        if over.keys() != order.row.keys():
            missing = sorted(order.row.keys() - over.keys())
            unknown = sorted(over.keys() - order.row.keys())
            raise ValueError(
                f"over map must cover the crossings exactly "
                f"(missing {missing}, unknown {unknown})"
            )
        choices = list(map(over.__getitem__, order.ids))
        factors = list(map(_FACTOR.get, choices))
        if None in factors:
            for row, choice in enumerate(choices):
                if factors[row] is not None:
                    continue
                cid = order.ids[row]
                a, b = order.pairs[order.pair_of[row]]
                if a == b:
                    raise ValueError(f"self crossing {cid} needs 'first' or 'second'")
                if choice not in (a, b):
                    raise ValueError(f"crossing {cid}: {choice!r} is not one of its edges")
                over[cid] = _CHOICES[choice == b]
                factors[row] = _FACTOR[over[cid]]
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "_factors", np.array(factors, dtype=np.int8))

    @cached_property
    def _sign_vector(self):
        # The stored geometric sign is det[first tangent, second tangent];
        # the crossing sign wants the over tangent first.
        return self.immersion._record_order.sign * self._factors

    @cached_property
    def _pair_signs(self):
        # ell of every crossing pair, as an int64 vector over the record
        # order's pairs.
        order = self.immersion._record_order
        return np.bincount(order.pair_of, weights=self._sign_vector,
                           minlength=len(order.pairs)).astype(np.int64)

    def sign(self, crossing_id) -> int:
        """Sign of one crossing: +1 when the over strand's tangent followed
        by the under strand's tangent is a positive frame, using the stored
        tail-to-head edge orientations.

        Raises:
            KeyError: Unknown crossing id.
        """
        return int(self._sign_vector[self.immersion._record_order.row[crossing_id]])

    def over_edge(self, crossing_id) -> str:
        """Name of the edge whose strand passes over at this crossing."""
        order = self.immersion._record_order
        a, b = order.pairs[order.pair_of[order.row[crossing_id]]]
        return a if self.over[crossing_id] == "first" else b


def _gathered(diagram, key, tables):
    # int64 matrix, one row per table, of each pair weight table's values
    # at the immersion's crossing pairs (0 where a table has none); kept
    # under key in the record order's memo.
    order = diagram.immersion._record_order
    try:
        return order.memo[key]
    except KeyError:
        rows = [[table.get(pair, 0) for pair in order.pairs] for table in tables]
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(order.pairs))
        order.memo[key] = matrix
        return matrix


def _fair_bits(rng, n):
    # The n indices that n calls rng.choice(pair) draw.  Each call takes
    # getrandbits(2) until it is below 2 (Random._randbelow); getrandbits(2)
    # is the top two bits of one 32-bit Mersenne Twister word, and
    # getrandbits(32 * m) holds the next m words, the first in its lowest
    # bits.  The generator is private to the lift, so overdrawing is free.
    bits = np.empty(0, dtype=np.uint32)
    while len(bits) < n:
        m = 2 * (n - len(bits)) + 32
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        top = words >> 30
        bits = np.concatenate((bits, top[top < 2]))
    return bits[:n].tolist()


def random_lift(immersion: PlaneImmersion, seed) -> Diagram:
    """Diagram with an independent fair over/under choice at each crossing.

    Deterministic in the seed: crossings are visited in record order, and
    each choice is the one rng.choice(("first", "second")) makes.
    """
    ids = immersion._record_order.ids
    draws = _fair_bits(random.Random(seed), len(ids))
    return Diagram(immersion, dict(zip(ids, [_CHOICES[b] for b in draws])))


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
    row = diagram.immersion._record_order.pair_index.get(key)
    return 0 if row is None else d_sign * e_sign * int(diagram._pair_signs[row])


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
    weights = _gathered(diagram, ("L", target), [table.weights])
    return int(weights[0] @ diagram._pair_signs)


def writhe_cycle(diagram: Diagram, cycle: Cycle) -> int:
    """Writhe of one cycle: signed count of the diagram's crossings where
    both strands lie on the cycle, signs taken along the traversal
    direction.  Independent of which way the cycle is traversed, since
    reversal flips both strands.

    Raises:
        ValueError: The cycle does not validate against the diagram's graph.
    """
    cycle.validate(diagram.immersion.graph)
    direction = dict(cycle.steps)
    pairs = diagram.immersion._record_order.pairs
    return sum(direction[a] * direction[b] * value
               for (a, b), value in zip(pairs, diagram._pair_signs.tolist())
               if a in direction and b in direction)


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
    return int(_gathered(diagram, ("tb", k), [weights.signed])[0] @ diagram._pair_signs)


def tb_by_length(diagram: Diagram) -> dict:
    """Writhe sum for each cycle length, as a length -> sum dict."""
    graph = diagram.immersion.graph
    lengths = cycle_lengths(graph)
    tables = [_weights(graph, k).signed for k in lengths]
    sums = _gathered(diagram, "tb", tables) @ diagram._pair_signs
    return dict(zip(lengths, sums.tolist()))


def tb_total(diagram: Diagram) -> int:
    """Sum of writhes over every cycle of the graph."""
    return sum(tb_by_length(diagram).values())
