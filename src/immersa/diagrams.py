"""Diagrams: an over/under choice at every crossing of an immersion,
plus the signed quantities read off them (crossing signs, pairwise
linking sums, weighted L invariants, and writhe sums over cycle classes).

A diagram is one over/under vector on its immersion's crossing table, in
record order (the order of the crossing ids).  Every pairwise linking sum
comes from it by one bincount over the crossings' edge-pair keys a * n + b
(edge indices a <= b, n edges) into one vector S on all n * n keys, and
every writhe or L sum is one product of S with a weight vector on the same
keys, kept once per graph.  The writhe weights and writhe_cycle's direction
vector come from the graph's cycle table (see graphs).  Nothing here builds
CrossingRecords; they are made only for readers that need a crossing's
point or parameters, such as the crossing listing and the SVG picture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import _key, _oriented, _weights
from .epsilon import epsilon_table
from .graphs import Cycle, _cycle_table, _signed_incidence, cycle_lengths, per_graph
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
                names = self.immersion.graph.edge_names
                a, b = (names[i] for i in divmod(int(order.key[row]), len(names)))
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
        # S: ell of every edge pair, as an int64 vector on the keys.
        n = len(self.immersion.graph.edges)
        return np.bincount(self.immersion._record_order.key, weights=self._sign_vector,
                           minlength=n * n).astype(np.int64)

    def sign(self, crossing_id) -> int:
        """Sign of one crossing: +1 when the over strand's tangent followed
        by the under strand's tangent is a positive frame, using the stored
        tail-to-head edge orientations.

        Raises:
            KeyError: Unknown crossing id.
        """
        return int(self._sign_vector[self.immersion._record_order.row[crossing_id]])


@per_graph
def _epsilon_vector(graph, target):
    # The weights of the target's epsilon table, graph being its canonical
    # graph, as one int64 vector on the keys.
    n = len(graph.edges)
    vector = np.zeros(n * n, dtype=np.int64)
    for (d, e), value in epsilon_table(target).items():
        vector[_key(graph, d, e)] = value
    return vector


@per_graph
def _signed_by_length(graph):
    # (lengths, matrix): the graph's cycle lengths, and the signed counts
    # of the cycles of each length as one int64 row on the keys.
    lengths = cycle_lengths(graph)
    n = len(graph.edges)
    rows = [_weights(graph, k).signed for k in lengths]
    return lengths, np.array(rows, dtype=np.int64).reshape(len(lengths), n * n)


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
    graph = diagram.immersion.graph
    for name in (d_name, e_name):
        if name not in graph.edge_index:
            raise ValueError(f"unknown edge {name!r}")
    if d_name == e_name:
        raise ValueError("ell needs two distinct edges")
    return d_sign * e_sign * int(diagram._pair_signs[_key(graph, d_name, e_name)])


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
    return int(_epsilon_vector(table.graph, target) @ diagram._pair_signs)


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
    # x^T S x, with x the cycle's traversal direction on each edge (0 off
    # the cycle) and S the ell of each pair a <= b as an upper triangle.
    # A valid cycle is canonical, so it has a row.
    x = _signed_incidence(graph)[_cycle_table(graph).rows[cycle]]
    return int(x @ diagram._pair_signs.reshape(len(x), len(x)) @ x)


def tb(diagram: Diagram, k) -> int:
    """Sum of writhes over every cycle of length k: each crossing pair's
    ell weighted by the signed count of k-cycles through the pair.

    Raises:
        ValueError: No cycle of the graph has length k, or k is not an
            integer of at least 1 (bools, floats and strings are refused).
    """
    weights = _weights(diagram.immersion.graph, k)
    if not weights.size:
        raise ValueError(f"graph has no cycle of length {k}")
    return int(weights.signed @ diagram._pair_signs)


def tb_by_length(diagram: Diagram) -> dict:
    """Writhe sum for each cycle length, as a length -> sum dict."""
    lengths, signed = _signed_by_length(diagram.immersion.graph)
    return dict(zip(lengths, (signed @ diagram._pair_signs).tolist()))


def tb_total(diagram: Diagram) -> int:
    """Sum of writhes over every cycle of the graph."""
    return sum(tb_by_length(diagram).values())
