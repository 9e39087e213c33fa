"""Cycle censuses over edges and edge pairs.

For a multigraph G and a cycle length k this module counts, for every edge e
and every unordered pair of edges {d, e}, how many k-cycles pass through the
target (the alpha counts), and for disjoint oriented pairs the signed count
beta = |coherent| - |incoherent|.  On top of that sit the census table, the
modular sum checkers that license crossing-number congruences, and the ratio
test behind the total Thurston-Bennequin multiples.

One weight object per family F of cycles backs all of these, and the
crossing and writhe sums of the immersion and diagram modules too.  A sum
over F of a quantity that adds up over the edge pairs of each cycle is
linear in per-pair data: for index-ordered pairs a <= b (self pairs
included),

    sum_{C in F} sum_{a <= b on C} x(a, b) = sum_{a <= b} w_F(a, b) * x(a, b)
    with w_F(a, b) = sum_{C in F through a and b} s_C(a, b).

With s_C = 1, w_F is the pair count alpha (the edge count for a == b), and
x = the crossings of the pair gives the crossing sum of F.  With
s_C = dir_C(a) * dir_C(b), the product of the cycle's traversal directions
against the stored orientations, w_F is the signed count, and x = the
signed crossing count ell of the pair gives the writhe sum TB.  On a
disjoint pair the signed count is beta up to the census orientation sign
of the pair.  Both weights are int64 vectors on the keys a * n + b of the
edge indices a <= b (n edges), the one edge-pair key space that the
immersion and diagram modules keep their crossing counts and signs on, so
each such sum is one dot product.

Orientation conventions.  An oriented edge is either a bare edge name (the
stored tail-to-head orientation) or a pair ``(name, sign)`` with sign +1 or
-1.  Two disjoint oriented edges are coherent in a cycle through both when
one of the two traversals of the cycle induces both chosen orientations at
once.  Reversing one edge negates beta; reversing both leaves it unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graphs import Cycle, MultiGraph, edge_distance, enumerate_cycles, per_graph


def _oriented(edge):
    if isinstance(edge, str):
        return edge, 1
    name, sign = edge
    if sign not in (1, -1):
        raise ValueError(f"orientation sign must be +1 or -1, got {sign!r}")
    return name, sign


def girth(graph: MultiGraph):
    """Length of a shortest cycle, or None for a forest."""
    for c in enumerate_cycles(graph):
        return len(c)  # enumeration is sorted by length
    return None


@per_graph
def _normalized_orientations(graph: MultiGraph):
    # Census convention for the sign of the second edge (first edge kept at
    # its stored orientation): make the first girth cycle through the pair
    # coherent; with no girth cycle through the pair, take the
    # lexicographically smaller orientation of the second edge.
    g = girth(graph)
    girth_cycles = enumerate_cycles(graph, g) if g is not None else ()
    out = {}
    for (d, e), dist in graph._edge_distances.items():
        if dist == 0:
            continue
        sign = None
        for c in girth_cycles:
            if d in c.edge_name_set and e in c.edge_name_set:
                dirs = dict(c.steps)
                sign = dirs[d] * dirs[e]
                break
        if sign is None:
            t, h = graph.endpoints[e]
            sign = 1 if (t, h) <= (h, t) else -1
        out[(d, e)] = sign
    return out


def pair_orientation_convention(graph: MultiGraph, d, e):
    """The census orientation sign for the pair (d kept tail-to-head).

    Returns +1 or -1 for edge e such that the first girth cycle through
    {d, e} is coherent, falling back to the lexicographically smaller
    orientation when no girth cycle passes through the pair.
    """
    key = tuple(sorted((d, e), key=graph.edge_index.get))
    sign = _normalized_orientations(graph).get(key)
    if sign is None:
        raise ValueError(f"{d!r}, {e!r} is not a disjoint pair")
    return sign


@dataclass(frozen=True, eq=False)
class _Weights:
    """The per-pair data every sum over one family of cycles reads.

    Both arrays are indexed by the key a * n + b of the edge indices a <= b
    (n edges), the one edge-pair key space of the library, and hold 0 at
    every other key.  A self pair a == b holds the edge's count.

    Attributes:
        size: Number of cycles in the family.
        counts: int64 cycles through both edges of each pair (alpha).
        signed: int64 sum over those cycles of dir(a) * dir(b), the
            traversal directions against the stored orientations.
    """

    size: int
    counts: np.ndarray
    signed: np.ndarray


def _count_weights(graph: MultiGraph, cycles):
    # With x the cycle-by-edge table of traversal directions (0 off the
    # cycle), the upper triangles of |x|^T |x| and x^T x are the counts
    # and the signed counts.
    index = graph.edge_index
    n = len(index)
    x = np.zeros(len(cycles) * n, dtype=np.int64)
    cells, dirs = [], []
    for row, c in enumerate(cycles):
        for name, d in c.steps:
            cells.append(row * n + index[name])
            dirs.append(d)
    x[cells] = dirs
    x = x.reshape(len(cycles), n)
    on = np.abs(x)
    return _Weights(len(cycles), np.triu(on.T @ on).ravel(), np.triu(x.T @ x).ravel())


def _key(graph: MultiGraph, d, e):
    # The key a * n + b of edges d and e, a <= b their indices (n edges).
    index = graph.edge_index
    a, b = sorted((index[d], index[e]))
    return a * len(index) + b


def _checked_length(k):
    # k as a plain int, or None for every cycle.  A length is anything
    # operator.index takes, numpy integers too, but a bool.
    if k is None:
        return None
    try:
        length = operator.index(k)
    except TypeError:
        length = 0
    if length < 1 or isinstance(k, bool):
        raise ValueError(f"cycle length must be an integer of at least 1, got {k!r}")
    return length


def _weights(graph: MultiGraph, k):
    """Weights of the k-cycles, or of all cycles for k None.

    Kept in the graph's memo, so they are counted once per graph and
    freed with it.

    Raises:
        ValueError: k is neither None nor an integer of at least 1, or a
            bool.
    """
    # Checked before the memo lookup: True and 1 are one dict key.
    return _length_weights(graph, _checked_length(k))


@per_graph
def _length_weights(graph: MultiGraph, k):
    return _count_weights(graph, enumerate_cycles(graph, k))


def alpha(graph: MultiGraph, k, target):
    """Number of k-cycles through an edge or through both edges of a pair.

    Args:
        graph: The graph.
        k: Cycle length.
        target: An edge name, or a pair (tuple) of two distinct edge names.

    Returns:
        The count as an integer.
    """
    weights = _weights(graph, k)
    if isinstance(target, str):
        if target not in graph.endpoints:
            raise ValueError(f"unknown edge {target!r}")
        return int(weights.counts[_key(graph, target, target)])
    d, e = target
    if d not in graph.endpoints or e not in graph.endpoints:
        raise ValueError(f"unknown edge in pair {target!r}")
    if d == e:
        raise ValueError("pair must consist of two distinct edges")
    return int(weights.counts[_key(graph, d, e)])


@dataclass(frozen=True)
class CoherenceSplit:
    """k-cycles through a disjoint oriented pair, split by coherence."""

    coherent: tuple
    incoherent: tuple


def beta(graph: MultiGraph, k, d, e):
    """Signed count of k-cycles through a disjoint oriented pair.

    Args:
        graph: The graph.
        k: Cycle length.
        d: Oriented edge: a name, or (name, +1/-1).
        e: Oriented edge, disjoint from d.

    Returns:
        Pair (beta, split) where beta = |coherent| - |incoherent| and split
        is the CoherenceSplit listing the cycles on each side.

    Raises:
        ValueError: If the two edges share a vertex.
    """
    dn, ds = _oriented(d)
    en, es = _oriented(e)
    if edge_distance(graph, dn, en) < 1:
        raise ValueError(f"{dn!r} and {en!r} are not disjoint")
    coherent = []
    incoherent = []
    for c in enumerate_cycles(graph, k):
        if dn in c.edge_name_set and en in c.edge_name_set:
            dirs = dict(c.steps)
            if ds * dirs[dn] == es * dirs[en]:
                coherent.append(c)
            else:
                incoherent.append(c)
    split = CoherenceSplit(tuple(coherent), tuple(incoherent))
    return len(split.coherent) - len(split.incoherent), split


@dataclass(frozen=True)
class CensusRow:
    """One row of the census table for a fixed cycle length.

    Pair columns hold None when the graph has no pairs in that distance
    class.  When alpha or beta is not constant over a column's class, the
    table splits into several rows and ``representative`` names the object
    each non-uniform cell was evaluated at.
    """

    k: int
    count: int
    count_times_k: int
    alpha_edge: int | None
    alpha_adjacent: int | None
    alpha_dist1: int | None
    alpha_dist2: int | None
    beta_dist1: int | None
    beta_dist2: int | None
    representative: tuple = ()


def census_table(graph: MultiGraph, ks):
    """Census rows for the given cycle lengths.

    Beta columns use the convention of pair_orientation_convention.  For a
    graph whose automorphisms act transitively on edges and on pairs (both
    named graphs here do), each k yields exactly one row.

    Args:
        graph: The graph.
        ks: Iterable of cycle lengths.

    Returns:
        Tuple of CensusRow in the order of ks, each k a plain int.

    Raises:
        ValueError: A k that is not an integer of at least 1 (bools and
            floats are refused).
    """
    norm = _normalized_orientations(graph)

    def pairs_at(kind):
        pairs = sorted(p for p, v in graph._edge_distances.items() if v == kind)
        return pairs, [_key(graph, *p) for p in pairs]

    classes = {
        "alpha_edge": (graph.edge_names, [_key(graph, e, e) for e in graph.edge_names]),
        "alpha_adjacent": pairs_at(0),
        "alpha_dist1": pairs_at(1),
        "alpha_dist2": pairs_at(2),
    }
    rows = []
    for k in ks:
        # A numpy integer length gives the same plain-int row as its value.
        k = _checked_length(k)
        weights = _weights(graph, k)
        count = weights.size

        def cells(column):
            objs, keys = classes[column.replace("beta", "alpha")]
            if column.startswith("alpha"):
                values = list(zip(objs, weights.counts[keys].tolist()))
            else:
                # beta is the signed count under the census orientation.
                values = [(o, norm[o] * v) for o, v in zip(objs, weights.signed[keys].tolist())]
            if not values:
                return [(None, None)]
            distinct = []
            for o, v in values:
                if all(v != dv for _, dv in distinct):
                    distinct.append((o, v))
            return distinct

        columns = ["alpha_edge", "alpha_adjacent", "alpha_dist1", "alpha_dist2",
                   "beta_dist1", "beta_dist2"]
        per_column = {col: cells(col) for col in columns}
        n_rows = max(len(v) for v in per_column.values())
        for i in range(n_rows):
            vals = {}
            reps = []
            for col in columns:
                options = per_column[col]
                obj, v = options[min(i, len(options) - 1)]
                vals[col] = v
                if len(options) > 1:
                    reps.append((col, obj))
            rows.append(CensusRow(
                k=k, count=count, count_times_k=count * k,
                representative=tuple(reps), **vals,
            ))
    return tuple(rows)


def _family_cycles(graph: MultiGraph, family):
    # A length is what _checked_length takes: anything operator.index
    # takes, numpy integers too, but a bool, which it refuses.
    out = {}
    for item in family:
        if isinstance(item, Cycle):
            item.validate(graph)
            out[item] = None
            continue
        try:
            operator.index(item)
        except TypeError:
            raise ValueError(f"family items must be lengths or cycles, got {item!r}") from None
        for c in enumerate_cycles(graph, _checked_length(item)):
            out[c] = None
    return tuple(out)


def check_sum_divisibility(graph: MultiGraph, family, m):
    """Test the two counting conditions that force crossing sums mod m.

    Over a family of cycles, checks that (1) every edge lies on a multiple
    of m of them, and (2) every unordered pair of distinct edges lies on a
    multiple of m of them.  When both hold, the total crossing count of the
    family is the same multiple of m in every generic immersion.

    Args:
        graph: The graph.
        family: Iterable of cycle lengths and/or explicit Cycle objects.
        m: Modulus, at least 1.

    Returns:
        Pair (ok, report); report holds per-condition booleans and the
        failing edges or pairs with their counts.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    weights = _count_weights(graph, _family_cycles(graph, family))
    counts = weights.counts.tolist()
    n = len(graph.edges)
    edge_failures = {e: counts[a * n + a] for a, e in enumerate(graph.edge_names)
                     if counts[a * n + a] % m}
    pair_failures = {
        (d, e): counts[a * n + b]
        for (a, d), (b, e) in combinations(enumerate(graph.edge_names), 2)
        if counts[a * n + b] % m
    }
    report = {
        "edge_counts_divisible": not edge_failures,
        "pair_counts_divisible": not pair_failures,
        "edge_failures": edge_failures,
        "pair_failures": pair_failures,
        "family_size": weights.size,
    }
    return (not edge_failures and not pair_failures), report


@dataclass(frozen=True)
class SumInvarianceReport:
    """The four conditions deciding invariance of a crossing sum mod m."""

    edge_counts: bool
    doubled_pair_counts: bool
    vertex_edge_sums: bool
    adjacent_pair_counts: bool

    def __iter__(self):
        return iter((self.edge_counts, self.doubled_pair_counts,
                     self.vertex_edge_sums, self.adjacent_pair_counts))


def check_sum_invariance(graph: MultiGraph, family, m):
    """Test the four conditions making a crossing sum a regular invariant.

    The sum of crossing numbers over the family, taken mod m, is unchanged
    by any generic deformation of an immersion exactly when all four hold:
    (1) every edge count is divisible by m, (2) twice every pair count is,
    (3) for every vertex v and edge e the sum of pair counts of e with the
    edges at v is, and (4) every adjacent pair count is. For families of
    cycles and m = 2, condition (3) follows from (1) because a cycle through
    e entering a vertex v uses exactly zero or two edge slots at v; it is
    still computed directly here.

    Args:
        graph: The graph.
        family: Iterable of cycle lengths and/or explicit Cycle objects.
        m: Modulus, at least 1.

    Returns:
        SumInvarianceReport of four booleans (iterable in order).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    weights = _count_weights(graph, _family_cycles(graph, family))
    n = len(graph.edges)
    upper = weights.counts.reshape(n, n)
    # The pair counts as a symmetric matrix, edge counts on the diagonal,
    # and the vertex-by-edge incidence table, loops counted twice.
    full = upper + upper.T - np.diag(upper.diagonal())
    index = graph.edge_index
    at = np.bincount([row * n + index[e] for row, v in enumerate(graph.vertices)
                      for e in graph.incident[v]],
                     minlength=len(graph.vertices) * n).reshape(-1, n)
    adjacent = [_key(graph, *p) for p, d in graph._edge_distances.items() if d == 0]

    def divisible(values):
        return all(v % m == 0 for v in values.ravel().tolist())

    return SumInvarianceReport(
        divisible(upper.diagonal()),
        divisible(2 * np.triu(upper, 1)),
        divisible(at @ full),
        divisible(weights.counts[adjacent]),
    )


def tb_ratio(graph: MultiGraph, j, k):
    """The rational q with alpha_k = q*alpha_j and beta_k = q*beta_j, if any.

    Checks all three families: single edges, adjacent pairs (alpha), and
    disjoint pairs (beta, orientation-independent as an equation).  All
    three read as one equation on the signed pair counts, self pairs
    included: on an adjacent pair every cycle through both edges turns the
    same way at their shared vertex, so the signed count is alpha times a
    sign fixed by the pair.  When q exists, the total Thurston-Bennequin
    number over k-cycles is q times the one over j-cycles for every diagram
    of the graph.

    Args:
        graph: The graph.
        j: Reference cycle length (cycles of this length must exist).
        k: Compared cycle length.

    Returns:
        The ratio as a Fraction, or None when no single ratio works.
    """
    wj = _weights(graph, j)
    wk = _weights(graph, k)
    if not wj.size:
        raise ValueError(f"no cycles of length {j}")
    # The first edge on a j-cycle fixes q; the edge counts are the
    # diagonal of the signed counts.
    n = len(graph.edges)
    a = int(wj.counts[::n + 1].nonzero()[0][0])
    num, den = int(wk.counts[a * n + a]), int(wj.counts[a * n + a])
    if (wk.signed * den != wj.signed * num).any():
        return None
    return Fraction(num, den)
