"""Multigraphs, named constructors, cycles, edge distances and K4 minors.

The graphs handled here are small labeled multigraphs (loops and parallel
edges allowed).  A graph never changes value: no operation mutates its
vertices or edges.  Data derived from a graph (cycles, edge distances,
census weights) is memoized on the graph object itself, so it is freed
with the graph.  Filling a memo entry is idempotent, so shared read-only
use from several threads stays safe.

This module owns each graph's cycle table, its cycles encoded once as
integer step codes; the census weights, the immersion's cycle index and
the writhe sums read their cycles' rows from it, never edge names.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, combinations

import numpy as np

# Sentinel distance for edge pairs in different components.
INFINITE_DISTANCE = math.inf


def _check_name(name, what):
    if not name or any(ch.isspace() for ch in name) or ":" in name:
        raise ValueError(f"bad {what} name {name!r}: must be nonempty, no whitespace, no ':'")


@dataclass(frozen=True)
class MultiGraph:
    """A labeled multigraph.

    Attributes:
        vertices: Vertex names, in a fixed order.
        edges: Triples ``(name, tail, head)``.  The tail is the first-named
            vertex; this fixed orientation is what oriented-pair bookkeeping
            refers to.  Loops (tail == head) and parallel edges are allowed.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        seen_v = set()
        for v in self.vertices:
            _check_name(v, "vertex")
            if v in seen_v:
                raise ValueError(f"duplicate vertex {v!r}")
            seen_v.add(v)
        seen_e = set()
        for name, tail, head in self.edges:
            _check_name(name, "edge")
            if name in seen_e:
                raise ValueError(f"duplicate edge {name!r}")
            seen_e.add(name)
            if tail not in seen_v or head not in seen_v:
                raise ValueError(f"edge {name!r} has unknown endpoint")

    @cached_property
    def edge_index(self) -> dict:
        return {e[0]: i for i, e in enumerate(self.edges)}

    @cached_property
    def endpoints(self) -> dict:
        return {name: (tail, head) for name, tail, head in self.edges}

    @cached_property
    def incident(self) -> dict:
        """Vertex -> tuple of incident edge names; loops listed twice."""
        inc = {v: [] for v in self.vertices}
        for name, tail, head in self.edges:
            inc[tail].append(name)
            inc[head].append(name)
        return {v: tuple(names) for v, names in inc.items()}

    def other_end(self, name, v):
        tail, head = self.endpoints[name]
        if v == tail:
            return head
        if v == head:
            return tail
        raise ValueError(f"{v!r} is not an endpoint of {name!r}")

    @cached_property
    def edge_names(self) -> tuple:
        return tuple(e[0] for e in self.edges)

    @cached_property
    def _memo(self) -> dict:
        """Data derived from this graph, filled by ``per_graph``."""
        return {}

    @cached_property
    def _edge_distances(self) -> dict:
        """Index-ordered pair of distinct edges -> edge_distance, every pair.

        One breadth-first search per vertex; an edge pair's distance is the
        least vertex distance between their endpoints.
        """
        near = {}
        for source in self.vertices:
            dist = {source: 0}
            queue = deque((source,))
            while queue:
                v = queue.popleft()
                for name in self.incident[v]:
                    w = self.other_end(name, v)
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            near[source] = dist
        ends = self.endpoints
        return {
            (d, e): min(near[u].get(w, INFINITE_DISTANCE)
                        for u in ends[d] for w in ends[e])
            for d, e in combinations(self.edge_names, 2)
        }

    def subgraph_on_edges(self, names) -> "MultiGraph":
        """Subgraph spanned by the given edges, keeping original order."""
        keep = set(names)
        edges = tuple(e for e in self.edges if e[0] in keep)
        used = {v for _, t, h in edges for v in (t, h)}
        # Names, vertices and endpoints come from this checked graph.
        sub = object.__new__(MultiGraph)
        object.__setattr__(sub, "vertices", tuple(v for v in self.vertices if v in used))
        object.__setattr__(sub, "edges", edges)
        return sub


def per_graph(fn):
    """Memoize fn(graph, *args) in the graph's ``MultiGraph._memo``.

    The memo lives and dies with the graph, and since graphs never change
    value an entry never goes stale.  Keys start with the returned wrapper,
    not fn: pickle finds the wrapper by its name, so a graph still pickles
    with its memo.
    """

    @wraps(fn)
    def memoized(graph, *args):
        key = (memoized, *args)
        memo = graph._memo
        try:
            return memo[key]
        except KeyError:
            memo[key] = value = fn(graph, *args)
            return value

    return memoized


def _canonical_steps(steps):
    # Minimum over all rotations of the forward and the reversed traversal;
    # direction -1 sorts after +1 so the forward tour of the anchor edge wins.
    # The minimum starts with the smallest edge name, so only the rotations
    # that start at one of its occurrences are compared, in the same order.
    reverse = tuple((name, -d) for name, d in reversed(steps))
    low = min((name for name, _ in steps), default=None)
    best = None
    best_key = None
    for seq in (steps, reverse):
        for r, (name, _) in enumerate(seq):
            if name != low:
                continue
            cand = seq[r:] + seq[:r]
            key = tuple((name, 0 if d > 0 else 1) for name, d in cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    return best


@dataclass(frozen=True)
class Cycle:
    """A simple cycle, stored in canonical (rotation/reflection-free) form.

    Attributes:
        steps: Tuple of ``(edge name, direction)`` in traversal order, where
            direction +1 means tail-to-head.  Normalized on construction, so
            equal cycles compare and hash equal.
    """

    steps: tuple

    def __post_init__(self):
        steps = _canonical_steps(tuple(self.steps))
        object.__setattr__(self, "steps", steps)
        # The dataclass hash, kept: every per-cycle lookup hashes the cycle.
        object.__setattr__(self, "_hash", hash((steps,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so a pickle leaves the
        # kept hash behind.
        return Cycle, (self.steps,)

    def __len__(self):
        return len(self.steps)

    @cached_property
    def edge_name_set(self) -> frozenset:
        return frozenset(name for name, _ in self.steps)

    def vertex_sequence(self, graph: MultiGraph):
        """Vertices visited, one per step, starting at the first step's start."""
        out = []
        for name, d in self.steps:
            tail, head = graph.endpoints[name]
            out.append(tail if d > 0 else head)
        return tuple(out)

    def validate(self, graph: MultiGraph):
        """Check the steps close up into a vertex-simple cycle of the graph."""
        n = len(self.steps)
        if n == 0:
            raise ValueError("empty cycle")
        for name, d in self.steps:
            if name not in graph.endpoints:
                raise ValueError(f"cycle uses unknown edge {name!r}")
            if d not in (1, -1):
                raise ValueError(f"step direction must be +1 or -1, got {d!r}")
        starts = self.vertex_sequence(graph)
        for i, (name, d) in enumerate(self.steps):
            tail, head = graph.endpoints[name]
            end = head if d > 0 else tail
            if end != starts[(i + 1) % n]:
                raise ValueError(f"steps do not chain at position {i}")
        if n == 1 and starts[0] != graph.endpoints[self.steps[0][0]][1]:
            raise ValueError("1-cycle must be a loop")
        if len(set(starts)) != n:
            raise ValueError("cycle revisits a vertex")
        if len(self.edge_name_set) != n:
            raise ValueError("cycle repeats an edge")


@dataclass(frozen=True, eq=False)
class _CycleTable:
    """A graph's cycles, enumerated once and encoded once as integers.

    Attributes:
        cycles: The canonical Cycles, in the order of enumerate_cycles.
        rows: Each cycle -> its row, its place in cycles.
        codes: intp, every cycle's steps, row after row, in canonical
            orientation: code 2e + r is edge e (in edge order) traversed
            tail to head (r = 0) or head to tail (r = 1).
        starts: intp offset of each row's run in codes, then len(codes).
        spans: Cycle length -> (first row, end row), lengths ascending.
    """

    cycles: tuple
    rows: dict
    codes: np.ndarray
    starts: np.ndarray
    spans: dict


# The one table of every graph with no cycle: such a graph builds no arrays.
_NO_CYCLES = _CycleTable((), {}, np.zeros(0, np.intp), np.zeros(1, np.intp), {})


@per_graph
def _cycle_table(graph: MultiGraph):
    cycles = []
    for anchor, (name, tail, head) in enumerate(graph.edges):
        if tail == head:
            cycles.append(Cycle(((name, 1),)))
            continue
        # Anchor the cycle at its smallest-index edge, traversed tail-to-head;
        # all other edges must have a larger index, so each cycle shows up once.
        stack = [(head, ((name, 1),), frozenset((head,)))]
        while stack:
            cur, steps, seen = stack.pop()
            for ename in graph.incident[cur]:
                if graph.edge_index[ename] <= anchor:
                    continue
                t, h = graph.endpoints[ename]
                if t == h:
                    continue  # loops only ever form 1-cycles
                nxt, d = (h, 1) if t == cur else (t, -1)
                if nxt == tail:
                    cycles.append(Cycle(steps + ((ename, d),)))
                elif nxt not in seen:
                    stack.append((nxt, steps + ((ename, d),), seen | {nxt}))
    cycles = tuple(sorted(cycles, key=lambda c: (len(c), c.steps)))
    if not cycles:
        return _NO_CYCLES
    index = graph.edge_index
    spans = {}
    for row, c in enumerate(cycles):
        spans[len(c)] = (spans.get(len(c), (row,))[0], row + 1)
    codes = [2 * index[name] + (d < 0) for c in cycles for name, d in c.steps]
    starts = [0, *accumulate(map(len, cycles))]
    return _CycleTable(cycles, {c: row for row, c in enumerate(cycles)},
                       np.array(codes, dtype=np.intp), np.array(starts, dtype=np.intp), spans)


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


def _length_rows(graph: MultiGraph, k):
    # The rows of the k-cycles in the graph's cycle table (every row for k
    # None), as a slice; ValueError for what _checked_length refuses.
    table, k = _cycle_table(graph), _checked_length(k)
    return slice(*(table.spans.get(k, (0, 0)) if k else (0, len(table.cycles))))


@per_graph
def _signed_incidence(graph: MultiGraph):
    # The int64 cycle-by-edge table x of the graph's cycle table: entry
    # (row, e) is +1 or -1 where the row's cycle traverses edge e tail to
    # head or head to tail, else 0.
    table = _cycle_table(graph)
    x = np.zeros((len(table.cycles), len(graph.edges)), dtype=np.int64)
    rows = np.arange(len(table.cycles)).repeat(table.starts[1:] - table.starts[:-1])
    x[rows, table.codes >> 1] = 1 - 2 * (table.codes & 1)
    return x


def enumerate_cycles(graph: MultiGraph, k=None):
    """Enumerate the simple cycles of a multigraph.

    Loops count as 1-cycles and a pair of parallel edges as a 2-cycle.

    Args:
        graph: The graph.
        k: Optional length filter.

    Returns:
        Tuple of canonical Cycle objects in a fixed deterministic order
        (by length, then lexicographically).

    Raises:
        ValueError: k is neither None nor an integer of at least 1 (bools
            and floats are refused).
    """
    return _cycle_table(graph).cycles[_length_rows(graph, k)]


@per_graph
def cycle_lengths(graph: MultiGraph):
    """The distinct lengths of the graph's cycles, ascending, as a tuple."""
    return tuple(_cycle_table(graph).spans)


def edge_distance(graph: MultiGraph, d, e):
    """Distance between two edges: fewest edges on a path joining them.

    Returns 0 exactly when the edges coincide or share a vertex, and
    INFINITE_DISTANCE when they lie in different components.

    Raises:
        ValueError: Unknown edge name.
    """
    index = graph.edge_index
    for name in (d, e):
        if name not in index:
            raise ValueError(f"unknown edge {name!r}")
    if d == e:
        return 0
    return graph._edge_distances[(d, e) if index[d] < index[e] else (e, d)]


def edge_pairs_at_distance(graph: MultiGraph, k):
    """All unordered edge pairs at distance exactly k, in edge-index order."""
    return tuple(p for p, dist in graph._edge_distances.items() if dist == k)


def disjoint_edge_pairs(graph: MultiGraph):
    """All unordered pairs of edges sharing no vertex (distance >= 1)."""
    return tuple(p for p, dist in graph._edge_distances.items() if dist >= 1)


# ---------------------------------------------------------------------------
# Series-parallel reduction and K4 minors


def _reduction_run(graph: MultiGraph):
    # Mutable picture: simple-pair multiplicities plus loop counts.
    verts = set(graph.vertices)
    mult = Counter()
    loops = Counter()
    for name, t, h in graph.edges:
        if t == h:
            loops[t] += 1
        else:
            mult[frozenset((t, h))] += 1
    order = {v: i for i, v in enumerate(graph.vertices)}
    trace = []

    def degree(v):
        return 2 * loops[v] + sum(m for pair, m in mult.items() if v in pair)

    def neighbors(v):
        out = []
        for pair, m in mult.items():
            if m > 0 and v in pair:
                others = [w for w in pair if w != v]
                out.append((others[0], m))
        return out

    changed = True
    while changed:
        changed = False
        for v in sorted(verts, key=order.get):
            if loops[v]:
                trace.append(f"delete {loops[v]} loop(s) at {v}")
                loops[v] = 0
                changed = True
        for pair in sorted(mult, key=lambda p: sorted(order[v] for v in p)):
            if mult[pair] >= 2:
                a, b = sorted(pair, key=order.get)
                trace.append(f"merge {mult[pair]} parallel edges {a}-{b}")
                mult[pair] = 1
                changed = True
        for v in sorted(verts, key=order.get):
            deg = degree(v)
            if deg == 0:
                verts.discard(v)
                changed = True
            elif deg == 1:
                (w, _), = neighbors(v)
                trace.append(f"drop pendant vertex {v}")
                mult[frozenset((v, w))] = 0
                verts.discard(v)
                changed = True
        for v in sorted(verts, key=order.get):
            if degree(v) != 2 or loops[v]:
                continue
            nbrs = neighbors(v)
            if len(nbrs) != 2:
                continue  # a doubled edge; the parallel rule gets it first
            (a, _), (b, _) = nbrs
            trace.append(f"suppress degree-2 vertex {v} into {a}-{b}")
            mult[frozenset((v, a))] = 0
            mult[frozenset((v, b))] = 0
            mult[frozenset((a, b))] += 1
            verts.discard(v)
            changed = True
    remaining = sorted(
        (tuple(sorted(pair, key=order.get)) for pair, m in mult.items() if m > 0),
        key=lambda p: (order[p[0]], order[p[1]]),
    )
    return remaining, trace


def has_K4_minor(graph: MultiGraph) -> bool:
    """True iff K4 is a minor of the graph.

    Decided by series-parallel reduction: deleting loops, merging parallel
    edges, dropping pendant vertices and suppressing degree-2 vertices
    reaches the empty graph exactly on the K4-minor-free graphs.  Whatever
    survives is a simple core of minimum degree 3, which always carries a
    K4 subdivision.
    """
    remaining, _ = _reduction_run(graph)
    return bool(remaining)


def sp_reduction_trace(graph: MultiGraph):
    """Run the series-parallel reduction and keep a step-by-step trace.

    Returns:
        Pair (reduced, lines): reduced is True when the graph collapsed to
        nothing (no K4 minor); lines lists each reduction step and, when
        stuck, the surviving core's edges.
    """
    remaining, trace = _reduction_run(graph)
    if remaining:
        core = ", ".join(f"{a}-{b}" for a, b in remaining)
        trace.append(f"stuck: irreducible core with {len(remaining)} edges: {core}")
        return False, tuple(trace)
    trace.append("reduced to the empty graph")
    return True, tuple(trace)


def block_decomposition(graph: MultiGraph):
    """Split a multigraph into its blocks (2-connected pieces and bridges).

    Returns:
        Tuple of (block, cut_vertices) pairs, where block is a MultiGraph on
        the original names and cut_vertices are the block's vertices that are
        cut vertices of the whole graph.  Loops form their own single-edge
        blocks.  Every cycle lies inside exactly one block.
    """
    index = {}
    low = {}
    counter = 0
    edge_stack = []
    raw_blocks = []
    cut = set()
    loops_done = set()
    for root in graph.vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, None, iter(graph.incident[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for ename in it:
                if ename == in_edge:
                    continue
                t, h = graph.endpoints[ename]
                if t == h:
                    if ename not in loops_done:
                        loops_done.add(ename)
                        raw_blocks.append([ename])
                    continue
                w = h if t == v else t
                if w not in index:
                    edge_stack.append(ename)
                    index[w] = low[w] = counter
                    counter += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, ename, iter(graph.incident[w])))
                    advanced = True
                    break
                if index[w] < index[v]:
                    edge_stack.append(ename)
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= index[u]:
                comp = []
                while True:
                    e = edge_stack.pop()
                    comp.append(e)
                    if e == in_edge:
                        break
                raw_blocks.append(comp)
                if u != root or root_children > 1:
                    cut.add(u)
        if root_children > 1:
            cut.add(root)
    raw_blocks.sort(key=lambda names: min(graph.edge_index[n] for n in names))
    out = []
    for names in raw_blocks:
        block = graph.subgraph_on_edges(names)
        out.append((block, tuple(v for v in block.vertices if v in cut)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Named constructors


def petersen_graph() -> MultiGraph:
    """The Petersen graph: outer 5-cycle u1..u5, spokes, inner pentagram.

    Edges are u_i u_{i+1}, u_i v_i and v_i v_{i+2} with indices mod 5,
    named by concatenating tail and head (tail is the first-named vertex).
    """
    verts = tuple(f"u{i}" for i in range(1, 6)) + tuple(f"v{i}" for i in range(1, 6))
    edges = []
    for i in range(1, 6):
        j = i % 5 + 1
        edges.append((f"u{i}u{j}", f"u{i}", f"u{j}"))
    for i in range(1, 6):
        edges.append((f"u{i}v{i}", f"u{i}", f"v{i}"))
    for i in range(1, 6):
        j = (i + 1) % 5 + 1
        edges.append((f"v{i}v{j}", f"v{i}", f"v{j}"))
    return MultiGraph(verts, tuple(edges))


def heawood_graph() -> MultiGraph:
    """The Heawood graph on u1..u7, v1..v7.

    Edges are a_i = u_i v_i, b_i = u_i v_{i-1} and c_i = v_i u_{i-2} with
    indices mod 7, named by concatenating tail and head.
    """
    verts = tuple(f"u{i}" for i in range(1, 8)) + tuple(f"v{i}" for i in range(1, 8))

    def m7(i):
        return (i - 1) % 7 + 1

    edges = []
    for i in range(1, 8):
        edges.append((f"u{i}v{i}", f"u{i}", f"v{i}"))
    for i in range(1, 8):
        j = m7(i - 1)
        edges.append((f"u{i}v{j}", f"u{i}", f"v{j}"))
    for i in range(1, 8):
        j = m7(i - 2)
        edges.append((f"v{i}u{j}", f"v{i}", f"u{j}"))
    return MultiGraph(verts, tuple(edges))


def complete_graph(n) -> MultiGraph:
    """K_n on vertices v1..vn."""
    if n < 1:
        raise ValueError("n must be positive")
    verts = tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple(
        (f"v{i}v{j}", f"v{i}", f"v{j}")
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    return MultiGraph(verts, edges)


def complete_bipartite_graph(m, n) -> MultiGraph:
    """K_{m,n} on parts a1..am and b1..bn."""
    if m < 1 or n < 1:
        raise ValueError("part sizes must be positive")
    verts = tuple(f"a{i}" for i in range(1, m + 1)) + tuple(f"b{j}" for j in range(1, n + 1))
    edges = tuple(
        (f"a{i}b{j}", f"a{i}", f"b{j}")
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    )
    return MultiGraph(verts, edges)


def multi_triangle(m) -> MultiGraph:
    """Three vertices x, y, z with every pair joined by m parallel edges."""
    if m < 1:
        raise ValueError("m must be positive")
    edges = []
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        for i in range(1, m + 1):
            edges.append((f"{a}{b}{i}", a, b))
    return MultiGraph(("x", "y", "z"), tuple(edges))


def theta_graph(n) -> MultiGraph:
    """Two vertices u, v joined by n parallel edges e1..en."""
    if n < 1:
        raise ValueError("n must be positive")
    edges = tuple((f"e{i}", "u", "v") for i in range(1, n + 1))
    return MultiGraph(("u", "v"), edges)


def build_named(family, *params) -> MultiGraph:
    """Build one of the named graphs.

    Args:
        family: "PG", "HG", "K" (one or two parameters), "T" or "theta".
        *params: Positive integer parameters for K, T and theta.

    Returns:
        The canonical labeled graph.

    Raises:
        ValueError: Unknown family or bad parameters.
    """
    if any(not isinstance(p, int) or p < 1 for p in params):
        raise ValueError(f"parameters must be positive integers, got {params!r}")
    if family == "PG" and not params:
        return petersen_graph()
    if family == "HG" and not params:
        return heawood_graph()
    if family == "K" and len(params) == 1:
        return complete_graph(params[0])
    if family == "K" and len(params) == 2:
        return complete_bipartite_graph(*params)
    if family == "T" and len(params) == 1:
        return multi_triangle(params[0])
    if family == "theta" and len(params) == 1:
        return theta_graph(params[0])
    raise ValueError(f"unknown named graph: {family!r} with parameters {params!r}")
