"""Zero-rotation constructions for K4-minor-free graphs.

Each 2-connected block is decomposed into a series-parallel tree between
two terminal vertices and realized so that every edge is strictly
height-monotone along the block's bipolar orientation.  A cycle then splits
into one ascending and one descending arc, which pins its rotation number
to -1, 0, or +1; the parallel join places the children in disjoint boxes
and routes their terminal strands through a reversal band so that any two
paths through distinct children cross exactly once, forcing the count of
self-crossings on every cycle to be odd and the rotation number to zero.
Blocks are glued at cut vertex images by exact rational similarities, which
preserve crossings, height monotonicity and rotation numbers.  Loop edges
become small figure eights: the only closed curves with zero rotation, so
loop blocks carry no height certificate.  Every construction is audited
once, on the assembled drawing, before it is returned: the immersion must
validate, its crossings within each block must equal the predicted
multiset, the height certificates must hold, and every cycle must have
rotation number exactly zero.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (
    MultiGraph,
    block_decomposition,
    enumerate_cycles,
    sp_reduction_trace,
)
from .immersion import PlaneImmersion, _require_valid, validate

_MAX_PLACEMENTS = 40


class K4MinorError(ValueError):
    """The input graph has a K4 minor, so no drawing can give every cycle
    rotation number zero.

    Attributes:
        trace: The series-parallel reduction steps ending in the stuck core
            that witnesses the minor.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class SPTree:
    """Series-parallel decomposition tree of a block between two terminals.

    Attributes:
        kind: "leaf", "series" or "parallel".
        terminals: (u, v) for this node.
        children: Child trees, in drawing order.
        edge: Leaf nodes only: the edge name.
        cuts: Series nodes only: the cut vertices shared by consecutive
            children.
    """

    kind: str
    terminals: tuple
    children: tuple = ()
    edge: str = None
    cuts: tuple = ()

    def leaf_edges(self):
        if self.kind == "leaf":
            return (self.edge,)
        out = []
        for child in self.children:
            out.extend(child.leaf_edges())
        return tuple(out)

    def vertex_set(self, graph):
        out = set()
        for name in self.leaf_edges():
            out.update(graph.endpoints[name])
        return out

    def validate(self, graph):
        """Check the structural invariants against the graph.

        Raises:
            ValueError: Malformed node, duplicated leaf edge, series
                children not chained through the cut vertices, or parallel
                children overlapping beyond the terminals.
        """
        names = self.leaf_edges()
        if len(set(names)) != len(names):
            raise ValueError("decomposition repeats an edge")
        self._validate_node(graph)

    def _validate_node(self, graph):
        u, v = self.terminals
        if self.kind == "leaf":
            if set(graph.endpoints[self.edge]) != {u, v}:
                raise ValueError(f"leaf {self.edge} does not join its terminals")
            return
        if len(self.children) < 2:
            raise ValueError(f"{self.kind} node needs at least two children")
        if self.kind == "series":
            if len(self.cuts) != len(self.children) - 1:
                raise ValueError("series node needs one cut vertex between children")
            chain = (u,) + self.cuts + (v,)
            for i, child in enumerate(self.children):
                if child.terminals != (chain[i], chain[i + 1]):
                    raise ValueError("series children do not chain through the cuts")
        elif self.kind == "parallel":
            for child in self.children:
                if child.terminals != (u, v):
                    raise ValueError("parallel children must share the terminals")
            sets = [child.vertex_set(graph) for child in self.children]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    if sets[i] & sets[j] != {u, v}:
                        raise ValueError(
                            "parallel children overlap beyond the terminals"
                        )
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")
        for child in self.children:
            child._validate_node(graph)


@dataclass(frozen=True)
class HeightCertificate:
    """Witness that a block is drawn height-monotonically.

    Attributes:
        terminals: (u, v); u attains the block's maximal height, v the
            minimal one.
        down: Edge name -> +1 when the stored tail is the upper endpoint.
        functional: (a, b) with height h(p) = a*x + b*y, the block's upward
            direction after placement.
    """

    terminals: tuple
    down: dict
    functional: tuple

    def check(self, immersion: PlaneImmersion):
        """Verify the certificate against an immersion, exactly.

        Raises:
            ValueError: Some edge is not strictly monotone along its
                orientation, or a terminal misses the height extreme.
        """
        a, b = self.functional

        def h(p):
            return a * p[0] + b * p[1]

        seen = []
        for name, direction in self.down.items():
            points = immersion.edge_polyline[name]
            if direction < 0:
                points = points[::-1]
            heights = [h(p) for p in points]
            for i in range(len(heights) - 1):
                if not heights[i] > heights[i + 1]:
                    raise ValueError(f"edge {name} is not height-monotone")
            seen.extend(heights)
        u, v = self.terminals
        if h(immersion.vertex_position[u]) != max(seen):
            raise ValueError(f"terminal {u} is not the highest point")
        if h(immersion.vertex_position[v]) != min(seen):
            raise ValueError(f"terminal {v} is not the lowest point")


# ---------------------------------------------------------------------------
# Decomposition


def _components_off_terminals(graph, a, b):
    # Connected components of the graph minus the terminals, each with the
    # edges it absorbs (everything except direct a-b edges).
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for vert in graph.vertices:
        if vert not in (a, b):
            parent[vert] = vert
    direct = []
    attached = {}
    for name, t, h in graph.edges:
        if {t, h} == {a, b}:
            direct.append(name)
        else:
            inner = [w for w in (t, h) if w not in (a, b)]
            attached[name] = inner
            if len(inner) == 2:
                union(inner[0], inner[1])
    groups = {}
    for name, inner in attached.items():
        root = find(inner[0])
        groups.setdefault(root, []).append(name)
    return direct, list(groups.values())


def _block_chain(sub, a, b):
    # Path of blocks from a to b in the block-cut structure of sub, or None
    # when a and b live in one block.
    blocks = [blk for blk, _ in block_decomposition(sub)]
    holders = {}
    for i, blk in enumerate(blocks):
        for vert in blk.vertices:
            holders.setdefault(vert, []).append(i)
    start = holders[a]
    prev = {i: None for i in start}
    queue = deque(start)
    goal = None
    while queue:
        i = queue.popleft()
        if b in blocks[i].vertices:
            goal = i
            break
        for vert in blocks[i].vertices:
            for j in holders[vert]:
                if j not in prev:
                    prev[j] = i
                    queue.append(j)
    if goal is None:
        raise ValueError("terminals are not connected")
    path = []
    i = goal
    while i is not None:
        path.append(i)
        i = prev[i]
    path.reverse()
    if len(path) == 1:
        return None
    chain = [blocks[i] for i in path]
    covered = set()
    for blk in chain:
        covered.update(blk.edge_names)
    if covered != set(sub.edge_names):
        raise ValueError(
            "a vertex lies on no path between the terminals; "
            "the piece is not two-terminal series-parallel"
        )
    cuts = []
    for left, right in zip(chain, chain[1:]):
        shared = set(left.vertices) & set(right.vertices)
        if len(shared) != 1:
            raise ValueError("blocks share more than one vertex")
        cuts.append(shared.pop())
    return chain, tuple(cuts)


def _decompose(sub, a, b):
    if len(sub.edges) == 1:
        name, t, h = sub.edges[0]
        if {t, h} != {a, b}:
            raise ValueError(f"edge {name} does not join the terminals")
        return SPTree("leaf", (a, b), edge=name)
    direct, groups = _components_off_terminals(sub, a, b)
    pieces = [[name] for name in direct] + groups
    if len(pieces) >= 2:
        pieces.sort(key=lambda names: min(sub.edge_index[n] for n in names))
        children = []
        for names in pieces:
            children.append(_decompose(sub.subgraph_on_edges(names), a, b))
        return SPTree("parallel", (a, b), tuple(children))
    chain = _block_chain(sub, a, b)
    if chain is None:
        extra = MultiGraph(sub.vertices, sub.edges + (("__refusal__", a, b),))
        _, trace = sp_reduction_trace(extra)
        raise K4MinorError(
            f"no series or parallel split between {a} and {b}: "
            f"the graph has a K4 minor",
            trace,
        )
    blocks, cuts = chain
    stations = (a,) + cuts + (b,)
    children = tuple(
        _decompose(blk, stations[i], stations[i + 1]) for i, blk in enumerate(blocks)
    )
    return SPTree("series", (a, b), children, cuts=cuts)


def sp_decompose(graph: MultiGraph, u, v) -> SPTree:
    """Series-parallel decomposition of a block between two terminals.

    The graph plus a virtual u-v edge must be K4-minor-free; that is checked
    first, so a failed decomposition always surfaces as a refusal with a
    reduction trace rather than a structural error.

    Raises:
        ValueError: Unknown or equal terminals, or a loop edge.
        K4MinorError: The augmented graph has a K4 minor.
    """
    if u not in graph.vertices or v not in graph.vertices:
        raise ValueError("terminals must be vertices of the graph")
    if u == v:
        raise ValueError("terminals must be distinct")
    for name, t, h in graph.edges:
        if t == h:
            raise ValueError(f"loop {name} cannot appear in a series-parallel block")
    augmented = MultiGraph(graph.vertices, graph.edges + (("__terminal__", u, v),))
    reduced, trace = sp_reduction_trace(augmented)
    if not reduced:
        raise K4MinorError(
            f"the graph plus a {u}-{v} edge has a K4 minor", trace
        )
    return _checked_tree(graph, u, v)


def _checked_tree(graph, u, v):
    tree = _decompose(graph, u, v)
    tree.validate(graph)
    if set(tree.leaf_edges()) != set(graph.edge_names):
        raise ValueError("decomposition lost an edge")
    return tree


# ---------------------------------------------------------------------------
# Geometric realization

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TOP = (_ZERO, _ONE)
_BOTTOM = (_ZERO, _ZERO)


@dataclass
class _Fragment:
    # One realized subtree in the frame |x| <= 1, 0 <= y <= 1, with the
    # upper terminal at (0, 1) and the lower at (0, 0).  Paths run from the
    # upper end down.  Above top_row and below bottom_row the drawing holds
    # nothing but the straight terminal fan segments.
    verts: dict
    paths: dict
    down: dict
    top_row: Fraction
    bottom_row: Fraction
    predicted: Counter


def _pair_key(graph, d, e):
    index = graph.edge_index
    return (d, e) if index[d] < index[e] else (e, d)


def _realize(tree: SPTree, graph: MultiGraph) -> _Fragment:
    u, v = tree.terminals
    if tree.kind == "leaf":
        tail = graph.endpoints[tree.edge][0]
        path = (_TOP, (_ZERO, Fraction(3, 4)), (_ZERO, Fraction(1, 4)), _BOTTOM)
        return _Fragment(
            verts={u: _TOP, v: _BOTTOM},
            paths={tree.edge: path},
            down={tree.edge: 1 if tail == u else -1},
            top_row=Fraction(3, 4),
            bottom_row=Fraction(1, 4),
            predicted=Counter(),
        )
    if tree.kind == "series":
        return _realize_series(tree, graph)
    return _realize_parallel(tree, graph)


def _realize_series(tree, graph):
    parts = [_realize(child, graph) for child in tree.children]
    r = len(parts)
    verts = {}
    paths = {}
    down = {}
    predicted = Counter()
    for i, part in enumerate(parts, 1):
        base = Fraction(r - i, r)

        def lift(p, base=base):
            return (p[0], base + p[1] / r)

        for vert, p in part.verts.items():
            verts[vert] = lift(p)
        for name, pts in part.paths.items():
            paths[name] = tuple(lift(p) for p in pts)
        down.update(part.down)
        predicted.update(part.predicted)
    top_row = Fraction(r - 1, r) + parts[0].top_row / r
    bottom_row = parts[-1].bottom_row / r
    return _Fragment(verts, paths, down, top_row, bottom_row, predicted)


def _realize_parallel(tree, graph):
    u, v = tree.terminals
    parts = [_realize(child, graph) for child in tree.children]
    n = len(parts)
    mid_top = Fraction(3, 4)
    mid_bottom = Fraction(9, 16)
    fan_bottom = Fraction(3, 16)
    verts = {}
    paths = {}
    down = {}
    predicted = Counter()
    upper_edges = []
    for k, part in enumerate(parts, 1):
        # Quadratic horizontal skew keeps the reversal crossings of three or
        # more corridors away from a common point.
        skew = Fraction(k * k, 16 * n * n)

        def box(p, k=k):
            return (k + 3 * p[0] / 8, Fraction(1, 4) + p[1] / 4)

        for vert, p in part.verts.items():
            if vert not in (u, v):
                verts[vert] = box(p)
        mapped_paths = {}
        uppers = []
        lowers = []
        for name, pts in part.paths.items():
            mapped_paths[name] = [box(p) for p in pts]
            if pts[0] == _TOP:
                uppers.append(name)
            if pts[-1] == _BOTTOM:
                lowers.append(name)
        # Fan slots are re-spread evenly at every level so that the angles
        # at the terminals never inherit the child's compressed spacing.
        uppers.sort(key=lambda name: mapped_paths[name][1][0])
        lowers.sort(key=lambda name: mapped_paths[name][-2][0])
        for j, name in enumerate(uppers, 1):
            mapped = mapped_paths[name]
            slot = mapped[1]
            spread = Fraction(j, 4 * (len(uppers) + 1))
            reversal = (Fraction(n + 1 - k) + skew + spread, mid_top)
            mapped_paths[name] = [_TOP, reversal, (slot[0], mid_bottom)] + mapped[1:]
        for j, name in enumerate(lowers, 1):
            mapped = mapped_paths[name]
            spread = Fraction(j, 4 * (len(lowers) + 1))
            mapped_paths[name] = mapped[:-1] + [(k + spread, fan_bottom), _BOTTOM]
        paths.update(
            (name, tuple(pts)) for name, pts in mapped_paths.items()
        )
        upper_edges.append(uppers)
        down.update(part.down)
        predicted.update(part.predicted)
    for i in range(n):
        for j in range(i + 1, n):
            for d in upper_edges[i]:
                for e in upper_edges[j]:
                    predicted[_pair_key(graph, d, e)] += 1
    verts[u] = _TOP
    verts[v] = _BOTTOM
    scale = Fraction(n + 2)
    for vert, p in verts.items():
        verts[vert] = (p[0] / scale, p[1])
    for name, pts in paths.items():
        paths[name] = tuple((p[0] / scale, p[1]) for p in pts)
    return _Fragment(verts, paths, down, mid_top, fan_bottom, predicted)


# ---------------------------------------------------------------------------
# Blocks, gluing, and the public constructions


@dataclass
class _Piece:
    block: MultiGraph
    verts: dict
    paths: dict
    down: dict          # empty for loop pieces
    terminals: tuple    # () for loop pieces
    predicted: Counter  # the block's own crossings, by edge pair
    anchor_default: tuple = (_ZERO, _ZERO)


def _block_piece(block: MultiGraph) -> _Piece:
    name, tail, head = block.edges[0]
    if tail == head:
        # A loop can never be height-monotone; the figure eight is the
        # closed curve with rotation number zero.
        pts = (
            (_ZERO, _ZERO),
            (Fraction(1, 2), _ZERO),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(3, 4), Fraction(1, 4)),
            (_ZERO, _ZERO),
        )
        return _Piece(block, {tail: (_ZERO, _ZERO)}, {name: pts}, {}, (),
                      Counter({(name, name): 1}))
    terminals = (tail, head)
    # No K4 check here: the whole graph has passed one, and adding a copy
    # of the block's own edge tail-head cannot create a K4 minor.
    tree = _checked_tree(block, *terminals)
    frag = _realize(tree, block)
    paths = {}
    for ename, pts in frag.paths.items():
        paths[ename] = pts if frag.down[ename] > 0 else pts[::-1]
    return _Piece(block, frag.verts, paths, dict(frag.down), terminals, frag.predicted)


def _pythagorean(t):
    # Exact rational point on the unit circle; t = 0 is the identity.
    num = Fraction(1 + t * t)
    return (Fraction(1 - t * t) / num, Fraction(2 * t) / num)


def _place(piece, anchor_from, anchor_to, rho, rot):
    c, s = rot

    def send(p):
        dx = p[0] - anchor_from[0]
        dy = p[1] - anchor_from[1]
        return (
            anchor_to[0] + rho * (c * dx - s * dy),
            anchor_to[1] + rho * (s * dx + c * dy),
        )

    verts = {vert: send(p) for vert, p in piece.verts.items()}
    paths = {name: tuple(send(p) for p in pts) for name, pts in piece.paths.items()}
    return verts, paths, (-s, c)


def _assemble(graph, pieces, attempt):
    holders = {}
    for i, piece in enumerate(pieces):
        for vert in piece.block.vertices:
            holders.setdefault(vert, []).append(i)
    positions = {}
    polylines = {}
    functionals = {}
    placed = set()
    offset = _ZERO
    sibling_rank = Counter()
    for root in range(len(pieces)):
        if root in placed:
            continue
        placed.add(root)
        queue = deque([(root, 0, (offset, _ZERO), pieces[root].anchor_default, 0)])
        offset += 4
        while queue:
            i, depth, target, source, rank = queue.popleft()
            piece = pieces[i]
            if depth == 0:
                rho, rot = _ONE, (_ONE, _ZERO)
            else:
                # The rotation parameter must separate pieces that meet at a
                # shared vertex even when they hang from different anchors,
                # so it varies with the piece index as well as the rank.
                rho = Fraction(1, 16) * Fraction(1, 4) ** depth
                rho *= Fraction(1, 2) ** (attempt + rank * (attempt + 1))
                rot = _pythagorean(1 + i + 3 * rank + 7 * attempt)
            verts, paths, up = _place(piece, source, target, rho, rot)
            positions.update(verts)
            polylines.update(paths)
            functionals[i] = up
            for vert in sorted(piece.block.vertices, key=graph.vertices.index):
                for j in holders[vert]:
                    if j not in placed:
                        placed.add(j)
                        rank_j = sibling_rank[vert]
                        sibling_rank[vert] += 1
                        queue.append(
                            (j, depth + 1, positions[vert],
                             pieces[j].verts[vert], rank_j)
                        )
    spare = max((p[0] for p in positions.values()), default=_ZERO) + 1
    for vert in graph.vertices:
        if vert not in positions:
            positions[vert] = (spare, _ZERO)
            spare += 1
    return positions, polylines, functionals


def construct_zero_rotation(graph: MultiGraph) -> PlaneImmersion:
    """Immersion of a K4-minor-free graph in which every cycle has rotation
    number exactly zero.

    The construction is audited once, on the assembled drawing, before
    returning: the immersion validates, each block's crossings match the
    predicted multiset, the height certificates hold under the placed
    functionals, and every cycle's rotation number is checked.

    Raises:
        K4MinorError: The graph has a K4 minor, so some cycle of any
            immersion has nonzero rotation; carries the reduction trace.
        RuntimeError: No generic placement found (not expected).
    """
    immersion, _ = zero_rotation_certificates(graph)
    return immersion


def zero_rotation_certificates(graph: MultiGraph):
    """Like construct_zero_rotation, also returning the per-block
    HeightCertificate tuple (loop blocks carry none)."""
    reduced, trace = sp_reduction_trace(graph)
    if not reduced:
        raise K4MinorError(
            "the graph has a K4 minor, so every generic immersion contains "
            "a cycle with nonzero rotation number",
            trace,
        )
    pieces = [_block_piece(block) for block, _ in block_decomposition(graph)]
    for piece in pieces:
        if piece.terminals:
            piece.anchor_default = piece.verts[piece.terminals[1]]
    failure = None
    for attempt in range(_MAX_PLACEMENTS):
        positions, polylines, functionals = _assemble(graph, pieces, attempt)
        immersion = PlaneImmersion(graph, positions, polylines)
        report = validate(immersion)
        if not report.ok:
            failure = report.summary()
            continue
        block_of = {name: i for i, piece in enumerate(pieces)
                    for name in piece.block.edge_names}
        actual = Counter({pair: n for pair, n in immersion._pair_crossings.items()
                          if block_of[pair[0]] == block_of[pair[1]]})
        predicted = sum((piece.predicted for piece in pieces), Counter())
        if actual != predicted:
            raise RuntimeError(
                f"crossing audit failed: predicted {dict(predicted)}, got {dict(actual)}"
            )
        certificates = []
        for i, piece in enumerate(pieces):
            if not piece.terminals:
                continue
            certificates.append(
                HeightCertificate(piece.terminals, dict(piece.down), functionals[i])
            )
            certificates[-1].check(immersion)
        ok, offender = verify_zero(immersion)
        if not ok:
            raise RuntimeError(f"cycle {offender.steps} has nonzero rotation")
        return immersion, tuple(certificates)
    raise RuntimeError(
        f"no generic block placement in {_MAX_PLACEMENTS} attempts: {failure}"
    )


def verify_zero(immersion: PlaneImmersion):
    """Check every cycle's rotation number.

    Returns:
        (True, None) if all cycles have rotation number zero, otherwise
        (False, offending_cycle).
    """
    _require_valid(immersion)
    for cycle, rot in zip(enumerate_cycles(immersion.graph), immersion._cycle_table[2]):
        if rot:
            return False, cycle
    return True, None


def random_sp_graph(seed) -> MultiGraph:
    """Random series-parallel multigraph, K4-minor-free by construction.

    Grown from a random bounded-depth composition tree; deterministic in
    the seed.
    """
    rng = random.Random(seed)
    vertices = ["t0", "t1"]
    edges = []

    def grow(a, b, depth):
        if depth >= 3:
            kind = "leaf"
        else:
            kind = rng.choices(("leaf", "series", "parallel"), (4, 2, 2))[0]
        if kind == "leaf":
            edges.append((f"e{len(edges)}", a, b))
        elif kind == "series":
            w = f"w{len(vertices)}"
            vertices.append(w)
            grow(a, w, depth + 1)
            grow(w, b, depth + 1)
        else:
            for _ in range(rng.randint(2, 3)):
                grow(a, b, depth + 1)

    grow("t0", "t1", 0)
    return MultiGraph(tuple(vertices), tuple(edges))
