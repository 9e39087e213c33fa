"""Zero-rotation constructions for K4-minor-free graphs.

Each 2-connected block is decomposed into a series-parallel tree between
two terminal vertices and realized so that every edge is strictly
height-monotone along the block's bipolar orientation.  A cycle then splits
into one ascending and one descending arc, which pins its rotation number
to -1, 0, or +1; the parallel join places the children in disjoint boxes
and routes their terminal strands through a reversal band so that any two
paths through distinct children cross exactly once, forcing the count of
self-crossings on every cycle to be odd and the rotation number to zero.
The realization runs on integers: a piece's points are numerators over one
denominator, and every step is an exact per-axis affine map.  Blocks are
glued at cut vertex images by exact similarities, a power-of-two scale and
a rotation by a rational point on the unit circle, done as integer affine
maps; they preserve crossings, height monotonicity and rotation numbers,
and the glued drawing goes to the immersion as one integer lattice.  Loop
edges become small figure eights: the only closed curves with zero
rotation, so loop blocks carry no height certificate.  Every construction is
audited once, on the assembled drawing, before it is returned (see
construct_zero_rotation).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from operator import gt

from .graphs import (
    MultiGraph,
    block_decomposition,
    sp_reduction_trace,
)
from .immersion import PlaneImmersion, _randint, validate

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

        Heights are compared as integers: the functional times the lcm of
        its denominators, on the immersion's integer points brought to one
        positive scale.

        Raises:
            ValueError: Some edge is not strictly monotone along its
                orientation, or a terminal misses the height extreme.
        """
        a, b = self.functional
        scale = math.lcm(a.denominator, b.denominator)
        fa, fb = a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator)
        verts, lines = immersion._row_lists
        u, v = self.terminals
        walks = [(name, lines[name] if direction > 0 else lines[name][::-1])
                 for name, direction in self.down.items()]
        common = math.lcm(verts[u][2], verts[v][2], *(d for _, pts in walks for _, _, d in pts))

        def h(row):
            x, y, d = row
            return (fa * x + fb * y) * (common // d)

        seen = []
        for name, pts in walks:
            heights = list(map(h, pts))
            if not all(map(gt, heights, heights[1:])):
                raise ValueError(f"edge {name} is not height-monotone")
            seen.extend(heights)
        if h(verts[u]) != max(seen):
            raise ValueError(f"terminal {u} is not the highest point")
        if h(verts[v]) != min(seen):
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


_OFF_PATH = ("a vertex lies on no path between the terminals; "
             "the piece is not two-terminal series-parallel")


def _block_chain(sub, a, b):
    # Path of blocks from a to b in the block-cut structure of sub, with
    # the cut vertices between them, or None when a and b live in one
    # block.  Read off one a-b path: a path vertex is such a cut vertex
    # unless a chord (an edge between path vertices) or a group (the edges
    # at one component of sub minus the path) spans it, meeting the path
    # on both of its sides.  A group meeting the path at most once lies on
    # no a-b path.  A piece of a parallel split that meets only one
    # terminal lacks the other, and so joins no a-b path either: the callers
    # pass connected terminals, so that is the only way b goes unreached.
    prev = {a: None}
    queue = deque([a] if a in sub.incident else ())
    while queue and b not in prev:
        x = queue.popleft()
        for name in sub.incident[x]:
            y = sub.other_end(name, x)
            if y not in prev:
                prev[y] = x
                queue.append(y)
    if b not in prev:
        raise ValueError(_OFF_PATH)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    at = {x: i for i, x in enumerate(path)}
    parent = {x: x for x in sub.vertices if x not in at}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def group(name, t, h):
        # An edge's group by its component's root; a chord is its own.
        return find(t) if t in parent else find(h) if h in parent else (name,)

    for _, t, h in sub.edges:
        if t in parent and h in parent:
            parent[find(t)] = find(h)
    # The path positions each chord and each group meets.
    meets = {}
    for name, t, h in sub.edges:
        meets.setdefault(group(name, t, h), set()).update(at[x] for x in (t, h) if x in at)
    spanned = [0] * len(path)
    for pos in meets.values():
        if len(pos) > 1 and max(pos) - min(pos) > 1:
            spanned[min(pos) + 1] += 1
            spanned[max(pos)] -= 1
    cuts, depth = [], 0
    for i in range(1, len(path) - 1):
        depth += spanned[i]
        if depth == 0:
            cuts.append(i)
    if not cuts:
        return None
    if any(len(pos) < 2 for pos in meets.values()):
        raise ValueError(_OFF_PATH)
    parts = [[] for _ in range(len(cuts) + 1)]
    for name, t, h in sub.edges:
        parts[bisect_right(cuts, min(meets[group(name, t, h)]))].append(name)
    return [sub.subgraph_on_edges(names) for names in parts], tuple(path[i] for i in cuts)


def _decompose(sub, a, b):
    if len(sub.edges) == 1:
        name, t, h = sub.edges[0]
        if {t, h} != {a, b}:
            raise ValueError(_OFF_PATH)
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
        ValueError: Unknown, equal or unconnected terminals, a loop edge,
            or a vertex on no path between the terminals.
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
    seen, todo = {u}, [u]
    while todo:
        x = todo.pop()
        for name in graph.incident[x]:
            y = graph.other_end(name, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    if v not in seen:
        raise ValueError("terminals are not connected")
    return _checked_tree(graph, u, v)


def _checked_tree(graph, u, v):
    tree = _decompose(graph, u, v)
    tree.validate(graph)
    if set(tree.leaf_edges()) != set(graph.edge_names):
        raise ValueError("decomposition lost an edge")
    return tree


# ---------------------------------------------------------------------------
# Geometric realization


@dataclass
class _Fragment:
    # One realized subtree in the frame |x| <= 1, 0 <= y <= 1, with the
    # upper terminal at (0, 1) and the lower at (0, 0), on integers: a point
    # (x, y) stands for (x / den, y / den).  Paths run from the upper end
    # down.
    den: int
    verts: dict
    paths: dict
    down: dict
    predicted: Counter


def _pair_key(graph, d, e):
    index = graph.edge_index
    return (d, e) if index[d] < index[e] else (e, d)


def _realize(tree: SPTree, graph: MultiGraph) -> _Fragment:
    u, v = tree.terminals
    if tree.kind == "leaf":
        tail = graph.endpoints[tree.edge][0]
        return _Fragment(
            den=4,
            verts={u: (0, 4), v: (0, 0)},
            paths={tree.edge: ((0, 4), (0, 3), (0, 1), (0, 0))},
            down={tree.edge: 1 if tail == u else -1},
            predicted=Counter(),
        )
    if tree.kind == "series":
        return _realize_series(tree, graph)
    return _realize_parallel(tree, graph)


def _realize_series(tree, graph):
    # Child i of r (from 1) is lifted to y = (r - i) / r + y / r.
    parts = [_realize(child, graph) for child in tree.children]
    r = len(parts)
    common = math.lcm(*(part.den for part in parts))
    verts = {}
    paths = {}
    down = {}
    predicted = Counter()
    for i, part in enumerate(parts, 1):
        f = common // part.den

        def lift(p, f=f, base=(r - i) * common):
            return (p[0] * f * r, base + p[1] * f)

        for vert, p in part.verts.items():
            verts[vert] = lift(p)
        for name, pts in part.paths.items():
            paths[name] = tuple(map(lift, pts))
        down.update(part.down)
        predicted.update(part.predicted)
    return _Fragment(r * common, verts, paths, down, predicted)


def _realize_parallel(tree, graph):
    # Child k of n (from 1) goes into the box x = k + 3 x / 8, y = 1/4 +
    # y / 4; its fan strands run through the rows 3/4, 9/16 and 3/16, and
    # the whole is squeezed to x / (n + 2).
    u, v = tree.terminals
    parts = [_realize(child, graph) for child in tree.children]
    n = len(parts)
    fans = []
    for part in parts:
        top = (0, part.den)
        fans.append(([name for name, pts in part.paths.items() if pts[0] == top],
                     [name for name, pts in part.paths.items() if pts[-1] == (0, 0)]))
    # One denominator b for the boxes, the rows, the skews k^2 / (16 n^2)
    # and the slot spreads j / (4 (m + 1)) of m fan strands.
    b = math.lcm(16 * n * n, *(8 * part.den for part in parts),
                 *(4 * (len(names) + 1) for fan in fans for names in fan))
    verts = {}
    paths = {}
    down = {}
    predicted = Counter()
    upper_edges = []
    for k, (part, (uppers, lowers)) in enumerate(zip(parts, fans), 1):
        f = b // (8 * part.den)

        def box(p, k=k, f=f):
            return (k * b + 3 * f * p[0], b // 4 + 2 * f * p[1])

        for vert, p in part.verts.items():
            if vert not in (u, v):
                verts[vert] = box(p)
        mapped_paths = {name: list(map(box, pts)) for name, pts in part.paths.items()}
        # Fan slots are re-spread evenly at every level so that the angles
        # at the terminals never inherit the child's compressed spacing.
        uppers.sort(key=lambda name: mapped_paths[name][1][0])
        lowers.sort(key=lambda name: mapped_paths[name][-2][0])
        # Quadratic horizontal skew keeps the reversal crossings of three or
        # more corridors away from a common point.
        skew = k * k * b // (16 * n * n)
        for j, name in enumerate(uppers, 1):
            mapped = mapped_paths[name]
            slot = mapped[1]
            reversal = ((n + 1 - k) * b + skew + j * b // (4 * (len(uppers) + 1)), 3 * b // 4)
            mapped_paths[name] = [(0, b), reversal, (slot[0], 9 * b // 16)] + mapped[1:]
        for j, name in enumerate(lowers, 1):
            mapped = mapped_paths[name]
            spread = j * b // (4 * (len(lowers) + 1))
            mapped_paths[name] = mapped[:-1] + [(k * b + spread, 3 * b // 16), (0, 0)]
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
    verts[u] = (0, b)
    verts[v] = (0, 0)
    # x / (n + 2) over b (n + 2) keeps x and multiplies y.
    m = n + 2
    for vert, (x, y) in verts.items():
        verts[vert] = (x, y * m)
    for name, pts in paths.items():
        paths[name] = tuple((x, y * m) for x, y in pts)
    return _Fragment(b * m, verts, paths, down, predicted)


# ---------------------------------------------------------------------------
# Blocks, gluing, and the public constructions


@dataclass
class _Piece:
    block: MultiGraph
    den: int            # a point (x, y) stands for (x / den, y / den)
    verts: dict
    paths: dict
    down: dict          # empty for loop pieces
    terminals: tuple    # () for loop pieces
    predicted: Counter  # the block's own crossings, by edge pair


def _block_piece(block: MultiGraph) -> _Piece:
    name, tail, head = block.edges[0]
    if tail == head:
        # A loop can never be height-monotone; the figure eight is the
        # closed curve with rotation number zero.
        pts = ((0, 0), (2, 0), (2, 2), (3, 1), (0, 0))
        return _Piece(block, 4, {tail: (0, 0)}, {name: pts}, {}, (),
                      Counter({(name, name): 1}))
    terminals = (tail, head)
    # No K4 check here: the whole graph has passed one, and adding a copy
    # of the block's own edge tail-head cannot create a K4 minor.
    tree = _checked_tree(block, *terminals)
    frag = _realize(tree, block)
    paths = {}
    for ename, pts in frag.paths.items():
        paths[ename] = pts if frag.down[ename] > 0 else pts[::-1]
    return _Piece(block, frag.den, frag.verts, paths, dict(frag.down), terminals,
                  frag.predicted)


def _functional(t):
    # The upward direction (-s, c) of a piece turned by the rotation (c, s)
    # = (1 - t^2, 2t) / (1 + t^2), an exact rational point on the unit
    # circle; t = 0 is the identity.
    m = 1 + t * t
    return (Fraction(-2 * t, m), Fraction(1 - t * t, m))


def _place(piece, target, source, k, t):
    # (den, verts, paths): the piece's points p sent to target + 2^-k
    # R (p - source), R the rotation of _functional(t), as numerators over
    # den.  target is (x, y, its den); source is a point of the piece.
    tx, ty, tden = target
    scale = ((1 + t * t) * piece.den) << k
    den = math.lcm(tden, scale)
    f = den // scale
    c, s = f * (1 - t * t), f * 2 * t
    ox, oy = tx * (den // tden), ty * (den // tden)
    sx, sy = source

    def send(p):
        dx, dy = p[0] - sx, p[1] - sy
        return (ox + c * dx - s * dy, oy + s * dx + c * dy)

    verts = {vert: send(p) for vert, p in piece.verts.items()}
    paths = {name: list(map(send, pts)) for name, pts in piece.paths.items()}
    return den, verts, paths


def _assemble(graph, pieces, attempt):
    # (the point numerators flat, x and y of each point in turn, vertices
    # in vertex order and then polylines in edge order, each polyline's
    # number of points, their one denominator, each piece's rotation
    # parameter t).
    holders = {}
    for i, piece in enumerate(pieces):
        for vert in piece.block.vertices:
            holders.setdefault(vert, []).append(i)
    positions = {}
    polylines = {}
    turns = {}
    placed = set()
    offset = 0
    sibling_rank = Counter()
    for root in range(len(pieces)):
        if root in placed:
            continue
        placed.add(root)
        queue = deque([(root, 0, (offset, 0, 1), (0, 0), 0)])
        offset += 4
        while queue:
            i, depth, target, source, rank = queue.popleft()
            piece = pieces[i]
            if depth == 0:
                k = t = 0
            else:
                # The rotation parameter must separate pieces that meet at a
                # shared vertex even when they hang from different anchors,
                # so it varies with the piece index as well as the rank.
                # The scale is 1/16 (1/4)^depth (1/2)^(attempt + rank
                # (attempt + 1)).
                k = 4 + 2 * depth + attempt + rank * (attempt + 1)
                t = 1 + i + 3 * rank + 7 * attempt
            den, verts, paths = _place(piece, target, source, k, t)
            for vert, (x, y) in verts.items():
                positions[vert] = (x, y, den)
            for name, pts in paths.items():
                polylines[name] = (pts, den)
            turns[i] = t
            for vert in sorted(piece.block.vertices, key=graph.vertices.index):
                for j in holders[vert]:
                    if j not in placed:
                        placed.add(j)
                        rank_j = sibling_rank[vert]
                        sibling_rank[vert] += 1
                        queue.append(
                            (j, depth + 1, positions[vert], pieces[j].verts[vert], rank_j)
                        )
    common = math.lcm(*(den for _, den in polylines.values()))
    spare = max((x * (common // den) for x, _, den in positions.values()), default=0) + common
    flat = []
    for vert in graph.vertices:
        if vert in positions:
            x, y, den = positions[vert]
            flat += (x * (common // den), y * (common // den))
        else:
            flat += (spare, 0)
            spare += common
    counts = []
    for name in graph.edge_names:
        pts, den = polylines[name]
        f = common // den
        for x, y in pts:
            flat += (x * f, y * f)
        counts.append(len(pts))
    return flat, counts, common, turns


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
    failure = None
    for attempt in range(_MAX_PLACEMENTS):
        flat, counts, den, turns = _assemble(graph, pieces, attempt)
        immersion = PlaneImmersion._from_lattice(graph, flat, counts, den)
        report = validate(immersion)
        if not report.ok:
            failure = report.summary()
            continue
        _audit_crossings(graph, pieces, immersion._pair_counts)
        certificates = []
        for i, piece in enumerate(pieces):
            if not piece.terminals:
                continue
            certificates.append(
                HeightCertificate(piece.terminals, dict(piece.down), _functional(turns[i]))
            )
            certificates[-1].check(immersion)
        ok, offender = verify_zero(immersion)
        if not ok:
            raise RuntimeError(f"cycle {offender.steps} has nonzero rotation")
        return immersion, tuple(certificates)
    raise RuntimeError(
        f"no generic block placement in {_MAX_PLACEMENTS} attempts: {failure}"
    )


def _audit_crossings(graph, pieces, counts):
    # The pieces' predicted crossings, mapped to the keys a * n + b, against
    # the drawing's counts U at the keys of two edges of one block.
    index, n = graph.edge_index, len(graph.edges)
    predicted = sum((piece.predicted for piece in pieces), Counter())
    expected = {index[d] * n + index[e]: c for (d, e), c in predicted.items()}
    block = [0] * n
    for i, piece in enumerate(pieces):
        for name in piece.block.edge_names:
            block[index[name]] = i
    keys = counts.nonzero()[0].tolist()
    actual = {p: c for p, c in zip(keys, counts[keys].tolist()) if block[p // n] == block[p % n]}
    if actual != expected:
        names = graph.edge_names
        got = {(names[p // n], names[p % n]): c for p, c in actual.items()}
        raise RuntimeError(f"crossing audit failed: predicted {dict(predicted)}, got {got}")


def verify_zero(immersion: PlaneImmersion):
    """Check every cycle's rotation number.

    Returns:
        (True, None) if all cycles have rotation number zero, otherwise
        (False, offending_cycle).
    """
    rows, _, rotation = immersion._cycle_table
    for cycle, rot in zip(rows, rotation):
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
            for _ in range(_randint(rng.getrandbits, 2, 3)):
                grow(a, b, depth + 1)

    grow("t0", "t1", 0)
    return MultiGraph(tuple(vertices), tuple(edges))
