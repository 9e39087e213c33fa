"""Plane generic immersions: polyline drawings with exact crossing data.

An immersion maps vertices to rational points and edges to polylines.  The
validator enforces genericity exactly: all multiple points must be
transversal double points interior to two segments, away from breakpoints
and vertices, with no triple points and no collinear overlaps.  An exact
180-degree turn, at a breakpoint or where two edges leave a vertex in one
direction, is a collinear overlap, so every turn of a valid drawing is
shorter than pi.  A drawing is one integer point table: numerators and a
denominator per point.  When every point scaled by the least common
denominator fits kernels.INT_COORD_LIMIT, the table is int64 on that one
scale; otherwise it holds Python ints, each point over the lcm of its own
coordinates' denominators.  The generators (random_immersion and the
zero-rotation constructor of sp) hand their integer lattices straight to
it; a drawing given as Fractions fills the same table, and the Fraction
vertex_position and edge_polyline of a generated drawing are views built
on first read.  Crossing extraction decides every drawing on the segment
table read off the point table, each segment over the lcm of its two
points' denominators, and each candidate pair is scaled to the lcm of its
two segments' denominators.  An exact sort-and-sweep prefilter (see
kernels) runs its box test on integers: on the int64 segment table itself,
or on a Python-int table's boxes, rounded outward onto one int64 scale by a
power of two, so it keeps every touching pair at any magnitude.
classify_pairs decides the surviving pairs exactly, with the same numpy
code on both dtypes.  A contact between two segments is allowed only at one
node, an ordinary polyline joint or terminal slots of two edge ends at one
vertex, and that rule is one numpy comparison.  The crossings stay one table:
segment pair, sign and the parameter numerators and denominator per row.
Validation decides triple points (sorted float parameters, exact
comparison only between neighbours closer than their rounding error) and
crossings at breakpoints on its integers.  Edge pairs have one key space:
the key a * n + b of edge indices a <= b (n edges).  The crossings of each
pair come off the table by one bincount over its rows' keys, as one int64
vector U on all n * n keys; sum_crossing is one dot product of U with the
family's pair weights, and kappa one product with per-graph distance masks.
The record order (ids, edge-pair keys and geometric signs of the crossings,
sorted by id) is read off the table by one np.lexsort, with exact
parameter comparisons only between crossings on one segment of one pair;
diagrams read it directly.  crossings() is a view: its len() reads the
table, and Fractions are built only for CrossingRecords, which are made in
record order once, when the view is first indexed or iterated.
Rotation numbers count signed passes of the tangent past a fixed direction
(Whitney 1937), with the same exact sign predicates on the segment table.

Per-cycle numbers come from one table per immersion, a dict from each
cycle of the graph to its crossing number and rotation number, built once
the drawing is known to be generic; rotation_number and
cycle_crossing_number each read it with one lookup.  The crossing numbers
are one quadratic form of U on a cycle-by-edge incidence table.  The
rotation numbers take a few whole-array passes over the segment table: each
segment's direction and half-plane, the passes at every polyline joint
summed by edge through one prefix sum (backward from the forward ones, as
the two add up to the change of half-plane), and the passes at every corner
where one step of a cycle runs into the next, gathered through per-graph
arrays of the corners' oriented steps.  The incidence and corner arrays
are kept once per graph.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

import numpy as np

from . import kernels
from .census import _checked_length, _key, _weights
from .geometry import as_point
from .graphs import Cycle, MultiGraph, enumerate_cycles, per_graph


@dataclass(frozen=True)
class CrossingRecord:
    """One transversal double point.

    Attributes:
        id: "<a>:<b>:<rank>" where a <= b in edge order and rank counts the
            pair's crossings by arclength along a (for a self crossing, along
            the earlier strand).
        point: Exact crossing coordinates.
        edges: The pair (a, b); a == b for a self crossing.
        seg_a, param_a: Segment index and interior parameter along a.
        seg_b, param_b: Same along b (the later strand for self crossings).
        geometric_sign: +1 when det[tangent of a, tangent of b] > 0 under
            the edges' stored orientations.
        distance_class: d(a, b); 0 for self and adjacent crossings.
        is_self: Whether both strands belong to one edge.
    """

    id: str
    point: tuple
    edges: tuple
    seg_a: int
    param_a: Fraction
    seg_b: int
    param_b: Fraction
    geometric_sign: int
    distance_class: object
    is_self: bool

    @property
    def kind(self):
        if self.is_self:
            return "self"
        return "adjacent" if self.distance_class == 0 else "disjoint"


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of validate: ok iff the violation list is empty."""

    ok: bool
    violations: tuple

    def summary(self):
        if self.ok:
            return "ok"
        return "; ".join(f"{kind}: {detail}" for kind, detail in self.violations)


class PlaneImmersion:
    """A polyline drawing of a multigraph in the plane.

    Attributes:
        graph: The underlying multigraph.
        vertex_position: Vertex name -> exact point, a pair of Fractions.
        edge_polyline: Edge name -> point tuple from tail position to head
            position, pairs of Fractions.

    The drawing is one integer point table (_points).  The constructor
    coerces its arguments to Fractions, keeps them as the two dicts and
    fills the table from them when it is first read; a generator hands its
    integer lattice to _from_lattice, and the dicts are then Fraction views
    of the table, built when first read.

    Treated as immutable after construction; compared by identity.
    """

    def __init__(self, graph: MultiGraph, vertex_position: dict, edge_polyline: dict):
        pos = dict(zip(vertex_position, map(as_point, vertex_position.values())))
        if set(pos) != set(graph.vertices):
            raise ValueError("vertex positions must cover exactly the graph's vertices")
        poly = {}
        for name in graph.edge_names:
            if name not in edge_polyline:
                raise ValueError(f"missing polyline for edge {name!r}")
            pts = tuple(map(as_point, edge_polyline[name]))
            if len(pts) < 2:
                raise ValueError(f"edge {name!r} needs at least two polyline points")
            poly[name] = pts
        unknown = set(edge_polyline) - set(poly)
        if unknown:
            raise ValueError(f"polylines for unknown edges: {sorted(unknown)}")
        self.graph = graph
        self.vertex_position = pos
        self.edge_polyline = poly

    @classmethod
    def _from_lattice(cls, graph, vertices, polylines, den):
        """The drawing with vertex i of graph at vertices[i] / den and edge
        j's polyline at polylines[j] / den: integer (x, y) numerators, in
        vertex and edge order, every polyline of at least two points."""
        imm = cls.__new__(cls)
        imm.graph = graph
        imm._points = _PointTable(
            _lattice_rows(list(chain(vertices, chain.from_iterable(polylines))), den),
            np.fromiter(map(len, polylines), np.intp, len(polylines)))
        return imm

    @cached_property
    def _points(self):
        polylines = [self.edge_polyline[name] for name in self.graph.edge_names]
        points = chain(map(self.vertex_position.__getitem__, self.graph.vertices),
                       chain.from_iterable(polylines))
        return _PointTable(_fraction_rows(list(chain.from_iterable(points))),
                           np.fromiter(map(len, polylines), np.intp, len(polylines)))

    @cached_property
    def vertex_position(self):
        return {v: _fraction_point(row) for v, row in self._row_lists[0].items()}

    @cached_property
    def edge_polyline(self):
        return {name: tuple(map(_fraction_point, rows))
                for name, rows in self._row_lists[1].items()}

    @cached_property
    def _row_lists(self):
        # (vertex -> its _points row, edge -> its polyline's rows), rows as
        # lists [x, y, d] of Python ints.
        rows = self._points.rows.tolist()
        k = len(self.graph.vertices)
        polylines = {}
        for name, n in zip(self.graph.edge_names, self._points.counts.tolist()):
            polylines[name] = rows[k:k + n]
            k += n
        return dict(zip(self.graph.vertices, rows)), polylines

    @cached_property
    def _scan(self):
        # (GenericityReport, the _Crossings of a generic drawing or None,
        # the _segment_table (segs, w) of the drawing's segments in edge
        # order).
        g = self.graph
        names = g.edge_names
        rows, counts = self._points.rows, self._points.counts
        verts, pts = rows[:len(g.vertices)], rows[len(g.vertices):]
        ends = counts.cumsum()
        # The indices of every edge's first point, then of every edge's last.
        tips = np.concatenate((ends - counts, ends - 1))
        # Segment s, number i of edge e, runs from point first[s] = s + e to
        # first[s] + 1, and place[s] is (e, i).
        edge = np.arange(len(names)).repeat(counts - 1)
        first = np.arange(len(edge)) + edge
        place = np.array((edge, first - tips[edge])).T
        segs, w = table = _segment_table(pts, first)
        # Equal points have equal rows, and so equal ends on the table.
        zeros = (segs[:, :2] == segs[:, 2:]).all(axis=1).nonzero()[0].tolist()
        ends_at, isolated = _edge_ends(g)

        violations = []
        taken = {}
        for v, row in zip(g.vertices, map(tuple, verts.tolist())):
            if row in taken:
                violations.append(("duplicate-vertex-position",
                                   f"{taken[row]} and {v} both at {_point_text(row)}"))
            else:
                taken[row] = v
        off = (pts[tips] != verts[ends_at]).any(axis=1)
        if zeros or off.any():
            zero_at = {}
            for e, i in place[zeros].tolist():
                zero_at.setdefault(e, []).append(i)
            off = off.tolist()
            for e, name in enumerate(names):
                t, h = g.endpoints[name]
                if off[e]:
                    violations.append(("endpoint-mismatch", f"edge {name} does not start at {t}"))
                if off[len(names) + e]:
                    violations.append(("endpoint-mismatch", f"edge {name} does not end at {h}"))
                violations.extend(("zero-length-segment", f"edge {name} segment {i}")
                                  for i in zero_at.get(e, ()))
        if violations:
            return GenericityReport(False, tuple(violations)), None, table

        # int64 rows share one scale, so their box test is exact; Python-int
        # rows are boxed on one int64 scale that contains them.
        pairs = kernels.candidate_pairs(_integer_boxes(segs, w) if segs.dtype == object
                                        else segs)
        crossing, contacts = _resolve_contacts(first, pairs, segs, w)
        found = _Crossings(place, *crossing, segs, w)

        # A touching pair is allowed only where both segments meet at one
        # node: an ordinary polyline joint (one breakpoint), or two terminal
        # slots at one vertex.  A polyline point's node is its vertex at an
        # edge's ends and its own index past the vertices otherwise; the
        # last entry, -1, is a contact's side strictly inside its segment.
        node = np.arange(len(g.vertices), len(g.vertices) + len(pts) + 1)
        node[tips], node[-1] = ends_at, -1
        _, _, overlap, slot_a, slot_b = contacts
        at = node[slot_a]
        bad = (overlap | (at < 0) | (at != node[slot_b])).nonzero()[0]
        if len(bad):
            labels = [f"{names[e]}[{i}]" for e, i in place.tolist()]
            for i, j, ov, a, b in zip(*(column[bad].tolist() for column in contacts)):
                if ov:
                    violations.append(
                        ("overlap", f"{labels[i]} and {labels[j]} overlap collinearly"))
                else:
                    point = _point_text(pts[a if a >= 0 else b].tolist())
                    violations.append(
                        ("breakpoint-contact", f"{labels[i]} touches {labels[j]} at {point}"))

        # With no other violation, two crossings a x b and c x d at one point
        # share a segment at one parameter: a and c cross there too, as they
        # cannot overlap.  A polyline point on a crossing's segment is a
        # breakpoint contact, so only an isolated vertex can sit on a
        # crossing.  Otherwise every crossing point is compared exactly,
        # which names each offender.
        if violations or isolated or found.share_a_point():
            node_keys = set(map(_row_key, rows.tolist()))
            violations.extend(found.point_violations(names, node_keys))
        if violations:
            return GenericityReport(False, tuple(violations)), None, table
        return GenericityReport(True, ()), found, table

    @cached_property
    def _crossing_keys(self):
        # The key a * n + b of each _Crossings row's edge pair, a <= b in
        # edge order (a == b for a self crossing; n edges).  Segments run in
        # edge order, so left < right keeps a <= b.
        found = self._scan[1]
        return found.place[found.left, 0] * len(self.graph.edges) + found.place[found.right, 0]

    @cached_property
    def _pair_counts(self):
        # The crossings of a generic drawing at every key, as one int64
        # vector of length n * n: the U that every crossing sum reads.
        n = len(self.graph.edges)
        return np.bincount(self._crossing_keys, minlength=n * n)

    @cached_property
    def _distance_sums(self):
        # Edge distance -> crossings between distinct edges that far apart.
        distances, masks = _distance_masks(self.graph)
        return dict(zip(distances, (masks @ self._pair_counts).tolist()))

    @property
    def _pair_crossings(self):
        # (a, b) in edge-index order (a == b for self) -> crossing count,
        # for the pairs that cross, in that order.
        names = self.graph.edge_names
        n = len(names)
        counts = self._pair_counts
        keys = counts.nonzero()[0]
        return {(names[p // n], names[p % n]): c
                for p, c in zip(keys.tolist(), counts[keys].tolist())}

    @cached_property
    def _record_order(self):
        # The _RecordOrder of a generic drawing, by id: by edge pair in index
        # order, then along the pair's first strand.  Segments run in edge
        # order, so a row's left segment is on the pair's first edge (the
        # earlier strand of a self crossing).  ValueError when not generic.
        _require_valid(self)
        found = self._scan[1]
        names = self.graph.edge_names
        n = len(names)
        # The key orders edge pairs in index order.
        key, seg = self._crossing_keys, found.place[found.left, 1]
        perm = np.lexsort((seg, key))
        key, seg = key[perm], seg[perm]
        new = np.diff(key, prepend=-1) != 0
        # Only rows on one segment of one pair need their parameters
        # compared; np.lexsort is stable, so they arrive in table order.
        starts = np.flatnonzero(new | (np.diff(seg, prepend=-1) != 0))
        ends = np.append(starts[1:], len(perm))
        if len(starts) < len(perm):
            perm = np.array(found.by_u(perm.tolist(), starts.tolist(), ends.tolist()),
                            dtype=np.intp)
        # Rank of each crossing among its pair's, which run together.
        first, group = np.flatnonzero(new), np.cumsum(new) - 1
        prefix = [f"{names[k // n]}:{names[k % n]}:" for k in key[first].tolist()]
        ranks = (np.arange(len(key)) - first[group]).tolist()
        ids = [prefix[g] + str(r) for g, r in zip(group.tolist(), ranks)]
        return _RecordOrder(perm, ids, key, found.sign[perm].astype(np.int8))

    @cached_property
    def _records(self):
        # The CrossingRecords of a generic drawing, in record order.
        found = self._scan[1]
        if found is None:
            return ()
        g = self.graph
        names = g.edge_names
        n = len(names)
        order = self._record_order
        perm = order.perm
        positions = found.positions()
        records = []
        for cid, k, row, sa, sb, sign in zip(
                order.ids, order.key.tolist(), perm.tolist(),
                found.place[found.left[perm], 1].tolist(),
                found.place[found.right[perm], 1].tolist(), order.sign.tolist()):
            a, b = names[k // n], names[k % n]
            point, ua, ub = positions[row]
            records.append(CrossingRecord(
                id=cid,
                point=point,
                edges=(a, b),
                seg_a=sa,
                param_a=ua,
                seg_b=sb,
                param_b=ub,
                geometric_sign=sign,
                distance_class=0 if a == b else g._edge_distances[a, b],
                is_self=a == b,
            ))
        return tuple(records)

    @cached_property
    def _cycle_table(self):
        # Cycle -> (crossing number, rotation number), for every cycle of the
        # graph of a generic drawing, in the order of enumerate_cycles.
        # ValueError when not generic.
        _require_valid(self)
        index = _cycle_index(self.graph)
        if not index.cycles:
            return {}
        n = len(self.graph.edges)
        # With x a cycle's row of the incidence table and U[a, b] the
        # crossings of edges a <= b (in edge order), the cycle crosses
        # itself x^T U x times.  Every product and partial sum is an integer
        # of at most the drawing's crossing count, far below 2**53, so
        # float64 holds each exactly and the products run on BLAS.
        upper = self._pair_counts.reshape(n, n).astype(np.float64)
        x = index.incidence
        crossing = np.einsum("ij,ij->i", x @ upper, x).astype(np.int64)

        # A cycle's rotation number adds up over its corners: the passes
        # from the last direction of one step to the first of the next, plus
        # the passes at the next step's inner joints.  Each segment's
        # direction is on its own positive scale, which keeps every sign
        # read here.
        segs = self._scan[2][0]
        dx, dy = (segs[:, 2:] - segs[:, :2]).T
        up = _upward(dx, dy)
        # Passes at the joint of segments k and k + 1, traversed forward,
        # summed by edge as differences of one prefix sum: the joints
        # between two edges fall in no edge's range.
        turn = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
        prefix = np.zeros(len(up), dtype=np.int64)
        np.cumsum(_passes_past_x(up[:-1], up[1:], turn), out=prefix[1:])
        counts = self._points.counts - 1
        last = np.cumsum(counts) - 1
        first = last - counts + 1
        forward = prefix[last] - prefix[first]
        # Backward, a joint turns from -d[k + 1] to -d[k].  Reversal turns
        # the reference direction +x into -x, so that is not the negation:
        # the two passes add up to up[k + 1] - up[k], as no turn of a valid
        # drawing is a straight reversal, and those differences telescope
        # along the edge.
        backward = np.subtract(up[last], up[first], dtype=np.int64) - forward
        # Step 2e + r is edge e traversed forward (r = 0) or backward (r = 1):
        # its inner passes, and its first segment and first direction.
        inner = np.stack((forward, backward), axis=1).ravel()
        entry = np.stack((first, last), axis=1).ravel()
        sx, sy = dx[entry], dy[entry]
        sx[1::2], sy[1::2] = -sx[1::2], -sy[1::2]
        step_up = _upward(sx, sy)
        # A corner leaves step a by its last direction, the reverse of the
        # first direction of step a ^ 1, and enters step b.
        ra, b = index.corner_steps
        corner = _passes_past_x(~step_up[ra], step_up[b],
                                sx[b] * sy[ra] - sy[b] * sx[ra]) + inner[b]
        rotation = np.add.reduceat(corner[index.corner_ids], index.corner_starts)
        return dict(zip(index.cycles, zip(crossing.tolist(), rotation.tolist())))


def _upward(dx, dy):
    # Whether each direction (dx, dy) points into the upper half-plane:
    # dy > 0, or dy == 0 and dx > 0.
    return (dy > 0) | ((dy == 0) & (dx > 0))


def _passes_past_x(up1, up2, turn):
    # Signed passes of a tangent past the +x direction as it turns by less
    # than pi from a direction d1 to d2, where up1 and up2 are _upward of d1
    # and d2 and turn is det[d1, d2]: +1 turning left from the lower into
    # the upper half-plane, -1 turning right from the upper into the lower
    # one.
    return np.subtract(~up1 & up2 & (turn > 0), up1 & ~up2 & (turn < 0), dtype=np.int64)


def _row_key(row):
    # (xn, xd, yn, yd), the reduced terms of the point (x / d, y / d) of a
    # row (x, y, d): the same equality as the Fraction pair, and much
    # cheaper to hash.
    x, y, d = row
    gx, gy = math.gcd(x, d), math.gcd(y, d)
    return (x // gx, d // gx, y // gy, d // gy)


def _point_text(row):
    # The point of a row (x, y, d) as str shows its pair of Fractions.
    x, xd, y, yd = _row_key(row)
    return f"({_ratio(x, xd)}, {_ratio(y, yd)})"


def _fraction_point(row):
    return (Fraction(row[0], row[2]), Fraction(row[1], row[2]))


@dataclass(frozen=True, eq=False)
class _PointTable:
    """The points of a drawing on integers.

    Attributes:
        rows: Array of shape (n, 3): row (x, y, d), d > 0, is the point
            (x / d, y / d).  The vertex positions come first, in vertex
            order, then every edge's polyline, in edge order.  The rows are
            int64 on one common denominator, the least, when every entry
            then fits INT_COORD_LIMIT; otherwise they hold Python ints, and
            each point lies over the lcm of its own coordinates'
            denominators.  Either way the rows are a function of the
            points' values: two points are equal exactly when their rows
            are.
        counts: intp number of points of each edge's polyline.
    """

    rows: np.ndarray
    counts: np.ndarray


def _fraction_rows(coords):
    # The _PointTable rows of the points whose Fraction coordinates coords
    # lists flat, x and y of each point in turn.
    limit = kernels.INT_COORD_LIMIT
    try:
        ratios = np.fromiter(chain.from_iterable(map(Fraction.as_integer_ratio, coords)),
                             np.int64, 2 * len(coords)).reshape(-1, 2)
    except OverflowError:
        ratios = None
    if ratios is not None:
        nums, dens = ratios[:, 0], ratios[:, 1]
        scale = 1
        for d in np.unique(dens).tolist():
            scale = math.lcm(scale, d)
            if scale > limit:
                break
        # Both factors are at most INT_COORD_LIMIT = 10^9: products < 2**63.
        if scale <= limit and nums.min(initial=0) >= -limit and nums.max(initial=0) <= limit:
            scaled = nums * (scale // dens)
            if np.abs(scaled).max(initial=0) <= limit:
                rows = np.empty((len(coords) // 2, 3), dtype=np.int64)
                rows[:, :2] = scaled.reshape(-1, 2)
                rows[:, 2] = scale
                return rows
    rows = []
    pairs = map(Fraction.as_integer_ratio, coords)
    for (xn, xd), (yn, yd) in zip(pairs, pairs):
        d = math.lcm(xd, yd)
        rows.append((xn * (d // xd), yn * (d // yd), d))
    return np.array(rows, dtype=object).reshape(-1, 3)


def _lattice_rows(points, den):
    # The _PointTable rows of the points (x / den, y / den), for integer
    # pairs (x, y) and den > 0: the same rows as _fraction_rows builds.
    flat = list(chain.from_iterable(points))
    g = math.gcd(den, *flat)
    if g > 1:
        den //= g
        flat = [c // g for c in flat]
    limit = kernels.INT_COORD_LIMIT
    if den <= limit and max(map(abs, flat), default=0) <= limit:
        rows = np.empty((len(points), 3), dtype=np.int64)
        rows[:, :2] = np.array(flat, dtype=np.int64).reshape(-1, 2)
        rows[:, 2] = den
        return rows
    rows = []
    for x, y in zip(flat[::2], flat[1::2]):
        h = math.gcd(x, y, den)
        rows.append((x // h, y // h, den // h))
    return np.array(rows, dtype=object).reshape(-1, 3)


def _segment_table(pts, first):
    # (segs, w): segment s runs from (x0, y0) / w[s] to (x1, y1) / w[s],
    # where (x0, y0, x1, y1) is row s of segs and w[s] > 0, the lcm of its
    # two points' denominators.  pts holds the _PointTable rows of the
    # polyline points, and segment s runs from point first[s] to
    # first[s] + 1.  int64 rows share one denominator, which is w.
    a, b = pts[first], pts[first + 1]
    if pts.dtype != object:
        return np.concatenate((a[:, :2], b[:, :2]), axis=1), a[:, 2]
    w = np.lcm(a[:, 2], b[:, 2])
    return np.concatenate((a[:, :2] * (w // a[:, 2])[:, None],
                           b[:, :2] * (w // b[:, 2])[:, None]), axis=1), w


def _integer_boxes(segs, w):
    # int64 boxes (xlo, ylo, xhi, yhi) of the segments of a Python-int
    # _segment_table (segs, w), all scaled by one power of two 2**k: floors
    # of the lower ends and ceilings of the upper ones, so each box contains
    # its exact segment scaled by 2**k.  A coordinate c over w is below
    # 2**(bits(c) - bits(w) + 1) in magnitude, so k puts every entry within
    # 2**60 < 2**62.
    top = max(map(lambda c, d: c.bit_length() - d.bit_length(),
                  np.abs(segs).max(axis=1).tolist(), w.tolist()), default=0) + 1
    k = 60 - top
    lo = np.minimum(segs[:, :2], segs[:, 2:])
    hi = np.maximum(segs[:, :2], segs[:, 2:])
    if k >= 0:
        lo, hi = lo * (1 << k), hi * (1 << k)
    else:
        w = w * (1 << -k)
    w = w[:, None]
    return np.concatenate((lo // w, -(-hi // w)), axis=1).astype(np.int64)


@per_graph
def _edge_ends(graph):
    # (vertex indices of every edge's tail, then of every edge's head,
    # whether some vertex has no edge).
    index = {v: i for i, v in enumerate(graph.vertices)}
    ends = [index[t] for _, t, _ in graph.edges] + [index[h] for _, _, h in graph.edges]
    return np.array(ends, dtype=np.intp), any(not graph.incident[v] for v in graph.vertices)


@dataclass(frozen=True, eq=False)
class _Crossings:
    """The proper crossings of a drawing, one row each in candidate order.

    Attributes:
        place: int64 (edge index, index in its polyline) of each segment.
        left, right: int64 segment indices of each row, left < right.
        sign: int64 sign of det[direction of left, direction of right].
        unum, wnum, den: Integer columns: a row crosses at u = unum/den
            along left and at w = wnum/den along right.
        segs, w: The _segment_table of the drawing: segment s runs from
            (x0, y0) / w[s] to (x1, y1) / w[s], (x0, y0, x1, y1) being row
            s of segs.
    """

    place: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    unum: np.ndarray
    wnum: np.ndarray
    den: np.ndarray
    segs: np.ndarray
    w: np.ndarray

    def positions(self):
        """(point, u, w) per row as Fractions."""
        out = []
        for un, wn, d, x0, y0, rx, ry, scale in self._integer_rows():
            den = d * scale
            out.append(((Fraction(x0 * d + un * rx, den), Fraction(y0 * d + un * ry, den)),
                        Fraction(un, d), Fraction(wn, d)))
        return out

    def _integer_rows(self):
        # (unum, wnum, den, x0, y0, rx, ry, w) per row as Python ints, (x0,
        # y0) and (rx, ry) being left's start and direction on left's w.
        # The point's numerators x0 * den + unum * rx pass int64.
        p = self.segs[self.left]
        return zip(self.unum.tolist(), self.wnum.tolist(), self.den.tolist(), p[:, 0].tolist(),
                   p[:, 1].tolist(), (p[:, 2] - p[:, 0]).tolist(), (p[:, 3] - p[:, 1]).tolist(),
                   self.w[self.left].tolist())

    def by_u(self, perm, starts, ends):
        """The list perm of rows with each run perm[start:end] sorted by the
        rows' parameters along left, compared exactly."""
        unums, dens = self.unum.tolist(), self.den.tolist()
        for start, end in zip(starts, ends):
            if end - start < 2:
                continue
            run = perm[start:end]
            # un / d over the run's common denominator, in Python ints: the
            # keys pass int64.
            common = math.lcm(*(dens[r] for r in run))
            perm[start:end] = sorted(run, key=lambda r: unums[r] * (common // dens[r]))
        return perm

    def point_keys(self):
        """The _row_key of each row's crossing point."""
        return [_row_key((x0 * d + un * rx, y0 * d + un * ry, d * scale))
                for un, _, d, x0, y0, rx, ry, scale in self._integer_rows()]

    def share_a_point(self):
        """Whether two rows meet one segment at one parameter, and so cross
        at one point."""
        if len(self.left) < 2:
            return False
        m = len(self.left)
        segs = np.concatenate((self.left, self.right))
        # Row k < m is parameter unum / den along left, row m + k wnum / den
        # along right.
        nums = np.concatenate((self.unum, self.wnum))
        # A parameter is at most 1 and its float quotient takes at most
        # three roundings (int64 to float and the division; Python ints
        # divide with one), so it is off by under 2**-51: equal parameters
        # on one segment fall in one run of sorted neighbours less than
        # 2**-48 apart.  Only such runs, almost never met, are compared
        # exactly.
        t = np.asarray(nums.reshape(2, m) / self.den, dtype=np.float64).ravel()
        order = np.lexsort((t, segs))
        segs, t = segs[order], t[order]
        near = ((segs[1:] == segs[:-1]) & (t[1:] - t[:-1] < 2.0**-48)).nonzero()[0]
        runs = []
        for k in near.tolist():
            if runs and runs[-1][-1] == k:
                runs[-1].append(k + 1)
            else:
                runs.append([k, k + 1])
        for run in runs:
            rows = order[run]
            reduced = set()
            for n, d in zip(nums[rows].tolist(), self.den[rows % m].tolist()):
                g = math.gcd(n, d)
                reduced.add((n // g, d // g))
            if len(reduced) < len(run):
                return True
        return False

    def point_violations(self, names, node_keys):
        """triple-point and crossing-at-breakpoint violations, in the order
        of each point's first row; names are the graph's edge names."""
        segments = [f"{names[e]}[{i}]" for e, i in self.place.tolist()]
        by_point = {}
        for row, key in enumerate(self.point_keys()):
            by_point.setdefault(key, []).append(row)
        out = []
        for key, rows in by_point.items():
            at = f"({_ratio(*key[:2])}, {_ratio(*key[2:])})"
            if len(rows) > 1:
                involved = ", ".join(
                    f"{segments[i]}x{segments[j]}"
                    for i, j in zip(self.left[rows].tolist(), self.right[rows].tolist()))
                out.append(("triple-point", f"at {at}: {involved}"))
            if key in node_keys:
                out.append(("crossing-at-breakpoint", f"crossing at node point {at}"))
        return out


@dataclass(frozen=True, eq=False)
class _RecordOrder:
    """The crossings of a generic drawing in record order, the order of
    their ids, read off its _Crossings table without building records.

    Attributes:
        perm: Row of the _Crossings table of each crossing.
        ids: Crossing id "<a>:<b>:<rank>" of each crossing.
        key: int64 key a * n + b of each crossing's edge pair, a <= b in
            edge order (a == b for a self crossing; n edges), ascending.
        sign: int8 geometric sign of each crossing.
    """

    perm: np.ndarray
    ids: list
    key: np.ndarray
    sign: np.ndarray

    @cached_property
    def row(self):
        # Crossing id -> its index in ids.
        return {cid: r for r, cid in enumerate(self.ids)}


def _ratio(num, den):
    # str of the Fraction num/den, from its reduced terms.
    return str(num) if den == 1 else f"{num}/{den}"


def _resolve_contacts(first, pairs, segs, w):
    """Decide every candidate pair exactly; returns (crossings, contacts).

    crossings holds the _Crossings columns (left, right, sign, unum, wnum,
    den) of the pairs that meet at a point interior to both segments.
    contacts holds the columns (left, right, overlap, slot_a, slot_b) of
    every other touching pair: overlap marks a collinear overlap; otherwise
    the pair meets at one point, and slot_a is the index of that polyline
    point when it is an end of left, else -1 (slot_b likewise for right).
    Both keep the order of pairs.  Segment s runs from polyline point
    first[s] to first[s] + 1, and (segs, w) is the _segment_table.  Every
    pair, collinear ones too, is decided on integers, and the contacts'
    slots are read off the integer parameters, building no Fraction.
    """
    left, right = pairs[:, 0], pairs[:, 1]
    ints = segs
    if segs.dtype == object:
        # Each pair on the lcm of its two segments' denominators: rows k and
        # k + len(pairs) of ints hold pair k.
        common = np.lcm(w[left], w[right])
        ints = np.concatenate((segs[left] * (common // w[left])[:, None],
                               segs[right] * (common // w[right])[:, None]))
        pairs = np.arange(2 * len(pairs)).reshape(2, -1).T
    # a and b index pair k's two rows of ints.
    a, b = pairs[:, 0], pairs[:, 1]
    codes, unums, wnums, dens, signs = kernels.classify_pairs(ints, pairs)
    # Collinear pairs, decided as geometry.segment_contact does: along a
    # non-constant axis, the spans overlap (code 2), touch at an end of each
    # (code 1, parameters 0 or 1) or miss (code 0).
    col = (codes == 2).nonzero()[0]
    if len(col):
        p, q = ints[a[col]], ints[b[col]]
        vertical = (p[:, 0] == p[:, 2])[:, None]
        pa = np.where(vertical, p[:, 1::2], p[:, 0::2])
        qa = np.where(vertical, q[:, 1::2], q[:, 0::2])
        lo = np.maximum(pa.min(axis=1), qa.min(axis=1))
        hi = np.minimum(pa.max(axis=1), qa.max(axis=1))
        codes[col] = np.where(lo < hi, 2, np.where(lo == hi, 1, 0))
        unums[col], wnums[col], dens[col] = pa[:, 0] != lo, qa[:, 0] != lo, 1
    inner = (codes == 1) & (unums > 0) & (unums < dens) & (wnums > 0) & (wnums < dens)
    t = ((codes != 0) & ~inner).nonzero()[0]
    i, j, un, wn, d = left[t], right[t], unums[t], wnums[t], dens[t]
    contacts = (i, j, codes[t] == 2,
                np.where(un == 0, first[i], np.where(un == d, first[i] + 1, -1)),
                np.where(wn == 0, first[j], np.where(wn == d, first[j] + 1, -1)))
    return (left[inner], right[inner], signs[inner], unums[inner], wnums[inner], dens[inner]
            ), contacts


def validate(imm: PlaneImmersion) -> GenericityReport:
    """Check genericity exactly; see the class docstring for the rules.

    Returns:
        GenericityReport with ok and the complete list of violations.
    """
    return imm._scan[0]


class _CrossingView(Sequence):
    """The CrossingRecords of a valid immersion, ordered by id, as a
    read-only sequence.  len() reads the crossing table; indexing,
    slicing and iteration read the records, built once per immersion.
    Compares, hashes and prints as the tuple of records."""

    __slots__ = ("_imm",)

    def __init__(self, imm):
        self._imm = imm

    def __len__(self):
        return len(self._imm._scan[1].left)

    def __getitem__(self, index):
        return self._imm._records[index]

    def __iter__(self):
        return iter(self._imm._records)

    def __eq__(self, other):
        if isinstance(other, _CrossingView):
            other = other._imm._records
        return self._imm._records == other

    def __hash__(self):
        return hash(self._imm._records)

    def __repr__(self):
        return repr(self._imm._records)


def crossings(imm: PlaneImmersion) -> Sequence:
    """All crossings of a valid immersion, ordered by id: a read-only
    sequence of CrossingRecords whose len() builds none.

    Raises:
        ValueError: If the immersion fails validation.
    """
    _require_valid(imm)
    return _CrossingView(imm)


def _require_valid(imm):
    report = imm._scan[0]
    if not report.ok:
        raise ValueError(f"immersion is not generic: {report.summary()}")


@dataclass(frozen=True)
class _CycleIndex:
    """The index arrays through which an immersion fills its cycle table.

    Attributes:
        cycles: The graph's cycles, in the order of enumerate_cycles.
        lengths: Cycle length of each, ascending.
        incidence: float64 cycle-by-edge table: entry (row, e) is 1 when
            edge e (in edge order) lies on the row's cycle, else 0.
        corner_steps: intp array of shape (2, m): column k holds a ^ 1
            and b for corner k, where a and b are oriented steps that follow
            each other on a cycle traversed in its canonical orientation.
            Step 2e is edge e traversed tail to head and step 2e + 1 head to
            tail, so a ^ 1 is step a reversed.
        corner_ids: Cycle by cycle, the index in corner_steps of each of
            its corners, one per step.
        corner_starts: Offset of each cycle's run in corner_ids.
    """

    cycles: tuple
    lengths: list
    incidence: np.ndarray
    corner_steps: np.ndarray
    corner_ids: np.ndarray
    corner_starts: np.ndarray


@per_graph
def _cycle_index(graph):
    index = graph.edge_index
    n = len(index)
    cycles = enumerate_cycles(graph)
    cells = []
    corners, corner_ids, corner_starts = {}, [], []
    for row, c in enumerate(cycles):
        steps = [2 * index[name] + (d < 0) for name, d in c.steps]
        cells.extend(row * n + step // 2 for step in steps)
        corner_starts.append(len(corner_ids))
        for corner in zip(steps[-1:] + steps[:-1], steps):
            corner_ids.append(corners.setdefault(corner, len(corners)))
    incidence = np.zeros(len(cycles) * n)
    incidence[cells] = 1
    steps = np.array(list(corners), dtype=np.intp).reshape(-1, 2).T ^ np.array([[1], [0]])
    return _CycleIndex(
        tuple(cycles), [len(c) for c in cycles], incidence.reshape(len(cycles), n), steps,
        np.array(corner_ids, dtype=np.intp), np.array(corner_starts, dtype=np.intp),
    )


def _cycle_error(imm, cycle):
    # Raise the error of a cycle with no entry in the cycle table of a
    # generic imm: a ValueError when the cycle is not one of its graph's.
    # Cycles are canonical, so only an invalid cycle misses its entry.
    try:
        cycle.validate(imm.graph)
    except ValueError as exc:
        raise ValueError(f"cycle does not belong to the graph: {exc}") from exc
    raise KeyError(cycle)


def cycle_crossing_number(imm: PlaneImmersion, cycle: Cycle) -> int:
    """Crossings of the restriction to a cycle.

    Counts every crossing whose both strands lie on the cycle's edges,
    including self crossings of those edges.
    """
    entry = imm._cycle_table.get(cycle)
    if entry is None:
        _cycle_error(imm, cycle)
    return entry[0]


def sum_crossing(imm: PlaneImmersion, k) -> int:
    """Sum of cycle crossing numbers over all k-cycles (all cycles for k
    None): each pair's crossings weighted by the k-cycles through the pair.

    Raises:
        ValueError: Invalid immersion, or k a bool or an integer below 1.
    """
    _require_valid(imm)
    weights = _weights(imm.graph, k)
    counts = imm._pair_counts
    # No weight passes the family's size, so int64 holds the sum unless
    # size * crossings passes it.
    if weights.size * len(imm._crossing_keys) < 2**63:
        return int(weights.counts @ counts)
    return sum(map(operator.mul, weights.counts.tolist(), counts.tolist()))


def kappa(imm: PlaneImmersion, k) -> int:
    """Total crossing count over all edge pairs at distance k."""
    _require_valid(imm)
    return imm._distance_sums.get(k, 0)


@per_graph
def _distance_masks(graph):
    # (distances, masks): the distinct edge distances of the graph's pairs
    # of distinct edges (infinite between components), and per distance an
    # int64 row, 1 at the key a * n + b of each edge-index pair a < b that
    # far apart (n edges) and 0 at every other key.
    n = len(graph.edges)
    keys = {}
    for (d, e), dist in graph._edge_distances.items():
        keys.setdefault(dist, []).append(_key(graph, d, e))
    masks = np.zeros((len(keys), n * n), dtype=np.int64)
    for row, at in enumerate(keys.values()):
        masks[row, at] = 1
    return list(keys), masks


def rotation_number(imm: PlaneImmersion, cycle: Cycle, orientation=1) -> int:
    """Turning number of the immersed cycle, traversed in cycle order.

    The closed polygon is the concatenation of the cycle's edge polylines;
    the result flips sign with the orientation argument (-1 reverses).
    Every turn of a valid drawing is shorter than pi, so the turning
    number is the signed count of turns past the +x direction (Whitney
    1937), decided exactly for coordinates of any size.

    Raises:
        ValueError: Invalid immersion or cycle.
    """
    entry = imm._cycle_table.get(cycle)
    if entry is None:
        _cycle_error(imm, cycle)
    rot = entry[1]
    if orientation == -1:
        return -rot
    if orientation != 1:
        raise ValueError("orientation must be +1 or -1")
    return rot


def rotation_sum(imm: PlaneImmersion, k) -> int:
    """Sum of rotation numbers over all k-cycles (all cycles for k None)
    in canonical orientation.

    Only the parity is independent of the orientation choices, since
    rot(f(cycle)) is odd exactly when the cycle's crossing count is even.

    Raises:
        ValueError: Invalid immersion, or k a bool or an integer below 1.
    """
    entries = imm._cycle_table.values()
    if k is not None:
        _checked_length(k)
        # Cycles are sorted by length, so the k-cycles are one slice.
        lengths = _cycle_index(imm.graph).lengths
        entries = islice(entries, bisect_left(lengths, k), bisect_right(lengths, k))
    return sum(rot for _, rot in entries)


def _randint(getrandbits, lo, hi):
    # rng.randint(lo, hi) for getrandbits = rng.getrandbits, lo <= hi: the
    # same value, and the same generator state after it, as
    # Random._randbelow draws it, without randint's argument checks.
    n = hi - lo + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


def random_immersion(graph: MultiGraph, seed, breakpoints=(3, 5), box=4,
                     max_attempts=60) -> PlaneImmersion:
    """Seeded random generic immersion.

    Vertices land on a rational grid in the square [-box, box]^2; each edge
    walks to its target through a few jittered breakpoints.  On a genericity
    failure the construction retries with a fresh grid and smaller jitter.
    Deterministic per (graph, seed, parameters).

    Attempt a draws on the grid 1/denom with denom = 64 + 13a.  Breakpoint i
    of an edge with nb breakpoints starts i/(nb + 1) of the way from tail
    to head and moves by a jitter on the grid 1/(2 denom (a + 1)).  Every
    point therefore lies on one lattice 1/lat, lat = denom * lcm(bmin + 1,
    ..., bmax + 1, 2 (a + 1)); the drawing is computed there in integers and
    handed to the immersion as they are.

    Args:
        graph: The graph to draw.
        seed: Random seed.
        breakpoints: Inclusive (min, max) interior breakpoints per edge.
        box: Half-width of the coordinate box.
        max_attempts: Retry budget.

    Returns:
        A validated PlaneImmersion.

    Raises:
        RuntimeError: Retry budget exhausted (practically unreachable).
    """
    bits = random.Random(seed).getrandbits
    bmin, bmax = breakpoints
    if bmin < 2:
        raise ValueError("need at least 2 breakpoints per edge for loops")
    box_num, box_den = box.as_integer_ratio()
    for attempt in range(max_attempts):
        denom = 64 + 13 * attempt
        span = box_num * denom // box_den
        lat = denom * math.lcm(*range(bmin + 1, bmax + 2), 2 * (attempt + 1))
        grid, jitter = lat // denom, lat // (2 * denom * (attempt + 1))

        lattice = {}
        used = set()
        for v in graph.vertices:
            p = (_randint(bits, -span, span), _randint(bits, -span, span))
            while p in used:
                p = (_randint(bits, -span, span), _randint(bits, -span, span))
            used.add(p)
            lattice[v] = (p[0] * grid, p[1] * grid)
        inner = {}
        for name, t, h in graph.edges:
            nb = _randint(bits, bmin, bmax)
            (tx, ty), (hx, hy) = lattice[t], lattice[h]
            pts = []
            for i in range(1, nb + 1):
                # grid is a multiple of nb + 1, so the divisions are exact.
                jx = _randint(bits, -span, span) * jitter
                jy = _randint(bits, -span, span) * jitter
                pts.append((tx + (hx - tx) * i // (nb + 1) + jx,
                            ty + (hy - ty) * i // (nb + 1) + jy))
            inner[name] = pts

        imm = PlaneImmersion._from_lattice(
            graph, [lattice[v] for v in graph.vertices],
            [(lattice[t], *inner[name], lattice[h]) for name, t, h in graph.edges], lat)
        if validate(imm).ok:
            return imm
    raise RuntimeError(
        f"no generic immersion found for seed {seed} in {max_attempts} attempts"
    )
