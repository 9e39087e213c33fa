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
zero-rotation constructor of sp) write their integer lattices flat, in
table order, and hand them straight to it.  The public constructor fills
the same table: from points given as tuples of two exact Fractions it reads
the coordinates' numerators and denominators, one list each, and packs
each list into int64 in one C-level pass (a term past int64 sends the
table to Python ints); any other input it coerces point by point as it
always has, with the same refusals.  vertex_position and edge_polyline are
Fraction views of the table, built on first read.  Crossing extraction
decides every drawing on the segment table read off the point table, each
segment over the lcm of its two points' denominators, and each candidate
pair is scaled to the lcm of its two segments' denominators.  An exact
sort-and-sweep prefilter (see kernels) runs its box test on integers: on
the int64 segment table itself, or on a Python-int table's boxes, rounded
outward onto one int64 scale by a power of two, so it keeps every touching
pair at any magnitude.
classify_pairs decides the surviving pairs exactly, with the same numpy
code on both dtypes.  A contact between two segments is allowed only at one
node, an ordinary polyline joint or terminal slots of two edge ends at one
vertex, and that rule is one numpy comparison.  An ordinary joint, segments
s and s + 1 of one edge, always meets at its breakpoint, and it breaks the
rule only by folding back: a zero turn between opposite directions is a
collinear overlap.  The scan forms every segment's direction and the turn
at every joint once, as one joint-direction table, and tests the dot
product only where the turn is zero.  With no fold-back the joints never
reach classify_pairs; with one, every candidate pair is decided as before,
so the fold-back's overlap keeps its place in the violations.  When no
pair is left, as in a drawing whose every candidate pair is a joint, the
batch costs nothing: classify_pairs is not called, and the crossing and
contact columns are empty, of the segment table's dtype.  The crossings
stay one table:
segment pair, sign and the parameter numerators and denominator per row.
Validation decides triple points (rows sorted by one float key, segment
plus half the parameter, with exact comparison only between neighbours
closer than the key's rounding error) and crossings at breakpoints on its
integers.  Edge pairs have one key space: the key a * n + b of edge indices
a <= b (n edges).  The crossings of each pair come off the table by one
bincount over its rows' keys, as one int64 vector U on all n * n keys;
sum_crossing is one dot product of U with the family's pair weights, and
kappa one product with per-graph distance masks.
The record order (ids, edge-pair keys and geometric signs of the crossings,
sorted by id) is read off the table by one np.lexsort, with exact
parameter comparisons only between crossings on one segment of one pair;
diagrams read it directly.  crossings() is a view: its len() reads the
table, and Fractions are built only for CrossingRecords, which are made in
record order once, when the view is first indexed or iterated.
Rotation numbers count signed passes of the tangent past a fixed direction
(Whitney 1937), with the same exact sign predicates on the segment table.

Per-cycle numbers come from one table per immersion: the graph's dict from
each cycle to its row, and the crossing number and rotation number of each
row, built once the drawing is known to be generic; rotation_number and
cycle_crossing_number each read it with one lookup.  The crossing numbers
are one quadratic form of U on a cycle-by-edge incidence table.  The
rotation numbers take a few whole-array passes over the scan's
joint-direction table: each segment's half-plane, the passes at every
polyline joint, from its turn, summed by edge through one prefix sum
(backward from the forward ones, as the two add up to the change of
half-plane), and the passes at every corner where one step of a cycle runs
into the next, gathered through per-graph arrays of the corners' oriented
steps.  The incidence and corner arrays are kept once per graph, and a
graph with no cycle, whose table is empty, builds none of them.
"""

from __future__ import annotations

import math
import operator
import random
import struct
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from . import kernels
from .census import _checked_length, _key, _weights
from .geometry import as_point
from .graphs import INFINITE_DISTANCE, Cycle, MultiGraph, enumerate_cycles, per_graph


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

    The drawing is one integer point table (_points), and the two dicts are
    Fraction views of it, built when first read.  The constructor checks
    its arguments and fills the table: the terms of points given as tuples
    of two exact Fractions are read straight into it, and any other input
    is coerced point by point with as_point, with the same refusals.
    A generator hands its integer lattice, flat in table order, to
    _from_lattice.

    Treated as immutable after construction; compared by identity.
    """

    def __init__(self, graph: MultiGraph, vertex_position: dict, edge_polyline: dict):
        points = _fraction_points(graph, vertex_position, edge_polyline)
        if points is None:
            points = _checked_points(graph, vertex_position, edge_polyline)
        xs, ys, counts = points
        self.graph = graph
        self._points = _PointTable(_fraction_rows(xs, ys), np.array(counts, dtype=np.intp))

    @classmethod
    def _from_lattice(cls, graph, flat, counts, den):
        """The drawing of the points (x / den, y / den) whose integer
        numerators flat lists, x and y of each point in turn, in table
        order: the vertices in vertex order, then every edge's polyline in
        edge order, counts[j] >= 2 points for edge j."""
        imm = cls.__new__(cls)
        imm.graph = graph
        imm._points = _PointTable(_lattice_rows(flat, den), np.array(counts, dtype=np.intp))
        return imm

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
        # order, their joint-direction table (dx, dy, turn)).
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
        index = first - tips[edge]
        place = np.array((edge, index)).T
        segs, w = table = _segment_table(pts, first)
        # The joint-direction table: segment s runs along (dx[s], dy[s]), on
        # its own positive scale, so every sign read off it is exact, and
        # turn[s] = det[d[s], d[s + 1]] is the turn at the joint of s and
        # s + 1 when both are on one edge.
        dx, dy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
        joints = dx, dy, dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
        # Equal points have equal rows, and so equal ends on the table.
        zeros = ((dx == 0) & (dy == 0)).nonzero()[0].tolist()
        ends_at, isolated = _edge_ends(g)

        violations = []
        taken = {}
        for v, row in zip(g.vertices, map(tuple, verts.tolist())):
            if row in taken:
                violations.append(("duplicate-vertex-position",
                                   f"{taken[row]} and {v} both at {_point_text(row)}"))
            else:
                taken[row] = v
        # Only two rows an edge: np.take gathers them faster than indexing.
        off = (pts.take(tips, 0) != verts.take(ends_at, 0)).any(axis=1)
        if zeros or off.any():
            zero_at = {}
            for e, i in zip(edge[zeros].tolist(), index[zeros].tolist()):
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
            return GenericityReport(False, tuple(violations)), None, table, joints

        # int64 rows share one scale, so their box test is exact; Python-int
        # rows are boxed on one int64 scale that contains them.
        pairs = kernels.candidate_pairs(_integer_boxes(segs, w) if segs.dtype == object
                                        else segs)
        crossing, contacts = _resolve_contacts(first, _exact_pairs(pairs, first, joints),
                                               segs, w)
        found = _Crossings(place, *crossing, segs, w)

        # A touching pair is allowed only where both segments meet at one
        # node: an ordinary polyline joint (one breakpoint), or two terminal
        # slots at one vertex.  A polyline point's node is its vertex at an
        # edge's ends and its own index past the vertices otherwise; the
        # last entry, -1, is a contact's side strictly inside its segment.
        _, _, overlap, slot_a, slot_b = contacts
        bad = ()
        if len(overlap):
            node = np.arange(len(g.vertices), len(g.vertices) + len(pts) + 1)
            node[tips], node[-1] = ends_at, -1
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
            return GenericityReport(False, tuple(violations)), None, table, joints
        return GenericityReport(True, ()), found, table, joints

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
        if not len(self._scan[1].left):
            return {}
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
        # (rows, crossing numbers, rotation numbers) of a generic drawing:
        # rows is its graph's dict from each cycle to its row, in the order
        # of enumerate_cycles, and the two lists hold each row's numbers.
        # ValueError when not generic.
        _require_valid(self)
        # An acyclic graph builds no index arrays.
        if not enumerate_cycles(self.graph):
            return {}, [], []
        index = _cycle_index(self.graph)
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
        # the passes at the next step's inner joints, all read off the
        # scan's joint-direction table.
        dx, dy, turn = self._scan[3]
        up = _upward(dx, dy)
        # Passes at the joint of segments k and k + 1, traversed forward,
        # summed by edge as differences of one prefix sum: the joints
        # between two edges fall in no edge's range.
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
        return index.rows, crossing.tolist(), rotation.tolist()


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


def _fraction_points(graph, vertex_position, edge_polyline):
    # (xs, ys, counts) as _checked_points returns them, when the two dicts
    # have exactly the graph's keys, every polyline is a tuple or list of
    # at least two points and every point is a tuple of two exact
    # Fractions; otherwise None.  It only reads its arguments, so any other
    # input goes on to _checked_points whole.
    if type(vertex_position) is not dict or type(edge_polyline) is not dict:
        return None
    # Graph vertices and edge names are distinct, so equal sizes and every
    # graph key present make equal key sets.
    if len(vertex_position) != len(graph.vertices) or len(edge_polyline) != len(graph.edges):
        return None
    try:
        points = list(map(vertex_position.__getitem__, graph.vertices))
        polylines = list(map(edge_polyline.__getitem__, graph.edge_names))
    except KeyError:
        return None
    if not set(map(type, polylines)) <= {tuple, list}:
        return None
    counts = list(map(len, polylines))
    if min(counts, default=2) < 2:
        return None
    for line in polylines:
        points += line
    n = len(points)
    if list(map(type, points)).count(tuple) != n:
        return None
    try:
        # Unpacking refuses a tuple of any other length.
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
    except ValueError:
        return None
    if list(map(type, xs)).count(Fraction) != n or list(map(type, ys)).count(Fraction) != n:
        return None
    return xs, ys, counts


def _checked_points(graph, vertex_position, edge_polyline):
    # (xs, ys, counts): the Fraction x and the Fraction y coordinates of
    # every point, the vertex positions in vertex order and then every
    # polyline in edge order, and each polyline's number of points.
    # Coerces each point with as_point and raises on the first fault, in
    # this order: a bad vertex point, the vertex keys, then edge by edge a
    # missing polyline, a bad point or a polyline of one point, and last
    # any unknown edge.
    pos = dict(zip(vertex_position, map(as_point, vertex_position.values())))
    if set(pos) != set(graph.vertices):
        raise ValueError("vertex positions must cover exactly the graph's vertices")
    polylines = []
    for name in graph.edge_names:
        if name not in edge_polyline:
            raise ValueError(f"missing polyline for edge {name!r}")
        pts = tuple(map(as_point, edge_polyline[name]))
        if len(pts) < 2:
            raise ValueError(f"edge {name!r} needs at least two polyline points")
        polylines.append(pts)
    unknown = set(edge_polyline) - set(graph.edge_names)
    if unknown:
        raise ValueError(f"polylines for unknown edges: {sorted(unknown)}")
    points = list(chain(map(pos.__getitem__, graph.vertices), chain.from_iterable(polylines)))
    return [x for x, _ in points], [y for _, y in points], list(map(len, polylines))


def _int64s(values):
    # values, a list of ints, as a read-only int64 array, packed in one
    # C-level pass; struct.error when one is past int64.
    return np.frombuffer(struct.pack(f"{len(values)}q", *values), np.int64)


def _int64_rows(x, y, den):
    # The int64 _PointTable rows of the points (x[i] / den, y[i] / den),
    # written column by column: a strided copy into two columns at once
    # costs about three times as much.
    rows = np.empty((len(x), 3), dtype=np.int64)
    rows[:, 0] = x
    rows[:, 1] = y
    rows[:, 2] = den
    return rows


def _fraction_rows(xs, ys):
    # The _PointTable rows of the points (xs[i], ys[i]), each coordinate an
    # exact Fraction.  The numerators of both columns, x's then y's, are
    # read by one comprehension and packed once, and so are the
    # denominators; a term past int64 sends the table to the Python-int
    # rows.
    limit = kernels.INT_COORD_LIMIT
    n = len(xs)
    coords = xs + ys
    nums = [c._numerator for c in coords]
    dens = [c._denominator for c in coords]
    try:
        num, den = _int64s(nums), _int64s(dens)
    except struct.error:
        num = None
    if num is not None:
        # The least common denominator: the largest one when it is a
        # multiple of all the others.
        scale = int(den.max(initial=1))
        factors, rest = np.divmod(scale, den)
        if scale <= limit and rest.any():
            scale = 1
            for d in np.unique(den).tolist():
                scale = math.lcm(scale, d)
                if scale > limit:
                    break
            else:
                # Only a scale within the limit is used.
                factors = scale // den
        # Both factors are at most INT_COORD_LIMIT = 10^9: products < 2**63.
        if scale <= limit and num.min(initial=0) >= -limit and num.max(initial=0) <= limit:
            scaled = num * factors
            if np.abs(scaled).max(initial=0) <= limit:
                return _int64_rows(scaled[:n], scaled[n:], scale)
    rows = []
    # One point per step: x's terms, then y's.
    for xn, xd, yn, yd in zip(nums[:n], dens[:n], nums[n:], dens[n:]):
        d = math.lcm(xd, yd)
        rows.append((xn * (d // xd), yn * (d // yd), d))
    return np.array(rows, dtype=object).reshape(-1, 3)


def _lattice_rows(flat, den):
    # The _PointTable rows of the points (x / den, y / den), for den > 0
    # and the integers of flat, x and y of each point in turn: the same
    # rows as _fraction_rows builds.  The int64 rows are packed as
    # _fraction_rows packs its terms.
    g = math.gcd(den, *flat)
    if g > 1:
        den //= g
        flat = [c // g for c in flat]
    limit = kernels.INT_COORD_LIMIT
    if den <= limit and max(map(abs, flat), default=0) <= limit:
        packed = _int64s(flat)
        return _int64_rows(packed[0::2], packed[1::2], den)
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
    if pts.dtype != object:
        # Gathered column by column, so each of the four is contiguous.
        x, y, d = pts.T
        nxt = first + 1
        return np.array((x[first], y[first], x[nxt], y[nxt])).T, d[first]
    a, b = pts[first], pts[first + 1]
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
        # One gather per column: fancy indexing the 2-d table is slower.
        x0, y0, x1, y1 = self.segs.T
        left = self.left
        px, py = x0[left], y0[left]
        return zip(self.unum.tolist(), self.wnum.tolist(), self.den.tolist(), px.tolist(),
                   py.tolist(), (x1[left] - px).tolist(), (y1[left] - py).tolist(),
                   self.w[left].tolist())

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
        # A parameter t is at most 1 and its float quotient takes at most
        # three roundings (int64 to float and the division; Python ints
        # divide with one), so it is off by under 2**-51.  One float key,
        # segment s plus t / 2, sorts the rows by segment and then by t;
        # with every index below 2**bits, the key's own rounding adds under
        # 2**(bits - 54).  Two rows with one exact parameter on one segment
        # so have keys under 2**-51 + 2**(bits - 53) apart, and so has
        # every pair of sorted neighbours between them, whatever order the
        # key's rounding gave those: they fall in one run of neighbours
        # closer than the band, eight times that.  Only such runs, almost
        # never met, are compared exactly.
        t = np.asarray(nums.reshape(2, m) / self.den, dtype=np.float64).ravel()
        key = segs + t / 2
        order = key.argsort()
        key = key[order]
        # The last key's whole part is the largest segment index.
        band = 2.0**-48 + 2.0**(int(key[-1]).bit_length() - 50)
        near = (np.diff(key) < band).nonzero()[0]
        runs = []
        for k in near.tolist():
            if runs and runs[-1][-1] == k:
                runs[-1].append(k + 1)
            else:
                runs.append([k, k + 1])
        for run in runs:
            rows = order[run]
            reduced = set()
            for s, n, d in zip(segs[rows].tolist(), nums[rows].tolist(),
                               self.den[rows % m].tolist()):
                g = math.gcd(n, d)
                reduced.add((s, n // g, d // g))
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


def _exact_pairs(pairs, first, joints):
    """The candidate pairs that _resolve_contacts must decide.

    An ordinary polyline joint, segments s and s + 1 of one edge, so that
    first[s + 1] - first[s] == 1, meets only at its breakpoint, which the
    node rule of the scan allows, unless it folds back: a zero turn between
    opposite directions is a collinear overlap.  With no fold-back the
    joints are left out, which keeps the order of the other pairs and of
    the violations they give.  With one, every pair is decided, and the
    fold-back's overlap keeps its place in pair order.  joints is the
    scan's joint-direction table (dx, dy, turn); the dot product is formed
    only at zero turns.
    """
    dx, dy, turn = joints
    flat = (turn == 0).nonzero()[0]
    if len(flat) and ((first[flat + 1] - first[flat] == 1)
                      & (dx[flat] * dx[flat + 1] + dy[flat] * dy[flat + 1] < 0)).any():
        return pairs
    i, j = pairs.T
    keep = (first[j] - first[i] != 1).nonzero()[0]
    # One gather along the columns, which candidate_pairs lays out
    # contiguously, keeps that layout.
    return pairs.T.take(keep, 1).T


def _resolve_contacts(first, pairs, segs, w):
    """Decide the pairs exactly; returns (crossings, contacts).

    crossings holds the _Crossings columns (left, right, sign, unum, wnum,
    den) of the pairs that meet at a point interior to both segments.
    contacts holds the columns (left, right, overlap, slot_a, slot_b) of
    every other touching pair: overlap marks a collinear overlap; otherwise
    the pair meets at one point, and slot_a is the index of that polyline
    point when it is an end of left, else -1 (slot_b likewise for right).
    Both keep the order of pairs.  Segment s runs from polyline point
    first[s] to first[s] + 1, and (segs, w) is the _segment_table.  pairs
    are the candidate pairs of _exact_pairs: with no fold-back, no ordinary
    joint, whose contact at its breakpoint the node rule allows anyway.
    Every pair, collinear ones too, is decided on integers, and the
    contacts' slots are read off the integer parameters, building no
    Fraction.  An empty batch, as when every candidate pair is an
    ordinary joint, gives empty columns, the integer ones of segs' dtype,
    without calling classify_pairs.
    """
    left, right = pairs[:, 0], pairs[:, 1]
    if not len(pairs):
        nums = np.empty(0, dtype=segs.dtype)
        return ((left, right, left, nums, nums, nums),
                (left, right, np.zeros(0, dtype=bool), left, left))
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
        # One gather per column: fancy indexing the 2-d table is slower.
        x0, y0, x1, y1 = ints.T
        p, q = a[col], b[col]
        vertical = x0[p] == x1[p]
        p0, p1 = np.where(vertical, y0[p], x0[p]), np.where(vertical, y1[p], x1[p])
        q0, q1 = np.where(vertical, y0[q], x0[q]), np.where(vertical, y1[q], x1[q])
        lo = np.maximum(np.minimum(p0, p1), np.minimum(q0, q1))
        hi = np.minimum(np.maximum(p0, p1), np.maximum(q0, q1))
        codes[col] = np.where(lo < hi, 2, np.where(lo == hi, 1, 0))
        unums[col], wnums[col], dens[col] = p0 != lo, q0 != lo, 1
    inner = (codes == 1) & (unums > 0) & (unums < dens) & (wnums > 0) & (wnums < dens)
    t = ((codes != 0) & ~inner).nonzero()[0]
    i, j, un, wn, d = left[t], right[t], unums[t], wnums[t], dens[t]
    contacts = (i, j, codes[t] == 2,
                np.where(un == 0, first[i], np.where(un == d, first[i] + 1, -1)),
                np.where(wn == 0, first[j], np.where(wn == d, first[j] + 1, -1)))
    k = inner.nonzero()[0]
    return (left[k], right[k], signs[k], unums[k], wnums[k], dens[k]), contacts


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
        rows: Each of the graph's cycles -> its row, in the order of
            enumerate_cycles.
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

    rows: dict
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
        {c: row for row, c in enumerate(cycles)}, [len(c) for c in cycles],
        incidence.reshape(len(cycles), n), steps,
        np.array(corner_ids, dtype=np.intp), np.array(corner_starts, dtype=np.intp),
    )


def _cycle_error(imm, cycle):
    # Raise the error of a cycle with no row in the cycle table of a
    # generic imm: a ValueError when the cycle is not one of its graph's.
    # Cycles are canonical, so only an invalid cycle misses its row.
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
    rows, crossing, _ = imm._cycle_table
    row = rows.get(cycle)
    if row is None:
        _cycle_error(imm, cycle)
    return crossing[row]


def sum_crossing(imm: PlaneImmersion, k) -> int:
    """Sum of cycle crossing numbers over all k-cycles (all cycles for k
    None): each pair's crossings weighted by the k-cycles through the pair.

    Raises:
        ValueError: Invalid immersion, or k neither None nor an integer of
            at least 1 (bools, floats and strings are refused).
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
    """Total crossing count over all edge pairs at distance k.

    Raises:
        ValueError: Invalid immersion, or k neither INFINITE_DISTANCE (edges
            in different components) nor an integer of at least 0 (bools,
            other floats and strings are refused).
    """
    _require_valid(imm)
    return imm._distance_sums.get(_checked_distance(k), 0)


def _checked_distance(k):
    # k as a plain int, or INFINITE_DISTANCE.  A distance is anything
    # operator.index takes, numpy integers too, but a bool.
    if isinstance(k, float) and k == INFINITE_DISTANCE:
        return INFINITE_DISTANCE
    try:
        distance = operator.index(k)
    except TypeError:
        distance = -1
    if distance < 0 or isinstance(k, bool):
        raise ValueError(
            f"edge distance must be an integer of at least 0 or INFINITE_DISTANCE, got {k!r}")
    return distance


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
    rows, _, rotation = imm._cycle_table
    row = rows.get(cycle)
    if row is None:
        _cycle_error(imm, cycle)
    rot = rotation[row]
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
        ValueError: Invalid immersion, or k neither None nor an integer of
            at least 1 (bools, floats and strings are refused).
    """
    rotation = imm._cycle_table[2]
    if k is not None:
        k = _checked_length(k)
        if rotation:
            # Cycles are sorted by length, so the k-cycles are one slice.
            lengths = _cycle_index(imm.graph).lengths
            rotation = rotation[bisect_left(lengths, k):bisect_right(lengths, k)]
    return sum(rotation)


def _randint(getrandbits, lo, hi):
    # rng.randint(lo, hi) for getrandbits = rng.getrandbits, lo <= hi: the
    # same value, and the same generator state after it, as
    # Random._randbelow draws it, without randint's argument checks.
    # random_immersion runs the same loop inline, one draw per value.
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
    ..., bmax + 1, 2 (a + 1)); the drawing is computed there in integers,
    written flat in point-table order and handed to the immersion as it
    is.  Every value is drawn as random.Random(seed).randint would draw it,
    with the same generator state after it, by rejection on getrandbits
    inline.  An attempt whose grid (2 span + 1)^2, span = floor(box *
    denom), has fewer points than the graph has vertices cannot place them
    apart, so it fails without drawing.

    Args:
        graph: The graph to draw.
        seed: Random seed.
        breakpoints: Inclusive (min, max) interior breakpoints per edge.
        box: Half-width of the coordinate box, an int, float or Fraction.
        max_attempts: Retry budget.

    Returns:
        A validated PlaneImmersion.

    Raises:
        ValueError: Fewer than 2 breakpoints allowed per edge, a maximum
            number of breakpoints below the minimum, or a box that is not
            positive.
        RuntimeError: Retry budget exhausted (practically unreachable for
            a box whose grid holds the vertices).
    """
    bits = random.Random(seed).getrandbits
    bmin, bmax = breakpoints
    if bmin < 2:
        raise ValueError("need at least 2 breakpoints per edge for loops")
    if bmax < bmin:
        raise ValueError(f"breakpoints maximum {bmax} is below the minimum {bmin}")
    if box <= 0:
        raise ValueError(f"box must be positive, got {box!r}")
    box_num, box_den = box.as_integer_ratio()
    # Breakpoint counts are bmin + r for a draw r < choices.
    choices = bmax - bmin + 1
    kb = choices.bit_length()
    vertices, edges = graph.vertices, graph.edges
    for attempt in range(max_attempts):
        denom = 64 + 13 * attempt
        span = box_num * denom // box_den
        # Grid offsets and jitters are r - span for a draw r < width.
        width = 2 * span + 1
        if width * width < len(vertices):
            continue
        k = width.bit_length()
        lat = denom * math.lcm(*range(bmin + 1, bmax + 2), 2 * (attempt + 1))
        grid, jitter = lat // denom, lat // (2 * denom * (attempt + 1))

        flat = []
        at = {}
        used = set()
        for v in vertices:
            while True:
                x = bits(k)
                while x >= width:
                    x = bits(k)
                y = bits(k)
                while y >= width:
                    y = bits(k)
                if (x, y) not in used:
                    break
            used.add((x, y))
            p = at[v] = ((x - span) * grid, (y - span) * grid)
            flat += p
        counts = []
        for _, t, h in edges:
            nb = bits(kb)
            while nb >= choices:
                nb = bits(kb)
            nb += bmin
            tail, head = at[t], at[h]
            tx, ty = tail
            dx, dy = head[0] - tx, head[1] - ty
            flat += tail
            for i in range(1, nb + 1):
                x = bits(k)
                while x >= width:
                    x = bits(k)
                y = bits(k)
                while y >= width:
                    y = bits(k)
                # grid is a multiple of nb + 1, so the divisions are exact.
                flat += (tx + dx * i // (nb + 1) + (x - span) * jitter,
                         ty + dy * i // (nb + 1) + (y - span) * jitter)
            flat += head
            counts.append(nb + 2)

        imm = PlaneImmersion._from_lattice(graph, flat, counts, lat)
        if validate(imm).ok:
            return imm
    raise RuntimeError(
        f"no generic immersion found for seed {seed} in {max_attempts} attempts"
    )
