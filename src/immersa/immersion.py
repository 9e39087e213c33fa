"""Plane generic immersions: polyline drawings with exact crossing data.

An immersion maps vertices to rational points and edges to polylines.  The
validator enforces genericity exactly: all multiple points must be
transversal double points interior to two segments, away from breakpoints
and vertices, with no triple points, no collinear overlaps and no exact or
near 180-degree turns.  Crossing extraction scales the coordinates once by
a common denominator when that fits int64, runs a conservative float
sort-and-sweep prefilter (see kernels) and decides the surviving pairs
exactly, in scaled integer arithmetic when the scale fits and in rational
arithmetic otherwise, so counts are exact either way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .census import _weights
from .geometry import as_point, param_location, segment_contact, sub, cross
from .graphs import Cycle, MultiGraph, enumerate_cycles

# Float tolerance below which a corner counts as a reversal (an angle within
# this distance of pi), and two edge directions at a vertex as a cusp.
CORNER_EPS = 1e-9
# Residual tolerance for the turning-number sum.
ROTATION_RESIDUAL = 1e-6


def _fmt(point):
    return f"({point[0]}, {point[1]})"


def _to_float(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


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


@dataclass(frozen=True, eq=False)
class PlaneImmersion:
    """A polyline drawing of a multigraph in the plane.

    Attributes:
        graph: The underlying multigraph.
        vertex_position: Vertex name -> exact point.
        edge_polyline: Edge name -> point tuple from tail position to head
            position.  All coordinates are coerced to Fractions.

    Treated as immutable after construction; compared by identity.
    """

    graph: MultiGraph
    vertex_position: dict
    edge_polyline: dict

    def __post_init__(self):
        pos = {v: as_point(p) for v, p in self.vertex_position.items()}
        if set(pos) != set(self.graph.vertices):
            raise ValueError("vertex positions must cover exactly the graph's vertices")
        poly = {}
        for name in self.graph.edge_names:
            if name not in self.edge_polyline:
                raise ValueError(f"missing polyline for edge {name!r}")
            pts = tuple(as_point(p) for p in self.edge_polyline[name])
            if len(pts) < 2:
                raise ValueError(f"edge {name!r} needs at least two polyline points")
            poly[name] = pts
        unknown = set(self.edge_polyline) - set(poly)
        if unknown:
            raise ValueError(f"polylines for unknown edges: {sorted(unknown)}")
        object.__setattr__(self, "vertex_position", pos)
        object.__setattr__(self, "edge_polyline", poly)

    @cached_property
    def _scan(self):
        g = self.graph
        pos = self.vertex_position
        violations = []

        taken = {}
        for v in g.vertices:
            p = pos[v]
            if p in taken:
                violations.append(
                    ("duplicate-vertex-position", f"{taken[p]} and {v} both at {_fmt(p)}")
                )
            else:
                taken[p] = v

        segments = []
        node_keys = set()
        seg_count = {}
        for name in g.edge_names:
            pts = self.edge_polyline[name]
            t, h = g.endpoints[name]
            if pts[0] != pos[t]:
                violations.append(("endpoint-mismatch", f"edge {name} does not start at {t}"))
            if pts[-1] != pos[h]:
                violations.append(("endpoint-mismatch", f"edge {name} does not end at {h}"))
            seg_count[name] = len(pts) - 1
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    violations.append(("zero-length-segment", f"edge {name} segment {i}"))
                else:
                    segments.append((name, i, pts[i], pts[i + 1]))
            node_keys.update(_point_key(p) for p in pts)
        node_keys.update(_point_key(p) for p in pos.values())
        if violations:
            return GenericityReport(False, tuple(violations)), ()

        # Near-degenerate corners break the float turning sums downstream,
        # so they count as genericity violations even though exact overlap
        # checks would miss them.
        for name in g.edge_names:
            pts = self.edge_polyline[name]
            for i in range(1, len(pts) - 1):
                ang = _float_angle(sub(pts[i], pts[i - 1]), sub(pts[i + 1], pts[i]))
                if abs(abs(ang) - math.pi) < CORNER_EPS:
                    violations.append(
                        ("near-reversal-corner", f"edge {name} breakpoint {i}")
                    )
        for v in g.vertices:
            slots = []
            for name in dict.fromkeys(g.incident[v]):
                pts = self.edge_polyline[name]
                t, h = g.endpoints[name]
                if t == v:
                    slots.append((name, "tail", sub(pts[1], pts[0])))
                if h == v:
                    slots.append((name, "head", sub(pts[-2], pts[-1])))
            for s1 in range(len(slots)):
                for s2 in range(s1 + 1, len(slots)):
                    ang = _float_angle(slots[s1][2], slots[s2][2])
                    if abs(ang) < CORNER_EPS:
                        violations.append(
                            ("near-cusp-at-vertex",
                             f"{slots[s1][0]} and {slots[s2][0]} leave {v} in the same direction")
                        )

        scaled = _integer_scaled(segments)
        if scaled is None:
            arr = np.array(
                [[_to_float(p0[0]), _to_float(p0[1]), _to_float(p1[0]), _to_float(p1[1])]
                 for _, _, p0, p1 in segments],
                dtype=np.float64,
            ).reshape(len(segments), 4)
        else:
            # Bit-equal to _to_float: every entry and the scale are at most
            # INT_COORD_LIMIT < 2**53, so both convert exactly, and IEEE
            # division rounds correctly, as Fraction.__float__ does.
            ints, scale = scaled
            arr = ints.astype(np.float64) / scale
        m = float(np.max(np.abs(arr))) if len(segments) else 0.0
        box_margin, orient_eps = kernels.rounding_bounds(m)
        pairs = kernels.candidate_pairs(arr, box_margin, orient_eps)

        proper = []
        for i, j, kind, data, det_sign in _resolve_contacts(segments, pairs, scaled):
            name_a, ia, a0, a1 = segments[i]
            name_b, ib, b0, b1 = segments[j]
            if kind == "overlap":
                violations.append(
                    ("overlap", f"{name_a}[{ia}] and {name_b}[{ib}] overlap collinearly")
                )
                continue
            point, u, w = data
            lu, lw = param_location(u), param_location(w)
            if lu == "interior" and lw == "interior":
                if det_sign is None:
                    det = cross(sub(a1, a0), sub(b1, b0))
                    det_sign = 1 if det > 0 else -1
                proper.append((name_a, ia, u, name_b, ib, w, point, det_sign))
                continue
            if not self._allowed_contact(name_a, ia, lu, name_b, ib, lw, point, seg_count):
                violations.append(
                    ("breakpoint-contact",
                     f"{name_a}[{ia}] touches {name_b}[{ib}] at {_fmt(point)}")
                )

        # Point keys are numerator/denominator 4-tuples: same equality as
        # the Fraction pairs, much cheaper to hash.  Iteration order
        # follows the candidate scan, so reports stay deterministic.
        by_point = {}
        for rec in proper:
            by_point.setdefault(_point_key(rec[6]), []).append(rec)
        for key, recs in by_point.items():
            if len(recs) > 1:
                involved = ", ".join(f"{r[0]}[{r[1]}]x{r[3]}[{r[4]}]" for r in recs)
                violations.append(("triple-point", f"at {_fmt(recs[0][6])}: {involved}"))
            if key in node_keys:
                violations.append(
                    ("crossing-at-breakpoint", f"crossing at node point {_fmt(recs[0][6])}")
                )

        if violations:
            return GenericityReport(False, tuple(violations)), ()

        index = self.graph.edge_index
        grouped = {}
        for name_a, ia, u, name_b, ib, w, point, det_sign in proper:
            if index[name_a] <= index[name_b]:
                key, strands, sign = (name_a, name_b), ((ia, u), (ib, w)), det_sign
            else:
                # det[tb, ta] = -det[ta, tb].
                key, strands, sign = (name_b, name_a), ((ib, w), (ia, u)), -det_sign
            grouped.setdefault(key, []).append((strands, point, sign))
        records = []
        for (a, b), items in grouped.items():
            items.sort(key=lambda item: item[0][0])
            dclass = 0 if a == b else g._edge_distances[a, b]
            for rank, (strands, point, sign) in enumerate(items):
                (sa, ua), (sb, ub) = strands
                records.append(CrossingRecord(
                    id=f"{a}:{b}:{rank}",
                    point=point,
                    edges=(a, b),
                    seg_a=sa,
                    param_a=ua,
                    seg_b=sb,
                    param_b=ub,
                    geometric_sign=sign,
                    distance_class=dclass,
                    is_self=a == b,
                ))
        records.sort(key=lambda r: (index[r.edges[0]], index[r.edges[1]], r.seg_a, r.param_a))
        return GenericityReport(True, ()), tuple(records)

    def _allowed_contact(self, name_a, ia, lu, name_b, ib, lw, point, seg_count):
        g = self.graph
        pos = self.vertex_position
        if name_a == name_b:
            # Segments arrive in index order, so ia < ib here.
            if ib == ia + 1:
                return lu == "end" and lw == "start"
            if (
                g.is_loop(name_a)
                and ia == 0
                and ib == seg_count[name_a] - 1
                and seg_count[name_a] >= 3
            ):
                tail, _ = g.endpoints[name_a]
                return lu == "start" and lw == "end" and point == pos[tail]
            return False
        ta, ha = g.endpoints[name_a]
        tb, hb = g.endpoints[name_b]
        for v in {ta, ha} & {tb, hb}:
            if point != pos[v]:
                continue
            if self._is_terminal_slot(name_a, ia, lu, v, seg_count) and \
               self._is_terminal_slot(name_b, ib, lw, v, seg_count):
                return True
        return False

    def _is_terminal_slot(self, name, seg, loc, v, seg_count):
        tail, head = self.graph.endpoints[name]
        if v == tail and seg == 0 and loc == "start":
            return True
        return v == head and seg == seg_count[name] - 1 and loc == "end"

    @cached_property
    def _pair_crossings(self):
        # (a, b) in edge-index order (a == b for self) -> crossing count.
        counts = {}
        for rec in self._scan[1]:
            counts[rec.edges] = counts.get(rec.edges, 0) + 1
        return counts

    @cached_property
    def _turning(self):
        # (edge, direction) -> (first tangent, last tangent, interior
        # turning) as floats.  Reversal negates tangents and the turning;
        # genericity rules out the pi-angle joints where that would fail.
        table = {}
        for name, pts in self.edge_polyline.items():
            dirs = [(float(pts[i + 1][0] - pts[i][0]),
                     float(pts[i + 1][1] - pts[i][1]))
                    for i in range(len(pts) - 1)]
            interior = sum(_float_angle(dirs[i], dirs[i + 1])
                           for i in range(len(dirs) - 1))
            table[name, 1] = (dirs[0], dirs[-1], interior)
            table[name, -1] = ((-dirs[-1][0], -dirs[-1][1]),
                               (-dirs[0][0], -dirs[0][1]), -interior)
        return table

    @cached_property
    def _joint_angles(self):
        # Memo for the turning angle between consecutive oriented edges;
        # cycles through a vertex share these joints heavily.
        return {}


def _point_key(p):
    x, y = p
    return (x.numerator, x.denominator, y.numerator, y.denominator)


def _float_angle(v1, v2):
    x1, y1 = _to_float(v1[0]), _to_float(v1[1])
    x2, y2 = _to_float(v2[0]), _to_float(v2[1])
    return math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)


def _integer_scaled(segments):
    # (coordinates scaled to int64 by the common denominator, denominator),
    # or None when the scale would break the classify_pairs contract.
    scale = 1
    for _, _, p0, p1 in segments:
        for c in (p0[0], p0[1], p1[0], p1[1]):
            scale = math.lcm(scale, c.denominator)
            if scale > kernels.INT_COORD_LIMIT:
                return None
    rows = []
    for _, _, p0, p1 in segments:
        row = [c.numerator * (scale // c.denominator)
               for c in (p0[0], p0[1], p1[0], p1[1])]
        if max(map(abs, row)) > kernels.INT_COORD_LIMIT:
            return None
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4), scale


def _resolve_contacts(segments, pairs, scaled):
    """Decide every candidate pair, yielding (i, j, kind, data, det_sign).

    Runs the integer kernel on scaled, the _integer_scaled table of the
    segments, and keeps rational arithmetic for the contacts themselves
    (for all of them when scaled is None), so kind and data are exactly
    those of segment_contact on every pair.  det_sign is the sign of
    det[direction i, direction j] for interior-interior contacts when it
    falls out of the integer path for free, else None.
    """
    if scaled is None:
        for i, j in pairs:
            kind, data = segment_contact(segments[i][2], segments[i][3],
                                         segments[j][2], segments[j][3])
            if kind != "none":
                yield int(i), int(j), kind, data, None
        return
    ints, scale = scaled
    codes, unums, wnums, dens = kernels.classify_pairs(ints, pairs)
    for t in np.flatnonzero(codes):
        i, j = int(pairs[t, 0]), int(pairs[t, 1])
        a0, a1 = segments[i][2], segments[i][3]
        if codes[t] == 2:
            kind, data = segment_contact(a0, a1, segments[j][2], segments[j][3])
            if kind != "none":
                yield i, j, kind, data, None
            continue
        un, wn, d = int(unums[t]), int(wnums[t]), int(dens[t])
        u = Fraction(un, d)
        w = Fraction(wn, d)
        if 0 < un < d and 0 < wn < d:
            px0, py0, px1, py1 = (int(v) for v in ints[i])
            qx0, qy0, qx1, qy1 = (int(v) for v in ints[j])
            rx = px1 - px0
            ry = py1 - py0
            det = rx * (qy1 - qy0) - ry * (qx1 - qx0)
            point = (Fraction(px0 * d + un * rx, d * scale),
                     Fraction(py0 * d + un * ry, d * scale))
            yield i, j, "point", (point, u, w), (1 if det > 0 else -1)
            continue
        if un == 0:
            point = a0
        elif un == d:
            point = a1
        elif wn == 0:
            point = segments[j][2]
        else:
            point = segments[j][3]
        yield i, j, "point", (point, u, w), None


def validate(imm: PlaneImmersion) -> GenericityReport:
    """Check genericity exactly; see the class docstring for the rules.

    Returns:
        GenericityReport with ok and the complete list of violations.
    """
    return imm._scan[0]


def crossings(imm: PlaneImmersion):
    """All crossings of a valid immersion, ordered by id.

    Raises:
        ValueError: If the immersion fails validation.
    """
    report, records = imm._scan
    if not report.ok:
        raise ValueError(f"immersion is not generic: {report.summary()}")
    return records


def _require_valid(imm):
    report = imm._scan[0]
    if not report.ok:
        raise ValueError(f"immersion is not generic: {report.summary()}")


@lru_cache(maxsize=None)
def _cycle_edges(graph, cycle):
    """Edge names of a validated cycle, sorted by graph edge index.

    Cached because censuses revisit the same few cycles thousands of times.
    """
    cycle.validate(graph)
    return tuple(sorted(cycle.edge_name_set, key=graph.edge_index.get))


def cycle_crossing_number(imm: PlaneImmersion, cycle: Cycle) -> int:
    """Crossings of the restriction to a cycle.

    Counts every crossing whose both strands lie on the cycle's edges,
    including self crossings of those edges.
    """
    _require_valid(imm)
    try:
        names = _cycle_edges(imm.graph, cycle)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cycle does not belong to the graph: {exc}") from exc
    counts = imm._pair_crossings
    total = 0
    for i, a in enumerate(names):
        for b in names[i:]:
            total += counts.get((a, b), 0)
    return total


def sum_crossing(imm: PlaneImmersion, k) -> int:
    """Sum of cycle crossing numbers over all k-cycles (all cycles for k
    None): each pair's crossings weighted by the k-cycles through the pair.

    Raises:
        ValueError: Invalid immersion, or k a bool or an integer below 1.
    """
    _require_valid(imm)
    pairs = _weights(imm.graph, k).pairs
    return sum(pairs.get(p, 0) * n for p, n in imm._pair_crossings.items())


def kappa(imm: PlaneImmersion, k) -> int:
    """Total crossing count over all edge pairs at distance k."""
    return sum(1 for rec in crossings(imm)
               if not rec.is_self and rec.distance_class == k)


def rotation_number(imm: PlaneImmersion, cycle: Cycle, orientation=1) -> int:
    """Turning number of the immersed cycle, traversed in cycle order.

    The closed polygon is the concatenation of the cycle's edge polylines;
    the result flips sign with the orientation argument (-1 reverses).

    Raises:
        ValueError: Invalid immersion or cycle.
        ArithmeticError: Turning sum too far from an integer multiple of
            2*pi (cannot happen on validated immersions).
    """
    _require_valid(imm)
    try:
        cycle.validate(imm.graph)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cycle does not belong to the graph: {exc}") from exc
    steps = cycle.steps
    if orientation == -1:
        steps = tuple((n, -d) for n, d in reversed(steps))
    elif orientation != 1:
        raise ValueError("orientation must be +1 or -1")
    table = imm._turning
    joints = imm._joint_angles
    total = 0.0
    n = len(steps)
    for i in range(n):
        a = steps[i]
        b = steps[(i + 1) % n]
        total += table[a][2]
        key = (a, b)
        ang = joints.get(key)
        if ang is None:
            ang = _float_angle(table[a][1], table[b][0])
            joints[key] = ang
        total += ang
    turns = total / (2.0 * math.pi)
    rot = round(turns)
    if abs(turns - rot) >= ROTATION_RESIDUAL:
        raise ArithmeticError(f"turning sum {turns} is not close to an integer")
    return rot


def rotation_sum(imm: PlaneImmersion, k) -> int:
    """Sum of rotation numbers over all k-cycles in canonical orientation.

    Only the parity is independent of the orientation choices, since
    rot(f(cycle)) is odd exactly when the cycle's crossing count is even.
    """
    return sum(rotation_number(imm, c) for c in enumerate_cycles(imm.graph, k))


def random_immersion(graph: MultiGraph, seed, breakpoints=(3, 5), box=4,
                     max_attempts=60) -> PlaneImmersion:
    """Seeded random generic immersion.

    Vertices land on a rational grid in the square [-box, box]^2; each edge
    walks to its target through a few jittered breakpoints.  On a genericity
    failure the construction retries with a fresh grid and smaller jitter.
    Deterministic per (graph, seed, parameters).

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
    rng = random.Random(seed)
    bmin, bmax = breakpoints
    if bmin < 2:
        raise ValueError("need at least 2 breakpoints per edge for loops")
    half = Fraction(box)
    for attempt in range(max_attempts):
        denom = 64 + 13 * attempt
        span = int(half * denom)
        # Jitter shrinks by 1/(attempt + 1), folded into the denominator.
        jitter_den = 2 * denom * (attempt + 1)

        def coord():
            return Fraction(rng.randint(-span, span), denom)

        positions = {}
        used = set()
        for v in graph.vertices:
            p = (coord(), coord())
            while p in used:
                p = (coord(), coord())
            used.add(p)
            positions[v] = p
        polylines = {}
        for name, t, h in graph.edges:
            nb = rng.randint(bmin, bmax)
            pts = [positions[t]]
            for i in range(1, nb + 1):
                frac = Fraction(i, nb + 1)
                bx = positions[t][0] + frac * (positions[h][0] - positions[t][0])
                by = positions[t][1] + frac * (positions[h][1] - positions[t][1])
                jx = Fraction(rng.randint(-span, span), jitter_den)
                jy = Fraction(rng.randint(-span, span), jitter_den)
                pts.append((bx + jx, by + jy))
            pts.append(positions[h])
            polylines[name] = tuple(pts)
        imm = PlaneImmersion(graph, positions, polylines)
        if validate(imm).ok:
            return imm
    raise RuntimeError(
        f"no generic immersion found for seed {seed} in {max_attempts} attempts"
    )
