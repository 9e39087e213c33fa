"""Text formats for graphs, immersions, and diagrams.

Graph files hold one item per line: ``v <name>`` then ``e <name> <tail>
<head>``, with ``#`` starting a comment.  A line ``@PG``, ``@HG``,
``@K 4``, ``@K 3 3``, ``@T 2`` or ``@theta 5`` names a canonical graph
instead.  Immersion files start with ``graph @<shorthand>`` or ``graph
inline`` (followed by the v/e lines), then ``pos <vertex> <x> <y>`` lines
and ``edge <name>: <x1> <y1> ; <x2> <y2> ; ...`` polylines.  Diagram files
add one ``over <crossing-id> <edge-name|first|second>`` line per crossing.

Coordinates are exact: a denominator of the form 2^a 5^b serializes as a
terminating decimal, anything else falls back to ``p/q``, and both forms
parse back to the identical rational; exponents and ``_`` separators are
rejected.  Serialization is deterministic, so
serialize(parse(text)) is a fixpoint.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction

from .diagrams import Diagram
from .graphs import MultiGraph, _check_name as _check_graph_name, build_named
from .immersion import PlaneImmersion, validate


class ParseError(ValueError):
    """A malformed or semantically invalid input file.

    Attributes:
        line: 1-based line number when the error is tied to one.
    """

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


# Decimal digits per int <-> str conversion: below 640, the least limit
# that sys.set_int_max_str_digits accepts, so numbers of any length convert
# whatever the process-wide limit is.
_CHUNK = 600
_CHUNK_BASE = 10**_CHUNK
# Bits of the pieces _digits hands to Decimal: at most _CHUNK digits.
_CHUNK_BITS = 1992


def _digits(n):
    """str(n) for an integer of any size.

    The binary halves of n convert recursively and are joined in decimal
    arithmetic, whose multiplication is subquadratic.  Splitting by powers
    of ten instead would cost quadratic time: Python 3.11 divides integers
    digit by digit.
    """
    if -_CHUNK_BASE < n < _CHUNK_BASE:
        return str(n)
    powers = {}

    def power(bits):
        # 2**bits as a Decimal.
        if bits not in powers:
            half = bits // 2
            powers[bits] = (Decimal(2) ** bits if bits <= _CHUNK_BITS
                            else power(half) * power(bits - half))
        return powers[bits]

    def convert(m, bits):
        # m < 2**bits as a Decimal.
        if bits <= _CHUNK_BITS:
            return Decimal(m)
        low = bits // 2
        high = m >> low
        return convert(high, bits - low) * power(low) + convert(m - (high << low), low)

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
    with localcontext(exact):
        text = str(convert(abs(n), abs(n).bit_length()))
    return ("-" if n < 0 else "") + text


def _integer(text):
    """int(text) for a signed decimal integer of any length.

    A longer text splits into a tail of _CHUNK * 2^k digits, the longest
    such tail shorter than the text, and a head.  Both convert recursively
    and join with one multiplication by 10^(_CHUNK * 2^k), which Python
    does in subquadratic time.
    """
    if len(text) <= _CHUNK:
        return int(text)
    digits = text[1:] if text[0] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    powers = [_CHUNK_BASE]  # 10**(_CHUNK << k)

    def convert(part):
        if len(part) <= _CHUNK:
            return int(part)
        k = ((len(part) - 1) // _CHUNK).bit_length() - 1
        while len(powers) <= k:
            powers.append(powers[-1] * powers[-1])
        tail = _CHUNK << k
        return convert(part[:-tail]) * powers[k] + convert(part[-tail:])

    value = convert(digits)
    return -value if text[0] == "-" else value


def format_number(value) -> str:
    """Exact text for a rational: terminating decimal when the denominator
    is 2^a 5^b, else ``p/q``."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{_digits(num)}/{_digits(den)}"
    shift = max(twos, fives)
    if shift == 0:
        return _digits(num)
    scaled = num * 10**shift // den
    digits = _digits(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def parse_number(token, line=None) -> Fraction:
    """Parse a decimal or ``p/q`` coordinate token exactly.

    Exponents and ``_`` digit separators are not part of the grammar and
    are rejected: expanding an exponent takes time that grows with its
    value, so a short token such as ``1e999999999`` would never return.
    Digits must be ASCII: ``format_number`` writes no other kind, although
    Python's ``int`` also reads, say, Arabic-Indic or full-width digits.
    Tokens of any length parse.
    """
    if not token.isascii():
        raise ParseError(f"bad number {token!r}: digits must be ASCII", line)
    if any(ch in token for ch in "eE_"):
        raise ParseError(f"bad number {token!r}: no exponents or '_' separators", line)
    try:
        if "/" in token:
            p, q = token.split("/")
            return Fraction(_integer(p), _integer(q))
        if len(token) <= _CHUNK:
            return Fraction(token)
        whole, _, frac = token.partition(".")
        return Fraction(_integer(whole + frac), 10 ** len(frac))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {token!r}: {exc}", line) from None


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _check_name(name, what, lineno):
    try:
        _check_graph_name(name, what)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _expand_shorthand(line, lineno=None) -> MultiGraph:
    parts = line[1:].split()
    if not parts:
        raise ParseError("empty graph shorthand", lineno)
    try:
        params = [int(x) for x in parts[1:]]
    except ValueError:
        raise ParseError(f"bad shorthand parameters in {line!r}", lineno) from None
    try:
        return build_named(parts[0], *params)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad graph shorthand {line!r}: {exc}", lineno) from None


class _GraphAccumulator:
    def __init__(self):
        self.vertices = []
        self.edges = []
        self._vset = set()
        self._eset = set()

    def add(self, tokens, lineno):
        if tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError("v line needs exactly one name", lineno)
            _check_name(tokens[1], "vertex", lineno)
            if tokens[1] in self._vset:
                raise ParseError(f"duplicate vertex {tokens[1]!r}", lineno)
            self._vset.add(tokens[1])
            self.vertices.append(tokens[1])
        else:
            if len(tokens) != 4:
                raise ParseError("e line needs a name, a tail and a head", lineno)
            name, tail, head = tokens[1:]
            _check_name(name, "edge", lineno)
            if name in self._eset:
                raise ParseError(f"duplicate edge {name!r}", lineno)
            for v in (tail, head):
                if v not in self._vset:
                    raise ParseError(f"unknown vertex {v!r}", lineno)
            self._eset.add(name)
            self.edges.append((name, tail, head))

    def build(self):
        return MultiGraph(tuple(self.vertices), tuple(self.edges))


def parse_graph(text) -> MultiGraph:
    """Parse the graph text format or a ``@`` shorthand.

    Raises:
        ParseError: With the offending line number.
    """
    rows = list(_content_lines(text))
    if not rows:
        raise ParseError("empty graph text")
    if rows[0][1].startswith("@"):
        if len(rows) > 1:
            raise ParseError("shorthand must be the only line", rows[1][0])
        return _expand_shorthand(rows[0][1], rows[0][0])
    acc = _GraphAccumulator()
    for lineno, line in rows:
        tokens = line.split()
        if tokens[0] not in ("v", "e"):
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
        acc.add(tokens, lineno)
    return acc.build()


def serialize_graph(graph: MultiGraph) -> str:
    """Graph as explicit v/e lines (never a shorthand, so the file is
    self-contained)."""
    lines = [f"v {v}" for v in graph.vertices]
    lines += [f"e {name} {t} {h}" for name, t, h in graph.edges]
    return "\n".join(lines) + "\n"


def named_graph_label(graph: MultiGraph):
    """The ``@`` shorthand that rebuilds this exact labeled graph, or None."""
    probes = ["@PG", "@HG"]
    nv, ne = len(graph.vertices), len(graph.edges)
    if nv >= 1:
        probes.append(f"@K {nv}")
    for m in range(1, nv):
        probes.append(f"@K {m} {nv - m}")
    if ne and ne % 3 == 0:
        probes.append(f"@T {ne // 3}")
    if nv == 2 and ne:
        probes.append(f"@theta {ne}")
    for label in probes:
        try:
            if _expand_shorthand(label) == graph:
                return label
        except ParseError:
            continue
    return None


def _parse_points(chunk, lineno):
    pieces = [p.strip() for p in chunk.split(";")]
    if pieces == [""]:
        raise ParseError("empty edge polyline", lineno)
    points = []
    for piece in pieces:
        tokens = piece.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'x y', got {piece!r}", lineno)
        points.append((parse_number(tokens[0], lineno), parse_number(tokens[1], lineno)))
    return tuple(points)


def _parse_immersion_body(text, allow_over):
    rows = list(_content_lines(text))
    if not rows or rows[0][1].split()[0] != "graph":
        raise ParseError("immersion files start with a 'graph' line",
                         rows[0][0] if rows else None)
    lineno, header = rows[0]
    rest = header[len("graph"):].strip()
    if rest == "inline":
        inline, graph = True, None
    elif rest.startswith("@"):
        inline, graph = False, _expand_shorthand(rest, lineno)
    else:
        raise ParseError("graph header needs a @shorthand or 'inline'", lineno)
    acc = _GraphAccumulator()
    positions = {}
    polylines = {}
    overs = []
    past_graph_lines = not inline
    for lineno, line in rows[1:]:
        tokens = line.split()
        kind = tokens[0]
        if kind in ("v", "e"):
            if not inline:
                raise ParseError("v/e lines only follow 'graph inline'", lineno)
            if past_graph_lines:
                raise ParseError("v/e lines must precede pos and edge lines", lineno)
            acc.add(tokens, lineno)
            continue
        if inline and not past_graph_lines:
            graph = acc.build()
            past_graph_lines = True
        if kind == "pos":
            if len(tokens) != 4:
                raise ParseError("pos line needs a vertex and two coordinates", lineno)
            vertex = tokens[1]
            if vertex not in graph.vertices:
                raise ParseError(f"unknown vertex {vertex!r}", lineno)
            if vertex in positions:
                raise ParseError(f"duplicate pos for {vertex!r}", lineno)
            positions[vertex] = (parse_number(tokens[2], lineno),
                                 parse_number(tokens[3], lineno))
        elif kind == "edge":
            body = line[len("edge"):].strip()
            if ":" not in body:
                raise ParseError("edge line needs '<name>: points'", lineno)
            name, chunk = body.split(":", 1)
            name = name.strip()
            if name not in graph.edge_names:
                raise ParseError(f"unknown edge {name!r}", lineno)
            if name in polylines:
                raise ParseError(f"duplicate polyline for {name!r}", lineno)
            polylines[name] = _parse_points(chunk, lineno)
        elif kind == "over":
            if not allow_over:
                raise ParseError("'over' lines belong in diagram files", lineno)
            if len(tokens) != 3:
                raise ParseError("over line needs a crossing id and a strand", lineno)
            overs.append((lineno, tokens[1], tokens[2]))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if inline and not past_graph_lines:
        graph = acc.build()
    try:
        immersion = PlaneImmersion(graph, positions, polylines)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return immersion, overs


def parse_immersion(text) -> PlaneImmersion:
    """Parse the immersion text format.

    The drawing is not checked for genericity here; run validate on the
    result to get a report.

    Raises:
        ParseError: Malformed lines, unknown names, or missing data.
    """
    immersion, _ = _parse_immersion_body(text, allow_over=False)
    return immersion


def parse_diagram(text) -> Diagram:
    """Parse the diagram text format (immersion plus over lines).

    Raises:
        ParseError: As for parse_immersion, plus uncovered or unknown
            crossings and bad strand choices.
    """
    immersion, overs = _parse_immersion_body(text, allow_over=True)
    report = validate(immersion)
    if not report.ok:
        raise ParseError(f"immersion is not generic: {report.summary()}")
    ids = immersion._record_order.row.keys()
    over = {}
    lines = {}
    for lineno, cid, choice in overs:
        if cid not in ids:
            raise ParseError(f"over names unknown crossing {cid!r}", lineno)
        if cid in over:
            raise ParseError(f"duplicate over line for {cid!r}", lineno)
        over[cid] = choice
        lines[cid] = lineno
    missing = sorted(ids - set(over))
    if missing:
        raise ParseError(f"uncovered crossing {missing[0]!r}")
    try:
        return Diagram(immersion, over)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_immersion(immersion: PlaneImmersion) -> str:
    """Immersion as text; canonical graphs collapse to their shorthand."""
    graph = immersion.graph
    label = named_graph_label(graph)
    if label:
        lines = [f"graph {label}"]
    else:
        lines = ["graph inline"]
        lines += serialize_graph(graph).splitlines()
    for v in graph.vertices:
        x, y = immersion.vertex_position[v]
        lines.append(f"pos {v} {format_number(x)} {format_number(y)}")
    for name in graph.edge_names:
        points = " ; ".join(
            f"{format_number(x)} {format_number(y)}"
            for x, y in immersion.edge_polyline[name]
        )
        lines.append(f"edge {name}: {points}")
    return "\n".join(lines) + "\n"


def serialize_diagram(diagram: Diagram) -> str:
    """Diagram as text: the immersion plus one over line per crossing."""
    lines = serialize_immersion(diagram.immersion).splitlines()
    for cid in diagram.immersion._record_order.ids:
        lines.append(f"over {cid} {diagram.over[cid]}")
    return "\n".join(lines) + "\n"
