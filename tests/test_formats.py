"""Text formats: exact round trips and line-numbered errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from immersa.diagrams import Diagram, random_lift
from immersa.formats import (
    ParseError,
    format_number,
    named_graph_label,
    parse_diagram,
    parse_graph,
    parse_immersion,
    parse_number,
    serialize_diagram,
    serialize_graph,
    serialize_immersion,
)
from immersa.graphs import (
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    theta_graph,
)
from immersa.immersion import PlaneImmersion, crossings, validate
from immersa.standard import standard_immersion


PRIME = 2**61 - 1


def _residue(text):
    # The signed decimal text's value mod PRIME, digit by digit: a check of
    # the codec that shares none of its arithmetic.
    r = 0
    for ch in text.lstrip("-"):
        r = (r * 10 + ord(ch) - 48) % PRIME
    return (-r if text.startswith("-") else r) % PRIME


class TestNumberCodec:
    @pytest.mark.parametrize("value, text", [
        (Fraction(1, 2), "0.5"),
        (Fraction(3, 8), "0.375"),
        (Fraction(-5, 4), "-1.25"),
        (Fraction(1, 10), "0.1"),
        (Fraction(123, 100), "1.23"),
        (Fraction(7), "7"),
        (Fraction(0), "0"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-22, 7), "-22/7"),
        (Fraction(1, 1048576), "0.00000095367431640625"),
    ])
    def test_frozen_cases(self, value, text):
        assert format_number(value) == text
        assert parse_number(text, 1) == value

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        value = Fraction(p, q)
        assert parse_number(format_number(value), 1) == value

    @given(st.integers(-10**6, 10**6), st.integers(0, 20), st.integers(0, 9))
    def test_decimal_never_ends_in_zero(self, p, a, b):
        value = Fraction(p if p else 1, 2**a * 5**b)
        text = format_number(value)
        assert "/" not in text
        if "." in text:
            assert not text.endswith("0")

    def test_bad_numbers(self):
        for token in ("", "1/0", "x", "1.2.3", "--4", "1e999999999", "1E5",
                      "1_000", "\u0661\u0662", "\uff11\uff12"):
            with pytest.raises(ParseError, match="bad number"):
                parse_number(token, 3)


    def test_integers_past_the_int_str_limit(self):
        # Python refuses int <-> str conversions of more than 4300 digits
        # by default; the codec converts in chunks below that limit.
        ones = (10**5000 - 1) // 9
        assert parse_number("1" * 5000, 1) == ones
        assert parse_number("-" + "1" * 5000 + "/3", 1) == Fraction(-ones, 3)
        assert parse_number("1" * 5000 + "." + "5" * 4999, 1) == Fraction(
            ones * 10**4999 + 5 * (10**4999 - 1) // 9, 10**4999)
        for value in (Fraction(ones), Fraction(-ones, 7), Fraction(ones, 2**9000),
                      Fraction(1, 10**5000), Fraction(10**600), Fraction(-10**600 + 1)):
            text = format_number(value)
            assert parse_number(text, 1) == value
        assert format_number(Fraction(ones)) == "1" * 5000
        for bad in ("1" * 5000 + ".2.3", "+-" + "1" * 5000, "1 " + "1" * 5000):
            with pytest.raises(ParseError, match="bad number"):
                parse_number(bad, 1)

    def test_200k_digit_round_trip(self):
        # A 200,000-digit numerator over a 200,000-digit denominator.  Both
        # directions split the digits recursively; converting 600 digits at
        # a time took quadratic time.
        rng = random.Random(8)
        num = 3 * rng.randrange(10**199_999 // 3, 10**200_000 // 3) + 1
        value = -Fraction(num, 3**419_180)
        text = format_number(value)
        p, q = text.split("/")
        assert len(p) - 1 == len(q) == 200_000
        assert _residue(p) == value.numerator % PRIME
        assert _residue(q) == value.denominator % PRIME
        back = parse_number(text, 1)
        assert back == value
        assert format_number(back) == text

    def test_huge_vertex_round_trips(self):
        big = Fraction(10**5000) + Fraction(1, 3)
        u, v = (big, Fraction(0)), (big + 1, Fraction(0))
        imm = PlaneImmersion(theta_graph(2), {"u": u, "v": v}, {
            "e1": (u, v),
            "e2": (u, (big + Fraction(1, 2), Fraction(1)), v),
        })
        assert validate(imm).ok
        text = serialize_immersion(imm)
        back = parse_immersion(text)
        assert back.vertex_position == imm.vertex_position
        assert back.edge_polyline == imm.edge_polyline
        assert serialize_immersion(back) == text


class TestGraphFormat:
    def test_explicit_round_trip(self):
        g = MultiGraph(("a", "b", "lonely"), (("e1", "a", "b"),
                                             ("loop", "a", "a")))
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text

    def test_shorthand_lines(self):
        assert parse_graph("@PG") == petersen_graph()
        assert parse_graph("@K 4") == complete_graph(4)
        assert parse_graph("@K 3 3") == complete_bipartite_graph(3, 3)
        assert parse_graph("@T 3") == multi_triangle(3)
        assert parse_graph("@theta 5") == theta_graph(5)

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\nv a\nv b  # trailing\ne e1 a b\n"
        g = parse_graph(text)
        assert g.vertices == ("a", "b")
        assert g.edge_names == ("e1",)

    def test_labels(self):
        assert named_graph_label(petersen_graph()) == "@PG"
        assert named_graph_label(heawood_graph()) == "@HG"
        assert named_graph_label(complete_graph(5)) == "@K 5"
        assert named_graph_label(complete_bipartite_graph(3, 3)) == "@K 3 3"
        assert named_graph_label(multi_triangle(2)) == "@T 2"
        assert named_graph_label(theta_graph(7)) == "@theta 7"
        plain = MultiGraph(("a", "b"), (("e1", "a", "b"),))
        assert named_graph_label(plain) is None

    @pytest.mark.parametrize("text, lineno, message", [
        ("v a\nv a", 2, "duplicate vertex"),
        ("v a\ne e1 a b", 2, "unknown vertex"),
        ("v a\nv b\ne e1 a b\ne e1 b a", 4, "duplicate edge"),
        ("v a\nw b", 2, "unknown directive"),
        ("@PG extra", 1, "bad shorthand parameters"),
        ("@Q", 1, "bad graph shorthand"),
        ("v", 1, "needs exactly one name"),
        ("e e1 a", 1, "needs a name, a tail and a head"),
        ("v a\nv b\ne u1u2: a b", 3, "bad edge name"),
        ("v a:", 1, "bad vertex name"),
    ])
    def test_errors_carry_line_numbers(self, text, lineno, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_graph(text)
        assert info.value.line == lineno
        assert f"line {lineno}:" in str(info.value)


class TestImmersionFormat:
    def test_model_fixpoint(self):
        imm = standard_immersion("PG-star")
        text = serialize_immersion(imm)
        assert text.splitlines()[0] == "graph @PG"
        again = parse_immersion(text)
        assert again.graph == imm.graph
        assert again.vertex_position == imm.vertex_position
        assert again.edge_polyline == imm.edge_polyline
        assert serialize_immersion(again) == text

    def test_inline_graph(self):
        g = MultiGraph(("a", "b"), (("e1", "a", "b"), ("e2", "a", "b")))
        imm_text = (
            "graph inline\nv a\nv b\ne e1 a b\ne e2 a b\n"
            "pos a 0 0\npos b 1 0\n"
            "edge e1: 0 0 ; 0.5 0.25 ; 1 0\n"
            "edge e2: 0 0 ; 0.5 -0.25 ; 1 0\n"
        )
        imm = parse_immersion(imm_text)
        assert imm.graph == g
        assert imm.edge_polyline["e1"][1] == (Fraction(1, 2), Fraction(1, 4))
        assert serialize_immersion(imm) == imm_text

    @pytest.mark.parametrize("body, message", [
        ("pos u 0 0", "start with a 'graph' line"),
        ("graph nowhere", "needs a @shorthand or 'inline'"),
        ("graph @theta 2\npos w 0 0", "unknown vertex"),
        ("graph @theta 2\npos u 0 0\npos u 1 1", "duplicate pos"),
        ("graph @theta 2\nedge e9: 0 0 ; 1 1", "unknown edge"),
        ("graph @theta 2\nedge e1:", "empty edge polyline"),
        ("graph @theta 2\npos u 0 zz", "bad number"),
        ("graph @theta 2\nover e1:e2:0 first", "belong in diagram files"),
    ])
    def test_errors(self, body, message):
        with pytest.raises(ParseError, match=message):
            parse_immersion(body)

    def test_incomplete_immersion_reports_line(self):
        text = "graph @theta 2\npos u 0 0\npos v 1 0\nedge e1: 0 0 ; 1 0"
        with pytest.raises(ParseError):
            parse_immersion(text)


class TestDiagramFormat:
    def test_fixpoint(self):
        d = random_lift(standard_immersion("PG-star"), seed=11)
        text = serialize_diagram(d)
        again = parse_diagram(text)
        assert again.over == d.over
        assert serialize_diagram(again) == text

    def test_over_accepts_edge_names(self):
        imm = standard_immersion("theta", n=3)
        d = Diagram(imm, {rec.id: rec.edges[0] for rec in crossings(imm)})
        text = serialize_diagram(d)
        assert parse_diagram(text).over == d.over

    def test_uncovered_crossing(self):
        d = random_lift(standard_immersion("PG-star"), seed=11)
        lines = serialize_diagram(d).splitlines()
        dropped = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(ParseError, match="uncovered crossing"):
            parse_diagram(dropped)

    def test_unknown_and_duplicate_over(self):
        d = random_lift(standard_immersion("PG-star"), seed=11)
        text = serialize_diagram(d)
        with pytest.raises(ParseError, match="unknown crossing"):
            parse_diagram(text + "over nope:nope:0 first\n")
        first_over = next(l for l in text.splitlines() if l.startswith("over "))
        with pytest.raises(ParseError, match="duplicate over"):
            parse_diagram(text + first_over + "\n")

    def test_non_generic_drawing_is_parse_error(self):
        text = serialize_diagram(random_lift(standard_immersion("PG-star"), seed=11))
        pos = next(l for l in text.splitlines() if l.startswith("pos "))
        moved = text.replace(pos + "\n", " ".join(pos.split()[:2]) + " 1/3 1/7\n")
        with pytest.raises(ParseError, match="not generic: endpoint-mismatch"):
            parse_diagram(moved)


_MUTATION_CHARS = " \n:;/#-.0123456789eEvxu_@"


def _mutate(text, rng):
    """One to three random edits: insert or delete a character, repeat a
    line, or overwrite one space-separated token with another."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            lines = text.splitlines()
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines) + "\n"
        else:
            tokens = text.split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(tokens)
            text = " ".join(tokens)
    return text


@pytest.mark.parametrize("kind", ["graph", "immersion", "diagram"])
def test_mutated_texts_raise_only_parse_error(kind):
    imm = standard_immersion("PG-star")
    parse, text = {
        "graph": (parse_graph, serialize_graph(imm.graph)),
        "immersion": (parse_immersion, serialize_immersion(imm)),
        "diagram": (parse_diagram, serialize_diagram(random_lift(imm, seed=3))),
    }[kind]
    rng = random.Random(5)
    for _ in range(400):
        mutated = _mutate(text, rng)
        try:
            parse(mutated)
        except ParseError:
            pass
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} instead of ParseError: {exc}\n{mutated}")
