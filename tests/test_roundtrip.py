"""Round trips through the immersion text format: parse(serialize(f)) has
f's genericity report, crossing table and cycle table.  The drawings come
straight from the generators' integer lattices, are rebuilt from their
Fraction views, or are moved to huge and tiny rational coordinates, so
both integer paths (int64 and Python ints) are crossed."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from immersa.formats import parse_immersion, serialize_immersion
from immersa.graphs import complete_graph, heawood_graph, theta_graph
from immersa.immersion import PlaneImmersion, random_immersion
from immersa.sp import construct_zero_rotation, random_sp_graph

GRAPHS = {"HG": heawood_graph, "K5": lambda: complete_graph(5), "T3": lambda: theta_graph(3)}
# random_sp_graph seeds whose zero-rotation drawings pass int64.
SP_PAST_INT64 = (211, 573, 832)
VARIANTS = ("lattice", "views", "huge", "tiny")


@lru_cache(maxsize=None)
def graph(name):
    return GRAPHS[name]()


@lru_cache(maxsize=None)
def generated(source, seed):
    # A generator's drawing, built on its integer lattice.
    if source == "sp":
        return construct_zero_rotation(random_sp_graph(seed))
    return random_immersion(graph(source), seed)


def similar(imm, factor, shift):
    # imm with every point p sent to factor * p + shift, built from Fractions.
    def move(p):
        return (p[0] * factor + shift[0], p[1] * factor + shift[1])

    return PlaneImmersion(imm.graph, {v: move(p) for v, p in imm.vertex_position.items()},
                          {e: [move(p) for p in pts] for e, pts in imm.edge_polyline.items()})


def drawing(source, seed, variant):
    f = generated(source, seed)
    if variant == "views":
        return PlaneImmersion(f.graph, f.vertex_position, f.edge_polyline)
    if variant == "huge":
        return similar(f, 10**31 + 1, (Fraction(10**33, 7), Fraction(-1, 3)))
    if variant == "tiny":
        return similar(f, Fraction(1, 10**31 + 3), (Fraction(1, 10**32), 0))
    return f


def tables(f):
    # (report, segment table, crossing table columns, cycle table) of f.
    report, found, (segs, w), _ = f._scan
    columns = None
    if found is not None:
        columns = [(column.dtype, column.tolist()) for column in (
            found.place, found.left, found.right, found.sign, found.unum, found.wnum, found.den)]
    cycles = None
    if report.ok:
        rows, crossing, rotation = f._cycle_table
        cycles = list(zip(rows, crossing, rotation))
    return report, (segs.dtype, segs.tolist(), w.tolist()), columns, cycles


@given(st.sampled_from(["HG", "K5", "T3", "sp"]),
       st.integers(0, 4) | st.sampled_from(SP_PAST_INT64), st.sampled_from(VARIANTS))
@example("sp", 211, "lattice")
@example("sp", 573, "views")
@example("HG", 0, "huge")
@example("sp", 832, "tiny")
def test_round_trip_keeps_report_and_tables(source, seed, variant):
    f = drawing(source, seed, variant)
    back = parse_immersion(serialize_immersion(f))
    assert tables(back) == tables(f)
    assert back.vertex_position == f.vertex_position
    assert back.edge_polyline == f.edge_polyline


def test_lattice_and_fraction_built_drawings_share_their_tables():
    # The generators' tables equal the ones the constructor fills from the
    # same points as Fractions, on both integer paths.
    for source, seed, dtype in (("HG", 0, np.int64), ("T3", 1, np.int64),
                                ("sp", 3, np.int64), ("sp", 211, object)):
        f = generated(source, seed)
        assert f._points.rows.dtype == dtype
        rebuilt = drawing(source, seed, "views")
        assert np.array_equal(rebuilt._points.rows, f._points.rows)
        assert rebuilt._points.rows.dtype == dtype
        assert tables(rebuilt) == tables(f)
    for variant in ("huge", "tiny"):
        assert drawing("HG", 0, variant)._points.rows.dtype == object
