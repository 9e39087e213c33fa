"""Named parity checks for crossing sums of the canonical graphs.

Each check id bundles the congruences that one target graph satisfies for
every generic immersion: odd or even crossing sums over fixed cycle
lengths, divisibility of the 8-cycle and 12-cycle sums by four, and the
distance-restricted crossing counts kappa.  run_checks evaluates them on a
concrete immersion and reports exact values with verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    MultiGraph,
    complete_bipartite_graph,
    complete_graph,
    heawood_graph,
    multi_triangle,
    petersen_graph,
)
from .immersion import PlaneImmersion, kappa, sum_crossing


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of one congruence check.

    Attributes:
        theorem: Check id, e.g. "PG-parity".
        check: Short label of the quantity, e.g. "sum c over 5-cycles".
        value: The exact computed integer.
        expected: The congruence the value must satisfy, as text.
        ok: Whether it does.
    """

    theorem: str
    check: str
    value: int
    expected: str
    ok: bool


def _congruent(value, expected):
    if expected == "odd":
        return value % 2 == 1
    if expected == "even":
        return value % 2 == 0
    modulus = int(expected.split()[-1])
    return value % modulus == 0


def _sum_rows(ks_expected):
    return [("sum", k, expected) for k, expected in ks_expected]


# Check id -> (label, target graph, rows).  Each target is built once, here,
# and only compared with input graphs.
_CHECKS = {
    "PG-parity": (
        "the Petersen graph",
        petersen_graph(),
        _sum_rows([(5, "odd"), (6, "odd"), (8, "divisible by 4"), (9, "odd")])
        + [("kappa", 1, "odd")],
    ),
    "HG-parity": (
        "the Heawood graph",
        heawood_graph(),
        _sum_rows(
            [(6, "odd"), (8, "odd"), (10, "odd"),
             (12, "divisible by 4"), (14, "even")]
        )
        + [("kappa", 2, "odd")],
    ),
    "K4": (
        "K4",
        complete_graph(4),
        [("sum", None, "even")],
    ),
    "K33": (
        "K3,3",
        complete_bipartite_graph(3, 3),
        _sum_rows([(4, "odd"), (6, "odd")]),
    ),
    "K5": (
        "K5",
        complete_graph(5),
        _sum_rows([(4, "even"), (5, "even")]),
    ),
}


def theorem_ids():
    """All check ids accepted by run_checks."""
    return tuple(_CHECKS) + ("Tm",)


def detect_theorem(graph: MultiGraph):
    """The check id whose target is this graph, or None."""
    for tid, (_, target, _) in _CHECKS.items():
        if target == graph:
            return tid
    m, rem = divmod(len(graph.edges), 3)
    if rem == 0 and m >= 1 and multi_triangle(m) == graph:
        return "Tm"
    return None


def _target_for(theorem, graph: MultiGraph):
    if theorem == "Tm":
        m, rem = divmod(len(graph.edges), 3)
        if rem or m < 1 or multi_triangle(m) != graph:
            raise ValueError(
                "input graph does not match the Tm target (a triangle with "
                "m parallel copies of each edge)"
            )
        return [("sum", 3, f"divisible by {m}")]
    if theorem not in _CHECKS:
        known = ", ".join(theorem_ids())
        raise ValueError(f"unknown check id {theorem!r}; choose one of {known}")
    label, target, rows = _CHECKS[theorem]
    if target != graph:
        raise ValueError(
            f"input graph does not match the {theorem} target ({label})"
        )
    return rows


def run_checks(immersion: PlaneImmersion, theorem: str):
    """Evaluate one named check bundle on an immersion.

    Args:
        immersion: A generic immersion of the check's target graph.
        theorem: Check id from theorem_ids().

    Returns:
        Tuple of CheckVerdict, one per congruence.

    Raises:
        ValueError: Unknown id, or the immersion's graph is not the
            check's target graph.
    """
    rows = _target_for(theorem, immersion.graph)
    verdicts = []
    for kind, k, expected in rows:
        if kind == "sum":
            value = sum_crossing(immersion, k)
            label = "sum c over all cycles" if k is None else f"sum c over {k}-cycles"
        else:
            value = kappa(immersion, k)
            label = f"kappa at distance {k}"
        verdicts.append(
            CheckVerdict(theorem, label, value, expected, _congruent(value, expected))
        )
    return tuple(verdicts)
