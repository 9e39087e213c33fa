"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import immersa  # noqa: E402


@pytest.fixture
def small_pool(monkeypatch):
    monkeypatch.setattr(workloads.HgLifts, "POOL", 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, small_pool):
    build = workloads.WORKLOADS[name]
    first, again, other = build(immersa, 1), build(immersa, 1), build(immersa, 2)
    ops = range(8)
    assert [first.replay(i) for i in ops] == [again.replay(i) for i in ops]
    assert [first.replay(i) for i in ops] != [other.replay(i) for i in ops]


def _module_attributes():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "immersa" or name.startswith("immersa.")
            for attr, value in vars(module).items()}


def _results(im):
    graph = im.heawood_graph()
    f = im.random_immersion(graph, seed=5)
    d = im.random_lift(f, seed=6)
    sp = im.construct_zero_rotation(im.random_sp_graph(3))
    return (
        im.validate(f), im.run_checks(f, "HG-parity"), im.kappa(f, 2),
        im.L_invariant(d, "HG"), im.tb_by_length(d),
        [im.rotation_number(f, c) for c in im.enumerate_cycles(graph, 6)],
        im.serialize_immersion(sp), im.verify_zero(sp),
    )


def test_wrapped_functions_agree_and_are_restored():
    before = _module_attributes()
    plain = _results(immersa)
    tracer = spans.Tracer(immersa)
    tracer.install()
    try:
        assert immersa.sp.validate is not before["immersa.sp", "validate"]
        assert immersa.verify.kappa is immersa.immersion.kappa
        traced = tracer.run_op(0, lambda i: _results(immersa))
    finally:
        tracer.restore()
    assert traced == plain
    assert _module_attributes() == before
    names = {s[0] for s in tracer.spans}
    assert {"immersion.validate", "sp.construct_zero_rotation",
            "kernels.candidate_pairs", "diagrams.tb_by_length"} <= names


def test_failed_ops_are_counted_and_the_run_goes_on():
    def op(i):
        if i % 3 == 0:
            raise ValueError("boom")
        return "law broken" if i % 3 == 1 else None

    loop = run.timed_loop(op, seconds=0, min_ops=9)
    assert loop.attempted == 9
    assert loop.failed == 6
    assert loop.first_failure == (0, "ValueError: boom")
    assert loop.ops_per_s == 3 / loop.elapsed


def test_first_failure_writes_its_input(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = SimpleNamespace(replay=lambda i: (".imm", f"input of op {i}\n"))
    args = SimpleNamespace(workload="hg-immersions", seed=4)
    run.report_failure(workload, args, 12, "rot - c is even")
    path = tmp_path / "failure-hg-immersions-seed4-op12.imm"
    assert path.read_text() == "input of op 12\n"


def test_self_time_is_inclusive_minus_children():
    synthetic = [
        ["op", 0, None, 0.0, 10.0],
        ["a", 0, 0, 1.0, 6.0],
        ["b", 0, 1, 2.0, 3.0],
        ["c", 0, 0, 7.0, 9.0],
    ]
    assert spans.self_times(synthetic) == [3.0, 4.0, 1.0, 2.0]


def test_layer_metrics_are_per_op_self_times():
    tracer = spans.Tracer(immersa)
    tracer.spans = [
        ["setup", None, None, 0.0, 0.5],
        ["census.tb_ratio", None, 0, 0.1, 0.3],
        ["op", 0, None, 1.0, 2.0],
        ["diagrams.tb_by_length", 0, 2, 1.2, 1.8],
        ["op", 1, None, 2.0, 3.0],
        ["diagrams.tb_by_length", 1, 4, 2.0, 2.4],
    ]
    metrics = tracer.layer_metrics(ops=2)
    assert metrics["diagrams.tb_by_length.ms"][0] == pytest.approx(500.0)
    assert metrics["op.self.ms"][0] == pytest.approx(500.0)
    assert metrics["setup.census.tb_ratio.ms"][0] == pytest.approx(200.0)
    assert metrics["setup.self.ms"][0] == pytest.approx(300.0)


@pytest.mark.parametrize("segments, expected", [
    ([(0, 0, 4, 4), (0, 4, 4, 0)], (1, 0)),          # proper crossing
    ([(0, 0, 4, 4), (4, 4, 6, 0)], (0, 0)),          # joint at a shared endpoint
    ([(0, 0, 4, 4), (4, 4, 8, 8)], (0, 1)),          # shared endpoint, collinear
    ([(0, 0, 4, 0), (2, 0, 2, 5)], (0, 1)),          # T-contact
    ([(0, 0, 4, 0), (0, 1, 4, 1)], (0, 0)),          # apart
])
def test_crossing_oracle(segments, expected):
    assert workloads.crossing_oracle(np.array(segments, dtype=np.int64)) == expected
