"""Command line surface: outputs, exit codes, and determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import immersa
from immersa import cli
from immersa.diagrams import random_lift
from immersa.formats import parse_diagram, parse_immersion, serialize_diagram
from immersa.standard import standard_immersion


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PG_TABLE_TSV = """\
k	count	count_times_k	alpha_edge	alpha_adjacent	alpha_dist1	alpha_dist2	beta_dist1	beta_dist2
5	12	60	4	2	1	0	1	0
6	10	60	4	2	1	2	1	0
8	15	120	8	4	4	4	2	0
9	20	180	12	6	7	8	3	0
"""

HG_TABLE_TSV = """\
k	count	count_times_k	alpha_edge	alpha_adjacent	alpha_dist1	alpha_dist2	beta_dist1	beta_dist2
6	28	168	8	4	2	1	2	1
8	21	168	8	4	2	3	2	1
10	84	840	40	20	18	17	10	5
12	56	672	32	16	16	20	8	4
14	24	336	16	8	12	10	4	2
"""


class TestCensus:
    def test_pg_table_bytes(self, capsys):
        code, out, _ = run(capsys, "census", "@PG", "--k", "5,6,8,9",
                           "--format", "tsv")
        assert code == 0
        assert out == PG_TABLE_TSV

    def test_hg_table_bytes(self, capsys):
        code, out, _ = run(capsys, "census", "@HG", "--format", "tsv")
        assert code == 0
        assert out == HG_TABLE_TSV

    def test_default_lengths_cover_all_cycles(self, capsys):
        code, out, _ = run(capsys, "census", "@PG", "--format", "tsv")
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()[1:]] == \
            ["5", "6", "8", "9"]

    def test_table_mode_aligns(self, capsys):
        code, out, _ = run(capsys, "census", "@K 4")
        assert code == 0
        assert out.splitlines()[0].startswith("k  count")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_length_below_one_exits_2(self, capsys, k):
        code, out, err = run(capsys, "census", "@PG", "--k", k)
        assert code == 2 and out == ""
        assert "cycle length" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "census.tsv"
        code, out, _ = run(capsys, "census", "@PG", "--format", "tsv",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("k\tcount")


class TestVerify:
    def test_pg_star_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "@PG-star",
                           "--theorem", "PG-parity")
        assert code == 0
        assert "result: PASS (5/5 checks)" in out
        assert "command: immersa verify @PG-star --theorem PG-parity" in out

    def test_graph_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "@PG-star",
                           "--theorem", "HG-parity")
        assert code == 2
        assert "does not match" in err

    def test_unknown_theorem_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "@PG-star", "--theorem", "nope")
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "theta.imm"
        run(capsys, "construct", "--graph", "@theta 3", "-o", str(path))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and out == "ok\n"

    def test_exponent_coordinate_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.imm"
        path.write_text("graph @K 2\npos v1 1e999999999 0\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "bad number" in err


class TestDrawingCommands:
    def test_crossings_pg_min(self, capsys):
        code, out, _ = run(capsys, "crossings", "@PG-min", "--format", "tsv")
        assert code == 0
        assert "total: 2" in out
        assert "by kind: self=0, adjacent=0, disjoint=2" in out
        assert "by distance: 1=1, 2=1" in out

    def test_render_model(self, capsys, tmp_path):
        target = tmp_path / "pg.svg"
        code, out, _ = run(capsys, "render", "@PG-star", "-o", str(target))
        assert code == 0
        text = target.read_text()
        assert text.count("<polyline") == 15

    def test_render_diagram_file(self, capsys, tmp_path):
        diagram = random_lift(standard_immersion("PG-star"), seed=2)
        source = tmp_path / "pg.dgm"
        source.write_text(serialize_diagram(diagram))
        target = tmp_path / "pg.svg"
        code, _, _ = run(capsys, "render", str(source), "-o", str(target))
        assert code == 0
        assert 'r="7"' in target.read_text()

    def test_invariant(self, capsys, tmp_path):
        diagram = random_lift(standard_immersion("PG-star"), seed=7)
        source = tmp_path / "pg.dgm"
        source.write_text(serialize_diagram(diagram))
        code, out, _ = run(capsys, "invariant", str(source), "--which", "PG")
        assert code == 0
        assert out.startswith("L = ")
        assert "kappa(f, 1) = 5" in out
        assert "pass" in out

    def test_tb(self, capsys, tmp_path):
        diagram = random_lift(standard_immersion("PG-star"), seed=7)
        source = tmp_path / "pg.dgm"
        source.write_text(serialize_diagram(diagram))
        code, out, _ = run(capsys, "tb", str(source))
        assert code == 0
        lines = out.splitlines()
        values = {line.split(" = ")[0]: int(line.split(" = ")[1])
                  for line in lines}
        assert set(values) == {"TB_5", "TB_6", "TB_8", "TB_9", "TB_total"}
        assert values["TB_total"] == 7 * values["TB_5"]
        code, out, _ = run(capsys, "tb", str(source), "--k", "6")
        assert code == 0 and out.startswith("TB_6 = ")

    def test_tb_unknown_length(self, capsys, tmp_path):
        diagram = random_lift(standard_immersion("PG-star"), seed=7)
        source = tmp_path / "pg.dgm"
        source.write_text(serialize_diagram(diagram))
        code, _, err = run(capsys, "tb", str(source), "--k", "7")
        assert code == 2 and "no cycle of length 7" in err


class TestConstruct:
    def test_writes_parseable_immersion(self, capsys, tmp_path):
        target = tmp_path / "out.imm"
        svg = tmp_path / "out.svg"
        code, out, _ = run(capsys, "construct", "--graph", "@theta 4",
                           "-o", str(target), "--svg", str(svg))
        assert code == 0
        assert "every cycle rotation 0" in out
        imm = parse_immersion(target.read_text())
        assert len(imm.graph.edges) == 4
        assert svg.read_text().count("<polyline") == 4

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--graph", "@theta 2")
        assert code == 0
        assert out.startswith("graph @theta 2\n")

    def test_k4_minor_refusal(self, capsys):
        code, _, err = run(capsys, "construct", "--graph", "@K 4")
        assert code == 3
        assert "K4 minor" in err
        assert "stuck: irreducible core" in err

    def test_pg_refusal(self, capsys):
        code, _, err = run(capsys, "construct", "--graph", "@PG")
        assert code == 3

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--graph", "nowhere.g")
        assert code == 2


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--graph", "@K 4",
                           "--n", "6", "--seed", "0")
        assert code == 0
        assert "seeds: 0..5" in out
        assert "6 of 6" in out
        assert "result: PASS" in out

    def test_report_bytes_deterministic(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        argv = ("fuzz", "--graph", "@T 2", "--n", "5", "--seed", "9",
                "-o", str(target))
        assert run(capsys, *argv)[0] == 0
        first = target.read_bytes()
        assert run(capsys, *argv)[0] == 0
        assert target.read_bytes() == first

    def test_lift_checks(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--graph", "@PG", "--n", "2",
                           "--seed", "0", "--lifts", "3",
                           "--check", "L,tb-ratio")
        assert code == 0
        assert "6 of 6" in out

    def test_lift_checks_need_lifts_flag(self, capsys):
        code, _, err = run(capsys, "fuzz", "--graph", "@PG", "--n", "2",
                           "--check", "L")
        assert code == 2 and "--lifts" in err

    def test_l_check_needs_weighted_graph(self, capsys):
        code, _, err = run(capsys, "fuzz", "--graph", "@K 4", "--n", "1",
                           "--lifts", "1", "--check", "L")
        assert code == 2 and "@PG or @HG" in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "fuzz", "--graph", "@K 4", "--n", "1",
                           "--check", "writhe")
        assert code == 2 and "unknown check" in err

    def test_failure_writes_replayable_counterexample(
            self, capsys, tmp_path, monkeypatch):
        # Sabotage the rotation computation so the rot check must fail.
        monkeypatch.setattr(cli, "rotation_number", lambda imm, c: 0)
        target = tmp_path / "report.txt"
        code, _, _ = run(capsys, "fuzz", "--graph", "@K 4", "--n", "2",
                         "--seed", "4", "--check", "rot", "-o", str(target))
        assert code == 1
        report = target.read_text()
        assert "result: FAIL" in report
        assert "replay: immersa fuzz --graph @K 4 --n 1 --seed 4" in report
        path = next(line.split(": ", 1)[1] for line in report.splitlines()
                    if line.startswith("counterexample: "))
        saved = parse_immersion((tmp_path / path.split("/")[-1]).read_text())
        assert sorted(saved.graph.vertices) == ["v1", "v2", "v3", "v4"]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["census", "--help"]) == 0

    def test_runs_as_a_module(self):
        src = str(Path(immersa.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-m", "immersa", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0 and "fuzz" in done.stdout

    def test_import_adds_few_modules_past_numpy(self):
        # Start-up time is part of every command and of the benchmark's
        # set-up: importing immersa after numpy may load only these.
        allowed = {"__future__", "_decimal", "copy", "dataclasses", "decimal", "fractions"}
        src = str(Path(immersa.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = ("import sys, numpy; before = set(sys.modules); import immersa; "
                 "print(*sorted(set(sys.modules) - before))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        new = {m for m in done.stdout.split() if m.split(".")[0] != "immersa"}
        assert new <= allowed, new - allowed

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "render", "@PG-fancy")
        assert code == 2 and "unknown model" in err
