"""Command-line surface: exit codes, worked examples, determinism."""

from fractions import Fraction

import pytest

from mlw.cli import main
from mlw.structures import FiniteStructure, save_structure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_tree_rank_worked_example(capsys):
    code, out = run(capsys, "tree", "rank", "--dsl", "graft(chain(2),T1)")
    assert code == 0
    assert out.splitlines()[0].startswith("w+2")


def test_eval_worked_example(capsys):
    code, out = run(capsys, "eval", "--model", "N(depth=3,branch=3)",
                    "--formula", "d(x0,x0)", "--assign", "x0=<>")
    assert code == 0
    assert out.splitlines()[0].startswith("0 ")


def test_type_check_exit_tracks_emptiness(capsys):
    args = ["type", "check", "--model", "M(depth=3,branch=4)",
            "--type", "s_m:1,3", "--tol", "0"]
    code, out = run(capsys, *args)
    assert code == 0 and "realizer" in out
    # an unrealizable fragment exits 1 (no depth-2 point is 1/3 from its
    # level-2 prefix)
    code, out = run(capsys, "type", "check", "--model", "N(depth=2,branch=2)",
                    "--type", "s0_branch", "--frag", "3", "--tol", "0")
    assert code == 1


def test_model_check_exit_codes(capsys):
    code, _ = run(capsys, "model", "check", "--ctor", "N(depth=2,branch=2)")
    assert code == 0
    code, _ = run(capsys, "model", "check", "--ctor", "bogus(depth=2)")
    assert code == 2


def test_invalid_model_file_exit_codes(tmp_path, capsys):
    # a and c are 1 apart but 1/4 from b: the triangle inequality fails
    bad = str(tmp_path / "bad.model")
    save_structure(FiniteStructure.build(
        {"A": ["a", "b", "c"]},
        {"A": lambda x, y: Fraction(0) if x == y else
            (Fraction(1) if {x, y} == {"a", "c"} else Fraction(1, 4))}), bad)
    # the verbs that report violations themselves: negative verdict
    code, out = run(capsys, "model", "check", "--ctor", bad)
    assert code == 1
    assert out.splitlines() == [
        f"violation: metric: triangle inequality fails for (a, c) via b in "
        f"sort A [check_structure({bad})]",
        f"1 violations [check_structure({bad})]"]
    code, out = run(capsys, "report", "--model", bad)
    assert code == 1 and "validity: 1 violation(s)" in out
    # every other verb refuses the file as a data error
    for argv in (("model", "build", "--ctor", bad),
                 ("eval", "--model", bad, "--formula", "d(x0,x0)",
                  "--assign", "x0=a"),
                 ("type", "check", "--model", bad, "--type", "s0_branch"),
                 ("iso", "--a", bad, "--b", bad)):
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_wf_negative_verdict(capsys):
    code, out = run(capsys, "tree", "wf", "--dsl", "full")
    assert code == 1 and "not well-founded" in out


def test_iso_refusal_exit(capsys):
    code, out = run(capsys, "iso", "--a", "N(depth=2,branch=2)",
                    "--b", "N(depth=2,branch=3)")
    assert code == 1 and "refusal" in out


def test_forge_run_and_replay(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("metric 0 1 4\n")
    tr = tmp_path / "tr.txt"
    code, out = run(capsys, "forge", "run", "--schedule", str(sched),
                    "--bank", "N(depth=2,branch=2)",
                    "--save-transcript", str(tr))
    assert code == 0
    code, out = run(capsys, "forge", "replay", "--schedule", str(sched),
                    "--bank", "N(depth=2,branch=2)",
                    "--transcript", str(tr))
    assert code == 0 and "identical" in out


def test_report_csv(tmp_path, capsys):
    csv = tmp_path / "rep.csv"
    code, out = run(capsys, "--csv", str(csv), "report",
                    "--model", "N(depth=2,branch=2)")
    assert code == 0
    assert csv.read_text().startswith("row,key,value")


def test_verdict_lines_cite_operation(capsys):
    _, out = run(capsys, "model", "check", "--ctor", "N(depth=2,branch=2)")
    assert "[check_structure(" in out
    _, out = run(capsys, "tree", "rank", "--dsl", "chain(2)")
    assert "[rank(" in out


def test_determinism_byte_identical(capsys):
    a = run(capsys, "report", "--model", "N(depth=2,branch=2)")
    b = run(capsys, "report", "--model", "N(depth=2,branch=2)")
    assert a == b


def test_seed_flag_is_a_usage_error(capsys):
    code, _ = run(capsys, "--seed", "0", "tree", "rank", "--dsl", "chain(2)")
    assert code == 2


def test_bad_metric_line_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("[sorts]\ns\n[points]\ns a\ns b\n[metric]\ns a b 1/2\n"
                   "s a zz 1\n")
    assert main(["model", "check", "--ctor", str(bad)]) == 2
    assert "a, zz in sort s" in capsys.readouterr().err
