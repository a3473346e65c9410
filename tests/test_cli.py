"""Command-line surface: exit codes, worked examples, determinism, usage
errors, and the import graph of the verbs that need no numpy."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mlw.cli import main
from mlw.models import default_kfamily, save_kfamily
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


def test_bounds_over_an_empty_sort_is_a_data_error(tmp_path, capsys):
    path = str(tmp_path / "empty.model")
    save_structure(FiniteStructure.build(
        {"A": [], "B": ["b"]},
        {"A": lambda x, y: Fraction(0), "B": lambda x, y: Fraction(0)}), path)
    for bounds in ((), ("--bounds",)):
        code = main(["eval", *bounds, "--model", path,
                     "--formula", "sup x0:A . 1/2"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: quantifier over empty sort A\n"


def test_bounds_widen_by_the_density_radius(tmp_path, capsys):
    """A sort that declares a density radius bounds the infinite value on
    both sides; each line is the exact finite value widened by the slack
    of each quantifier."""
    from mlw.models import build_model
    M = build_model("N(depth=2,branch=2)")
    M.meta["density"] = {"D1": Fraction(1, 4)}
    path = str(tmp_path / "n22.model")
    save_structure(M, path)
    cases = [("sup x1 . d(x0,x1)", "bounds [1, 1] (exact)"),
             ("inf x1 . max(d(x0,x1), d(f1(x1),x1))", "bounds [0, 0] (exact)"),
             ("sup x1 . inf x2 . d(x1,f1(x2))",
              "bounds [1/4, 3/4] (interval)")]
    for formula, want in cases:
        code, out = run(capsys, "eval", "--bounds", "--model", path,
                        "--formula", formula, "--assign", "x0=<0>")
        assert (code, out) == (0, f"{want} [eval_bounds({path})]\n")


@pytest.mark.parametrize("formula,want", [
    # the matrix ignores x1: the finite sup is the infinite one
    ("sup x1 . d(x0,x0)",
     ["bounds [0, 0] (exact) [eval_bounds(N(depth=2,branch=2))]"]),
    # no density radius opens the upper side: [0, 1] bounds nothing
    ("sup x1 . min(d(x0,x1),0)",
     ["bounds [0, 1] (open) [eval_bounds(N(depth=2,branch=2))]",
      "note: sort D1: no density radius, sup bound one-sided"])])
def test_bounds_without_a_density_radius(capsys, formula, want):
    code, out = run(capsys, "eval", "--bounds", "--model",
                    "N(depth=2,branch=2)", "--formula", formula,
                    "--assign", "x0=<>")
    assert (code, out.splitlines()) == (0, want)


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


def test_metric_past_int64_is_a_data_error(tmp_path, capsys):
    """A metric entry over 2^70 scales the table past int64: refused
    before the table is filled, as a data error."""
    big = str(tmp_path / "big.model")
    Path(big).write_text("[sorts]\nA\n[points]\nA a\nA b\n[metric]\n"
                         f"A a b {2**70 - 1}/{2**70}\n")
    for argv in (("model", "check", "--ctor", big),
                 ("eval", "--model", big, "--formula", "d(x0,x0)",
                  "--assign", "x0=a")):
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == \
            "error: metric denominator too large for sort A\n"


def test_eval_past_the_old_denominator_ceiling(capsys):
    """N(25,1)'s den times 1517 passes 2^40: the exact value comes out."""
    code, out = run(capsys, "eval", "--model", "N(depth=25,branch=1)",
                    "--formula", "min(d(x0,<>),1/1517)",
                    "--assign", "x0=<0,0,0>")
    assert code == 0
    assert out == "1/1517 [eval_formula(N(depth=25,branch=1))]\n"


# --------------------------------------------------------------------------
# Every verb in process: each imports its layers when it runs, so a missing
# import shows only when that verb runs.

VERBS = [
    (("model", "build", "--ctor", "N(depth=2,branch=2)", "--save",
      "n22.model"), 0,
     "built N(depth=2,branch=2) [build_model(N(depth=2,branch=2))]"),
    (("model", "check", "--ctor", "N(depth=2,branch=2)"), 0,
     "0 violations [check_structure(N(depth=2,branch=2))]"),
    (("eval", "--bounds", "--model", "N(depth=3,branch=3)", "--formula",
      "sup x1 . min(d(x0,x1), 1/2)", "--assign", "x0=<0>"), 0,
     "bounds [1/2, 1] (lower) [eval_bounds(N(depth=3,branch=3))]"),
    (("type", "build", "--type", "s_m:1,3"), 0,
     "type s_1[3] on 1 variable(s) [build_type(s_m:1,3)]"),
    (("type", "pair", "--a", "s_m:1,3", "--b", "s_m:2,4", "--op", "and"), 0,
     "type and(s_1[3],s_2[4]) [type_and(s_m:1,3, s_m:2,4)]"),
    (("type", "pair", "--a", "s_m:1,3", "--b", "s_m:2,4"), 0,
     "type or(s_1[3],s_2[4]) [type_or(s_m:1,3, s_m:2,4)]"),
    (("type", "omega", "--type", "s_m:1,3", "--n", "3"), 0,
     "type omega(s_1[3],3) [omega_type(s_m:1,3, 3)]"),
    (("type", "check", "--model", "N(depth=2,branch=2)", "--type",
      "s0_branch", "--frag", "3"), 1,
     "0 realizer(s) at tolerance 0 [realizes(N(depth=2,branch=2), "
     "s0_branch, n=3)]"),
    (("tree", "rank", "--dsl", "chain(2)"), 0, "2 [rank(chain(2))]"),
    (("tree", "wf", "--dsl", "dsum(chain(1),chain(2))"), 0,
     "well-founded, rank 2 [well_founded(dsum(chain(1),chain(2)))]"),
    (("tree", "truncate", "--dsl", "chain(2)", "--depth", "4", "--branch",
      "3"), 0, "<>"),
    (("tree", "dist", "--a", "chain(1)", "--b", "chain(2)", "--depth", "4",
      "--branch", "2"), 0, "1/3 [tree_space_dist(truncations at 4,2)]"),
    (("tree", "project", "--pairs", "pairs.txt", "--x", "<1,0>"), 0, "<>"),
    (("reduce", "tS", "--dsl", "graft(T1,chain(1))", "--depth", "4",
      "--branch", "2", "--k", "3"), 0,
     "reduction target tS[3] for tree graft(T1,chain(1)) (truncated 4,2; "
     "relabelled) [build_type(tS, k=3)]"),
    (("reduce", "tR", "--k", "2", "--const", "<1,1>"), 0,
     "reduction target tR[2] with constant <1,1> [build_type(tR, k=2)]"),
    (("iso", "--a", "N(depth=2,branch=2)", "--b", "N(depth=2,branch=3)"), 1,
     "refusal: point-count invariant - sort D1: 7 vs 13 "
     "[find_iso(N(depth=2,branch=2), N(depth=2,branch=3))]"),
    (("forge", "run", "--schedule", "sched.txt", "--bank",
      "N(depth=2,branch=2)"), 0,
     "step 1 [ok] metric 0 1 4 | |d(d0, d1) - 1| < 1/4 | model=bank0 | "
     "d0=<> d1=<0> | r=1"),
    (("report", "--model", "N(depth=2,branch=2)"), 0,
     "report for N(depth=2,branch=2)"),
]


@pytest.mark.parametrize("argv,code,first", VERBS,
                         ids=[" ".join(v[0][:2]) for v in VERBS])
def test_every_verb_in_process(argv, code, first, tmp_path, capsys,
                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.txt").write_text("<> <>\n<0> <1>\n<1> <1>\n"
                                        "<0,0> <1,0>\n")
    (tmp_path / "sched.txt").write_text("metric 0 1 4\n")
    got, out = run(capsys, *argv)
    assert (got, out.splitlines()[0]) == (code, first)


def test_tree_outputs_end_with_their_verdict_line(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.txt").write_text("<> <>\n<0> <1>\n<1> <1>\n"
                                        "<0,0> <1,0>\n")
    _, out = run(capsys, "tree", "truncate", "--dsl", "chain(2)",
                 "--depth", "4", "--branch", "3")
    assert out.splitlines() == ["<>", "<0>", "<0,0>",
                                "3 nodes; finite rank 2 "
                                "[truncate(chain(2), 4, 3)]"]
    _, out = run(capsys, "tree", "project", "--pairs", "pairs.txt",
                 "--x", "<1,0>")
    assert out.splitlines() == ["<>", "<0>", "<1>", "<0,0>",
                                "4 nodes [project(pairs.txt, <1,0>)]"]


def test_model_build_save_round_trips(tmp_path, capsys):
    path = str(tmp_path / "n22.model")
    code, out = run(capsys, "model", "build", "--ctor", "N(depth=2,branch=2)",
                    "--save", path)
    assert code == 0 and f"saved to {path} [save_structure]" in out
    code, out = run(capsys, "iso", "--a", path, "--b", "N(depth=2,branch=2)")
    assert code == 0
    assert out.splitlines()[-1] == (f"isomorphic [find_iso({path}, "
                                    f"N(depth=2,branch=2))]")


# A missing per-verb option, a builder given the wrong arguments or an
# empty chain type is a usage error: exit 2, one `error:` line, no output.
USAGE_ERRORS = [
    (("type", "build"), "error: mlw type build needs --type"),
    (("type", "pair", "--a", "s_m:1,3"), "error: mlw type pair needs --b"),
    (("type", "omega"), "error: mlw type omega needs --type"),
    (("type", "check", "--type", "s_m:1,3"),
     "error: mlw type check needs --model"),
    (("tree", "rank"), "error: mlw tree rank needs --dsl"),
    (("tree", "wf"), "error: mlw tree wf needs --dsl"),
    (("tree", "truncate"), "error: mlw tree truncate needs --dsl"),
    (("tree", "dist", "--a", "chain(1)"), "error: mlw tree dist needs --b"),
    (("tree", "project", "--x", "<0>"), "error: mlw tree project needs --pairs"),
    (("tree", "project"), "error: mlw tree project needs --pairs and --x"),
    (("reduce", "tS"), "error: mlw reduce tS needs --dsl"),
    (("iso", "--a", "N(depth=2,branch=2)"), "error: mlw iso needs --b"),
    (("iso",), "error: mlw iso needs --a and --b"),
    (("forge", "replay", "--schedule", "s.txt", "--bank",
      "N(depth=2,branch=2)"), "error: mlw forge replay needs --transcript"),
    (("type", "build", "--type", "s_m:x"),
     "error: type kind 's_m' takes (m, n, sort=None), got 'x'"),
    (("type", "build", "--type", "s_m:x,3"),
     "error: type kind 's_m' takes (m, n, sort=None), got 'x', 3"),
    (("type", "build", "--type", "tS:1,2"),
     "error: type kind 'tS' takes (S, k, treedepth=2, treebranch=2), "
     "got 1, 2"),
    (("type", "pair", "--a", "s_m", "--b", "s_m:1,3"),
     "error: type kind 's_m' takes (m, n, sort=None), got nothing"),
    (("type", "omega", "--type", "s_m:1,3", "--n", "-1"),
     "error: omega_type needs n >= 1, got -1"),
    (("type", "omega", "--type", "s_m:1,3", "--n", "0"),
     "error: omega_type needs n >= 1, got 0"),
    (("type", "build", "--type", "s_m:1,3", "--frag", "-1"),
     "error: --frag must be >= 0, got -1"),
    (("type", "check", "--type", "s_m:1,3", "--model", "N(depth=2,branch=2)",
      "--frag", "-1"), "error: --frag must be >= 0, got -1"),
    (("report", "--model", "N(depth=2,branch=2)", "--type", "s_m:1,3",
      "--frag", "-2"), "error: --frag must be >= 0, got -2"),
    (("type", "build", "--type", "t_T2:1,-5"),
     "error: type kind 't_T2' needs n >= 0, got -5"),
    (("reduce", "tR", "--k", "-1"), "error: type kind 'tR' needs k >= 0, got -1"),
    (("reduce", "tS", "--dsl", "chain(1)", "--k", "-2"),
     "error: type kind 'tS' needs k >= 0, got -2"),
]


@pytest.mark.parametrize("argv,err", USAGE_ERRORS,
                         ids=[" ".join(v[0]) for v in USAGE_ERRORS])
def test_usage_errors_exit_2_with_one_error_line(argv, err, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", err + "\n")


def test_iso_family_mode_needs_no_pair(tmp_path, capsys):
    fam = tmp_path / "fam.kfamily"
    fam.write_text("base=4\nmult=omega <2.0,1.0>=2\nmult=omega\n")
    code, out = run(capsys, "iso", "--family", str(fam), "--m", "3",
                    "--r", "4", "--l", "1")
    assert code == 0 and out.splitlines()[-1].startswith("isomorphic [")


def test_iso_family_mode_takes_the_global_cap(tmp_path, capsys):
    """--cap reaches kfamily_check and both canonical truncations: the
    default family at m = r = 4 needs 1829-1901 points, past the default
    cap of 1500, which still applies without --cap."""
    fam = tmp_path / "def.kfamily"
    save_kfamily(default_kfamily(), str(fam))
    argv = ["iso", "--family", str(fam), "--m", "4", "--r", "4", "--l"]
    code, out = run(capsys, *argv, "1")
    assert code == 2 and out == ""
    code, out = run(capsys, "--cap", "2000", *argv, "1")
    assert code == 0 and out.splitlines()[-1].startswith("isomorphic [")
    # pruned at level 2, the truncations differ: a refusal, not a cap error
    code, out = run(capsys, "--cap", "2000", *argv, "2")
    assert code == 1 and "sort D1: 1901 vs 1829" in out


# --------------------------------------------------------------------------
# Import graph: the tree, type and reduce verbs start without numpy.

NO_NUMPY = """
import contextlib, io, sys
import mlw.values, mlw.moduli, mlw.formulas, mlw.trees, mlw.conditions
import mlw.cli
assert "numpy" not in sys.modules, "numpy imported by a module import"
for argv in (["tree", "rank", "--dsl", "chain(2)"],
             ["type", "build", "--type", "s_m:1,3"],
             ["reduce", "tR", "--k", "2", "--const", "<1,1>"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mlw.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"numpy imported by {argv}"
"""


def test_tree_type_reduce_verbs_start_without_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    p = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


NO_CONDITIONS = """
import contextlib, io, os, sys
import mlw.cli
os.chdir(sys.argv[1])
for argv in (["model", "build", "--ctor", "N(depth=2,branch=2)",
              "--save", "n22.model"],
             ["model", "check", "--ctor", "n22.model"],
             ["model", "check", "--ctor", "M4(depth=2,branch=2)"],
             ["eval", "--bounds", "--model", "n22.model", "--formula",
              "sup x1 . d(x0,x1)", "--assign", "x0=<>"],
             ["iso", "--a", "n22.model", "--b", "n22.model"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mlw.cli.main(argv) == 0, argv
    assert "mlw.conditions" not in sys.modules, f"conditions loaded by {argv}"
import mlw.models
assert mlw.models.build_type.__module__ == "mlw.conditions"
assert mlw.models.pred_gap.__module__ == "mlw.conditions"
"""


def test_model_and_eval_verbs_leave_conditions_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    p = subprocess.run([sys.executable, "-c", NO_CONDITIONS, str(tmp_path)],
                       env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
