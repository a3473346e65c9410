"""Self-tests of the benchmark: its oracles reject wrong answers, its
relabel generator's known permutation is an isomorphism, and its inputs
are a function of the seed alone.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (os.path.join(ROOT, "src"), BENCH):
    if p not in sys.path:
        sys.path.insert(0, p)

import bench_gen as gen  # noqa: E402
import bench_workloads as wl  # noqa: E402
from bench_oracles import (frac_eval_names, iso_problems, signature,  # noqa
                           triangle_ok, witness_index)


@pytest.fixture(scope="module")
def m():
    return wl.Mlw({n: importlib.import_module(f"mlw.{n}")
                   for n in wl.Mlw.LAYERS})


# -- oracles reject wrong answers ------------------------------------------

def test_closed_form_oracle_rejects_wrong_answer(m):
    v = wl.big_denominator(m)
    assert v.check([("<>",)])
    assert not v.check([("<>",), ("<0>",)])
    assert not v.check([])


def test_direct_scan_oracle_rejects_wrong_answer(m):
    M = m.models.build_M(3, 4)
    want = sorted(p for p in M.sorts["D1"].points
                  if m.models.is_bottom_terminal(p, 1))
    v = wl._sm_realizers(m, M, m.models.build_type("s_m", 1, 3), want)
    right = [(p,) for p in want]
    assert v.check(right)
    assert not v.check(right[1:])
    assert not v.check(right + [(M.sorts["D1"].points[0],)])


def test_fraction_evaluator_values_and_pairing_oracle(m):
    M = m.models.build_model("N(depth=2,branch=2)")
    f = m.formulas.parse_formula("sup x1 . min(d(x0,x1), 1/3)")
    assert frac_eval_names(f, M, {"x0": "<0>"}) == Fraction(1, 3)
    g = m.formulas.parse_formula("inf x1 . absdiff(d(x0,x1), 1/2)")
    assert frac_eval_names(g, M, {"x0": "<0,1>"}) == 0
    for v in wl._pairing(m, gen.pairing_instance(random.Random(3), 4)):
        right = {tuple(a) for a in v.run()}
        names = sorted({a for pair in right for a in pair} | {"p0", "p1"})
        extra = next((a, b) for a in names for b in names
                     if (a, b) not in right)
        assert v.check(sorted(right))
        assert not v.check(sorted(right | {extra}))


def test_known_defects_match_only_their_documented_failure(m):
    v = wl.big_denominator(m)
    every = [(f"<{'0,' * k}"[:-1] + ">",) for k in range(26)]
    assert v.known(every, "wrong answer")
    assert not v.known(every[:25], "wrong answer")
    assert not v.known(None, "RuntimeError: boom")
    refused = wl._reverification_refusal(m)
    Refusal = m.analysis.Refusal
    assert refused(Refusal("witness failed re-verification"), "wrong answer")
    assert not refused(Refusal("label-count invariant"), "wrong answer")
    assert not refused(None, "over the 15 s limit")
    timed_out = wl.SEARCH_DEFECTS["N(depth=5,branch=4)"](m)
    assert timed_out(None, "over the 15 s limit")
    assert not timed_out(Refusal("witness failed re-verification"),
                         "wrong answer")


def test_iso_oracle_accepts_known_permutation_rejects_one_change(m):
    for spec in ("N(depth=3,branch=2)", "N2(depth=2,branch=2)",
                 "M(depth=3,branch=3)"):
        A = m.models.build_model(spec)
        B, perms = gen.relabel(A, random.Random(5), m.structures)
        assert iso_problems(A, B, perms) == []
        C, _ = gen.change_one_distance(B, random.Random(6), m.structures)
        assert iso_problems(A, C, perms) != []
        assert signature(A) == signature(B) != signature(C)
        names = {s: {a: B.sorts[s].points[perms[s][i]]
                     for i, a in enumerate(sd.points)}
                 for s, sd in A.sorts.items()}
        assert iso_problems(A, B, witness_index(A, B, names)) == []


def test_validation_inputs_break_what_they_claim(m):
    base = m.models.build_model("N(depth=3,branch=3)")
    tri, _ = gen.break_triangle(base, random.Random(1), m.structures)
    assert triangle_ok(base.sorts["D1"].dmat)
    assert not triangle_ok(tri.sorts["D1"].dmat)
    M = m.models.build_M(3, 3)
    brk, (name, i, o) = gen.break_function(M, random.Random(2),
                                           m.structures)
    sd = M.sorts[M.functions[name].arg_sorts[0]]
    fn = brk.functions[name].table
    worst = max(Fraction(int(sd.dmat[fn[i], fn[j]]), sd.den)
                - gen.modulus_bound(M.moduli[name],
                                    Fraction(int(sd.dmat[i, j]), sd.den))
                for j in range(sd.size))
    assert worst > 0
    for cyc in (True, False):
        L = gen.build_line(gen.line_metric(40, cyc, random.Random(4)),
                           m.structures, m.moduli)
        assert triangle_ok(L.sorts["L"].dmat)


def test_cli_oracle_checks_exit_code_and_verdict_line(m, tmp_path):
    probe = wl.setup_probe(m, random.Random(1), str(tmp_path), ROOT, 10.0)
    v = next(v for v in probe if v.kind == "cli")
    assert v.check((0, "2 [rank(chain(2))]\n"))
    assert not v.check((1, "2 [rank(chain(2))]\n"))
    assert not v.check((0, "3 [rank(chain(2))]\n"))


# -- seeded generation is deterministic ------------------------------------

def _inputs(m, seed: int) -> bytes:
    rng = random.Random(seed)
    N = m.models.build_model("N(depth=3,branch=3)")
    M = m.models.build_M(3, 3)
    B, perms = gen.relabel(N, rng, m.structures)
    parts = [gen.structure_bytes(B),
             b"".join(p.tobytes() for p in perms.values()),
             gen.structure_bytes(gen.change_one_distance(B, rng,
                                                         m.structures)[0]),
             gen.structure_bytes(gen.break_triangle(N, rng,
                                                    m.structures)[0]),
             gen.structure_bytes(gen.break_function(M, rng,
                                                    m.structures)[0])]
    for cyc in (True, False):
        L = gen.build_line(gen.line_metric(30, cyc, rng), m.structures,
                           m.moduli)
        parts += [gen.structure_bytes(L), gen.model_text(L).encode()]
    inst = gen.pairing_instance(rng, 5)
    parts += [repr(sorted((k, v) for k, v in inst.items()
                          if k != "dmat")).encode(), inst["dmat"].tobytes(),
              gen.forge_schedule(rng).encode(),
              str(rng.randrange(2**31)).encode()]
    return b"\0".join(parts)


def test_inputs_are_a_function_of_the_seed(m):
    assert _inputs(m, 7) == _inputs(m, 7)
    assert _inputs(m, 7) != _inputs(m, 8)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "cli", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60, env={k: v for k, v in os.environ.items()
                                        if k != "PYTHONPATH"})
    assert p.returncode != 0
    assert p.stdout == ""


def test_model_text_round_trips_through_the_loader(m, tmp_path):
    L = gen.build_line(gen.line_metric(20, True, random.Random(9)),
                       m.structures, m.moduli)
    path = tmp_path / "line.model"
    path.write_text(gen.model_text(L))
    back = m.structures.load_structure(str(path))
    ident = {"L": np.arange(20)}
    assert iso_problems(L, back, ident) == []
