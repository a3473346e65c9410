"""The one formula traversal (`formulas.summary`) against golden records.

`formula_fold_golden.json` holds, for every formula of a fixed corpus, what
the earlier separate walkers returned: free variables, their sort
annotations (in order of first occurrence), prenexness, quantifier depth,
the function and predicate symbols, and the prenex form (or the reason
there is none).  The corpus is every formula the type-builder registry and
`pred_gap` build at small parameters, the parser-test formulas, the
formulas of the acceptance suite and a few cases built to separate free
from bound occurrences.  `summary` is kept on the formula object after its
first walk, so the shared result must be read-only."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from mlw.conditions import _TYPE_BUILDERS, build_type, pred_gap
from mlw.forge import bind_constants
from mlw.formulas import (Conn, PrenexUnsupported, free_vars, is_prenex,
                          parse_formula, prenex, show, summary, var_sorts)
from mlw.trees import FiniteTree

GOLDEN = Path(__file__).with_name("formula_fold_golden.json")

# (registry kind, arguments); every kind of the registry appears
TYPE_CASES = [
    ("s0_branch", ()), ("s0_branch", ("D1",)),
    ("s0_escape", ()), ("s0_escape", ("D1",)),
    ("s_m", (1, 3)), ("s_m", (2, 4)), ("s_m", (1, 3, "D1")),
    ("tS", (FiniteTree.of([(), (0,), (1,), (0, 0)]), 2)),
    ("tS", (FiniteTree.of([(), (1,)]), 3)),
    ("tR", (1,)), ("tR", (2, "<1,1>")),
    ("t_T2", (1, 3)), ("t_T2", (2, 4)),
]
GENERATED = 4  # conditions taken from each infinite presentation

PARSER_TEXTS = [
    "d(x0, x1)",
    "max(monus(d(x0, x1), 1/2), neg(d(x1, x1)))",
    "inf x1 . max(d(x0, x1), cut2(d(x1, x1)))",
    "sup x2 . affine(1/2, 1/4, d(x0, x2))",
    "tsum(d(x0,x1), 1/2)",
    "absdiff(d(x0,x1), 1/3)",
    "max(inf x1 . d(x0, x1), 1/4)",
    "monus(sup x1 . neg(d(x0, x1)), 1/2)",
    "min(inf x1 . d(x0, x1), inf x2 . max(d(x0, x2), 1/3))",
    "neg(inf x1 . max(d(x0, x1), sup x2 . monus(d(x1, x2), 1/2)))",
    "affine(2, 0, d(x0, x1))",
]

EXTRA_TEXTS = [
    # free and bound occurrences of one name
    "max(d(x0, x1), inf x1 . d(x1, x1))",
    "inf x1 . max(d(x1, x0), sup x0 . d(x0, x1))",
    # the first annotation wins; an unannotated occurrence is overridden
    "max(d(x0, x1:A), d(x1:B, x0:C))",
    "sup x2:D3 . ee3(f1(x0:D1), f1(c), x2:D3)",
    "monus(sup x1 . d(x1, x0), inf x2 . sup x3 . d(x2, h(g(x3))))",
    "affine(-1, 1, inf x1 . d(x0, x1))",
    "monus(d(x0, x1), inf x2 . d(x2, x1))",
    "d(d0, d1)",
    "1/2",
    # prenex renames a clashing bound variable past every name in use
    "min(inf x1 . d(x0, x1), inf x1 . max(d(x0, x1), sup x5 . d(x5, x1)))",
]


def corpus():
    out = []
    for kind, args in TYPE_CASES:
        assert kind in _TYPE_BUILDERS
        t = build_type(kind, *args)
        out.extend(c.formula for c in t.conds)
        if t.generator is not None:
            out.extend(t.condition(j).formula for j in range(GENERATED))
    for m in (1, 2, 3):
        for sort in (None, "D1"):
            out.extend(pred_gap(m, sort))
    out.extend(parse_formula(text) for text in PARSER_TEXTS + EXTRA_TEXTS)
    # criterion 6: the random unary conditions on P
    for q in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for form in (f"monus(P(x0), {q})", f"monus({q}, P(x0))",
                     f"absdiff(P(x0), {q})"):
            out.append(parse_formula(form))
    return out


def _prenex_text(f):
    try:
        return show(prenex(f))
    except PrenexUnsupported as e:
        return f"unsupported: {e}"


def record(f) -> dict:
    s = summary(f)
    return {
        "free_vars": sorted(free_vars(f)),
        "var_sorts": [list(kv) for kv in var_sorts(f).items()],
        "is_prenex": is_prenex(f),
        "depth": s.depth,
        "functions": sorted({n for k, n in s.symbols if k == "function"}),
        "predicates": sorted({n for k, n in s.symbols if k == "predicate"}),
        "prenex": _prenex_text(f),
    }


def test_golden_corpus_is_the_recorded_one():
    golden = json.loads(GOLDEN.read_text())
    assert sorted({show(f) for f in corpus()}) == sorted(golden)


def test_fold_matches_recorded_walkers():
    golden = json.loads(GOLDEN.read_text())
    wrong = [show(f) for f in corpus() if record(f) != golden[show(f)]]
    assert wrong == []


def test_summary_free_matches_free_vars_and_var_sorts():
    for f in corpus():
        s = summary(f)
        assert set(s.free) == free_vars(f)
        assert s.free == var_sorts(f)


def test_summary_is_walked_once_and_shared_read_only():
    f = parse_formula("sup x1 . min(d(x0:D1, x1), P(x2, c))")
    s = summary(f)
    assert summary(f) is s
    with pytest.raises(TypeError):
        s.free["x9"] = None
    with pytest.raises(TypeError):
        s.symbols["predicate", "R"] = None
    with pytest.raises(AttributeError):
        s.bound.add("x9")
    sorts, names = var_sorts(f), free_vars(f)
    sorts["x0"], sorts["x9"] = "other", None
    names.add("x9")
    assert summary(f) is s
    assert dict(s.free) == {"x0": "D1", "x2": None}
    assert s.bound == {"x1"} and var_sorts(f) == {"x0": "D1", "x2": None}


def test_memo_leaves_equality_hash_and_repr_alone():
    """An equal formula object without a memo compares, hashes and prints
    alike, and walks to an equal summary of its own."""
    f = parse_formula("inf x1 . monus(d(x0, x1), 1/3)")
    g = parse_formula(show(f))
    before = hash(f), repr(f)
    summary(f)
    assert f == g and (hash(f), repr(f)) == before == (hash(g), repr(g))
    assert summary(g) == summary(f) and summary(g) is not summary(f)


def test_bind_constants_gives_one_bound_object_per_formula():
    """A conjunction built on a bound formula reuses its bound object,
    as forge's growing conditions do."""
    f = parse_formula("max(d(d0, x3), monus(d(d1, d0), 1/2))")
    bound = bind_constants(f)
    assert bind_constants(f) is bound
    assert bound == parse_formula("max(d(x0, x3), monus(d(x1, x0), 1/2))")
    assert bind_constants(parse_formula(show(f))) == bound
    g = Conn("max", (f, parse_formula("sup x1 . d(d2, x1)")))
    assert bind_constants(g).args[0] is bound
    assert bind_constants(g) == parse_formula(
        "max(max(d(x0, x3), monus(d(x1, x0), 1/2)), sup x1 . d(x2, x1))")
