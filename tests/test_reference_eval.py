"""A plain-`Fraction` reference evaluator, and differential tests of the
vectorized evaluators (`eval_formula`, `eval_table`, `realizes`) and of
`eval_bounds` against it on random two-sort structures and random formulas.

The reference reads each table entry as an exact `Fraction` and applies the
connectives as written in `mlw.formulas`; it knows nothing of common
denominators, int64 or broadcasting."""

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlw.analysis import realizes
from mlw.conditions import (PartialType, build_type, closed,
                             normalize_condition, type_and, type_or)
from mlw.formulas import (App, Conn, Const, Dist, Pred, Quant, Rat, Var,
                          _modulus_for_var, affine, cut, fmax, fmin, fmonus,
                          inf, neg, summary, sup)
from mlw.moduli import Modulus
import mlw.structures
from mlw.structures import (FiniteStructure, FnTable, PredTable, SortData,
                            _bind_rows, _plan, _table, _table_env,
                            eval_bounds, eval_formula, eval_table)

ZERO, ONE = Fraction(0), Fraction(1)


def ref_term(t, M, env):
    """(sort, point index) of a term; env maps variables to the same."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return M.constant(t.name)
    fn = M.functions[t.fn]
    args = tuple(ref_term(a, M, env)[1] for a in t.args)
    return fn.out_sort, int(fn.table[args])


def ref_eval(f, M, env) -> Fraction:
    """Exact value of f on M, one assignment at a time."""
    if isinstance(f, Rat):
        return f.value
    if isinstance(f, Dist):
        (s, i), (_, j) = ref_term(f.left, M, env), ref_term(f.right, M, env)
        return Fraction(int(M.sorts[s].dmat[i, j]), M.sorts[s].den)
    if isinstance(f, Pred):
        pr = M.predicates[f.name]
        args = tuple(ref_term(a, M, env)[1] for a in f.args)
        return Fraction(int(pr.table[args]), pr.den)
    if isinstance(f, Conn):
        v = [ref_eval(a, M, env) for a in f.args]
        if f.op == "max":
            return max(v)
        if f.op == "min":
            return min(v)
        if f.op == "neg":
            return ONE - v[0]
        if f.op == "monus":
            return max(v[0] - v[1], ZERO)
        if f.op == "cut":
            return max(v[0] - Fraction(1, f.params[0]), ZERO)
        if f.op == "affine":
            a, b = f.params
            return min(max(a * v[0] + b, ZERO), ONE)
        raise ValueError(f.op)
    if isinstance(f, Quant):
        sort = f.sort or M.only_sort()
        vals = [ref_eval(f.body, M, {**env, f.var: (sort, i)})
                for i in range(M.sorts[sort].size)]
        return max(vals) if f.kind == "sup" else min(vals)
    raise TypeError(f)


def ref_bounds(f, M, env):
    """(lo, hi, notes) of eval_bounds on a prenex f, one point tuple at a
    time: each quantifier takes the finite sup/inf of its body's bounds
    over its sort, then widens the open side by the matrix's modulus at
    the sort's density radius, or to 0 or 1 without a radius; not at all
    when that modulus is 0 everywhere (the matrix ignores the variable)."""
    prefix, g = [], f
    while isinstance(g, Quant):
        prefix.append(g)
        g = g.body
    density = M.meta.get("density", {})
    sym = M.symbol_moduli()

    def go(k, env):
        if k == len(prefix):
            v = ref_eval(g, M, env)
            return v, v, ()
        q = prefix[k]
        sort = q.sort or M.only_sort()
        got = [go(k + 1, {**env, q.var: (sort, i)})
               for i in range(M.sorts[sort].size)]
        pick = max if q.kind == "sup" else min
        lo, hi = pick(b[0] for b in got), pick(b[1] for b in got)
        notes = sum((b[2] for b in got), ())
        r = density.get(sort)
        mod = _modulus_for_var(g, q.var, sym)
        if all(w == 0 for _, w in mod.points):
            pass
        elif r is None:
            notes += (f"sort {sort}: no density radius, {q.kind} bound "
                      "one-sided",)
            lo, hi = (lo, ONE) if q.kind == "sup" else (ZERO, hi)
        elif q.kind == "sup":
            hi = min(ONE, hi + mod.omega(r))
        else:
            lo = max(ZERO, lo - mod.omega(r))
        return lo, hi, tuple(dict.fromkeys(notes))

    return go(0, env)


def ref_realizes(M, t, n=None, tol=ZERO):
    """Every tuple, in lexicographic index order, whose conditions all
    evaluate to at most tol (in normal form, see normalize_condition)."""
    variables = [(v, s or M.only_sort()) for v, s in t.variables]
    conds = t.conds if n is None else t.fragment(n)
    out = []
    for combo in product(*(range(M.sorts[s].size) for _, s in variables)):
        env = {v: (s, i) for (v, s), i in zip(variables, combo)}
        if all(ref_eval(normalize_condition(c).formula, M, env) <= tol
               for c in conds):
            out.append(tuple(M.sorts[s].points[i]
                             for (_, s), i in zip(variables, combo)))
    return out


# --------------------------------------------------------------------------
# Random structures and formulas

@st.composite
def denominators(draw):
    """A pool of denominators for one structure and its formulas: powers
    of two up to 2^62 with small integers, or one arbitrary denominator up
    to 2^62 with 1.  Common denominators pass 2^63 (3 * 2^62, an affine
    map's coefficient dens times a table's, or two pools' dens), where
    evaluation leaves int64 for Python ints."""
    if draw(st.booleans()):
        return [1, 2, 3, 6] + [2 ** draw(st.integers(0, 62)) for _ in range(3)]
    return [1, draw(st.integers(1, 2**62))]


@st.composite
def structures(draw, pool, rows=1):
    """Sorts A and B with arbitrary [0, 1] tables (no metric axioms: the
    evaluators do not rely on them), f: A -> A, g: A x B -> B, constants
    c of sort A and e of sort B, and predicates P(A), Q(A, B); A has at
    least `rows` points."""
    names = {s: [f"{s.lower()}{i}" for i in range(draw(st.integers(lo, hi)))]
             for s, lo, hi in (("A", rows, 4), ("B", 1, 3))}
    size = {s: len(v) for s, v in names.items()}

    def table(den, shape):
        flat = draw(st.lists(st.integers(0, den), min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return den, np.array(flat, dtype=np.int64).reshape(shape)

    def points(sort, shape):
        flat = draw(st.lists(st.integers(0, size[sort] - 1),
                             min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.int64).reshape(shape)

    metric = {s: table(draw(st.sampled_from(pool)), (n, n))
              for s, n in size.items()}
    functions = {"f": (("A",), "A", points("A", (size["A"],))),
                 "g": (("A", "B"), "B", points("B", (size["A"], size["B"]))),
                 "c": ((), "A", points("A", ())),
                 "e": ((), "B", points("B", ()))}
    predicates = {"P": (("A",), table(draw(st.sampled_from(pool)),
                                      (size["A"],))),
                  "Q": (("A", "B"), table(draw(st.sampled_from(pool)),
                                          (size["A"], size["B"])))}
    return FiniteStructure.build(names, metric, functions, predicates)


def _coefficient(draw, pool):
    big = draw(st.booleans())
    num = draw(st.integers(-2**60, 2**60) if big else st.integers(-6, 6))
    return Fraction(num, draw(st.sampled_from((1, 2, 3) if big else pool)))


def terms(draw, sort, scope, depth):
    """A random term of the sort: a variable of scope, the sort's
    constant, or (depth > 0) a function application."""
    options = [Var(v, s) for v, s in scope if s == sort]
    options.append(Const("c" if sort == "A" else "e"))
    if depth > 0:
        options.append(None)
    t = draw(st.sampled_from(options))
    if t is not None:
        return t
    if sort == "A":
        return App("f", (terms(draw, "A", scope, depth - 1),))
    return App("g", (terms(draw, "A", scope, depth - 1),
                     terms(draw, "B", scope, depth - 1)))


def formulas(draw, scope, depth, pool, quantifiers=True):
    """A random formula over the variables of scope ((name, sort) pairs):
    every connective, distances and predicates on function terms, and
    (unless quantifiers is False) quantifiers over either sort, nested."""
    kinds = ["rat", "dist", "pred"]
    if depth > 0:
        kinds += ["max", "min", "neg", "monus", "cut", "affine", "quant"] * 2
    if not quantifiers:
        kinds = [k for k in kinds if k != "quant"]
    kind = draw(st.sampled_from(kinds))
    sub = lambda: formulas(draw, scope, depth - 1, pool,  # noqa: E731
                           quantifiers)
    if kind == "rat":
        den = draw(st.sampled_from(pool))
        return Rat(Fraction(draw(st.integers(0, den)), den))
    if kind == "dist":
        s = draw(st.sampled_from(("A", "B")))
        return Dist(terms(draw, s, scope, 2), terms(draw, s, scope, 2))
    if kind == "pred":
        if draw(st.booleans()):
            return Pred("P", (terms(draw, "A", scope, 2),))
        return Pred("Q", (terms(draw, "A", scope, 2),
                          terms(draw, "B", scope, 2)))
    if kind in ("max", "min"):
        return (fmax if kind == "max" else fmin)(sub(), sub())
    if kind == "neg":
        return neg(sub())
    if kind == "monus":
        return fmonus(sub(), sub())
    if kind == "cut":
        return cut(draw(st.sampled_from((1, 2, 3, 4))), sub())
    if kind == "affine":
        return affine(_coefficient(draw, pool), _coefficient(draw, pool),
                      sub())
    s = draw(st.sampled_from(("A", "B")))
    var = f"y{len(scope)}"
    body = formulas(draw, scope + [(var, s)], depth - 1, pool)
    return (sup if draw(st.booleans()) else inf)(var, body, s)


FREE = [("x0", "A"), ("x1", "B")]


# --------------------------------------------------------------------------
# Differential tests

@given(st.data())
def test_eval_table_and_eval_formula_match_the_reference(data):
    pool = data.draw(denominators())
    M = data.draw(structures(pool))
    f = formulas(data.draw, FREE, data.draw(st.integers(1, 4)), pool)
    den, table = eval_table(f, M, FREE)
    assert table.shape == (M.sorts["A"].size, M.sorts["B"].size)
    for i, j in np.ndindex(table.shape):
        want = ref_eval(f, M, {"x0": ("A", i), "x1": ("B", j)})
        assert Fraction(int(table[i, j]), den) == want
        names = {"x0": M.sorts["A"].points[i], "x1": M.sorts["B"].points[j]}
        assert eval_formula(f, M, names) == want
    sentence = sup("x0", inf("x1", f, "B"), "A")
    assert eval_formula(sentence, M) == ref_eval(sentence, M, {})


@given(st.data())
def test_one_formula_object_on_structures_of_other_dens(data):
    """The syntax facts kept on a formula object carry nothing of the
    structure: the same object evaluated on two structures with their own
    denominators, and on the first again, gives each its reference."""
    pools = [data.draw(denominators()) for _ in range(2)]
    Ms = [data.draw(structures(pool)) for pool in pools]
    f = formulas(data.draw, FREE, data.draw(st.integers(1, 4)),
                 pools[0] + pools[1])
    sentence = sup("x0", inf("x1", f, "B"), "A")
    for M in Ms + Ms[:1]:
        den, table = eval_table(f, M, FREE)
        for i, j in np.ndindex(table.shape):
            want = ref_eval(f, M, {"x0": ("A", i), "x1": ("B", j)})
            assert Fraction(int(table[i, j]), den) == want
            names = {"x0": M.sorts["A"].points[i],
                     "x1": M.sorts["B"].points[j]}
            assert eval_formula(f, M, names) == want
        assert eval_formula(sentence, M) == ref_eval(sentence, M, {})


def test_one_formula_object_on_two_dens():
    f = sup("x1", fmin(fmonus(Rat(Fraction(1, 2)), Dist(Var("x0"), Var("x1"))),
                       Dist(Var("x0"), Var("x1"))))
    for den in (3, 7, 3):
        M = FiniteStructure.build(
            {"A": ["a", "b", "c"]},
            {"A": (den, np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]]))})
        for i, p in enumerate("abc"):
            assert eval_formula(f, M, {"x0": p}) == \
                ref_eval(f, M, {"x0": ("A", i)})


@pytest.mark.parametrize("dp, dr", [(2**40, 2**40), (2**62, 2**62),
                                     (2**41, 3**26)])
def test_common_denominators_past_int64_are_exact(dp, dr):
    """Predicates P and R over dens of 2^40 and more, rationals over them
    and over 3, and every connective: a common den of 3 * 2^62, or the
    lcm of the coprime 2^41 and 3^26 (past 2^82), is taken in Python
    ints, and the values, scalar or tabled, match the reference."""
    A = FiniteStructure.build({"A": ["a", "b"]},
                              {"A": (1, np.array([[0, 1], [1, 0]]))}).sorts
    P = PredTable(("A",), dp, np.array([1, dp - 1], dtype=np.int64))
    R = PredTable(("A",), dr, np.array([dr // 3, 2], dtype=np.int64))
    M = FiniteStructure(A, {}, {"P": P, "R": R})
    x = Var("x0")
    p, r = Pred("P", (x,)), Pred("R", (x,))
    third, small = Rat(Fraction(1, 3)), Rat(Fraction(5, dr))
    big = fmax(fmin(Rat(Fraction(1, dp)), small), fmonus(small, third))
    tiny = Rat(Fraction(1, dp * dr))  # over a den past int64 on its own
    for f in (fmax(p, r), fmin(p, r), fmonus(p, r), fmonus(r, p),
              fmax(p, third), neg(fmin(r, third)), cut(3, fmax(p, third)),
              fmax(fmonus(p, r), fmin(p, third)),
              affine(Fraction(5, 7), Fraction(1, 11), fmonus(p, r)),
              fmin(big, neg(big)), affine(Fraction(3, 2), ZERO, big),
              fmax(neg(tiny), tiny), fmonus(neg(tiny), tiny),
              sup("x0", fmax(p, r)), inf("x0", fmin(r, third))):
        for i, name in enumerate("ab"):
            assert eval_formula(f, M, {"x0": name}) == \
                ref_eval(f, M, {"x0": ("A", i)})
        if summary(f).free:
            den, table = eval_table(f, M, [("x0", "A")])
            assert [Fraction(int(v), den) for v in table] == \
                [ref_eval(f, M, {"x0": ("A", i)}) for i in range(2)]


def test_quantifiers_over_a_one_point_sort():
    """sup and inf over a sort of one point leave nothing to reduce: the
    value is the body's at that point, nested with a larger sort too."""
    M = FiniteStructure.build(
        {"A": ["a"], "B": ["b0", "b1", "b2"]},
        {"A": (1, np.zeros((1, 1), dtype=np.int64)),
         "B": (4, np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]]))},
        {"c": ((), "A", np.array(0)), "e": ((), "B", np.array(2))},
        {"P": (("A",), (5, np.array([3]))),
         "Q": (("A", "B"), (6, np.array([[1, 5, 2]])))})
    y, z, x = Var("y", "A"), Var("z", "B"), Var("x1", "B")
    bodies = [Pred("P", (y,)), Pred("Q", (y, x)),
              fmax(Pred("Q", (y, x)), Dist(Const("e"), x)),
              neg(Dist(y, Const("c")))]
    for body in bodies:
        for q in (sup, inf):
            for f in (q("y", body, "A"),
                      q("z", q("y", fmax(body, Pred("Q", (y, z))), "A"), "B"),
                      q("y", q("z", fmin(body, Dist(z, x)), "B"), "A")):
                den, table = eval_table(f, M, [("x1", "B")])
                for j in range(3):
                    env = {"x1": ("B", j)}
                    assert Fraction(int(table[j]), den) == ref_eval(f, M, env)
                    assert eval_formula(f, M, {"x1": f"b{j}"}) == \
                        ref_eval(f, M, env)


def _rows_table(f, M, variables, rows):
    """(den, table) of f with the first listed variable bound to rows, an
    index array, as structures._satisfying evaluates a block of rows."""
    variables = [(v, s or M.only_sort()) for v, s in variables]
    env, total = _table_env([f], M, variables)
    _bind_rows(env, variables, total, rows)
    den, table = _table(_plan(f), M, env, variables, total)
    shape = [M.sorts[s].size for _, s in variables]
    return den, np.broadcast_to(table, (len(rows), *shape[1:]))


@given(st.data())
def test_single_surviving_row_matches_the_gather_and_the_reference(data):
    """_table over one row of the first variable, as realizes evaluates
    its later conditions once one row survives: the full table's row
    (the plain gather), and the reference at every cell."""
    pool = data.draw(denominators())
    M = data.draw(structures(pool))
    variables = FREE[:data.draw(st.integers(1, 2))]
    f = formulas(data.draw, variables, data.draw(st.integers(0, 3)), pool)
    full_den, full = eval_table(f, M, variables)
    for i in range(M.sorts["A"].size):
        den, table = _rows_table(f, M, variables, np.array([i]))
        assert table.shape == (1,) + full.shape[1:]
        for idx in np.ndindex(table.shape):
            want = Fraction(int(full[(i,) + idx[1:]]), full_den)
            assert Fraction(int(table[idx]), den) == want
            env = {v: (s, k) for (v, s), k in zip(variables, (i,) + idx[1:])}
            assert want == ref_eval(f, M, env)


@given(st.data())
def test_realizes_matches_the_reference(data):
    pool = data.draw(denominators())
    M = data.draw(structures(pool, rows=2))
    variables = FREE[:data.draw(st.integers(1, 2))]
    fs = [formulas(data.draw, variables, data.draw(st.integers(0, 3)), pool)
          for _ in range(data.draw(st.integers(2, 5)))]
    den = data.draw(st.sampled_from(pool))
    tol = Fraction(data.draw(st.integers(0, den)), den)
    if data.draw(st.integers(0, 3)):
        # rows filtered first (P > tol kills a row, and tol is P's value at
        # some row), so the later conditions, affine maps of the random
        # formulas, run at the surviving rows only
        P = M.predicates["P"]
        tol = Fraction(int(data.draw(st.sampled_from(P.table.tolist()))),
                       P.den)
        small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(pool))
        fs = [Pred("P", (Var("x0", "A"),))] + [
            affine(data.draw(small), data.draw(small), f) for f in fs]
    t = PartialType(tuple(variables), tuple(closed(f) for f in fs))
    n = data.draw(st.sampled_from((None, len(fs) - 1, 1)))
    assert realizes(M, t, n, tol) == ref_realizes(M, t, n, tol)


@given(st.data())
def test_realizes_at_the_den_of_the_surviving_rows(data):
    """Rows die at a first condition R(x0) (values 0 or 1); P's values at
    the survivors share a factor g of P's den that the dead rows' values
    need not share, so the affine condition's den over the survivors is
    smaller than over the full table.  tol > 0 is drawn at P's den."""
    n = data.draw(st.integers(2, 6))
    g = data.draw(st.integers(2, 12))
    den = g * data.draw(st.integers(1, 2**35 // g))
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                             max_size=n - 1))
    alive = [i in keep for i in range(n)]
    vals = [g * data.draw(st.integers(0, den // g)) if a
            else data.draw(st.integers(0, den)) for a in alive]
    M = FiniteStructure.build(
        {"A": [f"a{i}" for i in range(n)]}, {"A": (1, np.zeros((n, n), int))},
        predicates={"P": (("A",), (den, np.array(vals))),
                    "R": (("A",), (1, np.array([1 - a for a in alive])))})
    coef = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    a, b = data.draw(st.just(ONE) | coef), data.draw(st.just(ZERO) | coef)
    x = Var("x0")
    t = PartialType((("x0", None),), (closed(Pred("R", (x,))),
                                      closed(affine(a, b, Pred("P", (x,))))))
    tol = Fraction(data.draw(st.integers(1, den)), den)
    assert realizes(M, t, tol=tol) == ref_realizes(M, t, tol=tol)


def test_realizes_compares_each_row_block_at_its_own_den():
    """The first condition leaves rows a1 and a3, whose values under the
    second condition, 2/4 at both, reduce (affine's gcd) to den 2 where
    the full table (1/4 at a0 and a2) keeps den 4.  Compared at den 4,
    the surviving value 1 would pass tol 1/4; at its own den 2 it fails."""
    M = FiniteStructure.build(
        {"A": ["a0", "a1", "a2", "a3"]}, {"A": (4, np.zeros((4, 4), int))},
        predicates={"P": (("A",), (4, np.array([1, 2, 1, 2]))),
                    "R": (("A",), (1, np.array([1, 0, 1, 0])))})
    x = Var("x0")
    second = affine(1, 0, Pred("P", (x,)))
    t = PartialType((("x0", None),), (closed(Pred("R", (x,))),
                                      closed(second)))
    dens = [_rows_table(second, M, [("x0", None)], np.array([1, 3]))[0]]
    assert (eval_table(second, M, [("x0", None)])[0], dens) == (4, [2])
    for tol in (ZERO, Fraction(1, 4), Fraction(1, 2)):
        assert realizes(M, t, tol=tol) == ref_realizes(M, t, tol=tol)
    assert realizes(M, t, tol=Fraction(1, 2)) == [("a1",), ("a3",)]
    assert realizes(M, t, tol=Fraction(1, 4)) == []


@given(st.data())
def test_realizes_with_subterms_shared_across_conditions(data):
    """Conditions that repeat a random subterm S under sibling quantifiers
    of one variable y0 and sort (one slot across the conditions), some
    of them under a further quantifier, where y0 runs along another axis
    (another slot), and a random R on its own and under sup or inf over
    x1, which the type binds: R's slots read x1 from the type's axis in
    one place and from the quantifier's in the other.  R is compiled
    before (one slot of its own) or not.  A condition P(x0) may sit
    between two sharing ones, so the rows shrink there (tol is one of P's
    values)."""
    pool = data.draw(denominators())
    M = data.draw(structures(pool, rows=2))
    s = data.draw(st.sampled_from(("A", "B")))
    scope = FREE + [("y0", s)]
    S = formulas(data.draw, scope, data.draw(st.integers(1, 3)), pool)
    R = formulas(data.draw, FREE, data.draw(st.integers(0, 3)), pool)
    if data.draw(st.booleans()):
        eval_table(R, M, FREE)
    fs = [R, (sup if data.draw(st.booleans()) else inf)("x1", R, "B")]
    for _ in range(data.draw(st.integers(2, 3))):
        op = data.draw(st.sampled_from((fmax, fmin, fmonus)))
        other = formulas(data.draw, scope, data.draw(st.integers(0, 2)), pool)
        g = (sup if data.draw(st.booleans()) else inf)("y0", op(S, other), s)
        if data.draw(st.booleans()):
            g = (sup if data.draw(st.booleans()) else inf)(
                "y1", g, data.draw(st.sampled_from(("A", "B"))))
        fs.append(g)
    fs = data.draw(st.permutations(fs))
    den = data.draw(st.sampled_from(pool))
    tol = Fraction(data.draw(st.integers(0, den)), den)
    if data.draw(st.booleans()):
        P = M.predicates["P"]
        tol = Fraction(int(data.draw(st.sampled_from(P.table.tolist()))),
                       P.den)
        fs.insert(data.draw(st.integers(1, len(fs) - 1)),
                  Pred("P", (Var("x0", "A"),)))
    t = PartialType(tuple(FREE), tuple(closed(f) for f in fs))
    n = data.draw(st.sampled_from((None, len(fs) - 1, 2)))
    assert realizes(M, t, n, tol) == ref_realizes(M, t, n, tol)
    assert realizes(M, t, n, tol) == ref_realizes(M, t, n, tol)  # kept plan


@given(st.data())
def test_realizes_of_pairings_of_types_realized_before(data):
    """type_or and type_and of a type t in x0 and a type s in x1, each
    realized first, some of their conditions also evaluated before (each
    then one slot of the pairings' conditions, and type_and repeats it
    from its condition on)."""
    pool = data.draw(denominators())
    M = data.draw(structures(pool, rows=2))
    den = data.draw(st.sampled_from(pool))
    tol = Fraction(data.draw(st.integers(0, den)), den)
    types = []
    for v in FREE:
        fs = [formulas(data.draw, [v], data.draw(st.integers(0, 3)), pool)
              for _ in range(data.draw(st.integers(1, 3)))]
        for f in fs:
            if data.draw(st.booleans()):
                eval_table(f, M, [v])
        t = PartialType((v,), tuple(closed(f) for f in fs))
        assert realizes(M, t, tol=tol) == ref_realizes(M, t, tol=tol)
        types.append(t)
    for pair in (type_or(*types), type_and(*types)):
        n = data.draw(st.sampled_from((None, 1, 2)))
        assert realizes(M, pair, n, tol) == ref_realizes(M, pair, n, tol)


@st.composite
def prenex(draw, pool):
    """A random prenex formula over FREE: up to three quantifiers whose
    variables may shadow each other or a free variable, over a
    quantifier-free matrix (affine slopes of either sign)."""
    bound = [(draw(st.sampled_from(("x0", "y0", "y1"))),
              draw(st.sampled_from(("A", "B"))))
             for _ in range(draw(st.integers(0, 3)))]
    scope = dict(FREE)
    scope.update(bound)  # the innermost binding of a name wins
    f = formulas(draw, list(scope.items()), draw(st.integers(0, 3)), pool,
                 quantifiers=False)
    for var, s in reversed(bound):
        f = (sup if draw(st.booleans()) else inf)(var, f, s)
    return f


@given(st.data())
def test_eval_bounds_matches_the_reference(data):
    """eval_bounds' closed form (the exact value, widened once per
    quantifier) against the per-point recursion, with each sort's density
    radius none or 1/k and each symbol's modulus Lipschitz."""
    pool = data.draw(denominators())
    M = data.draw(structures(pool))
    M.moduli.update({name: Modulus.lipschitz(data.draw(st.sampled_from(
        (Fraction(1, 2), 1, 2)))) for name in "fgPQ"})
    M.meta["density"] = {
        s: data.draw(st.none() | st.builds(Fraction, st.just(1),
                                           st.integers(1, 6)))
        for s in M.sorts}
    f = data.draw(prenex(pool))
    i, j = (data.draw(st.integers(0, M.sorts[s].size - 1)) for s in "AB")
    names = {"x0": M.sorts["A"].points[i], "x1": M.sorts["B"].points[j]}
    res = eval_bounds(f, M, names)
    assert (res.lo, res.hi, res.notes) == \
        ref_bounds(f, M, {"x0": ("A", i), "x1": ("B", j)})


@given(st.data())
def test_quantifiers_the_matrix_ignores_widen_nothing(data):
    """Quantifiers over variables that the matrix does not read, put
    anywhere in a random prefix, leave the bounds of the rest as they are
    and add no note, whatever the sort's density radius.  A symbol may
    have the constant modulus, so the matrix may also ignore a variable
    that it reads."""
    pool = data.draw(denominators())
    M = data.draw(structures(pool))
    M.moduli.update({name: Modulus.lipschitz(data.draw(st.sampled_from(
        (0, Fraction(1, 2), 1, 2)))) for name in "fgPQ"})
    M.meta["density"] = {
        s: data.draw(st.none() | st.just(Fraction(1, 2))) for s in M.sorts}
    f = data.draw(prenex(pool))
    prefix, g = [], f
    while isinstance(g, Quant):
        prefix.append((g.kind, g.var, g.sort))
        g = g.body
    for k in range(data.draw(st.integers(1, 2))):
        prefix.insert(data.draw(st.integers(0, len(prefix))),
                      (data.draw(st.sampled_from(("sup", "inf"))), f"z{k}",
                       data.draw(st.sampled_from(("A", "B")))))
    padded = g
    for kind, var, sort in reversed(prefix):
        padded = Quant(kind, var, sort, padded)
    i, j = (data.draw(st.integers(0, M.sorts[s].size - 1)) for s in "AB")
    names = {"x0": M.sorts["A"].points[i], "x1": M.sorts["B"].points[j]}
    got = eval_bounds(padded, M, names)
    want = eval_bounds(f, M, names)
    assert (got.lo, got.hi, got.notes) == (want.lo, want.hi, want.notes)
    assert (got.lo, got.hi, got.notes) == \
        ref_bounds(padded, M, {"x0": ("A", i), "x1": ("B", j)})


@pytest.mark.parametrize("tol", [ZERO, Fraction(1, 3)])
def test_reference_agrees_on_a_constructor_type(m_small, tol):
    """A cross-check of the reference itself on the library's own s_m
    type, so a fault shared by the random generators does not hide."""
    t = build_type("s_m", 1, 3)
    assert realizes(m_small, t, tol=tol) == ref_realizes(m_small, t, tol=tol)


# --------------------------------------------------------------------------
# Evaluation plans: axis views, gathers and shared slots

def _plan_structure(den, seed=0):
    """One sort A of 4 points with an asymmetric table in [0, den] (no
    metric axioms) that the caller may still write to, f: A -> A, P(A)
    and a ternary R(A, A, A)."""
    rng = np.random.default_rng(seed)
    names = ["a0", "a1", "a2", "a3"]
    dmat = rng.integers(0, 7, (4, 4)) * (den // 6)
    A = SortData(tuple(names), den, dmat, {a: i for i, a in enumerate(names)})
    return FiniteStructure(
        {"A": A}, {"f": FnTable(("A",), "A", np.array([2, 0, 0, 3]))},
        {"P": PredTable(("A",), den, rng.integers(0, 7, 4) * (den // 6)),
         "R": PredTable(("A",) * 3, den,
                        rng.integers(0, 7, (4, 4, 4)) * (den // 6))})


def _plan_bodies():
    """Open formulas in x0, x1, x2 built to break the axis shortcuts:
    arguments in every order, a variable given twice, functions applied
    to axes, and a subterm repeated."""
    x0, x1, x2 = (Var(f"x{k}", "A") for k in range(3))
    f = lambda t: App("f", (t,))  # noqa: E731
    out = [Dist(x1, x0), Dist(x0, x1), Dist(x0, x0), Dist(f(x0), x1),
           Dist(x1, f(x1)), Dist(f(x1), f(x0)), Pred("P", (f(x1),)),
           Pred("R", (x0, x0, x1)), Pred("R", (x1, x0, x1)),
           Pred("R", (f(x0), x2, x0)),
           fmin(fmonus(Rat(Fraction(1, 3)), Dist(x0, x1)), Dist(x0, x1)),
           fmax(Dist(x0, x1), sup("x1", Dist(x0, x1), "A"))]
    out += [Pred("R", p) for p in ((x0, x1, x2), (x0, x2, x1), (x1, x0, x2),
                                   (x1, x2, x0), (x2, x0, x1), (x2, x1, x0))]
    return out


def _plan_cases():
    """(formula, its free variables) for each body: the body itself and
    the body under sup/inf over its variables, in every nesting."""
    for body in _plan_bodies():
        free = sorted(summary(body).free)
        yield body, free
        for k in range(1, len(free) + 1):
            for bound in permutations(free, k):
                f = body
                for v, q in zip(reversed(bound), (sup, inf, sup)):
                    f = q(v, f, "A")
                yield f, [v for v in free if v not in bound]


@pytest.mark.parametrize("den", [6, 2**62])
def test_plans_match_the_reference_on_views_and_gathers(den):
    """Every case of _plan_cases, with its free variables listed in every
    order (views), at single points (eval_formula), and with the first
    listed variable bound to rows (gathers), on the same formula objects
    at den 6 and at den 2^62, where 1/3 takes values past int64; the
    structure's tables are unchanged afterwards and the tables
    eval_table returns are read-only."""
    cases = list(_plan_cases())
    for M in (_plan_structure(den), _plan_structure(6, seed=1)):
        before = [M.sorts["A"].dmat.copy(),
                  *(p.table.copy() for p in M.predicates.values())]
        for f, free in cases:
            for order in permutations(free):
                variables = [(v, "A") for v in order]
                tden, table = eval_table(f, M, variables)
                assert table.shape == (4,) * len(order)
                assert not table.flags.writeable
                for idx in np.ndindex(table.shape):
                    env = {v: ("A", i) for v, i in zip(order, idx)}
                    want = ref_eval(f, M, env)
                    assert Fraction(int(table[idx]), tden) == want, (f, idx)
                    names = {v: f"a{i}" for v, i in zip(order, idx)}
                    assert eval_formula(f, M, names) == want
                if order:
                    rows = np.array([3, 1])
                    rden, part = _rows_table(f, M, variables, rows)
                    for idx in np.ndindex(part.shape):
                        full = (int(rows[idx[0]]),) + idx[1:]
                        assert Fraction(int(part[idx]), rden) == \
                            Fraction(int(table[full]), tden)
        after = [M.sorts["A"].dmat, *(p.table for p in M.predicates.values())]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


def test_structurally_equal_subterms_share_one_slot(monkeypatch):
    """d(x0, x1), written twice as distinct objects, is read once per
    call; the same text under a quantifier that binds x1 is another
    slot, read apart and giving the reference."""
    reads = []
    read = mlw.structures._read
    monkeypatch.setattr(mlw.structures, "_read",
                        lambda T, args: reads.append(1) or read(T, args))
    M = _plan_structure(6)
    d = lambda: Dist(Var("x0", "A"), Var("x1", "A"))  # noqa: E731
    shared = fmin(fmonus(Rat(Fraction(1, 3)), d()), d())
    apart = fmax(d(), sup("x1", d(), "A"))
    for f, want in ((shared, 1), (sup("x1", shared, "A"), 1), (apart, 2)):
        for names in ({"x0": "a1", "x1": "a2"}, {"x0": "a3", "x1": "a0"}):
            reads.clear()
            got = eval_formula(f, M, names)
            assert len(reads) == want
            assert got == ref_eval(f, M, {v: ("A", int(p[1]))
                                          for v, p in names.items()})


def test_eval_table_never_writes_into_the_structure():
    """A table that is a view of dmat or of a predicate table is
    read-only, although the structure's own arrays are writable here."""
    M = _plan_structure(6)
    assert M.sorts["A"].dmat.flags.writeable
    for f in (Dist(Var("x0", "A"), Var("x1", "A")), Pred("P", (Var("x0"),))):
        variables = [(v, "A") for v in sorted(summary(f).free)]
        _, table = eval_table(f, M, variables)
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 5


def test_plans_reuse_subformulas_compiled_before(monkeypatch):
    """A formula evaluated before is one slot of a later formula, also
    where a quantifier binds one of its free variables, so its shared
    values are kept per scope; a chain of conjunctions, each evaluated
    in turn as forge evaluates them, compiles each new part only."""
    M = _plan_structure(6)
    x0, x1 = Var("x0", "A"), Var("x1", "A")
    g = fmin(fmonus(Rat(Fraction(1, 3)), Dist(x0, x1)), Dist(x0, x1))
    assert eval_formula(g, M, {"x0": "a1", "x1": "a2"}) == \
        ref_eval(g, M, {"x0": ("A", 1), "x1": ("A", 2)})
    for f in (fmax(g, sup("x1", g, "A")), fmin(inf("x1", g, "A"), g),
              sup("x1", fmax(g, inf("x0", g, "A")), "A")):
        for i, j in product(range(4), repeat=2):
            assert eval_formula(f, M, {"x0": f"a{i}", "x1": f"a{j}"}) == \
                ref_eval(f, M, {"x0": ("A", i), "x1": ("A", j)})
    built = []
    closure = mlw.structures._closure
    monkeypatch.setattr(mlw.structures, "_closure",
                        lambda *a: built.append(a[0]) or closure(*a))
    chain, steps = Rat(ZERO), []
    for k in range(1, 9):
        part = fmonus(Dist(Var(f"x{k - 1}", "A"), Var(f"x{k}", "A")),
                      Rat(Fraction(1, k + 1)))
        chain = fmax(chain, sup(f"x{k}", part, "A")) if k % 2 else \
            fmax(chain, part)
        free = sorted(summary(chain).free)
        built.clear()
        assert eval_formula(chain, M, {v: "a3" for v in free}) == \
            ref_eval(chain, M, {v: ("A", 3) for v in free})
        steps.append(len(built))
    assert max(steps) <= 8  # of the 40 slots of the last chain


def test_realizes_evaluates_a_shared_subterm_once_per_survivor_step(
        monkeypatch):
    """d(f(x1), x0) under sup or inf over x1 in three conditions reads the
    distance table once while the rows hold, and once more after P(x0)
    drops rows a0 and a3; f(x1), read twice and not reading x0, reads f's
    table once in both."""
    reads = []
    read = mlw.structures._read
    monkeypatch.setattr(mlw.structures, "_read",
                        lambda T, args: reads.append(T) or read(T, args))
    M = _plan_structure(6)
    assert M.predicates["P"].table.tolist() == [4, 3, 3, 6]
    x0, x1 = Var("x0", "A"), Var("x1", "A")
    fx1 = lambda: App("f", (x1,))  # noqa: E731
    T = lambda: Dist(fx1(), x0)  # noqa: E731
    half = lambda g: affine(Fraction(1, 2), ZERO, g)  # noqa: E731
    shared = [half(sup("x1", fmin(T(), Pred("P", (fx1(),))), "A")),
              half(inf("x1", fmonus(T(), Rat(Fraction(1, 3))), "A")),
              half(sup("x1", fmax(T(), Pred("R", (x1, x1, x0))), "A"))]
    kill = Pred("P", (x0,))
    for fs, want in ((shared, 1), (shared[:1] + [kill] + shared[1:], 2)):
        t = PartialType((("x0", "A"),), tuple(closed(f) for f in fs))
        reads.clear()
        got = realizes(M, t, tol=Fraction(1, 2))
        assert [r is M.sorts["A"].dmat for r in reads].count(True) == want
        assert [r is M.functions["f"].table for r in reads].count(True) == 1
        assert got == ref_realizes(M, t, tol=Fraction(1, 2))
    assert got == [("a1",), ("a2",)]


def test_one_name_bound_at_two_depths_is_two_slots():
    """y bound at depth 0 in one place and at depth 1 in another runs
    along two axes, so P(y) and d(x0, y) are two slots each, in one
    formula and across the conditions of a type."""
    y, z, x0 = Var("y", "A"), Var("z", "A"), Var("x0", "A")
    P = lambda t: Pred("P", (t,))  # noqa: E731
    pairs = [(inf("y", P(y), "A"),
              sup("z", inf("y", fmax(P(y), Dist(z, y)), "A"), "A")),
             (sup("y", Dist(x0, y), "A"),
              inf("z", sup("y", fmonus(Dist(x0, y), Dist(z, y)), "A"), "A"))]
    for seed in range(3):
        M = _plan_structure(6, seed)
        for f, g in pairs:
            for h in (fmax(f, g), fmin(f, g)):
                den, table = eval_table(h, M, [("x0", "A")])
                assert [Fraction(int(v), den) for v in table] == \
                    [ref_eval(h, M, {"x0": ("A", i)}) for i in range(4)]
            t = PartialType((("x0", "A"),), (closed(f), closed(g)))
            for tol in (Fraction(k, 6) for k in range(7)):
                assert realizes(M, t, tol=tol) == ref_realizes(M, t, tol=tol)
