"""Finite structures: evaluation, validity checking, persistence."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlw.formulas import Dist, Pred, Var, affine, parse_formula
from mlw.moduli import Modulus
from mlw.structures import (FiniteStructure, PredTable, SortData,
                            _max_numerator, _on_one_den, check_structure,
                            eval_bounds, eval_formula, eval_table,
                            load_structure, save_structure)
from mlw.values import ONE, ZERO


def _two_point(d01=Fraction(1, 2), plip=2, pvals=(Fraction(0), Fraction(1))):
    return FiniteStructure.build(
        {"A": ["a", "b"]},
        {"A": lambda x, y: Fraction(0) if x == y else d01},
        {"swap": (("A",), "A", lambda x: "b" if x == "a" else "a")},
        {"P": (("A",), lambda x: pvals[0] if x == "a" else pvals[1])},
        {"swap": Modulus.lipschitz(1), "P": Modulus.lipschitz(plip)})


def test_eval_table_matches_pointwise_eval(n33):
    f = parse_formula("max(monus(d(x0, x1), 1/3), neg(d(x1, x0)))")
    den, table = eval_table(f, n33, [("x0", "D1"), ("x1", "D1")])
    pts = n33.sorts["D1"].points
    for i in (0, 1, 5, 17):
        for j in (0, 3, 11):
            direct = eval_formula(f, n33, {"x0": pts[i], "x1": pts[j]})
            assert Fraction(int(table[i, j]), den) == direct


def test_quantifier_is_exact_min(n33):
    f = parse_formula("inf x1 . max(d(x0, x1), 1/4)")
    pts = n33.sorts["D1"].points
    for p in pts[:6]:
        inner = min(max(eval_formula(parse_formula("d(x0, x1)"), n33,
                                     {"x0": p, "x1": q}), Fraction(1, 4))
                    for q in pts)
        assert eval_formula(f, n33, {"x0": p}) == inner


def test_check_structure_accepts_valid():
    assert check_structure(_two_point()) == []


def test_check_structure_catches_modulus_violation():
    # P jumps by 1 over distance 1/2: not 1-Lipschitz
    report = check_structure(_two_point(plip=1))
    assert any("P" in line for line in report)


def test_check_structure_catches_triangle_violation():
    M = FiniteStructure.build(
        {"A": ["a", "b", "c"]},
        {"A": lambda x, y: Fraction(0) if x == y else
            (Fraction(1) if {x, y} == {"a", "c"} else Fraction(1, 4))})
    assert any("triangle" in line for line in check_structure(M))


def test_evaluators_ignore_entries_for_variables_f_does_not_read(n2_small):
    """eval_table and eval_formula bind only f's free variables: an entry
    for another variable, whose sort a multi-sort structure cannot
    resolve or whose point does not exist, changes nothing; a free
    variable with no entry is still an error."""
    M = n2_small
    f = parse_formula("max(d(x1, <0>), d(x0:D1, x1:D1))")
    pts = M.sorts["D1"].points
    extra = {"x7": "<0>", "x8": "no such point", "x1": pts[2]}
    den, table = eval_table(f, M, [("x0", "D1")], extra)
    assert table.shape == (len(pts),)
    for i, a in enumerate(pts):
        assert Fraction(int(table[i]), den) == \
            eval_formula(f, M, {**extra, "x0": a})
    del extra["x1"]
    with pytest.raises(ValueError, match=r"unbound variables \['x1'\]"):
        eval_table(f, M, [("x0", "D1")], extra)
    with pytest.raises(ValueError, match="unbound variable x1"):
        eval_formula(f, M, {**extra, "x0": "<>"})


def test_eval_bounds_brackets_value(n33):
    f = parse_formula("inf x1 . d(x0, x1)")
    res = eval_bounds(f, n33, {"x0": "<>"})
    v = eval_formula(f, n33, {"x0": "<>"})
    assert res.lo <= v
    assert v <= res.hi or res.notes  # one-sided without a density radius


def test_save_load_round_trip(tmp_path, n22):
    path = str(tmp_path / "n22.model")
    save_structure(n22, path)
    M = load_structure(path)
    assert M.sorts.keys() == n22.sorts.keys()
    for s in M.sorts:
        a, b = M.sorts[s], n22.sorts[s]
        assert a.points == b.points
        # denominators may be reduced on save; distances must agree exactly
        assert np.array_equal(a.dmat * b.den, b.dmat * a.den)
    for name, fn in n22.functions.items():
        assert np.array_equal(M.functions[name].table, fn.table)
    f = parse_formula("inf x1 . max(d(x0, x1), 1/3)")
    assert eval_formula(f, M, {"x0": "<>"}) == \
        eval_formula(f, n22, {"x0": "<>"})


def test_precomputed_predicate_table_round_trips():
    tab = np.array([[0, 2], [2, 0]], dtype=np.int64)
    M = FiniteStructure.build(
        {"A": ["a", "b"]},
        {"A": lambda x, y: Fraction(0) if x == y else Fraction(1, 2)},
        None,
        {"Q": (("A", "A"), (4, tab))},
        {"Q": Modulus.lipschitz(1)})
    f = parse_formula("Q(x0, x1)")
    assert eval_formula(f, M, {"x0": "a", "x1": "b"}) == Fraction(1, 2)
    assert check_structure(M) == []


def test_function_table_array_matches_callable():
    names = ["a", "b", "c"]
    swap = {"a": "b", "b": "a", "c": "c"}

    def build(fn):
        return FiniteStructure.build(
            {"A": names}, {"A": lambda x, y: Fraction(int(x != y))},
            {"f": (("A",), "A", fn)})
    want = build(swap.get).functions["f"]
    got = build(np.array([1, 0, 2])).functions["f"]
    assert (got.arg_sorts, got.out_sort) == (want.arg_sorts, want.out_sort)
    assert got.table.dtype == want.table.dtype
    assert got.table.tolist() == want.table.tolist() == [1, 0, 2]
    for bad in (np.array([1, 0]), np.array([1, 0, 3]), np.array([-1, 0, 2])):
        with pytest.raises(ValueError, match="table does not fit"):
            build(bad)


def test_predicate_range_enforced():
    with pytest.raises(ValueError):
        FiniteStructure.build(
            {"A": ["a"]}, {"A": lambda x, y: Fraction(0)},
            None, {"P": (("A",), lambda x: Fraction(2))})


def test_modulus_check_has_no_int64_wraparound():
    # den * (1/omega) = 2^39 * 2^25 = 2^64 wraps to 0 in int64 arithmetic
    M = FiniteStructure.build(
        {"A": ["a", "b"]},
        {"A": lambda x, y: Fraction(0) if x == y else Fraction(1)},
        None,
        {"P": (("A",), (2**39, np.array([0, 2**39])))},
        {"P": Modulus.lipschitz(Fraction(1, 2**25))})
    assert check_structure(M) == [
        "modulus violation: P argument 0 at pair (a, b): input distance 1 "
        "allows change 1/33554432, table changes by 1"]


def test_modulus_report_names_the_smallest_offending_distance():
    # in row a both (a, b) at 1 and (a, c) at 1/2 break the modulus; the
    # report names the pair at the smaller distance
    d = {frozenset("ab"): Fraction(1), frozenset("ac"): Fraction(1, 2),
         frozenset("bc"): Fraction(1, 2)}
    M = FiniteStructure.build(
        {"A": ["a", "b", "c"]},
        {"A": lambda x, y: Fraction(0) if x == y else d[frozenset(x + y)]},
        None,
        {"P": (("A",), lambda x: Fraction(0) if x == "a" else Fraction(1))},
        {"P": Modulus.lipschitz(Fraction(1, 4))})
    assert check_structure(M) == [
        "modulus violation: P argument 0 at pair (a, c): input distance 1/2 "
        "allows change 1/8, table changes by 1"]


def _model_file(tmp_path, metric_lines):
    path = tmp_path / "m.model"
    path.write_text("[sorts]\ns\n[points]\ns a\ns b\n[metric]\ns a b 1/2\n"
                    + "".join(line + "\n" for line in metric_lines))
    return str(path)


@pytest.mark.parametrize("line,words", [
    ("s a a 1/3", ("a, a", "sort s")),
    ("s a zz 1", ("unknown point", "a, zz", "sort s")),
    ("s zz a 1", ("unknown point", "zz, a", "sort s")),
])
def test_load_rejects_bad_metric_lines(tmp_path, line, words):
    with pytest.raises(ValueError) as ei:
        load_structure(_model_file(tmp_path, [line]))
    assert all(w in str(ei.value) for w in words)


def test_load_accepts_zero_self_entry(tmp_path):
    M = load_structure(_model_file(tmp_path, ["s a a 0", "s b b 0"]))
    assert M.sorts["s"].dist(0, 1) == Fraction(1, 2)
    assert check_structure(M) == []


def test_table_predicate_over_empty_sort_builds():
    M = FiniteStructure.build(
        {"A": ["a"], "E": []},
        {"A": (1, np.zeros((1, 1), dtype=np.int64)),
         "E": (1, np.zeros((0, 0), dtype=np.int64))},
        None,
        {"P": (("E",), (1, np.zeros(0, dtype=np.int64))),
         "Q": (("A", "E"), (2, np.zeros((1, 0), dtype=np.int64)))},
        {"P": Modulus.lipschitz(1), "Q": Modulus.lipschitz(1)})
    assert M.predicates["P"].table.shape == (0,)
    assert M.predicates["Q"].table.shape == (1, 0)
    assert check_structure(M) == []


@given(st.integers(1, 2**63 - 1), st.integers(1, 3**40), st.booleans(),
       st.data())
def test_max_numerator_matches_fraction_comparison(den, qden, strict, data):
    q = Fraction(data.draw(st.integers(0, qden)), qden)
    a = q.numerator * den // q.denominator
    vals = [0, den, a - 1, a, a + 1]
    vals += data.draw(st.lists(st.integers(0, den), max_size=6))
    table = np.array([v for v in vals if 0 <= v <= den], dtype=np.int64)
    got = table <= _max_numerator(q, den, strict)
    want = [Fraction(v, den) < q if strict else Fraction(v, den) <= q
            for v in table.tolist()]
    assert got.tolist() == want


def test_affine_has_no_int64_wraparound():
    # 2^45 * 2^19 passes int64; the clamped exact value is 1
    M = FiniteStructure.build(
        {"A": ["a", "b"]},
        {"A": (2**20, np.array([[0, 2**19], [2**19, 0]]))})
    f = affine(2**45, 0, Dist(Var("x0"), Var("x1")))
    assert eval_formula(f, M, {"x0": "a", "x1": "b"}) == 1
    assert eval_table(f, M, [("x0", "A"), ("x1", "A")])[1].tolist() == \
        [[0, 1], [1, 0]]


def _coefficient(data):
    return Fraction(data.draw(st.integers(-2**60, 2**60)),
                    data.draw(st.sampled_from((1, 2, 3, 7, 2**10, 3**7))))


@given(st.integers(1, 2**63 - 1), st.data())
def test_affine_matches_fraction_arithmetic(den, data):
    a, b = _coefficient(data), _coefficient(data)
    vals = data.draw(st.lists(st.integers(0, den), min_size=1, max_size=6))
    pts = [f"p{i}" for i in range(len(vals))]
    M = FiniteStructure.build(
        {"A": pts}, {"A": lambda x, y: Fraction(0) if x == y else ONE},
        {}, {"P": (("A",), (den, np.array(vals, dtype=np.int64)))})
    f = affine(a, b, Pred("P", (Var("x0"),)))
    want = [min(max(a * Fraction(v, den) + b, ZERO), ONE) for v in vals]
    tden, table = eval_table(f, M, [("x0", "A")])
    assert [Fraction(int(v), tden) for v in table] == want
    assert [eval_formula(f, M, {"x0": p}) for p in pts] == want


def test_build_takes_dens_up_to_int64():
    """Stored tables are int64: a den of 2^63 - 1 builds, and 2^63 is
    refused, from a callable and from a table, for a metric and for a
    predicate."""
    pts, discrete = {"A": ["a", "b"]}, (1, np.array([[0, 1], [1, 0]]))
    for den in (2**63 - 1, 2**63):
        q = Fraction(1, den)
        specs = [({"A": lambda x, y: q * (x != y)}, {}),
                 ({"A": (den, np.array([[0, 1], [1, 0]]))}, {}),
                 ({"A": discrete}, {"P": (("A",), lambda x: q)}),
                 ({"A": discrete}, {"P": (("A",), (den, np.array([0, 1])))})]
        for metric, preds in specs:
            if den == 2**63:
                with pytest.raises(ValueError, match="denominator too large"):
                    FiniteStructure.build(pts, metric, None, preds)
                continue
            M = FiniteStructure.build(pts, metric, None, preds)
            built = M.predicates["P"] if preds else M.sorts["A"]
            table = built.table if preds else built.dmat
            assert (built.den, table.dtype) == (den, np.int64)
    # a den that fits, but a callable's value past int64 as well: refused
    # as the .model loader refuses it
    with pytest.raises(ValueError,
                       match="metric denominator too large for sort A"):
        FiniteStructure.build(pts, {"A": lambda x, y: Fraction(
            0 if x == y else 2**70)})


def test_build_refuses_table_values_past_int64():
    """A table whose den fits but whose values do not is refused with a
    ValueError naming the sort or the predicate, for a metric and for a
    predicate given as (den, list)."""
    pts = {"A": ["a", "b"]}
    with pytest.raises(ValueError, match="metric value past int64 in sort A"):
        FiniteStructure.build(pts, {"A": (3, [[0, 2**70], [2**70, 0]])})
    with pytest.raises(ValueError, match="predicate P value outside"):
        FiniteStructure.build(pts, {"A": (3, [[0, 1], [1, 0]])}, None,
                              {"P": (("A",), (3, [0, 2**70]))})


@given(st.lists(st.fractions(min_value=-2**70, max_value=2**70,
                             max_denominator=2**70)))
def test_rationals_go_to_one_den_exactly(qs):
    """_on_one_den against Fractions: the least common den (1 for no
    value), and each value, a Python int, times it back over it."""
    den, ints = _on_one_den(iter(qs))
    assert den == reduce(lambda d, q: d * q.denominator // math.gcd(
        d, q.denominator), qs, 1)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, den) for v in ints] == qs


def test_distances_outside_the_unit_interval_are_not_evaluated():
    """Exact evaluation needs every distance in [0, den]: 2^62 over den 3
    scaled to the common den 15 of max(d, 1/5) would wrap around in int64
    (to 2^62/15).  Such a sort builds, check_structure reports it, and
    evaluating a distance over it is refused, naming the sort; a sort in
    range, built or a SortData made directly, evaluates."""
    M = FiniteStructure.build({"A": ["a", "b"]},
                              {"A": (3, [[0, 2**62], [2**62, 0]])})
    assert "metric: entry outside [0,1] in sort A" in check_structure(M)
    f = parse_formula("max(d(x0,x1), 1/5)")
    with pytest.raises(ValueError, match="sort A has distances outside"):
        eval_formula(f, M, {"x0": "a", "x1": "b"})
    with pytest.raises(ValueError, match="sort A"):
        eval_table(f, M, [("x0", "A"), ("x1", "A")])
    assert eval_formula(parse_formula("1/5"), M) == Fraction(1, 5)
    assert not M.sorts["A"].in_range()
    sd = SortData(("a", "b"), 3, np.array([[0, 2], [2, 0]]), {"a": 0, "b": 1})
    assert sd.bounded is None and sd.in_range()
    assert eval_formula(f, FiniteStructure({"A": sd}),
                        {"x0": "a", "x1": "b"}) == Fraction(2, 3)
    negative = SortData(("a",), 1, np.array([[-1]]), {"a": 0})
    assert not negative.in_range()
    for bad in ({"A": (3, [[0, -1], [-1, 0]])},
                {"A": (3, [4, 0], [[0, 1]])}):  # from level ids: 4 > den
        assert not FiniteStructure.build({"A": ["a", "b"]}, bad) \
            .sorts["A"].in_range()
    # a constructed sort records it from its dist entries, at build time
    assert FiniteStructure.build({"A": ["a", "b"]},
                                 {"A": (3, [3, 0], [[0, 1]])}).sorts["A"].bounded


def test_predicate_values_outside_the_unit_interval_are_not_evaluated():
    """A PredTable made directly with a value outside [0, den] would
    evaluate max(P(x0), 1/5) to 2^62/15 at its first point (5 * 2^62 wraps
    around in int64); its first evaluation is refused, naming P.  A table
    in range, made directly, evaluates; a built one records its range."""
    A = FiniteStructure.build({"A": ["a", "b"]},
                              {"A": (1, [[0, 1], [1, 0]])}).sorts
    f = parse_formula("max(P(x0), 1/5)")
    bad = FiniteStructure(A, {}, {"P": PredTable(("A",), 3,
                                                 np.array([2**62, 0]))})
    with pytest.raises(ValueError,
                       match=r"predicate P has values outside \[0,1\]"):
        eval_table(f, bad, [("x0", "A")])
    with pytest.raises(ValueError, match="predicate P"):
        eval_formula(f, bad, {"x0": "b"})
    assert bad.predicates["P"].bounded is False
    ok = PredTable(("A",), 3, np.array([2, 0]))
    assert ok.bounded is None
    assert eval_table(f, FiniteStructure(A, {}, {"P": ok}),
                      [("x0", "A")])[1].tolist() == [10, 3]
    assert ok.bounded
    built = FiniteStructure.build({"A": ["a", "b"]},
                                  {"A": (1, [[0, 1], [1, 0]])}, None,
                                  {"P": (("A",), (3, np.array([2, 0])))})
    assert built.predicates["P"].bounded
