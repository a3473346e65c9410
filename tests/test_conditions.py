"""Conditions, partial types, pairing combinators, chain types."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlw.conditions import (PartialType, build_type, closed, leq,
                            make_uniform, normalize_condition, omega_type,
                            open_cond, type_and, type_or)
from mlw.formulas import Dist, Rat, Var, fmonus, parse_formula
from mlw.moduli import Modulus
from mlw.structures import eval_formula
from mlw.trees import FiniteTree

units = st.fractions(min_value=0, max_value=1, max_denominator=16)


def _holds(c, value: Fraction) -> bool:
    """Truth of a condition at a formula value, by definition."""
    if c.kind == "closed":
        return value == 0
    if c.kind == "leq":
        return value <= c.bound
    return value < c.bound


def _eval_cond(c, M, assignment) -> Fraction:
    return eval_formula(c.formula, M, assignment)


# --------------------------------------------------------------------------
# normalization

@given(units, st.fractions(min_value="1/16", max_value=1, max_denominator=16))
def test_normalize_leq_preserves_satisfaction(v, bound):
    c = leq(Rat(v), bound)
    n = normalize_condition(c)
    assert n.kind == "closed"
    # the normalized formula is φ ∸ bound evaluated at the same point
    assert _holds(c, v) == (max(Fraction(0), v - bound) == 0)


@given(units, st.fractions(min_value="1/16", max_value=1, max_denominator=16))
def test_normalize_open_preserves_satisfaction(v, eps):
    c = open_cond(Rat(v), eps)
    n = normalize_condition(c)
    assert n.kind == "open" and n.bound == 1
    # clamp01((v - eps + eta)/eta) < 1  iff  v < eps
    eta = eps / 2
    squeezed = min(Fraction(1), max(Fraction(0), (v - eps + eta) / eta))
    assert (squeezed < 1) == _holds(c, v)


def test_normalize_rejects_bad_eta():
    with pytest.raises(ValueError):
        normalize_condition(open_cond(Rat(Fraction(0)), Fraction(1, 2)),
                            eta=Fraction(2))


# --------------------------------------------------------------------------
# pairing: brute-force semantics on a small structure

def _unary_type(threshold, sort="D1"):
    """Realized exactly by points at distance >= threshold from the root
    (f0 maps every point to its length-0 prefix, i.e. the root)."""
    from mlw.values import show_rational
    f = parse_formula(
        f"monus({show_rational(Fraction(threshold))}, d(f0(x0), x0))")
    return PartialType((("x0", sort),), (closed(f),), None,
                       f"far({threshold})")


def _realizers(M, t, tol=Fraction(0)):
    from mlw.analysis import realizes
    return set(realizes(M, t, tol=tol))


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=4),
       st.fractions(min_value=0, max_value=1, max_denominator=4))
def test_pairing_brute_force(n22, a, b):
    t, s = _unary_type(a), _unary_type(b)
    both = _realizers(n22, type_or(t, s))
    either = _realizers(n22, type_and(t, s))
    rt = {x[0] for x in _realizers(n22, t)}
    rs = {x[0] for x in _realizers(n22, s)}
    pts = n22.sorts["D1"].points
    assert both == {(x, y) for x in rt for y in rs}
    assert either == {(x, y) for x in pts for y in pts
                      if x in rt or y in rs}


def test_or_omitted_iff_both_omitted(n22):
    realized = _unary_type(Fraction(0))     # everything realizes it
    omitted = _unary_type(Fraction(1, 16))  # no point sits that close-but-far
    # root has d(root, x) in {0} u {1/k}: threshold 1/16 unrealized iff ...
    rt = _realizers(n22, omitted)
    paired = _realizers(n22, type_or(realized, omitted))
    assert bool(paired) == bool(rt)


# --------------------------------------------------------------------------
# chain types

def test_omega_type_fragment_shape():
    base = _unary_type(Fraction(1, 2))
    t = omega_type(base, 3)
    assert len(t.variables) == 3
    # chain conditions d(x0,x1) <= 1, d(x1,x2) <= 1/2 are present
    texts = [str(c) for c in t.conds]
    assert any("d(x1:D1, x2:D1)" in s for s in texts)


def test_omega_type_realization_shadow(n22):
    # a trivially-satisfied base type yields a realizable fragment
    base = _unary_type(Fraction(0))
    t = omega_type(base, 2)
    assert _realizers(n22, t)


def test_omega_type_needs_a_variable():
    base = _unary_type(Fraction(0))
    assert len(omega_type(base, 1).variables) == 1
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"needs n >= 1, got {n}"):
            omega_type(base, n)


# --------------------------------------------------------------------------
# the partial-type registry

@pytest.mark.parametrize("kind,args,msg", [
    ("s_m", ("x",), r"type kind 's_m' takes \(m, n, sort=None\), got 'x'"),
    ("s_m", (), r"type kind 's_m' takes \(m, n, sort=None\), got nothing"),
    ("s_m", (1, 2, "D1", 4), r"'s_m' takes \(m, n, sort=None\)"),
    ("s_m", (1.0, 3), r"'s_m' takes"),
    ("tS", (1, 2), r"'tS' takes \(S, k, treedepth=2, treebranch=2\)"),
    ("tR", ("2",), r"'tR' takes \(k, c='c'\), got '2'"),
    ("s0_branch", ("D1", "D2"), r"'s0_branch' takes \(sort=None\)"),
    ("nosuch", (), r"unknown type kind 'nosuch'"),
])
def test_build_type_names_the_kind_and_its_parameters(kind, args, msg):
    with pytest.raises(ValueError, match=msg):
        build_type(kind, *args)


@pytest.mark.parametrize("kind,args,msg", [
    ("s_m", (1, -1), "type kind 's_m' needs n >= 0, got -1"),
    ("tS", (FiniteTree.of({()}), -2), "type kind 'tS' needs k >= 0, got -2"),
    ("tR", (-1,), "type kind 'tR' needs k >= 0, got -1"),
    ("t_T2", (1, -5), "type kind 't_T2' needs n >= 0, got -5"),
    ("t_T2", (-1, 3), "type kind 't_T2' needs m >= 0, got -1"),
])
def test_type_builders_reject_negative_sizes(kind, args, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        build_type(kind, *args)
    build_type(kind, *(0 if isinstance(a, int) and a < 0 else a
                       for a in args))  # size 0 is allowed


def test_fragment_rejects_a_negative_size():
    t = build_type("s_m", 1, 3)
    assert t.fragment(0) == ()
    assert t.fragment(len(t.conds) + 5) == t.conds
    with pytest.raises(ValueError, match="fragment size must be >= 0, got -1"):
        t.fragment(-1)
    with pytest.raises(ValueError, match="got -2"):
        build_type("s0_branch").fragment(-2)


# --------------------------------------------------------------------------
# uniform sequences

def test_make_uniform_enforces_modulus():
    ok = [parse_formula("d(x0, x1)")]
    make_uniform(ok, Modulus.lipschitz(1))
    with pytest.raises(ValueError) as ei:
        make_uniform([parse_formula("affine(3, 0, d(x0, x1))")],
                     Modulus.lipschitz(1))
    assert "affine" in str(ei.value)


def test_uniform_member_type(n22):
    u = make_uniform([parse_formula("neg(d(x0, x1))")], Modulus.lipschitz(1))
    t = u.member(1)  # neg(d) >= 1/2, i.e. d <= 1/2
    hits = _realizers(n22, t)
    pts = n22.sorts["D1"].points
    f = parse_formula("d(x0, x1)")
    want = {(x, y) for x in pts for y in pts
            if eval_formula(f, n22, {"x0": x, "x1": y}) <= Fraction(1, 2)}
    assert hits == want
