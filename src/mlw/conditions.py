"""Conditions, partial types, pairing combinators, chain types, and
uniform sequences of formulas."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .formulas import (Dist, Formula, Rat, Var, _max_var_index, affine, fmax,
                       fmin, fmonus, formula_modulus, free_vars, show, subst,
                       var_sorts)
from .moduli import Modulus
from .values import ONE, ZERO, as_value


@dataclass(frozen=True)
class Condition:
    """closed: φ = 0;  leq: φ ≤ bound;  open: φ < bound."""
    kind: str
    formula: Formula
    bound: Fraction = ZERO

    def __post_init__(self):
        if self.kind not in ("closed", "leq", "open"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.kind == "open" and self.bound <= 0:
            raise ValueError("open condition needs a positive bound")
        as_value(self.bound)

    def __str__(self):
        if self.kind == "closed":
            return f"{show(self.formula)} = 0"
        rel = "<=" if self.kind == "leq" else "<"
        return f"{show(self.formula)} {rel} {self.bound}"


def closed(f: Formula) -> Condition:
    return Condition("closed", f)


def leq(f: Formula, bound) -> Condition:
    return Condition("leq", f, Fraction(bound))


def open_cond(f: Formula, bound) -> Condition:
    return Condition("open", f, Fraction(bound))


def normalize_condition(c: Condition, eta: Fraction | None = None) -> Condition:
    """Bring a condition to normal form with the same satisfying assignments.

    closed stays as is; (φ ≤ ε) becomes closed(φ ∸ ε); (φ < ε) becomes
    open(f(φ), 1) where the piecewise-linear f(u) = clamp01((u-ε+η)/η)
    reaches 1 exactly when u ≥ ε (so f(φ) < 1 iff φ < ε)."""
    if c.kind == "closed":
        return c
    if c.kind == "leq":
        if c.bound == 0:
            return closed(c.formula)
        return closed(fmonus(c.formula, Rat(c.bound)))
    eps = c.bound
    if eta is None:
        eta = eps / 2
    if not (0 < eta <= eps):
        raise ValueError("eta must satisfy 0 < eta <= bound")
    # affine(1/η, (η-ε)/η, φ) = clamp01((φ - ε + η)/η)
    return open_cond(affine(1 / eta, (eta - eps) / eta, c.formula), ONE)


# --------------------------------------------------------------------------
# Partial types

@dataclass(frozen=True)
class PartialType:
    """A set of closed conditions on a fixed sorted variable list.

    ``conds`` is the explicit finite part; ``generator`` (if any) produces
    condition j of an infinite presentation for every j >= 0 and must agree
    with the explicit part where both are defined."""
    variables: tuple[tuple[str, str | None], ...]
    conds: tuple[Condition, ...] = ()
    generator: Callable[[int], Condition] | None = None
    label: str = ""

    def __post_init__(self):
        declared = {v for v, _ in self.variables}
        for c in self.conds:
            extra = free_vars(c.formula) - declared
            if extra:
                raise ValueError(f"condition uses undeclared variables {sorted(extra)}")

    @property
    def is_finite(self) -> bool:
        return self.generator is None

    def condition(self, j: int) -> Condition:
        if self.generator is not None:
            return self.generator(j)
        return self.conds[j]

    def fragment(self, n: int) -> tuple[Condition, ...]:
        """First n conditions; monotone in n."""
        if self.generator is None:
            return self.conds[: min(n, len(self.conds))]
        return tuple(self.generator(j) for j in range(n))

    def var_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.variables)


def _rename_apart(t: PartialType, s: PartialType) -> PartialType:
    """Rename s's variables past t's highest index."""
    clash = set(t.var_names()) & set(s.var_names())
    if not clash:
        return s
    base = _max_var_index(t.var_names() + s.var_names()) + 1
    mapping = {v: f"x{base + i}" for i, (v, _) in enumerate(s.variables)}
    new_vars = tuple((mapping[v], srt) for v, srt in s.variables)

    def rename_formula(f):
        for old, new in mapping.items():
            f = subst(f, old, Var(new, dict(s.variables).get(old)))
        return f

    new_conds = tuple(replace(c, formula=rename_formula(c.formula)) for c in s.conds)
    gen = None
    if s.generator is not None:
        sg = s.generator
        gen = lambda j: replace(sg(j), formula=rename_formula(sg(j).formula))
    return PartialType(new_vars, new_conds, gen, s.label)


def _as_closed_formula(c: Condition) -> Formula:
    n = normalize_condition(c)
    if n.kind != "closed":
        raise ValueError("pairing requires closed conditions")
    return n.formula


def _padded(t: PartialType, s: PartialType, n: int):
    def get(p, j):
        try:
            return _as_closed_formula(p.condition(j))
        except IndexError:
            return Rat(ZERO)
    return ([get(t, j) for j in range(n)], [get(s, j) for j in range(n)])


def type_or(t: PartialType, s: PartialType) -> PartialType:
    """Joint type realized by (ā, b̄) iff ā realizes t and b̄ realizes s;
    a model omits it iff it omits both inputs."""
    s = _rename_apart(t, s)
    variables = t.variables + s.variables
    nfin = max(len(t.conds), len(s.conds))
    fs, gs = _padded(t, s, nfin)
    conds = tuple(closed(fmax(f, g)) for f, g in zip(fs, gs))
    gen = None
    if not (t.is_finite and s.is_finite):
        def gen(j):
            fs, gs = _padded(t, s, j + 1)
            return closed(fmax(fs[j], gs[j]))
    label = f"or({t.label},{s.label})" if t.label or s.label else ""
    return PartialType(variables, conds, gen, label)


def type_and(t: PartialType, s: PartialType) -> PartialType:
    """Joint type realized by (ā, b̄) iff ā realizes t or b̄ realizes s;
    a model omits it iff it omits at least one input.  Condition n is
    min(max of t's first n+1 conditions, max of s's first n+1 conditions)."""
    s = _rename_apart(t, s)
    variables = t.variables + s.variables

    def make(j):
        fs, gs = _padded(t, s, j + 1)
        return closed(fmin(fmax(Rat(ZERO), *fs), fmax(Rat(ZERO), *gs)))

    nfin = max(len(t.conds), len(s.conds))
    conds = tuple(make(j) for j in range(nfin))
    gen = make if not (t.is_finite and s.is_finite) else None
    label = f"and({t.label},{s.label})" if t.label or s.label else ""
    return PartialType(variables, conds, gen, label)


def omega_type(t: PartialType, n: int) -> PartialType:
    """Fragment on x_0..x_{n-1} of the chain type derived from a 1-type:
    value conditions φ_j(x_k) ≤ 1/k for j ≤ k (k ≥ 1) and chain conditions
    d(x_j, x_{j+1}) ≤ 2^{-j}.  A model realizes the 1-type iff some sequence
    in any dense subset realizes every fragment."""
    if len(t.variables) != 1:
        raise ValueError("omega_type requires a unary type")
    v, sort = t.variables[0]
    variables = tuple((f"x{k}", sort) for k in range(n))
    conds: list[Condition] = []
    for k in range(1, n):
        for j in range(k + 1):
            try:
                phi = _as_closed_formula(t.condition(j))
            except IndexError:
                break
            conds.append(normalize_condition(
                leq(subst(phi, v, Var(f"x{k}", sort)), Fraction(1, k))))
    for j in range(n - 1):
        conds.append(normalize_condition(
            leq(Dist(Var(f"x{j}", sort), Var(f"x{j+1}", sort)), Fraction(1, 2**j))))
    return PartialType(variables, tuple(conds), None,
                       f"omega({t.label},{n})" if t.label else f"omega({n})")


# --------------------------------------------------------------------------
# Uniform sequences

@dataclass(frozen=True)
class UniformSequence:
    """Formulas in m free variables sharing one modulus of uniform
    continuity; an optional generator extends the explicit list."""
    modulus: Modulus
    formulas: tuple[Formula, ...]
    arity: int
    generator: Callable[[int], Formula] | None = None

    def formula(self, i: int) -> Formula:
        if self.generator is not None and i >= len(self.formulas):
            return self.generator(i)
        return self.formulas[i]

    def member(self, n: int, count: int | None = None) -> PartialType:
        """Type t_n = { φ_i ≥ 2^{-n} } rendered as 2^{-n} ∸ φ_i = 0."""
        k = len(self.formulas) if count is None else count
        thr = Rat(Fraction(1, 2**n))
        sorts: dict[str, str | None] = {}  # a later formula's sort wins
        conds = []
        for i in range(k):
            phi = self.formula(i)
            sorts.update(var_sorts(phi))
            conds.append(closed(fmonus(thr, phi)))
        variables = tuple((v, sorts[v]) for v in sorted(sorts))
        return PartialType(variables, tuple(conds), None, f"uniform-member({n})")


def make_uniform(formulas, modulus: Modulus, sym=None,
                 generator=None, arity: int | None = None) -> UniformSequence:
    """Bundle formulas under a shared modulus; rejects (naming the offender)
    any formula whose derived modulus fails to dominate the shared one."""
    formulas = tuple(formulas)
    for i, phi in enumerate(formulas):
        if not formula_modulus(phi, sym).dominates(modulus):
            raise ValueError(
                f"formula {i} ({show(phi)}) violates the shared modulus")
    if arity is None:
        names: set[str] = set()
        for phi in formulas:
            names |= free_vars(phi)
        arity = len(names)
    return UniformSequence(modulus, formulas, arity, generator)
