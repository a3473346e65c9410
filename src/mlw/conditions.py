"""Conditions, partial types, pairing combinators, chain types, uniform
sequences of formulas, the height-gap predicates, and the partial-type
registry (`build_type`) with the builders of the paper's types."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .formulas import (App, Const, Dist, Formula, Pred, Rat, Var,
                       _max_var_index, _memo_on_formula, absdiff, affine,
                       fmax, fmin, fmonus, formula_modulus, free_vars, ftsum,
                       inf, neg, show, subst, sup, var_sorts)
from .moduli import Modulus
from .trees import (FiniteTree, _alphabet_cut, box_nodes, ell,
                    enumerate_trees, node_name)
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
    return open_cond(below_one(c.formula, c.bound, eta), ONE)


def below_one(f: Formula, eps: Fraction, eta: Fraction | None = None
              ) -> Formula:
    """affine(1/η, (η-ε)/η, f) = clamp01((f - ε + η)/η), which reaches 1
    exactly when f ≥ ε: below 1 iff f < ε.  η is ε/2 unless given."""
    if eps <= 0:
        raise ValueError("open condition needs a positive bound")
    if eta is None:
        eta = eps / 2
    if not (0 < eta <= eps):
        raise ValueError("eta must satisfy 0 < eta <= bound")
    return affine(1 / eta, (eta - eps) / eta, f)


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
        if n < 0:
            raise ValueError(f"fragment size must be >= 0, got {n}")
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


@_memo_on_formula  # one formula object, and so one plan, per condition
def _closed_formula(c: Condition) -> Formula:
    n = normalize_condition(c)
    if n.kind != "closed":
        raise ValueError("expected a closed condition")
    return n.formula


def _padded(t: PartialType, s: PartialType, n: int):
    def get(p, j):
        try:
            return _closed_formula(p.condition(j))
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
    if n < 1:
        raise ValueError(f"omega_type needs n >= 1, got {n}")
    v, sort = t.variables[0]
    variables = tuple((f"x{k}", sort) for k in range(n))
    conds: list[Condition] = []
    for k in range(1, n):
        for j in range(k + 1):
            try:
                phi = _closed_formula(t.condition(j))
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
    """Formulas sharing one modulus of uniform continuity."""
    modulus: Modulus
    formulas: tuple[Formula, ...]

    def member(self, n: int) -> PartialType:
        """Type t_n = { φ_i ≥ 2^{-n} } rendered as 2^{-n} ∸ φ_i = 0."""
        thr = Rat(Fraction(1, 2**n))
        sorts: dict[str, str | None] = {}  # a later formula's sort wins
        conds = []
        for phi in self.formulas:
            sorts.update(var_sorts(phi))
            conds.append(closed(fmonus(thr, phi)))
        variables = tuple((v, sorts[v]) for v in sorted(sorts))
        return PartialType(variables, tuple(conds), None, f"uniform-member({n})")


def make_uniform(formulas, modulus: Modulus) -> UniformSequence:
    """Bundle formulas under a shared modulus; rejects (naming the offender)
    any formula whose derived modulus fails to dominate the shared one."""
    formulas = tuple(formulas)
    for i, phi in enumerate(formulas):
        if not formula_modulus(phi).dominates(modulus):
            raise ValueError(
                f"formula {i} ({show(phi)}) violates the shared modulus")
    return UniformSequence(modulus, formulas)


# --------------------------------------------------------------------------
# Height-gap predicates

def pred_gap(m: int, sort: str | None = None) -> tuple[Formula, Formula]:
    """(low, high) gap pair in the free variable x0: low vanishes exactly on
    nodes of height <= m (given every node of height m+1 in range keeps a
    successor), with minimum 1/((m+1)(m+2)) elsewhere; high is that
    constant shaved by low."""
    if m < 1:
        raise ValueError("gap index must be >= 1")
    x0, x1 = Var("x0", sort), Var("x1", sort)
    d = Dist(x0, x1)
    low = sup(x1, fmin(fmonus(Rat(Fraction(1, m + 1)), d), d), sort)
    high = fmonus(Rat(Fraction(1, (m + 1) * (m + 2))), low)
    return low, high


# --------------------------------------------------------------------------
# The partial-type registry

def _s(j: int) -> Fraction:
    return Fraction(1, j + 1)


def _sizes(kind: str, **sizes: int):
    """Reject a negative size argument of the type builder of a kind."""
    for name, v in sizes.items():
        if v < 0:
            raise ValueError(f"type kind {kind!r} needs {name} >= 0, got {v}")


def _pinned(x0, j: int) -> Condition:
    """x0 sits at distance 1/(j+1) from its level-j prefix."""
    return closed(absdiff(Dist(App(f"f{j}", (x0,)), x0), Rat(_s(j))))


def type_branch(sort: str | None = None) -> PartialType:
    """Escaping type: x sits at distance 1/(n+1) from each of its level
    prefixes, as an infinite-branch would."""
    x0 = Var("x0", sort)
    return PartialType((("x0", sort),), (), lambda j: _pinned(x0, j),
                       "s0_branch")


def type_escape(sort: str | None = None) -> PartialType:
    """The level-1 projection avoids every length-1 node."""
    x0 = Var("x0", sort)

    def gen(n):
        return closed(neg(Dist(App("f1", (x0,)), Const(f"<{n}>"))))
    return PartialType((("x0", sort),), (), gen, "s0_escape")


def _chi_succ(m: int, x0, x1) -> Formula:
    """Crisp indicator of x1 being a height-(m+1) point above x0: the error
    sum is quantized away from (0, 1/((m+1)(m+2))), so the clamp is exact."""
    err = ftsum(Dist(App(f"f{m}", (x1,)), x0),
                ftsum(Dist(App(f"f{m+1}", (x1,)), x1),
                      absdiff(Dist(App(f"f{m}", (x1,)), x1), Rat(_s(m)))))
    return affine(-(m + 1) * (m + 2), 1, err)


def type_terminal(m: int, n: int, sort: str | None = None) -> PartialType:
    """Depth-n fragment of the height-m terminal-node type: pinned height,
    unbounded extensions above (strictly between m and n), and no coloured
    height-(m+1) successor with colour index <= n."""
    if m < 1:
        raise ValueError("terminal type needs height >= 1")
    _sizes("s_m", n=n)
    x0, x1 = Var("x0", sort), Var("x1", sort)
    conds = [closed(Dist(App(f"f{m}", (x0,)), x0)),
             closed(absdiff(Dist(App(f"f{m-1}", (x0,)), x0),
                            Rat(Fraction(1, m))))]
    for k in range(m + 1, n):
        conds.append(closed(inf(x1, ftsum(
            Dist(App(f"f{m}", (x1,)), x0),
            absdiff(Dist(App(f"f{k}", (x1,)), x1), Rat(_s(k)))), sort)))
    for j in range(n + 1):
        conds.append(closed(sup(x1, fmin(
            _chi_succ(m, x0, x1),
            fmonus(Rat(ONE), Pred(f"P{m+1}_{j}", (x1,)))), sort)))
    return PartialType((("x0", sort),), tuple(conds), None, f"s_{m}[{n}]")


def _delta_capped(A: FiniteTree, B, cap: int) -> int:
    nodes_b = B.nodes if isinstance(B, FiniteTree) else frozenset(B)
    for j in range(cap):
        if _alphabet_cut(A.nodes, j) != _alphabet_cut(nodes_b, j):
            return j
    return cap


def type_tree_member(S: FiniteTree, k: int, treedepth: int = 2,
                     treebranch: int = 2) -> PartialType:
    """Depth-k fragment of the joint type of a point x escaping along the
    tree y ~ S: level prefixes of x are members of y, y's membership values
    match S on every node of weight < k, y's distances to the enumerated
    tree constants match S's to precision 1/(k+1), and x is pinned strictly
    above level k."""
    _sizes("tS", k=k)
    S = S if isinstance(S, FiniteTree) else FiniteTree.of(S)
    x0, x1 = Var("x0", "D1"), Var("x1", "D2")
    conds = [_pinned(x0, j) for j in range(k + 1)]
    for j in range(k + 1):
        conds.append(closed(Pred("ee", (App(f"f{j}", (x0,)), x1))))
    for t in box_nodes(max(k - 1, 0), k):
        if ell(t) >= k:
            continue
        phi = Pred("ee", (Const(node_name(t)), x1))
        if t in S:
            conds.append(closed(phi))
        else:
            conds.append(closed(absdiff(phi, Rat(Fraction(1, ell(t) + 2)))))
    for i, Sn in enumerate(enumerate_trees(treedepth, treebranch)):
        eps = Fraction(1, _delta_capped(Sn, S, k) + 1)
        conds.append(closed(fmonus(
            absdiff(Dist(Const(f"S{i}"), x1), Rat(eps)), Rat(_s(k)))))
    return PartialType((("x0", "D1"), ("x1", "D2")), tuple(conds), None,
                       f"tS[{k}]")


def type_pair_member(k: int, c: str = "c") -> PartialType:
    """Depth-k fragment of the pair-tree analogue: level prefixes of x pair
    with prefixes of the constant inside y, and x is pinned above level k."""
    _sizes("tR", k=k)
    x0, x1 = Var("x0", "D1"), Var("x1", "D3")
    conds = [_pinned(x0, j) for j in range(k + 1)]
    for j in range(k + 1):
        conds.append(closed(Pred("ee3", (App(f"f{j}", (x0,)),
                                         App(f"f{j}", (Const(c),)), x1))))
    return PartialType((("x0", "D1"), ("x1", "D3")), tuple(conds), None,
                       f"tR[{k}]")


def _gpow(k: int, t):
    for _ in range(k):
        t = App("g", (t,))
    return t


def type_bridge(m: int, n: int) -> PartialType:
    """Depth-n fragment, matched to type_terminal(m, n), of the discrete
    side of the bridge: x has g-iterate preimages up to depth n - m, and no
    g-predecessor whose image carries a colour with index <= n."""
    _sizes("t_T2", m=m, n=n)
    x0, x1 = Var("x0", "X"), Var("x1", "X")
    conds = []
    for k in range(1, n - m + 1):
        conds.append(closed(inf(x1, Dist(x0, _gpow(k, x1)), "X")))
    for j in range(n + 1):
        conds.append(closed(fmonus(Rat(ONE), inf(x1, fmax(
            Dist(x0, App("g", (x1,))),
            Pred(f"P{m+1}_{j}", (App("h", (x1,)),))), "X"))))
    return PartialType((("x0", "X"),), tuple(conds), None, f"t_X[{m},{n}]")


_TYPE_BUILDERS = {
    "s0_branch": type_branch,
    "s0_escape": type_escape,
    "s_m": type_terminal,
    "tS": type_tree_member,
    "tR": type_pair_member,
    "t_T2": type_bridge,
}


_ARG_TYPES = {"int": int, "FiniteTree": FiniteTree}


def build_type(kind: str, *args, **kw) -> PartialType:
    """The partial type of the named kind.  Arguments that do not fit the
    kind's parameters (count, or an int or tree parameter given something
    else) raise a ValueError naming the kind and its parameters."""
    b = _TYPE_BUILDERS.get(kind)
    if b is None:
        raise ValueError(f"unknown type kind {kind!r}; "
                         f"known: {sorted(_TYPE_BUILDERS)}")
    sig = inspect.signature(b)
    try:
        given = sig.bind(*args, **kw).arguments
    except TypeError:
        given = None
    if given is None or any(
            not isinstance(v, _ARG_TYPES.get(sig.parameters[k].annotation,
                                              object))
            for k, v in given.items()):
        params = ", ".join(p.name if p.default is p.empty
                           else f"{p.name}={p.default!r}"
                           for p in sig.parameters.values())
        raise ValueError(f"type kind {kind!r} takes ({params}), "
                         f"got {', '.join(map(repr, args)) or 'nothing'}")
    return b(*args, **kw)


def type_from_spec(spec: str) -> PartialType:
    """The partial type a spec names: `kind`, `kind:arg,arg` or
    `kind(arg,arg)`, integer-looking arguments passed as ints."""
    spec = spec.strip()
    if "(" in spec:
        kind, rest = spec.split("(", 1)
        args = rest.rstrip(")").strip()
    elif ":" in spec:
        kind, args = spec.split(":", 1)
    else:
        kind, args = spec, ""
    vals = [int(a) if a.strip().lstrip("-").isdigit() else a.strip()
            for a in args.split(",") if a.strip() != ""]
    return build_type(kind.strip(), *vals)
