"""Formula syntax: terms, [0,1]-valued formulas, parsing, printing,
derived moduli, substitution, and prenex normal form.

Connectives are the piecewise-linear family max, min, neg (u -> 1-u),
monus (u,v -> u ∸ v), cut_m (u -> u ∸ 1/m), and clamp-affine
(u -> clamp01(a*u + b)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from types import MappingProxyType
from typing import NamedTuple

from .moduli import Modulus
from .values import as_value, parse_rational, show_rational


# --------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str
    sort: str | None = None


@dataclass(frozen=True)
class Const:
    name: str
    sort: str | None = None


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple


Term = Var | Const | App


# --------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class Rat:
    value: Fraction

    def __post_init__(self):
        as_value(self.value)


@dataclass(frozen=True)
class Dist:
    left: Term
    right: Term


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple


@dataclass(frozen=True)
class Conn:
    op: str  # max | min | neg | monus | cut | affine
    args: tuple
    params: tuple = ()


@dataclass(frozen=True)
class Quant:
    kind: str  # sup | inf
    var: str
    sort: str | None
    body: "Formula"


Formula = Rat | Dist | Pred | Conn | Quant


# --------------------------------------------------------------------------
# Builders

def fmax(*args) -> Formula:
    return args[0] if len(args) == 1 else Conn("max", tuple(args))


def fmin(*args) -> Formula:
    return args[0] if len(args) == 1 else Conn("min", tuple(args))


def neg(u) -> Formula:
    return Conn("neg", (u,))


def fmonus(u, v) -> Formula:
    return Conn("monus", (u, v))


def cut(m: int, u) -> Formula:
    if m < 1:
        raise ValueError("cut index must be >= 1")
    return Conn("cut", (u,), (m,))


def affine(a, b, u) -> Formula:
    return Conn("affine", (u,), (Fraction(a), Fraction(b)))


def ftsum(u, v) -> Formula:
    """Truncated sum min(1, u+v) = 1 - ((1-u) ∸ v)."""
    return neg(fmonus(neg(u), v))


def absdiff(u, v) -> Formula:
    """|u - v| = max(u ∸ v, v ∸ u)."""
    return fmax(fmonus(u, v), fmonus(v, u))


def sup(var, body, sort=None) -> Formula:
    name, s = (var.name, var.sort) if isinstance(var, Var) else (var, sort)
    return Quant("sup", name, s if sort is None else sort, body)


def inf(var, body, sort=None) -> Formula:
    name, s = (var.name, var.sort) if isinstance(var, Var) else (var, sort)
    return Quant("inf", name, s if sort is None else sort, body)


# --------------------------------------------------------------------------
# Structural helpers: one traversal that reads a formula, one that rebuilds it

def _memo_on_formula(fn):
    """fn(f) computed once per formula object and kept in f.__dict__, as
    functools.cached_property keeps an attribute: the nodes are frozen
    dataclasses whose eq and hash read their fields only, so the stored
    result changes neither.  fn's result is shared by every later call
    and must not be mutated; memo.key names it in f.__dict__."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def memo(f):
        out = f.__dict__.get(key)
        if out is None:
            out = f.__dict__[key] = fn(f)
        return out
    memo.key = key
    return memo


class Summary(NamedTuple):
    """What the library reads off a formula's syntax, from one traversal;
    read-only, since summary(f) hands the same one to every caller."""
    free: MappingProxyType  # free variable -> its first sort annotation
    bound: frozenset  # names of the quantified variables
    depth: int  # quantifier nesting depth
    prenex: bool  # every quantifier sits in the leading prefix
    symbols: MappingProxyType  # ("function" | "predicate", name), first use


def _visit_term(t: Term, scope, free: dict, symbols: dict):
    if type(t) is Var:
        # the first annotation wins; an unannotated occurrence waits for one
        if t.name not in scope and free.get(t.name) is None:
            free[t.name] = t.sort
    elif type(t) is App:
        symbols["function", t.fn] = None
        for a in t.args:
            _visit_term(a, scope, free, symbols)


@_memo_on_formula
def summary(f: Formula) -> Summary:
    """Free variables (in order of first occurrence) with their sorts,
    bound names, quantifier depth, prenexness and symbols of f, walked
    once per formula object."""
    free: dict[str, str | None] = {}
    bound: set[str] = set()
    symbols: dict[tuple[str, str], None] = {}
    mixed = False  # a connective with a quantifier below it

    def go(g, scope) -> int:  # the quantifier depth of g
        nonlocal mixed
        kind = type(g)
        if kind is Conn:
            depth = 0
            for a in g.args:
                d = go(a, scope)
                if d > depth:
                    depth = d
            if depth:
                mixed = True
            return depth
        if kind is Dist:
            _visit_term(g.left, scope, free, symbols)
            _visit_term(g.right, scope, free, symbols)
            return 0
        if kind is Quant:
            bound.add(g.var)
            return go(g.body, scope | {g.var}) + 1
        if kind is Pred:
            symbols["predicate", g.name] = None
            for a in g.args:
                _visit_term(a, scope, free, symbols)
            return 0
        if kind is Rat:
            return 0
        raise TypeError(g)

    depth = go(f, frozenset())
    return Summary(MappingProxyType(free), frozenset(bound), depth,
                   not mixed, MappingProxyType(symbols))


def term_vars(t: Term) -> set[str]:
    free: dict[str, str | None] = {}
    _visit_term(t, (), free, {})
    return set(free)


def free_vars(f: Formula) -> set[str]:
    return set(summary(f).free)


def var_sorts(f: Formula) -> dict[str, str | None]:
    """Sort annotation of every free variable (first annotation wins)."""
    return dict(summary(f).free)


def is_prenex(f: Formula) -> bool:
    return summary(f).prenex


def map_terms(f: Formula, leaf, quant=None) -> Formula:
    """f rebuilt with every variable and constant of its terms replaced by
    leaf(t).  A quantifier q becomes quant(q) when quant is given;
    otherwise its body is rebuilt the same way."""
    def term(t):
        if isinstance(t, App):
            return App(t.fn, tuple(term(a) for a in t.args))
        return leaf(t)

    def go(g):
        if isinstance(g, Dist):
            return Dist(term(g.left), term(g.right))
        if isinstance(g, Pred):
            return Pred(g.name, tuple(term(a) for a in g.args))
        if isinstance(g, Conn):
            return Conn(g.op, tuple(go(a) for a in g.args), g.params)
        if isinstance(g, Quant):
            return quant(g) if quant else Quant(g.kind, g.var, g.sort,
                                                go(g.body))
        return g
    return go(f)


def subst(f: Formula, name: str, repl: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable."""
    def leaf(t):
        return repl if isinstance(t, Var) and t.name == name else t

    def quant(q):
        if q.var == name:
            return q
        names = term_vars(repl)
        if q.var in names:
            fresh = _fresh(q.var, free_vars(q.body) | names | {name})
            body = subst(q.body, q.var, Var(fresh, q.sort))
            return Quant(q.kind, fresh, q.sort, subst(body, name, repl))
        return Quant(q.kind, q.var, q.sort, subst(q.body, name, repl))
    return map_terms(f, leaf, quant)


def rename_var(f: Formula, old: str, new: str) -> Formula:
    sorts = var_sorts(f)
    return subst(f, old, Var(new, sorts.get(old)))


def _fresh(base: str, taken: set[str]) -> str:
    i = 0
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


# --------------------------------------------------------------------------
# Pretty-printing (round-trips through parse_formula)

def show_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name if t.sort is None else f"{t.name}:{t.sort}"
    if isinstance(t, Const):
        return t.name
    return f"{t.fn}({', '.join(show_term(a) for a in t.args)})"


def show(f: Formula) -> str:
    if isinstance(f, Rat):
        return show_rational(f.value)
    if isinstance(f, Dist):
        return f"d({show_term(f.left)}, {show_term(f.right)})"
    if isinstance(f, Pred):
        return f"{f.name}({', '.join(show_term(a) for a in f.args)})"
    if isinstance(f, Conn):
        inner = ", ".join(show(a) for a in f.args)
        if f.op == "cut":
            return f"cut{f.params[0]}({inner})"
        if f.op == "affine":
            a, b = f.params
            return f"affine({show_rational(a)}, {show_rational(b)}, {inner})"
        return f"{f.op}({inner})"
    if isinstance(f, Quant):
        v = f.var if f.sort is None else f"{f.var}:{f.sort}"
        return f"{f.kind} {v} . {show(f.body)}"
    raise TypeError(f)


# --------------------------------------------------------------------------
# Parser

class SyntaxErrorAt(ValueError):
    def __init__(self, msg, pos, text):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<node><[0-9, ]*>)|(?P<punct>[(),.:\-]))"
)

_VAR = re.compile(r"^x\d+$")
_CUT = re.compile(r"^cut(\d+)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise SyntaxErrorAt("unexpected character", pos, text)
                break
            for kind in ("num", "id", "node", "punct"):
                if m.group(kind) is not None:
                    self.toks.append((kind, m.group(kind), m.start(kind)))
                    break
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise SyntaxErrorAt(f"expected {value!r}, found {val!r}", pos, self.text)

    def formula(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return Rat(parse_rational(val))
        if kind != "id":
            raise SyntaxErrorAt(f"expected formula, found {val!r}", pos, self.text)
        if val in ("sup", "inf"):
            self.next()
            vkind, vname, vpos = self.next()
            if vkind != "id" or not _VAR.match(vname):
                raise SyntaxErrorAt("expected variable after quantifier", vpos, self.text)
            sort = None
            if self.peek()[1] == ":":
                self.next()
                sort = self.next()[1]
            self.expect(".")
            return Quant(val, vname, sort, self.formula())
        if val in ("max", "min"):
            self.next()
            args = self.arglist(self.formula)
            if len(args) < 2:
                raise SyntaxErrorAt(f"{val} needs >= 2 arguments", pos, self.text)
            return Conn(val, tuple(args))
        if val == "neg":
            self.next()
            (arg,) = self.arglist(self.formula, exactly=1)
            return Conn("neg", (arg,))
        if val == "monus":
            self.next()
            args = self.arglist(self.formula, exactly=2)
            return Conn("monus", tuple(args))
        if val == "tsum":
            self.next()
            args = self.arglist(self.formula, exactly=2)
            return ftsum(args[0], args[1])
        if val == "absdiff":
            self.next()
            args = self.arglist(self.formula, exactly=2)
            return absdiff(args[0], args[1])
        m = _CUT.match(val)
        if m:
            self.next()
            (arg,) = self.arglist(self.formula, exactly=1)
            return cut(int(m.group(1)), arg)
        if val == "affine":
            self.next()
            self.expect("(")
            a = self.signed_rational()
            self.expect(",")
            b = self.signed_rational()
            self.expect(",")
            body = self.formula()
            self.expect(")")
            return Conn("affine", (body,), (a, b))
        if val == "d":
            self.next()
            args = self.arglist(self.term, exactly=2)
            return Dist(args[0], args[1])
        # predicate atom
        self.next()
        args = self.arglist(self.term)
        return Pred(val, tuple(args))

    def signed_rational(self) -> Fraction:
        if self.peek()[1] == "-":
            self.next()
            return -parse_rational(self.next()[1])
        return parse_rational(self.next()[1])

    def term(self) -> Term:
        kind, val, pos = self.next()
        if kind == "node":
            return Const(val.replace(" ", ""))
        if kind != "id":
            raise SyntaxErrorAt(f"expected term, found {val!r}", pos, self.text)
        if _VAR.match(val):
            sort = None
            if self.peek()[1] == ":":
                self.next()
                sort = self.next()[1]
            return Var(val, sort)
        if self.peek()[1] == "(":
            return App(val, tuple(self.arglist(self.term)))
        return Const(val)

    def arglist(self, sub, exactly=None):
        self.expect("(")
        args = [sub()]
        while self.peek()[1] == ",":
            self.next()
            args.append(sub())
        self.expect(")")
        if exactly is not None and len(args) != exactly:
            raise SyntaxErrorAt(f"expected {exactly} arguments", self.peek()[2], self.text)
        return args


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise SyntaxErrorAt(f"trailing input {val!r}", pos, text)
    return f


# --------------------------------------------------------------------------
# Moduli

class SymbolModuli:
    """Declared per-argument moduli for function and predicate symbols."""

    def __init__(self, functions=None, predicates=None):
        self.functions = dict(functions or {})
        self.predicates = dict(predicates or {})

    def fn(self, name: str) -> Modulus:
        if name not in self.functions:
            raise KeyError(f"function symbol {name!r} has no declared modulus")
        return self.functions[name]

    def pred(self, name: str) -> Modulus:
        if name not in self.predicates:
            raise KeyError(f"predicate symbol {name!r} has no declared modulus")
        return self.predicates[name]


def _term_modulus(t: Term, v: str, sym: SymbolModuli) -> Modulus | None:
    """Value-change modulus of a [0,1]-bounded path... for terms we track the
    metric displacement of the term when variable v moves; None if v absent."""
    if isinstance(t, Var):
        return Modulus.lipschitz(1) if t.name == v else None
    if isinstance(t, Const):
        return None
    mods = [m for m in (_term_modulus(a, v, sym) for a in t.args) if m is not None]
    if not mods:
        return None
    inner = mods[0]
    for m in mods[1:]:
        inner = inner.plus(m)
    return sym.fn(t.fn).compose(inner)


def _modulus_for_var(f: Formula, v: str, sym: SymbolModuli) -> Modulus:
    if isinstance(f, Rat):
        return Modulus.constant()
    if isinstance(f, Dist):
        out = Modulus.constant()
        for t in (f.left, f.right):
            m = _term_modulus(t, v, sym)
            if m is not None:
                out = out.plus(m)
        return out
    if isinstance(f, Pred):
        out = Modulus.constant()
        pm = sym.pred(f.name)
        for t in f.args:
            m = _term_modulus(t, v, sym)
            if m is not None:
                out = out.plus(pm.compose(m))
        return out
    if isinstance(f, Conn):
        mods = [_modulus_for_var(a, v, sym) for a in f.args]
        if f.op in ("max", "min", "neg", "cut"):
            out = mods[0]
            for m in mods[1:]:
                out = out.maxwith(m)
            return out
        if f.op == "monus":
            return mods[0].plus(mods[1])
        if f.op == "affine":
            return mods[0].scale(f.params[0])
        raise ValueError(f.op)
    if isinstance(f, Quant):
        # quantifiers preserve the matrix modulus
        return _modulus_for_var(f.body, v, sym) if f.var != v else Modulus.constant()
    raise TypeError(f)


def formula_modulus(f: Formula, sym: SymbolModuli | None = None) -> Modulus:
    """Modulus valid for perturbing any single free-variable assignment."""
    sym = sym or SymbolModuli()
    out = Modulus.constant()
    for v in sorted(free_vars(f)):
        out = out.maxwith(_modulus_for_var(f, v, sym))
    return out


# --------------------------------------------------------------------------
# Prenex normal form

_PRENEX_MONOTONE = {"max", "min", "cut"}


class PrenexUnsupported(ValueError):
    pass


def prenex(f: Formula) -> Formula:
    """Pull all quantifiers to the front.  Exact for the lattice fragment:
    max/min, neg, monus with quantifier-free second argument, cut, and
    clamp-affine with nonnegative slope.  Requires nonempty sorts."""
    info = summary(f)
    used = set(info.free)
    counter = [_max_var_index(info.bound | used) + 1]

    def claim(v: str) -> str:
        """Register a prefix variable, renaming on clash (grammar-conforming)."""
        if v not in used:
            used.add(v)
            return v
        nv = f"x{counter[0]}"
        counter[0] += 1
        used.add(nv)
        return nv

    def go(g: Formula) -> tuple[list[tuple[str, str, str | None]], Formula]:
        if isinstance(g, (Rat, Dist, Pred)):
            return [], g
        if isinstance(g, Quant):
            v = claim(g.var)
            body = g.body if v == g.var else rename_var(g.body, g.var, v)
            prefix, body = go(body)
            return [(g.kind, v, g.sort)] + prefix, body
        if isinstance(g, Conn):
            if g.op == "neg":
                prefix, body = go(g.args[0])
                flipped = [("inf" if k == "sup" else "sup", v, s) for k, v, s in prefix]
                return flipped, Conn("neg", (body,))
            if g.op == "affine":
                a = g.params[0]
                prefix, body = go(g.args[0])
                if a < 0 and prefix:
                    prefix = [("inf" if k == "sup" else "sup", v, s) for k, v, s in prefix]
                return prefix, Conn("affine", (body,), g.params)
            if g.op == "monus":
                pre2, body2 = go(g.args[1])
                if pre2:
                    raise PrenexUnsupported(
                        f"monus second argument is quantified: {show(g)}")
                prefix, body = go(g.args[0])
                return prefix, Conn("monus", (body, body2))
            if g.op in _PRENEX_MONOTONE:
                prefix = []
                bodies = []
                for a in g.args:
                    p, b = go(a)
                    prefix.extend(p)
                    bodies.append(b)
                return prefix, Conn(g.op, tuple(bodies), g.params)
            raise PrenexUnsupported(f"connective {g.op} not in the lattice fragment")
        raise TypeError(g)

    prefix, body = go(f)
    out = body
    for kind, var, sort in reversed(prefix):
        out = Quant(kind, var, sort, out)
    return out


def _max_var_index(names) -> int:
    out = -1
    for v in names:
        if v.startswith("x") and v[1:].isdigit():
            out = max(out, int(v[1:]))
    return out
