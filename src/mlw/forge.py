"""Finite forcing engine with certifying-structure semantics.

Conditions are triples (formula, constant index set, threshold) over Henkin
constants d0, d1, ...; every judgement (consistency, extension, meeting a
dense set) is decided by exhaustive search over a bank of finite structures
and is therefore *bank-relative*: a refusal means no bank witness, not a
proof of inconsistency.  Runs are deterministic: rational grids are walked
denominator-first, fresh constants take the lowest free index, bank models
are tried in declaration order, and unconstrained constants default to the
matching point of the enumeration."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import PartialType, below_one, type_from_spec
from .formulas import (Conn, Const, Dist, Formula, Quant, Rat, Var,
                       _memo_on_formula, absdiff, fmax, fmonus, free_vars,
                       map_terms, show, subst)
from .structures import (FiniteStructure, _compile, _first_hit, _on_one_den,
                         _plan, _satisfying, check_structure, eval_formula,
                         eval_table)
from .values import ONE, ZERO

_SCAN_CAP = 5_000_000  # largest exhaustive assignment scan
_MAX_CONSTANTS = 64  # Henkin constants a generic run may assign


# --------------------------------------------------------------------------
# Henkin-constant formulas

_DCONST = re.compile(r"^d(\d+)$")


def _henkin_var(c):
    m = isinstance(c, Const) and _DCONST.match(c.name)
    return Var(f"x{m.group(1)}") if m else c


@_memo_on_formula
def bind_constants(f: Formula) -> Formula:
    """Turn the named Henkin constants d<k> into the variables x<k> used
    for bank evaluation.  Each subformula object is bound once, so a
    condition conjoined to an already bound one binds only the new
    demand, and the bound object's summary is kept as well."""
    if type(f) is Conn:
        return Conn(f.op, tuple(map(bind_constants, f.args)), f.params)
    if type(f) is Quant:
        return Quant(f.kind, f.var, f.sort, bind_constants(f.body))
    return map_terms(f, _henkin_var)


def constant_indices(f: Formula) -> tuple[int, ...]:
    return tuple(sorted(int(v[1:]) for v in free_vars(bind_constants(f))))


def rename_constants(f: Formula, mapping) -> Formula:
    """Simultaneously rename d<i> -> d<mapping(i)>."""
    def fn(c):
        m = isinstance(c, Const) and _DCONST.match(c.name)
        return Const(f"d{mapping(int(m.group(1)))}") if m else c
    return map_terms(f, fn)


# --------------------------------------------------------------------------
# Conditions and the bank

@dataclass(frozen=True)
class ForcingCondition:
    """Demand formula(d̄_F) < eps.  Engine-made conditions are kept in
    threshold-1 normal form: formula = max of conjuncts each rescaled so
    its own threshold becomes 1."""
    formula: Formula
    F: tuple[int, ...] = ()
    eps: Fraction = ONE

    def __str__(self):
        return f"({show(self.formula)}, F={{{','.join(map(str, self.F))}}}, " \
               f"eps={self.eps})"


TRIVIAL = ForcingCondition(Rat(ZERO))


def _normalized(f: Formula, eps: Fraction) -> Formula:
    """Rescale so that (result < 1) iff (f < eps), exactly."""
    if eps >= 1:
        return f
    return below_one(f, eps)


def conjoin(p: ForcingCondition, f: Formula, eps) -> ForcingCondition:
    """p strengthened by the raw demand f < eps; the result is in
    threshold-1 normal form."""
    part = _normalized(f, Fraction(eps))
    if p.formula == TRIVIAL.formula and not p.F:
        newf = part
    else:
        base = p.formula if p.eps >= 1 else _normalized(p.formula, p.eps)
        newf = fmax(base, part)
    F = tuple(sorted(set(p.F) | set(constant_indices(f))))
    return ForcingCondition(newf, F, ONE)


class WitnessBank:
    """Named finite structures, tried in declaration order."""

    def __init__(self, models):
        self.models = dict(models)
        if not self.models:
            raise ValueError("bank must be nonempty")

    def names(self):
        return list(self.models)

    def __getitem__(self, name):
        return self.models[name]

    def items(self):
        return self.models.items()

    def validate(self) -> list[str]:
        out = []
        for name, M in self.items():
            out += [f"{name}: {line}" for line in check_structure(M)]
        return out


@dataclass(frozen=True)
class Witness:
    model: str
    assignment: dict  # index -> point name


@dataclass(frozen=True)
class BankRefusal:
    reason: str
    detail: str = ""


def _first_assignment(M: FiniteStructure, demands, idxs, fixed=None):
    """The first assignment of the constants idxs (point indices, in C
    order; the other constants at the points `fixed` names) at which each
    (formula, q, strict) of demands has its value at most q (below q when
    strict), or None.  The scan runs in blocks of the first constant's
    points, of sizes 1, 1, 2, 4, ..., and stops at the first block with a
    hit, so a model without one costs ⌈log₂ n⌉ + 1 evaluations of the
    cells that one full-table scan would evaluate.  One formula keeps its
    own plan; several are compiled together, so a subterm they share is
    evaluated once (see structures._satisfying)."""
    sort = M.only_sort()
    size = M.total_points() ** len(idxs)
    if size > _SCAN_CAP:
        raise ValueError(f"assignment scan too large ({size} combinations)")
    n = M.sorts[sort].size
    # blocks of 1, 1, 2, 4, ... points end at 1, 2, 4, ..., n
    stops = sorted({min(2 ** k, n) for k in range(n.bit_length() + 1)})
    blocks = map(np.arange, [0] + stops, stops)
    fs = [bind_constants(f) for f, _, _ in demands]
    plan = _compile(fs) if len(fs) > 1 else ([_plan(fs[0])], None)
    for rows, mask in _satisfying(
            plan, fs, M, [(f"x{i}", sort) for i in idxs],
            [bound for _, *bound in demands],
            {f"x{i}": p for i, p in (fixed or {}).items()}, blocks):
        hit = _first_hit(mask)
        if hit is not None:
            return (rows[hit[0]], *hit[1:]) if idxs else ()
    return None


def cond_check(p: ForcingCondition, B: WitnessBank,
               fixed: dict | None = None) -> Witness | BankRefusal:
    """First bank witness for p, models in declaration order, assignments in
    point order (C order over the free constants); bank-relative refusal
    otherwise (see _first_assignment)."""
    free = [i for i in p.F if not (fixed and i in fixed)]
    for name, M in B.items():
        try:
            hit = _first_assignment(M, [(p.formula, p.eps, True)], free,
                                    fixed)
        except KeyError:
            continue  # formula mentions symbols this model lacks
        if hit is not None:
            pts = M.sorts[M.only_sort()].points
            assign = dict(fixed or {})
            assign.update({i: pts[j] for i, j in zip(free, hit)})
            return Witness(name, {i: assign[i] for i in p.F})
    return BankRefusal("bank-relative inconsistency",
                       "no assignment in any bank model satisfies the demand")


def extends(p: ForcingCondition, q: ForcingCondition, B: WitnessBank) -> bool:
    """q extends p: F^p ⊆ F^q and, in every bank model, every assignment
    with ψ^q < ε^q also has ψ^p < ε^p (bank-relative entailment): none
    has ε^p ∸ ψ^p = 0 as well.  ψ^p lies in [0, 1], so an ε^p past 1
    holds everywhere."""
    if not set(p.F) <= set(q.F):
        return False
    if p.eps > 1:
        return True
    escape = [(q.formula, q.eps, True), (fmonus(Rat(p.eps), p.formula),
                                         ZERO, False)]
    return all(_first_assignment(M, escape, q.F) is None
               for _, M in B.items())


def permute_condition(h, p: ForcingCondition) -> ForcingCondition:
    return ForcingCondition(rename_constants(p.formula, h.apply),
                            tuple(sorted(h.apply(i) for i in p.F)), p.eps)


@dataclass(frozen=True)
class Permutation:
    mapping: tuple = ()  # ((i, j), ...) finite support, bijective

    def __post_init__(self):
        src = [i for i, _ in self.mapping]
        dst = [j for _, j in self.mapping]
        if len(set(src)) != len(src) or sorted(src) != sorted(dst):
            raise ValueError("mapping must be a finitely supported bijection")

    def apply(self, i: int) -> int:
        for a, b in self.mapping:
            if a == i:
                return b
        return i

    def inverse(self) -> "Permutation":
        return Permutation(tuple((b, a) for a, b in self.mapping))

    @staticmethod
    def of(d: dict) -> "Permutation":
        return Permutation(tuple(sorted(d.items())))


def compatible(p: ForcingCondition, q: ForcingCondition, B: WitnessBank):
    """(True, common extension, witness) via the max-construction, or
    (False, None, refusal) with scan evidence."""
    common = ForcingCondition(fmax(p.formula, q.formula),
                              tuple(sorted(set(p.F) | set(q.F))),
                              min(p.eps, q.eps))
    res = cond_check(common, B)
    if isinstance(res, Witness):
        return True, common, res
    return False, None, res


# --------------------------------------------------------------------------
# Dense sets

@dataclass(frozen=True)
class DecideValue:
    formula: Formula
    F: tuple
    eps: Fraction

    def __str__(self):
        return f"decide {show(self.formula)} F=<{','.join(map(str, self.F))}> " \
               f"eps={self.eps}"


@dataclass(frozen=True)
class HenkinWitness:
    formula: Formula  # free: d̄_F plus exactly one witness variable
    F: tuple

    def __str__(self):
        return f"witness {show(self.formula)} F=<{','.join(map(str, self.F))}>"


@dataclass(frozen=True)
class MetricDecide:
    i: int
    j: int
    k: int

    def __str__(self):
        return f"metric {self.i} {self.j} {self.k}"


@dataclass(frozen=True)
class AxiomWitness:
    formula: Formula  # sup-inf sentence or two-free-variable body
    F: tuple
    k: int

    def __str__(self):
        return f"axiom {show(self.formula)} F=<{','.join(map(str, self.F))}> " \
               f"k={self.k}"


@dataclass(frozen=True)
class OmitFragment:
    type_name: str
    type_obj: PartialType
    F: tuple
    n: int
    eps: Fraction

    def __str__(self):
        return f"omit {self.type_name} F=<{','.join(map(str, self.F))}> " \
               f"n={self.n} eps={self.eps}"


def _grid():
    """Rationals of [0,1] by denominator then numerator."""
    yield ZERO
    yield ONE
    q = 2
    while True:
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
        q += 1


# --------------------------------------------------------------------------
# Generic runs

@dataclass
class StepLog:
    index: int
    spec: str
    extension: str  # raw demand conjoined, human-readable
    model: str
    new_assignment: dict
    note: str
    ok: bool


@dataclass
class GenericRun:
    steps: list
    final: ForcingCondition
    witness: Witness
    decided: dict  # (i, j) -> (midpoint, radius) from metric decisions
    values: dict   # formula text -> decided value r
    ok: bool
    diagnosis: str = ""


class _Engine:
    def __init__(self, B: WitnessBank):
        self.B = B
        self.model_name = B.names()[0]
        self.M = B[self.model_name]
        self.assign: dict = {}
        self.cond = TRIVIAL
        self.visits: dict = {}
        self.decided_pairs: dict = {}
        self.decided_values: dict = {}

    # -- witness upkeep ----------------------------------------------------
    def _points(self):
        return self.M.sorts[self.M.only_sort()].points

    def _value(self, f: Formula):
        return eval_formula(bind_constants(f), self.M,
                            {f"x{i}": p for i, p in self.assign.items()})

    def fresh(self) -> int:
        i = 0
        while i in self.assign or i in self.cond.F:
            i += 1
        if len(self.assign) >= _MAX_CONSTANTS:
            raise ValueError("constant budget exhausted")
        return i

    def ensure(self, idxs):
        """Default assignment for unconstrained constants: the point of the
        enumeration with the same index (wrapped)."""
        pts = self._points()
        new = {}
        for i in idxs:
            if i not in self.assign:
                self.assign[i] = pts[i % len(pts)]
                new[i] = self.assign[i]
        return new

    def adopt(self, cond, idxs) -> tuple[dict, bool, str]:
        """Try to install `cond` as current: keep old assignments, search the
        given (new or re-searchable) indexes; fall back to a wider search in
        each bank model."""
        fixed = {i: p for i, p in self.assign.items() if i not in idxs}
        res = cond_check(cond, self.B, fixed=fixed)
        if isinstance(res, BankRefusal):
            res = cond_check(cond, self.B)  # full re-search, every model
        if isinstance(res, BankRefusal):
            return {}, False, res.detail or res.reason
        if res.model != self.model_name:
            self.model_name = res.model
            self.M = self.B[res.model]
        delta = {i: p for i, p in res.assignment.items()
                 if self.assign.get(i) != p}
        self.assign.update(res.assignment)
        self.cond = cond
        return delta, True, ""

    # -- dense sets ---------------------------------------------------------
    def meet(self, spec) -> StepLog:
        idx = len(self.visits.setdefault("#steps", [])) + 1
        self.visits["#steps"].append(spec)
        if isinstance(spec, MetricDecide):
            spec_d = DecideValue(Dist(Const(f"d{spec.i}"), Const(f"d{spec.j}")),
                                 (spec.i, spec.j), Fraction(1, spec.k))
            log = self._decide(idx, spec_d, radius_key=(spec.i, spec.j))
            log.spec = str(spec)
            return log
        if isinstance(spec, DecideValue):
            return self._decide(idx, spec)
        if isinstance(spec, HenkinWitness):
            return self._witness(idx, spec)
        if isinstance(spec, AxiomWitness):
            return self._axiom(idx, spec)
        if isinstance(spec, OmitFragment):
            return self._omit(idx, spec)
        raise TypeError(f"unknown dense set spec {spec!r}")

    def _decide(self, idx, spec: DecideValue, radius_key=None) -> StepLog:
        new = self.ensure(spec.F)
        v = self._value(spec.formula)
        r = None
        for cand in _grid():
            if abs(v - cand) < spec.eps:
                r = cand
                break
        cond = conjoin(self.cond, absdiff(spec.formula, Rat(r)), spec.eps)
        delta, ok, why = self.adopt(cond, spec.F)
        new.update(delta)
        note = f"r={r}" if ok else f"no extension: {why}"
        if ok and radius_key is not None:
            self.decided_pairs[radius_key] = (r, spec.eps)
        if ok:
            self.decided_values[show(spec.formula)] = r
        return StepLog(idx, str(spec), f"|{show(spec.formula)} - {r}| < "
                       f"{spec.eps}", self.model_name, new, note, ok)

    def _witness(self, idx, spec: HenkinWitness) -> StepLog:
        new = self.ensure(spec.F)
        bound_f = bind_constants(spec.formula)
        slot = sorted(free_vars(spec.formula))  # constants are Const nodes
        if len(slot) != 1:
            return StepLog(idx, str(spec), "", self.model_name, {},
                           f"need exactly one witness slot, got {sorted(slot)}",
                           False)
        w = slot[0]
        den, tab = eval_table(bound_f, self.M, [(w, self.M.only_sort())],
                              {f"x{i}": p for i, p in self.assign.items()})
        best = Fraction(int(tab.min()), den)
        key = show(spec.formula)
        visit = self.visits.setdefault(("w", key), 0)
        self.visits[("w", key)] = visit + 1
        slack = Fraction(1, 2 ** (1 + visit))
        j = self.fresh()
        demand = min(best + slack, ONE)
        inst = subst(spec.formula, w, Const(f"d{j}"))
        cond = conjoin(self.cond, inst, demand)
        delta, ok, why = self.adopt(cond, (j,))
        new.update(delta)
        note = (f"j={j} bound={best} slack={slack}" if ok
                else f"no extension: {why}")
        return StepLog(idx, str(spec), f"{show(inst)} < {demand}",
                       self.model_name, new, note, ok)

    def _axiom(self, idx, spec: AxiomWitness) -> StepLog:
        f = spec.formula
        while isinstance(f, Quant):  # strip sup x . inf y . body
            f = f.body
        fv = sorted(free_vars(f))  # constants are Const nodes, not variables
        if len(fv) != 2:
            return StepLog(idx, str(spec), "", self.model_name, {},
                           f"axiom body must have two open variables, got {fv}",
                           False)
        u, w = fv
        new = self.ensure(spec.F)
        notes = []
        conj = []
        ok = True
        for i in spec.F:
            inst_u = subst(f, u, Const(f"d{i}"))
            den, tab = eval_table(bind_constants(inst_u), self.M,
                                  [(w, self.M.only_sort())],
                                  {f"x{a}": p for a, p in self.assign.items()})
            best = Fraction(int(tab.min()), den)
            j = self.fresh()
            inst = subst(inst_u, w, Const(f"d{j}"))
            demand = min(best + Fraction(1, spec.k), ONE)
            cond = conjoin(self.cond, inst, demand)
            delta, got, why = self.adopt(cond, (j,))
            new.update(delta)
            if not got:
                ok = False
                notes.append(f"i={i}: no extension: {why}")
                break
            conj.append(f"{show(inst)} < {demand}")
            notes.append(f"i={i}: j={j} bound={best}")
        return StepLog(idx, str(spec), "; ".join(conj), self.model_name, new,
                       "; ".join(notes), ok)

    def _omit(self, idx, spec: OmitFragment) -> StepLog:
        t = spec.type_obj
        if len(t.variables) != len(spec.F):
            return StepLog(idx, str(spec), "", self.model_name, {},
                           f"type arity {len(t.variables)} != |F|", False)
        new = self.ensure(spec.F)
        sub = {name: Const(f"d{i}")
               for (name, _), i in zip(t.variables, spec.F)}
        for j in range(spec.n):
            phi = t.condition(j).formula
            for name, c in sub.items():
                phi = subst(phi, name, c)
            blocked = self._try_block(phi, spec)
            if blocked is not None:
                delta, detail = blocked
                new.update(delta)
                return StepLog(idx, str(spec),
                               f"({spec.eps} -. {show(phi)}) < {spec.eps/2}",
                               self.model_name, new,
                               f"blocked condition {j}: {detail}", True)
        return StepLog(idx, str(spec), "", self.model_name, new,
                       f"failed to block any of the first {spec.n} fragment "
                       f"conditions at threshold {spec.eps} (bank-relative)",
                       False)

    def _try_block(self, phi: Formula, spec: OmitFragment):
        """Search reassignments of d̄_F (others pinned) keeping the current
        condition and pushing phi >= eps; conjoin the blocking demand."""
        block = fmonus(Rat(spec.eps), phi)
        probe = conjoin(self.cond, block, spec.eps / 2)
        fixed = {i: p for i, p in self.assign.items() if i not in spec.F}
        hit = _first_assignment(self.M, [(probe.formula, probe.eps, True),
                                         (block, ZERO, False)],
                                spec.F, fixed)
        if hit is None:
            return None
        pts = self.M.sorts[self.M.only_sort()].points
        delta = {}
        for i, j in zip(spec.F, hit):
            if self.assign.get(i) != pts[j]:
                delta[i] = pts[j]
            self.assign[i] = pts[j]
        self.cond = probe
        return delta, "pushed to >= " + str(spec.eps)


def build_generic(schedule, B: WitnessBank) -> GenericRun:
    """Fold the dense-set schedule from the trivial condition; deterministic;
    stops folding on a hard failure, records blocking failures and goes on."""
    eng = _Engine(B)
    steps = []
    ok = True
    diagnosis = ""
    for spec in schedule:
        log = eng.meet(spec)
        steps.append(log)
        if not log.ok:
            if isinstance(spec, OmitFragment):
                continue  # reported per step, run continues
            ok = False
            diagnosis = f"step {log.index}: {log.note}"
            break
    wit = Witness(eng.model_name, dict(sorted(eng.assign.items())))
    return GenericRun(steps, eng.cond, wit, dict(eng.decided_pairs),
                      dict(eng.decided_values),
                      ok and all(s.ok for s in steps), diagnosis)


# --------------------------------------------------------------------------
# Pre-model extraction

def extract_premodel(run: GenericRun):
    """(structure, report): points d0..dm for the indices in metric-decided
    scope, metric = decided midpoints with recorded radii in meta; the
    report checks the triangle inequality within the summed radii."""
    if not run.decided:
        raise ValueError("run decided no distances")
    scope = sorted({i for pair in run.decided for i in pair})
    mids = {}
    rads = {}
    for (i, j), (r, eps) in run.decided.items():
        mids[(i, j)] = mids[(j, i)] = r
        rads[(i, j)] = rads[(j, i)] = eps
    for a in scope:
        mids[(a, a)] = ZERO
        rads[(a, a)] = ZERO
    missing = [(a, b) for a in scope for b in scope
               if a < b and (a, b) not in mids]
    if missing:
        raise ValueError(f"undecided pair in scope: d{missing[0][0]}, "
                         f"d{missing[0][1]}")
    names = [f"d{i}" for i in scope]
    M = FiniteStructure.build(
        {"H": names},
        {"H": _on_one_den(mids[(i, j)] for i in scope for j in scope)},
        {}, {}, {},
        {"label": "premodel", "density": {"H": None},
         "radius": {f"d{i},d{j}": str(rads[(i, j)])
                    for i in scope for j in scope if i < j}})
    report = []
    for a in scope:
        for b in scope:
            for c in scope:
                slackv = rads[(a, b)] + rads[(a, c)] + rads[(c, b)]
                if mids[(a, b)] > mids[(a, c)] + mids[(c, b)] + slackv:
                    report.append(
                        f"triangle beyond recorded radii: d(d{a},d{b}) = "
                        f"{mids[(a, b)]} > {mids[(a, c)]} + {mids[(c, b)]} "
                        f"+ {slackv} via d{c}")
    return M, report


# --------------------------------------------------------------------------
# Schedules and transcripts

def _parse_F(tok: str):
    body = tok[len("F=<"):-1] if tok.startswith("F=<") else tok[2:]
    body = body.strip("<>")
    return tuple(int(x) for x in body.split(",") if x.strip() != "")


def parse_schedule(text: str):
    """One dense set per line: `decide <formula> F=<i,...> eps=p/q`,
    `witness <formula> F=<...>`, `metric i j k`,
    `axiom <formula> F=<...> k=<n>`, `omit <type> F=<...> n=<n> eps=p/q`."""
    from .formulas import parse_formula
    from .values import parse_rational
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verb, rest = line.split(None, 1)
        toks = rest.split()
        kw = {}
        while toks and re.match(r"^(F=|eps=|k=|n=)", toks[-1]):
            tok = toks.pop()
            key = tok.split("=", 1)[0]
            kw[key] = tok
        body = " ".join(toks)
        if verb == "metric":
            i, j, k = (int(x) for x in rest.split())
            out.append(MetricDecide(i, j, k))
        elif verb == "decide":
            out.append(DecideValue(parse_formula(body), _parse_F(kw["F"]),
                                   parse_rational(kw["eps"].split("=", 1)[1])))
        elif verb == "witness":
            out.append(HenkinWitness(parse_formula(body), _parse_F(kw["F"])))
        elif verb == "axiom":
            out.append(AxiomWitness(parse_formula(body), _parse_F(kw["F"]),
                                    int(kw["k"].split("=", 1)[1])))
        elif verb == "omit":
            out.append(OmitFragment(
                body, type_from_spec(body), _parse_F(kw["F"]),
                int(kw["n"].split("=", 1)[1]),
                parse_rational(kw["eps"].split("=", 1)[1])))
        else:
            raise ValueError(f"unknown schedule verb {verb!r}")
    return out


def transcript(run: GenericRun) -> str:
    lines = []
    for s in run.steps:
        assigned = " ".join(f"d{i}={p}" for i, p in sorted(s.new_assignment.items()))
        lines.append(f"step {s.index} [{'ok' if s.ok else 'FAIL'}] {s.spec} | "
                     f"{s.extension} | model={s.model}"
                     + (f" | {assigned}" if assigned else "")
                     + (f" | {s.note}" if s.note else ""))
    lines.append(f"final eps={run.final.eps} "
                 f"constants={len(run.witness.assignment)} "
                 f"model={run.witness.model}")
    lines.append(f"met={sum(s.ok for s in run.steps)}/{len(run.steps)} "
                 f"verdict={'ok' if run.ok else 'partial'} (bank-relative)")
    if run.diagnosis:
        lines.append(f"diagnosis: {run.diagnosis}")
    return "\n".join(lines) + "\n"


def verify_run(run: GenericRun, B: WitnessBank) -> list[str]:
    """Re-verify soundness: the recorded witness satisfies the final
    condition exactly in the recorded bank model."""
    M = B[run.witness.model]
    v = eval_formula(bind_constants(run.final.formula), M,
                     {f"x{i}": p for i, p in run.witness.assignment.items()
                      if i in run.final.F})
    if v < run.final.eps:
        return []
    return [f"final condition not satisfied by recorded witness: value {v}"]


# --------------------------------------------------------------------------
# Homogeneity experiment

def homogeneity_experiment(B: WitnessBank, pairs: int = 50, seed: int = 0):
    """For random pairs of bank-certified conditions, relocate the second
    condition's constants off the first's by a finitely supported
    permutation and test compatibility via the max-construction.  Returns
    (successes, rows)."""
    import random
    rng = random.Random(seed)
    name0 = B.names()[0]
    M = B[name0]
    sd = M.sorts[M.only_sort()]
    pts = sd.points

    def random_condition(base_idx):
        i, j = base_idx, base_idx + 1
        a, b = rng.choice(pts), rng.choice(pts)
        dv = sd.dist(sd.index[a], sd.index[b])
        kind = rng.randrange(3)
        f = Dist(Const(f"d{i}"), Const(f"d{j}"))
        if kind == 0:
            demand, eps = absdiff(f, Rat(dv)), Fraction(1, 4)
        elif kind == 1:
            demand, eps = fmonus(f, Rat(dv)), Fraction(1, rng.randrange(2, 5))
        else:
            demand, eps = fmonus(Rat(dv), f), Fraction(1, rng.randrange(2, 5))
        return conjoin(TRIVIAL, demand, eps)

    rows = []
    wins = 0
    for t in range(pairs):
        p = random_condition(0)
        q = random_condition(rng.randrange(0, 2))
        shift = max(p.F) + 1 + rng.randrange(0, 3)
        h = Permutation.of({i: i + shift for i in q.F}
                           | {i + shift: i for i in q.F})
        qh = permute_condition(h, q)
        ok, common, ev = compatible(p, qh, B)
        wins += ok
        rows.append({"pair": t, "h": dict(h.mapping), "compatible": ok,
                     "evidence": ev})
    return wins, rows
