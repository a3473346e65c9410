"""Realization search, realization trees, isomorphism search, and
elementary-equivalence evidence over finite structures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import Condition, PartialType, normalize_condition
from .formulas import Formula, Quant, _modulus_for_var, summary
from .structures import FiniteStructure, eval_table
from .values import ONE, ZERO


def _closed_formula(c: Condition) -> Formula:
    n = normalize_condition(c)
    if n.kind != "closed":
        raise ValueError("expected a closed condition")
    return n.formula


def _resolve_vars(t: PartialType, M: FiniteStructure):
    return [(v, s or M.only_sort()) for v, s in t.variables]


# --------------------------------------------------------------------------
# Realization

def realizes(M: FiniteStructure, t: PartialType, n: int | None = None,
             tol: Fraction = ZERO) -> list[tuple[str, ...]]:
    """All tuples whose every fragment condition evaluates ≤ tol, in
    lexicographic point-index order."""
    variables = _resolve_vars(t, M)
    conds = t.conds if n is None else t.fragment(n)
    dims = tuple(M.sorts[s].size for _, s in variables)
    mask = np.ones(dims, dtype=bool)
    for c in conds:
        if not mask.any():
            break
        den, table = eval_table(_closed_formula(c), M, variables)
        mask &= table * tol.denominator <= tol.numerator * den
    out = []
    for combo in np.argwhere(mask):
        out.append(tuple(M.sorts[s].points[i]
                         for (_, s), i in zip(variables, combo)))
    return out


@dataclass(frozen=True)
class TreeReport:
    level_counts: tuple[int, ...]  # nodes per level, root = level 0
    died_at: int | None  # first empty level, None if the tree reaches depth
    depth: int

    @property
    def has_full_path(self) -> bool:
        return self.died_at is None


def realization_tree(M: FiniteStructure, t: PartialType, depth: int,
                     chain_sort: str | None = None) -> TreeReport:
    """Levels of the chain-realization tree for a unary type: a level-k node
    is a k-tuple satisfying the k-th chain fragment (values within 1/i at
    stage i, consecutive points within 2^{1-i}).  Counts are computed by
    last-point dynamics, so wide levels stay cheap."""
    if len(t.variables) != 1:
        raise ValueError("realization_tree requires a unary type")
    v, sort = t.variables[0]
    sort = sort or M.only_sort()
    sd = M.sorts[sort]
    n = sd.size

    phis = []
    j = 0
    while True:
        try:
            c = t.condition(j)
        except IndexError:
            break
        den, vec = eval_table(_closed_formula(c), M, [(v, sort)])
        phis.append((den, vec))
        j += 1
        if t.generator is not None and j > depth:
            break

    counts = [1]
    alive = np.ones(n, dtype=object)  # tuples of length 1 ending at each point
    # stage k = 1: no value or chain constraints yet
    died = None
    for k in range(1, depth + 1):
        if k == 1:
            current = alive.copy()
        else:
            # chain step: d(x_{k-2}, x_{k-1}) <= 2^{2-k}
            thr = Fraction(1, 2 ** (k - 2))
            adj = sd.dmat * thr.denominator <= thr.numerator * sd.den
            current = np.array(
                [int((alive * adj[:, i]).sum()) for i in range(n)], dtype=object)
        # value constraints at stage k-1 (1-indexed stage k-1 >= 1)
        stage = k - 1
        if stage >= 1:
            ok = np.ones(n, dtype=bool)
            for j, (den, vec) in enumerate(phis):
                if j > stage:
                    break
                ok &= vec * stage <= den
            current = current * ok
        total = int(np.sum(current))
        counts.append(total)
        if total == 0 and died is None:
            died = k
            break
        alive = current
    return TreeReport(tuple(counts), died, depth)


# --------------------------------------------------------------------------
# Isomorphism witnesses

@dataclass(frozen=True)
class Sublanguage:
    functions: frozenset = frozenset()
    predicates: frozenset = frozenset()

    @staticmethod
    def full(M: FiniteStructure) -> "Sublanguage":
        return Sublanguage(frozenset(M.functions), frozenset(M.predicates))


@dataclass(frozen=True)
class IsoWitness:
    mapping: dict  # sort -> dict point name of A -> point name of B


@dataclass(frozen=True)
class Refusal:
    reason: str
    detail: str = ""


def _unequal(a, da: int, b, db: int):
    """Mask of a / da != b / db over integer tables, exact in int64: with
    g = gcd(da, db), p = da / g and q = db / g, a / da == b / db exactly
    when p | a, q | b and a / p == b / q."""
    g = math.gcd(da, db)
    p, q = da // g, db // g
    return (a % p != 0) | (b % q != 0) | (a // p != b // q)


def _mismatches(A, B, L0: Sublanguage, idx) -> list[tuple]:
    """Where the partial map idx (sort -> {A index: B index}) fails to
    preserve the metric or a table of L0, compared on its domain only.
    Returns (kind, name, first A-side index tuple) per failing sort or
    symbol: the metric of each sort of idx first (pairs in the map's
    order), then the functions and the predicates of L0 by name (argument
    tuples in increasing index order; a function counts only where its
    value lies in the domain)."""
    out = []
    dom = {}
    for s, sd in A.sorts.items():
        m = idx.get(s, {})
        keys = np.array(sorted(m), dtype=np.intp)
        image = np.full(sd.size, -1, dtype=np.intp)
        image[keys] = [m[i] for i in keys.tolist()]
        dom[s] = keys, image
    for s, m in idx.items():
        sa, sb = A.sorts[s], B.sorts[s]
        ia = np.fromiter(m, np.intp, len(m))
        ib = np.fromiter(m.values(), np.intp, len(m))
        bad = _unequal(sa.dmat[np.ix_(ia, ia)], sa.den,
                       sb.dmat[np.ix_(ib, ib)], sb.den)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            out.append(("metric", s, (ia[i], ia[j])))
    tables = [("function", name, A.functions[name], B.functions[name])
              for name in sorted(L0.functions)]
    tables += [("predicate", name, A.predicates[name], B.predicates[name])
               for name in sorted(L0.predicates)]
    for kind, name, ta, tb in tables:
        keys = [dom[s][0] for s in ta.arg_sorts]
        va = ta.table[np.ix_(*keys)]
        vb = tb.table[np.ix_(*(dom[s][1][k]
                               for s, k in zip(ta.arg_sorts, keys)))]
        if kind == "function":
            image = dom[ta.out_sort][1][va]
            bad = (image >= 0) & (image != vb)
        else:
            bad = _unequal(va, ta.den, vb, tb.den)
        if bad.any():
            hit = np.argwhere(bad)[0]
            out.append((kind, name, tuple(k[c] for k, c in zip(keys, hit))))
    return out


def _metric_line(A, s, where) -> str:
    i, j = where
    return (f"metric not preserved at ({A.sorts[s].points[i]}, "
            f"{A.sorts[s].points[j]})")


def verify_iso(A: FiniteStructure, B: FiniteStructure, L0: Sublanguage,
               w: IsoWitness) -> list[str]:
    """Exactness check of a witness, table by table."""
    idx: dict[str, dict[int, int]] = {}
    for s, sd in A.sorts.items():
        m = w.mapping.get(s, {})
        if set(m) != set(sd.points) or \
                set(m.values()) != set(B.sorts[s].points):
            return [f"mapping is not a bijection on sort {s}"]
        idx[s] = dict(sorted((sd.index[a], B.sorts[s].index[b])
                             for a, b in m.items()))
    out = []
    for kind, name, where in _mismatches(A, B, L0, idx):
        if kind == "metric":
            out.append(_metric_line(A, name, where))
            continue
        table = (A.functions if kind == "function" else A.predicates)[name]
        args = ", ".join(A.sorts[s].points[i]
                         for s, i in zip(table.arg_sorts, where))
        out.append(f"{kind} {name} not preserved at ({args})")
    return out


def find_iso(A: FiniteStructure, B: FiniteStructure,
             L0: Sublanguage | None = None):
    """Backtracking isomorphism search with invariant pruning.

    Returns an IsoWitness (re-verified table by table) or a Refusal naming
    a distinguishing invariant."""
    if L0 is None:
        L0 = Sublanguage(frozenset(A.functions) & frozenset(B.functions),
                         frozenset(A.predicates) & frozenset(B.predicates))
    if set(A.sorts) != set(B.sorts):
        return Refusal("sort mismatch", f"{sorted(A.sorts)} vs {sorted(B.sorts)}")
    for s in A.sorts:
        if A.sorts[s].size != B.sorts[s].size:
            return Refusal("point-count invariant",
                           f"sort {s}: {A.sorts[s].size} vs {B.sorts[s].size}")
    joint = _joint_colours(A, B, L0)
    if isinstance(joint, Refusal):
        return joint
    col_a, col_b = joint

    order = []
    for s in A.sorts:
        hist: dict[int, int] = {}
        for c in col_a[s]:
            hist[c] = hist.get(c, 0) + 1
        idxs = sorted(range(A.sorts[s].size),
                      key=lambda i, s=s: (hist[col_a[s][i]], col_a[s][i], i))
        order.extend((s, i) for i in idxs)
    cand = {}
    for s in A.sorts:
        for i in range(A.sorts[s].size):
            cand[(s, i)] = [j for j in range(B.sorts[s].size)
                            if col_b[s][j] == col_a[s][i]]

    unary_fns = [(name, A.functions[name], B.functions[name])
                 for name in sorted(L0.functions)
                 if len(A.functions[name].arg_sorts) == 1]
    assigned: dict[tuple[str, int], int] = {}
    used: dict[str, set[int]] = {s: set() for s in A.sorts}

    def consistent(s, i, j):
        sa, sb = A.sorts[s], B.sorts[s]
        for (s2, i2), j2 in assigned.items():
            if s2 == s and int(sa.dmat[i, i2]) * sb.den != int(sb.dmat[j, j2]) * sa.den:
                return False
        for name, fa, fb in unary_fns:
            if fa.arg_sorts == (s,):
                img = (fa.out_sort, int(fa.table[i]))
                if img in assigned and assigned[img] != int(fb.table[j]):
                    return False
                if img == (s, i) and int(fb.table[j]) != j:
                    return False
            for (s2, i2), j2 in assigned.items():
                if fa.arg_sorts == (s2,) and (fa.out_sort, int(fa.table[i2])) == (s, i):
                    if int(fb.table[j2]) != j:
                        return False
        return True

    def search(k):
        if k == len(order):
            return True
        s, i = order[k]
        for j in cand[(s, i)]:
            if j in used[s]:
                continue
            if consistent(s, i, j):
                assigned[(s, i)] = j
                used[s].add(j)
                if search(k + 1):
                    return True
                del assigned[(s, i)]
                used[s].remove(j)
        return False

    if not search(0):
        return Refusal("backtracking exhausted",
                       "no bijection preserves the metric and symbol tables")
    mapping = {s: {A.sorts[s].points[i]: B.sorts[s].points[assigned[(s, i)]]
                   for i in range(A.sorts[s].size)} for s in A.sorts}
    w = IsoWitness(mapping)
    bad = verify_iso(A, B, L0, w)
    if bad:
        return Refusal("witness failed re-verification", "; ".join(bad))
    return w


def _joint_colours(A, B, L0):
    """Refine invariant colours over both structures simultaneously so that
    equal colours mean equal invariants; Refusal on histogram mismatch."""
    def init(M):
        out = {}
        for s, sd in M.sorts.items():
            rows = []
            for i in range(sd.size):
                preds = tuple(
                    (name, Fraction(int(M.predicates[name].table[i]),
                                    M.predicates[name].den))
                    for name in sorted(L0.predicates)
                    if M.predicates[name].arg_sorts == (s,))
                consts = tuple(
                    name for name in sorted(L0.functions)
                    if M.functions[name].arg_sorts == ()
                    and M.functions[name].out_sort == s
                    and int(M.functions[name].table[()]) == i)
                row = tuple(sorted(Fraction(int(x), sd.den) for x in sd.dmat[i]))
                rows.append((preds, consts, row))
            out[s] = rows
        return out

    ia, ib = init(A), init(B)
    col_a, col_b = {}, {}
    for s in A.sorts:
        order = {v: k for k, v in enumerate(sorted(set(ia[s]) | set(ib[s])))}
        col_a[s] = [order[v] for v in ia[s]]
        col_b[s] = [order[v] for v in ib[s]]

    unary = [(name, A.functions[name], B.functions[name])
             for name in sorted(L0.functions)
             if len(A.functions[name].arg_sorts) == 1]

    def step(M, col):
        out = {}
        for s, sd in M.sorts.items():
            rows = []
            for i in range(sd.size):
                fimg = tuple((name, col[fa.out_sort if M is A else fb.out_sort]
                              [int((fa if M is A else fb).table[i])])
                             for name, fa, fb in unary
                             if (fa if M is A else fb).arg_sorts == (s,))
                neigh = tuple(sorted(
                    (Fraction(int(sd.dmat[i, j]), sd.den), col[s][j])
                    for j in range(sd.size)))
                rows.append((col[s][i], fimg, neigh))
            out[s] = rows
        return out

    while True:
        ra, rb = step(A, col_a), step(B, col_b)
        na, nb = {}, {}
        changed = False
        for s in A.sorts:
            order = {v: k for k, v in enumerate(sorted(set(ra[s]) | set(rb[s])))}
            na[s] = [order[v] for v in ra[s]]
            nb[s] = [order[v] for v in rb[s]]
            if na[s] != col_a[s] or nb[s] != col_b[s]:
                changed = True
        col_a, col_b = na, nb
        for s in A.sorts:
            ha: dict[int, int] = {}
            hb: dict[int, int] = {}
            for c in col_a[s]:
                ha[c] = ha.get(c, 0) + 1
            for c in col_b[s]:
                hb[c] = hb.get(c, 0) + 1
            if ha != hb:
                diff = next(c for c in sorted(set(ha) | set(hb))
                            if ha.get(c, 0) != hb.get(c, 0))
                return Refusal(
                    "label-count invariant",
                    f"sort {s}: invariant class {diff} has {ha.get(diff, 0)} "
                    f"points in A but {hb.get(diff, 0)} in B")
        if not changed:
            return col_a, col_b


def eq_evidence(A: FiniteStructure, B: FiniteStructure, L0: Sublanguage,
                eps: Fraction, w: IsoWitness, f: Formula) -> Fraction:
    """Bound δ with |f^A − f^B| ≤ δ, from an isomorphism w between ε-dense
    common substructures: moving every variable to the substructure costs at
    most the sum of per-variable value changes at radius ε, on each side."""
    bad = verify_iso_on_domain(A, B, L0, w)
    if bad:
        raise ValueError("witness fails exactness: " + "; ".join(bad))
    info = summary(f)
    for kind, name in info.symbols:
        if name not in (L0.functions if kind == "function" else L0.predicates):
            raise ValueError(f"symbol {name} outside the sublanguage")
    if not info.prenex:
        raise ValueError("eq_evidence requires a prenex formula")
    sym = A.symbol_moduli()
    total = ZERO
    # prenex: every bound variable is in the prefix
    for v in sorted(set(info.free) | info.bound):
        total += _modulus_for_var(_matrix(f), v, sym).omega(eps)
    return min(ONE, 2 * total)


def _matrix(f: Formula) -> Formula:
    while isinstance(f, Quant):
        f = f.body
    return f


def verify_iso_on_domain(A, B, L0, w: IsoWitness) -> list[str]:
    """Exactness of w on its (possibly partial) domain: metric, and symbol
    tables whenever all arguments and values stay inside the domain."""
    idx = {}
    for s, m in w.mapping.items():
        try:
            idx[s] = {A.sorts[s].index[a]: B.sorts[s].index[b]
                      for a, b in m.items()}
        except KeyError as e:
            return [f"unknown point {e} in mapping for sort {s}"]
        if len(set(idx[s].values())) != len(idx[s]):
            return [f"mapping not injective on sort {s}"]
    for kind, name, where in _mismatches(A, B, L0, idx)[:1]:
        if kind == "metric":
            return [_metric_line(A, name, where)]
        return [f"{kind} {name} not preserved on the domain"]
    return []
