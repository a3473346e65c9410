"""Oracles that never call the library code a verdict times.

- `frac_eval`: a brute-force `Fraction` evaluator of formula trees over a
  structure's integer tables (the reference semantics of the formula
  language, one recursive function);
- `iso_problems`: a numpy check that an index mapping is a bijection
  preserving every table exactly;
- `signature`: an isomorphism invariant (distance multiset and unary
  predicate profile per sort); different signatures prove that two
  structures are not isomorphic;
- `triangle_ok`: a direct scan of the triangle inequality."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

ZERO, ONE = Fraction(0), Fraction(1)


def _term(t, M, env):
    """(sort, point index) of a term."""
    kind = type(t).__name__
    if kind == "Var":
        return env[t.name]
    if kind == "Const":
        if t.name in env:
            return env[t.name]
        fn = M.functions.get(t.name)
        if fn is not None and not fn.arg_sorts:
            return fn.out_sort, int(fn.table[()])
        hits = [(s, sd.index[t.name]) for s, sd in M.sorts.items()
                if t.name in sd.index]
        if len(hits) != 1:
            raise KeyError(t.name)
        return hits[0]
    if kind == "App":
        fn = M.functions[t.fn]
        args = tuple(_term(a, M, env)[1] for a in t.args)
        return fn.out_sort, int(fn.table[args])
    raise TypeError(t)


def frac_eval(f, M, env) -> Fraction:
    """Exact value of formula f on M; env maps variable (and forge
    constant) names to (sort, point index)."""
    kind = type(f).__name__
    if kind == "Rat":
        return Fraction(f.value)
    if kind == "Dist":
        s, i = _term(f.left, M, env)
        _, j = _term(f.right, M, env)
        sd = M.sorts[s]
        return Fraction(int(sd.dmat[i, j]), sd.den)
    if kind == "Pred":
        pr = M.predicates[f.name]
        args = tuple(_term(a, M, env)[1] for a in f.args)
        return Fraction(int(pr.table[args]), pr.den)
    if kind == "Conn":
        v = [frac_eval(a, M, env) for a in f.args]
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
    if kind == "Quant":
        sort = f.sort or next(iter(M.sorts))
        vals = []
        for i in range(M.sorts[sort].size):
            sub = dict(env)
            sub[f.var] = (sort, i)
            vals.append(frac_eval(f.body, M, sub))
        return max(vals) if f.kind == "sup" else min(vals)
    raise TypeError(f)


def frac_eval_names(f, M, assignment: dict) -> Fraction:
    """frac_eval with variables given as point names of the unique sort."""
    s = next(iter(M.sorts))
    return frac_eval(f, M, {v: (s, M.sorts[s].index[p])
                            for v, p in assignment.items()})


def _cross_equal(a, da, b, db) -> np.ndarray:
    """a/da == b/db elementwise, in exact integer arithmetic."""
    a = np.asarray(a).astype(object)
    b = np.asarray(b).astype(object)
    return a * db == b * da


def iso_problems(A, B, idx: dict) -> list[str]:
    """Problems of the mapping idx[sort][i] = B-index of A's point i."""
    out = []
    idx = {s: np.asarray(idx.get(s, []), dtype=np.int64) for s in A.sorts}
    for s, sa in A.sorts.items():
        m, sb = idx[s], B.sorts.get(s)
        if sb is None or len(m) != sa.size or sb.size != sa.size or \
                sorted(m.tolist()) != list(range(sb.size)):
            return [f"not a bijection on sort {s}"]
    for s, sa in A.sorts.items():
        sb, m = B.sorts[s], idx[s]
        if not _cross_equal(sa.dmat, sa.den, sb.dmat[np.ix_(m, m)],
                            sb.den).all():
            out.append(f"metric of sort {s}")
    for name, fa in A.functions.items():
        fb = B.functions.get(name)
        if fb is None:
            out.append(f"function {name} missing")
            continue
        grid = np.ix_(*(idx[s] for s in fa.arg_sorts)) if fa.arg_sorts else ()
        if not (idx[fa.out_sort][fa.table] == fb.table[grid]).all():
            out.append(f"function {name}")
    for name, pa in A.predicates.items():
        pb = B.predicates.get(name)
        if pb is None:
            out.append(f"predicate {name} missing")
            continue
        grid = np.ix_(*(idx[s] for s in pa.arg_sorts))
        if not _cross_equal(pa.table, pa.den, pb.table[grid], pb.den).all():
            out.append(f"predicate {name}")
    return out


def witness_index(A, B, mapping: dict) -> dict:
    """Index form of a name-level witness mapping {sort: {a: b}}."""
    out = {}
    for s, sa in A.sorts.items():
        m = mapping.get(s, {})
        out[s] = [B.sorts[s].index.get(m.get(p), -1) for p in sa.points]
    return out


def signature(M) -> dict:
    """Per sort: the multiset of distances and of unary predicate value
    vectors, each value as an exact fraction."""
    out = {}
    for s, sd in M.sorts.items():
        vals, counts = np.unique(sd.dmat, return_counts=True)
        dist = tuple((Fraction(int(v), sd.den), int(c))
                     for v, c in zip(vals, counts))
        unary = sorted((n, p) for n, p in M.predicates.items()
                       if p.arg_sorts == (s,))
        prof = Counter(tuple(Fraction(int(p.table[i]), p.den)
                             for _, p in unary) for i in range(sd.size))
        out[s] = (dist, tuple(n for n, _ in unary), sorted(prof.items()))
    return out


def triangle_ok(dmat: np.ndarray) -> bool:
    """d(i, j) <= d(i, k) + d(k, j) for all i, j, k (scaled integers)."""
    return all(not (dmat > dmat[:, k:k + 1] + dmat[k:k + 1, :]).any()
               for k in range(len(dmat)))
