"""Realization search, realization trees, isomorphism search, and
elementary-equivalence evidence over finite structures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .formulas import Formula, Quant, _modulus_for_var, summary
from .structures import (_CERT_CELLS, FiniteStructure, _align, _ball_merges,
                         _compile, _first_hit, _max_numerator, _satisfying,
                         _sorted_agreement, _ultrametric_order, eval_table)
from .values import ONE, ZERO


def _resolve_vars(t: "PartialType", M: FiniteStructure):
    return [(v, s or M.only_sort()) for v, s in t.variables]


# --------------------------------------------------------------------------
# Realization

def realizes(M: FiniteStructure, t: "PartialType", n: int | None = None,
             tol: Fraction = ZERO) -> list[tuple[str, ...]]:
    """All tuples whose every fragment condition evaluates ≤ tol, in
    lexicographic point-index order.  The conditions are evaluated in
    turn through one plan (see structures._satisfying), each later one at
    the rows of the first variable that the earlier ones leave only."""
    variables = _resolve_vars(t, M)
    forms, *plan = _conditions_plan(t, n)
    ((rows, mask),) = _satisfying(plan, forms, M, variables,
                                  [(tol, False)] * len(forms))
    hits = np.argwhere(mask)
    if rows is not None:
        hits[:, 0] = rows[hits[:, 0]]
    cols = [map(M.sorts[s].points.__getitem__, hits[:, j].tolist())
            for j, (_, s) in enumerate(variables)]
    return list(zip(*cols)) if cols else [()] * len(hits)


def _conditions_plan(t: "PartialType", n: int | None):
    """(forms, roots, free): the closed forms of t's conditions (its first
    n, or all of them when n is None) and their plan (structures._compile),
    compiled once per type object and n and kept on t, as formulas keep
    theirs."""
    plans = t.__dict__.setdefault("_memo_conditions_plan", {})
    if n not in plans:
        from .conditions import _closed_formula
        forms = [_closed_formula(c)
                 for c in (t.conds if n is None else t.fragment(n))]
        plans[n] = (forms, *_compile(forms))
    return plans[n]


@dataclass(frozen=True)
class TreeReport:
    level_counts: tuple[int, ...]  # nodes per level, root = level 0
    died_at: int | None  # first empty level, None if the tree reaches depth
    depth: int

    @property
    def has_full_path(self) -> bool:
        return self.died_at is None


def realization_tree(M: FiniteStructure, t: "PartialType",
                     depth: int) -> TreeReport:
    """Levels of the chain-realization tree for a unary type: a level-k node
    is a k-tuple satisfying the k-th chain fragment (values within 1/i at
    stage i, consecutive points within 2^{1-i}).  A level is counted by
    the chains ending at each point: the previous level's counts times the
    0/1 matrix of the chain step, in Python ints, masked by the values, so
    wide levels stay cheap and no count wraps around."""
    if len(t.variables) != 1:
        raise ValueError("realization_tree requires a unary type")
    from .conditions import _closed_formula
    v, sort = t.variables[0]
    sort = sort or M.only_sort()
    sd = M.sorts[sort]
    phis = [eval_table(_closed_formula(c), M, [(v, sort)])
            for c in t.fragment(depth)]
    alive = np.ones(sd.size, dtype=object)  # the chains ending at each point
    counts, died = [1], None
    for k in range(1, depth + 1):
        if k > 1:  # the chain step d(x_{k-2}, x_{k-1}) <= 2^{2-k}, then the
            # values at stage k - 1: conditions 0 .. k - 1 within 1/(k - 1)
            alive = alive @ (sd.dmat <= _max_numerator(
                Fraction(1, 2 ** (k - 2)), sd.den))
            for den, vec in phis[:k]:
                alive *= vec <= _max_numerator(Fraction(1, k - 1), den)
        counts.append(int(alive.sum()))
        if not counts[-1]:
            died = k
            break
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


def _scaled(da: int, a, db: int, b):
    """Tables a / da and b / db as integers on one exact scale, through
    _align, whose int64 holds the scaled values of a table within [-den,
    den]: at differing dens, a table past that is scaled in Python ints."""
    if da != db:
        a, b = (t if not t.size or -d <= t.min() and t.max() <= d
                else t.astype(object) for t, d in ((a, da), (b, db)))
    return _align((da, a), (db, b))[1:]


def _mismatches(A, B, L0: Sublanguage, idx) -> list[tuple]:
    """Where the partial map idx (sort -> (A indices, B indices), its pairs
    in order) fails to preserve the metric or a table of L0, compared on
    its domain only.  Returns (kind, name, first A-side index tuple) per
    failing sort or symbol: the metric of each sort of idx first (pairs in
    the map's order), then the functions and the predicates of L0 by name
    (argument tuples in increasing index order; a function counts only
    where its value lies in the domain).  The metric is compared in blocks
    of rows of about _CERT_CELLS entries, each gathered from B's rows as it
    is compared, up to the first block with a mismatch."""
    out, dom = [], {}
    for s, sd in A.sorts.items():
        ia, ib = idx.get(s, (np.zeros(0, np.intp),) * 2)
        image = np.full(sd.size, -1, dtype=np.intp)
        image[ia] = ib
        dom[s] = np.sort(ia), image
    for s, (ia, ib) in idx.items():
        sa, sb = A.sorts[s], B.sorts[s]
        # a whole sort in index order (as verify_iso passes it) needs no copy
        whole = len(ia) == sa.size and (ia == np.arange(sa.size)).all()
        k = max(1, _CERT_CELLS // max(len(ia), 1))
        for r in range(0, len(ia), k):
            rows = sa.dmat[r:r + k] if whole else \
                np.take(sa.dmat[ia[r:r + k]], ia, axis=1)
            x, y = _scaled(sa.den, rows, sb.den,
                           np.take(sb.dmat[ib[r:r + k]], ib, axis=1))
            hit = _first_hit(x != y)
            if hit is not None:
                out.append(("metric", s, (ia[r + hit[0]], ia[hit[1]])))
                break
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
            bad = np.not_equal(*_scaled(ta.den, va, tb.den, vb))
        hit = _first_hit(bad)
        if hit is not None:
            out.append((kind, name, tuple(k[c] for k, c in zip(keys, hit))))
    return out


def _metric_line(A, s, where) -> str:
    i, j = where
    return (f"metric not preserved at ({A.sorts[s].points[i]}, "
            f"{A.sorts[s].points[j]})")


def verify_iso(A: FiniteStructure, B: FiniteStructure, L0: Sublanguage,
               w: IsoWitness) -> list[str]:
    """Exactness check of a witness, table by table."""
    idx = {}
    for s, sd in A.sorts.items():
        m, sb = w.mapping.get(s, {}), B.sorts[s]
        if set(m) != set(sd.points) or set(m.values()) != set(sb.points):
            return [f"mapping is not a bijection on sort {s}"]
        idx[s] = np.arange(sd.size), np.fromiter(
            (sb.index[m[a]] for a in sd.points), np.intp, sd.size)
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


def find_iso(A: FiniteStructure, B: FiniteStructure):
    """Isomorphism search, canonical form first, over the symbols A and B
    share.  Returns an IsoWitness that verify_iso accepts, or a Refusal,
    which means that no isomorphism exists.

    Colour refinement of the joint point classes of A and B (McKay &
    Piperno, "Practical graph isomorphism, II", 2014) splits them by the
    functions, the predicates and the fixed points of each unary
    endofunction.  When each sort's reference side (one that carries its
    tree, else A) is an ultrametric, the canonical form comes first: AHU
    codes (Aho, Hopcroft & Ullman 1974) of each sort's ball tree, the
    other side's balls read off the reference's levels, uncertified (see
    _dendrograms), carry the metric with the classes as colours; the
    canonical orders of A and B, zipped, give one map, and verify_iso
    checks it.  Otherwise, or when the codes differ or the check fails,
    the complete search decides (see _search), starting from the classes
    already refined: verify_iso and _search carry exactness."""
    L0 = Sublanguage(frozenset(A.functions) & frozenset(B.functions),
                     frozenset(A.predicates) & frozenset(B.predicates))
    if set(A.sorts) != set(B.sorts):
        return Refusal("sort mismatch", f"{sorted(A.sorts)} vs {sorted(B.sorts)}")
    for s in A.sorts:
        if A.sorts[s].size != B.sorts[s].size:
            return Refusal("point-count invariant",
                           f"sort {s}: {A.sorts[s].size} vs {B.sorts[s].size}")
    tables = _symbol_tables(A, B, L0)
    classes = {s: np.zeros(2 * sd.size, np.int64) for s, sd in A.sorts.items()}
    trees = _dendrograms(A, B)
    if trees is not None:
        classes = _refined(classes, tables)
        if isinstance(classes, Refusal):
            return classes
        w = _canonical_map(A, B, trees, classes, tables)
        if w is not None and not verify_iso(A, B, L0, w):
            return w
    return _search(A, B, L0, classes, tables)


def _symbol_tables(A, B, L0: Sublanguage):
    """The tables (see _entry) of each symbol of L0, and a 0/1 table of the
    fixed points of each unary endofunction.  B's function values are
    offset by the output sort's size, so they index the joint classes."""
    tables = []
    for name in sorted(L0.functions):
        fa, fb = A.functions[name], B.functions[name]
        n = A.sorts[fa.out_sort].size
        tables.append(_entry(name, fa.arg_sorts, fa.out_sort, fa.table,
                             fb.table + n))
        if fa.arg_sorts == (fa.out_sort,):
            ids = np.arange(n)
            tables.append(_entry(f"{name} fixed", fa.arg_sorts, None,
                                 fa.table == ids, fb.table == ids))
    for name in sorted(L0.predicates):
        pa, pb = A.predicates[name], B.predicates[name]
        tables.append(_entry(name, pa.arg_sorts, None,
                             *_ranks(pa.table, pa.den, pb.table, pb.den)))
    return tables


def _entry(name, args, out, ta, tb):
    """(name, argument sorts, output sort of a function, A's table, B's,
    and for a unary table its joint column: A's values, then B's)."""
    return (name, args, out, ta, tb,
            np.concatenate((ta, tb)) if len(args) == 1 else None)


def _search(A, B, L0: Sublanguage, classes, tables):
    """The complete search: refine the joint classes by the metric as well
    as the tables, then individualize one A point at a time against each B
    point of its class, backtracking on an explicit stack."""
    metric = [_entry(f"metric {s}", (s, s), None,
                     *_ranks(sd.dmat, sd.den, B.sorts[s].dmat, B.sorts[s].den))
              for s, sd in A.sorts.items()]
    tables = metric + tables
    new = _refined(classes, tables)
    if isinstance(new, Refusal):
        return new
    stack = []
    while new is not None:
        pick = _pick(new)
        if pick is not None:
            stack.append((new, *pick))
        else:  # every class is one pair: the map is forced
            w = IsoWitness({s: {A.sorts[s].points[a]: B.sorts[s].points[b]
                                for a, b in zip(np.argsort(c[:len(c) // 2]),
                                                np.argsort(c[len(c) // 2:]))}
                            for s, c in new.items()})
            if not verify_iso(A, B, L0, w):
                return w
        new = None
        while new is None and stack:
            base, s, i, cands = stack[-1]
            j = next(cands, None)
            if j is None:
                stack.pop()
                continue
            new = _settle(base, _sliced(tables, s, i, j, len(base[s]) // 2))
            if isinstance(new, Refusal):
                new = None
    return Refusal("backtracking exhausted",
                   "no bijection preserves the metric and symbol tables")


def _refined(classes, tables):
    """Refine the joint classes by the tables until no class splits; a
    Refusal when the two sides of a class differ."""
    while True:
        new = _settle(classes, tables)
        if isinstance(new, Refusal) or all(
                new[s].max(initial=0) == c.max(initial=0)
                for s, c in classes.items()):
            return new
        classes = new


def _dendrograms(A, B):
    """Per sort, A's and B's balls as (order, levels, merges) from
    _ball_merges, joins ranked on the reference side's levels; None when a
    reference is no ultrametric.  The reference is a side that carries its
    tree, else A, certified by _dendrogram.  The other side's balls, read
    off the reference's levels (see _balls_at), are not certified: a wrong
    ball makes the codes differ or the map fail verify_iso; _search decides."""
    trees = {}
    for s, sa in A.sorts.items():
        sb = B.sorts[s]
        flip = sa.tree is None and sb.tree is not None
        ref, other = (sb, sa) if flip else (sa, sb)
        if (tree := _dendrogram(ref)) is None:
            return None
        levels = np.unique(tree[1][1:])
        pair = ((tree[0], *_ball_merges(np.searchsorted(levels, tree[1]))),
                _balls_at(other, levels, ref.den))
        trees[s] = pair[::-1] if flip else pair
    return trees


def _balls_at(sd, levels, den: int):
    """(order, levels, merges) of sd's balls at the distances levels / den,
    joins ranked on levels.  A point's u-ball is named by its first point
    within u / den (cut through _max_numerator), read finest level first
    and each coarser level among the previous level's names only: in an
    ultrametric, a coarser ball's first point is the first point of one of
    its finer balls.  Points that agree on k levels from the coarsest join
    at the k-th coarsest (rank len(levels) when k = 0).  For an
    ultrametric these are its balls."""
    # reps: the previous level's names, ascending; at: the place among them
    # of each point's name
    names, reps, at = [], np.arange(sd.size), np.arange(sd.size)
    for u in levels.tolist():
        D = sd.dmat if len(reps) == sd.size else sd.dmat[reps][:, reps]
        cut = _max_numerator(Fraction(u, den), sd.den)
        pick = (D <= cut).argmax(axis=1)
        kept = np.zeros(len(reps), bool)
        kept[pick] = True
        reps, at = reps[kept], (np.cumsum(kept) - 1)[pick[at]]
        names.append(reps[at])
    order, agree = _sorted_agreement(np.array(  # first, the sort as one ball
        [np.zeros(sd.size, np.intp)] + names[::-1]))
    return order, *_ball_merges(np.concatenate(([0], len(names) + 1 - agree)))


def _dendrogram(sd):
    """(Prim order, joins) of a sort whose distance is an ultrametric, else
    None; a sort built from level ids may carry them (see _id_metric)."""
    if sd.tree is not None:
        return sd.tree
    D = sd.dmat
    if not sd.size:
        return np.zeros(0, np.intp), np.zeros(0, np.int64)
    if (np.diagonal(D) != 0).any() or (D != D.T).any():
        return None
    return _ultrametric_order(D)


def _canonical_map(A, B, trees, classes, tables):
    """The map that zips the canonical point orders of A's and B's ball
    trees, or None when the two sides differ.  classes must be refined by
    the tables.  Each round codes the sorts that refinement split since
    they were coded (codes split a class at least as finely as the metric's
    profile, and coding the classes they gave splits nothing), then
    refines by the tables.  When none is left, sorts are zipped in turn, up
    to one whose classes are not single pairs: each of its pairs gets a
    class of its own for the sorts to come."""
    mapping, orders, stale = {}, {}, list(trees)
    while True:
        new = dict(classes)
        for s in stale:
            (ta, tb), c = trees[s], classes[s]
            n, codes = len(ta[0]), {}
            if c.max(initial=0) + 1 == n:  # one pair per class: no codes
                orders[s] = np.argsort(c[:n]), np.argsort(c[n:])
                continue
            ka, pa, ra = _canonical(*ta, c[:n], codes)
            kb, pb, rb = _canonical(*tb, c[n:], codes)
            if ka != kb:
                return None
            new[s], orders[s] = _numbered(np.hstack((ra, rb))), (pa, pb)
        for s in [] if stale else [s for s in trees if s not in mapping]:
            (pa, pb), n = orders[s], len(orders[s][0])
            na, nb = A.sorts[s].points, B.sorts[s].points
            mapping[s] = {na[a]: nb[b] for a, b in zip(pa, pb)}
            if classes[s].max(initial=0) + 1 < n:
                new[s] = np.empty(2 * n, np.int64)
                new[s][pa] = new[s][n + pb] = np.arange(n)
                break
        if len(mapping) == len(trees):
            return IsoWitness(mapping)
        classes = _refined(new, tables)
        if isinstance(classes, Refusal):
            return None
        stale = [s for s in trees if s not in mapping and
                 classes[s].max(initial=0) != new[s].max(initial=0)]


def _canonical(order, levels, merges, colour, codes: dict):
    """AHU code of an ultrametric sort's ball tree, its points coloured;
    its points in canonical order; and the code of each point's ball at
    every level, one row per level, the points' own codes first.  order,
    levels and merges come from _ball_merges, on joins ranked on a scale
    common to both structures.  A point's code is its colour, and a
    u-ball's is u with its children's codes, sorted, also when it has a
    single child; `codes` numbers them alike for both structures, so equal
    numbers mean isomorphic coloured trees.  The canonical order sorts the
    balls of each level by code, equal codes by position, from the root
    down."""
    n = len(order)
    if not n:
        return codes.setdefault((), len(codes)), order, np.zeros((1, 0), int)
    kids = [codes.setdefault(k, len(codes)) for k in colour[order].tolist()]
    ball = np.arange(n)  # the ball of each position at the current level
    keys = [ball, np.array(kids)]
    for u, idx in zip(levels.tolist(), merges):
        cuts = idx.tolist() + [len(kids)]
        kids = [codes.setdefault((u, *sorted(kids[a:b])), len(codes))
                for a, b in zip(cuts, cuts[1:])]
        ball = np.searchsorted(idx, ball, side="right") - 1
        keys += [ball, np.array(kids)[ball]]
    rows = np.empty((len(keys) // 2, n), np.int64)
    rows[:, order] = keys[1::2]
    return kids[0], order[np.lexsort(keys)], rows


def _ranks(ta, da: int, tb, db: int):
    """Tables a / da and b / db as the ranks of their values on one exact
    scale (_scaled), so that equal ranks mean equal values: one np.unique
    over both."""
    ta, tb = _scaled(da, ta, db, tb)
    _, r = np.unique(np.concatenate((ta.ravel(), tb.ravel())),
                     return_inverse=True)
    return r[:ta.size].reshape(ta.shape), r[ta.size:].reshape(tb.shape)


def _settle(classes, tables):
    """One refinement round of the joint classes (sort -> class of each
    point, A's points then B's): each table splits the points of each
    argument by their profile along it.  A function's value is its output's
    class; a 0-ary function puts its output in a class of its own.  Returns
    a Refusal when a 0-ary value or the two sides of a class differ."""
    keys = {s: [c] for s, c in classes.items()}
    for name, args, out, ta, tb, joint in tables:
        if joint is not None:
            keys[args[0]].append(joint if out is None else classes[out][joint])
            continue
        if not args and out is not None:
            mark = np.zeros(len(classes[out]), np.int64)
            mark[[int(ta), int(tb)]] = 1
            keys[out].append(mark)
        elif not args and ta != tb:
            return Refusal("label-count invariant", f"{name} differs")
        elif out is not None:
            ta, tb = classes[out][ta], classes[out][tb]
        for m, s in enumerate(args):
            keys[s].append(_profile(ta, tb, m, args, classes))
    new = {}
    for s, cols in keys.items():
        new[s] = key = _numbered(cols)
        n = len(key) // 2
        ca, cb = (np.bincount(h, minlength=2 * n) for h in (key[:n], key[n:]))
        if (ca != cb).any():
            k = int(np.argmax(ca != cb))
            return Refusal("label-count invariant",
                           f"sort {s}: invariant class {k} has {ca[k]} "
                           f"points in A but {cb[k]} in B")
    return new


def _numbered(cols):
    """Ids 0, 1, ... of the points by their values in the columns cols
    (equal ids for equal values in every column), in the order of those
    values, the first column first: one lexsort of all the columns."""
    order, agree = _sorted_agreement(np.asarray(cols))
    ids = np.zeros(len(order), np.int64)
    ids[order[1:]] = np.cumsum(agree < len(cols))
    return ids


def _profile(ta, tb, m: int, args, classes):
    """Per point of args[m], A's then B's, of a table of two or more
    arguments: an id of the sorted (value, classes of the other arguments)
    along the point's slice.  Keys of a k-ary table stay below 2^k * cells
    * max(cells, output points), within int64 for any table in memory."""
    key = np.stack((ta, tb)).astype(np.int64)
    for k, s in enumerate(args):
        if k != m:
            c = classes[s].reshape(2, -1)
            shape = [2] + [1] * len(args)
            shape[k + 1] = c.shape[1]
            key = key * (int(c.max(initial=0)) + 1) + c.reshape(shape)
    key = np.moveaxis(key, m + 1, 1)
    rows = np.sort(key.reshape(2 * key.shape[1], math.prod(key.shape[2:])))
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(r.tobytes(), len(ids)) for r in rows],
                    np.int64)


def _sliced(tables, s: str, i: int, j: int, n: int):
    """The tables seen from the new pair A's i -> B's j of sort s (of n
    points): the pair itself as a 0-ary function, every table sliced at
    each argument of sort s, and `f == i` against `f == j` for f into s."""
    out = [("pair", (), s, i, n + j, None)]
    for name, args, fout, ta, tb, _ in tables:
        for m, t in enumerate(args):
            if t == s:
                out.append(_entry(name, args[:m] + args[m + 1:], fout,
                                  ta.take(i, axis=m), tb.take(j, axis=m)))
        if fout == s:
            out.append(_entry(name, args, None, ta == i, tb == n + j))
    return out


def _pick(classes):
    """(sort, A point, iterator over B points) for the first A point of
    the smallest class with two or more points; None when every class is
    one pair."""
    best = None
    for s, c in classes.items():
        n = len(c) // 2
        sizes = np.bincount(c[:n], minlength=1)
        k = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        if sizes[k] > 1 and (best is None or sizes[k] < best[0]):
            best = sizes[k], s, k, c, n
    if best is None:
        return None
    _, s, k, c, n = best
    return s, int(np.argmax(c[:n] == k)), iter(np.flatnonzero(c[n:] == k))


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
            idx[s] = np.array([(A.sorts[s].index[a], B.sorts[s].index[b])
                               for a, b in m.items()], np.intp).reshape(-1, 2).T
        except KeyError as e:
            return [f"unknown point {e} in mapping for sort {s}"]
        if len(np.unique(idx[s][1])) != len(m):
            return [f"mapping not injective on sort {s}"]
    for kind, name, where in _mismatches(A, B, L0, idx)[:1]:
        if kind == "metric":
            return [_metric_line(A, name, where)]
        return [f"{kind} {name} not preserved on the domain"]
    return []
