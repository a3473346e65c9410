"""Finite metric structures with exact rational tables.

Metric and predicate tables are stored as integer numpy arrays together
with a common denominator per table, so validation and evaluation are
vectorized yet exact.  A structure may carry truncation metadata: the
depth/branching bounds of the cut and, per sort, a density radius toward
the intended infinite model (or None when the finite part is not dense,
as in branching directions)."""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product, repeat
from operator import itemgetter

import numpy as np

from .formulas import (App, Conn, Const, Dist, Formula, Pred, Quant, Rat,
                       SymbolModuli, Var, _memo_on_formula, _modulus_for_var,
                       summary)
from .moduli import Modulus
from .values import ONE, ZERO, parse_rational, show_rational

_INT64_MAX = 2**63 - 1


def _int_type(bound: int):
    """np.int64 if every integer in [-1 - bound, bound] fits int64, else
    object (Python ints): the one place that picks either.  Values lie in
    [0, den], so a den that fits int64 keeps them, scaled to it, in int64."""
    return np.int64 if bound <= _INT64_MAX else object


def _align(a, b):
    """Two (den, value) pairs over their common denominator L: the one place
    two tables meet on one exact scale.  A side whose den already is L is
    returned as it is.  Past int64, arrays become object arrays of Python
    ints; the type is picked from L alone, so it holds every value in
    [-den, den] scaled to L (a wider table must come as Python ints)."""
    (da, va), (db, vb) = a, b
    if da == db:
        return da, va, vb
    L = math.lcm(da, db)
    if _int_type(L) is object:
        va, vb = (v.astype(object) if type(v) is np.ndarray else v
                  for v in (va, vb))
    return (L, va if L == da else va * (L // da),
            vb if L == db else vb * (L // db))


def _int64(table, refusal: str) -> np.ndarray:
    """table as an int64 array, refused with ValueError(refusal) when a
    value does not fit (numpy raises a bare OverflowError)."""
    try:
        return np.asarray(table, dtype=np.int64)
    except OverflowError:
        raise ValueError(refusal) from None


def _on_one_den(qs) -> tuple[int, list[int]]:
    """Rationals as one table: (den, [q * den]), den the lcm of their
    denominators (1 for none), the values Python ints."""
    qs = list(qs)
    den = math.lcm(*(q.denominator for q in qs))
    return den, [q.numerator * (den // q.denominator) for q in qs]


@dataclass(frozen=True)
class SortData:
    points: tuple[str, ...]
    den: int
    dmat: np.ndarray  # shape (n, n), int64, entries = den * d(i, j)
    index: dict[str, int] = field(compare=False)
    # (order, join) of an ultrametric built from level ids (see _id_metric)
    tree: tuple | None = field(default=None, compare=False, repr=False)
    # every entry in [0, den], which exact evaluation needs; None until
    # in_range reads it off dmat (check_structure reports it either way)
    bounded: bool | None = field(default=None, compare=False, repr=False)

    def in_range(self) -> bool:
        """bounded, read off dmat the first time it is asked for."""
        return _in_range(self, self.dmat)

    @property
    def size(self) -> int:
        return len(self.points)

    def dist(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.dmat[i, j]), self.den)


@dataclass(frozen=True)
class FnTable:
    arg_sorts: tuple[str, ...]
    out_sort: str
    table: np.ndarray  # int point indices, shape = arg sort sizes; () if 0-ary


@dataclass(frozen=True)
class PredTable:
    arg_sorts: tuple[str, ...]
    den: int
    table: np.ndarray  # int64, entries = den * value
    # every entry in [0, den], as SortData.bounded
    bounded: bool | None = field(default=None, compare=False, repr=False)

    def value(self, *idx) -> Fraction:
        return Fraction(int(self.table[idx]), self.den)


def _in_range(obj, table) -> bool:
    """obj.bounded, set from table (values den * q) when it is None."""
    if obj.bounded is None:
        object.__setattr__(obj, "bounded", bool(not table.size or (
            0 <= table.min() and table.max() <= obj.den)))
    return obj.bounded


@dataclass(frozen=True)
class FiniteStructure:
    sorts: dict[str, SortData]
    functions: dict[str, FnTable] = field(default_factory=dict)
    predicates: dict[str, PredTable] = field(default_factory=dict)
    moduli: dict[str, Modulus] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(points, metric, functions=None, predicates=None,
              moduli=None, meta=None) -> "FiniteStructure":
        """Build from name-level data.

        points: {sort: [names]};  metric: {sort: callable(a, b) -> Fraction
        or (den, int ndarray) or (den, dist, levels) (see _id_metric)};
        functions: {name: (arg_sorts, out_sort, callable(*names) -> name,
        or an int ndarray of output point indices)};  predicates: {name:
        (arg_sorts, callable(*names) -> Fraction or (den, int ndarray))}.
        The tables are int64, so every den must fit int64."""
        sorts: dict[str, SortData] = {}
        for s, names in points.items():
            names = tuple(names)
            idx = {a: i for i, a in enumerate(names)}
            if len(idx) != len(names):
                raise ValueError(f"duplicate point names in sort {s}")
            spec, tree, n, top = metric[s], None, len(names), 0
            if not isinstance(spec, tuple):  # a callable
                spec = _on_one_den(spec(a, b) for a in names for b in names)
                top = max(map(abs, spec[1]), default=0)
            if _int_type(max(spec[0], top)) is object:
                raise ValueError(f"metric denominator too large for sort {s}")
            if len(spec) == 3:
                den, dmat, tree, bounded = _id_metric(*spec, n, s)
            else:
                den, bounded = spec[0], None
                dmat = _int64(spec[1], f"metric value past int64 in sort {s}"
                              ).reshape(n, n)
            sorts[s] = SortData(names, den, dmat, idx, tree, bounded)

        fns: dict[str, FnTable] = {}
        for name, (arg_sorts, out_sort, fn) in (functions or {}).items():
            arg_sorts = tuple(arg_sorts)
            shape = tuple(sorts[s].size for s in arg_sorts)
            out = sorts[out_sort]
            if isinstance(fn, np.ndarray):
                table = fn.astype(np.int64)
                if table.shape != shape or table.size and (
                        table.min() < 0 or table.max() >= out.size):
                    raise ValueError(f"function {name} table does not fit "
                                     f"its sorts")
                fns[name] = FnTable(arg_sorts, out_sort, table)
                continue
            table = np.empty(shape, dtype=np.int64)
            for combo in product(*(range(k) for k in shape)):
                names_in = tuple(sorts[s].points[i] for s, i in zip(arg_sorts, combo))
                table[combo] = out.index[fn(*names_in)]
            fns[name] = FnTable(arg_sorts, out_sort, table)

        preds: dict[str, PredTable] = {}
        for name, (arg_sorts, fn) in (predicates or {}).items():
            arg_sorts = tuple(arg_sorts)
            shape = tuple(sorts[s].size for s in arg_sorts)
            if not isinstance(fn, tuple):  # a callable
                vals = []
                for combo in product(*(range(k) for k in shape)):
                    names_in = tuple(sorts[s].points[i] for s, i in zip(arg_sorts, combo))
                    q = Fraction(fn(*names_in))
                    if not (0 <= q <= 1):
                        raise ValueError(f"predicate {name} value {q} outside [0,1]")
                    vals.append(q)
                den, vals = _on_one_den(vals)
                fn = den, np.array(vals, object).reshape(shape)
            den, table = fn
            if _int_type(den) is object:
                raise ValueError(f"predicate denominator too large for {name}")
            table = _int64(table, f"predicate {name} value outside [0,1]")
            if table.shape != shape:
                raise ValueError(f"predicate {name} table shape mismatch")
            if table.size and (table.min() < 0 or table.max() > den):
                raise ValueError(f"predicate {name} value outside [0,1]")
            preds[name] = PredTable(arg_sorts, den, table, True)

        return FiniteStructure(sorts, fns, preds, dict(moduli or {}),
                               dict(meta or {}))

    # -- lookups -----------------------------------------------------------

    def only_sort(self) -> str:
        if len(self.sorts) != 1:
            raise ValueError("sort annotation required in a multi-sort structure")
        return next(iter(self.sorts))

    def point(self, sort: str, name: str) -> int:
        return self.sorts[sort].index[name]

    def constant(self, name: str) -> tuple[str, int]:
        """Resolve a 0-ary function symbol or a globally unique point name."""
        fn = self.functions.get(name)
        if fn is not None and fn.arg_sorts == ():
            return fn.out_sort, int(fn.table[()])
        hits = [(s, sd.index[name]) for s, sd in self.sorts.items()
                if name in sd.index]
        if len(hits) == 1:
            return hits[0]
        raise KeyError(f"unknown constant {name!r}"
                       if not hits else f"ambiguous point name {name!r}")

    def symbol_moduli(self) -> SymbolModuli:
        return SymbolModuli(
            functions={n: m for n, m in self.moduli.items() if n in self.functions},
            predicates={n: m for n, m in self.moduli.items() if n in self.predicates})

    def total_points(self) -> int:
        return sum(sd.size for sd in self.sorts.values())


# --------------------------------------------------------------------------
# Metrics from level ids

def _agreement(levels) -> np.ndarray:
    """delta[i, j] = the number of leading levels on which items i and j
    agree, given one id vector per level (a running AND over the levels),
    in the smallest unsigned dtype that holds the number of levels.  Ids
    are compared in the smallest dtype that holds them."""
    n = levels.shape[1]
    same = np.ones((n, n), dtype=bool)
    delta = np.zeros((n, n), dtype=np.min_scalar_type(len(levels)))
    for ids in levels:
        top = int(np.abs(ids).max(initial=0))
        ids = ids.astype(np.min_scalar_type(-1 - top))
        same &= ids[:, None] == ids[None, :]
        delta += same.view(np.uint8)
    return delta


def _sorted_agreement(levels):
    """The items sorted by their ids (a row per level, level 0 first), and
    how many leading levels each sorted item shares with the one before."""
    order = np.lexsort(levels[::-1])
    ids = levels[:, order]
    return order, np.logical_and.accumulate(ids[:, 1:] == ids[:, :-1],
                                            axis=0).sum(axis=0)


# The tables of _id_metric by their ids, each held only while a structure
# holds it: equal ids give equal tables, whatever the den.
_ID_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _id_metric(den: int, dist, levels, n: int, sort: str):
    """The read-only distance table of a (den, dist, levels) metric, when
    it is an ultrametric with values in [0, 1] its certificate, and True
    when its values lie in [0, 1] (else None, for SortData.in_range).

    levels holds one id vector per level: two points that agree on exactly
    k leading levels are at distance dist[k] / den, each point at 0 from
    itself.  Sorted by their ids (level 0 first), the points that agree
    with a point on k leading levels form a contiguous run, and two points
    agree on as many levels as the least agreeing neighbours between them.
    So while dist does not increase, d(i, j) is the largest distance
    between neighbours from i to j: an ultrametric, and the sorted order
    with the neighbour distances is its dendrogram (Carlsson & Memoli,
    JMLR 2010), the (order, join) certificate of _ultrametric_order, in
    O(n * levels) instead of from the n^2 table.  The certificate is None,
    and the table is checked as any other, when dist increases or leaves
    [0, den], or two points agree on every level or sit at distance 0.

    The table is built once for equal ids (hash-consing, Filliatre &
    Conchon, ML Workshop 2006): its entries do not depend on den, and it
    is shared through _ID_TABLES by every structure built from them."""
    try:
        dist, levels = np.asarray(dist, np.int64), np.asarray(levels, np.int64)
    except (OverflowError, ValueError) as e:  # past int64, or ragged
        raise ValueError(f"level ids of sort {sort} are no int64 arrays: {e}"
                         ) from None
    if levels.ndim < 1 or levels.size != len(levels) * n:
        raise ValueError(f"level ids of shape {levels.shape} do not fit the "
                         f"{n} points of sort {sort}")
    if dist.ndim != 1 or len(dist) <= len(levels):
        raise ValueError(f"{len(levels)} levels need a vector of "
                         f"{len(levels) + 1} distances, got shape "
                         f"{dist.shape} in sort {sort}")
    levels = levels.reshape(len(levels), n)
    key = (levels.shape, dist.tobytes(), levels.tobytes())
    dmat = _ID_TABLES.get(key)
    if dmat is None:
        dmat = _ID_TABLES[key] = dist[_agreement(levels)]
        np.fill_diagonal(dmat, 0)
        dmat.flags.writeable = False
    order, agree = _sorted_agreement(levels)
    join = np.zeros(n, dtype=np.int64)
    join[1:] = dist[agree]
    bounded = 0 <= dist.min() <= dist.max() <= den or None  # dmat's values
    ok = bounded and (np.diff(dist) <= 0).all() and (
        agree < len(levels)).all() and (join[1:] > 0).all()
    return den, dmat, (order, join) if ok else None, bounded


# --------------------------------------------------------------------------
# Validation

def _pair_name(sd: SortData, i, j) -> str:
    return f"({sd.points[i]}, {sd.points[j]})"


def _allowed(mod: Modulus, u, den: int) -> Fraction:
    """omega at the distance u / den; a negative distance (itself a metric
    violation) allows no change."""
    return mod.omega(Fraction(max(int(u), 0), den))


def _max_numerator(q: Fraction, den: int, strict: bool = False) -> int:
    """The largest integer a with a / den <= q (a / den < q when strict):
    `table <= a` is exactly `table / den <= q` (or `< q`), with no product
    to wrap around; numpy compares an int64 table with any Python int."""
    return (q.numerator * den - strict) // q.denominator


def _narrow(lo: int, hi: int):
    """The smallest of uint8, int16, int32 and int64 that holds every
    integer in [lo, hi], or object (Python ints) past int64: the dtype a
    scan copies its table to, from the range of the values and of the
    sums or differences it forms, so that nothing wraps around."""
    for t in (np.uint8, np.int16, np.int32):
        info = np.iinfo(t)
        if info.min <= lo and hi <= info.max:
            return t
    return _int_type(max(-1 - lo, hi))


def _first_hit(mask: np.ndarray):
    """The index tuple of mask's first true entry in C order, or None:
    what np.argwhere(mask)[0] gives, without listing the other hits."""
    if not mask.any():
        return None
    return np.unravel_index(int(np.argmax(mask)), mask.shape)


def _thresholds(mod: Modulus, levels: np.ndarray, den: int, dden: int,
                memo: dict | None = None) -> np.ndarray:
    """floor(omega(u / den) * dden) for each distance level u of an integer
    array: the largest table change (scaled by dden) the modulus allows at
    that distance, so `change > threshold` is exactly `change / dden >
    omega`.  What _max_numerator(_allowed(mod, u, den), dden) gives,
    negative u clamped to 0.

    Exact per linear piece of omega: on the piece from (r0, w0) to (r1, w1),
    which holds the levels with r0 < u / den <= r1, omega(u / den) * dden
    = (a * u + b) / c in integers.  Levels past den take omega(1).  The
    products are taken in the integer type of a bound on them (_int_type),
    and the thresholds, in [0, dden], come back in int64 when dden fits.

    The lines depend on (mod, den, dden) only; memo, a dict, keeps them
    for the next call with the same three."""
    memo = {} if memo is None else memo
    key = mod, den, dden
    lines = memo.get(key)
    if lines is None:
        lines = memo[key] = _lines(mod, den, dden)
    ends, a, b, c = lines
    u = np.maximum(np.asarray(levels, dtype=np.int64), 0)
    piece = np.searchsorted(ends, u)
    # the largest u on a sloped piece, at least 1 so that a fits as well
    umax = max(min(int(u.max(initial=0)), den), 1)
    t = _int_type(max(max(map(abs, a)) * umax + max(map(abs, b)), max(c)))
    a, b, c = (np.array(x, dtype=t)[piece] for x in (a, b, c))
    return ((a * u.astype(t, copy=False) + b) // c).astype(_int_type(dden),
                                                          copy=False)


def _lines(mod: Modulus, den: int, dden: int):
    """The integer lines of _thresholds: (ends, a, b, c), where the levels
    u <= ends[p] (and past the ends before) lie on piece p, on which
    omega(u / den) * dden = (a[p] * u + b[p]) / c[p]; the last line holds
    omega(1) for the levels past den."""
    pts = mod.points
    # the first piece whose end r1 = p / q has u <= floor(p * den / q)
    ends = [r.numerator * den // r.denominator for r, _ in pts[1:]]
    lines = []
    for (r0, w0), (r1, w1) in zip(pts, pts[1:]):
        slope = (w1 - w0) / (r1 - r0)
        c, (a, b) = _on_one_den((slope * dden / den,
                                 (w0 - slope * r0) * dden))
        lines.append((a, b, c))
    top = pts[-1][1] * dden
    lines.append((0, top.numerator // top.denominator, 1))  # past den
    return (ends, *zip(*lines))


def _ultrametric_order(D: np.ndarray):
    """Certificate that D (symmetric, zero diagonal) is an ultrametric, in
    O(n^2); None when it is not.  An ultrametric with a zero diagonal is
    nonnegative (d(i, i) <= max(d(i, k), d(k, i))), so it satisfies the
    triangle inequality.

    Callers must test symmetry and the zero diagonal first: the pass reads
    each pair on one side only, so it certifies some one-sided tables.

    A Prim pass adds the points one at a time, each new point v attached
    to its nearest earlier point p.  D is an ultrametric exactly when
    D[v, w] == max(D[p, w], D[v, p]) for every v and every earlier w: then
    D equals its subdominant ultrametric, the single-linkage (minimum
    spanning tree) distance of Gower & Ross (1969).

    Returns (order, join): the points in Prim order and the distance at
    which each joined (join[0] = 0).  In this order every closed ball is a
    contiguous run, and the u-balls start exactly at position 0 and at the
    positions whose join distance exceeds u.

    The rows are checked in blocks as the pass adds them: up to place
    _CERT_ROWS, then blocks of about _CERT_CELLS entries of D.  So a sort
    whose early rows break the condition (as a cycle's do) is rejected
    after a few steps, and no check holds more than a block."""
    n = len(D)
    order = np.zeros(n, dtype=np.intp)
    join = np.zeros(n, dtype=np.int64)
    parent = np.zeros(n, dtype=np.intp)
    rest = np.arange(1, n)            # points not yet added ...
    best = D[0, 1:].copy()            # ... their distance to the added ones
    near = np.zeros(n - 1, dtype=np.intp)  # ... and the nearest added one
    k0, k1 = 1, min(_CERT_ROWS, n)  # the next block: places k0 .. k1 - 1
    for k in range(1, n):
        m = int(best.argmin())
        v = order[k] = rest[m]
        join[k], parent[k] = best[m], near[m]
        rest[m], best[m], near[m] = rest[-1], best[-1], near[-1]
        rest, best, near = rest[:-1], best[:-1], near[:-1]
        row = D[v][rest]  # faster than D[v, rest]
        near[row < best] = v
        np.minimum(best, row, out=best)
        if k == k1 - 1:
            if _rows_break(D, order, parent, k0, k1):
                return None
            k0, k1 = k1, min(n, k1 + max(1, _CERT_CELLS // n))
    return order, join


_CERT_ROWS = 8  # where the certificate's first block ends
_CERT_CELLS = 1 << 18  # entries of D in each later block


def _rows_break(D, order, parent, k0: int, k1: int) -> bool:
    """Whether some point v at a place k0 <= k < k1 of the Prim order, with
    parent p, has D[v, w] != max(D[p, w], D[v, p]) at an earlier w."""
    pos = np.full(len(D), k1, dtype=np.intp)  # place in the order, or k1
    pos[order[:k1]] = np.arange(k1)
    vs, ps = order[k0:k1], parent[k0:k1]
    want = D[ps]
    np.maximum(want, D[vs, ps][:, None], out=want)
    bad = want != D[vs]
    bad &= pos < np.arange(k0, k1)[:, None]  # only earlier w count
    return bool(bad.any())


def _ball_merges(join: np.ndarray):
    """Closed-ball partitions of an ultrametric sort in its certificate's
    order (Prim's, or the ids' of _id_metric), finest first.  Returns the distance levels u (ascending) and, for each,
    the positions among the previous level's balls (at first the single
    points) where each u-ball starts: the children of every u-ball are the
    run of balls from its start to the next."""
    levels = np.unique(join[1:])
    starts, merges = np.arange(len(join)), []
    for u in levels:
        cur = np.concatenate(([0], np.flatnonzero(join[1:] > u) + 1))
        merges.append(np.searchsorted(starts, cur))
        starts = cur
    return levels, merges


def _balls_respect(V: np.ndarray, order, merges, thr, out) -> bool:
    """Ball-by-ball modulus check on an ultrametric argument sort.

    V holds the table with the argument's axis first, and order is the
    order of the sort's certificate.  Pairs at distance <= u are exactly the pairs inside
    a closed u-ball and omega is nondecreasing, so the modulus holds iff at
    every level u the worst change inside each u-ball is at most thr(u).
    Works bottom-up over the nested balls, stopping at the first failure.
    For a predicate (out None) the worst change is max - min over the
    ball.  For a function whose output sort is an ultrametric `out`, each
    ball is represented by the output at its first point; the children of
    a u-ball passed at smaller radii, and in an ultrametric every pair
    across two children is within the largest of their diameters and of
    the distances between their representatives, so those distances
    decide the u-ball."""
    hi = lo = V
    rows = order  # the rows of hi and lo in ball order
    rep = V[order] if out is not None else None
    for idx, t in zip(merges, thr):
        if out is None:
            hi, lo = _run_extremes(hi, lo, rows, idx)
            rows = np.arange(len(idx))
            worst = int((hi - lo).max(initial=0))
        else:
            top = rep[idx]
            sizes = np.diff(idx, append=len(rep))
            worst = int(out[rep, np.repeat(top, sizes, axis=0)]
                        .max(initial=0))
            rep = top
        if worst > t:
            return False
    return True


_NARROW = 32  # table widths below which reduceat beats gathering


def _run_extremes(hi, lo, rows, idx):
    """The max of hi and the min of lo over each run of rows: run b is
    rows[idx[b]:idx[b + 1]], the last one up to the end.  reduceat walks
    each column of a run on its own, which is cheap only on narrow rows;
    wider rows are gathered into one (runs, length, columns) block per run
    length and reduced along its middle axis."""
    if hi.shape[1] < _NARROW:
        return (np.maximum.reduceat(hi[rows], idx, axis=0),
                np.minimum.reduceat(lo[rows], idx, axis=0))
    sizes = np.diff(idx, append=len(rows))
    top = np.empty((len(idx), hi.shape[1]), dtype=hi.dtype)
    low = np.empty_like(top)
    for c in np.unique(sizes).tolist():
        b = np.flatnonzero(sizes == c)
        at = rows[idx[b, None] + np.arange(c)]
        block = hi[at]
        top[b] = block.max(axis=1)
        low[b] = (block if lo is hi else lo[at]).min(axis=1)
    return top, low


_BLOCK = 1 << 20  # table changes compared at once by the exhaustive scan


def _levels(sd: SortData):
    """(levels, index): distance levels of a sort and, per pair, the
    position of its distance among them, so thresholds computed once per
    level are looked up per pair.  When the den + 1 levels 0 .. den are no
    more than the pairs, index is D clipped to them: _thresholds reads a
    negative distance as 0, and a distance past den allows omega(1) as den
    does.  Larger dens take the sorted distinct distances."""
    D, den = sd.dmat, sd.den
    if den + 1 <= D.size:
        return np.arange(den + 1), np.clip(D, 0, den)
    levels, inverse = np.unique(D, return_inverse=True)
    return levels, inverse.reshape(D.shape)


def _modulus_violation(sd: SortData, levels, index, name: str, pos: int,
                       mod: Modulus, V: np.ndarray, out, dden: int,
                       memo: dict | None = None):
    """Exhaustive reference check of one argument position: every pair of
    points (i < j) of the argument sort, the worst change over the other
    axes against the modulus of their distance.  Returns the report line
    for the first offending pair (rows in order; within a row the smallest
    distance, then the smallest j), or None.  out is the output distance
    table of a function, None for a predicate.  (levels, index) come from
    _levels, and memo is _thresholds'.  Rows go in blocks of about _BLOCK
    table changes."""
    n = sd.size
    thr = _thresholds(mod, levels, sd.den, dden, memo)
    if out is None and V.dtype.kind == "u":
        V = V.astype(np.int16)  # uint8 values; their differences are signed
    step = max(1, _BLOCK // (n * V.shape[1] or 1))
    for i0 in range(0, n - 1, step):
        i1 = min(i0 + step, n - 1)
        first, rest = V[i0:i1, None], V[None, i0 + 1:]
        dout = out[rest, first] if out is not None else np.abs(rest - first)
        dmax = dout.max(axis=2)  # [i - i0, j - i0 - 1]
        bad = dmax > thr[index[i0:i1, i0 + 1:]]
        bad &= np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]  # i < j
        hit = np.flatnonzero(bad.any(axis=1))
        if len(hit):
            r = int(hit[0])
            ks = np.flatnonzero(bad[r])
            row = sd.dmat[i0 + r, i0 + 1:]
            k = int(ks[np.argmin(row[ks])])
            u = row[k]
            return (f"modulus violation: {name} argument {pos} at pair "
                    f"{_pair_name(sd, i0 + r, i0 + 1 + k)}: input distance "
                    f"{show_rational(Fraction(int(u), sd.den))} allows change "
                    f"{show_rational(_allowed(mod, u, sd.den))}, "
                    f"table changes by "
                    f"{show_rational(Fraction(int(dmax[r, k]), dden))}")
    return None


def _metric_report(s: str, sd: SortData, report: list[str], certify: bool):
    """Metric axioms of one sort; returns the sort's ultrametric
    certificate (see _ultrametric_order), or None when the exhaustive
    O(n^3) triangle scan ran instead.  A sort built from ids that make an
    ultrametric in [0, 1] carries its certificate (see _id_metric), and
    nothing is left to check."""
    if certify and sd.tree is not None:
        return sd.tree
    D = sd.dmat
    n = sd.size
    clean = True
    hit = _first_hit(np.diag(D) != 0)
    if hit is not None:
        report.append(
            f"metric: nonzero diagonal at {sd.points[hit[0]]} in sort {s}")
        clean = False
    hit = _first_hit(D != D.T)
    if hit is not None:
        report.append(f"metric: asymmetry at {_pair_name(sd, *hit)} in sort {s}")
        clean = False
    lo, hi = int(D.min(initial=0)), int(D.max(initial=0))
    if lo < 0 or hi > sd.den:
        report.append(f"metric: entry outside [0,1] in sort {s}")
    zero = D == 0
    np.fill_diagonal(zero, False)  # identity concerns pairs i != j only
    hit = _first_hit(zero)
    if hit is not None:
        report.append(
            f"metric: identity of indiscernibles fails at "
            f"{_pair_name(sd, *hit)} in sort {s}")
    cert = _ultrametric_order(D) if certify and clean and n else None
    if cert is not None:
        return cert  # an ultrametric: the triangle inequality holds
    hit = _triangle_hit(D.astype(_narrow(2 * lo, 2 * hi)))
    if hit is not None:
        k, i, j = hit
        report.append(
            f"metric: triangle inequality fails for "
            f"{_pair_name(sd, i, j)} via {sd.points[k]} in sort {s}")
    return None


def _triangle_hit(D: np.ndarray):
    """The first (k, i, j) with D[i, j] > D[i, k] + D[k, j], the smallest k
    and then (i, j) in C order, or None.  The O(n^3) scan tests blocks of
    consecutive k of about _CERT_CELLS entries at once, so D's dtype must
    hold every sum of two entries."""
    n = len(D)
    DT = np.ascontiguousarray(D.T)
    step = max(1, min(n, _CERT_CELLS // max(D.size, 1)))
    sums = np.empty((step, n, n), dtype=D.dtype)
    bad = np.empty(sums.shape, dtype=bool)
    for k0 in range(0, n, step):
        m = min(step, n - k0)
        # sums[k, i, j] = D[i, k0 + k] + D[k0 + k, j]
        np.add(DT[k0:k0 + m, :, None], D[k0:k0 + m, None, :], out=sums[:m])
        np.less(sums[:m], D, out=bad[:m])
        hit = _first_hit(bad[:m])
        if hit is not None:
            return k0 + int(hit[0]), int(hit[1]), int(hit[2])
    return None


def check_structure(M: FiniteStructure) -> list[str]:
    """Validate M; returns one line per violation (empty = valid).

    Checks that every sort's distance is a metric with values in [0, 1]
    (zero diagonal, symmetry, identity of indiscernibles, triangle
    inequality) and that every function and predicate respects its
    declared modulus in each argument.

    Certificate first: a sort whose distance is an ultrametric, which an
    O(n^2) Prim pass certifies (or the level ids the sort was built from,
    see _id_metric), needs no triangle scan, and the moduli on
    its arguments are checked ball by ball over its nested closed balls
    (functions also need an ultrametric output sort).  A certificate or
    ball check only ever answers "valid".  Whenever one fails, the
    exhaustive checks (the O(n^3) triangle scan, the pairwise modulus
    scan) run and write the report, so the lines are exactly those of the
    exhaustive check."""
    return _check(M, certify=True)


def _check(M: FiniteStructure, certify: bool) -> list[str]:
    """check_structure; certify=False runs only the exhaustive checks, the
    reference that the certificates are tested against."""
    report: list[str] = []
    certs = {s: _metric_report(s, sd, report, certify)
             for s, sd in M.sorts.items()}
    merges = {s: _ball_merges(c[1]) for s, c in certs.items()
              if c is not None}
    lookup: dict = {}  # per sort, _levels for the exhaustive scan
    lines: dict = {}  # _thresholds' lines, computed once per check
    symbols = [("function", name, fn.arg_sorts, fn.table, fn.out_sort)
               for name, fn in M.functions.items() if fn.arg_sorts]
    symbols += [("predicate", name, pr.arg_sorts, pr.table, None)
                for name, pr in M.predicates.items()]
    for kind, name, arg_sorts, table, out_sort in symbols:
        mod = M.moduli.get(name)
        if mod is None:
            report.append(f"{kind} {name} has no declared modulus")
            continue
        if out_sort is None:  # a predicate: changes are value differences
            out, dden = None, M.predicates[name].den
            # a narrow copy that holds the values and any max - min of them
            lo = int(table.min(initial=0))
            table = table.astype(_narrow(lo, int(table.max(initial=0)) - lo))
        else:  # a function: changes are distances in the output sort
            out, dden = M.sorts[out_sort].dmat, M.sorts[out_sort].den
        # a function's ball check needs an ultrametric output sort
        fast = out_sort is None or out_sort in merges
        for pos, s in enumerate(arg_sorts):
            sd = M.sorts[s]
            V = np.moveaxis(table, pos, 0)
            V = V.reshape(sd.size, math.prod(V.shape[1:]))  # sizes may be 0
            if fast and s in merges:
                levels, idx = merges[s]
                thr = _thresholds(mod, levels, sd.den, dden, lines)
                if _balls_respect(V, certs[s][0], idx, thr, out):
                    continue
            if s not in lookup:
                lookup[s] = _levels(sd)
            line = _modulus_violation(sd, *lookup[s], name, pos, mod, V, out,
                                      dden, lines)
            if line:
                report.append(line)
    return report


# --------------------------------------------------------------------------
# Exact evaluation (vectorized over quantifier axes)
#
# A value is (den, v), v a Python int or an integer ndarray scaled by den.
# Axes count from the right: in a formula of quantifier depth D, the
# variable of a quantifier at depth d runs along the axis at offset D - d,
# and eval_table's listed variables along the offsets above D.

class _Axis:
    """A variable bound to a whole axis, at offset off from the right; tail
    indexes one dimension of a table into that place."""
    __slots__ = ("off", "tail")

    def __init__(self, off: int):
        self.off, self.tail = off, (slice(None),) + (None,) * (off - 1)


def _read(T, args):
    """T at its arguments: point indices, whole axes (_Axis) and index
    arrays.  Points and distinct axes read a view of T, transposed into the
    order of the axes (a Python int when no axis is left); index arrays,
    or an axis given twice, gather."""
    if len(args) == 2 and type(args[0]) is int and type(args[1]) is _Axis:
        return T[(args[0],) + args[1].tail]  # a row of a distance table
    kinds = [type(a) for a in args]
    offs = sorted((a.off for a in args if type(a) is _Axis), reverse=True)
    if np.ndarray in kinds or len(set(offs)) < len(offs):
        return T[tuple(np.arange(n)[a.tail] if k is _Axis else a
                       for n, a, k in zip(T.shape, args, kinds))]
    idx = [a for a in args if type(a) is not _Axis]
    if not offs:
        return int(T[tuple(idx)])
    T = T.transpose(sorted(range(len(args)), key=lambda k: -getattr(
        args[k], "off", math.inf)))  # the points first, then the axes
    for off, nxt in zip(offs, offs[1:] + [0]):
        idx += (slice(None),) + (None,) * (off - nxt - 1)
    return T[tuple(idx)]


def _affine(a: Fraction, b: Fraction, den: int, v):
    """clamp01(a * u + b) at the value u = v / den."""
    nden = den * a.denominator * b.denominator
    # nv = A·v + B·den, clamped to [0, nden], in the integer type of the
    # Python-int bound on |A·v| + |B·den| and on nden
    A, B = a.numerator * b.denominator, b.numerator * a.denominator
    if type(v) is not np.ndarray:
        nv = min(max(A * v + B * den, 0), nden)
        c = math.gcd(nv, nden)
        return nden // c, nv // c
    vmax = max(int(v.max(initial=0)), -int(v.min(initial=0)), 1)
    t = _int_type(max(abs(A) * vmax + abs(B) * den, nden))
    nv = v.astype(t, copy=False) * A
    nv += B * den
    np.minimum(np.maximum(nv, 0, out=nv), nden, out=nv)
    c = math.gcd(int(np.gcd.reduce(nv, axis=None)), nden)
    return nden // c, nv // c if c > 1 else nv


def _connective(g: Conn, kids):
    """The closure of a connective, or its value when every argument is a
    constant; two Python ints combine in Python ints."""
    op, a, b = g.op, kids[0], kids[1:]
    if op in ("max", "min"):
        npop, pyop = (np.maximum, max) if op == "max" else (np.minimum, min)

        def run(M, env):
            den, v = a(M, env) if callable(a) else a
            for k in b:
                den, v, w = _align((den, v), k(M, env) if callable(k) else k)
                v = npop(v, w) if type(v) is np.ndarray or \
                    type(w) is np.ndarray else pyop(v, w)
            return den, v
    elif op in ("neg", "affine", "monus", "cut"):
        def run(M, env):
            den, v = a(M, env) if callable(a) else a
            if op == "neg":
                return den, den - v
            if op == "affine":
                return _affine(*g.params, den, v)
            w = (g.params[0], 1) if op == "cut" else \
                b[0](M, env) if callable(b[0]) else b[0]
            den, v, w = _align((den, v), w)
            v = v - w  # monus: max(v - w, 0), in place on the fresh v - w
            return den, np.maximum(v, 0, out=v) if type(v) is np.ndarray \
                else max(v, 0)
    else:
        raise ValueError(op)
    return run if any(map(callable, kids)) else run(None, None)


def _closure(g, kids, D: int, d: int):
    """The closure run(M, env) of the node g at quantifier depth d of a
    formula of depth D over its children's: (sort, point indices) for a
    term, (den, value) for a formula, or that pair for a constant."""
    kind = type(g)
    if kind is Rat:
        return g.value.denominator, g.value.numerator
    if kind is Conn:
        return _connective(g, kids)
    if kind is Var or kind is Const:
        def run(M, env):
            if kind is Const:
                return M.constant(g.name)
            if g.name not in env:
                raise ValueError(f"unbound variable {g.name}")
            return env[g.name]
    elif kind is Dist:
        left, right = kids

        def run(M, env):
            (s, a), (s2, b) = left(M, env), right(M, env)
            if s != s2:
                raise ValueError(f"d across sorts {s} and {s2}")
            sd = M.sorts[s]
            if not (sd.bounded or sd.in_range()):
                raise ValueError(f"sort {s} has distances outside [0,1]")
            return sd.den, _read(sd.dmat, (a, b))
    elif kind is Quant:
        axis, off = _Axis(D - d), D - d
        red, pick = ((np.maximum, np.ndarray.argmax) if g.kind == "sup"
                     else (np.minimum, np.ndarray.argmin))

        def run(M, env):
            s = g.sort or M.only_sort()
            if not M.sorts[s].size:
                raise ValueError(f"quantifier over empty sort {s}")
            den, v = kids[0](M, {**env, g.var: (s, axis)}) \
                if callable(kids[0]) else kids[0]
            if type(v) is np.ndarray:  # reduced along the axis
                n = v.shape[-off] if v.ndim >= off else 1
                if v.size == n:  # to one value: an int
                    v = v.reshape(-1)
                    v = int(v[pick(v)])
                elif n > 1:
                    v = red.reduce(v, axis=-off, keepdims=True)
            return den, v
    else:  # a function application or a predicate
        fn = kind is App
        name = g.fn if fn else g.name

        def run(M, env):
            sorts, args = zip(*[k(M, env) for k in kids]) if kids \
                else ((), ())
            table = (M.functions if fn else M.predicates).get(name)
            if table is None:
                raise ValueError(f"unknown symbol {name}")
            if sorts != table.arg_sorts:
                raise ValueError(f"{name} takes sorts {table.arg_sorts}, "
                                 f"given {sorts}")
            if not (fn or table.bounded or _in_range(table, table.table)):
                raise ValueError(f"predicate {name} has values outside [0,1]")
            return (table.out_sort if fn else table.den,
                    _read(table.table, args))
    return run


def _shared(run, k):
    """run, evaluated once per plan call and kept as slot k of the call's
    env[_SLOTS]."""
    def once(M, env):
        slots = env[_SLOTS]
        if k not in slots:
            slots[k] = run(M, env)
        return slots[k]
    return once


def _apart(run):
    """run, a plan compiled before, on slots of its own: they are numbered
    apart from those of the plan it is one slot of."""
    return lambda M, env: run(M, {**env, _SLOTS: {}})


_SLOTS = "#slots"  # the env key of a plan call's shared values


def _compile(fs):
    """The formulas fs compiled into one plan of closures (Feeley &
    Lapalme 1987) with a root each, keeping nothing of a model.
    Structurally equal subterms, in one formula or across fs, are
    interned bottom-up into one slot (hash-consing, Filliatre & Conchon
    2006), keyed by kind, symbol, parameters and children's slots, a
    variable by its binder's depth and sort.  A slot read twice is
    evaluated once per plan call, quantifier bodies included: a bound
    variable is the whole axis at offset D - d (d its binder's depth, D
    the deepest of fs) over its binder's sort.  A subformula evaluated
    before (not one of fs) keeps its plan, one slot here with slots of
    its own; its quantifiers' axes lie below those around it.  Returns
    (roots, free): per formula its closure, or a constant (den, value);
    per slot the free variables it reads, whose slots a caller drops when
    it rebinds one."""
    slots, nodes, reads, free = {}, [], [], []  # key -> slot; per slot
    # (node, children, depth, plan compiled before), its parents' reads
    # and the free variables it reads
    memo, roots = _plan.key, {id(f) for f in fs}

    def intern(g, scope, d):
        kind, done, names = type(g), None, ()
        if kind is Var:
            kids, key = (), (kind, g.name, scope.get(g.name))
            names = () if key[2] else (g.name,)  # free, not bound in fs
        elif kind is Const:
            kids, key = (), (kind, g.name)
        elif kind is App:
            kids = tuple([intern(a, scope, d) for a in g.args])
            key = kind, g.fn, kids
        elif memo in g.__dict__ and id(g) not in roots:  # compiled before:
            done = g.__dict__[memo]  # one slot, as it is
            names = summary(g).free
            kids, key = (), (id(g), *map(scope.get, names))
            names = [v for v in names if v not in scope]
        elif kind is Quant:
            kids = (intern(g.body, {**scope, g.var: (d, g.sort)}, d + 1),)
            key = kind, g.kind, g.var, g.sort, d, kids
        elif kind is Conn:
            kids = tuple([intern(a, scope, d) for a in g.args])
            key = kind, g.op, g.params and tuple(
                [p.as_integer_ratio() for p in g.params]), kids
        elif kind is Rat:
            kids, key = (), (kind, g.value.as_integer_ratio())
        else:  # a distance or a predicate
            kids = tuple([intern(a, scope, d) for a in (
                (g.left, g.right) if kind is Dist else g.args)])
            key = kind, getattr(g, "name", None), kids
        k = slots.get(key)
        if k is None:
            k = slots[key] = len(nodes)
            nodes.append((g, kids, d, done))
            reads.append(0)
            names = free[kids[0]] if kids else frozenset(names)
            for j in kids:
                reads[j] += 1
                if not free[j] <= names:
                    names |= free[j]
            free.append(names)
        return k

    tops = [intern(f, {}, 0) for f in fs]
    del intern  # it refers to itself: free the cycle now, not at a collection
    D, built = max([summary(f).depth for f in fs], default=0), []
    for k, (g, kids, d, run) in enumerate(nodes):  # children first
        if run is None:
            run = _closure(g, [built[j] for j in kids] if kids else kids,
                           D, d)
        elif callable(run):
            run = _apart(run)
        built.append(_shared(run, k) if reads[k] > 1 and callable(run)
                     else run)
    return [built[k] for k in tops], free


@_memo_on_formula
def _plan(f: Formula):
    """f compiled once per formula object into a closure, or a constant
    (den, value): the one-root case of _compile, so a slot read twice is
    evaluated once per call."""
    return _compile((f,))[0][0]


def eval_formula(f: Formula, M: FiniteStructure, assignment=None) -> Fraction:
    """Exact value of f on M.  assignment maps free variable names to point
    names (sort resolved from annotations, or the unique sort)."""
    info = summary(f)
    env = {**_bind(info.free, M, assignment), _SLOTS: {}}
    den, v = _table(_plan(f), M, env, [], info.depth)
    return Fraction(int(v), den)


def eval_table(f: Formula, M: FiniteStructure, variables,
               assignment=None) -> tuple[int, np.ndarray]:
    """Exact values of f for all point combinations of the listed free
    variables at once.  variables: [(name, sort)], one numpy axis each in
    order; remaining free variables come from assignment.  Returns
    (den, table) with table integer-valued, scaled by den, and read-only
    (it may be a view of the structure's own tables)."""
    variables = [(v, s or M.only_sort()) for v, s in variables]
    env, total = _table_env([f], M, variables, assignment)
    den, v = _table(_plan(f), M, env, variables, total)
    shape = tuple(M.sorts[s].size for _, s in variables)
    if type(v) is np.ndarray and v.shape == shape:
        v.flags.writeable = False  # it may be a view of a table
    else:
        v = np.broadcast_to(v, shape)
    return den, v


def _satisfying(plan, fs, M: FiniteStructure, variables, bounds,
                assignment=None, blocks=None):
    """The tuples of the listed (name, sort) variables (the other free
    variables at the points assignment names) at which every formula of
    fs is within its bound, (q, strict) per formula: its value at most q,
    or below q when strict.  plan is fs's (roots, free) as _compile
    returns them; free may be None when there is one root.

    blocks holds index arrays of rows of the first variable; with blocks
    None, or no listed variable, there is one block of every row.  Per
    block, yields (rows, mask): the rows left (None: every row) and the
    satisfying tuples among them.  The roots are evaluated in turn
    through one slot table, so a subterm they share is evaluated once
    while the rows hold.  Once fewer rows satisfy the roots so far than
    are bound, the later roots are evaluated at those rows only, and the
    shared values that read the first variable are dropped; once no row
    is left, no later root is evaluated."""
    roots, free = plan
    env, total = _table_env(fs, M, variables, assignment)
    shape = tuple(M.sorts[s].size for _, s in variables)
    later = tuple(range(1, len(shape)))  # the axes after the first variable's
    for rows in (blocks if variables and blocks is not None else [None]):
        if rows is not None:
            _bind_rows(env, variables, total, rows)
        env[_SLOTS] = slots = {}
        here = shape if rows is None else (len(rows),) + shape[1:]
        mask = None
        for run, (q, strict) in zip(roots, bounds):
            if mask is not None:
                keep = mask.any(axis=later)
                if not keep.all():
                    if not keep.any():
                        break
                    mask = mask[keep]
                    rows = np.flatnonzero(keep) if rows is None else rows[keep]
                    _bind_rows(env, variables, total, rows)
                    for k in [k for k in slots if variables[0][0] in free[k]]:
                        del slots[k]
            den, table = _table(run, M, env, variables, total)
            sat = table <= _max_numerator(q, den, strict)
            if mask is not None:
                mask &= sat
            elif type(sat) is np.ndarray and sat.shape == here:
                mask = sat  # the first root's comparison is the mask
            else:
                mask = np.broadcast_to(sat, here).copy()
        yield rows, np.ones(here, dtype=bool) if mask is None else mask


def _table_env(fs, M: FiniteStructure, variables, assignment=None):
    """The environment eval_table evaluates the formulas fs in, with an
    empty slot table: variable j of the listed (name, sort) pairs along
    the axis at offset total - j, where total leaves room for the deepest
    of fs's quantifiers, and the other free variables of fs at the points
    assignment names (the first sort annotation of a variable in fs
    wins); an entry for a variable fs does not read is not bound.
    Returns (env, total)."""
    free, depth = {}, 0
    for f in fs:
        info = summary(f)
        depth = max(depth, info.depth)
        for v, s in info.free.items():
            free[v] = free.get(v) or s
    env = {_SLOTS: {}}
    listed = {v for v, _ in variables}
    for v, name in (assignment or {}).items():
        if v in free and v not in listed:
            s = free[v] or M.only_sort()
            env[v] = (s, M.point(s, name))
    missing = set(free) - listed - set(env)
    if missing:
        raise ValueError(f"unbound variables {sorted(missing)}")
    total = len(variables) + depth
    for j, (name, sort) in enumerate(variables):
        env[name] = (sort, _Axis(total - j))
    return env, total


def _bind_rows(env, variables, total: int, rows: np.ndarray):
    """Bind the first listed variable to the given rows, an index array,
    along the axis at offset total."""
    name, sort = variables[0]
    env[name] = (sort, rows.reshape((-1,) + (1,) * (total - 1)))


def _table(run, M: FiniteStructure, env, variables, total: int):
    """(den, value) of a plan's root run (a closure, or a constant) over
    the points env binds the listed variables to, its shared values kept
    in env[_SLOTS], unbroadcast: the value has at most one axis per
    listed variable, in their order from the right, and broadcasts
    against the table.  Each row is evaluated on its own, but den is that
    of the rows evaluated (the affine connective divides out the gcd of
    their values), so compare only through _max_numerator with this den."""
    den, v = run(M, env) if callable(run) else run
    if type(v) is np.ndarray:  # drop the quantifiers' axes, reduced to 1
        v = v.reshape(v.shape[:max(v.ndim - total + len(variables), 0)])
    return den, v


def _bind(free: dict, M: FiniteStructure, assignment):
    """Environment for the free variables (name -> sort annotation) from
    an assignment of point names."""
    assignment = assignment or {}
    env = {}
    for v, s in free.items():
        if v not in assignment:
            raise ValueError(f"unbound variable {v}")
        s = s or M.only_sort()
        env[v] = (s, M.point(s, assignment[v]))
    return env


# --------------------------------------------------------------------------
# Bounds toward the intended infinite model

@dataclass(frozen=True)
class EvalResult:
    lo: Fraction
    hi: Fraction
    notes: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        if self.lo == self.hi:
            return "exact"
        if self.lo == ZERO:
            return "open" if self.hi == ONE else "upper"
        if self.hi == ONE:
            return "lower"
        return "interval"


def eval_bounds(f: Formula, M: FiniteStructure, assignment=None) -> EvalResult:
    """Bounds on f's value in the intended infinite model.

    f must be prenex (or quantifier-free).  Each finite sup is a lower
    bound, each finite inf an upper bound.  When the quantified sort
    declares a density radius r, the true extremum differs from the finite
    one by at most the matrix's value change over radius r, so the other
    side widens by that much; without a radius it stays open.  Each
    widening is the same monotone map at every point of its level, so it
    commutes with the finite sup/inf: the bounds are the exact finite
    value widened once per quantifier, innermost first.  A quantifier whose
    variable the matrix's modulus ignores (a constant modulus) is finite
    and exact: it widens nothing."""
    if not summary(f).prenex:
        raise ValueError("eval_bounds requires a prenex formula")
    prefix = []
    g = f
    while isinstance(g, Quant):
        prefix.append(g)
        g = g.body
    lo = hi = eval_formula(f, M, assignment)
    density = M.meta.get("density", {})
    sym = M.symbol_moduli()
    notes = {}
    for q in reversed(prefix):
        mod = _modulus_for_var(g, q.var, sym)
        if mod.points[-1][1] == ZERO:  # omega is 0 everywhere
            continue
        sort = q.sort or M.only_sort()
        r = density.get(sort)
        if r is None:
            notes[f"sort {sort}: no density radius, {q.kind} bound "
                  "one-sided"] = None
        # a slack of 1 opens the side fully: it clamps to 1 or 0
        eps = ONE if r is None else mod.omega(r)
        if q.kind == "sup":
            hi = min(ONE, hi + eps)
        else:
            lo = max(ZERO, lo - eps)
    return EvalResult(lo, hi, tuple(notes))


# --------------------------------------------------------------------------
# Model file format

# [meta] keys besides density whose value is a map, one line per item
# (forge's premodel records each pair's decision radius)
_META_MAPS = ("radius",)
_SECTION = re.compile(r"^\[([a-zA-Z]+)(?:\s+([^\]:]+?))?(?:\s*:\s*([^\]]*))?\]$")


def save_structure(M: FiniteStructure, path: str):
    lines = ["[sorts]"]
    lines.extend(M.sorts)
    lines.append("[points]")
    for s, sd in M.sorts.items():
        lines.extend(f"{s} {a}" for a in sd.points)
    lines.append("[metric]")
    for s, sd in M.sorts.items():
        for i in range(sd.size):
            for j in range(i + 1, sd.size):
                lines.append(f"{s} {sd.points[i]} {sd.points[j]} "
                             f"{show_rational(sd.dist(i, j))}")
    for name, fn in M.functions.items():
        sig = " ".join(fn.arg_sorts) + " -> " + fn.out_sort
        lines.append(f"[fn {name} : {sig}]")
        sizes = [range(M.sorts[s].size) for s in fn.arg_sorts]
        for combo in product(*sizes):
            args = " ".join(M.sorts[s].points[i] for s, i in zip(fn.arg_sorts, combo))
            out = M.sorts[fn.out_sort].points[int(fn.table[combo])]
            lines.append((args + " " if args else "") + out)
    for name, pr in M.predicates.items():
        lines.append(f"[pred {name} : {' '.join(pr.arg_sorts)}]")
        sizes = [range(M.sorts[s].size) for s in pr.arg_sorts]
        for combo in product(*sizes):
            args = " ".join(M.sorts[s].points[i] for s, i in zip(pr.arg_sorts, combo))
            lines.append(f"{args} {show_rational(pr.value(*combo))}")
    lines.append("[moduli]")
    for name, mod in M.moduli.items():
        pts = " ".join(f"{show_rational(r)}:{show_rational(w)}" for r, w in mod.points)
        lines.append(f"{name} points {pts}")
    lines.append("[meta]")
    for k, v in M.meta.items():  # a map one line per item, as load reads it
        if k == "density":
            lines.extend(f"density {s} "
                         f"{'none' if r is None else show_rational(r)}"
                         for s, r in v.items())
        elif k in _META_MAPS:
            lines.extend(f"{k} {item} {x}" for item, x in v.items())
        else:
            lines.append(f"{k} {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_structure(path: str, validate: bool = True) -> FiniteStructure:
    section = None
    header: tuple = ()
    sort_names: list[str] = []
    points: dict[str, list[str]] = {}
    metric_entries: dict[str, dict[tuple[str, str], str]] = {}
    fn_specs: dict[str, tuple] = {}
    pred_specs: dict[str, tuple] = {}
    moduli: dict[str, Modulus] = {}
    meta: dict = {}
    # tables repeat few distinct values: parse each text once
    parse_value = lru_cache(maxsize=None)(parse_rational)

    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _SECTION.match(line) if line[0] == "[" else None
            if m:
                section = m.group(1)
                header = (m.group(2) or "", m.group(3) or "")
                if section == "fn":
                    name = header[0].strip()
                    left, _, out = header[1].partition("->")
                    fn_specs[name] = (tuple(left.split()), out.strip(), {})
                elif section == "pred":
                    name = header[0].strip()
                    pred_specs[name] = (tuple(header[1].split()), {})
                continue
            toks = line.split()
            try:
                if section == "metric":  # the bulk of a file
                    s, a, b, q = toks
                    parse_value(q)  # a malformed value fails on its line
                    metric_entries[s][(a, b)] = q
                elif section == "sorts":
                    sort_names.append(toks[0])
                    points.setdefault(toks[0], [])
                    metric_entries.setdefault(toks[0], {})
                elif section == "points":
                    points[toks[0]].append(toks[1])
                elif section == "fn":
                    name = header[0].strip()
                    arg_sorts, out, table = fn_specs[name]
                    table[tuple(toks[:-1])] = toks[-1]
                elif section == "pred":
                    name = header[0].strip()
                    arg_sorts, table = pred_specs[name]
                    table[tuple(toks[:-1])] = parse_value(toks[-1])
                elif section == "moduli":
                    name, kind = toks[0], toks[1]
                    if kind == "lipschitz":
                        moduli[name] = Modulus.lipschitz(parse_rational(toks[2]))
                    elif kind == "points":
                        pts = tuple(
                            (parse_rational(p.split(":")[0]),
                             parse_rational(p.split(":")[1])) for p in toks[2:])
                        moduli[name] = Modulus(pts)
                    else:
                        raise ValueError(f"unknown modulus form {kind!r}")
                elif section == "meta":  # in the order of the lines
                    if toks[0] == "density":
                        meta.setdefault("density", {})[toks[1]] = (
                            None if toks[2] == "none"
                            else parse_rational(toks[2]))
                    elif toks[0] in _META_MAPS:
                        meta.setdefault(toks[0], {})[toks[1]] = \
                            " ".join(toks[2:])
                    elif toks[0] in ("depth", "branch"):
                        meta[toks[0]] = int(toks[1])
                    else:
                        meta[toks[0]] = " ".join(toks[1:])
                else:
                    raise ValueError("content before any section header")
            except (KeyError, IndexError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: malformed line: {e}") from e

    def metric_table(s):
        names = points[s]
        idx = {a: i for i, a in enumerate(names)}
        if len(idx) != len(names):
            raise ValueError(f"duplicate point names in sort {s}")
        entries = metric_entries[s]
        n, m = len(names), len(entries)
        rows, cols = (np.fromiter(map(idx.get, map(itemgetter(k), entries),
                                      repeat(-1)), np.intp, m) for k in (0, 1))
        odd = np.flatnonzero((rows < 0) | (cols < 0) | (rows == cols))
        if len(odd):  # unknown points, or a point and itself
            keys = list(entries)
            for k in odd:
                a, b = keys[k]
                if a not in idx or b not in idx:
                    raise ValueError(f"metric entry names an unknown point: "
                                     f"{a}, {b} in sort {s}")
                if parse_value(entries[a, b]):
                    raise ValueError(f"nonzero metric entry for {a}, {b} "
                                     f"in sort {s}")
        used = rows != cols  # a zero self-entry adds nothing
        texts = entries.values()
        values = {q: parse_value(q) for q in set(compress(texts, used))}
        den, ints = _on_one_den(values.values())
        if _int_type(max([den, *map(abs, ints)])) is object:
            raise ValueError(f"metric denominator too large for sort {s}")
        scaled = dict(zip(values, ints))
        vals = np.fromiter(map(scaled.get, texts, repeat(0)), np.int64, m)
        rows, cols, vals = rows[used], cols[used], vals[used]
        dmat = np.zeros((n, n), dtype=np.int64)
        given = np.eye(n, dtype=bool)
        # d(a, b) is the (a, b) entry, else the (b, a) entry
        for a, b in ((cols, rows), (rows, cols)):
            dmat[a, b] = vals
            given[a, b] = True
        hit = _first_hit(~given)
        if hit is not None:
            i, j = hit
            raise ValueError(f"missing metric entry for {names[i]}, "
                             f"{names[j]} in sort {s}")
        return den, dmat

    functions = {
        name: (arg_sorts, out, (lambda t: (lambda *a: t[a]))(table))
        for name, (arg_sorts, out, table) in fn_specs.items()}
    predicates = {
        name: (arg_sorts, (lambda t: (lambda *a: t[a]))(table))
        for name, (arg_sorts, table) in pred_specs.items()}
    M = FiniteStructure.build({s: points[s] for s in sort_names},
                              {s: metric_table(s) for s in sort_names},
                              functions, predicates, moduli, meta)
    if validate:
        report = check_structure(M)
        if report:
            raise ValueError(f"{path}: invalid structure:\n" + "\n".join(report))
    return M
