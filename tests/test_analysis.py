"""Realization scans, isomorphism search, equivalence evidence."""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlw.structures
from mlw import analysis
from mlw.analysis import (IsoWitness, Refusal, Sublanguage, eq_evidence,
                          find_iso, realization_tree, realizes, verify_iso,
                          verify_iso_on_domain)
from mlw.conditions import (PartialType, _closed_formula, closed,
                             normalize_condition, type_and, type_or)
from mlw.formulas import App, Dist, Rat, Var, fmonus, parse_formula, prenex
from mlw.models import (build_M, build_M4, build_N, build_N2, build_N3,
                        build_model, build_type, canonical_truncation,
                        parse_kfamily, relabel)
from mlw.moduli import Modulus
from mlw.structures import (FiniteStructure, FnTable, PredTable, SortData,
                            _ball_merges, _max_numerator, _sorted_agreement,
                            check_structure, eval_formula, eval_table)
from mlw.trees import build_tree, truncate


def _random_structure(rng, n=4, with_pred=True):
    """Small one-sort structure with a random ultrametric-ish table and a
    random unary predicate, honest moduli."""
    names = [f"p{i}" for i in range(n)]
    levels = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    # random hierarchical partition yields a genuine ultrametric
    group = {a: rng.randrange(2) for a in names}
    sub = {a: rng.randrange(2) for a in names}

    def metric(a, b):
        if a == b:
            return Fraction(0)
        if group[a] != group[b]:
            return levels[0]
        if sub[a] != sub[b]:
            return levels[1]
        return levels[2]

    preds = None
    if with_pred:
        pv = {a: Fraction(rng.randrange(2)) for a in names}
        preds = {"P": (("A",), lambda x: pv[x])}
    return FiniteStructure.build(
        {"A": names}, {"A": metric}, None, preds,
        {"P": Modulus.lipschitz(3)} if with_pred else None)


def exhaustive_iso(A, B, L0=None):
    """Brute-force oracle over all per-sort bijections (tiny structures)."""
    if L0 is None:
        L0 = Sublanguage(frozenset(A.functions) & frozenset(B.functions),
                         frozenset(A.predicates) & frozenset(B.predicates))
    if set(A.sorts) != set(B.sorts):
        return None
    sorts = sorted(A.sorts)
    if any(A.sorts[s].size != B.sorts[s].size for s in sorts):
        return None
    pools = [permutations(range(B.sorts[s].size)) for s in sorts]
    for choice in product(*pools):
        mapping = {
            s: {A.sorts[s].points[i]: B.sorts[s].points[p[i]]
                for i in range(A.sorts[s].size)}
            for s, p in zip(sorts, choice)}
        w = IsoWitness(mapping)
        if not verify_iso(A, B, L0, w):
            return w
    return None


def _shuffled(M, rng):
    """A copy of M with every sort's points shuffled and renamed."""
    perm = {s: np.array(rng.sample(range(sd.size), sd.size), dtype=np.intp)
            for s, sd in M.sorts.items()}  # A's point i is B's perm[s][i]
    inv = {s: np.argsort(p) for s, p in perm.items()}

    def moved(table, arg_sorts):
        return table[np.ix_(*(inv[s] for s in arg_sorts))]

    sorts = {}
    for s, sd in M.sorts.items():
        names = tuple(f"q{j}" for j in range(sd.size))
        sorts[s] = SortData(names, sd.den, moved(sd.dmat, (s, s)),
                            {a: j for j, a in enumerate(names)})
    fns = {name: FnTable(f.arg_sorts, f.out_sort, np.asarray(
        perm[f.out_sort][moved(f.table, f.arg_sorts)]))
        for name, f in M.functions.items()}
    preds = {name: PredTable(p.arg_sorts, p.den, moved(p.table, p.arg_sorts))
             for name, p in M.predicates.items()}
    return FiniteStructure(sorts, fns, preds, dict(M.moduli), dict(M.meta))


def test_find_iso_agrees_with_exhaustive_oracle():
    rng = random.Random(7)
    for trial in range(25):
        A = _random_structure(rng)
        B = _random_structure(rng)
        got = find_iso(A, B)
        want = exhaustive_iso(A, B)
        assert isinstance(got, IsoWitness) == (want is not None), \
            f"trial {trial}"
        if isinstance(got, IsoWitness):
            assert verify_iso(A, B, Sublanguage.full(A), got) == []


def test_find_iso_finds_relabelling():
    rng = random.Random(3)
    for trial in range(10):
        A = _random_structure(rng)
        B = _shuffled(A, rng)
        got = find_iso(A, B)
        assert isinstance(got, IsoWitness), f"trial {trial}"


def test_refusal_names_invariant(n22):
    other = build_N(2, 3)
    r = find_iso(n22, other)
    assert isinstance(r, Refusal)
    assert r.reason


def test_realizes_order_is_lexicographic(n22):
    t = PartialType((("x0", "D1"),),
                    (closed(parse_formula("monus(d(f0(x0), x0), 1/3)")),),
                    None, "near")
    hits = realizes(n22, t)
    pts = list(n22.sorts["D1"].points)
    order = [pts.index(h[0]) for h in hits]
    assert order == sorted(order)


def test_realizes_tolerance_is_monotone(n33):
    t = PartialType((("x0", "D1"),),
                    (closed(parse_formula("absdiff(d(f1(x0), x0), 1/2)")),),
                    None, "at-level-1")
    tight = set(realizes(n33, t, tol=Fraction(0)))
    loose = set(realizes(n33, t, tol=Fraction(1, 6)))
    assert tight <= loose


def test_realization_tree_counts(n33):
    t = PartialType((("x0", "D1"),),
                    (closed(parse_formula("monus(1/2, d(f0(x0), x0))")),),
                    None, "far")
    rep = realization_tree(n33, t, depth=2)
    assert rep.level_counts[0] == 1
    assert rep.has_full_path == (rep.died_at is None)
    assert len(rep.level_counts) >= 2


def _enumerated_tree(M, t, depth):
    """(level_counts, died_at) of t's chain tree on M's sort D1, by listing
    every k-tuple of points whose point at each stage i >= 1 meets
    conditions 0 .. i within 1/i and lies within 2^(1-i) of the point
    before it."""
    sd = M.sorts["D1"]
    conds = [_closed_formula(c) for c in t.fragment(depth)]
    value = [[eval_formula(f, M, {"x0": p}) for f in conds]
             for p in sd.points]
    meets = [[all(v <= Fraction(1, i) for v in vals[:i + 1]) for vals in value]
             for i in range(1, depth)]  # meets[i - 1][p]: stage i at p
    near = [[[Fraction(int(d), sd.den) <= Fraction(1, 2 ** (i - 1))
              for d in row] for row in sd.dmat] for i in range(1, depth)]
    counts = [1]
    for k in range(1, depth + 1):
        counts.append(sum(
            all(meets[i - 1][x[i]] and near[i - 1][x[i - 1]][x[i]]
                for i in range(1, k))
            for x in product(range(sd.size), repeat=k)))
        if not counts[-1]:
            return tuple(counts), k
    return tuple(counts), None


# condition 2 leaves only the root from stage 2 on, and condition 0 drops
# the root at stage 3, so the tree dies at level 4
DIES = PartialType((("x0", "D1"),), tuple(closed(parse_formula(f)) for f in (
    "monus(1/2, d(f0(x0), x0))", "d(x0, x0)", "d(f0(x0), x0)")), None, "dies")


@pytest.mark.parametrize("spec,depths", [
    ("N(depth=2,branch=2)", (1, 2, 3)), ("N(depth=3,branch=2)", (1, 2, 3, 4)),
    ("M(depth=3,branch=1)", (1, 2, 3, 4))])
@pytest.mark.parametrize("kind", ["s0_branch", "finite"])
def test_realization_tree_matches_enumerated_chains(spec, depths, kind):
    M = build_model(spec)
    t = build_type("s0_branch", sort="D1") if kind == "s0_branch" else DIES
    for depth in depths:
        rep = realization_tree(M, t, depth)
        assert (rep.level_counts, rep.died_at) == \
            _enumerated_tree(M, t, depth), depth
    if kind == "finite" and depth == 4:
        assert rep.died_at == 4


def test_eq_evidence_worked_bound(n22):
    L0 = Sublanguage.full(n22)
    ident = IsoWitness({"D1": {p: p for p in n22.sorts["D1"].points}})
    f = prenex(parse_formula("inf x1 . d(x0, x1)"))
    delta = eq_evidence(n22, n22, L0, Fraction(1, 8), ident, f)
    # 1-Lipschitz matrix in two variables at radius 1/8: bound 2*(1/8+1/8)
    assert delta == Fraction(1, 2)


# --------------------------------------------------------------------------
# verify_iso: exact table comparison

def test_verify_iso_has_no_int64_wraparound():
    # 1/2^33 against (1 + 2^31)/2^33: cross-multiplying by the other
    # denominator gives 2^33 and 2^33 + 2^64, equal after int64 wraparound
    def two_point(num):
        return FiniteStructure.build(
            {"S": ["a", "b"]},
            {"S": (2**33, np.array([[0, num], [num, 0]]))})
    A, B = two_point(1), two_point(1 + 2**31)
    w = IsoWitness({"S": {"a": "a", "b": "b"}})
    assert verify_iso(A, B, Sublanguage(), w) == [
        "metric not preserved at (a, b)"]


def _verify_iso_loops(A, B, L0, w):
    """verify_iso written as plain loops over exact Fractions."""
    idx = {}
    for s in A.sorts:
        m = w.mapping.get(s, {})
        if set(m) != set(A.sorts[s].points) or \
                set(m.values()) != set(B.sorts[s].points):
            return [f"mapping is not a bijection on sort {s}"]
        idx[s] = {A.sorts[s].index[a]: B.sorts[s].index[b]
                  for a, b in m.items()}
    out = []
    for s, sa in A.sorts.items():
        sb, m = B.sorts[s], idx[s]
        bad = [(i, j) for i in range(sa.size) for j in range(sa.size)
               if sa.dist(i, j) != sb.dist(m[i], m[j])]
        if bad:
            i, j = bad[0]
            out.append(f"metric not preserved at ({sa.points[i]}, "
                       f"{sa.points[j]})")
    for kind, ta, tb in (("function", A.functions, B.functions),
                         ("predicate", A.predicates, B.predicates)):
        for name in sorted(L0.functions if kind == "function"
                           else L0.predicates):
            a, b = ta[name], tb[name]
            for combo in product(*(range(A.sorts[s].size)
                                   for s in a.arg_sorts)):
                mapped = tuple(idx[s][i] for s, i in zip(a.arg_sorts, combo))
                if kind == "function":
                    same = idx[a.out_sort][int(a.table[combo])] == \
                        int(b.table[mapped])
                else:
                    same = a.value(*combo) == b.value(*mapped)
                if not same:
                    args = ", ".join(A.sorts[s].points[i]
                                     for s, i in zip(a.arg_sorts, combo))
                    out.append(f"{kind} {name} not preserved at ({args})")
                    break
    return out


def _random_pair(rng):
    """A two-sort structure with 0-ary to binary symbols and denominators
    up to 2^40, a relabelled copy over other denominators with at most one
    entry changed, and a bijection that is the relabelling or random."""
    sizes = {"A": rng.randrange(1, 4), "B": rng.randrange(0, 3)}
    perms = {s: rng.sample(range(n), n) for s, n in sizes.items()}
    names = {s: [f"{s.lower()}{i}" for i in range(n)]
             for s, n in sizes.items()}

    def table(shape, den):
        return np.array([rng.randrange(den + 1)
                         for _ in range(int(np.prod(shape)))],
                        dtype=np.int64).reshape(shape)

    def moved(t, arg_sorts):  # the table seen through the relabelling
        out = np.empty_like(t)
        for combo in product(*(range(sizes[s]) for s in arg_sorts)):
            out[tuple(perms[s][i] for s, i in zip(arg_sorts, combo))] = \
                t[combo]
        return out

    sorts_a, sorts_b = {}, {}
    for s, n in sizes.items():
        den, k = rng.choice([3, 2**33, 2**40 - 87]), rng.randrange(1, 4)
        d = table((n, n), den)
        sorts_a[s] = SortData(tuple(names[s]), den, d,
                              {a: i for i, a in enumerate(names[s])})
        sorts_b[s] = SortData(tuple(names[s]), den * k,
                              moved(d, (s, s)) * k,
                              {a: i for i, a in enumerate(names[s])})
    fns_a, fns_b = {}, {}
    for name, arg_sorts, out in (("c", (), "A"), ("f", ("A",), "B"),
                                 ("g", ("A", "B"), "A")):
        if sizes[out] == 0 and all(sizes[s] for s in arg_sorts):
            continue
        shape = tuple(sizes[s] for s in arg_sorts)
        t = table(shape, max(sizes[out] - 1, 0))
        fns_a[name] = FnTable(arg_sorts, out, t)
        fns_b[name] = FnTable(arg_sorts, out,
                              moved(np.array(perms[out], dtype=np.int64)[t]
                                    if t.size else t, arg_sorts))
    preds_a, preds_b = {}, {}
    for name, arg_sorts in (("P", ("B",)), ("Q", ("A", "A"))):
        den, k = rng.choice([5, 2**35]), rng.randrange(1, 4)
        t = table(tuple(sizes[s] for s in arg_sorts), den)
        preds_a[name] = PredTable(arg_sorts, den, t)
        preds_b[name] = PredTable(arg_sorts, den * k, moved(t, arg_sorts) * k)
    A = FiniteStructure(sorts_a, fns_a, preds_a)
    B = FiniteStructure(sorts_b, fns_b, preds_b)
    if rng.random() < 0.5:  # change one entry of one table of B
        tables = [(sd.dmat, None) for sd in sorts_b.values()]
        tables += [(p.table, None) for p in preds_b.values()]
        tables += [(f.table, sizes[f.out_sort]) for f in fns_b.values()]
        tables = [(t, n) for t, n in tables if t.size and n != 1]
        if tables:
            t, n = rng.choice(tables)
            k = rng.randrange(t.size)
            t.flat[k] = (t.flat[k] + 1) % n if n else \
                t.flat[k] + rng.choice([-1, 1])
    perm = perms if rng.random() < 0.5 else \
        {s: rng.sample(range(n), n) for s, n in sizes.items()}
    w = IsoWitness({s: {names[s][i]: names[s][perm[s][i]]
                        for i in range(sizes[s])} for s in sizes})
    return A, B, w


def test_verify_iso_matches_exact_loops():
    rng = random.Random(11)
    verdicts = set()
    for trial in range(400):
        A, B, w = _random_pair(rng)
        L0 = Sublanguage.full(A)
        want = _verify_iso_loops(A, B, L0, w)
        assert verify_iso(A, B, L0, w) == want, f"trial {trial}"
        verdicts.add(bool(want))
    assert verdicts == {True, False}


@pytest.mark.parametrize("relabel_b", [False, True])
def test_verify_iso_reports_a_one_distance_corruption(n33, relabel_b):
    """A whole sort in index order compares A's metric as it is; the
    report names the same first pair as the exact loops."""
    rng = random.Random(5)
    B = _shuffled(n33, rng) if relabel_b else n33
    w = find_iso(n33, B)
    sd = B.sorts["D1"]
    dmat = sd.dmat.copy()
    dmat[7, 3] = dmat[3, 7] = dmat[7, 3] // 2
    bad = FiniteStructure(
        {"D1": SortData(sd.points, sd.den, dmat, sd.index)}, B.functions,
        B.predicates, B.moduli, B.meta)
    L0 = Sublanguage.full(n33)
    got = verify_iso(n33, bad, L0, w)
    assert got == _verify_iso_loops(n33, bad, L0, w)
    assert len(got) == 1 and got[0].startswith("metric not preserved at (")
    if not relabel_b:
        assert got == ["metric not preserved at (<2>, <1,0>)"]


def _on_domain_loops(A, B, L0, w):
    """verify_iso_on_domain written as plain loops over exact Fractions."""
    idx = {s: {A.sorts[s].index[a]: B.sorts[s].index[b]
               for a, b in m.items()} for s, m in w.mapping.items()}
    for s, m in idx.items():
        sa, sb = A.sorts[s], B.sorts[s]
        for i in m:
            for j in m:
                if sa.dist(i, j) != sb.dist(m[i], m[j]):
                    return [f"metric not preserved at ({sa.points[i]}, "
                            f"{sa.points[j]})"]
    for kind, ta, tb in (("function", A.functions, B.functions),
                         ("predicate", A.predicates, B.predicates)):
        for name in sorted(L0.functions if kind == "function"
                           else L0.predicates):
            a, b = ta[name], tb[name]
            for combo in product(*(sorted(idx.get(s, {}))
                                   for s in a.arg_sorts)):
                mapped = tuple(idx[s][i] for s, i in zip(a.arg_sorts, combo))
                if kind == "function":
                    out = idx.get(a.out_sort, {})
                    v = int(a.table[combo])
                    same = v not in out or out[v] == int(b.table[mapped])
                else:
                    same = a.value(*combo) == b.value(*mapped)
                if not same:
                    return [f"{kind} {name} not preserved on the domain"]
    return []


def test_verify_iso_on_domain_matches_exact_loops():
    rng = random.Random(12)
    verdicts = set()
    for trial in range(400):
        A, B, w = _random_pair(rng)
        L0 = Sublanguage.full(A)
        part = {}  # a random part of w, in a random order
        for s, m in w.mapping.items():
            if rng.random() < 0.9:
                kept = [ab for ab in m.items() if rng.random() < 0.7]
                part[s] = dict(rng.sample(kept, len(kept)))
        part = IsoWitness(part)
        want = _on_domain_loops(A, B, L0, part)
        assert verify_iso_on_domain(A, B, L0, part) == want, f"trial {trial}"
        verdicts.add(want[0].split()[0] if want else "")
    assert verdicts == {"", "metric", "function", "predicate"}


# --------------------------------------------------------------------------
# verify_iso: the metric compared in blocks of rows

def _corrupted(A, B, w, entries, k=1):
    """B with its one sort over k times its den, and each pair (i, j) of A
    indices in entries moved, on B's side at (w(i), w(j)) only, by 1/(k
    den): so the exact report names the first entry in the order of the
    rows compared."""
    (s, sb), = B.sorts.items()
    d = sb.dmat * k
    for i, j in entries:
        a, b = (sb.index[w.mapping[s][A.sorts[s].points[x]]] for x in (i, j))
        d[a, b] += 1
    return FiniteStructure({s: SortData(sb.points, sb.den * k, d, sb.index)},
                           B.functions, B.predicates, B.moduli, B.meta)


# entries by place among the rows compared: at 3 rows per block, 2 ends a
# block and 3 starts one; the last place is the last row
PLACES = {"first row": [(0, 5)], "end of a block": [(2, 11)],
          "start of a block": [(3, 1)],
          "across a boundary": [(3, 0), (2, 30)],
          "within one block": [(5, 1), (4, 38)], "last row": [(-1, -2)]}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("place", PLACES)
def test_blocked_check_reports_as_the_exact_loops(place, k, monkeypatch):
    """Blocks of three rows; B relabelled, at A's den or twice it."""
    A = build_model("N(depth=3,branch=3)")
    n = A.sorts["D1"].size
    monkeypatch.setattr(analysis, "_CERT_CELLS", 3 * n)
    B = _shuffled(A, random.Random(place))
    w, L0 = find_iso(A, B), Sublanguage.full(A)
    bad = _corrupted(A, B, w, [(i % n, j % n) for i, j in PLACES[place]], k)
    got = verify_iso(A, bad, L0, w)
    assert got == _verify_iso_loops(A, bad, L0, w)
    i, j = (x % n for x in min(PLACES[place]))
    assert got == [_metric_line(A, i, j)]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("place", PLACES)
def test_blocked_check_on_a_domain_reports_as_the_exact_loops(
        place, k, monkeypatch):
    """A partial map of 20 pairs in a random order, in blocks of three of
    its rows: the places are the map's."""
    A = build_model("N(depth=3,branch=3)")
    monkeypatch.setattr(analysis, "_CERT_CELLS", 3 * 20)
    rng = random.Random(place)
    B = _shuffled(A, rng)
    w, L0 = find_iso(A, B), Sublanguage.full(A)
    dom = rng.sample(range(A.sorts["D1"].size), 20)
    names = A.sorts["D1"].points
    part = IsoWitness({"D1": {names[i]: w.mapping["D1"][names[i]]
                              for i in dom}})
    places = [(i % 20, j % 20) for i, j in PLACES[place]]
    bad = _corrupted(A, B, w, [(dom[i], dom[j]) for i, j in places], k)
    got = verify_iso_on_domain(A, bad, L0, part)
    assert got == _on_domain_loops(A, bad, L0, part)
    i, j = min(places)
    assert got == [_metric_line(A, dom[i], dom[j])]


def test_blocked_check_spans_blocks_unpatched():
    """781 points: blocks of 2^18 // 781 = 335 rows, three of them; one
    wrong entry in the last row, so every block is compared."""
    A = build_model("N(depth=4,branch=5)")
    assert analysis._CERT_CELLS // A.sorts["D1"].size == 335
    B = _shuffled(A, random.Random(1))
    w, L0 = find_iso(A, B), Sublanguage.full(A)
    bad = _corrupted(A, B, w, [(780, 17)])
    got = verify_iso(A, bad, L0, w)
    assert got == _verify_iso_loops(A, bad, L0, w)
    assert got == [_metric_line(A, 780, 17)]


def _metric_line(A, i, j):
    names = A.sorts["D1"].points
    return f"metric not preserved at ({names[i]}, {names[j]})"


# --------------------------------------------------------------------------
# find_iso: a complete search

def test_find_iso_matches_exhaustive_search():
    rng = random.Random(13)
    verdicts = set()
    for trial in range(600):
        A, B, _ = _random_pair(rng)
        got, want = find_iso(A, B), exhaustive_iso(A, B)
        assert isinstance(got, IsoWitness) == (want is not None), \
            f"trial {trial}: {got}"
        if isinstance(got, IsoWitness):
            assert verify_iso(A, B, Sublanguage.full(A), got) == []
        else:
            assert got.reason in ("label-count invariant",
                                  "backtracking exhausted")
        verdicts.add(want is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", [
    "N(depth=3,branch=2)", "N(depth=2,branch=3)", "N2(depth=2,branch=2)",
    "N2(depth=3,branch=2)", "N3(depth=2,branch=2)",
    "Projection(depth=2,branch=2)", "M(depth=2,branch=2)",
    "M_l(depth=3,branch=2,l=2)", "M4(depth=2,branch=2)"])
def test_find_iso_finds_relabelled_constructors(spec):
    A = build_model(spec)
    rng = random.Random(spec)
    for _ in range(3):
        B = _shuffled(A, rng)
        got = find_iso(A, B)
        assert isinstance(got, IsoWitness), got
        assert verify_iso(A, B, Sublanguage.full(A), got) == []


def test_find_iso_needs_no_recursion_on_large_structures():
    A = build_model("N(depth=5,branch=4)")
    assert A.total_points() == 1365  # deeper than the recursion limit
    B = _shuffled(A, random.Random(5))
    got = find_iso(A, B)
    assert isinstance(got, IsoWitness)
    assert verify_iso(A, B, Sublanguage.full(A), got) == []


def _cycles(*lengths):
    """Disjoint cycles on points v0, v1, ...: distance 1/2 along an edge,
    1 between any other two points."""
    edges, k = set(), 0
    for n in lengths:
        edges |= {frozenset((k + i, k + (i + 1) % n)) for i in range(n)}
        k += n
    names = [f"v{i}" for i in range(k)]
    return FiniteStructure.build({"S": names}, {"S": lambda a, b: Fraction(
        0 if a == b else 1 if frozenset((names.index(a), names.index(b)))
        not in edges else Fraction(1, 2))})


def test_find_iso_backtracks_where_refinement_cannot_split():
    # both are 2-regular, so colour refinement leaves one class of six
    two, six = _cycles(3, 3), _cycles(6)
    r = find_iso(two, six)
    assert isinstance(r, Refusal) and r.reason == "backtracking exhausted"
    w = find_iso(six, _shuffled(six, random.Random(2)))
    assert isinstance(w, IsoWitness)


def test_find_iso_keeps_the_label_count_detail():
    A = _cycles(3, 3)
    B = FiniteStructure.build({"S": list(A.sorts["S"].points)},
                              {"S": lambda a, b: Fraction(int(a != b))})
    r = find_iso(A, B)
    assert r == Refusal("label-count invariant", "sort S: invariant class 0 "
                        "has 6 points in A but 0 in B")


def test_empty_sort_from_a_callable_metric():
    M = FiniteStructure.build(
        {"A": ["a", "b"], "E": []},
        {"A": lambda x, y: Fraction(int(x != y)), "E": lambda x, y: 0},
        {"f": (("E",), "A", lambda x: "a")},
        {"Q": (("A", "E"), lambda x, y: Fraction(1, 2))},
        {"f": Modulus.lipschitz(1), "Q": Modulus.lipschitz(1)})
    assert M.sorts["E"].dmat.shape == (0, 0)
    assert check_structure(M) == []
    w = find_iso(M, M)
    assert isinstance(w, IsoWitness)
    assert verify_iso(M, M, Sublanguage.full(M), w) == []


def test_realizes_tolerance_has_no_int64_wraparound():
    # the table's denominator 26771144400 times 3^18 passes 2^63
    M = build_model("N(depth=25,branch=1)")
    t = PartialType((("x0", "D1"),), (closed(parse_formula("d(x0, <>)")),),
                    None, "root")
    assert realizes(M, t, tol=Fraction(1, 3**18)) == [("<>",)]


def _realizes_full_table(M, t, n=None, tol=Fraction(0)):
    """realizes as every condition over the full table: the reference for
    the survivor rows, which evaluate later conditions at fewer rows."""
    variables = [(v, s or M.only_sort()) for v, s in t.variables]
    conds = t.conds if n is None else t.fragment(n)
    mask = np.ones(tuple(M.sorts[s].size for _, s in variables), dtype=bool)
    for c in conds:
        if not mask.any():
            break
        den, table = eval_table(normalize_condition(c).formula, M, variables)
        mask &= table <= _max_numerator(tol, den)
    return [tuple(M.sorts[s].points[i] for (_, s), i in zip(variables, combo))
            for combo in np.argwhere(mask)]


def _member_type(txt):
    S = relabel(truncate(build_tree(txt), 4, 2), 8, 4)
    width = 1 + max((max(s) for s in S.nodes if s), default=0)
    return (build_N2(4, max(3, width), extra_trees=[S], cap=2000),
            build_type("tS", S, 3))


def _first_axis_only():
    """Two variables; the first two conditions constrain x0 alone (so
    only rows die), the last one both."""
    M = build_M(3, 3)
    x0, x1 = Var("x0"), Var("x1")
    conds = tuple(closed(Dist(App(f"f{j}", (x0,)), x0)) for j in (2, 1))
    conds += (closed(fmonus(Dist(x0, x1), Rat(Fraction(1, 2)))),)
    return M, PartialType((("x0", None), ("x1", None)), conds)


def _pairing(op):
    M = build_M(3, 4)
    t, s = build_type("s_m", 1, 3), build_type("s_m", 2, 3)
    return M, op(t, s)


REALIZES_CASES = {
    "s_1[3] on M(3,4)": lambda: (build_M(3, 4), build_type("s_m", 1, 3)),
    "s_2[4] on M(4,4)": lambda: (build_M(4, 4), build_type("s_m", 2, 4)),
    "s_3[5] on M(5,4)": lambda: (build_M(5, 4), build_type("s_m", 3, 5)),
    "s_1[3] on M4(4,3)": lambda: (build_M4(4, 3),
                                  build_type("s_m", 1, 3, sort="D1")),
    "s_2[4] on M4(4,3)": lambda: (build_M4(4, 3),
                                  build_type("s_m", 2, 4, sort="D1")),
    "t_X[1,3] on M4(4,3)": lambda: (build_M4(4, 3),
                                    build_type("t_T2", 1, 3)),
    "t_X[2,4] on M4(4,3)": lambda: (build_M4(4, 3),
                                    build_type("t_T2", 2, 4)),
    "tS chain(2)": lambda: _member_type("chain(2)"),
    "tS dsum(full,chain(1))": lambda: _member_type("dsum(full,chain(1))"),
    "tR[1] on N3(3,3)": lambda: (build_N3(3, 3),
                                 build_type("tR", 1, "<1,1>")),
    "tR[2] on N3(3,3)": lambda: (build_N3(3, 3),
                                 build_type("tR", 2, "<1,1>")),
    "type_or": lambda: _pairing(type_or),
    "type_and": lambda: _pairing(type_and),
    "first condition kills every row": lambda: (build_M(3, 3), PartialType(
        (("x0", None),), (closed(Rat(Fraction(1))),)
        + build_type("s_m", 1, 3).conds)),
    "x0 rows only": _first_axis_only,
    "no variables": lambda: (build_M(3, 3), PartialType((), tuple(
        closed(parse_formula(f"{q} x0 . d(x0, <>)")) for q in ("inf", "sup")))),
}


@pytest.mark.parametrize("case", sorted(REALIZES_CASES))
def test_realizes_matches_the_full_table_scan(case):
    M, t = REALIZES_CASES[case]()
    for n in (None, 0, 1, 2, 5):
        for tol in (Fraction(0), Fraction(1, 3)):
            assert realizes(M, t, n, tol) == \
                _realizes_full_table(M, t, n, tol), (n, tol)


def test_realizes_evaluates_later_conditions_at_surviving_rows(monkeypatch):
    """The shortcut is taken: rows are bound once the first axis shrinks,
    and nothing is evaluated after every row is dead."""
    bound, tables = [], []
    bind, table = mlw.structures._bind_rows, mlw.structures._table
    monkeypatch.setattr(mlw.structures, "_bind_rows",
                        lambda env, v, total, rows: bound.append(rows.size)
                        or bind(env, v, total, rows))
    monkeypatch.setattr(mlw.structures, "_table",
                        lambda *a: tables.append(a[0]) or table(*a))
    M, t = _first_axis_only()
    hits = realizes(M, t)
    assert len(bound) == 2 and M.sorts["D1"].size > bound[0] > bound[1]
    assert bound[1] == len({a for a, _ in hits}) < len(hits)
    tables.clear()
    M, t = REALIZES_CASES["first condition kills every row"]()
    assert realizes(M, t) == [] and len(tables) == 1


# --------------------------------------------------------------------------
# find_iso: the canonical form first, the complete search behind it

def _search_only(A, B):
    """find_iso without its canonical form: the complete search from the
    coarsest classes, for structures with the same sorts and sizes."""
    L0 = Sublanguage(frozenset(A.functions) & frozenset(B.functions),
                     frozenset(A.predicates) & frozenset(B.predicates))
    classes = {s: np.zeros(2 * sd.size, np.int64) for s, sd in A.sorts.items()}
    return analysis._search(A, B, L0, classes,
                            analysis._symbol_tables(A, B, L0))


@pytest.fixture
def searches(monkeypatch):
    """How often find_iso hands over to the complete search."""
    calls = []
    search = analysis._search

    def counted(*args):
        calls.append(args)
        return search(*args)
    monkeypatch.setattr(analysis, "_search", counted)
    return calls


@st.composite
def _ultrametric_structures(draw):
    """A one-sort structure of up to five points whose metric is an
    ultrametric, with a unary predicate P, a binary predicate Q and a
    unary function f.  Either the metric comes from two nested random
    partitions and P, Q and f are random; or it is fixed, with a ball
    {p0, p1} that is also the only ball inside its 2-ball, and P, Q and f
    are random; or there are two balls of k points, P is constant and f
    and Q pair each point of one ball with one of the other (and a fifth
    point with itself): colour refinement cannot tell one such pairing
    from another, so the canonical map often breaks it and the search has
    to take over."""
    kind = draw(st.sampled_from(("random", "chain", "paired")))
    paired = kind == "paired"
    if kind == "random":
        n = draw(st.integers(0, 5))
        top, sub = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                    for _ in range(2))
    elif kind == "chain":
        n = draw(st.integers(4, 5))
        top, sub = [0, 0] + [1] * (n - 2), [0, 0, 0] + [1] * (n - 3)
    else:
        k, extra = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        n = 2 * k + extra
        top, sub = [0] * k + [1] * k + [0] * extra, [0] * n
        mate = draw(st.permutations(range(k, 2 * k)))
    d = np.array([[0 if i == j else 4 if top[i] != top[j] else
                   2 if sub[i] != sub[j] else 1 for j in range(n)]
                  for i in range(n)], dtype=np.int64).reshape(n, n)
    names = tuple(f"p{i}" for i in range(n))

    def table(shape, hi):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(0, hi), min_size=size,
                                      max_size=size)),
                        dtype=np.int64).reshape(shape)
    if not paired:
        p, f, q = table((n,), 2), table((n,), max(n - 1, 0)), table((n, n), 1)
    else:
        p, f = np.zeros(n, np.int64), np.arange(n)
        f[:k], f[mate] = mate, np.arange(k)
        q = (f[:, None] == np.arange(n)).astype(np.int64)
    return FiniteStructure(
        {"S": SortData(names, 4, d, {a: i for i, a in enumerate(names)})},
        {"f": FnTable(("S",), "S", f)},
        {"P": PredTable(("S",), 2, p), "Q": PredTable(("S", "S"), 1, q)})


@settings(max_examples=150)
@given(_ultrametric_structures(), _ultrametric_structures(),
       st.integers(0, 2**32 - 1), st.booleans())
def test_canonical_form_matches_exhaustive_search(A, B, seed, relabel):
    if relabel:
        B = _shuffled(A, random.Random(seed))
    got, want = find_iso(A, B), exhaustive_iso(A, B)
    assert isinstance(got, IsoWitness) == (want is not None), got
    if isinstance(got, IsoWitness):
        assert verify_iso(A, B, Sublanguage.full(A), got) == []


# the criterion-7 family's canonical truncation, as kfamily_check builds it
TRUNCATION = "canonical_truncation(C7,m=4,r=4)"


@pytest.mark.parametrize("spec", [
    "N(depth=3,branch=3)", "N(depth=4,branch=3)", "M(depth=3,branch=3)",
    "Projection(depth=3,branch=2)", "M4(depth=2,branch=2)",
    "N2(depth=3,branch=2)", "N3(depth=2,branch=2)", TRUNCATION,
    "M(depth=6,branch=3,top_depth=4,top_branch=4,top_pair=1,extend_to=5)"])
def test_canonical_form_decides_relabelled_constructors(spec, searches):
    A = canonical_truncation(parse_kfamily(
        "base=4\nmult=omega <2.0,1.0>=2\nmult=omega\n"), 4, 4, mu=2) \
        if spec == TRUNCATION else build_model(spec)
    rng = random.Random(spec)
    for _ in range(3):
        B = _shuffled(A, rng)
        got = find_iso(A, B)
        assert isinstance(got, IsoWitness), got
        assert verify_iso(A, B, Sublanguage.full(A), got) == []
        assert not searches  # the canonical map passed verify_iso
        ref = _search_only(A, B)
        assert isinstance(ref, IsoWitness)
        assert verify_iso(A, B, Sublanguage.full(A), ref) == []
        searches.clear()


def _crossed(link):
    """Two balls {a, b} and {c, d} at distance 1, 1/2 inside each, with a
    binary predicate R and a function g that link each point of one ball
    to one point of the other: `link` maps a and b into {c, d}."""
    names = ["a", "b", "c", "d"]
    pairs = {**link, **{v: k for k, v in link.items()}}
    return FiniteStructure.build(
        {"S": names},
        {"S": lambda x, y: Fraction(0 if x == y else 1 if (x < "c") !=
                                    (y < "c") else Fraction(1, 2))},
        {"g": (("S",), "S", lambda x: pairs[x])},
        {"R": (("S", "S"), lambda x, y: Fraction(int(pairs[x] == y)))})


def test_search_takes_over_when_the_canonical_map_fails(searches):
    # A and B are the same structure, all four points in one class.  A's
    # Prim order reaches d before c (both at 1 from a and b), while B's
    # balls, read off A's levels, list c before d; the codes agree, so the
    # canonical map swaps c and d, which moves R and g, and the identity
    # is an isomorphism
    A, B = _crossed({"a": "c", "b": "d"}), _crossed({"a": "c", "b": "d"})
    L0 = Sublanguage.full(A)
    assert [A.sorts["S"].points[i] for i in analysis._dendrogram(
        A.sorts["S"])[0]] == ["a", "b", "d", "c"]
    assert verify_iso(A, B, L0, IsoWitness(
        {"S": {"a": "a", "b": "b", "c": "d", "d": "c"}}))
    got = find_iso(A, B)
    assert isinstance(got, IsoWitness)
    assert verify_iso(A, B, L0, got) == []
    assert len(searches) == 1


def test_non_ultrametric_sorts_go_to_the_search(searches):
    six = _cycles(6)
    got = find_iso(six, _shuffled(six, random.Random(4)))
    assert isinstance(got, IsoWitness) and len(searches) == 1
    assert find_iso(_cycles(3, 3), six) == _search_only(_cycles(3, 3), six)


def test_canonical_form_with_an_empty_sort(searches):
    M = FiniteStructure.build(
        {"A": ["a", "b", "c"], "E": []},
        {"A": lambda x, y: Fraction(0 if x == y else 1 if "c" in (x, y)
                                    else Fraction(1, 3)),
         "E": lambda x, y: 0},
        {"f": (("E",), "A", lambda x: "a")},
        {"Q": (("A", "E"), lambda x, y: Fraction(1, 2))})
    B = _shuffled(M, random.Random(1))
    got = find_iso(M, B)
    assert isinstance(got, IsoWitness) and not searches
    assert got.mapping["E"] == {}
    assert verify_iso(M, B, Sublanguage.full(M), got) == []


def _discrete(n):
    names = [f"v{i}" for i in range(n)]
    return FiniteStructure.build({"S": names},
                                 {"S": lambda a, b: Fraction(int(a != b))})


@pytest.mark.parametrize("pair", ["codes", "cycles", "one distance",
                                  "one colour"])
def test_refusal_reasons_match_the_search(pair, searches):
    if pair == "codes":  # ultrametric both, no symbols: the codes differ
        A, B = _cycles(3, 3), _discrete(6)
    elif pair == "cycles":  # B is no ultrametric; no class splits
        A, B = _cycles(3, 3), _cycles(6)
    elif pair == "one distance":  # B is no longer an ultrametric
        A = build_model("N(depth=3,branch=2)")
        B = _shuffled(A, random.Random(0))
        d = B.sorts["D1"].dmat
        d[0, 1] = d[1, 0] = d[0, 1] + 1
    else:  # one point loses its colour
        A = build_model("M(depth=2,branch=2)")
        B = _shuffled(A, random.Random(0))
        t = next(p.table for _, p in sorted(B.predicates.items())
                 if len(np.unique(p.table)) > 1)
        t.flat[int(np.argmax(t != t.flat[0]))] = t.flat[0]
    got = find_iso(A, B)
    assert isinstance(got, Refusal)
    decided = len(searches) == 1
    want = _search_only(A, B)
    assert got.reason == want.reason
    if pair in ("codes", "cycles"):  # the search decided, from no split
        assert decided and got == want


# --------------------------------------------------------------------------
# find_iso: the side without a reference tree reads its balls off the
# reference's levels, uncertified

def _leveled(top, sub, f, p):
    """A one-sort ultrametric built from level ids, so it carries its tree:
    distance 1 across the top partition, 1/2 across sub, 1/4 inside, with a
    unary function f and a unary predicate P (in halves)."""
    n = len(top)
    return FiniteStructure.build(
        {"S": [f"s{i}" for i in range(n)]},
        {"S": (4, [4, 2, 1, 0], [top, sub, list(range(n))])},
        {"f": (("S",), "S", np.array(f, dtype=np.int64))},
        {"P": (("S",), (2, np.array(p, dtype=np.int64)))})


def _rescaled(M, k: int):
    """M with its metric and P over k times their denominators, its sort
    made directly, so carrying no tree."""
    sd, P = M.sorts["S"], M.predicates["P"]
    return FiniteStructure(
        {"S": SortData(sd.points, sd.den * k, sd.dmat * k, sd.index)},
        M.functions, {"P": PredTable(P.arg_sorts, P.den * k, P.table * k)})


@st.composite
def _level_pairs(draw):
    """(A, B, how): A from _leveled over up to six points, its f and P
    random or the identity and 0, and a B whose distances lie on A's
    levels (or at 0): A relabelled, its metric over another denominator,
    up to 3 * 2^61; another random ultrametric; A relabelled with one pair
    moved to another level, or to 0.  Either side may come first, so the
    tree may be on either."""
    n, plain = draw(st.integers(1, 6)), draw(st.booleans())

    def parts():
        top, sub, f, p = (draw(st.lists(st.integers(0, hi), min_size=n,
                                        max_size=n))
                          for hi in (1, 1, n - 1, 2))
        if plain:  # f and P split no class, so the codes decide
            f, p = range(n), [0] * n
        return _leveled(top, sub, f, p)
    A, how = parts(), draw(st.sampled_from(("relabelled", "other", "moved")))
    if how == "other":
        B = parts()
    else:
        B = _shuffled(A, random.Random(draw(st.integers(0, 2**32 - 1))))
        if how == "moved" and n > 1:
            i, j = draw(st.permutations(range(n)))[:2]
            d = B.sorts["S"].dmat
            d[i, j] = d[j, i] = draw(st.sampled_from(
                [v for v in (0, 1, 2, 4) if v != d[i, j]]))
        B = _rescaled(B, draw(st.sampled_from((1, 3, 3 * 2**59))))
    return (B, A, how) if draw(st.booleans()) else (A, B, how)


@settings(max_examples=200)
@given(_level_pairs())
def test_derived_balls_match_the_search(pair):
    A, B, how = pair
    got, want = find_iso(A, B), _search_only(A, B)
    if isinstance(want, IsoWitness):
        assert isinstance(got, IsoWitness), (how, got)
        assert verify_iso(A, B, Sublanguage.full(A), got) == []
    else:  # the refusal comes from the search or the invariant counts
        assert isinstance(got, Refusal) and got.reason == want.reason, how
        if got.reason == "backtracking exhausted":
            assert got == want


@pytest.mark.parametrize("k", [1, 3, 3 * 2**59])
def test_derived_balls_decide_relabelled_copies_at_other_dens(k, searches):
    """A relabelled copy over k times the denominator, past 2^62 for the
    largest k, on either side of the tree: the canonical map decides, so
    the derived balls were the copy's balls.  f and P split no class, so
    the map rests on the codes alone."""
    A = _leveled([0, 0, 0, 1, 1, 1], [0, 0, 1, 2, 2, 3], range(6), [1] * 6)
    B = _rescaled(_shuffled(A, random.Random(k)), k)
    for X, Y in ((A, B), (B, A), (B, B)):
        got = find_iso(X, Y)
        assert isinstance(got, IsoWitness)
        assert verify_iso(X, Y, Sublanguage.full(X), got) == []
    assert not searches


def test_derived_balls_cut_exactly_past_int64():
    """At a reference level u / da, a point's ball holds the points within
    floor(u * db / da) / db on its side: 2^61 - 1 here, while 2^61 is
    past the level by 2 / (2^124 - 1), which a float cannot see."""
    da, db, u = 2**62 + 1, 2**62 - 1, 2**61
    cut = u * db // da
    assert cut == 2**61 - 1 and float(cut + 1) / db == float(u) / da
    for entry, rank in ((cut, 0), (cut + 1, 1)):  # 1: above every level
        sd = SortData(("p", "q"), db, np.array([[0, entry], [entry, 0]]),
                      {"p": 0, "q": 1})
        _, levels, _ = analysis._balls_at(sd, np.array([u]), da)
        assert levels.tolist() == [rank]


def _balls_per_level(sd, levels, den):
    """_balls_at's reference: each level's balls named by their first
    point over every point, the cut at u / den an exact Fraction."""
    names = [np.zeros(sd.size, np.intp)] + [
        (sd.dmat <= _max_numerator(Fraction(u, den), sd.den)).argmax(axis=1)
        for u in levels[::-1].tolist()]
    order, agree = _sorted_agreement(np.array(names))
    return order, *_ball_merges(np.concatenate(([0], len(names) - agree)))


BALL_SPECS = ("N(depth=4,branch=3)", "Projection(depth=3,branch=2)",
              "M4(depth=2,branch=2)", "N2(depth=3,branch=2)")


@pytest.mark.parametrize("k", [1, 3, 2**55 + 1])
@pytest.mark.parametrize("spec", BALL_SPECS)
def test_balls_among_representatives_match_every_level(spec, k):
    """Every sort of a relabelled copy, over k times its den, read at the
    levels of every sort of each model: its own, and others that cut it
    between its levels."""
    B = _shuffled(build_model(spec), random.Random(spec))
    refs = [sd for other in BALL_SPECS
            for sd in build_model(other).sorts.values()]
    for sb in B.sorts.values():
        sb = SortData(sb.points, sb.den * k, sb.dmat * k, sb.index)
        for ref in refs:
            levels = np.unique(analysis._dendrogram(ref)[1][1:])
            got = analysis._balls_at(sb, levels, ref.den)
            want = _balls_per_level(sb, levels, ref.den)
            assert all((g == w).all() for g, w in zip(got[:2], want[:2]))
            assert [m.tolist() for m in got[2]] == \
                [m.tolist() for m in want[2]]


@pytest.mark.parametrize("lengths", [(9,), (4, 5), (3, 6)])
def test_balls_among_representatives_on_a_cycle(lengths, monkeypatch):
    """A cycle is no ultrametric, so its balls read among representatives
    are no balls: the verdict is still the search's."""
    read, balls_at = [], analysis._balls_at

    def counted(sd, *args):
        read.append(sd.size)
        return balls_at(sd, *args)
    monkeypatch.setattr(analysis, "_balls_at", counted)
    A, B = _cycles(3, 3, 3), _cycles(*lengths)
    assert find_iso(A, B) == _search_only(A, B)
    assert read == [9]


def _fraction_ranks(ta, da, tb, db):
    """_ranks' reference: one Fraction per entry, ranked among both."""
    qa = [Fraction(int(v), da) for v in ta.flat]
    qb = [Fraction(int(v), db) for v in tb.flat]
    rank = {q: r for r, q in enumerate(sorted(set(qa + qb)))}
    return [rank[q] for q in qa], [rank[q] for q in qb]


@settings(max_examples=300)
@given(st.sampled_from([(6, 6), (3, 7), (10, 4), (2**62 - 1, 2**62 + 1),
                        (2**62, 2**61), (3 * 2**61, 2**61 - 1),
                        (2**62 + 1, 2**62 + 1)]), st.data())
def test_ranks_match_fraction_ranks(dens, data):
    """Equal dens, coprime dens, and dens near 2^62 whose lcm fits int64
    or not; values c / gcd shared by both sides, anywhere in [-1, den + 1],
    or anywhere in int64, where a scaled value can pass it."""
    g = math.gcd(*dens)

    def table(den, shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(st.one_of(
            st.integers(0, g).map(lambda c: c * (den // g)),
            st.integers(-1, den + 1), st.integers(-2**63, 2**63 - 1)),
            min_size=size, max_size=size)), np.int64).reshape(shape)
    shape = data.draw(st.tuples(st.integers(0, 3), st.integers(1, 3)))
    ta, tb = table(dens[0], shape), table(dens[1], shape[::-1])
    ra, rb = analysis._ranks(ta, dens[0], tb, dens[1])
    assert ra.shape == ta.shape and rb.shape == tb.shape
    assert (ra.ravel().tolist(), rb.ravel().tolist()) == \
        _fraction_ranks(ta, dens[0], tb, dens[1])


# (2^64 + 9) / 5 over 3, scaled to 15, wraps around in int64 to 9: the
# scaled value of 3 over 5
WRAPS = (2**64 + 9) // 5


@pytest.mark.parametrize("dens", [(3, 5), (3, 2**62 + 1),
                                  (2**62 - 1, 2**62 + 1)])
def test_tables_compare_exactly_at_coprime_dens(dens):
    """verify_iso and _ranks at coprime dens whose lcm fits int64 or not
    (Python ints), on tables inside and outside [0, den], against exact
    Fractions: entries of equal value on both sides, some replaced by
    values that match nothing, or by WRAPS against 3."""
    da, db = dens
    same = [(0, 0), (da, db), (-da, -db), (1 - 2**63, 1 - 2**63)]
    same += [(da * c, db * c) for c in (2**30, -2**30)
             if max(da, db) * 2**30 < 2**63]
    odd = [1, da + 1, 3, WRAPS, 2**63 - 1, -2**63]
    rng = random.Random(11)
    verdicts = set()
    for trial in range(120):
        n = rng.randrange(1, 4)
        pairs = [rng.choice(same) for _ in range(n * n + n)]
        ta, tb = (np.array([p[k] for p in pairs], np.int64) for k in (0, 1))
        for _ in range(rng.randrange(3)):
            t = rng.choice((ta, tb))
            t[rng.randrange(t.size)] = rng.choice(odd)
        if rng.random() < 0.3:
            k = rng.randrange(ta.size)
            ta[k], tb[k] = WRAPS, 3
        names = tuple(f"p{i}" for i in range(n))
        index = {a: i for i, a in enumerate(names)}
        A, B = (FiniteStructure(
            {"S": SortData(names, d, t[:n * n].reshape(n, n), index)}, {},
            {"P": PredTable(("S",), d, t[n * n:])})
            for d, t in ((da, ta), (db, tb)))
        w = IsoWitness({"S": {a: a for a in names}})
        L0 = Sublanguage.full(A)
        want = _verify_iso_loops(A, B, L0, w)
        assert verify_iso(A, B, L0, w) == want, f"trial {trial}"
        verdicts.add(bool(want))
        ra, rb = analysis._ranks(ta, da, tb, db)
        assert (ra.tolist(), rb.tolist()) == _fraction_ranks(ta, da, tb, db)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec, points", [("N3(depth=2,branch=2)", 160),
                                          ("N2(depth=4,branch=3)", 584)])
def test_canonical_map_codes_a_sort_once_per_split(spec, points, searches,
                                                   monkeypatch):
    """Points coded, both sides, on a relabelled copy: a sort is coded
    again only when the refinement split its classes after it was coded,
    and not when each of its classes is one pair.  Coding every sort again
    for each sort, and once more to see nothing split, codes 384 and 876."""
    coded, canonical = [], analysis._canonical

    def counted(order, *args):
        coded.append(len(order))
        return canonical(order, *args)
    monkeypatch.setattr(analysis, "_canonical", counted)
    A = build_model(spec)
    got = find_iso(A, _shuffled(A, random.Random(0)))
    assert isinstance(got, IsoWitness) and not searches
    assert sum(coded) == points


def _numbered_by_products(cols):
    """Reference for analysis._numbered: a mixed-radix key per point, one
    column at a time (renumbered before it could pass 2^62), then one
    np.unique."""
    key = cols[0]
    for col in cols[1:]:
        top = int(col.max(initial=0)) + 1
        if (int(key.max(initial=0)) + 1) * top >= 2**62:
            key = np.unique(key, return_inverse=True)[1]
        key = key * top + col
    return np.unique(key, return_inverse=True)[1]


@given(st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
    min_size=1, max_size=5)))
def test_numbered_matches_the_product_keys(rows):
    cols = [np.array(r, dtype=np.int64) for r in rows]
    assert analysis._numbered(cols).tolist() == \
        _numbered_by_products(cols).tolist()
