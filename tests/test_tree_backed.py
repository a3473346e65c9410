"""Tree-backed ultrametric sorts: the constructors hand `FiniteStructure.build`
level ids, from which it derives the distance table and the sort's ball
order.  Checked against dense reference tables, the Prim pass and the
exhaustive checks; sorts that lose their tree report as dense builds."""

import gc
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

import mlw.analysis as analysis_mod
import mlw.structures as structures_mod
from mlw.analysis import (Refusal, Sublanguage, find_iso, realizes,
                          verify_iso)
from mlw.conditions import build_type
from mlw.models import (build_M, build_M4, build_M_l, build_N, build_N2,
                        build_N3, build_Projection, canonical_truncation,
                        default_kfamily)
from mlw.structures import (FiniteStructure, FnTable, SortData, _ball_merges,
                            _check, _ultrametric_order, check_structure)
from mlw.trees import (_alphabet_cut, _letter_ints, _pair_cut, build_tree,
                       enumerate_pair_trees, enumerate_trees, parse_node,
                       relabel, truncate)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# --------------------------------------------------------------------------
# The dense tables as the constructors built them before they passed ids


def ref_agreement(levels) -> np.ndarray:
    levels = list(levels)
    n = len(levels[0])
    same = np.ones((n, n), dtype=bool)
    delta = np.zeros((n, n), dtype=np.int64)
    for ids in levels:
        same &= ids[:, None] == ids[None, :]
        delta += same
    return delta


def ref_prefix_table(*components):
    components = [list(c) for c in components]
    depth = max((len(s) for c in components for s in c), default=0)
    width = max(depth, 1)
    shared = None
    for nodes in components:
        ids: dict = {}
        arr = np.full((len(nodes), width), -1, dtype=np.int64)
        for i, s in enumerate(nodes):
            for j, letter in enumerate(s):
                arr[i, j] = ids.setdefault(letter, len(ids))
        delta = ref_agreement(arr.T)
        shared = delta if shared is None else np.minimum(shared, delta)
    den = math.lcm(*range(1, depth + 2))
    dist = den // np.arange(1, width + 2)
    dist[width] = 0
    dmat = dist[shared]
    np.fill_diagonal(dmat, 0)
    return den, dmat


def ref_tree_table(trees):
    kmax = 1
    for t in trees:
        for s in t.nodes:
            kmax = max(kmax, len(s),
                       *(v + 1 for letter in s for v in _letter_ints(letter)))
    sig_ids = []
    for k in range(kmax + 1):
        seen: dict = {}
        sig_ids.append(np.array(
            [seen.setdefault(_alphabet_cut(t.nodes, k), len(seen))
             for t in trees], dtype=np.int64))
    den = math.lcm(*range(1, kmax + 3))
    dist = den // np.arange(1, kmax + 3)
    dist[kmax + 1] = 0
    dmat = dist[ref_agreement(sig_ids)]
    np.fill_diagonal(dmat, 0)
    return den, dmat


def ref_pair_table(ptrees):
    kmax = 1
    for R in ptrees:
        for s, t in R.pairs:
            kmax = max(kmax, len(s), len(t),
                       *(v + 1 for letter in s + t for v in _letter_ints(letter)))
    sig_ids = []
    for k in range(kmax + 2):
        seen: dict = {}
        sig_ids.append(np.array(
            [seen.setdefault(_pair_cut(R.pairs, k), len(seen))
             for R in ptrees], dtype=np.int64))
    den = math.lcm(*range(1, kmax + 2))
    dist = den // np.maximum(np.arange(kmax + 3) - 1, 1)
    dist[kmax + 2] = 0
    dmat = dist[ref_agreement(sig_ids)]
    np.fill_diagonal(dmat, 0)
    return den, dmat


def reference(s: str, sd: SortData):
    """The dense (den, table) of a grid build's sort, from its point names
    (and the default tree and pair-tree boxes of N2 and N3)."""
    if s == "D2":
        return ref_tree_table(enumerate_trees(2, 2))
    if s == "D3":
        return ref_pair_table(enumerate_pair_trees(1, 2))
    if s == "X":
        return 1, 1 - np.eye(sd.size, dtype=np.int64)
    parts = [p.split("|") for p in sd.points]
    return ref_prefix_table(*([parse_node(p[k]) for p in parts]
                              for k in range(len(parts[0]))))


# --------------------------------------------------------------------------
# Criterion 1's grid

GRID_CTORS = {
    "N": build_N, "N2": build_N2, "N3": build_N3,
    "Projection": build_Projection, "M": build_M,
    "M_l": lambda d, b: build_M_l(2, d, b), "M4": build_M4,
}


def grid():
    """(label, structure) for every grid build under its size cap."""
    for name, ctor in GRID_CTORS.items():
        for d in range(1, 6):
            for b in range(1, 6):
                try:
                    M = ctor(d, b)
                except ValueError as e:
                    if "cap" in str(e):
                        continue
                    raise
                yield f"{name}({d},{b})", M


def partitions(order, join):
    """Per distance level u, the closed u-balls of an (order, join) pair:
    each point's ball, numbered by the ball's first point in index order."""
    out = {}
    for u in np.unique(join[1:]).tolist():
        ball = np.empty(len(order), np.int64)
        ball[order] = np.cumsum(join > u)
        first = {}
        out[u] = [first.setdefault(b, len(first)) for b in ball.tolist()]
    return out


def test_grid_sorts_carry_their_tree_and_the_reference_table():
    seen = 0
    for label, M in grid():
        for s, sd in M.sorts.items():
            assert sd.tree is not None, (label, s)
            assert sd.dmat.dtype == np.int64 and not sd.dmat.flags.writeable
            den, want = reference(s, sd)
            assert sd.den == den and np.array_equal(sd.dmat, want), (label, s)
            # the stored order splits the sort into the Prim order's balls
            order, join = sd.tree
            prim = _ultrametric_order(want)
            assert prim is not None, (label, s)
            assert partitions(order, join) == partitions(*prim), (label, s)
            levels, merges = _ball_merges(join)
            plevels, pmerges = _ball_merges(prim[1])
            assert levels.tolist() == plevels.tolist()
            assert [len(m) for m in merges] == [len(m) for m in pmerges]
            seen += 1
    assert seen > 60


def test_check_of_grid_builds_takes_no_prim_pass(monkeypatch):
    def prim(D):
        raise AssertionError("Prim pass on a tree-backed sort")
    monkeypatch.setattr(structures_mod, "_ultrametric_order", prim)
    for label, M in grid():
        assert check_structure(M) == [], label


def test_check_equals_the_exhaustive_reference_on_small_grid_builds():
    checked = 0
    for label, M in grid():
        if max(sd.size for sd in M.sorts.values()) <= 200:
            assert check_structure(M) == _check(M, certify=False), label
            checked += 1
    assert checked > 30


def test_ball_order_of_a_trie_is_lexicographic():
    """Ids sort level 0 first; each join is the distance of a point from
    the point before it."""
    M = FiniteStructure.build(
        {"S": ["a", "b", "c", "d"]},
        {"S": (6, (6, 3, 2, 0), [[1, 0, 1, 0], [0, 0, 1, 1], [2, 0, 5, 1]])})
    order, join = M.sorts["S"].tree
    assert order.tolist() == [1, 3, 0, 2]
    assert join.tolist() == [0, 3, 6, 3]
    assert M.sorts["S"].dmat.tolist() == [[0, 6, 3, 6], [6, 0, 6, 3],
                                          [3, 6, 0, 6], [6, 3, 6, 0]]


def test_writing_into_a_tree_backed_table_raises():
    sd = build_N(2, 2).sorts["D1"]
    with pytest.raises(ValueError):
        sd.dmat[0, 1] = 0
    copy = sd.dmat.copy()  # a copy is the caller's own
    copy[0, 1] = 0


# --------------------------------------------------------------------------
# Sorts that lose the tree report as dense builds


def dense(M, s, change):
    """M with sort s as a dense SortData copy (no tree), the distances of
    the named pairs changed to the given scaled values."""
    sd = M.sorts[s]
    d = sd.dmat.copy()
    for (a, b), v in change.items():
        i, j = sd.index[a], sd.index[b]
        d[i, j] = d[j, i] = v
    sorts = dict(M.sorts)
    sorts[s] = SortData(sd.points, sd.den, d, sd.index)
    return FiniteStructure(sorts, dict(M.functions), dict(M.predicates),
                           dict(M.moduli), dict(M.meta))


def broken(M, name, a, b):
    """M with the unary function name sending point a to point b."""
    fn = M.functions[name]
    table = fn.table.copy()
    table[M.sorts[fn.arg_sorts[0]].index[a]] = M.sorts[fn.out_sort].index[b]
    fns = {**M.functions, name: FnTable(fn.arg_sorts, fn.out_sort, table)}
    return FiniteStructure(dict(M.sorts), fns, dict(M.predicates),
                           dict(M.moduli), dict(M.meta))


# each report as the dense checks wrote it before sorts carried trees
CORRUPTED = {
    "N(3,3) a distance lowered": (
        lambda: dense(build_N(3, 3), "D1", {("<0,0>", "<0,1>"): 1}),
        ["metric: triangle inequality fails for (<0,1>, <0,0,0>) via <0,0> "
         "in sort D1"]),
    "N(3,3) a distance raised": (
        lambda: dense(build_N(3, 3), "D1", {("<0,0>", "<0,1>"): 12}),
        ["metric: triangle inequality fails for (<0,0>, <0,1>) via <0,0,0> "
         "in sort D1",
         "modulus violation: f2 argument 0 at pair (<0,0>, <0,1,0>): input "
         "distance 1/2 allows change 1/2, table changes by 1"]),
    "N(3,3) dense and unchanged": (
        lambda: dense(build_N(3, 3), "D1", {}), []),
    "N(3,3) f2 broken": (
        lambda: broken(build_N(3, 3), "f2", "<0,1>", "<2,2,2>"),
        ["modulus violation: f2 argument 0 at pair (<0>, <0,1>): input "
         "distance 1/2 allows change 1/2, table changes by 1"]),
    "M(3,3) f1 broken": (
        lambda: broken(build_M(3, 3), "f1", "<0.0>", "<2.1>"),
        ["modulus violation: f1 argument 0 at pair (<0.0>, <0.0,g0:0.0>): "
         "input distance 1/2 allows change 1/2, table changes by 1"]),
    "N2(2,2) two trees at distance 0": (
        lambda: dense(build_N2(2, 2), "D2", {("S0", "S1"): 0}),
        ["metric: identity of indiscernibles fails at (S0, S1) in sort D2",
         "metric: triangle inequality fails for (S1, S2) via S0 in sort D2",
         "modulus violation: ee argument 1 at pair (S0, S1): input distance "
         "0 allows change 0, table changes by 1/3"]),
    "Projection(2,2) a distance lowered": (
        lambda: dense(build_Projection(2, 2), "D1",
                      {("<0>|<0>", "<1>|<1>"): 1}),
        ["metric: triangle inequality fails for (<1>|<1>, <0,0>|<0,0>) via "
         "<0>|<0> in sort D1",
         "modulus violation: f argument 0 at pair (<0>|<0>, <1>|<1>): input "
         "distance 1/6 allows change 1/6, table changes by 1/4"]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_copies_report_as_before(name):
    build, want = CORRUPTED[name]
    M = build()
    assert check_structure(M) == want
    assert _check(M, certify=False) == want


@pytest.mark.parametrize("den,dist,levels,want", [
    # dist increases: a metric, but no ultrametric
    (2, (1, 2, 0), [[0, 0, 1], [0, 1, 2]], []),
    # dist increases past the triangle inequality
    (4, (1, 4, 0), [[0, 0, 1], [0, 1, 2]],
     ["metric: triangle inequality fails for (p0, p1) via p2 in sort S"]),
    # two points agree on every level
    (1, (1, 0), [[0, 0, 1]],
     ["metric: identity of indiscernibles fails at (p0, p1) in sort S"]),
    # a distance 0 between points that differ on the last level
    (1, (1, 0, 0), [[0, 0], [0, 1]],
     ["metric: identity of indiscernibles fails at (p0, p1) in sort S"]),
    # dist leaves [0, den]
    (2, (3, 1, 0), [[0, 0, 1], [0, 1, 2]],
     ["metric: entry outside [0,1] in sort S"]),
])
def test_ids_that_make_no_ultrametric_fall_back(den, dist, levels, want):
    names = [f"p{i}" for i in range(len(levels[0]))]
    M = FiniteStructure.build({"S": names}, {"S": (den, dist, levels)})
    sd = M.sorts["S"]
    assert sd.tree is None
    D = FiniteStructure.build({"S": names}, {"S": (den, sd.dmat.copy())})
    assert check_structure(M) == check_structure(D) == want


# --------------------------------------------------------------------------
# find_iso reads the stored tree


CONSTRUCTED_PAIRS = {
    "N(3,3)": lambda: (build_N(3, 3), build_N(3, 3)),
    "N3(2,2)": lambda: (build_N3(2, 2), build_N3(2, 2)),
    "M4(2,3)": lambda: (build_M4(2, 3), build_M4(2, 3)),
    "Projection(2,2)": lambda: (build_Projection(2, 2),
                                build_Projection(2, 2)),
    "canon": lambda: tuple(canonical_truncation(default_kfamily(), 3, 3)
                           for _ in range(2)),
    "canon perturbed": lambda: tuple(
        canonical_truncation(default_kfamily(), 3, 3, perturb=p)
        for p in (False, True)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED_PAIRS))
def test_find_iso_between_constructed_structures(name, monkeypatch):
    """Both sides carry their trees, so no Prim pass runs; a witness
    passes verify_iso, and the perturbed truncation is refused."""
    A, B = CONSTRUCTED_PAIRS[name]()

    def prim(D):
        raise AssertionError("Prim pass on a constructed side")
    monkeypatch.setattr(analysis_mod, "_ultrametric_order", prim)
    w = find_iso(A, B)
    monkeypatch.undo()
    if name == "canon perturbed":
        assert isinstance(w, Refusal)
    else:
        assert verify_iso(A, B, Sublanguage.full(A), w) == []


# --------------------------------------------------------------------------
# Equal level ids share one table


def _tree(text):
    return relabel(truncate(build_tree(text), 4, 2), 3, 4)


def test_boxes_over_different_trees_share_the_node_table():
    A = build_N2(4, 3, extra_trees=[_tree("chain(3)")])
    B = build_N2(4, 3, extra_trees=[_tree("comb")])
    assert A.sorts["D1"].dmat is B.sorts["D1"].dmat
    assert A.sorts["D1"].tree is not B.sorts["D1"].tree
    assert not np.array_equal(A.predicates["ee"].table,
                              B.predicates["ee"].table)
    assert build_N(3, 3).sorts["D1"].dmat is build_N(3, 3).sorts["D1"].dmat


def test_ids_that_differ_share_no_table():
    a = FiniteStructure.build({"S": list("abc")},
                              {"S": (2, (2, 1, 0), [[0, 0, 1], [0, 1, 2]])})
    b = FiniteStructure.build({"S": list("abc")},
                              {"S": (2, (2, 1, 0), [[0, 0, 1], [0, 1, 1]])})
    c = FiniteStructure.build({"S": list("abc")},
                              {"S": (2, (2, 0, 0), [[0, 0, 1], [0, 1, 2]])})
    assert len({id(M.sorts["S"].dmat) for M in (a, b, c)}) == 3
    # the same dist and the same id bytes, as two levels over three points
    # and as three levels over two points
    ids23, ids32 = [[0, 0, 1], [0, 1, 2]], [[0, 0], [1, 0], [1, 2]]
    assert np.asarray(ids23).tobytes() == np.asarray(ids32).tobytes()
    e = FiniteStructure.build({"S": list("abc")}, {"S": (2, (2, 1, 0, 0),
                                                         ids23)})
    d = FiniteStructure.build({"S": list("ab")}, {"S": (2, (2, 1, 0, 0),
                                                        ids32)})
    assert e.sorts["S"].dmat.shape == (3, 3)
    assert d.sorts["S"].dmat.shape == (2, 2)
    assert np.array_equal(e.sorts["S"].dmat, a.sorts["S"].dmat)


def test_one_table_at_two_dens_keeps_each_den_and_range():
    ids = [[0, 0, 1], [0, 1, 2]]
    M2 = FiniteStructure.build({"S": list("abc")}, {"S": (2, (3, 1, 0), ids)})
    M4 = FiniteStructure.build({"S": list("abc")}, {"S": (4, (3, 1, 0), ids)})
    s2, s4 = M2.sorts["S"], M4.sorts["S"]
    assert s2.dmat is s4.dmat
    assert (s2.den, s4.den) == (2, 4)
    assert (s2.bounded, s4.bounded) == (None, True)
    assert s2.tree is None and s4.tree is not None
    assert check_structure(M2) == ["metric: entry outside [0,1] in sort S"]
    assert check_structure(M4) == []
    assert s4.dist(0, 2) == Fraction(3, 4)


def test_a_table_is_held_only_while_a_structure_holds_it():
    A = build_N2(2, 2, extra_trees=[_tree("chain(3)")])
    B = build_N2(2, 2, extra_trees=[_tree("comb")])
    own, shared = (weakref.ref(A.sorts[s].dmat) for s in ("D2", "D1"))
    held = list(structures_mod._ID_TABLES.values())
    assert any(t is own() for t in held) and any(t is shared() for t in held)
    del A, held
    gc.collect()
    assert own() is None  # only A held it
    assert shared() is B.sorts["D1"].dmat
    assert any(t is shared() for t in structures_mod._ID_TABLES.values())


def test_nothing_is_held_once_every_holder_is_gone():
    """In a fresh process, so no other test's structure holds a table."""
    code = """if True:
        import gc
        from mlw import structures
        from mlw.models import build_N, build_N2, build_N3
        Ms = [build_N(3, 3), build_N2(3, 3), build_N3(2, 2)]
        assert len(structures._ID_TABLES) == 4
        del Ms
        gc.collect()
        print(len(structures._ID_TABLES))"""
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out == "0\n"


def as_dense(M):
    """M built again with each sort's table passed as (den, copy)."""
    return FiniteStructure.build(
        {s: sd.points for s, sd in M.sorts.items()},
        {s: (sd.den, sd.dmat.copy()) for s, sd in M.sorts.items()},
        {n: (f.arg_sorts, f.out_sort, f.table)
         for n, f in M.functions.items()},
        {n: (p.arg_sorts, (p.den, p.table))
         for n, p in M.predicates.items()}, M.moduli, M.meta)


@pytest.mark.parametrize("text", ["chain(3)", "comb", "graft(chain(1),chain(1))",
                                  "dsum(chain(2),T1)"])
def test_shared_builds_answer_as_dense_ones(text):
    S, other = _tree(text), _tree("chain(2)")
    A = build_N2(4, 3, extra_trees=[S])
    B = build_N2(4, 3, extra_trees=[other])
    A2 = build_N2(4, 3, extra_trees=[S])
    assert A.sorts["D1"].dmat is B.sorts["D1"].dmat is A2.sorts["D1"].dmat
    dA, dB, dA2 = as_dense(A), as_dense(B), as_dense(A2)
    assert dA.sorts["D1"].dmat is not A.sorts["D1"].dmat
    assert check_structure(A) == check_structure(dA) == []
    t = build_type("tS", S, 3)
    assert realizes(A, t) == realizes(dA, t)
    assert realizes(B, t) == realizes(dB, t)
    for X, Y, dX, dY in ((A, A2, dA, dA2), (A, B, dA, dB)):
        w, dw = find_iso(X, Y), find_iso(dX, dY)
        assert type(w) is type(dw)
        if isinstance(w, Refusal):
            assert w == dw
        else:
            assert verify_iso(X, Y, Sublanguage.full(X), w) == []
            assert verify_iso(dX, dY, Sublanguage.full(dX), dw) == []


@pytest.mark.parametrize("spec,message", [
    # two levels but two distances: dist[2] is missing
    ((2, [2, 1], [[0, 0, 1], [0, 1, 1]]),
     "2 levels need a vector of 3 distances, got shape (2,) in sort S"),
    # four ids for three points
    ((2, [2, 1, 0], [[0, 0, 1, 1]]),
     "level ids of shape (1, 4) do not fit the 3 points of sort S"),
    ((2, [2, 1, 0], [[0, 0], [0, 1, 2]]), "level ids of sort S are no int64"),
    ((2, [2, 1, 0], [[0, 1, 2**70]]), "level ids of sort S are no int64"),
    ((2, [[2, 1, 0]], [[0, 1, 2]]), "1 levels need a vector of 2 distances"),
])
def test_malformed_level_ids_are_refused_naming_the_sort(spec, message):
    with pytest.raises(ValueError) as e:
        FiniteStructure.build({"S": ["a", "b", "c"]}, {"S": spec})
    assert str(e.value).startswith(message)
