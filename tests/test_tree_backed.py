"""Tree-backed ultrametric sorts: the constructors hand `FiniteStructure.build`
level ids, from which it derives the distance table and the sort's ball
order.  Checked against dense reference tables, the Prim pass and the
exhaustive checks; sorts that lose their tree report as dense builds."""

import math

import numpy as np
import pytest

import mlw.analysis as analysis_mod
import mlw.structures as structures_mod
from mlw.analysis import Refusal, Sublanguage, find_iso, verify_iso
from mlw.models import (build_M, build_M4, build_M_l, build_N, build_N2,
                        build_N3, build_Projection, canonical_truncation,
                        default_kfamily)
from mlw.structures import (FiniteStructure, FnTable, SortData, _ball_merges,
                            _check, _ultrametric_order, check_structure)
from mlw.trees import (_alphabet_cut, _letter_ints, _pair_cut,
                       enumerate_pair_trees, enumerate_trees, parse_node)

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
