"""Tree spaces: the DSL, truncation, three metrics, ranks, projection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlw.trees import (FiniteTree, Ordinal, PairTree, build_tree, node_name,
                       pair_tree_dist, parse_node, project, rank,
                       rank_finite, sup_ordinal, tree_space_dist, truncate,
                       well_founded)

# -- strategies ------------------------------------------------------------

nodes = st.lists(st.integers(0, 2), max_size=4).map(tuple)


@st.composite
def finite_trees(draw):
    pts = draw(st.sets(nodes, min_size=0, max_size=8))
    closed = set()
    for s in pts:
        for k in range(len(s) + 1):
            closed.add(s[:k])
    closed.add(())
    return FiniteTree(frozenset(closed))


@st.composite
def pair_trees(draw):
    pts = draw(st.sets(nodes, min_size=0, max_size=6))
    pairs = {((), ())}
    for s in pts:
        for k in range(len(s) + 1):
            pairs.add((s[:k], s[:k]))
    return PairTree.of(pairs)


# -- node names ------------------------------------------------------------

@given(nodes)
def test_node_name_round_trip(s):
    assert parse_node(node_name(s)) == s


# -- the DSL and truncation -------------------------------------------------

def test_dsl_ranks():
    assert str(rank(build_tree("chain(2)"))) == "2"
    assert str(rank(build_tree("T1"))) == "w"
    assert str(rank(build_tree("graft(chain(2),T1)"))) == "w+2"
    assert str(rank(build_tree("dsum(chain(1),chain(3))"))) == "3"
    assert not well_founded(build_tree("full"))
    assert well_founded(build_tree("T2"))
    assert str(rank(build_tree("T2"))) == "w"


def test_truncate_is_monotone():
    t = build_tree("T1")
    small = truncate(t, 2, 2)
    big = truncate(t, 3, 3)
    assert small.nodes <= big.nodes


def test_truncation_of_ill_founded_is_finite():
    ft = truncate(build_tree("full"), 3, 2)
    assert len(ft.nodes) == 15  # complete binary tree of depth 3
    assert rank_finite(ft) == 3


# -- ordinals ----------------------------------------------------------------

def test_ordinal_ordering_and_sup():
    w = Ordinal.omega()
    two = Ordinal.nat(2)
    assert two < w < w + two
    assert sup_ordinal([two, w]) == w
    assert str(w + two) == "w+2"


# -- metric axioms ------------------------------------------------------------

@settings(max_examples=60)
@given(finite_trees(), finite_trees(), finite_trees())
def test_tree_space_dist_is_an_ultrametric(a, b, c):
    dab, dbc, dac = (tree_space_dist(a, b), tree_space_dist(b, c),
                     tree_space_dist(a, c))
    assert (dab == 0) == (a.nodes == b.nodes)
    assert dab == tree_space_dist(b, a)
    assert dac <= max(dab, dbc)


@settings(max_examples=60)
@given(pair_trees(), pair_trees(), pair_trees())
def test_pair_tree_dist_is_an_ultrametric(a, b, c):
    dab, dbc, dac = (pair_tree_dist(a, b), pair_tree_dist(b, c),
                     pair_tree_dist(a, c))
    assert (dab == 0) == (a.pairs == b.pairs)
    assert dac <= max(dab, dbc)


def test_distance_values():
    a = FiniteTree(frozenset({(), (0,), (1,)}))
    b = FiniteTree(frozenset({(), (0,)}))
    # the trees agree below alphabet/length cut 2 but not cut 3
    assert tree_space_dist(a, b) == Fraction(1, 3)
    assert tree_space_dist(FiniteTree(frozenset({()})), b) == Fraction(1, 2)


# -- rank laws (shadow of the acceptance criterion) ---------------------------

def test_rank_laws_on_named_trees():
    t, s = build_tree("chain(2)"), build_tree("T1")
    assert rank(build_tree("graft(chain(2),T1)")) == rank(s) + rank(t)
    assert rank(build_tree("dsum(chain(2),T1)")) == sup_ordinal(
        [rank(t), rank(s)])


@settings(max_examples=40)
@given(st.sampled_from(["chain(1)", "chain(2)", "chain(3)", "T1",
                        "dsum(chain(1),T1)", "graft(chain(1),chain(2))"]),
       st.sampled_from(["chain(1)", "chain(2)", "T1",
                        "graft(T1,chain(1))"]))
def test_rank_laws_random_pairs(a, b):
    t, s = build_tree(a), build_tree(b)
    assert rank(build_tree(f"graft({a},{b})")) == rank(s) + rank(t)
    assert rank(build_tree(f"dsum({a},{b})")) == sup_ordinal(
        [rank(t), rank(s)])


def test_finite_rank_converges_to_symbolic():
    t = build_tree("chain(3)")
    ranks = [rank_finite(truncate(t, d, 3)) for d in range(1, 6)]
    assert ranks[-1] == 3 and ranks == sorted(ranks)


# -- projection ----------------------------------------------------------------

def test_project_membership():
    R = PairTree.of({((), ()), ((0,), (1,)), ((0, 0), (1, 0))})
    out = project(R, (1, 0))
    assert out.nodes == frozenset({(), (0,), (0, 0)})
    out2 = project(R, (0, 0))
    assert out2.nodes == frozenset({()})


def test_project_requires_long_enough_point():
    R = PairTree.of({((), ()), ((0,), (1,))})
    with pytest.raises(ValueError):
        project(R, ())
