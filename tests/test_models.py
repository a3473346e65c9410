"""Concrete structure builders: worked values, pruning, gap predicates,
coloured families, constructor specs."""

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mlw.conditions import build_type, pred_gap
from mlw.formulas import parse_formula
from mlw.models import (KFamily, KFunction, build_M, build_M4, build_M_l,
                        build_model, build_N, build_N2, build_N3,
                        build_Projection, canonical_truncation,
                        default_kfamily, is_bottom_terminal, kfamily_check,
                        load_kfamily, parse_ctor, parse_kfamily,
                        save_kfamily, shadow_report)
from mlw.structures import check_structure, eval_formula, save_structure
from mlw.trees import (PairTree, box_nodes, enumerate_pair_trees,
                       enumerate_trees, parse_node)


# --------------------------------------------------------------------------
# golden files: the constructors' tables, byte for byte

GOLDEN = {  # sha256 of the save_structure text
    "N(3,3)": (lambda: build_N(3, 3),
               "0b03f2c258e57d5f62a80520b88a296fa975179f21b9ece318a5ba674a9d66ea"),
    "N(2,2,shadow)": (
        lambda: build_N(2, 2, shadow=True),
        "5bfcb5f4164cd1461d2aa8b14257ef5bb63397408c7dfeb9d3ff02db5d430fdd"),
    "N2(3,2)": (lambda: build_N2(3, 2),
                "2d05e4f41b5bf2cd7efa2cd8a9e2c1dfb4824e62fcc6464a3b0feca35633dd13"),
    "N2(2,3,extra)": (
        lambda: build_N2(2, 3, extra_trees=[[(), (0,), (0, 1), (0, 1, 2)]]),
        "10e051c044e80c1827c81fa16653e3626b3e40486a815a272ed911af13de4804"),
    "N3(2,2)": (lambda: build_N3(2, 2),
                "b1143030d4e4a0e68d92fd074d30d142f931d0d9c78864fb70ac1c63fc80495f"),
    "N3(3,2,extra)": (
        lambda: build_N3(3, 2, c=None, extra_pairs=[
            [((), ()), ((0,), (1,)), ((0, 1), (1, 0))]]),
        "0dd0d222b6cf0454b14fd0873c0b768258e3539ce2fd78b817f4feacedca587d"),
    "Projection(3,2)": (
        lambda: build_Projection(3, 2),
        "9b2cd1799ade8e64c6a9e34db6195f21fee17b846c255b934254e70497d9071d"),
    "Projection(pairs)": (
        lambda: build_Projection(3, 3, pairs=PairTree.of([
            ((), ()), ((0,), (1,)), ((2,), (0,)), ((2, 1), (0, 0))])),
        "5e5e5335fb716642f21c15855c0e102d9d544a462b17b37ced32bc92e75910b2"),
    "M(4,3)": (lambda: build_M(4, 3),
               "570dd3b199af6cbd641bfb43969b4975fcb8cab5d2c2326e7127f4312330345e"),
    "M_l(2,4,3)": (
        lambda: build_M_l(2, 4, 3),
        "b9944d53b71fea93250b130316905c7d2a4615924f228a73ad11ca598c41a6b6"),
    "M4(3,3)": (lambda: build_M4(3, 3),
                "47724c503e7054526ebeee0e3dbc9ce0120316449228d34c657a398c18061f91"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_constructor_files_are_unchanged(tmp_path, name):
    build, digest = GOLDEN[name]
    path = tmp_path / "m.model"
    save_structure(build(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# criterion 1's constructors over its (depth, branch) grid
GRID_CTORS = {
    "N": build_N, "N2": build_N2, "N3": build_N3,
    "Projection": build_Projection, "M": build_M,
    "M_l": lambda d, b: build_M_l(2, d, b), "M4": build_M4,
}
TABLES_GOLDEN = Path(__file__).with_name("model_tables_golden.json")


def table_digest(M) -> str:
    """sha256 over every sort's points, den and distance table, and every
    function, predicate and modulus, tables as int64 bytes in C order."""
    h = hashlib.sha256()

    def put(*items):
        for x in items:
            if isinstance(x, np.ndarray):
                x = np.ascontiguousarray(x, dtype=np.int64)
                h.update(repr(x.shape).encode() + x.tobytes())
            else:
                h.update(repr(x).encode())
            h.update(b"\0")
    for s, sd in M.sorts.items():
        put(s, sd.points, sd.den, sd.dmat)
    for name, fn in M.functions.items():
        put(name, fn.arg_sorts, fn.out_sort, fn.table)
    for name, pr in M.predicates.items():
        put(name, pr.arg_sorts, pr.den, pr.table)
    for name, mod in M.moduli.items():
        put(name, mod.points)
    return h.hexdigest()


def grid_digests() -> dict:
    """{"N(1,1)": digest, ...} for every grid build under its size cap."""
    out = {}
    for name, ctor in GRID_CTORS.items():
        for d in range(1, 6):
            for b in range(1, 6):
                try:
                    M = ctor(d, b)
                except ValueError as e:
                    if "cap" in str(e):
                        continue
                    raise
                out[f"{name}({d},{b})"] = table_digest(M)
    return out


# the family of criterion 7, as `mlw iso --family` reads it from a file
C7_FAMILY = "base=4\nmult=omega <2.0,1.0>=2\nmult=omega\n"


def truncation_digests() -> dict:
    """Digests of the canonical truncations of the criterion-7 family and
    of default_kfamily() over m 1-4, r 1, 2 and 4, l None, 1 and 2, with
    and without perturb, and of the gap-predicate model M(6,3) pruned by
    extend_to=5."""
    out = {}
    for fam, K in (("C7", parse_kfamily(C7_FAMILY)),
                   ("default", default_kfamily())):
        for m, r, l, p in product(range(1, 5), (1, 2, 4), (None, 1, 2),
                                  (0, 1)):
            M = canonical_truncation(K, m, r, mu=2, l=l, perturb=bool(p),
                                     cap=2000)
            out[f"canon({fam},m={m},r={r},l={l},perturb={p})"] = \
                table_digest(M)
    out["M(6,3,extend_to=5)"] = table_digest(build_M(
        depth=6, branch=3, top_depth=4, top_branch=4, top_pair=1,
        extend_to=5))
    return out


def test_grid_tables_are_unchanged():
    golden = json.loads(TABLES_GOLDEN.read_text())
    got = {**grid_digests(), **truncation_digests()}
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


def test_public_tables_stay_int64():
    M = build_N2(3, 3)
    assert all(sd.dmat.dtype == np.int64 for sd in M.sorts.values())
    assert all(fn.table.dtype == np.int64 for fn in M.functions.values())
    assert all(pr.table.dtype == np.int64 for pr in M.predicates.values())


# --------------------------------------------------------------------------
# sequence boxes

def test_box_enumeration_is_bfs():
    nodes = box_nodes(2, 2)
    assert nodes[0] == ()
    lengths = [len(s) for s in nodes]
    assert lengths == sorted(lengths)
    assert len(nodes) == 7


def test_prefix_maps_and_distances(n33):
    f = parse_formula("d(f1(x0), x0)")
    # f1 maps a node to its length-1 prefix; the prefix of <0,1> is <0>
    assert eval_formula(f, n33, {"x0": "<0,1>"}) == Fraction(1, 2)
    assert eval_formula(f, n33, {"x0": "<0>"}) == 0


def test_shadow_witnesses():
    M = build_N(3, 3, shadow=True)
    rows = shadow_report(M)
    assert all(r.value == 0 for r in rows)
    modes = {r.mode for r in rows}
    assert modes <= {"box", "extended"}
    # in-box witnesses exist exactly for the root and the distinguished
    # length-1 points
    assert sum(1 for r in rows if r.mode == "box") == M.meta["branch"]


def test_tree_sort_membership_values(n2_small):
    # S1 is the one-node tree {<>}: the root is in it, <0> is not
    ee = parse_formula("ee(x0, x1)")
    # direct table lookup through eval on named points
    s1 = n2_small.sorts["D1"].index
    assert "S1" in n2_small.sorts["D2"].index


def test_enumeration_counts():
    assert len(enumerate_trees(2, 2)) == 25
    assert len(enumerate_pair_trees(1, 2)) == 16


# --------------------------------------------------------------------------
# the coloured two-part structure

def test_bottom_terminal_predicate():
    assert is_bottom_terminal("<0.1>", 1)
    assert not is_bottom_terminal("<1.0>", 1)   # s0 does not end at 0
    assert not is_bottom_terminal("<0.1>", 2)   # wrong height
    assert is_bottom_terminal("<1.0,0.1>", 2)


def test_colour_spot_values(m_small):
    # the root carries colour (0,0); tops are uncoloured
    p = parse_formula("P0_0(x0)")
    assert eval_formula(p, m_small, {"x0": "<>"}) == 0


def test_M_pruning_drops_short_branches():
    full = build_M(3, 4)
    pruned = build_M_l(2, 3, 4)
    assert pruned.sorts["D1"].size < full.sorts["D1"].size
    # every surviving non-top point of height 1 keeps room to reach level 2:
    # s0(0) >= l - 1 = 1, so <0.x> is pruned
    assert "<0.0>" not in pruned.sorts["D1"].index
    assert "<1.0>" in pruned.sorts["D1"].index


def test_M4_doubles_with_x_sort():
    M = build_M(3, 4)
    M4 = build_model("M4(depth=3,branch=4)")
    assert M4.sorts["X"].size == M.sorts["D1"].size
    assert "g" in M4.functions and "h" in M4.functions


# --------------------------------------------------------------------------
# gap predicates

def test_pred_gap_zero_sets():
    m = 1
    L = m + 2
    M = build_M(L, 4, extend_to=L)
    low, high = pred_gap(m, sort="D1")
    gap = Fraction(1, (m + 1) * (m + 2))
    for name in M.sorts["D1"].points[:40]:
        h = len(parse_node(name.lstrip("g0123456789t")
                           if not name.startswith("<") else name))
        v = eval_formula(low, M, {"x0": name})
        if h <= m:
            assert v == 0, name
        else:
            assert v == gap, name
        assert eval_formula(high, M, {"x0": name}) == gap - v


# --------------------------------------------------------------------------
# coloured families

def test_kfamily_file_round_trip(tmp_path, star_family):
    path = str(tmp_path / "fam.kf")
    save_kfamily(star_family, path)
    back = load_kfamily(path)
    assert back == star_family


def test_kfamily_check_passes(star_family):
    rows = kfamily_check(star_family, l=2, m=3, r=4, mu=2)
    assert all(row["ok"] for row in rows)
    assert {row["clause"] for row in rows} == {"k1", "k2", "k3", "k4"}


def test_default_family_is_checkable():
    fam = default_kfamily()
    assert any(fn.support for fn in fam.functions)


def test_canonical_truncation_matches_pruned(star_family):
    A = canonical_truncation(star_family, 3, 4, mu=2)
    B = canonical_truncation(star_family, 3, 4, mu=2, l=2)
    assert A.sorts["D1"].size == B.sorts["D1"].size
    assert check_structure(A) == []


# --------------------------------------------------------------------------
# constructor specs

def test_parse_ctor_handles_node_literals():
    sel, kw = parse_ctor("N3(depth=3,branch=3,c=<0,0>)")
    assert sel == "N3" and kw["c"] == "<0,0>"


def test_build_model_round_trip():
    M = build_model("N(depth=2,branch=2)")
    assert M.meta["label"].startswith("N(")
    with pytest.raises(ValueError):
        build_model("M_l(depth=3,branch=4)")  # missing l
    with pytest.raises(ValueError):
        build_model("bogus(depth=1)")


def test_builders_validate(n2_small, n3_small, proj_small, m_small):
    for M in (n2_small, n3_small, proj_small, m_small):
        assert check_structure(M) == []


# --------------------------------------------------------------------------
# type builders

def test_type_registry_kinds():
    for kind, args in [("s0_branch", ()), ("s0_escape", ()),
                       ("s_m", (1, 3)), ("tR", (2, "<1,1>")),
                       ("t_T2", (1, 3))]:
        t = build_type(kind, *args)
        assert t.conds or t.generator


def test_terminal_type_realizers(m_small):
    from mlw.analysis import realizes
    t = build_type("s_m", 1, 3)
    hits = realizes(m_small, t, tol=Fraction(0))
    names = {h[0] for h in hits}
    scan = {p for p in m_small.sorts["D1"].points
            if is_bottom_terminal(p, 1)}
    assert names == scan
