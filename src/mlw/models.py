"""Constructors for the concrete example structures at finite truncation.

Builders: the sequence box N with level maps (optionally with the shadow
function h and its witness report), the two-sort extension N2 (tree sort +
membership predicate ee), the three-sort extension N3 (pair-tree sort +
ternary ee3 and a distinguished constant), the x-axis projection structure,
the coloured-tree family M with pruned variant M_l and the discrete-sort
bridge M4, plus class-collapsed canonical truncations for isomorphism
experiments and the coloured-family file format.  The partial-type
builders and height-gap predicates that live on these structures are in
`conditions`; box and subtree enumeration and `relabel` are in `trees`."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .formulas import App, Dist, Formula, Var, ftsum
from .moduli import Modulus
from .structures import FiniteStructure, _on_one_den
from .trees import (FiniteTree, PairTree, _alphabet_cut, _descending_box,
                    _letter_ints, _pair_cut, box_nodes, ell,
                    enumerate_pair_trees, enumerate_trees, node_key,
                    node_name, parse_node, relabel)  # noqa: F401
from .values import ONE, ZERO

POINT_CAP = 1500  # per-sort default cap keeping exact validation feasible


def __getattr__(name: str):
    """build_type and pred_gap, from conditions, on first use: callers find
    them next to the constructors of the structures they act on (as they
    find relabel), while building and checking a model does not load
    conditions."""
    if name in ("build_type", "pred_gap"):
        from . import conditions
        return getattr(conditions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cap_check(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(f"parameter cap exceeded: {what} needs {n} points, "
                         f"cap is {cap}")


# --------------------------------------------------------------------------
# Sequence boxes and their metrics

def _prefix_table(*components) -> tuple[int, np.ndarray, np.ndarray]:
    """The longest-common-prefix metric 1/(shared+1), identical sequences
    at distance 0, given one sequence per point, as a (den, dist, levels)
    metric for FiniteStructure.build: a point's id at level j is its
    letter j, or -1 past its end.  Given several components (lists of
    sequences), the max of their metrics, the metric of the smallest
    shared prefix length: a point's id at level j then codes its letters j
    in every component."""
    components = [list(c) for c in components]
    depth = max((len(s) for c in components for s in c), default=0)
    width = max(depth, 1)
    levels = 0
    for nodes in components:
        ids: dict = {}
        arr = np.full((width, len(nodes)), -1, dtype=np.int64)
        for i, s in enumerate(nodes):
            for j, letter in enumerate(s):
                arr[j, i] = ids.setdefault(letter, len(ids))
        levels = levels * (len(ids) + 1) + arr + 1
    den = math.lcm(*range(1, depth + 2))
    dist = den // np.arange(1, width + 2)  # by shared prefix length
    dist[width] = 0  # the same sequence
    return den, dist, levels


def _parents(nodes) -> np.ndarray:
    """The index of each node's parent (its prefix one letter shorter) in
    a prefix-closed node list; the root is its own parent."""
    at = {s: i for i, s in enumerate(nodes)}
    return np.array([at[s[:-1]] if s else i for i, s in enumerate(nodes)],
                    dtype=np.int64)


def _level_maps(nodes, depth: int, sort: str):
    """The level maps f_0 .. f_depth as index tables: f_k maps a node to
    its prefix of length k, or to itself when it is no longer.  Walks down
    from the identity, f_(k-1) = parent of f_k on the nodes of length
    >= k."""
    parent = _parents(nodes)
    lens = np.array([len(s) for s in nodes], dtype=np.int64)
    fk = np.arange(len(nodes))
    tables = {}
    for k in range(max(depth, int(lens.max(initial=0))), -1, -1):
        if k <= depth:
            tables[k] = fk
        fk = np.where(lens >= k, parent[fk], fk)
    fns = {f"f{k}": ((sort,), sort, tables[k]) for k in range(depth + 1)}
    mods = {f"f{k}": Modulus.lipschitz(1) for k in range(depth + 1)}
    return fns, mods


def build_N(depth: int, branch: int, shadow: bool = False,
            cap: int = POINT_CAP) -> FiniteStructure:
    """Single-sort sequence box: prefix metric, level maps f_0..f_depth and,
    with shadow=True, the 3-Lipschitz function h collapsing the enumeration
    (h(<n>) = s_n, h(x) = f_1(x) elsewhere)."""
    nodes = box_nodes(depth, branch)
    _cap_check(len(nodes), cap, "N box")
    names = [node_name(s) for s in nodes]
    fns, mods = _level_maps(nodes, depth, "D1")
    if shadow:
        # h(<n>) = s_n, the n-th point; h = f_1 elsewhere
        h = fns["f1"][2].copy() if depth >= 1 else np.arange(len(nodes))
        for i, s in enumerate(nodes):
            if len(s) == 1:
                h[i] = s[0]
        fns["h"] = (("D1",), "D1", h)
        mods["h"] = Modulus.lipschitz(3)
    label = f"N(depth={depth},branch={branch}" + (",shadow=1)" if shadow else ")")
    return FiniteStructure.build(
        {"D1": names}, {"D1": _prefix_table(nodes)}, fns, {}, mods,
        {"label": label, "depth": depth, "branch": branch,
         "density": {"D1": None}})


def shadow_body() -> Formula:
    """Inner expression of the shadow sentence: the distance to the shadow
    image plus the level-1 displacement of the witness, truncated at 1."""
    x0, x1 = Var("x0", "D1"), Var("x1", "D1")
    return ftsum(Dist(x0, App("h", (x1,))),
                 Dist(App("f1", (x1,)), x1))


@dataclass(frozen=True)
class ShadowRow:
    point: str
    witness: str
    value: Fraction
    mode: str  # "box" when the witness is a point; "extended" when the
    # witness <n> lies outside the box and is certified by the defining
    # rules h(<n>) = s_n, f1(<n>) = <n>


def shadow_report(M: FiniteStructure) -> list[ShadowRow]:
    """Per-point witness for the vanishing inner infimum of the shadow
    sentence.  In-box witnesses are verified by direct evaluation;
    out-of-box witnesses <n> are certified by the rules of the intended
    structure, under which both summands vanish identically."""
    if "h" not in M.functions:
        raise ValueError("structure has no shadow function h")
    from .structures import eval_table
    depth, branch = M.meta["depth"], M.meta["branch"]
    enum = box_nodes(depth, branch)
    den, tab = eval_table(shadow_body(), M, [("x0", "D1"), ("x1", "D1")])
    rows = []
    pts = M.sorts["D1"].points
    for i, s in enumerate(enum):
        j = int(np.argmin(tab[i]))
        if tab[i, j] == 0:
            rows.append(ShadowRow(node_name(s), pts[j], ZERO, "box"))
        else:
            rows.append(ShadowRow(node_name(s), f"<{i}>", ZERO, "extended"))
    return rows


# --------------------------------------------------------------------------
# Tree sort: metric table

def _tree_table(trees) -> tuple[int, np.ndarray, list]:
    """The agreement metric on trees, 1/(j+1) with j the first alphabet cut
    where the trees differ, as a (den, dist, levels) metric: a tree's id
    at level k numbers its cut k."""
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
    dist = den // np.arange(1, kmax + 3)  # by the number of cuts agreed on
    dist[kmax + 1] = 0  # every cut
    return den, dist, sig_ids


def _membership_table(nodes, trees) -> tuple[int, np.ndarray]:
    """ee as a (den, table) pair over nodes x trees: 0 where the node lies
    in the tree, 1/(ell(node)+2) elsewhere; den is the lcm of the
    denominators that occur."""
    ells = np.array([ell(s) for s in nodes], dtype=np.int64)
    member = np.zeros((len(nodes), len(trees)), dtype=bool)
    node_idx = {s: i for i, s in enumerate(nodes)}
    for j, t in enumerate(trees):
        for s in t.nodes:
            i = node_idx.get(s)
            if i is not None:
                member[i, j] = True
    den = math.lcm(*(int(e) + 2 for e in ells[~member.all(axis=1)]))
    return den, np.where(member, 0, den // (ells + 2)[:, None])


def _node_tree_sorts(depth: int, branch: int, treedepth: int, treebranch: int,
                     extra_trees, cap: int):
    """Node sort D1, tree sort D2 (constants S_n, extra points E_j) and the
    membership table ee, as N2 and N3 share them.  Returns (nodes, names,
    number of S_n, points, metric, ee)."""
    nodes = box_nodes(depth, branch)
    _cap_check(len(nodes), cap, "N2 node sort")
    names = [node_name(s) for s in nodes]
    trees = enumerate_trees(treedepth, treebranch)
    n_s = len(trees)
    seen = {t.nodes for t in trees}
    extras = []
    for t in extra_trees:
        t = t if isinstance(t, FiniteTree) else FiniteTree.of(t)
        if t.nodes not in seen:
            seen.add(t.nodes)
            extras.append(t)
    all_trees = trees + extras
    _cap_check(len(all_trees), cap, "N2 tree sort")
    tnames = [f"S{i}" for i in range(n_s)] + [f"E{j}" for j in range(len(extras))]
    return (nodes, names, n_s, {"D1": names, "D2": tnames},
            {"D1": _prefix_table(nodes), "D2": _tree_table(all_trees)},
            _membership_table(nodes, all_trees))


def build_N2(depth: int, branch: int, treedepth: int = 2, treebranch: int = 2,
             extra_trees=(), cap: int = POINT_CAP) -> FiniteStructure:
    """Two-sort box: D1 as in build_N, D2 the enumerated subtrees of the
    (treedepth, treebranch) box (constants S_n) plus any extra trees
    (points E_j), with the membership predicate ee."""
    nodes, names, n_s, points, metric, ee = _node_tree_sorts(
        depth, branch, treedepth, treebranch, extra_trees, cap)
    fns, mods = _level_maps(nodes, depth, "D1")
    mods["ee"] = Modulus.lipschitz(1)
    return FiniteStructure.build(
        points, metric, fns, {"ee": (("D1", "D2"), ee)}, mods,
        {"label": f"N2(depth={depth},branch={branch},treedepth={treedepth},"
                  f"treebranch={treebranch})",
         "depth": depth, "branch": branch, "treedepth": treedepth,
         "treebranch": treebranch, "nS": n_s,
         "density": {"D1": None, "D2": None}})


# --------------------------------------------------------------------------
# Pair-tree sort: metric table

def _pair_table(ptrees) -> tuple[int, np.ndarray, list]:
    """Distance 1/max(j-1, 1) with j the first cut where the pair trees
    differ (cut 0 never differs: every pair tree holds the root pair), as
    a (den, dist, levels) metric: a pair tree's id at level k numbers its
    cut k."""
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
    # by the number of cuts agreed on; 0 on every cut
    dist = den // np.maximum(np.arange(kmax + 3) - 1, 1)
    dist[kmax + 2] = 0
    return den, dist, sig_ids


def build_N3(depth: int, branch: int, treedepth: int = 2, treebranch: int = 2,
             pairdepth: int = 1, pairbranch: int = 2, c: str | None = "<>",
             extra_pairs=(), cap: int = 600) -> FiniteStructure:
    """Three-sort box: N2 plus the pair-tree sort D3 (constants R_n, extra
    points Q_j), the ternary membership predicate ee3, and a distinguished
    node constant c (None leaves it out).

    The default cap is lower than elsewhere: the ternary predicate's table
    holds |D1|^2 * |D3| entries, and validating its modulus at the first
    argument scans each row of |D1| * |D3| values against every other
    point of D1 whenever the ball-by-ball check cannot decide."""
    nodes, names, n_s, points, metric, ee = _node_tree_sorts(
        depth, branch, treedepth, treebranch, (), cap)
    ptrees = enumerate_pair_trees(pairdepth, pairbranch)
    n_r = len(ptrees)
    seen = {R.pairs for R in ptrees}
    extras = []
    for R in extra_pairs:
        R = R if isinstance(R, PairTree) else PairTree.of(R)
        if R.pairs not in seen:
            seen.add(R.pairs)
            extras.append(R)
    all_pts = ptrees + extras
    _cap_check(len(all_pts), cap, "N3 pair sort")
    pnames = [f"R{i}" for i in range(n_r)] + [f"Q{j}" for j in range(len(extras))]
    # ee3 materialized directly: base value 1/(max(ell(s),ell(t))+2),
    # zeroed on the membership pairs of each pair tree.
    ells = np.array([ell(s) for s in nodes], dtype=np.int64)
    pairmax = np.maximum.outer(ells, ells)
    den_e = math.lcm(*range(1, int(pairmax.max()) + 3))
    ee3_tab = np.repeat((den_e // (pairmax + 2))[:, :, None],
                        len(all_pts), axis=2)
    node_idx = {s: i for i, s in enumerate(nodes)}
    for r_i, R in enumerate(all_pts):
        for s, t in R.pairs:
            if s in node_idx and t in node_idx:
                ee3_tab[node_idx[s], node_idx[t], r_i] = 0

    fns, mods = _level_maps(nodes, depth, "D1")
    mods["ee"] = Modulus.lipschitz(1)
    mods["ee3"] = Modulus.lipschitz(1)
    if c is not None:
        if c not in names:
            raise ValueError(f"constant c must name a node, got {c!r}")
        fns["c"] = ((), "D1", lambda: c)
    points["D3"] = pnames
    metric["D3"] = _pair_table(all_pts)
    return FiniteStructure.build(
        points, metric,
        fns, {"ee": (("D1", "D2"), ee),
              "ee3": (("D1", "D1", "D3"), (den_e, ee3_tab))},
        mods,
        {"label": f"N3(depth={depth},branch={branch},pairdepth={pairdepth},"
                  f"pairbranch={pairbranch},c={c})",
         "depth": depth, "branch": branch, "nS": n_s, "nR": n_r,
         "density": {"D1": None, "D2": None, "D3": None}})


# --------------------------------------------------------------------------
# Projection structure

def enc_value(s: tuple) -> Fraction:
    """First-coordinate code: sum over positions i of the weight 1/(i(i+1))
    scaled by 1 - 2^{-entry}; 1-Lipschitz for the prefix metric because the
    tail weight beyond a shared prefix of length d telescopes to 1/(d+1)."""
    out = ZERO
    for i, v in enumerate(s, start=1):
        out += Fraction(1, i * (i + 1)) * (1 - Fraction(1, 2 ** v))
    return out


def build_Projection(depth: int, branch: int, pairs: PairTree | None = None,
                     cap: int = POINT_CAP) -> FiniteStructure:
    """Pairs of equal-length sequences under the max of the two prefix
    metrics, with the unary predicate f reading off the first-coordinate
    code.  pairs=None takes every pair in the box."""
    if pairs is None:
        # count first so oversized boxes are rejected before enumeration
        _cap_check(sum(branch ** (2 * d) for d in range(depth + 1)), cap,
                   "projection box")
        pts = [(s, t) for d in range(depth + 1)
               for s in product(range(branch), repeat=d)
               for t in product(range(branch), repeat=d)]
    else:
        pts = pairs.sorted_pairs()
    _cap_check(len(pts), cap, "projection box")
    names = [node_name(s) + "|" + node_name(t) for s, t in pts]
    enc = {s: enc_value(s) for s in dict.fromkeys(s for s, _ in pts)}
    return FiniteStructure.build(
        {"D1": names},
        {"D1": _prefix_table([s for s, _ in pts], [t for _, t in pts])}, {},
        {"f": (("D1",), _on_one_den(enc[s] for s, _ in pts))},
        {"f": Modulus.lipschitz(1)},
        {"label": f"Projection(depth={depth},branch={branch})",
         "depth": depth, "branch": branch, "density": {"D1": None}})


# --------------------------------------------------------------------------
# Coloured families

@dataclass(frozen=True)
class KFunction:
    """Finitely supported colour-offset function on two-coordinate nodes."""
    support: tuple = ()  # ((node, value), ...), node a tuple of pair letters
    mult: object = "omega"  # declared multiplicity in the family list

    def value(self, node, base: int) -> int:
        for s, v in self.support:
            if s == node:
                return v
        return base


@dataclass(frozen=True)
class KFamily:
    base: int
    functions: tuple[KFunction, ...] = (KFunction(),)

    def max_value(self) -> int:
        out = self.base
        for f in self.functions:
            for _, v in f.support:
                out = max(out, v)
        return out


def default_kfamily() -> KFamily:
    """Base offset 0 with one raised node: nontrivial yet small colours."""
    return KFamily(0, (KFunction((((("p", 1, 0),), 2),)),))


def parse_kfamily(text: str) -> KFamily:
    base = 0
    fns = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("base="):
            base = int(line.split("=", 1)[1])
            continue
        mult: object = "omega"
        entries = []
        for tok in line.split():
            key, _, val = tok.partition("=")
            if key == "mult":
                mult = "omega" if val == "omega" else int(val)
            else:
                entries.append((parse_node(key), int(val)))
        entries.sort(key=lambda e: node_key(e[0]))
        fns.append(KFunction(tuple(entries), mult))
    if not fns:
        fns.append(KFunction())
    return KFamily(base, tuple(fns))


def load_kfamily(path: str) -> KFamily:
    with open(path) as fh:
        return parse_kfamily(fh.read())


def save_kfamily(K: KFamily, path: str):
    lines = [f"base={K.base}"]
    for f in K.functions:
        toks = [f"mult={f.mult}"]
        toks.extend(f"{node_name(s)}={v}" for s, v in f.support)
        lines.append(" ".join(toks))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _strip_tag(letter):
    return letter[2] if isinstance(letter, tuple) and letter[0] in ("d", "g") \
        else letter


def _bottom_identity(s: tuple) -> tuple:
    return tuple(_strip_tag(x) for x in s)


def _colour_preds(colours, rows: int, cols: int, mods: dict) -> dict:
    """The colour predicates P{i}_{j} of D1, i < rows and j < cols, given
    each point's colour (i, j): P{i}_{j} is 0 exactly on colour (i, j), 1
    elsewhere, and (i+1)-Lipschitz; its modulus goes into mods."""
    ci, cj = np.array(colours, dtype=np.int64).T
    preds = {}
    for i in range(rows):
        for j in range(cols):
            off = (ci != i) | (cj != j)
            preds[f"P{i}_{j}"] = (("D1",), (1, off.astype(np.int64)))
            mods[f"P{i}_{j}"] = Modulus.lipschitz(i + 1)
    return preds


def build_M(depth: int, branch: int, pair_branch: int = 2, top_depth: int = 2,
            top_branch: int = 2, top_pair: int = 1, top_copies: int = 1,
            k: KFamily | None = None, colours: int | None = None,
            l: int | None = None, extend_to: int | None = None,
            x_sort: bool = False, cap: int = POINT_CAP) -> FiniteStructure:
    """Coloured two-coordinate tree with uncoloured grafted top copies.

    Bottom nodes are the two-coordinate box; at every bottom node,
    top_copies tagged copies of the (top_depth, top_branch, top_pair) box
    are grafted, within the total height bound `depth`.  Colours: a bottom
    node t at height i carries P_{i,j} exactly for j = k(parent) + second
    coordinate of its last letter; the root carries P_{0,0}; top nodes are
    uncoloured.  l prunes bottom nodes without room to reach level l;
    extend_to prunes every node lacking a descendant at that height;
    x_sort adds the discrete sort X with the predecessor map g and the
    identity bridge h."""
    K = k or default_kfamily()
    if len(K.functions) > 1:
        raise ValueError("explicit builds take a single colour function; "
                         "use canonical_truncation for whole families")
    kfn = K.functions[0]
    bdepth = min(depth, branch)
    bottom = list(_descending_box(bdepth, branch, pair_branch))
    if l is not None:
        bottom = [s for s in bottom
                  if not s or s[-1][1] >= l - len(s)]
        kept = set(bottom)
        bottom = [s for s in bottom
                  if all(s[:i] in kept for i in range(len(s)))]
    nodes = list(bottom)
    bottom_set = set(bottom)
    for s in bottom:
        room = min(top_depth, depth - len(s))
        if room < 1:
            continue
        for c in range(top_copies):
            for u in _descending_box(room, top_branch, top_pair):
                if u:
                    nodes.append(s + (("g", c, u[0]),) + u[1:])
    if extend_to is not None:
        reach = {s: len(s) for s in nodes}  # the height of its deepest leaf
        for s in sorted(nodes, key=len, reverse=True):
            if s:
                reach[s[:-1]] = max(reach[s[:-1]], reach[s])
        nodes = [s for s in nodes if reach[s] >= extend_to]
        bottom_set &= set(nodes)
    nodes.sort(key=node_key)
    _cap_check(len(nodes), cap, "M box")
    names = [node_name(s) for s in nodes]
    fns, mods = _level_maps(nodes, depth, "D1")

    jmax = colours if colours is not None else max(
        depth, K.max_value() + pair_branch - 1)

    def colour_of(s):
        if not s:
            return (0, 0)
        if s not in bottom_set:
            return (-1, -1)  # uncoloured
        i = len(s)
        kv = kfn.value(_bottom_identity(s[:-1]), K.base)
        return (i, kv + s[-1][2])

    preds = _colour_preds([colour_of(s) for s in nodes], depth + 1,
                          jmax + 1, mods)

    points = {"D1": names}
    metric = {"D1": _prefix_table(nodes)}
    if x_sort:
        xnames = ["X" + nm for nm in names]
        points["X"] = xnames
        nx = len(xnames)
        metric["X"] = (1, (1, 0), [np.arange(nx)])  # the discrete metric
        fns["g"] = (("X",), "X", _parents(nodes))  # the predecessor
        fns["h"] = (("X",), "D1", np.arange(nx))  # X<node> to <node>
        mods["g"] = Modulus.lipschitz(1)
        mods["h"] = Modulus.lipschitz(1)
    sel = "M4" if x_sort else ("M_l" if l is not None else "M")
    meta = {"label": f"{sel}(depth={depth},branch={branch},"
                     f"pair_branch={pair_branch},top_depth={top_depth})",
            "depth": depth, "branch": branch, "colour_max": jmax,
            "density": {"D1": None}}
    if l is not None:
        meta["pruned_to"] = l
    return FiniteStructure.build(points, metric, fns, preds, mods, meta)


def build_M_l(l: int, depth: int, branch: int, **kw) -> FiniteStructure:
    return build_M(depth, branch, l=l, **kw)


def build_M4(depth: int, branch: int, **kw) -> FiniteStructure:
    return build_M(depth, branch, x_sort=True, **kw)


def is_bottom_terminal(name: str, height: int) -> bool:
    """Direct scan: bottom node of the given height whose first coordinate
    ends in 0 (no room for further bottom extensions)."""
    s = parse_node(name)
    if len(s) != height or height == 0:
        return False
    if any(not (isinstance(x, tuple) and x[0] == "p") for x in s):
        return False
    return s[-1][1] == 0


# --------------------------------------------------------------------------
# Canonical class-collapsed truncations

def _merge_children(children):
    """Combine (type id, multiplicity) pairs; unbounded absorbs."""
    acc: dict = {}
    for tid, mult in children:
        cur = acc.get(tid)
        if cur == "omega" or mult == "omega":
            acc[tid] = "omega"
        else:
            acc[tid] = (cur or 0) + mult
    return tuple(sorted(acc.items(),
                        key=lambda e: (e[0], -1 if e[1] == "omega" else e[1])))


class _Canon:
    """Subtree types of the class-collapsed m-level truncation.

    Rooms are stored capped at the remaining depth (larger rooms behave
    identically within the truncation).  Support entries travel down the
    concrete path they name, as singleton child classes; everything else
    is a class child with unbounded multiplicity."""

    def __init__(self, base, m, r, l):
        self.base, self.m, self.r, self.l = base, m, r, l
        self.types: dict = {}
        self.records: list = []
        self.memo: dict = {}

    def intern(self, col, children):
        key = (col, children)
        tid = self.types.get(key)
        if tid is None:
            tid = self.types[key] = len(self.records)
            self.records.append(key)
        return tid

    def top(self, i, room):
        key = ("top", i, room)
        if key in self.memo:
            return self.memo[key]
        rem = self.m - 1 - i
        kids = []
        if rem > 0:
            for c in range(min(room, rem)):
                kids.append((self.top(i + 1, min(c, rem - 1)), "omega"))
        tid = self.intern(None, _merge_children(kids))
        self.memo[key] = tid
        return tid

    def bot(self, i, room, kval, sp, col):
        key = ("bot", i, room, kval, sp, col)
        if key in self.memo:
            return self.memo[key]
        rem = self.m - 1 - i
        kids = []
        if rem > 0:
            for c in range(rem):  # grafted top copies, every room class
                kids.append((self.top(i + 1, c), "omega"))
            rooms = range(min(room, rem))
            for rho in rooms:
                if self.l is not None and i + 1 < self.l and rho < self.l - i - 1:
                    continue
                for j in range(kval, self.r):  # visible colour classes
                    kids.append((self.bot(i + 1, rho, self.base, (), j),
                                 "omega"))
                kids.append((self.bot(i + 1, rho, self.base, (), None),
                             "omega"))
            by_first: dict = {}
            for path, v in sp:
                by_first.setdefault(path[0], []).append((path[1:], v))
            for letter, rest in sorted(by_first.items(),
                                       key=lambda e: node_key((e[0],))):
                a, b = letter[1], letter[2]
                rho = min(a, rem - 1)
                if self.l is not None and i + 1 < self.l and a < self.l - i - 1:
                    continue
                childk = self.base
                deeper = []
                for path, v in rest:
                    if path:
                        deeper.append((path, v))
                    else:
                        childk = v
                j = kval + b
                kids.append((self.bot(i + 1, rho, childk,
                                      tuple(sorted(deeper, key=lambda e:
                                                   node_key(e[0]))),
                                      j if j < self.r else None), 1))
        tid = self.intern(col, _merge_children(kids))
        self.memo[key] = tid
        return tid


def canonical_truncation(family: KFamily, m: int, r: int, mu: int = 2,
                         l: int | None = None, perturb: bool = False,
                         cap: int = POINT_CAP) -> FiniteStructure:
    """Class-collapsed m-level truncation of the summed coloured family
    (pruned below level l when given), rendered with mu points per
    unbounded child class.  perturb=True bumps the first coloured class
    met in build order to mu+1 points, breaking the label counts."""
    if not (0 < m and 0 < r):
        raise ValueError("m and r must be positive")
    canon = _Canon(family.base, m, r, l)
    root_kids = []
    for f in family.functions:
        rootk = family.base
        sp = []
        for node, v in f.support:
            if node:
                sp.append((node, v))
            else:
                rootk = v
        kids_tid = canon.bot(0, m - 1, rootk, tuple(sorted(
            sp, key=lambda e: node_key(e[0]))), None)
        # summand multiplicities are unbounded, so every child class of
        # every summand root recurs unboundedly under the shared root
        col, children = canon.records[kids_tid]
        root_kids.extend((tid, "omega") for tid, _ in children)
    root_tid = canon.intern((0, 0), _merge_children(root_kids))

    cols: list = []
    paths: list[tuple] = []
    state = {"armed": perturb}

    def emit(tid, path):
        col, children = canon.records[tid]
        cols.append((-1, -1) if col is None else
                    (len(path), col[1] if isinstance(col, tuple) else col))
        paths.append(path)
        counts = [(ctid, mu if mult == "omega" else mult, mult == "omega")
                  for ctid, mult in children]
        if state["armed"]:
            # shift one point from an unlabelled class to a labelled sibling
            # class: sizes stay equal, the label counts do not
            coloured = [p for p, (ctid, _, cls) in enumerate(counts)
                        if cls and canon.records[ctid][0] is not None]
            plain = [p for p, (ctid, cnt, cls) in enumerate(counts)
                     if cls and canon.records[ctid][0] is None and cnt > 1]
            if coloured and plain:
                ci, pi = coloured[0], plain[0]
                counts[ci] = (counts[ci][0], counts[ci][1] + 1, True)
                counts[pi] = (counts[pi][0], counts[pi][1] - 1, True)
                state["armed"] = False
        slot = 0
        for ctid, count, _ in counts:
            for _ in range(count):
                emit(ctid, path + (slot,))
                slot += 1

    emit(root_tid, ())
    _cap_check(len(paths), cap, "canonical truncation")
    fns, mods = _level_maps(paths, r - 1, "D1")
    preds = _colour_preds(cols, r, r, mods)
    return FiniteStructure.build(
        {"D1": [f"n{i}" for i in range(len(paths))]},
        {"D1": _prefix_table(paths)}, fns, preds, mods,
        {"label": f"canon(m={m},r={r},mu={mu},l={l},perturb={int(perturb)})",
         "depth": m - 1, "types": len(canon.records),
         "roles": len(canon.memo), "density": {"D1": None}})


def kfamily_check(K: KFamily, l: int, m: int, r: int, mu: int = 2,
                  cap: int = POINT_CAP) -> list[dict]:
    """Finite surrogates of the family laws: recurrence and
    variation-closure by annotation counting, pruning-exchange both ways by
    isomorphism search on canonical truncations (of at most cap points)."""
    from .analysis import IsoWitness, find_iso
    rows = []
    bad = [i for i, f in enumerate(K.functions) if f.mult != "omega"]
    rows.append({"clause": "k1", "ok": not bad,
                 "detail": "every listed function recurs unboundedly" if not bad
                 else f"finite multiplicity at index {bad[0]}"})
    nodes = sorted({s for f in K.functions for s, _ in f.support},
                   key=node_key)
    values = sorted({v for f in K.functions for _, v in f.support} | {K.base})
    have = {tuple(f.value(s, K.base) for s in nodes) for f in K.functions}
    missing = None
    for combo in product(values, repeat=len(nodes)):
        if combo not in have:
            missing = combo
            break
    rows.append({"clause": "k2", "ok": missing is None,
                 "detail": "closed under variation on the support grid"
                 if missing is None else
                 "missing variant " + " ".join(
                     f"{node_name(s)}={v}" for s, v in zip(nodes, missing))})
    for clause, (la, lb) in (("k3", (l, None)), ("k4", (None, l))):
        ok, detail = True, []
        for idx, f in enumerate(K.functions):
            sub = KFamily(K.base, (f,))
            A = canonical_truncation(sub, m, r, mu, l=la, cap=cap)
            B = canonical_truncation(sub, m, r, mu, l=lb, cap=cap)
            res = find_iso(A, B)
            if isinstance(res, IsoWitness):
                detail.append(f"function {idx}: matched (i={idx})")
            else:
                ok = False
                detail.append(f"function {idx}: {res.reason}")
        rows.append({"clause": clause, "ok": ok, "detail": "; ".join(detail)})
    return rows


# --------------------------------------------------------------------------
# Constructor spec strings

_CTOR = re.compile(r"^\s*(N2|N3|N|Projection|M_l|M4|M)\s*\((.*)\)\s*$",
                   re.DOTALL)

_BUILDERS = {
    "N": (build_N, {"depth": int, "branch": int, "shadow": lambda v: bool(int(v)),
                    "cap": int}),
    "N2": (build_N2, {"depth": int, "branch": int, "treedepth": int,
                      "treebranch": int, "cap": int}),
    "N3": (build_N3, {"depth": int, "branch": int, "treedepth": int,
                      "treebranch": int, "pairdepth": int, "pairbranch": int,
                      "c": str, "cap": int}),
    "Projection": (build_Projection, {"depth": int, "branch": int, "cap": int}),
    "M": (build_M, {"depth": int, "branch": int, "pair_branch": int,
                    "top_depth": int, "top_branch": int, "top_pair": int,
                    "top_copies": int, "k": load_kfamily, "colours": int,
                    "l": int, "extend_to": int, "cap": int}),
}
_BUILDERS["M_l"] = _BUILDERS["M"]
_BUILDERS["M4"] = _BUILDERS["M"]


def parse_ctor(text: str):
    m = _CTOR.match(text)
    if not m:
        raise ValueError(f"bad constructor spec {text!r}")
    sel, body = m.group(1), m.group(2).strip()
    kwargs = {}
    if body:
        # split on commas outside node literals <...>
        parts = re.split(r",(?![^<]*>)", body)
        for part in parts:
            key, eq, val = part.partition("=")
            if not eq:
                raise ValueError(f"constructor arguments must be key=value, "
                                 f"got {part!r}")
            kwargs[key.strip()] = val.strip()
    return sel, kwargs


def build_model(spec: str, cap: int | None = None) -> FiniteStructure:
    sel, raw = parse_ctor(spec)
    builder, schema = _BUILDERS[sel]
    kw = {}
    for key, val in raw.items():
        if key not in schema:
            raise ValueError(f"unknown parameter {key!r} for {sel}")
        kw[key] = schema[key](val)
    if cap is not None:
        kw.setdefault("cap", cap)
    if sel == "M_l" and "l" not in kw:
        raise ValueError("M_l requires l=<level>")
    if sel == "M4":
        kw["x_sort"] = True
    return builder(**kw)
