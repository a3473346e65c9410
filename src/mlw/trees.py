"""Trees over ω^<ω and ω^<ω × ω^<ω: DSL constructors, box and subtree
enumeration, relabelling into a box, ordinal ranks, well-foundedness,
truncation, the three tree metrics, ℓ, and projections.

Nodes are tuples of "letters".  A letter is a base natural, a pair letter
("p", a, b) for two-coordinate trees, a summand tag ("d", i, letter), or a
graft-copy tag ("g", c, letter).  Tags appear only on the first letter of
the grafted/summed part, so distinct components never collide."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import product

from .values import ZERO

Node = tuple


# --------------------------------------------------------------------------
# Letters and node naming

def letter_key(l):
    if isinstance(l, int):
        return (0, l)
    if l[0] == "p":
        return (1, l[1], l[2])
    if l[0] == "d":
        return (2, l[1]) + letter_key(l[2])
    if l[0] == "g":
        return (3, l[1]) + letter_key(l[2])
    raise TypeError(f"bad letter {l!r}")


def node_key(s: Node):
    return (len(s),) + tuple(k for l in s for k in letter_key(l))


def show_letter(l) -> str:
    if isinstance(l, int):
        return str(l)
    if l[0] == "p":
        return f"{l[1]}.{l[2]}"
    if l[0] == "d":
        return f"d{l[1]}:{show_letter(l[2])}"
    if l[0] == "g":
        return f"g{l[1]}:{show_letter(l[2])}"
    raise TypeError(f"bad letter {l!r}")


def node_name(s: Node) -> str:
    return "<" + ",".join(show_letter(l) for l in s) + ">"


_PAIR_LETTER = re.compile(r"^(\d+)\.(\d+)$")
_TAG_LETTER = re.compile(r"^([dg])(\d+):(.*)$")


def _parse_letter(text: str):
    m = _TAG_LETTER.match(text)
    if m:
        return (m.group(1), int(m.group(2)), _parse_letter(m.group(3)))
    m = _PAIR_LETTER.match(text)
    if m:
        return ("p", int(m.group(1)), int(m.group(2)))
    return int(text)


def parse_node(text: str) -> Node:
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"node literal must be angle-bracketed: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(_parse_letter(p.strip()) for p in inner.split(","))


def _letter_ints(l):
    if isinstance(l, int):
        return (l,)
    if l[0] == "p":
        return (l[1], l[2])
    return (l[1],) + _letter_ints(l[2])


# --------------------------------------------------------------------------
# Finite trees

@dataclass(frozen=True)
class FiniteTree:
    nodes: frozenset

    def __post_init__(self):
        for s in self.nodes:
            if s and s[:-1] not in self.nodes:
                raise ValueError(f"not prefix-closed: missing {node_name(s[:-1])}")

    @staticmethod
    def of(nodes) -> "FiniteTree":
        return FiniteTree(frozenset(tuple(s) for s in nodes))

    def sorted_nodes(self) -> list[Node]:
        return sorted(self.nodes, key=node_key)

    def children(self, s: Node) -> list[Node]:
        n = len(s)
        return sorted((t for t in self.nodes if len(t) == n + 1 and t[:n] == s),
                      key=node_key)

    def depth(self) -> int:
        return max((len(s) for s in self.nodes), default=0)

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, s):
        return tuple(s) in self.nodes


# --------------------------------------------------------------------------
# Boxes: node and subtree enumeration, relabelling into a box

def box_nodes(depth: int, branch: int) -> list[tuple]:
    """All sequences of length <= depth with entries < branch, level-major
    lexicographic (the enumeration s_0, s_1, ...)."""
    out: list[tuple] = [()]
    for d in range(1, depth + 1):
        out.extend(product(range(branch), repeat=d))
    return out


def _tree_sort_key(t: FiniteTree):
    return (len(t.nodes), tuple(sorted(node_key(s) for s in t.nodes)))


def _box_subtrees(depth: int, letters, root, graft) -> list[frozenset]:
    """Node sets of every nonempty subtree of a depth-`depth` box: below
    the root, each letter holds nothing or a subtree one level shallower,
    whose nodes graft(letter, node) puts under it."""
    if depth == 0:
        return [frozenset({root})]
    subs = _box_subtrees(depth - 1, letters, root, graft)
    out = []
    for combo in product(*([[None] + subs] * len(letters))):
        nodes = {root}
        for letter, sub in zip(letters, combo):
            if sub is not None:
                nodes |= {graft(letter, s) for s in sub}
        out.append(frozenset(nodes))
    return out


def enumerate_trees(depth: int, branch: int) -> list[FiniteTree]:
    """All nonempty subtrees of the (depth, branch) box, smallest first;
    the order fixes the constant names S_n."""
    trees = [FiniteTree(ns) for ns in _box_subtrees(
        depth, range(branch), (), lambda a, s: (a,) + s)]
    trees.sort(key=_tree_sort_key)
    return trees


def enumerate_pair_trees(depth: int, branch: int) -> list[PairTree]:
    """All nonempty subtrees of the (depth, branch) pair box (equal-length
    coordinate pairs), smallest first; the order fixes the constants R_n."""
    pts = [PairTree(ps) for ps in _box_subtrees(
        depth, list(product(range(branch), repeat=2)), ((), ()),
        lambda ab, st: ((ab[0],) + st[0], (ab[1],) + st[1]))]
    pts.sort(key=lambda R: (len(R.pairs), tuple(sorted(
        node_key(s) + node_key(t) for s, t in R.pairs))))
    return pts


def relabel(t: FiniteTree, branch_cap: int, depth_cap: int) -> FiniteTree:
    """Isomorphic copy of t inside the (depth_cap, branch_cap) integer box:
    at every node the children, in canonical order, receive consecutive
    integer letters.  Fails if t is too wide or deep for the box."""
    t = t if isinstance(t, FiniteTree) else FiniteTree.of(t)
    out = {()}
    frontier = [((), ())]
    while frontier:
        src, dst = frontier.pop()
        if len(dst) >= depth_cap and t.children(src):
            raise ValueError("tree too deep for the box")
        for i, child in enumerate(t.children(src)):
            if i >= branch_cap:
                raise ValueError("tree too wide for the box")
            nd = dst + (i,)
            out.add(nd)
            frontier.append((child, nd))
    return FiniteTree(frozenset(out))


# --------------------------------------------------------------------------
# Ordinals below ω^ω, plus ∞ for ill-founded trees

@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form Σ ω^k·c with k < ω, or the absorbing symbol ∞."""
    terms: tuple[tuple[int, int], ...] = ()
    infinite: bool = False

    def __post_init__(self):
        ks = [k for k, _ in self.terms]
        if ks != sorted(ks, reverse=True) or len(set(ks)) != len(ks):
            raise ValueError("exponents must be strictly decreasing")
        if any(c < 1 for _, c in self.terms):
            raise ValueError("coefficients must be positive")

    @staticmethod
    def nat(n: int) -> "Ordinal":
        return Ordinal(((0, n),)) if n else Ordinal()

    @staticmethod
    def omega(k: int = 1, c: int = 1) -> "Ordinal":
        return Ordinal(((k, c),))

    @staticmethod
    def infinity() -> "Ordinal":
        return Ordinal((), True)

    def __lt__(self, other: "Ordinal") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        # compare CNF term lists positionally; longer list with equal prefix wins
        a, b = self.terms, other.terms
        for (k1, c1), (k2, c2) in zip(a, b):
            if (k1, c1) != (k2, c2):
                return (k1, c1) < (k2, c2)
        return len(a) < len(b)

    def __add__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal (non-commutative) addition."""
        if self.infinite or other.infinite:
            return Ordinal.infinity()
        if not other.terms:
            return self
        e, c = other.terms[0]
        keep = tuple(t for t in self.terms if t[0] > e)
        carry = next((tc for tk, tc in self.terms if tk == e), 0)
        return Ordinal(keep + ((e, c + carry),) + other.terms[1:])

    @property
    def finite(self) -> bool:
        return not self.infinite and all(k == 0 for k, _ in self.terms)

    def __str__(self):
        if self.infinite:
            return "inf"
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms:
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("w" if c == 1 else f"w*{c}")
            else:
                parts.append(f"w^{k}" if c == 1 else f"w^{k}*{c}")
        return "+".join(parts)


def sup_ordinal(items) -> Ordinal:
    out = Ordinal()
    for x in items:
        if out < x:
            out = x
    return out


# --------------------------------------------------------------------------
# Symbolic tree DSL

@dataclass(frozen=True)
class SymbolicTree:
    kind: str  # finite | t1 | t2 | full | chain | comb | dsum | graft
    finite: FiniteTree | None = None
    n: int | None = None
    parts: tuple["SymbolicTree", ...] = ()
    uniform: bool = False  # dsum over an ω-family of one term

    def __str__(self):
        if self.kind == "finite":
            inner = ";".join(node_name(s) for s in self.finite.sorted_nodes())
            return "finite{" + inner + "}"
        if self.kind == "chain":
            return f"chain({self.n})"
        if self.kind == "dsum":
            return f"dsum({','.join(str(p) for p in self.parts)})"
        if self.kind == "graft":
            return f"graft({self.parts[0]},{self.parts[1]})"
        return {"t1": "T1", "t2": "T2", "full": "full", "comb": "comb"}[self.kind]


_DSL_TOKEN = re.compile(r"\s*(T1|T2|full|chain|comb|finite|dsum|graft"
                        r"|\d+|<[^>]*>|[(){},;])")


class _DslParser:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[str] = []
        pos = 0
        while pos < len(text):
            m = _DSL_TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad tree DSL near {text[pos:pos+20]!r}")
                break
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, v):
        t = self.next()
        if t != v:
            raise ValueError(f"expected {v!r}, found {t!r} in tree DSL")

    def term(self) -> SymbolicTree:
        t = self.next()
        if t == "T1":
            return SymbolicTree("t1")
        if t == "T2":
            return SymbolicTree("t2")
        if t == "full":
            return SymbolicTree("full")
        if t == "comb":
            return SymbolicTree("comb")
        if t == "chain":
            self.expect("(")
            n = int(self.next())
            self.expect(")")
            return SymbolicTree("chain", n=n)
        if t == "finite":
            self.expect("{")
            nodes = []
            while self.peek() != "}":
                nodes.append(parse_node(self.next()))
                if self.peek() == ";":
                    self.next()
            self.next()
            ft = FiniteTree.of(_prefix_close(nodes))
            return SymbolicTree("finite", finite=ft)
        if t == "dsum":
            self.expect("(")
            parts = [self.term()]
            while self.peek() == ",":
                self.next()
                parts.append(self.term())
            self.expect(")")
            return SymbolicTree("dsum", parts=tuple(parts),
                                uniform=len(parts) == 1)
        if t == "graft":
            self.expect("(")
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(")")
            return SymbolicTree("graft", parts=(a, b))
        raise ValueError(f"unexpected token {t!r} in tree DSL")


def _prefix_close(nodes):
    out = set()
    for s in nodes:
        for k in range(len(s) + 1):
            out.add(s[:k])
    return out


def build_tree(text: str) -> SymbolicTree:
    p = _DslParser(text)
    t = p.term()
    if p.peek():
        raise ValueError(f"trailing tree DSL input {p.peek()!r}")
    return t


# --------------------------------------------------------------------------
# Truncation

def _descending_box(depth: int, branch: int, pair_branch: int | None = None):
    """Nodes of length <= depth whose letters' first coordinates strictly
    decrease and stay below branch, in node_key order: integer letters
    (the truncation of T1), or ("p", a, b) letters with b < pair_branch
    when pair_branch is given (T2's two-coordinate box)."""
    level = [()]
    for _ in range(depth):
        yield from level
        nxt = []
        for s in level:
            top = _letter_ints(s[-1])[0] if s else branch
            for a in range(min(top, branch)):
                if pair_branch is None:
                    nxt.append(s + (a,))
                else:
                    nxt.extend(s + (("p", a, b),) for b in range(pair_branch))
        level = nxt
    yield from level


def _tag_first(s: Node, tag: str, i: int) -> Node:
    return ((tag, i, s[0]),) + s[1:]


def truncate(t: SymbolicTree | FiniteTree, depth: int, branch: int) -> FiniteTree:
    """Nodes of length ≤ depth whose integer components are all < branch
    (copy and summand indices included, so the result is finite)."""
    if depth < 0 or branch < 0:
        raise ValueError("depth and branch must be >= 0")
    if isinstance(t, FiniteTree):
        t = SymbolicTree("finite", finite=t)
    return FiniteTree(frozenset(_trunc(t, depth, branch)))


def _trunc(t: SymbolicTree, depth: int, branch: int) -> set:
    if t.kind == "finite":
        return {s for s in t.finite.nodes
                if len(s) <= depth
                and all(v < branch for l in s for v in _letter_ints(l))}
    if t.kind == "full":
        return set(box_nodes(depth, branch))
    if t.kind == "chain":
        return {(0,) * k for k in range(min(t.n, depth) + 1)}
    if t.kind == "comb":
        out = {()}
        for n in range(branch):
            for k in range(min(n, depth - 1) + 1):
                if n < branch:
                    out.add((n,) + (0,) * k)
        return out if depth >= 1 else {()}
    if t.kind == "t1":
        return set(_descending_box(depth, branch))
    if t.kind == "t2":
        return set(_descending_box(depth, branch, branch))
    if t.kind == "dsum":
        parts = t.parts * branch if t.uniform else t.parts
        out = {()}
        for i, part in enumerate(parts[:branch] if t.uniform else parts):
            for s in _trunc(part, depth, branch):
                if s:
                    out.add(_tag_first(s, "d", i))
        return out
    if t.kind == "graft":
        S, T = t.parts
        base = _trunc(S, depth, branch)
        out = set(base)
        for s in base:
            room = depth - len(s)
            if room < 1:
                continue
            for u in _trunc(T, room, branch):
                if not u:
                    continue
                for c in range(branch):
                    out.add(s + _tag_first(u, "g", c))
        return out
    raise ValueError(t.kind)


# --------------------------------------------------------------------------
# Rank and well-foundedness

def rank_finite(ft: FiniteTree) -> int:
    """DFS rank: leaves 0, internal nodes 1 + max child rank; empty tree 0."""
    if not ft.nodes:
        return 0
    by_len: dict[int, list[Node]] = {}
    for s in ft.nodes:
        by_len.setdefault(len(s), []).append(s)
    rho: dict[Node, int] = {}
    for d in sorted(by_len, reverse=True):
        for s in by_len[d]:
            kids = [rho[c] for c in ft.children(s)]
            rho[s] = 1 + max(kids) if kids else 0
    return rho[()]


def rank(t: SymbolicTree | FiniteTree) -> Ordinal:
    if isinstance(t, FiniteTree):
        return Ordinal.nat(rank_finite(t))
    if t.kind == "finite":
        return Ordinal.nat(rank_finite(t.finite))
    if t.kind in ("t1", "t2", "comb"):
        return Ordinal.omega()
    if t.kind == "full":
        return Ordinal.infinity()
    if t.kind == "chain":
        return Ordinal.nat(t.n)
    if t.kind == "dsum":
        return sup_ordinal(rank(p) for p in t.parts)
    if t.kind == "graft":
        # end-nodes of the base acquire the grafted rank below them,
        # so ranks add with the grafted tree on the left
        S, T = t.parts
        return rank(T) + rank(S)
    raise ValueError(t.kind)


def well_founded(t: SymbolicTree | FiniteTree) -> bool:
    if isinstance(t, FiniteTree):
        return True
    if t.kind == "full":
        return False
    if t.kind in ("finite", "t1", "t2", "chain", "comb"):
        return True
    return all(well_founded(p) for p in t.parts)


# --------------------------------------------------------------------------
# Metrics and ℓ

def _alphabet_cut(nodes, k: int):
    """Restriction to k^{≤k}: length ≤ k, integer components < k."""
    return frozenset(s for s in nodes
                     if len(s) <= k
                     and all(v < k for l in s for v in _letter_ints(l)))


def tree_space_dist(a: FiniteTree, b: FiniteTree) -> Fraction:
    """1/(δ+1) with δ = min{k : a∩k^{≤k} ≠ b∩k^{≤k}}; 0 for equal trees."""
    if a.nodes == b.nodes:
        return ZERO
    k = 0
    while _alphabet_cut(a.nodes, k) == _alphabet_cut(b.nodes, k):
        k += 1
    return Fraction(1, k + 1)


@dataclass(frozen=True)
class PairTree:
    """Finite subtree of ω^<ω × ω^<ω in the coordinatewise prefix order."""
    pairs: frozenset  # of (Node, Node)

    def __post_init__(self):
        # closed under simultaneous restriction: shorten whichever
        # coordinate(s) have maximal length by one step
        for s, t in self.pairs:
            m = max(len(s), len(t))
            if m == 0:
                continue
            parent = (s[:m - 1] if len(s) == m else s,
                      t[:m - 1] if len(t) == m else t)
            if parent not in self.pairs:
                raise ValueError(
                    f"pair tree not closed under restriction at "
                    f"({node_name(s)}, {node_name(t)})")

    @staticmethod
    def of(pairs) -> "PairTree":
        return PairTree(frozenset((tuple(s), tuple(t)) for s, t in pairs))

    def sorted_pairs(self):
        return sorted(self.pairs, key=lambda p: (node_key(p[0]), node_key(p[1])))

    def __contains__(self, p):
        s, t = p
        return (tuple(s), tuple(t)) in self.pairs

    def __len__(self):
        return len(self.pairs)


def _pair_cut(pairs, k: int):
    """Restriction of a pair set to (k^{≤k})²."""
    return frozenset((s, t) for s, t in pairs
                     if len(s) <= k and len(t) <= k
                     and all(v < k for l in s + t for v in _letter_ints(l)))


def pair_tree_dist(R: PairTree, S: PairTree) -> Fraction:
    """1/k for the largest k with agreement on (k^{≤k})²; ≤ 1 by convention."""
    if R.pairs == S.pairs:
        return ZERO
    k = 0
    while _pair_cut(R.pairs, k + 1) == _pair_cut(S.pairs, k + 1):
        k += 1
    return Fraction(1, max(k, 1))


def ell(t: Node) -> int:
    """ℓ(t) = max({|t|} ∪ range(t)) for plain integer nodes."""
    if any(not isinstance(l, int) for l in t):
        raise TypeError("ell is defined for integer-entry nodes")
    return max((len(t),) + t) if t else 0


def project(R: PairTree, x) -> FiniteTree:
    """R_x = { s : (s, x↾|s|) ∈ R }."""
    x = tuple(x)
    need = max((len(s) for s, _ in R.pairs), default=0)
    if len(x) < need:
        raise ValueError(f"projection point too short: need length {need}")
    nodes = {s for s, t in R.pairs if t == x[:len(s)]}
    return FiniteTree(frozenset(nodes))
