"""Certificate-first validation against the exhaustive reference.

check_structure answers "valid" from an ultrametric certificate and
ball-by-ball modulus checks where it can; the exhaustive checks
(`_check(M, certify=False)`) are the reference, and `_loop_report` below
spells them out as plain loops.  Random structures mix ultrametrics,
ultrametrics with one entry changed and cycle metrics, with unary to
ternary symbols whose moduli are tight (every change exactly at omega) or
one unit too strict at one distance."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlw.moduli import Modulus
from mlw.structures import (FiniteStructure, FnTable, PredTable, SortData,
                            _check, _ultrametric_order, check_structure)


@st.composite
def ultrametrics(draw, n: int, den: int) -> np.ndarray:
    """Any ultrametric on n points with values in 0..den: point k joins an
    earlier point p at height h and d(k, w) = max(d(p, w), h)."""
    D = np.zeros((n, n), dtype=np.int64)
    for k in range(1, n):
        p = draw(st.integers(0, k - 1))
        D[k, :k] = np.maximum(D[p, :k], draw(st.integers(0, den)))
        D[:k, k] = D[k, :k]
    perm = draw(st.permutations(range(n)))
    return D[np.ix_(perm, perm)]


@st.composite
def distances(draw, n: int) -> tuple[int, np.ndarray]:
    """(den, table): an ultrametric, one with an entry changed (on both
    sides, on one side only, or to a negative value), or a cycle metric."""
    kind = draw(st.sampled_from(["ultra", "changed", "one-sided", "negative",
                                 "cycle"]))
    if kind == "cycle":
        i = np.arange(n)
        gap = np.abs(i[:, None] - i[None, :])
        return max(n // 2, 1), np.minimum(gap, n - gap)
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 2**29, 2**31]))
    D = draw(ultrametrics(n, den))
    if kind != "ultra" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        D[i, j] = draw(st.integers(-den if kind == "negative" else 0, den))
        if kind != "one-sided":
            D[j, i] = D[i, j]
    return den, D


def _is_ultrametric(D: np.ndarray) -> bool:
    n = len(D)
    return all(D[i, j] <= max(D[i, k], D[k, j])
               for i in range(n) for j in range(n) for k in range(n))


@settings(max_examples=300)
@given(st.integers(1, 8).flatmap(
    lambda n: st.one_of(distances(n), st.tuples(
        st.just(3), st.lists(st.integers(0, 3), min_size=n * n,
                             max_size=n * n).map(
            lambda v: np.array(v, dtype=np.int64).reshape(n, n))))))
def test_ultrametric_certificate_matches_definition(case):
    _, D = case
    D = np.maximum(D, D.T)  # the certificate's domain: symmetric ...
    np.fill_diagonal(D, 0)  # ... with a zero diagonal
    cert = _ultrametric_order(D)
    assert (cert is not None) == _is_ultrametric(D)
    if cert is None:
        return
    order, join = cert
    P = D[np.ix_(order, order)]
    n = len(D)
    for u in np.unique(D):
        # the u-balls are the runs between joins above u
        for a in range(n):
            for b in range(a + 1, n):
                assert (P[a, b] <= u) == (join[a + 1:b + 1] <= u).all()


def _changes(sorts: dict, arg_sorts, table, out):
    """{input distance r: largest table change at a pair at distance r},
    over every argument position, with the pairs (i < j) and the change
    d_out(f(j), f(i)) or |P(j) - P(i)| that the exhaustive check uses."""
    worst: dict = {}
    for pos, s in enumerate(arg_sorts):
        sd = sorts[s]
        V = np.moveaxis(table, pos, 0).reshape(sd.size, -1)
        for i in range(sd.size):
            for j in range(i + 1, sd.size):
                if out is None:
                    c = int(np.abs(V[j] - V[i]).max())
                else:
                    c = int(out.dmat[V[j], V[i]].max())
                r = Fraction(int(sd.dmat[i, j]), sd.den)
                worst[r] = max(worst.get(r, 0), c)
    return worst


@st.composite
def moduli(draw, worst: dict, dden: int):
    """A modulus for a symbol whose changes (scaled by dden) are `worst`:
    tight (equal to the largest change at every distance), one unit too
    strict at one distance, a Lipschitz modulus, or none."""
    kind = draw(st.sampled_from(["tight", "tight", "strict", "lipschitz",
                                 "none"]))
    if kind == "none":
        return None
    if kind == "lipschitz":
        return Modulus.lipschitz(draw(st.sampled_from(
            [0, Fraction(1, 2), 1, 2, 3])))
    pts, w = [], 0
    for r in sorted(worst):
        w = max(w, worst[r])
        if r > 0:
            pts.append([r, w])
    if kind == "strict":
        cut = [k for k, (_, w) in enumerate(pts) if w > 0]
        if cut:
            k = draw(st.sampled_from(cut))
            for p in pts[:k + 1]:
                p[1] = min(p[1], pts[k][1] - 1)
    pts = [(Fraction(0), Fraction(0))] + [(r, Fraction(w, dden))
                                          for r, w in pts]
    if pts[-1][0] < 1:
        pts.append((Fraction(1), pts[-1][1]))
    return Modulus(tuple(pts))


@st.composite
def structures(draw) -> FiniteStructure:
    sorts = {}
    for s in ("A", "B")[:draw(st.integers(1, 2))]:
        n = draw(st.integers(1, 6))
        den, D = draw(distances(n))
        names = tuple(f"{s}{i}" for i in range(n))
        sorts[s] = SortData(names, den, D, {a: i for i, a in enumerate(names)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fns, preds, mods = {}, {}, {}
    for kind in ("f", "P"):
        for k in range(draw(st.integers(0, 2))):
            name = f"{kind}{k}"
            args = tuple(draw(st.lists(st.sampled_from(sorted(sorts)),
                                       min_size=1, max_size=3)))
            shape = tuple(sorts[a].size for a in args)
            if kind == "f":
                out_sort = draw(st.sampled_from(sorted(sorts)))
                out = sorts[out_sort]
                top = draw(st.integers(1, out.size))  # 1: a constant map
                table = rng.integers(0, top, size=shape)
                fns[name] = FnTable(args, out_sort, table)
                dden, worst = out.den, _changes(sorts, args, table, out)
            else:
                dden = draw(st.sampled_from([1, 3, 8, 24]))
                table = rng.integers(0, dden + 1, size=shape)
                preds[name] = PredTable(args, dden, table)
                worst = _changes(sorts, args, table, None)
            mod = draw(moduli(worst, dden))
            if mod is not None:
                mods[name] = mod
    return FiniteStructure(sorts, fns, preds, mods)


def _valid(M: FiniteStructure) -> bool:
    """Validity straight from the definitions, in Fractions."""
    def d(sd, i, j):
        return Fraction(int(sd.dmat[i, j]), sd.den)
    for sd in M.sorts.values():
        n = sd.size
        for i in range(n):
            for j in range(n):
                if d(sd, i, j) != d(sd, j, i) or not 0 <= d(sd, i, j) <= 1 \
                        or (d(sd, i, j) == 0) != (i == j):
                    return False
                if any(d(sd, i, j) > d(sd, i, k) + d(sd, k, j)
                       for k in range(n)):
                    return False
    symbols = [(n, f.arg_sorts, f.table, M.sorts[f.out_sort], None)
               for n, f in M.functions.items()]
    symbols += [(n, p.arg_sorts, p.table, None, p.den)
                for n, p in M.predicates.items()]
    for name, arg_sorts, table, out, pden in symbols:
        mod = M.moduli.get(name)
        if mod is None:
            return False
        for pos, s in enumerate(arg_sorts):
            sd = M.sorts[s]
            for idx in np.ndindex(table.shape):
                for j in range(sd.size):
                    jdx = idx[:pos] + (j,) + idx[pos + 1:]
                    a, b = int(table[idx]), int(table[jdx])
                    change = (d(out, a, b) if out is not None
                              else Fraction(abs(a - b), pden))
                    if change > mod.omega(d(sd, idx[pos], j)):
                        return False
    return True


def _loop_report(M: FiniteStructure) -> list[str]:
    """The exhaustive check as plain loops in exact integers: the report
    lines, in order, that check_structure must produce."""
    out = []

    def pair(sd, i, j):
        return f"({sd.points[i]}, {sd.points[j]})"
    for s, sd in M.sorts.items():
        D, n, cells = sd.dmat, sd.size, list(np.ndindex(sd.dmat.shape))
        diag = [i for i in range(n) if D[i, i] != 0]
        if diag:
            out.append(f"metric: nonzero diagonal at {sd.points[diag[0]]} "
                       f"in sort {s}")
        asym = [(i, j) for i, j in cells if D[i, j] != D[j, i]]
        if asym:
            out.append(f"metric: asymmetry at {pair(sd, *asym[0])} in sort {s}")
        if any(not 0 <= D[c] <= sd.den for c in cells):
            out.append(f"metric: entry outside [0,1] in sort {s}")
        same = [(i, j) for i, j in cells
                if D[i, j] + (sd.den + 1 if i == j else 0) == 0]
        if same:
            out.append(f"metric: identity of indiscernibles fails at "
                       f"{pair(sd, *same[0])} in sort {s}")
        for k in range(n):
            tri = [(i, j) for i, j in cells if D[i, j] > D[i, k] + D[k, j]]
            if tri:
                out.append(f"metric: triangle inequality fails for "
                           f"{pair(sd, *tri[0])} via {sd.points[k]} in sort {s}")
                break
    symbols = [("function", n, f.arg_sorts, f.table, M.sorts[f.out_sort])
               for n, f in M.functions.items() if f.arg_sorts]
    symbols += [("predicate", n, p.arg_sorts, p.table, p.den)
                for n, p in M.predicates.items()]
    for kind, name, arg_sorts, table, outdat in symbols:
        mod = M.moduli.get(name)
        if mod is None:
            out.append(f"{kind} {name} has no declared modulus")
            continue
        dden = outdat.den if kind == "function" else outdat
        for pos, s in enumerate(arg_sorts):
            sd = M.sorts[s]
            V = np.moveaxis(table, pos, 0).reshape(sd.size, -1)
            for i in range(sd.size):
                bad = []  # (input distance, j, change, allowed)
                for j in range(i + 1, sd.size):
                    if kind == "function":
                        change = max(int(outdat.dmat[b, a])
                                     for a, b in zip(V[i], V[j]))
                    else:
                        change = max(abs(int(b) - int(a))
                                     for a, b in zip(V[i], V[j]))
                    u = int(sd.dmat[i, j])
                    w = mod.omega(Fraction(max(u, 0), sd.den))
                    if change * w.denominator > w.numerator * dden:
                        bad.append((u, j, change, w))
                if bad:
                    u, j, change, w = min(bad)
                    out.append(
                        f"modulus violation: {name} argument {pos} at pair "
                        f"{pair(sd, i, j)}: input distance "
                        f"{Fraction(u, sd.den)} allows change {w}, table "
                        f"changes by {Fraction(change, dden)}")
                    break
    return out


def _path_image() -> FiniteStructure:
    """f from a discrete sort onto the ends and middle of a path: every
    output is within 1/2 of the image of A0, but the ends are 1 apart, so
    a diameter taken from one representative is wrong off ultrametrics."""
    A = SortData(("A0", "A1", "A2"), 1, 1 - np.eye(3, dtype=np.int64),
                 {"A0": 0, "A1": 1, "A2": 2})
    B = SortData(("B0", "B1", "B2"), 2,
                 np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                 {"B0": 0, "B1": 1, "B2": 2})
    return FiniteStructure({"A": A, "B": B},
                           {"f": FnTable(("A",), "B", np.array([1, 0, 2]))},
                           moduli={"f": Modulus.lipschitz(Fraction(1, 2))})


def _one_way_zero() -> FiniteStructure:
    """d(c, b) = 0 but d(b, c) = 1, and P tells b from c: the exhaustive
    scan checks the pair (b, c) at d(b, c) only, so P passes."""
    D = 1 - np.eye(4, dtype=np.int64)
    D[2, 1] = 0
    A = SortData(("a", "b", "c", "d"), 1, D, {"a": 0, "b": 1, "c": 2, "d": 3})
    return FiniteStructure({"A": A}, {},
                           {"P": PredTable(("A",), 1, np.array([0, 0, 1, 0]))},
                           {"P": Modulus.lipschitz(1)})


@settings(max_examples=400)
@given(structures())
@example(_path_image())
@example(_one_way_zero())
def test_check_structure_matches_exhaustive_reference(M):
    report = check_structure(M)
    assert report == _check(M, certify=False) == _loop_report(M)
    assert (report == []) == _valid(M)
