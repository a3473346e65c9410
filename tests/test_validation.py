"""Certificate-first validation against the exhaustive reference.

check_structure answers "valid" from an ultrametric certificate and
ball-by-ball modulus checks where it can; the exhaustive checks
(`_check(M, certify=False)`) are the reference, and `_loop_report` below
spells them out as plain loops.  Random structures mix ultrametrics,
ultrametrics with one entry changed and cycle metrics, with unary to
ternary symbols whose moduli are tight (every change exactly at omega) or
one unit too strict at one distance.  The fast parts also meet their own
references: the integer thresholds `_max_numerator` over omega in
Fractions, the blocked certificate the one-pass Prim check it replaced,
the ball extremes plain max and min over each run, and the blocked,
narrow triangle scan a per-k loop in Python ints."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlw import analysis, cli
from mlw import structures as structures_mod
from mlw.models import build_model
from mlw.moduli import Modulus
from mlw.structures import (FiniteStructure, FnTable, PredTable, SortData,
                            _allowed, _ball_merges, _check, _max_numerator,
                            _run_extremes, _thresholds, _ultrametric_order,
                            check_structure, save_structure)


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
        D, n = sd.dmat.tolist(), sd.size  # Python ints: sums cannot wrap
        cells = [(i, j) for i in range(n) for j in range(n)]
        diag = [i for i in range(n) if D[i][i] != 0]
        if diag:
            out.append(f"metric: nonzero diagonal at {sd.points[diag[0]]} "
                       f"in sort {s}")
        asym = [(i, j) for i, j in cells if D[i][j] != D[j][i]]
        if asym:
            out.append(f"metric: asymmetry at {pair(sd, *asym[0])} in sort {s}")
        if any(not 0 <= D[i][j] <= sd.den for i, j in cells):
            out.append(f"metric: entry outside [0,1] in sort {s}")
        same = [(i, j) for i, j in cells if i != j and D[i][j] == 0]
        if same:
            out.append(f"metric: identity of indiscernibles fails at "
                       f"{pair(sd, *same[0])} in sort {s}")
        for k in range(n):
            tri = [(i, j) for i, j in cells if D[i][j] > D[i][k] + D[k][j]]
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


# --------------------------------------------------------------------------
# The integer thresholds against omega in Fractions

fracs = st.fractions(min_value=0, max_value=1, max_denominator=2**20)


@st.composite
def base_moduli(draw) -> Modulus:
    """A breakpoint list (flat pieces included) or a Lipschitz modulus,
    with L above 1 (a clamped piece) as well as below."""
    if draw(st.booleans()):
        return Modulus.lipschitz(draw(st.fractions(
            min_value=0, max_value=40, max_denominator=2**20)))
    rs = sorted(set(draw(st.lists(fracs.filter(lambda r: 0 < r < 1),
                                  max_size=5))))
    ws = sorted(draw(st.lists(fracs, min_size=len(rs) + 1,
                              max_size=len(rs) + 1)))
    if draw(st.booleans()):  # flat pieces
        ws = [ws[k // 2 * 2] for k in range(len(ws))]
    return Modulus(((Fraction(0), Fraction(0)),)
                   + tuple(zip(rs + [Fraction(1)], ws)))


@st.composite
def all_moduli(draw) -> Modulus:
    """Base moduli and their combinators: plus and scale clamp at 1,
    compose chains two, maxwith takes the larger."""
    m = draw(base_moduli())
    kind = draw(st.sampled_from(["base", "plus", "scale", "compose",
                                 "maxwith"]))
    if kind == "plus":
        return m.plus(draw(base_moduli()))
    if kind == "scale":
        return m.scale(draw(st.fractions(min_value=0, max_value=9,
                                         max_denominator=2**10)))
    if kind == "compose":
        return m.compose(draw(base_moduli()))
    if kind == "maxwith":
        return m.maxwith(draw(base_moduli()))
    return m


@st.composite
def threshold_cases(draw):
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**40)))
    dden = draw(st.one_of(st.integers(1, 30), st.integers(1, 2**40)))
    us = [0, den, -1, -den, den + 1, 2**62]
    us += draw(st.lists(st.integers(-2**40, 2 * den), max_size=8))
    us += draw(st.lists(st.integers(0, den), max_size=8))
    return draw(all_moduli()), den, dden, us


def _reference_thresholds(mod, us, den, dden) -> list[int]:
    return [_max_numerator(_allowed(mod, u, den), dden) for u in us]


@settings(max_examples=250)
@given(threshold_cases())
@example((Modulus.lipschitz(1), 2**40 - 1, 2**40, [0, 1, 2**39, 2**40 - 1]))
@example((Modulus.lipschitz(Fraction(3, 2)), 3, 2**62, [0, 1, 2, 3, 7]))
@example((Modulus.lipschitz(Fraction(1, 3)), 3, 2**63 + 3, [0, 1, 2, 3, 7]))
def test_integer_thresholds_match_fractions(case):
    mod, den, dden, us = case
    got = _thresholds(mod, np.array(us, dtype=np.int64), den, dden)
    want = _reference_thresholds(mod, us, den, dden)
    assert got.tolist() == want
    if dden < 2**63:  # the thresholds lie in [0, dden]
        assert got.dtype == np.int64


@settings(max_examples=150)
@given(threshold_cases(), st.integers(0, 40))
def test_integer_thresholds_past_int64(case, bits):
    """With the int64 bound lowered to 2^bits, most cases take the Python-
    int path, and thresholds past the bound stay Python ints."""
    mod, den, dden, us = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures_mod, "_INT64_MAX", 2**bits - 1)
        got = _thresholds(mod, np.array(us, dtype=np.int64), den, dden)
        want = _reference_thresholds(mod, us, den, dden)
    assert got.tolist() == want


def test_thresholds_of_no_levels():
    assert _thresholds(Modulus.lipschitz(2), np.zeros(0, np.int64), 3,
                       5).tolist() == []


# --------------------------------------------------------------------------
# The certificate against the Prim pass it replaced

def _prim_reference(D: np.ndarray):
    """The certificate as one Prim pass and one whole-table check at the
    end: (order, join) for an ultrametric, else None."""
    n = len(D)
    order = np.zeros(n, dtype=np.intp)
    join = np.zeros(n, dtype=np.int64)
    parent = np.zeros(n, dtype=np.intp)
    rest = np.arange(1, n)
    best = D[0, 1:].copy()
    near = np.zeros(n - 1, dtype=np.intp)
    for k in range(1, n):
        m = int(best.argmin())
        v = order[k] = rest[m]
        join[k], parent[k] = best[m], near[m]
        rest[m], best[m], near[m] = rest[-1], best[-1], near[-1]
        rest, best, near = rest[:-1], best[:-1], near[:-1]
        row = D[v, rest]
        closer = row < best
        best[closer] = row[closer]
        near[closer] = v
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    attach = np.empty(n, dtype=np.intp)
    attach[order] = parent
    want = D[attach]
    np.maximum(want, D[np.arange(n), attach][:, None], out=want)
    bad = want != D
    bad &= pos[None, :] < pos[:, None]
    return None if bad.any() else (order, join)


def _same_cert(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return all(np.array_equal(x, y) and x.dtype == y.dtype
               for x, y in zip(a, b))


@settings(max_examples=200)
@given(st.integers(1, 40).flatmap(
    lambda n: st.one_of(ultrametrics(n, 7).map(lambda D: (1, D)),
                        distances(n))))
def test_certificate_equals_the_reference(case):
    """Equal (order, join), or both None, on ultrametrics and on changed,
    one-sided, negative and cycle inputs; None on every symmetric input
    that is not an ultrametric.  A one-sided input lies outside the
    certificate's domain (callers test symmetry first), and there neither
    pass is bound to say None."""
    _, D = case
    cert = _ultrametric_order(D)
    assert _same_cert(cert, _prim_reference(D))
    # D[i, j] <= max(D[i, k], D[k, j]) on axes (i, k, j)
    ultra = (D[:, None, :] <= np.maximum(D[:, :, None], D[None])).all()
    if (D == D.T).all() and not ultra:
        assert cert is None


LADDER = ("N(depth=4,branch=4)", "N(depth=5,branch=4)",
          "N2(depth=5,branch=4)", "N3(depth=5,branch=3)",
          "M4(depth=5,branch=5)", "Projection(depth=5,branch=2)",
          "M(depth=5,branch=4)")


@pytest.mark.parametrize("spec", LADDER)
def test_certificate_on_the_ladder_sorts(spec):
    for s, sd in build_model(spec).sorts.items():
        cert = _ultrametric_order(sd.dmat)
        assert cert is not None, s
        assert _same_cert(cert, _prim_reference(sd.dmat)), s


def _count_rows(mp) -> list:
    """Record the (k0, k1) block of every row check."""
    blocks = []
    check = structures_mod._rows_break

    def counted(D, order, parent, k0, k1):
        blocks.append((k0, k1))
        return check(D, order, parent, k0, k1)
    mp.setattr(structures_mod, "_rows_break", counted)
    return blocks


def test_cycle_is_rejected_after_a_few_steps(monkeypatch):
    n = 300
    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    blocks = _count_rows(monkeypatch)
    assert _ultrametric_order(np.minimum(gap, n - gap)) is None
    # the first block breaks: the pass stopped after its 7 rows
    assert blocks == [(1, structures_mod._CERT_ROWS)]


def test_certificate_blocks_tile_the_rows(monkeypatch):
    D = build_model("N(depth=5,branch=4)").sorts["D1"].dmat
    blocks = _count_rows(monkeypatch)
    assert _ultrametric_order(D) is not None
    assert blocks[0] == (1, structures_mod._CERT_ROWS)
    assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == len(D)
    assert max((k1 - k0) * len(D) for k0, k1 in blocks) \
        <= structures_mod._CERT_CELLS


# --------------------------------------------------------------------------
# Ball extremes without reduceat on wide tables

@settings(max_examples=200)
@given(st.integers(1, 30), st.sampled_from([1, 3, 31, 32, 33, 70]),
       st.data())
def test_run_extremes_match_loops(n, width, data):
    """Both the narrow (reduceat) and the wide (gather per run length)
    paths, against max and min over each run."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hi = rng.integers(-50, 50, size=(n, width))
    lo = hi if data.draw(st.booleans()) else hi - rng.integers(0, 9, (n, 1))
    rows = rng.permutation(n)
    cuts = data.draw(st.lists(st.integers(1, n - 1), unique=True)) \
        if n > 1 else []
    idx = np.array([0] + sorted(cuts))
    h, l = _run_extremes(hi, lo, rows, idx)
    ends = list(idx[1:]) + [n]
    for b, (a, e) in enumerate(zip(idx, ends)):
        assert (h[b] == hi[rows[a:e]].max(axis=0)).all()
        assert (l[b] == lo[rows[a:e]].min(axis=0)).all()


@st.composite
def wide_structures(draw) -> FiniteStructure:
    """One ultrametric sort of up to 40 points and a binary predicate on
    it, so each argument's table is as wide as the sort: both ball
    reduction paths run, against tight and one-too-strict moduli."""
    n = draw(st.integers(2, 40))
    den = draw(st.sampled_from([1, 4, 12]))
    D = draw(ultrametrics(n, den))
    names = tuple(f"a{i}" for i in range(n))
    A = SortData(names, den, D, {a: i for i, a in enumerate(names)})
    dden = draw(st.sampled_from([1, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, dden + 1, size=(n, n))
    if draw(st.booleans()):  # smoother: values follow the distance
        table = np.minimum(D * dden // max(den, 1), dden)
    mod = draw(moduli(_changes({"A": A}, ("A", "A"), table, None), dden))
    return FiniteStructure({"A": A}, {},
                           {"P": PredTable(("A", "A"), dden, table)},
                           {"P": mod} if mod else {})


@settings(max_examples=60)
@given(wide_structures())
def test_wide_ball_checks_match_exhaustive_reference(M):
    report = check_structure(M)
    assert report == _check(M, certify=False) == _loop_report(M)


def test_nonzero_diagonal_is_reported_once():
    """d(i, i) = -(den + 1) is a nonzero diagonal entry, and nothing else:
    identity of indiscernibles concerns pairs i != j."""
    D = 1 - np.eye(3, dtype=np.int64)
    D[1, 1] = -2
    A = SortData(("a", "b", "c"), 1, D, {"a": 0, "b": 1, "c": 2})
    M = FiniteStructure({"A": A})
    assert check_structure(M) == _check(M, certify=False) == _loop_report(M) \
        == ["metric: nonzero diagonal at b in sort A",
            "metric: entry outside [0,1] in sort A",
            "metric: triangle inequality fails for (a, b) via b in sort A"]


def test_ball_merges_levels():
    levels, merges = _ball_merges(np.array([0, 1, 1, 2, 1]))
    assert levels.tolist() == [1, 2]
    assert [m.tolist() for m in merges] == [[0, 3], [0]]


# --------------------------------------------------------------------------
# Narrow dtypes, the blocked triangle scan and the level lookup

@pytest.mark.parametrize("lo, hi, want", [
    (0, 255, np.uint8), (0, 256, np.int16), (-1, 0, np.int16),
    (-2**15, 2**15 - 1, np.int16), (0, 2**15, np.int32),
    (-2**15 - 1, 0, np.int32), (0, 2**31, np.int64),
    (-2**63, 2**63 - 1, np.int64), (0, 2**63, object),
    (-2**63 - 1, 0, object)])
def test_narrow_picks_the_smallest_dtype(lo, hi, want):
    assert structures_mod._narrow(lo, hi) is want


def _triangle_reference(D: np.ndarray):
    """The first (k, i, j) with D[i, j] > D[i, k] + D[k, j]: one k at a
    time, in Python ints."""
    D = D.astype(object)
    for k in range(len(D)):
        hit = np.argwhere(D > D[:, k:k + 1] + D[k:k + 1, :])
        if len(hit):
            return (k, int(hit[0][0]), int(hit[0][1]))
    return None


# The largest entry: twice it sits on each side of 255, 2^15, 2^31 and
# 2^63 (the int64 limit, past which the scan sums Python ints).
TOPS = [3, 4, 127, 128, 2**14 - 1, 2**14, 2**30 - 1, 2**30, 2**62 - 1,
        2**62]


@st.composite
def triangle_cases(draw):
    """(block, D): the k-block size the scan is run with and a table.  A
    planted table is a metric except for one pair (a, a + 2) that is too
    far apart via a + 1 only, with a + 1 at or next to a block edge; the
    others are random, negative entries included."""
    n = draw(st.integers(1, 24))
    block = draw(st.integers(1, 4))
    top = draw(st.sampled_from(TOPS))
    if draw(st.booleans()) and n >= 3:
        i = np.arange(n)
        D = np.abs(i[:, None] - i[None, :]) + (top - 3) // 2
        np.fill_diagonal(D, 0)
        edges = {e + d for e in (block, 2 * block) for d in (-1, 0, 1)}
        k = draw(st.sampled_from(sorted(edges & set(range(1, n - 1)))
                                 or [1]))
        D[k - 1, k + 1] = D[k + 1, k - 1] = top
        return block, D
    lo = draw(st.sampled_from([0, -1, -top]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.integers(lo, top, size=(n, n), endpoint=True)
    if draw(st.booleans()):
        D = np.minimum(D, D.T)
        np.fill_diagonal(D, 0)
    return block, D


@settings(max_examples=300)
@given(triangle_cases())
def test_blocked_triangle_scan_matches_per_k_loop(case):
    block, D = case
    n = len(D)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures_mod, "_CERT_CELLS", block * n * n)
        lo, hi = min(int(D.min()), 0), max(int(D.max()), 0)
        narrow = D.astype(structures_mod._narrow(2 * lo, 2 * hi))
        assert structures_mod._triangle_hit(narrow) == _triangle_reference(D)
        names = tuple(f"a{i}" for i in range(n))
        A = SortData(names, max(hi, 1), D, {a: i for i, a in enumerate(names)})
        M = FiniteStructure({"A": A})
        assert check_structure(M) == _check(M, certify=False) \
            == _loop_report(M)


def test_planted_triangle_failure_on_a_block_edge(monkeypatch):
    """Blocks of 5 k at n = 20: the only failure is via the first k of the
    third block, in an int16 table (2 * max = 2^15 - 2)."""
    n, top = 20, 2**14 - 1
    i = np.arange(n)
    D = np.abs(i[:, None] - i[None, :]) + (top - 3) // 2
    np.fill_diagonal(D, 0)
    D[9, 11] = D[11, 9] = top
    monkeypatch.setattr(structures_mod, "_CERT_CELLS", 5 * n * n)
    assert structures_mod._narrow(0, 2 * top) is np.int16
    assert structures_mod._triangle_hit(D.astype(np.int16)) == (10, 9, 11)
    names = tuple(f"a{i}" for i in range(n))
    A = SortData(names, top, D, {a: i for i, a in enumerate(names)})
    assert check_structure(FiniteStructure({"A": A})) == [
        "metric: triangle inequality fails for (a9, a11) via a10 in sort A"]


# Predicate values on each side of the uint8 and int16 edges.
PRED_VALUES = [0, 1, 255, 256, 2**15 - 1, 2**15, 2**15 + 1, 2**31]


@st.composite
def edge_predicates(draw) -> FiniteStructure:
    """An ultrametric sort of up to 40 points and a unary or binary
    predicate whose values come from PRED_VALUES, negated or shifted below
    zero at times, against tight and one-too-strict moduli."""
    n = draw(st.integers(2, 40))
    den = draw(st.sampled_from([1, 4, 12]))
    D = draw(ultrametrics(n, den))
    names = tuple(f"a{i}" for i in range(n))
    A = SortData(names, den, D, {a: i for i, a in enumerate(names)})
    vals = np.array(draw(st.lists(st.sampled_from(PRED_VALUES), min_size=1,
                                  max_size=3, unique=True)), dtype=np.int64)
    vals = draw(st.sampled_from([vals, -vals, vals - vals.max() // 2]))
    args = ("A",) * draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.choice(vals, size=(n,) * len(args))
    if draw(st.booleans()):  # constant on the balls of one level
        cut = draw(st.integers(0, den))
        table = np.where(D[0] <= cut, vals.max(), vals.min())
        table = np.broadcast_to(table, (n,) * len(args)).copy()
    dden = max(int(vals.max()) - int(vals.min()), 1) \
        * draw(st.sampled_from([1, 2]))
    mod = draw(moduli(_changes({"A": A}, args, table, None), dden))
    return FiniteStructure({"A": A}, {},
                           {"P": PredTable(args, dden, table)},
                           {"P": mod} if mod else {})


@settings(max_examples=150)
@given(edge_predicates())
def test_narrow_ball_checks_match_exhaustive_reference(M):
    report = check_structure(M)
    assert report == _check(M, certify=False) == _loop_report(M)


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(1, 12), all_moduli(),
       st.integers(1, 2**40), st.data())
def test_level_lookup_matches_fractions(n, den, mod, dden, data):
    """Thresholds per pair from _levels, by lookup (den + 1 <= n^2) or by
    np.unique (larger dens), against omega in Fractions, with negative
    distances and distances past den.  A second call takes its lines
    from the memo that the first call filled."""
    D = np.array(data.draw(st.lists(st.integers(-den - 3, den + 3),
                                    min_size=n * n, max_size=n * n)),
                 dtype=np.int64).reshape(n, n)
    A = SortData(tuple(range(n)), den, D, {})
    levels, index = structures_mod._levels(A)
    want = [[_max_numerator(_allowed(mod, int(u), den), dden) for u in row]
            for row in D]
    memo: dict = {}
    for _ in range(2):
        got = _thresholds(mod, levels, den, dden, memo)[index]
        assert got.tolist() == want
    assert list(memo) == [(mod, den, dden)]


def test_check_builds_threshold_lines_once_per_modulus(monkeypatch):
    """N(3,3)'s level maps f0 .. f3 share one modulus and one den, and so
    one set of lines, on the ball path and on the exhaustive one."""
    calls = []
    lines = structures_mod._lines
    monkeypatch.setattr(structures_mod, "_lines",
                        lambda *a: calls.append(a) or lines(*a))
    M = build_model("N(depth=3,branch=3)")
    for certify in (True, False):
        calls.clear()
        assert _check(M, certify) == []
        assert len(calls) == 1


def test_level_lookup_with_no_positive_level_and_a_steep_piece(tmp_path,
                                                              capsys):
    """One point (den 1) and a unary predicate at den 1337 whose modulus
    has a piece with a slope coefficient past int64: no level is
    positive, so no product of a slope with a level is formed, yet the
    coefficient itself must not be taken into int64.  Also through a
    `.model` file and `mlw model check`."""
    Q = Fraction
    mod = Modulus(((Q(0), Q(0)), (Q(1, 3541), Q(37, 3541)),
                   (Q(23, 81442), Q(892411959, 85397393614)),
                   (Q(186540455478276, 6902087763987029), Q(1)),
                   (Q(1, 37), Q(1)), (Q(1), Q(1))))
    memo: dict = {}  # the lines of the first call serve the others
    for levels in ([0], [-2, 0], [0, 1], [1, 2]):
        got = _thresholds(mod, np.array(levels), 1, 1337, memo)
        want = [_max_numerator(_allowed(mod, u, 1), 1337) for u in levels]
        assert got.tolist() == want
    M = FiniteStructure.build(
        {"A": ["a"]}, {"A": (1, np.zeros((1, 1), dtype=np.int64))},
        predicates={"P": (("A",), (1337, np.array([1])))},
        moduli={"P": mod})
    assert check_structure(M) == []
    path = tmp_path / "steep.model"
    save_structure(M, str(path))
    assert cli.main(["model", "check", "--ctor", str(path)]) == 0
    assert capsys.readouterr().out == \
        f"0 violations [check_structure({path})]\n"


@settings(max_examples=200)
@given(st.integers(2, 30), st.data())
def test_one_sided_changes_are_reported_and_never_certified(n, data):
    """One entry of a random ultrametric changed on one side only: the
    check reports the asymmetry, and find_iso's dendrogram, which tests
    symmetry before it runs the certificate, gives None."""
    D = data.draw(ultrametrics(n, 7))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                              unique=True))
    D[i, j] = data.draw(st.integers(0, 7).filter(lambda v: v != D[i, j]))
    names = tuple(f"a{k}" for k in range(n))
    A = SortData(names, 7, D, {a: k for k, a in enumerate(names)})
    M = FiniteStructure({"A": A})
    report = check_structure(M)
    a, b = min((i, j), (j, i))
    assert f"metric: asymmetry at (a{a}, a{b}) in sort A" in report
    assert report == _check(M, certify=False) == _loop_report(M)
    assert analysis._dendrogram(A) is None


def test_modulus_report_orders_negative_distances():
    """Two offending pairs in one row at distances -1 and -2, which the
    level lookup reads alike as 0: the report still names the smaller
    distance, as the loops do."""
    D = np.array([[0, -1, -2, 1], [-1, 0, 1, 1], [-2, 1, 0, 1], [1, 1, 1, 0]])
    A = SortData(("a", "b", "c", "d"), 1, D,
                 {"a": 0, "b": 1, "c": 2, "d": 3})
    M = FiniteStructure({"A": A}, {},
                        {"P": PredTable(("A",), 1, np.array([0, 1, 1, 0]))},
                        {"P": Modulus.lipschitz(0)})
    report = check_structure(M)
    assert report == _check(M, certify=False) == _loop_report(M)
    assert "modulus violation: P argument 0 at pair (a, c): input distance " \
        "-2 allows change 0, table changes by 1" in report


# --------------------------------------------------------------------------
# Denominators near and past int64

def _scaled_pair(k: int, corrupt: bool) -> FiniteStructure:
    """An ultrametric U (den 3) with a predicate P and an isometry f, and a
    6-cycle C (den 3) with a predicate Q, every den and table value times
    k.  Corrupted: P breaks its modulus at (a, b) and C the triangle
    inequality at (c0, c2) via c1."""
    U = np.array([[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]])
    i = np.arange(6)
    C = np.minimum(np.abs(i[:, None] - i), 6 - np.abs(i[:, None] - i))
    P, Q = np.array([0, 1, 3, 3]), np.array([0, 1, 2, 3, 2, 1])
    if corrupt:
        P[1], C[0, 2], C[2, 0] = 3, 3, 3
    two = Modulus.lipschitz(2)
    return FiniteStructure.build(
        {"U": list("abcd"), "C": [f"c{j}" for j in range(6)]},
        {"U": (3 * k, U * k), "C": (3 * k, C * k)},
        {"f": (("U",), "U", np.array([1, 0, 3, 2]))},
        {"P": (("U",), (3 * k, P * k)), "Q": (("C",), (3 * k, Q * k))},
        {"f": Modulus.lipschitz(1), "P": two, "Q": two})


@pytest.mark.parametrize("corrupt", [False, True])
def test_dens_near_int64_validate_as_small_ones(corrupt):
    """Scaled by 2^61, the dens are 3 * 2^61: the triangle scan's sums and
    the thresholds' products (2 * den) pass int64 and are taken in
    Python ints, and the report is the unscaled one."""
    want = check_structure(_scaled_pair(1, corrupt))
    assert bool(want) == corrupt
    M = _scaled_pair(2**61, corrupt)
    assert check_structure(M) == _check(M, certify=False) == want


def test_predicate_den_past_int64_is_checked_exactly():
    """A PredTable built directly with den 2^63 and values outside
    [0, den]: the change of 2^63 over a distance of 1 is exactly what
    omega allows, and one more is reported."""
    A = FiniteStructure.build({"A": ["a", "b"]},
                              {"A": (1, np.array([[0, 1], [1, 0]]))}).sorts
    for top, want in ((2**62, []), (2**62 + 1, [
            "modulus violation: P argument 0 at pair (a, b): input distance "
            "1 allows change 1, table changes by 9223372036854775809/"
            "9223372036854775808"])):
        P = PredTable(("A",), 2**63, np.array([-2**62, top]))
        M = FiniteStructure(A, {}, {"P": P}, {"P": Modulus.lipschitz(1)})
        assert check_structure(M) == _check(M, certify=False) == want
