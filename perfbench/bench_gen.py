"""Seeded input generators.

Every generator takes a `random.Random` made from the benchmark seed and
returns plain data (numpy arrays, tuples, text), so the same seed gives
byte-identical inputs.  `structure_bytes` serialises a structure for the
determinism self-test."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return np.array(p, dtype=np.int64)


def relabel(M, rng, structures):
    """Copy of M with every sort's points shuffled and renamed q0, q1, ...

    Returns (B, perms) with perms[sort][i] = index in B of A's point i, so
    the known isomorphism maps A's point i to B's point perms[sort][i]."""
    perms = {s: _perm(rng, sd.size) for s, sd in M.sorts.items()}
    inv = {s: np.argsort(p) for s, p in perms.items()}
    sorts = {}
    for s, sd in M.sorts.items():
        names = tuple(f"q{j}" for j in range(sd.size))
        sorts[s] = structures.SortData(
            names, sd.den, sd.dmat[np.ix_(inv[s], inv[s])].copy(),
            {a: j for j, a in enumerate(names)})
    fns = {}
    for name, fn in M.functions.items():
        table = fn.table[np.ix_(*(inv[s] for s in fn.arg_sorts))] \
            if fn.arg_sorts else fn.table
        fns[name] = structures.FnTable(fn.arg_sorts, fn.out_sort,
                                       np.asarray(perms[fn.out_sort][table]))
    preds = {}
    for name, pr in M.predicates.items():
        preds[name] = structures.PredTable(
            pr.arg_sorts, pr.den,
            pr.table[np.ix_(*(inv[s] for s in pr.arg_sorts))].copy())
    B = structures.FiniteStructure(sorts, fns, preds, dict(M.moduli),
                                   dict(M.meta))
    return B, perms


def _with_sort(M, s, dmat, structures):
    sd = M.sorts[s]
    sorts = dict(M.sorts)
    sorts[s] = structures.SortData(sd.points, sd.den, dmat, sd.index)
    return structures.FiniteStructure(sorts, dict(M.functions),
                                      dict(M.predicates), dict(M.moduli),
                                      dict(M.meta))


def change_one_distance(M, rng, structures):
    """Copy of M with one off-diagonal distance of its first sort moved to
    another value.  The multiset of distances changes, so the copy is not
    isomorphic to M.  Returns (copy, (sort, i, j))."""
    s = next(iter(M.sorts))
    sd = M.sorts[s]
    i, j = sorted(rng.sample(range(sd.size), 2))
    old = int(sd.dmat[i, j])
    new = old // 2 if old > 1 else sd.den
    dmat = sd.dmat.copy()
    dmat[i, j] = dmat[j, i] = new
    return _with_sort(M, s, dmat, structures), (s, i, j)


def break_triangle(M, rng, structures):
    """Copy of M with one pair of deepest siblings pushed to distance 1.

    The two points still share a long prefix with a third point, so the
    triangle inequality fails through it.  Returns (copy, (sort, i, j))."""
    s = next(iter(M.sorts))
    sd = M.sorts[s]
    D = sd.dmat
    low = int(D[D > 0].min())
    i, j = rng.choice([(int(a), int(b)) for a, b in np.argwhere(D == low)
                       if a < b])
    dmat = D.copy()
    dmat[i, j] = dmat[j, i] = sd.den
    return _with_sort(M, s, dmat, structures), (s, i, j)


def modulus_bound(mod, r: Fraction) -> Fraction:
    """omega(r) by linear interpolation of the modulus breakpoints, without
    calling `Modulus.omega`, which the moduli layer's metrics time."""
    pts = mod.points
    if r >= 1:
        return pts[-1][1]
    for (r0, w0), (r1, w1) in zip(pts, pts[1:]):
        if r <= r1:
            return w0 + (w1 - w0) * (r - r0) / (r1 - r0)
    return pts[-1][1]


def break_function(M, rng, structures):
    """Copy of M with one unary function value redirected so that its
    modulus fails at a nearest-neighbour pair.

    Returns (copy, (name, i, new_out))."""
    names = sorted(n for n, fn in M.functions.items()
                   if len(fn.arg_sorts) == 1
                   and fn.arg_sorts[0] == fn.out_sort)
    while True:
        name = rng.choice(names)
        fn = M.functions[name]
        sd = M.sorts[fn.arg_sorts[0]]
        i = rng.randrange(sd.size)
        row = sd.dmat[i].copy()
        row[i] = sd.den + 1
        j = int(row.argmin())
        allowed = modulus_bound(M.moduli[name], Fraction(int(row[j]), sd.den))
        fj = int(fn.table[j])
        far = [o for o in range(sd.size)
               if Fraction(int(sd.dmat[o, fj]), sd.den) > allowed]
        if far:
            o = rng.choice(far)
            break
    table = fn.table.copy()
    table[i] = o
    fns = dict(M.functions)
    fns[name] = structures.FnTable(fn.arg_sorts, fn.out_sort, table)
    B = structures.FiniteStructure(dict(M.sorts), fns, dict(M.predicates),
                                   dict(M.moduli), dict(M.meta))
    return B, (name, i, o)


def line_metric(n: int, cycle: bool, rng) -> dict:
    """Raw data of a valid structure that is not an ultrametric.

    Points on a cycle (distance = shorter arc / (n/2)) or a path (distance
    = |i - j| / (n - 1)); an isometry f (a rotation or the reflection) and
    a 1-Lipschitz predicate P, the maximum of three seeded bumps."""
    idx = np.arange(n, dtype=np.int64)
    diff = np.abs(idx[:, None] - idx[None, :])
    if cycle:
        dmat, den = np.minimum(diff, n - diff), n // 2
        shift = rng.randrange(1, n)
        image = (idx + shift) % n
    else:
        dmat, den = diff, n - 1
        image = n - 1 - idx
    pred = np.zeros(n, dtype=np.int64)
    for _ in range(3):
        c, h = rng.randrange(n), rng.randrange(den // 2, den + 1)
        pred = np.maximum(pred, np.maximum(h - dmat[c], 0))
    tag = "c" if cycle else "p"
    return {"sort": "L", "names": tuple(f"{tag}{i}" for i in range(n)),
            "den": den, "dmat": dmat.astype(np.int64), "f": image,
            "pred_den": den, "pred": pred}


def build_line(raw: dict, structures, moduli):
    """FiniteStructure from `line_metric` data, through the library's
    name-level constructor."""
    names, image = raw["names"], raw["f"]
    idx = {a: i for i, a in enumerate(names)}
    one = moduli.Modulus.lipschitz(1)
    return structures.FiniteStructure.build(
        {raw["sort"]: names}, {raw["sort"]: (raw["den"], raw["dmat"])},
        {"f": ((raw["sort"],), raw["sort"],
               lambda a: names[int(image[idx[a]])])},
        {"P": ((raw["sort"],), (raw["pred_den"], raw["pred"]))},
        {"f": one, "P": one}, {"label": f"line({len(names)})"})


def _q(num: int, den: int) -> str:
    return str(Fraction(num, den))


def model_text(M) -> str:
    """The .model file format, written from the tables directly."""
    lines = ["[sorts]", *M.sorts, "[points]"]
    for s, sd in M.sorts.items():
        lines.extend(f"{s} {a}" for a in sd.points)
    lines.append("[metric]")
    for s, sd in M.sorts.items():
        for i in range(sd.size):
            row = sd.dmat[i]
            lines.extend(f"{s} {sd.points[i]} {sd.points[j]} "
                         f"{_q(int(row[j]), sd.den)}"
                         for j in range(i + 1, sd.size))
    for name, fn in M.functions.items():
        lines.append(f"[fn {name} : {' '.join(fn.arg_sorts)} -> "
                     f"{fn.out_sort}]")
        out = M.sorts[fn.out_sort].points
        for combo in np.ndindex(*fn.table.shape):
            args = [M.sorts[s].points[i] for s, i in zip(fn.arg_sorts, combo)]
            lines.append(" ".join(args + [out[int(fn.table[combo])]]))
    for name, pr in M.predicates.items():
        lines.append(f"[pred {name} : {' '.join(pr.arg_sorts)}]")
        for combo in np.ndindex(*pr.table.shape):
            args = [M.sorts[s].points[i] for s, i in zip(pr.arg_sorts, combo)]
            lines.append(" ".join(args + [_q(int(pr.table[combo]), pr.den)]))
    lines.append("[moduli]")
    for name, mod in M.moduli.items():
        lines.append(f"{name} points " + " ".join(
            f"{r}:{w}" for r, w in mod.points))
    lines.append("[meta]")
    return "\n".join(lines) + "\n"


def pairing_instance(rng, n: int) -> dict:
    """A small two-level ultrametric space with a predicate P, as in the
    pairing criterion, plus two unary types given as condition texts."""
    names = tuple(f"p{i}" for i in range(n))
    group = [rng.randrange(2) for _ in names]
    sub = [rng.randrange(2) for _ in names]
    dmat = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            if a != b:
                dmat[a, b] = 6 if group[a] != group[b] else (
                    3 if sub[a] != sub[b] else 2)
    pv = tuple(rng.randrange(3) for _ in names)  # P = pv / 2

    def unary_type():
        out = []
        for _ in range(rng.randrange(1, 5)):
            q = _q(rng.randrange(0, 3), 2)
            out.append(rng.choice([f"monus(P(x0), {q})", f"monus({q}, P(x0))",
                                   f"absdiff(P(x0), {q})"]))
        return tuple(out)
    return {"names": names, "den": 6, "dmat": dmat, "pred": pv,
            "t": unary_type(), "s": unary_type()}


def forge_schedule(rng) -> str:
    """The forcing-run schedule of criterion 8 with a seeded order of the
    metric decisions and seeded witness targets."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    rng.shuffle(pairs)
    lines = [f"metric {i} {j} 8" for i, j in pairs]
    for n in range(10):
        q = rng.choice(("1/2", "1/3"))
        lines.append(f"witness absdiff(d(d{n % 5},x{30 + n}),{q}) F={n % 5}")
    return "\n".join(lines) + "\n"


def structure_bytes(M) -> bytes:
    """Canonical bytes of a structure's names and tables."""
    parts = []
    for s, sd in M.sorts.items():
        parts += [s.encode(), "|".join(sd.points).encode(),
                  str(sd.den).encode(), sd.dmat.tobytes()]
    for name, fn in sorted(M.functions.items()):
        parts += [name.encode(), fn.table.tobytes()]
    for name, pr in sorted(M.predicates.items()):
        parts += [name.encode(), str(pr.den).encode(), pr.table.tobytes()]
    return b"\0".join(parts)
