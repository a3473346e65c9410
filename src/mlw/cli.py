"""Batch command-line surface: build, evaluate, check, reduce, forge, report.

Every invocation is reproducible from its argument vector; reports are
deterministic, and each verdict line cites the operation that produced it.
Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
data error.

Each verb imports the layers it uses when it runs, so the tree, type
(build, pair, omega) and reduce verbs start without numpy."""

from __future__ import annotations

import argparse
import csv as _csv
import sys
from fractions import Fraction

from .values import show_rational


def _load_model(spec: str, cap=None, validate=True):
    """A .model file (rejected when invalid, unless validate is False, for
    verbs that report the violations themselves) or a constructor spec."""
    if spec.endswith(".model"):
        from .structures import load_structure
        return load_structure(spec, validate=validate)
    from .models import build_model
    return build_model(spec, cap=cap)


def _emit_csv(path, header, rows):
    if not path:
        return
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _truncated(args):
    from .trees import build_tree, truncate
    return truncate(build_tree(args.dsl), args.depth, args.branch)


# --------------------------------------------------------------------------
# Verbs

def _cmd_model(args) -> int:
    from .structures import check_structure, save_structure
    M = _load_model(args.ctor, cap=args.cap, validate=args.sub == "build")
    if args.sub == "build":
        print(f"built {M.meta.get('label', args.ctor)} "
              f"[build_model({args.ctor})]")
        rows = []
        for s, sd in M.sorts.items():
            print(f"sort {s}: {sd.size} points, denominator {sd.den}")
            rows.append((s, sd.size, sd.den))
        print(f"functions: {', '.join(sorted(M.functions)) or '-'}")
        print(f"predicates: {', '.join(sorted(M.predicates)) or '-'}")
        if args.save:
            save_structure(M, args.save)
            print(f"saved to {args.save} [save_structure]")
        _emit_csv(args.csv, ("sort", "points", "denominator"), rows)
        return 0
    report = check_structure(M)
    for line in report:
        print(f"violation: {line} [check_structure({args.ctor})]")
    print(f"{len(report)} violations [check_structure({args.ctor})]")
    _emit_csv(args.csv, ("violation",), [(r,) for r in report])
    return 1 if report else 0


def _cmd_eval(args) -> int:
    from .formulas import parse_formula
    from .structures import eval_bounds, eval_formula
    M = _load_model(args.model, cap=args.cap)
    f = parse_formula(args.formula)
    assignment = {}
    for item in args.assign or []:
        k, _, v = item.partition("=")
        assignment[k] = v
    if args.bounds:
        res = eval_bounds(f, M, assignment)
        print(f"bounds [{show_rational(res.lo)}, {show_rational(res.hi)}] "
              f"({res.kind}) [eval_bounds({args.model})]")
        for note in res.notes:
            print(f"note: {note}")
    else:
        v = eval_formula(f, M, assignment)
        print(f"{show_rational(v)} [eval_formula({args.model})]")
    return 0


def _print_type(t, frag: int | None):
    conds = t.fragment(frag) if frag is not None else t.conds
    for j, c in enumerate(conds):
        print(f"condition {j}: {c}")


def _cmd_type(args) -> int:
    from .conditions import omega_type, type_and, type_from_spec, type_or
    if args.sub == "check":  # realizer list, exit by emptiness
        from .analysis import realizes
        M = _load_model(args.model, cap=args.cap)
        t = type_from_spec(args.type)
        tol = Fraction(args.tol)
        res = realizes(M, t, n=args.frag, tol=tol)
        for row in res:
            print("realizer: " + ", ".join(row))
        print(f"{len(res)} realizer(s) at tolerance {show_rational(tol)} "
              f"[realizes({args.model}, {args.type}, n={args.frag})]")
        _emit_csv(args.csv, ("realizer",), [(" ".join(r),) for r in res])
        return 0 if res else 1
    if args.sub == "build":
        t = type_from_spec(args.type)
        cite = f"on {len(t.variables)} variable(s) [build_type({args.type})]"
    elif args.sub == "pair":
        a, b = type_from_spec(args.a), type_from_spec(args.b)
        t = type_or(a, b) if args.op == "or" else type_and(a, b)
        cite = f"[type_{args.op}({args.a}, {args.b})]"
    else:
        t = omega_type(type_from_spec(args.type), args.n)
        cite = f"[omega_type({args.type}, {args.n})]"
    print(f"type {t.label} {cite}")
    _print_type(t, args.frag)
    return 0


def _cmd_tree(args) -> int:
    from .trees import (PairTree, build_tree, node_name, parse_node, project,
                        rank, rank_finite, tree_space_dist, truncate,
                        well_founded)
    if args.sub == "rank":
        t = build_tree(args.dsl)
        if not well_founded(t):
            print(f"not well-founded [rank({args.dsl})]")
            return 1
        print(f"{rank(t)} [rank({args.dsl})]")
        return 0
    if args.sub == "wf":
        t = build_tree(args.dsl)
        ok = well_founded(t)
        print(("well-founded, rank " + str(rank(t)) if ok
               else "not well-founded") + f" [well_founded({args.dsl})]")
        return 0 if ok else 1
    if args.sub == "truncate":
        ft = _truncated(args)
        for s in ft.sorted_nodes():
            print(node_name(s))
        print(f"{len(ft.nodes)} nodes; finite rank {rank_finite(ft)} "
              f"[truncate({args.dsl}, {args.depth}, {args.branch})]")
        return 0
    if args.sub == "dist":
        a = truncate(build_tree(args.a), args.depth, args.branch)
        b = truncate(build_tree(args.b), args.depth, args.branch)
        print(f"{show_rational(tree_space_dist(a, b))} "
              f"[tree_space_dist(truncations at {args.depth},{args.branch})]")
        return 0
    # project
    pairs = []
    with open(args.pairs) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            s, t = line.split()
            pairs.append((parse_node(s), parse_node(t)))
    R = PairTree.of(pairs)
    out = project(R, parse_node(args.x))
    for s in sorted(out.nodes, key=len):
        print(node_name(s))
    print(f"{len(out.nodes)} nodes [project({args.pairs}, {args.x})]")
    return 0


def _cmd_reduce(args) -> int:
    from .conditions import build_type
    from .trees import node_name, relabel
    if args.sub == "tS":
        S = relabel(_truncated(args), args.branch_cap, args.depth_cap)
        t = build_type("tS", S, args.k)
        print(f"reduction target {t.label} for tree {args.dsl} "
              f"(truncated {args.depth},{args.branch}; relabelled) "
              f"[build_type(tS, k={args.k})]")
        print("relabelled nodes: "
              + " ".join(node_name(s) for s in S.sorted_nodes()))
    else:
        t = build_type("tR", args.k, args.const)
        print(f"reduction target {t.label} with constant {args.const} "
              f"[build_type(tR, k={args.k})]")
    _print_type(t, None)
    return 0


def _cmd_iso(args) -> int:
    from .analysis import IsoWitness, find_iso
    from .models import (POINT_CAP, canonical_truncation, kfamily_check,
                         load_kfamily)
    if args.family:
        fam = load_kfamily(args.family)
        cap = POINT_CAP if args.cap is None else args.cap
        rows = kfamily_check(fam, l=args.l or 1, m=args.m, r=args.r,
                             mu=args.mu, cap=cap)
        for row in rows:
            print(f"{row['clause']}: {'ok' if row['ok'] else 'FAIL'} - "
                  f"{row['detail']} [kfamily_check]")
        A = canonical_truncation(fam, args.m, args.r, mu=args.mu, cap=cap)
        B = canonical_truncation(fam, args.m, args.r, mu=args.mu, l=args.l,
                                 perturb=args.perturb, cap=cap)
        label = (f"canonical_truncation(m={args.m}, r={args.r}, mu={args.mu}, "
                 f"l={args.l}, perturb={args.perturb})")
    else:
        A = _load_model(args.a, cap=args.cap)
        B = _load_model(args.b, cap=args.cap)
        label = f"find_iso({args.a}, {args.b})"
    res = find_iso(A, B)
    if isinstance(res, IsoWitness):
        for a, b in sorted(res.mapping.items()):
            print(f"map {a} -> {b}")
        print(f"isomorphic [{label}]")
        return 0
    print(f"refusal: {res.reason} - {res.detail} [{label}]")
    return 1


def _cmd_forge(args) -> int:
    from .forge import (WitnessBank, build_generic, extract_premodel,
                        parse_schedule, transcript, verify_run)
    with open(args.schedule) as fh:
        sched = parse_schedule(fh.read())
    models = {}
    for i, spec in enumerate(args.bank.split(";")):
        models[f"bank{i}"] = _load_model(spec.strip(), cap=args.cap)
    B = WitnessBank(models)
    bad = B.validate()
    if bad:
        for line in bad:
            print(f"bank invalid: {line}", file=sys.stderr)
        return 2
    run = build_generic(sched, B)
    text = transcript(run)
    if args.sub == "replay":
        with open(args.transcript) as fh:
            old = fh.read()
        same = old == text
        print("replay: identical" if same
              else "replay: MISMATCH", "[build_generic deterministic rerun]")
        return 0 if same else 1
    sys.stdout.write(text)
    problems = verify_run(run, B)
    for p in problems:
        print(f"soundness: {p} [verify_run]")
    if run.decided:
        M, rep = extract_premodel(run)
        print(f"premodel: {M.total_points()} points, "
              f"{len(rep)} triangle issue(s) [extract_premodel]")
        for line in rep:
            print("  " + line)
    if args.save_transcript:
        with open(args.save_transcript, "w") as fh:
            fh.write(text)
    _emit_csv(args.csv, ("step", "ok", "spec", "model", "note"),
              [(s.index, int(s.ok), s.spec, s.model, s.note)
               for s in run.steps])
    return 0 if run.ok and not problems else 1


def _cmd_report(args) -> int:
    from .analysis import realizes
    from .conditions import type_from_spec
    from .structures import check_structure
    M = _load_model(args.model, cap=args.cap, validate=False)
    label = M.meta.get("label", args.model)
    print(f"report for {label}")
    rows = [("sort-points", s, sd.size) for s, sd in M.sorts.items()]
    for _, s, n in rows:
        print(f"sort {s}: {n} points [build_model]")
    violations = check_structure(M)
    print(f"validity: {len(violations)} violation(s) [check_structure]")
    rows.append(("violations", "", len(violations)))
    if args.type:
        t = type_from_spec(args.type)
        res = realizes(M, t, n=args.frag, tol=Fraction(args.tol))
        print(f"type {t.label}: {len(res)} realizer(s) at tol {args.tol} "
              f"[realizes(n={args.frag})]")
        rows.append(("realizers", t.label, len(res)))
    _emit_csv(args.csv, ("row", "key", "value"), rows)
    return 1 if violations else 0


# --------------------------------------------------------------------------
# Argument grammar

def _build_parser():
    ap = argparse.ArgumentParser(prog="mlw", description=__doc__)
    ap.add_argument("--csv", default=None, help="write machine-readable CSV")
    ap.add_argument("--cap", type=int, default=None, help="point cap override")
    sub = ap.add_subparsers(dest="verb", required=True)

    m = sub.add_parser("model")
    m.add_argument("sub", choices=("build", "check"))
    m.add_argument("--ctor", required=True)
    m.add_argument("--save")
    m.set_defaults(fn=_cmd_model)

    e = sub.add_parser("eval")
    e.add_argument("--model", required=True)
    e.add_argument("--formula", required=True)
    e.add_argument("--assign", action="append")
    e.add_argument("--bounds", action="store_true")
    e.set_defaults(fn=_cmd_eval)

    t = sub.add_parser("type")
    t.add_argument("sub", choices=("build", "check", "pair", "omega"))
    t.add_argument("--type")
    t.add_argument("--model")
    t.add_argument("--a")
    t.add_argument("--b")
    t.add_argument("--op", choices=("or", "and"), default="or")
    t.add_argument("--n", type=int, default=2)
    t.add_argument("--frag", type=int, default=None)
    t.add_argument("--tol", default="0")
    t.set_defaults(fn=_cmd_type)

    tr = sub.add_parser("tree")
    tr.add_argument("sub", choices=("rank", "dist", "truncate", "project", "wf"))
    tr.add_argument("--dsl")
    tr.add_argument("--a")
    tr.add_argument("--b")
    tr.add_argument("--depth", type=int, default=4)
    tr.add_argument("--branch", type=int, default=3)
    tr.add_argument("--pairs")
    tr.add_argument("--x")
    tr.set_defaults(fn=_cmd_tree)

    r = sub.add_parser("reduce")
    r.add_argument("sub", choices=("tS", "tR"))
    r.add_argument("--dsl")
    r.add_argument("--k", type=int, default=3)
    r.add_argument("--const", default="c")
    r.add_argument("--depth", type=int, default=4)
    r.add_argument("--branch", type=int, default=2)
    r.add_argument("--branch-cap", type=int, default=8)
    r.add_argument("--depth-cap", type=int, default=4)
    r.set_defaults(fn=_cmd_reduce)

    i = sub.add_parser("iso")
    i.add_argument("--a")
    i.add_argument("--b")
    i.add_argument("--family", help="coloured-family file for canonical mode")
    i.add_argument("--m", type=int, default=4)
    i.add_argument("--r", type=int, default=4)
    i.add_argument("--mu", type=int, default=2)
    i.add_argument("--l", type=int, default=None)
    i.add_argument("--perturb", action="store_true")
    i.set_defaults(fn=_cmd_iso)

    f = sub.add_parser("forge")
    f.add_argument("sub", choices=("run", "replay"))
    f.add_argument("--schedule", required=True)
    f.add_argument("--bank", required=True,
                   help="semicolon-separated constructor specs")
    f.add_argument("--transcript", help="transcript to compare on replay")
    f.add_argument("--save-transcript")
    f.set_defaults(fn=_cmd_forge)

    rp = sub.add_parser("report")
    rp.add_argument("--model", required=True)
    rp.add_argument("--type")
    rp.add_argument("--frag", type=int, default=None)
    rp.add_argument("--tol", default="0")
    rp.set_defaults(fn=_cmd_report)
    return ap


# Options a (verb, sub) needs that its parser leaves optional, because other
# subs of the verb do without them; `iso` needs --a and --b unless --family.
_NEEDS = {
    ("type", "build"): ("type",),
    ("type", "check"): ("model", "type"),
    ("type", "pair"): ("a", "b"),
    ("type", "omega"): ("type",),
    ("tree", "rank"): ("dsl",),
    ("tree", "wf"): ("dsl",),
    ("tree", "truncate"): ("dsl",),
    ("tree", "dist"): ("a", "b"),
    ("tree", "project"): ("pairs", "x"),
    ("reduce", "tS"): ("dsl",),
    ("iso", None): ("a", "b"),
    ("forge", "replay"): ("transcript",),
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    sub = getattr(args, "sub", None)
    need = () if getattr(args, "family", None) else \
        _NEEDS.get((args.verb, sub), ())
    missing = ["--" + name for name in need if getattr(args, name) is None]
    if missing:
        print(f"error: mlw {args.verb}{' ' + sub if sub else ''} needs "
              f"{' and '.join(missing)}", file=sys.stderr)
        return 2
    if (getattr(args, "frag", None) or 0) < 0:  # before any output
        print(f"error: --frag must be >= 0, got {args.frag}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
