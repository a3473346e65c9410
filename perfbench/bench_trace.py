"""Spans at mlw's layer boundaries, recorded from outside the library.

`Tracer.install` replaces each layer's public functions (listed in `API`)
with wrappers that record a span: name, start, end, parent span and the
verdict being run.  The wrapper is bound under every name that any mlw
module imported the function as, so calls that cross layers are attributed
(for example `mlw.analysis.eval_table` or `mlw.cli.check_structure`).
Spans stay in memory; `layer_metrics` reduces them and `dump` writes them
once at the end.  Time the tracer spends on its own measurements (the
metric-only re-check that splits `check_structure`) is subtracted from
every enclosing span and from the verdict."""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

BUILDERS = ("build_model", "build_N", "build_N2", "build_N3",
            "build_Projection", "build_M", "build_M_l", "build_M4")

API = {
    "models": BUILDERS + ("canonical_truncation", "kfamily_check",
                          "build_type", "relabel", "pred_gap"),
    "structures": ("check_structure", "eval_formula", "eval_table",
                   "eval_bounds", "load_structure", "save_structure"),
    "formulas": ("parse_formula", "prenex", "formula_modulus"),
    "conditions": ("type_or", "type_and", "omega_type", "make_uniform"),
    "trees": ("build_tree", "truncate", "rank", "rank_finite",
              "well_founded", "tree_space_dist", "pair_tree_dist",
              "project"),
    "analysis": ("realizes", "realization_tree", "find_iso", "verify_iso",
                 "eq_evidence"),
    "forge": ("build_generic", "verify_run", "extract_premodel",
              "cond_check", "extends", "compatible",
              "homogeneity_experiment", "parse_schedule", "transcript"),
    "cli": ("main",),
}

NAME, START, END, PARENT, VERDICT, INFO, EXCL = range(7)


def _table_bytes(M) -> int:
    return (sum(sd.dmat.nbytes for sd in M.sorts.values())
            + sum(f.table.nbytes for f in M.functions.values())
            + sum(p.table.nbytes for p in M.predicates.values()))


def _volume(f, M) -> int:
    """Largest product of quantified sort sizes along one nesting chain."""
    kind = type(f).__name__
    if kind == "Quant":
        sort = f.sort or next(iter(M.sorts))
        return M.sorts[sort].size * _volume(f.body, M)
    if kind == "Conn":
        return max((_volume(a, M) for a in f.args), default=1)
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict = ""
        self.extra = 0.0  # seconds spent on the tracer's own measurements
        self.counts: dict[str, int] = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def bump(self, counter: str):
        self.counts[counter] = self.counts.get(counter, 0) + 1

    def add_span(self, name, start, end, info=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.verdict, info, 0.0])

    def _exclude(self, seconds: float):
        self.extra += seconds
        for i in self.stack:
            self.spans[i][EXCL] += seconds

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            sp = [name, perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.verdict, None,
                  0.0]
            self.stack.append(len(self.spans))
            self.spans.append(sp)
            try:
                res = fn(*args, **kw)
            finally:
                self.stack.pop()
                sp[END] = perf_counter()
            if after is not None:
                t = perf_counter()
                sp[INFO] = after(args, kw, res)
                self._exclude(perf_counter() - t)
            return res
        return wrapper

    # -- installing --------------------------------------------------------

    def _after(self, m):
        orig_check = m.structures.check_structure
        FS = m.structures.FiniteStructure

        def build(args, kw, M):
            return [M.total_points(), _table_bytes(M)]

        def check(args, kw, report):
            M = args[0] if args else kw["M"]
            t = perf_counter()
            orig_check(FS(M.sorts))
            return [perf_counter() - t,
                    sum(sd.size ** 2 for sd in M.sorts.values())]

        def table(args, kw, res):
            f, M, variables = args[:3]
            dims = 1
            for _, s in variables:
                dims *= M.sorts[s or next(iter(M.sorts))].size
            return dims * _volume(f, M)

        def size_of(pos):
            return lambda args, kw, res: os.path.getsize(args[pos])
        return {
            **{f"models.{b}": build for b in BUILDERS},
            "structures.check_structure": check,
            "structures.eval_table": table,
            "structures.load_structure": size_of(0),
            "structures.save_structure": size_of(1),
            "analysis.realizes": lambda a, k, res: len(res),
            "forge.build_generic": lambda a, k, r: [
                len(r.steps), sum(bool(s.ok) for s in r.steps)],
            "forge.homogeneity_experiment": lambda a, k, r: [r[0],
                                                             len(r[1])],
        }

    def install(self, m):
        """Wrap the API of the imported mlw modules `m` (an `Mlw`)."""
        mods = [mod for name, mod in sys.modules.items()
                if name == "mlw" or name.startswith("mlw.")]
        after = self._after(m)
        for layer, names in API.items():
            owner = getattr(m, layer)
            for fname in names:
                orig = getattr(owner, fname)
                w = self.wrap(f"{layer}.{fname}", orig,
                              after.get(f"{layer}.{fname}"))
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, w)
        cls = m.moduli.Modulus
        orig = cls.omega
        self._patches.append((cls, "omega", orig))
        cls.omega = self.wrap("moduli.omega", orig)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [sp[END] - sp[START] - sp[EXCL] for sp in self.spans]

    def self_times(self) -> list[float]:
        dur = self.durations()
        out = list(dur)
        for i, sp in enumerate(self.spans):
            if sp[PARENT] >= 0:
                out[sp[PARENT]] -= dur[i]
        return out

    def outermost(self, names) -> list[int]:
        """Spans named in `names` with no ancestor named in `names`."""
        names = set(names)
        out = []
        for i, sp in enumerate(self.spans):
            if sp[NAME] not in names:
                continue
            p = sp[PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def dump(self, path: str, extra: dict):
        dur, own = self.durations(), self.self_times()
        rows = [{"name": sp[NAME], "start": sp[START], "end": sp[END],
                 "parent": sp[PARENT], "verdict": sp[VERDICT],
                 "self_s": own[i], "duration_s": dur[i], "info": sp[INFO]}
                for i, sp in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": rows}, fh)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans."""
    dur = tr.durations()
    sp = tr.spans
    out: dict[str, float] = {}

    def total(*names):
        idx = tr.outermost(names)
        return sum(dur[i] for i in idx), idx

    def info_sum(idx, k=None):
        return sum((sp[i][INFO] if k is None else sp[i][INFO][k])
                   for i in idx if sp[i][INFO] is not None)

    s, idx = total(*(f"models.{b}" for b in BUILDERS))
    out["models.build_s"], out["models.build_calls"] = s, len(idx)
    out["models.points"] = info_sum(idx, 0)
    out["models.table_bytes"] = info_sum(idx, 1)
    out["models.canonical_truncation_s"] = total(
        "models.canonical_truncation")[0]
    out["models.kfamily_check_s"] = total("models.kfamily_check")[0]

    s, idx = total("structures.check_structure")
    metric = info_sum(idx, 0)
    out["structures.check_metric_s"] = metric
    out["structures.check_moduli_s"] = s - metric
    out["structures.check_calls"] = len(idx)
    out["structures.check_pairs"] = info_sum(idx, 1)
    s, idx = total("moduli.omega")
    out["moduli.omega_s"], out["moduli.omega_calls"] = s, len(idx)
    s, idx = total("structures.eval_table")
    out["structures.eval_table_s"] = s
    out["structures.eval_table_calls"] = len(idx)
    out["structures.eval_table_cells"] = info_sum(idx)
    s, idx = total("structures.eval_formula")
    out["structures.eval_formula_s"] = s
    out["structures.eval_formula_calls"] = len(idx)
    s, idx_l = total("structures.load_structure")
    out["structures.load_s"] = s
    s, idx_s = total("structures.save_structure")
    out["structures.save_s"] = s
    out["structures.model_bytes"] = info_sum(idx_l) + info_sum(idx_s)

    s, idx = total("formulas.parse_formula")
    out["formulas.parse_s"], out["formulas.parse_calls"] = s, len(idx)
    s, idx = total("models.build_type", "conditions.type_or",
                   "conditions.type_and", "conditions.omega_type")
    out["conditions.type_build_s"] = s
    out["conditions.type_build_calls"] = len(idx)
    out["trees.build_s"] = total("trees.build_tree")[0]
    out["trees.rank_s"] = total("trees.rank", "trees.rank_finite",
                                "trees.well_founded")[0]
    out["trees.dist_s"] = total("trees.tree_space_dist",
                                "trees.pair_tree_dist")[0]

    s, idx = total("analysis.realizes")
    outer, below = set(idx), 0.0
    for i, row in enumerate(sp):
        if row[NAME] != "structures.eval_table":
            continue
        p = row[PARENT]
        while p >= 0 and sp[p][NAME] not in ("analysis.realizes",
                                             "structures.eval_table"):
            p = sp[p][PARENT]
        if p in outer:
            below += dur[i]
    out["analysis.realizes_s"] = s
    out["analysis.realizes_self_s"] = s - below
    out["analysis.realizes_calls"] = len(idx)
    out["analysis.realizers"] = info_sum(idx)
    s, idx = total("analysis.find_iso")
    out["analysis.find_iso_s"], out["analysis.find_iso_calls"] = s, len(idx)
    out["analysis.verify_iso_s"] = total("analysis.verify_iso")[0]

    out["forge.build_generic_s"], idx = total("forge.build_generic")
    out["forge.steps"] = info_sum(idx, 0)
    out["forge.steps_ok"] = info_sum(idx, 1)
    out["forge.verify_run_s"] = total("forge.verify_run")[0]
    out["forge.extract_premodel_s"] = total("forge.extract_premodel")[0]
    s, idx = total("forge.cond_check")
    out["forge.cond_check_s"], out["forge.cond_check_calls"] = s, len(idx)
    s, idx = total("forge.homogeneity_experiment")
    out["forge.homogeneity_s"] = s
    pairs = info_sum(idx, 1)
    out["forge.homogeneity_win_ratio"] = info_sum(idx, 0) / pairs \
        if pairs else 0.0

    out["cli.main_s"] = total("cli.main")[0]
    s, idx = total("cli.process")
    out["cli.process_s"], out["cli.calls"] = s, len(idx)
    out["cli.exit_mismatch"] = tr.counts.get("exit_mismatch", 0)
    return out
