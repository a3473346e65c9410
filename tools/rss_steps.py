"""Where a benchmark workload's peak RSS grows, step by step.

    python3 tools/rss_steps.py --workload scan --seed 7

Imports mlw and runs one set-up of the workload through perfbench's own
`setup_once`, then one pass over its verdicts, each verdict's `run` and
oracle `check` in turn, all in this process.  Prints `ru_maxrss` after
the import and after the set-up, each run or check at which `ru_maxrss`
grew by at least 1 MiB, and the bytes of the distance tables
(`SortData.dmat`) that the live `FiniteStructure` objects hold after the
set-up: in total, and counting each table object once.  perfbench/ is
imported, never changed."""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import resource
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)  # registered first: its dataclass needs it

GROWTH_KIB = 1024  # a step is listed when ru_maxrss grows by this much


def report(imported_kib: int, setup_kib: int, steps, tables) -> str:
    """The RSS lines of one run.  steps: (what, verdict name, ru_maxrss
    before, after) per run or check, in KiB; tables: (id, nbytes) per sort
    of each live structure."""
    mib = 1024.0
    lines = [f"ru_maxrss after import: {imported_kib / mib:.1f} MiB",
             f"ru_maxrss after set-up: {setup_kib / mib:.1f} MiB", ""]
    grew = [(what, name, before, after) for what, name, before, after
            in steps if after - before >= GROWTH_KIB]
    lines += [f"steps growing ru_maxrss by at least {GROWTH_KIB / mib:g} "
              f"MiB: {len(grew)} of {len(steps)}"]
    if grew:
        lines += ["| step | verdict | before MiB | after MiB |",
                  "|---|---|---|---|"]
        lines += [f"| {what} | {name} | {before / mib:.1f} | "
                  f"{after / mib:.1f} |" for what, name, before, after in grew]
    distinct = dict(tables)
    lines += ["", f"dmat after set-up: {len(tables)} tables, "
              f"{sum(b for _, b in tables) / 2**20:.1f} MiB in total; "
              f"{len(distinct)} distinct, "
              f"{sum(distinct.values()) / 2**20:.1f} MiB"]
    return "\n".join(lines)


def live_tables(FiniteStructure) -> list[tuple[int, int]]:
    """(id, nbytes) of the dmat of every sort of every live structure."""
    gc.collect()
    return [(id(sd.dmat), sd.dmat.nbytes) for obj in gc.get_objects()
            if isinstance(obj, FiniteStructure) for sd in obj.sorts.values()]


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench.wl.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bench.import_mlw()
    imported = _maxrss()
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="rss-", dir=bench.OUT_DIR)
    try:
        m, verdicts, _ = bench.setup_once(args.workload, args.seed, tmp)
        setup = _maxrss()
        tables = live_tables(m.structures.FiniteStructure)
        steps = []
        for v in verdicts:
            before = _maxrss()
            try:
                res = v.run()
            except Exception as e:  # a failed verdict: no oracle to ask
                steps.append((f"run ({type(e).__name__})", v.name, before,
                              _maxrss()))
                continue
            mid = _maxrss()
            steps.append(("run", v.name, before, mid))
            try:
                v.check(res)
            except Exception as e:  # an oracle that cannot read the answer
                steps.append((f"check ({type(e).__name__})", v.name, mid,
                              _maxrss()))
            else:
                steps.append(("check", v.name, mid, _maxrss()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: one set-up, one pass of "
          f"{len(verdicts)} verdicts\n")
    print(report(imported, setup, steps, tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
