"""Per-verdict timings of one benchmark run, and the verdict behind its tail.

    python3 tools/verdict_times.py --workload search --seed 11 [--seconds 10]

Measures the workload exactly as `perfbench/run.py --workload W --seed S
--seconds T` does (the same set-ups, passes, core pinning and limits,
through its own `measure`), then prints one row per verdict, slowest
median first: the samples taken, their median and their maximum, failures
charged the workload's limit as `summarize` charges them.  The last line
names the verdict that holds the `verdict_s_tail` sample, the
eleventh-slowest of the run.  perfbench/ is imported, never changed."""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import signal
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)  # registered first: its dataclass needs it


def report(samples, limit: float) -> str:
    """The per-verdict table of samples and the line naming the verdict of
    the tail sample, picked as `summarize` picks verdict_s_tail."""
    charged = [(s.seconds if s.passed else limit, s.name) for s in samples]
    by_name: dict[str, list[float]] = {}
    for t, name in charged:
        by_name.setdefault(name, []).append(t)
    rows = sorted(by_name.items(),
                  key=lambda kv: (-statistics.median(kv[1]), kv[0]))
    lines = ["| verdict | samples | median s | max s |", "|---|---|---|---|"]
    lines += [f"| {name} | {len(ts)} | {statistics.median(ts):.6f} | "
              f"{max(ts):.6f} |" for name, ts in rows]
    ranked = sorted(charged, key=lambda c: c[0])
    k = max(len(ranked) - 11, 0)
    lines += ["", f"verdict_s_tail {ranked[k][0]:.6f} s, sample {k + 1} of "
              f"{len(ranked)}: {ranked[k][1]}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench.wl.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, bench._alarm)
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="times-", dir=bench.OUT_DIR)
    try:
        samples, passes, per_pass, _ = bench.measure(
            args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: {passes} pass(es) of "
          f"{per_pass} verdicts, {len(samples)} samples\n")
    print(report(samples, bench.wl.LIMITS[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
