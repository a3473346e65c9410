"""Record the benchmark's end-to-end metrics in BENCH_<n>.json.

    python3 tools/bench_record.py 10

Runs `perfbench/run.py --seconds 10` on each of the four workloads at
fixed seeds, one run at a time, and writes BENCH_<n>.json at the root of
the checkout: every run's last-line metrics, their median per workload,
the line count of each `src/mlw/*.py` file and the interpreter and numpy
versions.  Timings are wall-clock on whatever machine runs this, so
compare only files recorded on the same host."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("validate", "scan", "search", "cli")
SEEDS = (1, 2, 3)
SECONDS = 10


def run(workload: str, seed: int) -> dict:
    """The last line of one perfbench run, as a dict."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def line_counts() -> dict:
    src = os.path.join(ROOT, "src", "mlw")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                counts[name] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = ap.parse_args(argv)
    runs, medians = [], {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            last = run(workload, seed)
            print(f"{workload} seed {seed}: correct {last['correct']}",
                  file=sys.stderr)
            runs.append({"workload": workload, "seed": seed, **last})
        values: dict = {}
        for r in runs[-len(SEEDS):]:
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        medians[workload] = {k: statistics.median(v)
                             for k, v in values.items()}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS}",
        "seeds": list(SEEDS),
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "cpus": os.cpu_count()},
        "median": medians,
        "runs": runs,
        "lines": line_counts(),
    }
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
