"""Compare two checkouts on workloads over interleaved pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload scan[,search,...] --seeds 81-90 [--seconds 10] \
        [--claim search:verdicts_per_s ...]

For each workload in turn and each seed, runs `perfbench/run.py
--workload W --seed S --seconds T` once in each checkout, one run at a
time; the side that runs first alternates from pair to pair (the parent
first on the first pair), so a drifting host weighs on both sides alike.
Then prints, per workload, for every end-to-end metric the repository's
BENCHMARK.json lists:

- a per-pair table, parent → change, with the side that ran first;
- the pairs in which the change is better (BENCHMARK.json's "better");
- each side's median and quartiles, and the median gain against the
  parent's interquartile range;
- `worse past bound` when the change's median is worse than the
  parent's by more than the metric's bound (a fraction of the parent's
  median), `within bound` otherwise.

A claimed gain should win at least 9 pairs of 10 and move the median by
more than the parent's interquartile range; no metric should read
`worse past bound`.  Each `--claim WORKLOAD:METRIC` prints, after that
workload's tables, `gain shown` when the pairs meet that rule (the change
better in at least nine tenths of them, and its median gain larger than
the parent's interquartile range) and `gain not shown` otherwise.
Quartiles are the `statistics.quantiles(n=4, method="inclusive")` cut
points."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    """'81-90' -> 81..90; '5' -> [5]; '1,3,7-8' -> [1, 3, 7, 8]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return out


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one perfbench run in the checkout, as a dict."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def worse_past_bound(metric: dict, parent: float, change: float) -> bool:
    """Whether the change's median is worse than the parent's by more
    than the metric's bound, a fraction of the parent's median."""
    slack = metric["bound"] * abs(parent)
    if metric["better"] == "higher":
        return change < parent - slack
    return change > parent + slack


def sides(metric: dict, pairs: list[tuple]):
    """The metric's parent values, change values, and whether the change
    is better, pair by pair, over pairs (seed, first, parent run, change
    run)."""
    name, higher = metric["name"], metric["better"] == "higher"
    par = [p["metrics"][name]["value"] for _, _, p, _ in pairs]
    chg = [c["metrics"][name]["value"] for _, _, _, c in pairs]
    return par, chg, [c > p if higher else c < p for p, c in zip(par, chg)]


def gain_shown(metric: dict, pairs: list[tuple]) -> bool:
    """Whether the pairs show a gain in the metric: the change better in
    at least 9 pairs of 10, and its median better than the parent's by
    more than the parent's interquartile range."""
    par, chg, better = sides(metric, pairs)
    (p1, pm, p3), cm = quartiles(par), quartiles(chg)[1]
    gain = cm - pm if metric["better"] == "higher" else pm - cm
    return 10 * sum(better) >= 9 * len(pairs) and gain > p3 - p1


def report(metrics: list[dict], pairs: list[tuple]) -> str:
    """The per-metric tables and summaries of pairs (seed, first, parent
    run, change run)."""
    lines = []
    for m in metrics:
        par, chg, better = sides(m, pairs)
        lines += [f"## {m['name']} ({m['better']} is better, "
                  f"bound {m['bound']})",
                  "", "| seed | first | parent | change | change/parent "
                  "| change better |", "|---|---|---|---|---|---|"]
        for (seed, first, _, _), p, c, b in zip(pairs, par, chg, better):
            ratio = f"{c / p:.3f}" if p else "-"
            lines.append(f"| {seed} | {first} | {p:.6g} | {c:.6g} | {ratio} "
                         f"| {'yes' if b else 'no'} |")
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        gain = cm - pm if m["better"] == "higher" else pm - cm
        lines += ["", f"wins: {sum(better)}/{len(pairs)}",
                  f"parent: median {pm:.6g} [q1 {p1:.6g}, q3 {p3:.6g}]",
                  f"change: median {cm:.6g} [q1 {c1:.6g}, q3 {c3:.6g}]",
                  f"median gain {gain:.6g} against a parent IQR of "
                  f"{p3 - p1:.6g}",
                  "worse past bound" if worse_past_bound(m, pm, cm)
                  else "within bound", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, type=lambda s: s.split(","),
                    help="a workload, or a comma-separated list of them")
    ap.add_argument("--seeds", required=True, type=seeds,
                    help="seeds, as A-B, a list, or both: 81-90 or 1,3,7-8")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--claim", action="append", default=[],
                    type=lambda s: tuple(s.split(":", 1)),
                    help="WORKLOAD:METRIC whose gain to judge; repeatable")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    by_name = {m["name"]: m for m in metrics}
    for claim in args.claim:
        if len(claim) != 2 or claim[0] not in args.workload or \
                claim[1] not in by_name:
            ap.error(f"--claim {':'.join(claim)}: not WORKLOAD:METRIC of "
                     f"a listed workload and a BENCHMARK.json metric")
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run(getattr(args, side), workload, seed,
                                args.seconds)
                print(f"{workload} seed {seed} {side}: correct "
                      f"{got[side]['correct']}", file=sys.stderr)
            pairs.append((seed, order[0], got["parent"], got["change"]))
        print(f"# {workload}, {len(pairs)} pairs, --seconds "
              f"{args.seconds:g}\n\ncorrect: parent "
              f"{sum(p['correct'] for _, _, p, _ in pairs)}/{len(pairs)}, "
              f"change {sum(c['correct'] for _, _, _, c in pairs)}/"
              f"{len(pairs)}\n")
        print(report(metrics, pairs), flush=True)
        for w, name in args.claim:
            if w == workload:
                shown = gain_shown(by_name[name], pairs)
                print(f"claim {w}:{name}: gain {'' if shown else 'not '}"
                      f"shown", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
