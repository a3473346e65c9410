"""mlw benchmark: oracle-checked verdicts, timed from outside the library.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; mlw is imported from `src/`.  A run
sets the workload up three to nine times (setup_s is the median) and, after
each set-up, measures its share of whole passes over the workload's
verdicts, one verdict at a time, for about --seconds seconds of passes in
all (at least one pass).  Every verdict is checked against its oracle.  The last line of standard output is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass (see README.md)."""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_workloads as wl  # noqa: E402
from bench_trace import Tracer, layer_metrics  # noqa: E402

# Set-up repeats at least SETUP_REPS times and as often as SETUP_FILL
# seconds of the first one allow (at most SETUP_MAX times), so a cheap
# set-up gets a steadier median.
SETUP_REPS, SETUP_FILL, SETUP_MAX = 3, 1.0, 9
# At most seven passes: scan fails one verdict per pass at the seed, so its
# tail (the eleventh-slowest sample) is the median of the seven samples of
# its slowest passing verdict rather than an extreme of them.
MAX_PASSES = 7
OUT_DIR = os.path.join(ROOT, ".perfbench")


class VerdictTimeout(BaseException):
    """Raised by the alarm when a verdict runs past its limit.  A
    BaseException, so library code catching Exception cannot swallow it."""


def _alarm(signum, frame):
    raise VerdictTimeout()


@dataclass
class Sample:
    name: str
    seconds: float
    passed: bool
    error: str
    known: bool = False  # failed as a documented seed defect


# --------------------------------------------------------------------------
# Set-up

def import_mlw() -> wl.Mlw:
    """Import every mlw layer afresh from the checkout's src/."""
    for name in [k for k in sys.modules if k == "mlw" or k.startswith("mlw.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module(f"mlw.{n}") for n in wl.Mlw.LAYERS}
    where = os.path.dirname(os.path.abspath(mods["models"].__file__))
    if where != os.path.join(ROOT, "src", "mlw"):
        raise RuntimeError(f"mlw imported from {where}, not from src/")
    return wl.Mlw(mods)


def setup_once(workload: str, seed: int, tmp: str, tracer=None):
    """Import, generate the seeded inputs and prebuild.  Returns (mlw
    modules, verdicts, seconds).  With a tracer, the generation is traced
    (verdict id "setup") and the tracer's own cost is not counted."""
    t0 = perf_counter()
    m = import_mlw()
    if tracer is not None:
        tracer.verdict, extra0 = "setup", tracer.extra
        tracer.install(m)
    args = (m, random.Random(seed), tmp)
    if workload == "cli":
        args += (ROOT, wl.LIMITS["cli"])
    verdicts = wl.SETUPS[workload](*args)
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        seconds -= tracer.extra - extra0
    return m, verdicts, seconds


# --------------------------------------------------------------------------
# Passes

def _in_process(m, v, tracer, tmp):
    """Run a cli verdict's argument vector through mlw.cli.main in this
    process (traced), counting exit codes that differ from the oracle's."""
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = m.cli.main(list(v.argv))
    finally:
        os.chdir(cwd)
    if code != v.code:
        tracer.bump("exit_mismatch")


def run_pass(m, verdicts, limit, tmp, tracer=None, tag="") -> list[Sample]:
    out = []
    for k, v in enumerate(verdicts):
        if tracer is not None:
            tracer.verdict, extra0 = f"{tag}{k}", tracer.extra
        error, t1, res = "", None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = perf_counter()
        try:
            try:
                res = v.run()
            finally:  # an alarm due here still lands in the handlers below
                signal.setitimer(signal.ITIMER_REAL, 0)
                t1 = perf_counter()
        except (VerdictTimeout, subprocess.TimeoutExpired):
            error = f"over the {limit:g} s limit"
        except Exception as e:  # a raising verdict is a failed verdict
            error = f"{type(e).__name__}: {e}"
        if t1 is None:
            t1 = perf_counter()
        dt = t1 - t0
        if tracer is not None:
            dt -= tracer.extra - extra0
            if v.kind == "cli":
                tracer.add_span("cli.process", t0, t1)
                if not error and res[0] != v.code:
                    tracer.bump("exit_mismatch")
                _in_process(m, v, tracer, tmp)
        if not error:
            try:
                if not v.check(res):
                    error = "wrong answer"
            except Exception as e:  # an oracle that cannot read the answer
                error = f"wrong answer ({type(e).__name__}: {e})"
        if not error and dt > limit:
            error = f"over the {limit:g} s limit"
        known = bool(error) and v.known is not None and v.known(res, error)
        out.append(Sample(v.name, dt, not error, error, known))
    return out


def measure(workload: str, seed: int, seconds: float, tmp: str):
    """Set up repeatedly and, after each set-up, run that repetition's
    share of the passes, so the passes of a short run are spread over the
    whole run.  Passes go on while the last one still fits in `seconds` of
    verdict time; there is at least one pass and at most MAX_PASSES.

    Returns (samples, passes, verdicts per pass, median setup seconds)."""
    limit = wl.LIMITS[workload]
    times, samples, passes, measured, last = [], [], 0, 0.0, 0.0
    reps = SETUP_REPS
    while len(times) < reps:
        m = verdicts = None  # release the previous repetition's inputs
        m, verdicts, t = setup_once(workload, seed, tmp)
        times.append(t)
        if len(times) == 1:
            reps = min(max(SETUP_REPS, math.ceil(SETUP_FILL / t)), SETUP_MAX)
        share = len(times) / reps
        while passes < MAX_PASSES * share and (
                passes == 0 or measured + last <= seconds * share):
            got = run_pass(m, verdicts, limit, tmp)
            last = sum(x.seconds for x in got)  # oracles are not counted
            samples += got
            measured += last
            passes += 1
    return samples, passes, len(verdicts), statistics.median(times)


def summarize(samples, limit):
    """End-to-end figures of a list of samples; failures charged `limit`."""
    charged = sorted(s.seconds if s.passed else limit for s in samples)
    n = len(charged)
    good = sum(s.passed for s in samples)
    k = max(n - 11, 0)  # highest order statistic with ten samples above it
    slowest = max((s for s in samples if s.passed),
                  key=lambda s: s.seconds, default=None)
    return {
        "slowest_passing": slowest,
        "verdicts_per_s": good / sum(charged),
        "verdict_s_p50": statistics.median(charged),
        "verdict_s_tail": charged[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "attempted": n,
        "failed": n - good,
        "unexpected": sum(not s.passed and not s.known for s in samples),
        "failed_ratio": (n - good) / n,
        "correct_ratio": good / n,
    }


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _report_failures(samples):
    seen = set()
    for s in samples:
        if not s.passed and s.name not in seen:
            seen.add(s.name)
            tag = " (known seed defect)" if s.known else ""
            print(f"  failed: {s.name}: {s.error}{tag}")


# --------------------------------------------------------------------------
# Traced run

def _source_lines() -> dict[str, float]:
    out, total = {}, 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    n = fh.read().count(b"\n")
                total += n
                if dirpath == os.path.join(ROOT, "src", "mlw") and \
                        f[:-3] in wl.Mlw.LAYERS:
                    out[f"{f[:-3]}.lines"] = n
    out["src.lines"] = total
    return out


def _import_seconds(reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import mlw.cli"],
                       env=wl.mlw_env(ROOT), check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_run(workload, seed, tmp):
    tracer = Tracer()
    m, verdicts, _ = setup_once(workload, seed, tmp, tracer)
    limit = wl.LIMITS[workload]
    plain = summarize(run_pass(m, verdicts, limit, tmp), limit)
    probe = wl.setup_probe(m, random.Random(seed), tmp, ROOT, wl.PROBE_LIMIT)
    tracer.install(m)
    try:
        samples = run_pass(m, verdicts, limit, tmp, tracer, "v")
        probed = run_pass(m, probe, wl.PROBE_LIMIT, tmp, tracer, "probe")
    finally:
        tracer.uninstall()
    _report_failures(probed)
    traced = summarize(samples, limit)
    traced["unexpected"] += (plain["unexpected"]
                             + summarize(probed, wl.PROBE_LIMIT)["unexpected"])
    metrics = layer_metrics(tracer)
    iso = [s for v, s in zip(verdicts + probe, samples + probed)
           if v.kind == "iso"]
    metrics["analysis.iso_correct_ratio"] = (sum(s.passed for s in iso)
                                             / len(iso))
    metrics["cli.import_s"] = _import_seconds()
    metrics.update(_source_lines())
    metrics["trace.overhead_verdicts_per_s"] = (traced["verdicts_per_s"]
                                                - plain["verdicts_per_s"])
    print(f"tracing overhead on {workload}: verdicts_per_s "
          f"{plain['verdicts_per_s']:.4f} untraced, "
          f"{traced['verdicts_per_s']:.4f} traced, "
          f"{len(tracer.spans)} spans")
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"),
                {"workload": workload, "seed": seed})
    return traced, metrics


# --------------------------------------------------------------------------

UNITS = {"verdicts_per_s": "1/s", "verdict_s_p50": "s", "verdict_s_tail": "s",
         "correct_ratio": "ratio", "peak_rss_mb": "MiB", "setup_s": "s"}


def _layer_unit(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
                         ("_bytes", "bytes"), (".lines", "lines")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mlw", "__init__.py")):
        print(f"error: no mlw sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Every timing of a run comes from one core (children inherit it): the
    # cores of a small shared machine can differ in speed by a fifth.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.trace:
            fig, layers = traced_run(args.workload, args.seed, tmp)
            metrics = {k: {"value": v, "unit": _layer_unit(k)}
                       for k, v in layers.items()}
        else:
            limit = wl.LIMITS[args.workload]
            samples, passes, per_pass, setup_s = measure(
                args.workload, args.seed, args.seconds, tmp)
            fig = summarize(samples, limit)
            fig["peak_rss_mb"] = _peak_rss_mb(args.workload == "cli")
            fig["setup_s"] = setup_s
            print(f"{args.workload} seed {args.seed}: {passes} pass(es) of "
                  f"{per_pass} verdicts, {fig['attempted']} attempted, "
                  f"{fig['failed']} failed, failed_ratio "
                  f"{fig['failed_ratio']:.6f}; verdict_s_tail is the "
                  f"p{fig['tail_percentile']:.1f} of {fig['attempted']} "
                  f"samples")
            if fig["slowest_passing"] is not None:
                print(f"  slowest passing verdict: "
                      f"{fig['slowest_passing'].seconds:.3f} s, "
                      f"{fig['slowest_passing'].name} (limit {limit:g} s)")
            _report_failures(samples)
            metrics = {k: {"value": fig[k], "unit": u}
                       for k, u in UNITS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Outputs are correct when every failure is a documented seed defect
    # failing in its documented way; those still count in `failed`.
    print(json.dumps({"correct": fig["unexpected"] == 0,
                      "attempted": fig["attempted"], "failed": fig["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
