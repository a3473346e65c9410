"""tools/verdict_times.py: per-verdict medians and maxima, and the verdict
whose sample is the run's verdict_s_tail."""

import importlib.util
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "verdict_times", ROOT / "tools" / "verdict_times.py")
verdict_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_times)
Sample = verdict_times.bench.Sample


def _samples(failed=()):
    """Seven passes: 'slow' at 50..56, 'mid' at 30..36, 'fast' at 1 and 2,
    and the named failures once each at 0.5."""
    out = []
    for k in range(7):
        out += [Sample("slow", 50.0 + k, True, ""),
                Sample("mid", 30.0 + k, True, ""),
                Sample("fast", 1.0, True, ""), Sample("fast", 2.0, True, "")]
    out += [Sample(name, 0.5, False, "wrong answer") for name in failed]
    return out


def _rows(text):
    return [line.split(" | ") for line in text.splitlines()
            if line.startswith("| ") and not line.startswith("| verdict")]


def test_tail_is_the_eleventh_slowest_sample():
    # slow's seven samples are above it, and mid's three slowest
    text = verdict_times.report(_samples(), limit=100.0)
    assert text.splitlines()[-1] == \
        "verdict_s_tail 33.000000 s, sample 18 of 28: mid"
    assert [r[0][2:] for r in _rows(text)] == ["slow", "mid", "fast"]
    assert _rows(text)[1][1:] == ["7", "33.000000", "36.000000 |"]
    assert _rows(text)[2][1:] == ["14", "1.500000", "2.000000 |"]


def test_failures_are_charged_the_limit():
    # one failure at the limit of 100 s joins the ten slowest
    text = verdict_times.report(_samples(["broken"]), limit=100.0)
    assert text.splitlines()[-1] == \
        "verdict_s_tail 34.000000 s, sample 19 of 29: mid"
    assert _rows(text)[0][:3] == ["| broken", "1", "100.000000"]


def test_main_prints_the_run(monkeypatch, capsys):
    got = []

    def measure(workload, seed, seconds, tmp):
        got.append((workload, seed, seconds, os.path.isdir(tmp)))
        return _samples(), 7, 4, 0.1
    monkeypatch.setattr(verdict_times.bench, "measure", measure)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert verdict_times.main(["--workload", "search", "--seed", "11",
                               "--seconds", "0.5"]) == 0
    assert got == [("search", 11, 0.5, True)]
    out = capsys.readouterr().out
    assert out.startswith("# search seed 11: 7 pass(es) of 4 verdicts, "
                          "28 samples")
    assert out.rstrip().endswith("sample 18 of 28: mid")
