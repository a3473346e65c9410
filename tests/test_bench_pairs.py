"""tools/bench_pairs.py: the per-metric verdict against BENCHMARK.json's
bounds, and the comma-separated workload list."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
           {"name": "verdict_s_p50", "better": "lower", "bound": 0.25}]


def _pairs(parent: dict, change: dict):
    """Three pairs whose runs read the given values, metric by metric."""
    def run(values, k):
        return {"metrics": {n: {"value": v[k]} for n, v in values.items()}}
    return [(seed, "parent", run(parent, k), run(change, k))
            for k, seed in enumerate((1, 2, 3))]


def _verdicts(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line in ("worse past bound", "within bound")]


def test_report_flags_a_median_worse_past_its_bound():
    # verdicts/s: median 100 -> 74 (past 25% lower); p50: 1.0 -> 1.3 (past)
    text = bench_pairs.report(METRICS, _pairs(
        {"verdicts_per_s": [90, 100, 110], "verdict_s_p50": [1.0, 1.0, 1.1]},
        {"verdicts_per_s": [70, 74, 200], "verdict_s_p50": [1.3, 1.3, 0.1]}))
    assert _verdicts(text) == ["worse past bound"] * 2


def test_report_passes_a_median_within_its_bound():
    # 100 -> 76 and 1.0 -> 1.24: worse, but by less than 25%; and gains
    for change in ({"verdicts_per_s": [76] * 3, "verdict_s_p50": [1.24] * 3},
                   {"verdicts_per_s": [300] * 3, "verdict_s_p50": [0.5] * 3}):
        text = bench_pairs.report(METRICS, _pairs(
            {"verdicts_per_s": [100] * 3, "verdict_s_p50": [1.0] * 3}, change))
        assert _verdicts(text) == ["within bound"] * 2


def test_worse_past_bound_is_relative_to_the_parent_median():
    higher, lower = METRICS
    assert bench_pairs.worse_past_bound(higher, 8.0, 5.9)
    assert not bench_pairs.worse_past_bound(higher, 8.0, 6.1)
    assert bench_pairs.worse_past_bound(lower, 8.0, 10.1)
    assert not bench_pairs.worse_past_bound(lower, 8.0, 9.9)


def test_workloads_are_a_comma_separated_list(monkeypatch, capsys):
    runs = []

    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run(checkout, workload, seed, seconds):
        runs.append((checkout, workload, seed, seconds))
        return {"correct": True,
                "metrics": {n: {"value": 1.0} for n in names}}
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["P", "C", "--workload", "scan,search",
                             "--seeds", "1-2"]) == 0
    assert [r[:3] for r in runs] == [
        ("P", "scan", 1), ("C", "scan", 1), ("C", "scan", 2), ("P", "scan", 2),
        ("P", "search", 1), ("C", "search", 1), ("C", "search", 2),
        ("P", "search", 2)]
    out = capsys.readouterr().out
    assert "# scan, 2 pairs" in out and "# search, 2 pairs" in out
    assert "worse past bound" not in out


def _ten_pairs(parent: list, change: list):
    """Ten pairs whose runs read the given verdicts_per_s values."""
    def run(v):
        return {"metrics": {"verdicts_per_s": {"value": v}}}
    return [(seed, "parent", run(p), run(c))
            for seed, (p, c) in enumerate(zip(parent, change))]


def test_claim_needs_nine_wins_of_ten_and_a_gain_past_the_iqr():
    higher = METRICS[0]
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5
    shown = [p + 10 for p in parent]
    assert bench_pairs.gain_shown(higher, _ten_pairs(parent, shown))
    # nine wins: still shown; eight: not, though the median moves alike
    assert bench_pairs.gain_shown(
        higher, _ten_pairs(parent, shown[:9] + [parent[9] - 1]))
    assert not bench_pairs.gain_shown(
        higher, _ten_pairs(parent, shown[:8] + [p - 1 for p in parent[8:]]))
    # ten wins by a median gain of 4 against the parent's IQR of 4.5
    assert not bench_pairs.gain_shown(higher, _ten_pairs(
        parent, [p + 4 for p in parent]))
    # lower is better: the gain is the parent's median less the change's
    lower = METRICS[1]
    pairs = [(k, "parent", {"metrics": {"verdict_s_p50": {"value": p}}},
              {"metrics": {"verdict_s_p50": {"value": p / 2}}})
             for k, p in enumerate(parent)]
    assert bench_pairs.gain_shown(lower, pairs)


def test_claim_is_printed_after_its_workload(monkeypatch, capsys):
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run(checkout, workload, seed, seconds):
        v = 2.0 if checkout == "C" else 1.0 + seed / 100
        return {"correct": True,
                "metrics": {n: {"value": v} for n in names}}
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["P", "C", "--workload", "scan,search",
                             "--seeds", "1-10", "--claim",
                             "search:verdicts_per_s", "--claim",
                             "search:verdict_s_p50"]) == 0
    out = capsys.readouterr().out
    scan, search = out.split("# search")
    assert "claim" not in scan
    assert "claim search:verdicts_per_s: gain shown" in search
    assert "claim search:verdict_s_p50: gain not shown" in search
