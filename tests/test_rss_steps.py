"""tools/rss_steps.py: the RSS after import and set-up, the steps that grow
it, and the distance-table bytes of the live structures."""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "rss_steps", ROOT / "tools" / "rss_steps.py")
rss_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rss_steps)

MIB = 1024  # KiB


def _rows(text):
    return [line.split(" | ") for line in text.splitlines()
            if line.startswith("| ") and not line.startswith("| step")]


def test_only_steps_growing_by_a_mib_are_listed():
    steps = [("run", "small", 100 * MIB, 100 * MIB + 1023),
             ("check", "small", 100 * MIB + 1023, 101 * MIB + 1023),
             ("run", "big", 101 * MIB + 1023, 160 * MIB)]
    text = rss_steps.report(40 * MIB, 100 * MIB, steps, [])
    lines = text.splitlines()
    assert lines[:2] == ["ru_maxrss after import: 40.0 MiB",
                         "ru_maxrss after set-up: 100.0 MiB"]
    assert "steps growing ru_maxrss by at least 1 MiB: 2 of 3" in lines
    assert _rows(text) == [["| check", "small", "101.0", "102.0 |"],
                           ["| run", "big", "102.0", "160.0 |"]]


def test_no_table_header_without_growth():
    text = rss_steps.report(40 * MIB, 50 * MIB, [("run", "a", 1, 2)], [])
    assert "steps growing ru_maxrss by at least 1 MiB: 0 of 1" in text
    assert "| step |" not in text
    assert text.splitlines()[-1] == \
        "dmat after set-up: 0 tables, 0.0 MiB in total; 0 distinct, 0.0 MiB"


def test_shared_tables_count_once_among_the_distinct():
    tables = [(1, 3 * 2**20), (2, 2**20), (1, 3 * 2**20), (1, 3 * 2**20)]
    text = rss_steps.report(0, 0, [], tables)
    assert text.splitlines()[-1] == \
        "dmat after set-up: 4 tables, 10.0 MiB in total; 2 distinct, 4.0 MiB"


def test_live_tables_reads_every_sort_of_every_live_structure():
    class Structure:
        def __init__(self, *tables):
            self.sorts = {f"s{i}": types.SimpleNamespace(dmat=t)
                          for i, t in enumerate(tables)}
    shared, own = np.zeros((4, 4), np.int64), np.zeros((2, 2), np.int64)
    held = [Structure(shared, own), Structure(shared)]
    got = rss_steps.live_tables(Structure)
    assert sorted(got) == sorted([(id(shared), 128), (id(own), 32),
                                  (id(shared), 128)])
    del held


def test_main_prints_the_run(monkeypatch, capsys):
    got = []

    class Verdict:
        def __init__(self, name, fails=False):
            self.name, self.fails = name, fails

        def run(self):
            got.append(("run", self.name))
            if self.fails:
                raise ValueError("no answer")
            return self.name

        def check(self, res):
            got.append(("check", res))
            return True
    structures = types.SimpleNamespace(FiniteStructure=type("FS", (), {}))

    def setup_once(workload, seed, tmp):
        got.append((workload, seed))
        return (types.SimpleNamespace(structures=structures),
                [Verdict("a"), Verdict("b", fails=True)], 0.1)
    monkeypatch.setattr(rss_steps, "GROWTH_KIB", 0)  # list every step
    monkeypatch.setattr(rss_steps.bench, "import_mlw", lambda: None)
    monkeypatch.setattr(rss_steps.bench, "setup_once", setup_once)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert rss_steps.main(["--workload", "scan", "--seed", "7"]) == 0
    assert got == [("scan", 7), ("run", "a"), ("check", "a"), ("run", "b")]
    out = capsys.readouterr().out
    assert out.startswith("# scan seed 7: one set-up, one pass of 2 verdicts")
    assert [r[:2] for r in _rows(out)] == [
        ["| run", "a"], ["| check", "a"], ["| run (ValueError)", "b"]]
    assert out.rstrip().endswith("0 distinct, 0.0 MiB")
