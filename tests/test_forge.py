"""Forcing engine: conditions, extension, symmetry, runs, premodels."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from mlw import forge
from mlw.forge import (TRIVIAL, BankRefusal, ForcingCondition, Permutation,
                       Witness, WitnessBank, bind_constants, build_generic,
                       compatible, cond_check, conjoin, constant_indices,
                       extends, extract_premodel, homogeneity_experiment,
                       parse_schedule, permute_condition, rename_constants,
                       transcript, verify_run)
from mlw.conditions import normalize_condition, open_cond
from mlw.formulas import Rat, fmonus, parse_formula
from mlw.models import build_N
from mlw.structures import eval_table, load_structure, save_structure
from mlw.values import ONE


@pytest.fixture(scope="module")
def bank():
    return WitnessBank({"a": build_N(3, 3), "b": build_N(2, 2)})


def _rand_condition(rng):
    i, j = rng.sample(range(4), 2)
    num = rng.randrange(1, 4)
    f = parse_formula(f"absdiff(d(d{i}, d{j}), {num}/4)")
    return ForcingCondition(f, tuple(sorted((i, j))), Fraction(1, 4))


# --------------------------------------------------------------------------
# condition basics

def test_constant_indices_and_renaming():
    f = parse_formula("max(d(d0, d2), d(d2, d5))")
    assert constant_indices(f) == (0, 2, 5)
    g = rename_constants(f, Permutation.of({0: 1, 1: 0}).apply)
    assert constant_indices(g) == (1, 2, 5)
    assert bind_constants(f) != f


def test_cond_check_finds_first_witness(bank):
    p = ForcingCondition(parse_formula("absdiff(d(d0, d1), 1/2)"),
                         (0, 1), Fraction(1, 4))
    w = cond_check(p, bank)
    assert isinstance(w, Witness)
    assert w.model == "a"  # declaration order
    assert w.assignment == {0: "<0>", 1: "<0,0>"}  # first in point order
    p = ForcingCondition(parse_formula("absdiff(d(d2, d0), 1/3)"),
                         (0, 2), Fraction(1, 12))
    assert cond_check(p, bank).assignment == {0: "<0,0>", 2: "<0,0,0>"}


def test_cond_check_refuses_impossible(bank):
    p = ForcingCondition(parse_formula("neg(d(d0, d0))"),
                         (0,), Fraction(1, 2))
    r = cond_check(p, bank)
    assert isinstance(r, BankRefusal)
    assert "bank" in r.reason


def _holds(p, M, idxs, fixed=None):
    """The full table of p's demand ψ < ε over the constants idxs (the
    others at the points fixed names), compared in Python ints."""
    sort = M.only_sort()
    den, tab = eval_table(bind_constants(p.formula), M,
                          [(f"x{i}", sort) for i in idxs],
                          {f"x{i}": q for i, q in (fixed or {}).items()})
    return np.asarray(tab.astype(object) * p.eps.denominator
                      < p.eps.numerator * den, dtype=bool)


def _cond_check_full_table(p, B, fixed=None):
    """cond_check as one full-table scan per model, first hit by
    np.argwhere."""
    for name, M in B.items():
        free = [i for i in p.F if not (fixed and i in fixed)]
        sort = M.only_sort()
        try:
            sat = _holds(p, M, free, fixed)
        except KeyError:
            continue
        hits = np.argwhere(sat)
        if len(hits):
            assign = dict(fixed or {})
            assign.update({i: M.sorts[sort].points[j]
                           for i, j in zip(free, hits[0])})
            return Witness(name, {i: assign[i] for i in p.F})
    return BankRefusal("bank-relative inconsistency",
                       "no assignment in any bank model satisfies the demand")


def _random_demand(rng):
    """A max or min of one to three atoms over the constants d0..d2; one
    atom in eight can never hold."""
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        i, j = rng.randrange(3), rng.randrange(3)
        q = f"{rng.randrange(0, 5)}/4"
        atoms.append(rng.choice([
            f"absdiff(d(d{i}, d{j}), {q})", f"monus(d(d{i}, d{j}), {q})",
            f"monus({q}, d(d{i}, d{j}))", f"neg(d(d{i}, d{i}))",
            f"inf x9 . max(d(d{i}, x9), monus({q}, d(x9, d{j})))"]))
    text = atoms[0] if len(atoms) == 1 else \
        f"{rng.choice(['max', 'min'])}({', '.join(atoms)})"
    f = parse_formula(text)
    return ForcingCondition(f, constant_indices(f),
                            rng.choice([Fraction(1, 8), Fraction(1, 4),
                                        Fraction(1, 3), Fraction(1, 2)]))


def test_cond_check_matches_a_full_table_scan(bank):
    rng = random.Random(17)
    pts = bank["a"].sorts["D1"].points
    kinds = set()
    for trial in range(150):
        p = _random_demand(rng)
        fixed = None
        if rng.random() < 0.5:  # pin some constants, perhaps off bank b
            fixed = {i: rng.choice(pts) for i in p.F if rng.random() < 0.5}
        got = cond_check(p, bank, fixed)
        assert got == _cond_check_full_table(p, bank, fixed), f"trial {trial}"
        kinds.add((type(got).__name__, bool(fixed)))
    assert kinds == {(k, f) for k in ("Witness", "BankRefusal")
                     for f in (False, True)}


# --------------------------------------------------------------------------
# the extension preorder

def test_conjoin_extends_and_is_transitive(bank):
    rng = random.Random(11)
    for _ in range(20):
        p = TRIVIAL
        q = conjoin(p, *_demand(rng))
        r = conjoin(q, *_demand(rng))
        assert extends(p, q, bank)
        assert extends(q, r, bank)
        assert extends(p, r, bank)  # transitivity along the chain
        assert extends(q, q, bank)  # reflexivity


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 2)])
def test_a_demand_below_no_positive_bound_is_refused(eps):
    with pytest.raises(ValueError, match="open condition needs a positive "
                                         "bound"):
        conjoin(TRIVIAL, parse_formula("d(d0, d1)"), eps)


def test_a_demand_is_rescaled_as_its_normal_form():
    f = parse_formula("d(d0, d1)")
    for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
        assert conjoin(TRIVIAL, f, eps).formula == \
            normalize_condition(open_cond(f, eps)).formula


def _demand(rng):
    i, j = rng.sample(range(3), 2)
    return (parse_formula(f"monus(d(d{i}, d{j}), {rng.randrange(1, 3)}/3)"),
            Fraction(1, 2))


def _extends_full_table(p, q, B):
    """extends as two full-table scans per model: no assignment of q's
    constants satisfies q but not p."""
    if not set(p.F) <= set(q.F):
        return False
    return not any((_holds(q, M, q.F) & ~_holds(p, M, q.F)).any()
                   for _, M in B.items())


def test_extends_matches_a_full_table_scan(bank):
    """Random chains: a start that is trivial or a raw demand (its ε below
    1, at 1 or past it, so not in normal form), then three conjoined
    demands; extends both ways between every two links."""
    rng = random.Random(23)
    seen = set()
    for trial in range(20):
        start = _random_demand(rng)
        start = rng.choice([TRIVIAL, start, ForcingCondition(
            start.formula, start.F, rng.choice([ONE, Fraction(3, 2)]))])
        chain = [start]
        for _ in range(3):
            p = _random_demand(rng)
            chain.append(conjoin(chain[-1], p.formula, p.eps))
        for p in chain:
            for q in chain:
                got = extends(p, q, bank)
                assert got == _extends_full_table(p, q, bank), f"trial {trial}"
                seen.add(got)
    assert seen == {True, False}


def test_extends_requires_constant_containment(bank):
    p = ForcingCondition(parse_formula("d(d7, d7)"), (7,), Fraction(1, 2))
    assert not extends(p, TRIVIAL, bank)


# --------------------------------------------------------------------------
# symmetry

def test_permutation_is_a_bijection():
    h = Permutation.of({0: 1, 1: 0})
    assert h.apply(0) == 1 and h.apply(2) == 2
    assert h.inverse().apply(1) == 0
    with pytest.raises(ValueError):
        Permutation(((0, 1), (2, 1)))


def test_permutation_commutes_with_extension(bank):
    rng = random.Random(5)
    h = Permutation.of({0: 2, 2: 0, 1: 3, 3: 1})
    for trial in range(200):
        q = conjoin(TRIVIAL, *_demand(rng))
        r = conjoin(q, *_demand(rng))
        hq, hr = permute_condition(h, q), permute_condition(h, r)
        assert extends(q, r, bank) == extends(hq, hr, bank), f"trial {trial}"


def test_compatibility_via_max_construction(bank):
    p = ForcingCondition(parse_formula("monus(d(d0, d1), 1/2)"),
                         (0, 1), Fraction(1, 2))
    q = ForcingCondition(parse_formula("monus(d(d1, d2), 1/2)"),
                         (1, 2), Fraction(1, 2))
    ok, common, w = compatible(p, q, bank)
    assert ok and isinstance(w, Witness)
    assert common.F == (0, 1, 2)
    assert extends(p, common, bank) and extends(q, common, bank)


# --------------------------------------------------------------------------
# generic runs

SCHEDULE = """
metric 0 1 4
witness max(monus(d(d0,x3),1/2),monus(1/2,d(d0,x3))) F=0
axiom monus(d(x8,x9),1/2) F=0,1 k=4
"""


def test_schedule_round(bank):
    run = build_generic(parse_schedule(SCHEDULE), bank)
    assert run.ok
    assert all(s.ok for s in run.steps)
    assert verify_run(run, bank) == []


def test_transcript_is_deterministic(bank):
    sched = parse_schedule(SCHEDULE)
    t1 = transcript(build_generic(sched, bank))
    t2 = transcript(build_generic(sched, bank))
    assert t1 == t2
    assert "verdict=ok" in t1


def test_premodel_triangle(bank):
    sched = parse_schedule("metric 0 1 4\nmetric 0 2 4\nmetric 1 2 4")
    run = build_generic(sched, bank)
    M, report = extract_premodel(run)
    assert M.sorts["H"].size == 3
    assert report == []


def test_premodel_saves_round_trip(bank, tmp_path):
    """save -> load -> save of a premodel is byte-identical: its radius
    map comes back a map of the same strings, and [meta] keeps its order
    (density before radius).  A premodel need not be a metric (here d1
    and d2 lie at distance 0), so it is loaded unvalidated."""
    sched = parse_schedule("metric 0 1 4\nmetric 0 2 4\nmetric 1 2 4")
    M, _ = extract_premodel(build_generic(sched, bank))
    first, second = tmp_path / "a.model", tmp_path / "b.model"
    save_structure(M, str(first))
    loaded = load_structure(str(first), validate=False)
    save_structure(loaded, str(second))
    digest = [hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (first, second)]
    assert digest[0] == digest[1]
    assert loaded.meta == M.meta
    assert list(loaded.meta) == ["label", "density", "radius"]


# --------------------------------------------------------------------------
# omit steps

def _block_full_table(eng, phi, spec):
    """The first reassignment of d̄_F (point indices, in C order; the other
    constants as eng assigns them) with probe < 1, the probe being eng's
    condition conjoined with ε ∸ φ < ε/2, and ε ∸ φ = 0: two full tables
    from eval_table, first hit by np.argwhere; or None."""
    block = fmonus(Rat(spec.eps), phi)
    probe = conjoin(eng.cond, block, spec.eps / 2)
    fixed = {i: q for i, q in eng.assign.items() if i not in spec.F}
    sort = eng.M.only_sort()
    den, tab = eval_table(bind_constants(block), eng.M,
                          [(f"x{i}", sort) for i in spec.F],
                          {f"x{i}": q for i, q in fixed.items()})
    hits = np.argwhere(_holds(probe, eng.M, spec.F, fixed) & (tab == 0))
    return tuple(int(j) for j in hits[0]) if len(hits) else None


def _random_omit_schedule(rng):
    lines = [f"metric 0 {j} {rng.choice([4, 8])}"
             for j in range(1, rng.randrange(1, 4))]
    for _ in range(rng.randrange(1, 4)):
        spec = rng.choice(["s0_escape", "s0_branch"])
        lines.append(f"omit {spec} F=<{rng.randrange(3)}> "
                     f"n={rng.randrange(1, 4)} "
                     f"eps={rng.choice(['1/8', '1/3', '1/2', '3/4', '1'])}")
        if rng.random() < 0.5:
            lines.append(f"metric {rng.randrange(3)} 3 4")
    return "\n".join(lines)


def test_omit_steps_match_a_full_table_scan(bank, monkeypatch):
    """Each omit step's search, checked against _block_full_table: the
    step blocks a condition exactly when the reference finds a
    reassignment, and then assigns d̄_F its points."""
    block = forge._Engine._try_block
    outcomes = []

    def checked(eng, phi, spec):
        want = _block_full_table(eng, phi, spec)
        got = block(eng, phi, spec)
        assert (got is None) == (want is None)
        if want is not None:
            pts = eng.M.sorts[eng.M.only_sort()].points
            assert [eng.assign[i] for i in spec.F] == [pts[j] for j in want]
        outcomes.append(want is not None)
        return got

    monkeypatch.setattr(forge._Engine, "_try_block", checked)
    rng = random.Random(31)
    for _ in range(40):
        run = build_generic(parse_schedule(_random_omit_schedule(rng)), bank)
        assert verify_run(run, bank) == []
    assert set(outcomes) == {True, False}


def test_a_failed_omit_step_leaves_the_run_partial(bank):
    """An omit step that blocks none of its conditions fails on its own:
    the run goes on past it and ends partial, without a diagnosis."""
    run = build_generic(parse_schedule(
        "metric 0 1 8\nomit s0_escape F=<0> n=1 eps=1/2\nmetric 0 2 4"), bank)
    assert [s.ok for s in run.steps] == [True, False, True]
    assert run.steps[1].note == (
        "failed to block any of the first 1 fragment conditions at "
        "threshold 1/2 (bank-relative)")
    assert not run.ok and run.diagnosis == ""
    assert transcript(run).splitlines()[-1] == \
        "met=2/3 verdict=partial (bank-relative)"
    assert verify_run(run, bank) == []


def test_homogeneity_experiment_deterministic(bank):
    w1, rows1 = homogeneity_experiment(bank, pairs=10, seed=4)
    w2, rows2 = homogeneity_experiment(bank, pairs=10, seed=4)
    assert (w1, len(rows1)) == (w2, len(rows2))
    assert 0 <= w1 <= 10


def test_parse_schedule_rejects_garbage():
    with pytest.raises(ValueError):
        parse_schedule("frobnicate 1 2 3")
