"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one pass/fail line.  Sizes follow the stated desk-scale grid."""

import json
import pathlib
import time

from heckeverify import build_glN_rep, build_kit
from heckeverify.baxter import (calibrate_crossing, check_condition2, check_re,
                                check_unitarity, check_ybe)
from heckeverify.cli import RunConfig, run_suite
from heckeverify.hecke import (check_murphy_commutation, check_relations,
                               check_symmetric_commutant, check_tl_quotient,
                               murphy, murphy_tower, scalar_right)
from heckeverify.params import sample_params
from heckeverify.reporting import render_report
from heckeverify.transfer import (OneBoundaryChain, TwoBoundaryLattice, check_degeneration,
                                  check_factorized, verify_murphy_two_boundary)

from conftest import chain_edges

SEEDS = (101, 202, 303)
GOLDEN = pathlib.Path(__file__).parent / "golden" / "default_report.json"

_GRID_ONE_BOUNDARY = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)]
_GRID_TWO_BOUNDARY = [(2, 2), (2, 3), (3, 2)]


def record(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def reps_for(dim: int, sites: int):
    return [build_glN_rep(dim, sites, sample_params(seed)) for seed in SEEDS]


def test_criterion_01_relations():
    t0 = time.time()
    ok = True
    for dim, n in [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]:
        for rep in reps_for(dim, n):
            for family in ("A", "B", "C"):
                ok = ok and check_relations(rep, family).status == "pass"
    elapsed = time.time() - t0
    record(1, ok and elapsed < 60,
           f"A/B/C relations on the full grid at 3 specializations ({elapsed:.1f}s)")


def test_criterion_02_baxter():
    ok = True
    for dim in (2, 3):
        chis = set()
        for seed in SEEDS:
            rep = build_glN_rep(dim, 2, sample_params(seed))
            ok = ok and check_ybe(rep, seed=seed).status == "pass"
            ok = ok and check_re(rep, "left", seed=seed).status == "pass"
            ok = ok and check_re(rep, "right", seed=seed).status == "pass"
            ok = ok and all(r.status == "pass" for r in check_unitarity(rep))
            chi, _ = calibrate_crossing(rep)
            chis.add(chi == rep.params.q ** (2 * dim))
        ok = ok and chis == {True}  # one formula, stable across seeds
    record(2, ok, "Yang-Baxter, both reflections, unitarity, unique stable crossing")


def test_criterion_03_one_boundary_hierarchy():
    ok = True
    worst = 0.0
    for dim, n in _GRID_ONE_BOUNDARY:
        for rep in reps_for(dim, n):
            t0 = time.time()
            chain = OneBoundaryChain(rep, n)
            ok = ok and chain.check_aux_trace().status == "pass"
            reports = chain_edges(chain)
            ok = ok and all(r.status == "pass" for r in reports)
            worst = max(worst, time.time() - t0)
    record(3, ok and worst < 120,
           f"one-boundary hierarchy edges on the full grid (worst case {worst:.1f}s)")


def test_criterion_04_corollary():
    ok = True
    for dim, n in _GRID_ONE_BOUNDARY:
        for rep in reps_for(dim, n):
            reports = chain_edges(OneBoundaryChain(rep, n, trivial_k=True))
            ok = ok and all(r.status == "pass" for r in reports)
    record(4, ok, "trivial-boundary hierarchy yields the A-type elements")


def test_criterion_05_two_boundary():
    ok = True
    for dim, n in _GRID_TWO_BOUNDARY:
        for rep in reps_for(dim, n):
            kit = build_kit(rep)
            ok = ok and all(r.status == "pass" for r in check_condition2(rep, kit))
            lattice = TwoBoundaryLattice(rep, kit)
            reports = verify_murphy_two_boundary(
                lattice, murphy_tower(rep, "C"), murphy_tower(rep, "C", True))
            ok = ok and len(reports) == 4
            ok = ok and all(r.status == "pass" for r in reports + check_factorized(lattice))
    record(5, ok, "two-boundary trace conditions, all four edge evaluations, "
                  "and the factorized forms at both edges")


def test_criterion_06_degeneration():
    ok = True
    for dim, n in _GRID_TWO_BOUNDARY:
        for seed in SEEDS:
            rep_deg = scalar_right(build_glN_rep(dim, n, sample_params(seed)))
            chain = OneBoundaryChain(rep_deg, n)
            element = murphy(rep_deg, "B", n - 1)
            ok = ok and check_degeneration(rep_deg, chain, element).status == "pass"
    record(6, ok, "scalar right boundary reduces to the one-boundary edge")


def test_criterion_07_murphy_structure():
    ok = True
    for dim, n in [(2, 3), (2, 4), (3, 2)]:
        for rep in reps_for(dim, n):
            for family in ("A", "B", "C"):
                if family == "A" and n < 2:
                    continue
                tower = murphy_tower(rep, family)
                ok = ok and check_murphy_commutation(rep, family, tower).status == "pass"
            b_tower = murphy_tower(rep, "B")
            c_both = murphy_tower(rep, "C") + murphy_tower(rep, "C", True)
            ok = ok and check_symmetric_commutant(rep, "B", b_tower).status == "pass"
            ok = ok and check_symmetric_commutant(rep, "C", c_both).status == "pass"
    record(7, ok, "pairwise commutation and centralizing power sums")


def test_criterion_08_tl_quotient():
    ok = True
    for n in (2, 3):
        for rep in reps_for(2, n):
            ok = ok and isinstance(check_tl_quotient(rep), tuple)   # else the failing relation
    golden = json.loads(GOLDEN.read_text())
    recorded = [r for r in golden["reports"]
                if r["check_name"] == "tl/quotient" and "kappa_minus" in (r.get("ratio") or "")]
    ok = ok and len(recorded) == 3
    record(8, ok, "quotient relations hold; boundary scalars recorded in the golden report")


def test_criterion_09_integrability():
    ok = True
    for n in (2, 3, 4):
        for seed, rep in zip(SEEDS, reps_for(2, n)):
            chain = OneBoundaryChain(rep, n)
            ok = ok and chain.check_commuting_family(seed=seed).status == "pass"
            ok = ok and all(r.status == "pass" for r in chain.check_hamiltonian())
    record(9, ok, "commuting family and Hamiltonian span/commutation")


def test_criterion_10_determinism():
    cfg = RunConfig()
    text = render_report(run_suite(cfg), cfg.echo())
    golden = GOLDEN.read_text()
    ok = text == golden
    record(10, ok, "default suite reproduces the golden report byte-exactly")
