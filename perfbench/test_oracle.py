"""The benchmark's oracle accepts the program's outputs and rejects corrupted ones.

Run from the repository root with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from heckeverify import build_glN_rep, build_kit, sample_params, t_two_boundary_direct  # noqa: E402

import oracle  # noqa: E402
from worker import Verdicts, _dense, _frac, _laurent  # noqa: E402

SITES = 3


@pytest.fixture(scope="module")
def rep():
    return build_glN_rep(2, SITES, sample_params(1000))


def _tower(rep, g=None):
    return oracle.Tower(2, SITES, g or _dense(rep.g_local), _dense(rep.g0_local),
                        _dense(rep.gN_local))


def _eigen(rep):
    return _frac(rep.params.q), _frac(rep.params.Q0), _frac(rep.params.QN)


def _first_nonzero(m):
    return next((r, c) for r, row in enumerate(m) for c, x in enumerate(row) if x)


@pytest.fixture(scope="module")
def low_edge(rep):
    """Lowest coefficient of T(u = v^N) and the Murphy element it must match."""
    lm = _laurent(t_two_boundary_direct(rep, build_kit(rep), SITES))
    lo, _ = oracle.degree_span(lm)
    tower = _tower(rep)
    return lm, oracle.coefficient(lm, lo), tower.matrix(tower.murphy_word("C", SITES - 1))


def test_program_outputs_pass(rep, low_edge):
    tower = _tower(rep)
    assert tower.relation_failures(*_eigen(rep)) == []
    assert tower.generator_mismatches({(1, 1): _dense(rep.braid[1]),
                                       (0, 1): _dense(rep.b0)}) == []
    assert tower.noncommuting_pairs("C") == []
    assert tower.central_failures() == []
    _, low, target = low_edge
    assert oracle.scalar_ratio(low, target) is not None


def test_perturbed_edge_coefficient_is_rejected(low_edge):
    lm, low, target = low_edge
    r, c = _first_nonzero(low)
    low = [list(row) for row in low]
    low[r][c] += 1
    assert oracle.scalar_ratio(low, target) is None

    # the same perturbation inside the Laurent matrix fails the report check
    lo, hi = oracle.degree_span(lm)
    lam = oracle.scalar_ratio(oracle.coefficient(lm, lo), target)
    entry = {"check_name": "prop2/minus", "params": {},
             "ratio": f"{lam.numerator}/{lam.denominator}", "degrees": f"[{lo}, {hi}]"}
    bad = [[dict(e) for e in row] for row in lm]
    bad[r][c][lo] += 1
    v = Verdicts([entry])
    v.edge("good", lm, True, target, "prop2/minus")
    v.edge("perturbed", bad, True, target, "prop2/minus")
    assert [res["ok"] for res in v.results] == [True, False]


def test_generator_with_one_corrupted_entry_is_rejected(rep):
    g = _dense(rep.g_local)
    r, c = _first_nonzero(g)
    g[r][c] += 1
    corrupted = _tower(rep, g)
    assert corrupted.relation_failures(*_eigen(rep)) != []
    assert corrupted.noncommuting_pairs("C") != []

    # a program generator with one corrupted entry no longer matches the rebuild
    braid = _dense(rep.braid[1])
    r, c = _first_nonzero(braid)
    braid[r][c] += 1
    assert _tower(rep).generator_mismatches({(1, 1): braid}) == ["g[1]^1"]
