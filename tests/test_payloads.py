"""The failing reports of the proportionality claims, pinned as literals:
every route from a verdict to a report must keep them byte for byte."""

import copy

import pytest

from heckeverify import build_kit, hecke, transfer
from heckeverify.rings import LaurentPoly, rat
from heckeverify.tensor import PolyMatrix

from conftest import chain_edges, zero_aux_block


def _params(local_dim, sites, n=None):
    """``_echo`` of a representation at ``conftest.FIXED``, with the chain's ``n``."""
    out = {"Q0": "2/7", "QN": "5/3", "c_minus": "1/3", "c_plus": "-2/5",
           "local_dim": str(local_dim), "q": "3/5", "sites": str(sites),
           "x0m": "9/4", "x0p": "4/9", "xNm": "2/7", "xNp": "7/2"}
    if n is not None:
        out["n"] = str(n)
    return out


def _failed(name, params, failure):
    return {"check_name": name, "status": "fail", "params": params, "first_failure": failure}


def _build_failed(n, relation):
    return [_failed(f"prop1/build[n={n}]", _params(2, n, n), {"relation": relation})]


@pytest.mark.parametrize("twist,aux_failure", [
    ("identity", {"row": 0, "col": 0, "value": "3/5-41/15*u"}),
    ("zero", {"value": "0"}),
])
def test_twist_mutant_payloads(rep22, twist, aux_failure):
    rep = copy.copy(rep22)
    rep.m_local = PolyMatrix.identity((2,)) if twist == "identity" else PolyMatrix((2,))
    chain = transfer.OneBoundaryChain(rep, 2)
    assert chain.check_aux_trace().canonical() == _failed(
        "transfer/aux-trace", _params(2, 2, 2), aux_failure)
    assert [r.canonical() for r in chain_edges(chain)] == _build_failed(
        2, "auxiliary quantum trace is not scalar")


def test_dropped_block_payload(rep23, monkeypatch):
    sandwich = transfer.trace_sandwich

    def dropped(x, mid, y, **kw):
        return sandwich(x, zero_aux_block(mid, 0, 1), y, **kw)

    monkeypatch.setattr(transfer, "trace_sandwich", dropped)
    chain = transfer.OneBoundaryChain(rep23, 3)
    assert [r.canonical() for r in chain_edges(chain)] == _build_failed(
        3, "direct and factorized constructions disagree")


def test_non_monomial_internal_ratio_payload(rep22):
    chain = transfer.OneBoundaryChain(rep22, 2)
    chain._twist = chain._twist.scale(LaurentPoly({0: 1, 1: 1}))
    assert [r.canonical() for r in chain_edges(chain)] == _build_failed(
        2, "non-monomial internal ratio -16/15-16/15*u")


def test_tl_payloads(rep23, rep32):
    rep = copy.copy(rep23)
    rep.braid = {**rep23.braid, 2: rep23.braid[2].scale(rat(2))}
    assert hecke.check_tl_report(rep).canonical() == _failed(
        "tl/quotient", _params(2, 3), {"relation": "e1 e2 e1 != e1"})
    assert hecke.check_tl_report(rep32).canonical() == _failed(
        "tl/quotient", _params(3, 2),
        {"relation": "the quotient relations hold only at local dim 2"})


@pytest.mark.parametrize("coeff,edge", [(0, "low"), (2, "high")])
def test_factorized_pencil_mutant_payloads(rep22, coeff, edge):
    kit = list(build_kit(rep22))
    kit[coeff] = kit[coeff] + PolyMatrix((2,), {(0, 1): 1})
    reports = transfer.check_factorized(transfer.TwoBoundaryLattice(rep22, tuple(kit)))
    assert [r.canonical() for r in reports] == [
        _failed(f"factorized/{mode}", _params(2, 2), {"relation": f"{edge} edge not proportional"})
        for mode in ("minus", "plus")]


def test_hamiltonian_span_payload(rep23):
    rep = copy.copy(rep23)
    rep.b0 = rep23.identity()   # the span loses g[0]; the derivative keeps it
    reports = transfer.OneBoundaryChain(rep, 3).check_hamiltonian()
    assert [r.canonical() for r in reports] == [_failed(
        "hamiltonian/span", _params(2, 3, 3),
        {"relation": "derivative is not in the generator span"})]
