import copy
import dataclasses

import pytest

from heckeverify import baxter, build_glN_rep, build_kit, hecke
from heckeverify.baxter import (calibrate_crossing, calibrate_dual, check_condition2,
                                check_re, check_unitarity, check_ybe, k_bar_plus_hat,
                                k_minus_hat, r_hat)
from heckeverify.cli import config_from_dict, run_suite
from heckeverify.errors import CalibrationFailure
from heckeverify.hecke import twist_matrix
from heckeverify.params import Params, sample_params
from heckeverify.rings import LaurentPoly, rat, rat_str
from heckeverify.tensor import PolyMatrix, embed, mat_proportional

from conftest import FIXED, SEEDS, k_bar_plus_at, k_minus_at, pencil_at


def test_r_hat_values(rep23):
    rh = r_hat(rep23, 1)
    assert rh.coefficient(0) == rep23.braid[1]
    assert rh.coefficient(1) == -rep23.braid_inv[1]
    assert rh.max_degree() <= 1
    q = FIXED.q
    at_one = rh.evaluate(rat(1))
    assert at_one == rep23.identity().scale(q - 1 / q)


def test_k_hats(rep22):
    u = LaurentPoly.unit(1)
    km = k_minus_hat(rep22)
    assert km.coefficient(0) == rep22.g0_local
    assert km.min_degree() == 0 and km.max_degree() == 2
    # built once in the formal u, re-keyed at an argument: the pencil formed
    # by arithmetic there
    for build, at in ((k_minus_hat, k_minus_at), (k_bar_plus_hat, k_bar_plus_at)):
        k = build(rep22)
        assert k == at(rep22, u)
        for e in (-2, -1, 3):
            assert k.compose_power(e) == at(rep22, LaurentPoly.unit(e))
        assert k.shift(2) == at(rep22, u).scale(LaurentPoly.unit(2))
        r = rat(-5, 7)
        assert k.evaluate(r) == at(rep22, LaurentPoly.const(r))
    # with the free boundary constant switched off, the unit point is scalar
    p0 = FIXED
    p = Params(q=p0.q, Q0=p0.Q0, QN=p0.QN, x0p=p0.x0p, x0m=p0.x0m,
               xNp=p0.xNp, xNm=p0.xNm, c_minus=rat(0), c_plus=rat(0))
    rep = build_glN_rep(2, 2, p)
    km = k_minus_hat(rep).evaluate(rat(1))
    assert km == PolyMatrix.identity((2,)).scale(p.Q0 - 1 / p.Q0)
    kb = k_bar_plus_hat(rep).evaluate(rat(1))
    assert kb == PolyMatrix.identity((2,)).scale(p.QN - 1 / p.QN)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_ybe(dim, seed):
    rep = build_glN_rep(dim, 2, sample_params(seed))
    assert check_ybe(rep, seed=seed).status == "pass"


def test_ybe_fault_injection():
    # every baxterized matrix is the one r_local: a bulk generator with a
    # braid-violating entry fails each identity that reads it
    for dim in (2, 3):
        rep = copy.copy(build_glN_rep(dim, 2, FIXED))
        entries = {(r, c): v for r, c, v in rep.g_local.entries()}
        rep.g_local = PolyMatrix((dim, dim), {**entries, (0, dim * dim - 1): rat(1)})
        reports = [check_ybe(rep), check_re(rep, "left"), check_re(rep, "right"),
                   *check_unitarity(rep), baxter.check_crossing_report(rep)]
        status = {r.check_name: r.status for r in reports}
        for name in ("ybe", "re-left", "re-right", "unitarity-r", "crossing"):
            assert status[f"baxter/{name}"] == "fail", (dim, name)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("end", ["left", "right"])
def test_reflection(dim, end):
    rep = build_glN_rep(dim, 2, FIXED)
    assert check_re(rep, end).status == "pass"


@pytest.mark.parametrize("end,name", [("left", "k_minus_hat"), ("right", "k_bar_plus_hat")])
def test_reflection_evaluates_five_points(rep22, monkeypatch, end, name):
    # the residual times r has degree <= 4 in r: five distinct points prove it
    # K(r) is the formal boundary, embedded at its end, evaluated at r
    points = []
    formal = embed(getattr(baxter, name)(rep22), (0,) if end == "left" else (1,), (2, 2))
    first = baxter._sample_points(5, 3)   # the points sampled before
    evaluate = PolyMatrix.evaluate

    def recording(m, x, wrong_off_first=False):
        k = evaluate(m, x)
        if m == formal:
            points.append(x)
            if wrong_off_first and x not in first:
                k = k + PolyMatrix.identity(k.layout)
        return k

    monkeypatch.setattr(PolyMatrix, "evaluate", recording)
    assert check_re(rep22, end, seed=5).status == "pass"
    distinct = list(dict.fromkeys(points))
    assert len(distinct) == 5 and 0 not in distinct
    # the first three come first, so passing reports keep their bytes
    assert distinct[:3] == first
    # a specialized boundary matrix that is wrong only off those three fails
    monkeypatch.setattr(PolyMatrix, "evaluate", lambda m, x: recording(m, x, True))
    report = check_re(rep22, end, seed=5)
    assert report.status == "fail"
    assert report.first_failure["specialization"] == rat_str(distinct[3])


@pytest.mark.parametrize("c", [rat(0), rat(5, 3), rat(-7, 11)])
def test_reflection_c_is_free(c):
    p0 = FIXED
    p = Params(q=p0.q, Q0=p0.Q0, QN=p0.QN, x0p=p0.x0p, x0m=p0.x0m,
               xNp=p0.xNp, xNm=p0.xNm, c_minus=c, c_plus=c)
    rep = build_glN_rep(2, 2, p)
    assert check_re(rep, "left").status == "pass"
    assert check_re(rep, "right").status == "pass"


def test_unitarity_ratios(rep22):
    reports = {r.check_name: r for r in check_unitarity(rep22)}
    q, Q0, cm = FIXED.q, FIXED.Q0, FIXED.c_minus
    s = q - 1 / q
    # (g - u g^-1)(u g - g^-1) = (u(2 + s^2) - 1 - u^2) I
    expected = LaurentPoly({0: -1, 1: 2 + s * s, 2: -1})
    assert reports["baxter/unitarity-r"].ratio == str(expected)
    # the unit point of the bulk product is (q - 1/q)^2
    assert sum(expected.terms.values()) == s * s
    d0 = Q0 - 1 / Q0
    expected_k = LaurentPoly({0: -1, 1: cm * d0, 2: 2 + d0 * d0 + cm * cm,
                              3: cm * d0, 4: -1})
    assert reports["baxter/unitarity-k"].ratio == str(expected_k)


def test_unitarity_fault_injection(rep22):
    rep = copy.copy(rep22)
    entries = {(r, c): v for r, c, v in rep22.g0_local.entries()}
    bad = PolyMatrix((2,), {**entries, (1, 1): rat(9, 4)})  # breaks the quadratic structure
    rep.g0_local = bad
    names = {r.check_name: r.status for r in check_unitarity(rep)}
    assert names["baxter/unitarity-k"] == "fail"


@pytest.mark.parametrize("dim", [2, 3])
def test_crossing_unit_is_q_to_2d(dim):
    for seed in SEEDS:
        rep = build_glN_rep(dim, 2, sample_params(seed))
        chi, ratio = calibrate_crossing(rep)
        assert chi == rep.params.q ** (2 * dim)
        assert not ratio.is_zero


def test_crossing_independent_of_boundary_data(rep22):
    # chi involves only the bulk matrix and the twist
    chi0, _ = calibrate_crossing(rep22)
    p0 = FIXED
    p = Params(q=p0.q, Q0=rat(9, 5), QN=rat(3, 8), x0p=rat(6), x0m=rat(1, 6),
               xNp=rat(2, 9), xNm=rat(9, 2), c_minus=rat(4), c_plus=rat(1, 8))
    rep = build_glN_rep(2, 2, p)
    chi1, _ = calibrate_crossing(rep)
    assert chi0 == chi1


def test_crossing_degenerate_fails(rep22):
    rep = copy.copy(rep22)
    rep.g_local = PolyMatrix.identity((2, 2)).scale(FIXED.q)
    rep.g_inv_local = PolyMatrix.identity((2, 2)).scale(1 / FIXED.q)
    with pytest.raises(CalibrationFailure, match="crossing calibration nullspace has dimension"):
        calibrate_crossing(rep)


def _crossing_mutant(rep, mutant):
    """``rep`` with its twist ``M`` or its bulk generator corrupted."""
    d = rep.local_dim
    rep = copy.copy(rep)
    if mutant == "twist-q2":
        rep.m_local = twist_matrix(d, rep.params.q ** 2)
    elif mutant == "twist-identity":
        rep.m_local = PolyMatrix.identity((d,))
    else:
        entries = {(r, c): v for r, c, v in rep.g_local.entries()}
        rep.g_local = PolyMatrix((d, d), {**entries, (1, d): rat(2)})
    return rep


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mutant", ["twist-q2", "twist-identity", "bulk-entry"])
def test_crossing_corrupted_twist_or_bulk_fails(monkeypatch, dim, mutant):
    # the unit is solved, not searched: a wrong twist or bulk matrix leaves
    # no unique unit, both to the calibration and to the suite's report
    with pytest.raises(CalibrationFailure, match="nullspace has dimension"):
        calibrate_crossing(_crossing_mutant(build_glN_rep(dim, 2, FIXED), mutant))
    build = hecke.build_glN_rep
    monkeypatch.setattr(hecke, "build_glN_rep",
                        lambda *args: _crossing_mutant(build(*args), mutant))
    reports = run_suite(config_from_dict({"local_dim": dim, "sites": 2, "suites": ["crossing"]}))
    assert [(r.check_name, r.status) for r in reports] == [("baxter/crossing", "fail")] * 3
    assert all("nullspace has dimension" in r.first_failure["relation"] for r in reports)


@pytest.mark.parametrize("dim", [2, 3])
def test_condition2(dim):
    rep = build_glN_rep(dim, 2, FIXED)
    kit = build_kit(rep)
    reports = check_condition2(rep, kit)
    assert all(r.status == "pass" for r in reports)
    assert all(r.ratio for r in reports)


def test_condition2_corrupted_kit_fails(rep22, kit22):
    a0, a1, a2 = kit22
    kit = (a0.scale(rat(-1)), a1, a2)  # breaks the trace identity
    reports = check_condition2(rep22, kit)
    assert reports[0].status == "fail"


def test_zero_sides_fail_without_raising(rep22, kit22):
    z = PolyMatrix((2,))
    reports = check_condition2(rep22, (z, z, z))
    assert [r.status for r in reports] == ["fail", "pass"]
    assert reports[0].first_failure == {"value": "0"}
    # a zero boundary matrix makes K(u) K(1/u) zero: a zero ratio is no pass
    rep = copy.copy(rep22)
    rep.params = dataclasses.replace(rep22.params, c_minus=rat(0))
    rep.g0_local = rep.g0_inv_local = PolyMatrix((2,))
    names = {r.check_name: r.status for r in check_unitarity(rep)}
    assert names == {"baxter/unitarity-r": "pass", "baxter/unitarity-k": "fail",
                     "baxter/unitarity-kbar": "pass"}


@pytest.mark.parametrize("end,g,g_inv,c", [("right", "gN_local", "gN_inv_local", "c_plus"),
                                          ("left", "g0_local", "g0_inv_local", "c_minus")])
def test_dual_calibration_fails_on_zero_boundary(rep22, end, g, g_inv, c):
    # with the boundary pencil zero, every s(u) solves the trace condition
    # with X = 0: the nullspace is three-dimensional, and no dual is chosen
    rep = copy.copy(rep22)
    setattr(rep, g, PolyMatrix((2,)))
    setattr(rep, g_inv, PolyMatrix((2,)))
    rep.params = dataclasses.replace(rep22.params, **{c: rat(0)})
    with pytest.raises(CalibrationFailure, match="nullspace has dimension 3"):
        calibrate_dual(rep, end)


def test_dual_calibration_closed_form_dim2(rep22, kit22):
    """At local dim 2 the calibrated operators have closed forms: the dual
    right object is M S (chi gN + sqrt(chi) c+ u - u^2 gN^-1) S^-1 and the
    shifted left object is S^-1 Kminus(sqrt(chi) u) S M, with S = diag(q, q^2).
    This is an independent oracle for the nullspace calibration."""
    q, cp, cm = FIXED.q, FIXED.c_plus, FIXED.c_minus
    d = 2
    s_mat = PolyMatrix((d,), {(0, 0): q, (1, 1): q * q})
    s_inv = PolyMatrix((d,), {(0, 0): 1 / q, (1, 1): 1 / (q * q)})
    m = rep22.m_local
    u = LaurentPoly.unit(1)
    ident = PolyMatrix.identity((d,))

    body = (rep22.gN_local.scale(rat(q) ** 4)
            + ident.scale(LaurentPoly.unit(1, q * q * cp))
            - rep22.gN_inv_local.scale(u * u))
    expected_a = m * (s_mat * body * s_inv)
    got_a = pencil_at(kit22, u)
    assert baxter._pencil(kit22) == got_a
    assert mat_proportional(got_a, expected_a) is not None

    shifted = (rep22.g0_local + ident.scale(LaurentPoly.unit(1, q * q * cm))
               - rep22.g0_inv_local.scale(LaurentPoly.unit(2, rat(q) ** 4)))
    expected_b = (s_inv * shifted * s_mat) * m
    dual_left = calibrate_dual(rep22, "left")
    got_b = pencil_at(dual_left, u)
    assert baxter._pencil(dual_left) == got_b
    assert mat_proportional(got_b, expected_b) is not None
