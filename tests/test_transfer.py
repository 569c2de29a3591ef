import copy

import pytest

from heckeverify import build_glN_rep, build_kit
from heckeverify.baxter import k_minus_hat
from heckeverify.errors import DimensionMismatch, InternalMismatch
from heckeverify.hecke import murphy, murphy_inverse
from heckeverify.params import sample_params
from heckeverify.rings import LaurentPoly, rat
from heckeverify import transfer
from heckeverify.tensor import PolyMatrix, embed_site, kron, lin_solve, mat_proportional
from heckeverify.transfer import (OneBoundaryChain, TwoBoundaryLattice,
                                  build_t_one_boundary, build_t_two_boundary,
                                  check_degeneration, explore_generic,
                                  extract_edges, t_two_boundary_direct,
                                  t_two_boundary_factorized, trace_edges,
                                  verify_murphy_two_boundary)

from conftest import FIXED, SEEDS


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def test_extract_edges():
    m = PolyMatrix((2,), {(0, 0): LaurentPoly({0: 1, 1: 2, 3: 5}), (1, 1): LaurentPoly({1: 7})})
    e = extract_edges(m)
    assert (e.low_deg, e.high_deg) == (0, 3)
    assert e.low_coeff.get(0, 0) == LaurentPoly.const(1)
    assert e.low_coeff.get(1, 1).is_zero
    assert e.high_coeff.get(0, 0) == LaurentPoly.const(5)

    const = PolyMatrix.identity((2,))
    e = extract_edges(const)
    assert e.low_deg == e.high_deg == 0

    with pytest.raises(DimensionMismatch):
        extract_edges(PolyMatrix((2,)))


# ---------------------------------------------------------------------------
# one-boundary pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_aux_trace_scalar_formula(dim):
    rep = build_glN_rep(dim, 2, FIXED)
    report = OneBoundaryChain(rep, 2).check_aux_trace()
    assert report.status == "pass"
    q = FIXED.q
    expected = LaurentPoly({0: q**dim, 1: -(1 / q) ** dim})
    assert report.ratio == str(expected)


def test_aux_trace_needs_twist(rep22):
    rep = copy.copy(rep22)
    rep.m_local = PolyMatrix.identity((2,))
    assert OneBoundaryChain(rep, 2).check_aux_trace().status == "fail"


def test_zero_twist_is_no_proportionality(rep22):
    # with M = 0 the auxiliary trace is zero; a zero ratio must not pass the
    # aux-trace check, nor let the direct trace (zero) match 0 * factorized
    rep = copy.copy(rep22)
    rep.m_local = PolyMatrix.zeros((2,))
    chain = OneBoundaryChain(rep, 2)
    report = chain.check_aux_trace()
    assert (report.status, report.first_failure) == ("fail", {"value": "0"})
    reports = chain.murphy_edges()
    assert [(r.check_name, r.status) for r in reports] == [("prop1/build[n=2]", "fail")]


def test_one_boundary_n1(rep22):
    res = build_t_one_boundary(rep22, 1)
    expected = embed_site(k_minus_hat(rep22, LaurentPoly.unit(1)), 0, rep22.layout)
    assert res.matrix == expected
    assert res.internal_ratio is not None


def test_one_boundary_unit_point_scalar(rep23):
    res = build_t_one_boundary(rep23, 3, cross_check=False)
    at_one = res.matrix.evaluate(rat(1))
    assert mat_proportional(at_one, rep23.identity()) is not None


def test_one_boundary_internal_ratio_value(rep22):
    # the direct trace equals (q - 1/q) * f(u^2) * factorized at two sites
    res = build_t_one_boundary(rep22, 2)
    q = FIXED.q
    assert res.internal_ratio is not None
    assert res.internal_ratio == LaurentPoly.const(q - 1 / q)


@pytest.mark.parametrize("n", [2, 3])
def test_one_boundary_edges(n):
    rep = build_glN_rep(2, n, FIXED)
    reports = OneBoundaryChain(rep, n).murphy_edges()
    assert all(r.status == "pass" for r in reports)
    res = build_t_one_boundary(rep, n, cross_check=False)
    assert res.matrix.min_degree() == 0
    assert res.matrix.max_degree() == 2 * n
    edges = extract_edges(res.matrix)
    # zero-order coefficient is exactly the boundary-family element
    assert edges.low_coeff == murphy(rep, "B", n - 1)


def test_one_boundary_hierarchy_sub_n(rep23):
    # n below the chain length acts as identity on the remaining sites
    reports = OneBoundaryChain(rep23, 2).murphy_edges()
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("n", [2, 3])
def test_corollary_edges(n):
    rep = build_glN_rep(2, n, FIXED)
    reports = OneBoundaryChain(rep, n).murphy_edges(trivial_k=True)
    assert all(r.status == "pass" for r in reports)
    res = build_t_one_boundary(rep, n, trivial_k=True, cross_check=False)
    edges = extract_edges(res.matrix)
    assert edges.low_coeff == murphy(rep, "A", n - 1)
    assert mat_proportional(edges.high_coeff, murphy_inverse(rep, "A", n - 1)) is not None


# ---------------------------------------------------------------------------
# two-boundary pipeline
# ---------------------------------------------------------------------------

def test_t_minus_factorized_zero_order(rep22):
    fac = t_two_boundary_factorized(rep22, "minus")
    assert fac.coefficient(0) == rep22.bn * rep22.braid[1] * rep22.b0 * rep22.braid[1]
    assert fac.coefficient(0) == murphy(rep22, "C", 1)
    # total degree: boundary factors contribute 2N each, bulk 2N(N-1)
    n = rep22.sites
    assert fac.max_degree() == 2 * n * n + 2 * n


def test_t_plus_factorized_zero_order(rep22):
    fac = t_two_boundary_factorized(rep22, "plus")
    assert fac.coefficient(0) == murphy(rep22, "C", 0)
    n = rep22.sites
    assert fac.max_degree() == n * n + n + 2


def test_build_two_boundary_minus(rep22, kit22):
    res = build_t_two_boundary(rep22, kit22, "minus")
    assert res.internal_ratio is not None
    assert not res.internal_ratio.is_zero


def test_build_two_boundary_plus(rep22, kit22):
    res = build_t_two_boundary(rep22, kit22, "plus")
    assert res.internal_ratio is None  # only the edges are shared
    assert res.edge_ratio.is_constant
    # both edges of the family member match the factorized product
    from heckeverify.tensor import mat_proportional as mp
    ed, ef = extract_edges(res.direct), extract_edges(res.factorized)
    assert mp(ed.high_coeff, ef.high_coeff) is not None


def test_two_boundary_internal_mismatch_detected(rep22, kit22):
    kit = copy.copy(kit22)
    a0, a1, a2 = kit22.aplus
    kit.aplus = (a0, a1.scale(rat(3)), a2)
    with pytest.raises(InternalMismatch):
        build_t_two_boundary(rep22, kit, "minus")


@pytest.mark.parametrize("dim,sites", [(2, 2), (2, 3), (3, 2)])
def test_murphy_two_boundary_four_points(dim, sites):
    rep = build_glN_rep(dim, sites, FIXED)
    kit = build_kit(rep)
    reports = verify_murphy_two_boundary(TwoBoundaryLattice(rep, kit))
    assert len(reports) == 4
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("which", ["22", "23", "32"])
def test_truncated_edges_match_full_matrix(request, which):
    rep = request.getfixturevalue(f"rep{which}")
    kit = request.getfixturevalue(f"kit{which}")
    lattice = TwoBoundaryLattice(rep, kit)
    for n in range(1, rep.sites + 1):
        for p in (n, -n):
            full = extract_edges(t_two_boundary_direct(rep, kit, p))
            edges = lattice.edges(p)
            assert (edges.low_deg, edges.high_deg) == (full.low_deg, full.high_deg)
            assert edges.low_coeff == full.low_coeff
            assert edges.high_coeff == full.high_coeff


def _cancelling_factors(case):
    # aux factor 0 carries the nilpotent E (E*E = 0, tr E = 0), so the
    # products of the extreme coefficients vanish or trace to zero
    v = LaurentPoly.unit(1)
    e = PolyMatrix((2,), {(0, 1): 1})
    et = e.transpose()
    i2 = PolyMatrix.identity((2,))
    s = PolyMatrix((2,), {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): -1})
    t = PolyMatrix((2,), {(0, 0): 5, (1, 1): 7, (1, 0): -1})
    if case == "inner":
        f1 = kron(e, s) + kron(i2, i2).scale(v) + kron(e, i2).scale(v * v)
        f2 = (kron(e, i2) + kron(i2, s).scale(v)
              + kron(e, s).scale(v * v)).scale(LaurentPoly.unit(-3))
        return [f1, f2], (-1, -1)
    # the edge sits at the last degree kept by the second truncation: its
    # coefficient E E^T (x) s t + E^T E (x) t s needs both cross terms
    f1 = kron(e, s) + kron(et, t).scale(v)
    f2 = kron(e, s) + kron(et, t).scale(v)
    return [f1, f2], (1, 1)


@pytest.mark.parametrize("case", ["inner", "boundary"])
def test_truncated_edges_grow_past_cancelling_extremes(case):
    factors, degrees = _cancelling_factors(case)
    full = factors[0] * factors[1]
    edges = trace_edges(factors)
    assert edges == extract_edges(full.partial_trace_first())
    # both edges lie strictly inside the span of the factor degrees, so the
    # first truncation (one degree per edge) traced to zero
    assert edges.low_deg > sum(f.min_degree() for f in factors)
    assert edges.high_deg < sum(f.max_degree() for f in factors)
    assert (edges.low_deg, edges.high_deg) == degrees


def test_truncated_edges_of_zero_product():
    e = PolyMatrix((2,), {(0, 1): 1})
    ee = kron(e, PolyMatrix.identity((2,)))
    with pytest.raises(DimensionMismatch):
        trace_edges([ee.scale(LaurentPoly.unit(1)), ee])     # product is zero
    with pytest.raises(DimensionMismatch):
        trace_edges([ee + ee.scale(LaurentPoly.unit(2))])    # traces to zero
    with pytest.raises(DimensionMismatch):
        trace_edges([ee, PolyMatrix.zeros(ee.layout)])


def test_two_boundary_direct_family_commutes(rep22, kit22):
    a = t_two_boundary_direct(rep22, kit22, 2).evaluate(rat(3, 7))
    b = t_two_boundary_direct(rep22, kit22, 1).evaluate(rat(3, 7))
    assert a * b == b * a


def test_degeneration(fixed_params):
    rep_deg = build_glN_rep(2, 2, fixed_params, degenerate_right=True)
    assert check_degeneration(rep_deg).status == "pass"
    rep_deg3 = build_glN_rep(2, 3, fixed_params, degenerate_right=True)
    assert check_degeneration(rep_deg3).status == "pass"


# ---------------------------------------------------------------------------
# Hamiltonian and commuting family
# ---------------------------------------------------------------------------

def closed_form_coeffs(params, n):
    s = params.q - 1 / params.q
    kappa = params.Q0 - 1 / params.Q0 + params.c_minus
    beta = 4 * s ** (2 * n - 3) * kappa
    gamma = 4 * s ** (2 * n - 2)
    alpha = -2 * s ** (2 * n - 2) * (2 * (n - 1) * kappa + params.c_minus
                                     + 2 * (params.Q0 - 1 / params.Q0))
    return alpha, beta, gamma


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_closed_form(n):
    rep = build_glN_rep(2, n, FIXED)
    res = OneBoundaryChain(rep, n).hamiltonian()
    alpha, beta, gamma = closed_form_coeffs(FIXED, n)
    assert res.coefficients["identity"] == alpha
    assert res.coefficients["g[0]"] == gamma
    for i in range(1, n):
        assert res.coefficients[f"g[{i}]"] == beta  # site independent


def test_hamiltonian_checks(rep23):
    reports = OneBoundaryChain(rep23, 3).check_hamiltonian()
    assert all(r.status == "pass" for r in reports)


def _span_basis(rep, n):
    return [PolyMatrix.identity(rep.layout), *(rep.braid[i] for i in range(1, n)), rep.b0]


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_hamiltonian_matches_dense_solve(dim, n):
    # the reference: the entrywise derivative in rationals and one exact solve
    # over all dim^2 entries
    rep = build_glN_rep(dim, n, FIXED)
    t = transfer.t_open_factorized(rep, n)
    h = {(r, c): sum(-2 * d * x for d, x in v.terms.items()) for r, c, v in t.entries()}
    basis = _span_basis(rep, n)
    rows, rhs = [], []
    for r in range(t.dim):
        for c in range(t.dim):
            rows.append([b.get(r, c).coeff(0) for b in basis])
            rhs.append(h.get((r, c), rat(0)))
    sol = lin_solve(rows, rhs)
    assert sol is not None
    res = OneBoundaryChain(rep, n).hamiltonian()
    names = ["identity", *(f"g[{i}]" for i in range(1, n)), "g[0]"]
    assert res.coefficients == dict(zip(names, sol))
    assert list(res.coefficients) == names
    assert res.matrix == PolyMatrix(rep.layout, {key: LaurentPoly.const(v)
                                                 for key, v in h.items()})


def test_hamiltonian_span_checks_off_pivot_entries(rep23, monkeypatch):
    # the solve reads only the pivot entries; a derivative wrong at an entry
    # outside them, inside the support of the basis, must still fail the span
    basis = _span_basis(rep23, 3)
    pivots = transfer._pivot_entries(basis)
    assert len(pivots) == len(basis)
    support = sorted({(r, c) for b in basis for r, row in b.rows.items() for c in row})
    r, c = next(key for key in support if key not in pivots)
    derivative = PolyMatrix.derivative_at_one

    def perturbed(self):
        h = derivative(self)
        return h + PolyMatrix(h.layout, {(r, c): rat(1, 7)})

    monkeypatch.setattr(PolyMatrix, "derivative_at_one", perturbed)
    reports = OneBoundaryChain(rep23, 3).check_hamiltonian()
    assert [(x.check_name, x.status) for x in reports] == [("hamiltonian/span", "fail")]
    assert reports[0].first_failure == {"relation": "derivative is not in the generator span"}


@pytest.mark.parametrize("seed", SEEDS)
def test_commuting_family(seed):
    rep = build_glN_rep(2, 3, sample_params(seed))
    assert OneBoundaryChain(rep, 3).check_commuting_family(seed=seed).status == "pass"


def test_commuting_family_needs_reflection_solution(rep23):
    rep = copy.copy(rep23)
    rep.g0_inv_local = PolyMatrix.identity((2,))  # boundary no longer solves RE
    assert OneBoundaryChain(rep, 3).check_commuting_family().status == "fail"


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

def test_explore_boundary_case_equals_t_minus(rep23, kit23):
    reports = explore_generic(TwoBoundaryLattice(rep23, kit23), rep23.sites)
    notes = {r.check_name: r.note for r in reports}
    assert "low~J_C[2]" in notes["explore/lattice[p=3]"]
    assert "low~J_C[2]^-1" in notes["explore/lattice[p=-3]"]


def test_explore_intermediate_point_finds_middle_element(rep23, kit23):
    reports = explore_generic(TwoBoundaryLattice(rep23, kit23), 2)
    notes = {r.check_name: r.note for r in reports}
    assert "low~J_C[1]" in notes["explore/lattice[p=2]"]
    assert "low~J_C[1]^-1" in notes["explore/lattice[p=-2]"]
