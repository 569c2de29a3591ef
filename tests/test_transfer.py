import copy
import random
from functools import reduce
from operator import mul

import pytest

from heckeverify import build_glN_rep, build_kit
from heckeverify.baxter import check_condition2, k_minus_hat
from heckeverify.errors import DimensionMismatch
from heckeverify.hecke import murphy, murphy_tower, scalar_right
from heckeverify.params import sample_params
from heckeverify.rings import LaurentPoly, rat
from heckeverify import transfer
from heckeverify.tensor import (PolyMatrix, embed_pair, embed_site, flip_indices, kron,
                                mat_proportional)
from heckeverify.transfer import (OneBoundaryChain, TwoBoundaryLattice,
                                  build_t_one_boundary, check_degeneration,
                                  check_factorized, explore_generic,
                                  extract_edges, t_two_boundary_direct,
                                  t_two_boundary_factorized, trace_edges,
                                  verify_murphy_two_boundary)

from conftest import FIXED, SEEDS, chain_edges, murphy_inv, ref_rref


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
    rep.m_local = PolyMatrix((2,))
    chain = OneBoundaryChain(rep, 2)
    report = chain.check_aux_trace()
    assert (report.status, report.first_failure) == ("fail", {"value": "0"})
    reports = chain_edges(chain)
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
    reports = chain_edges(OneBoundaryChain(rep, n))
    assert all(r.status == "pass" for r in reports)
    res = build_t_one_boundary(rep, n, cross_check=False)
    assert res.matrix.min_degree() == 0
    assert res.matrix.max_degree() == 2 * n
    edges = extract_edges(res.matrix)
    # zero-order coefficient is exactly the boundary-family element
    assert edges.low_coeff == murphy(rep, "B", n - 1)


def test_one_boundary_hierarchy_sub_n(rep23):
    # n below the chain length acts as identity on the remaining sites
    reports = chain_edges(OneBoundaryChain(rep23, 2))
    assert all(r.status == "pass" for r in reports)


def _pair_factor(rep, k, w, layout, left):
    """The pair ``g - w g^-1`` at factors (0, k) of ``layout``, formed by
    arithmetic, with the flip on its rows (``left``) or its columns."""
    pair = (embed_pair(rep.g_local, 0, k, layout)
            - embed_pair(rep.g_inv_local, 0, k, layout).scale(w))
    flip = flip_indices(0, k, layout)
    return pair.relabel(rows=flip) if left else pair.relabel(cols=flip)


def _open_sandwich(rep, n, trivial_k):
    """The factors ``R_n-1..R_1 K- R_1..R_n-1`` of the bulk sandwich on the
    site space, formed by arithmetic, ``K-`` the identity with ``trivial_k``."""
    u = LaurentPoly.unit(1)
    middle = rep.identity() if trivial_k else embed_site(k_minus_hat(rep, u), 0, rep.layout)
    bulk = [rep.braid[i] - rep.braid_inv[i].scale(u) for i in range(1, n)]
    return [*reversed(bulk), middle, *bulk]


def _full_layout_factors(rep, kit, p):
    """The factors of ``T(u = v^p; v)`` before the auxiliary trace, each
    formed by arithmetic on the full (auxiliary, site_1..site_N) layout."""
    n, v = rep.sites, LaurentPoly.unit
    layout = (rep.local_dim,) * (n + 1)
    return [embed_site(kit.aplus_at(v(p)), 0, layout),
            *(_pair_factor(rep, k, v(p + k), layout, True) for k in range(n, 0, -1)),
            embed_site(k_minus_hat(rep, v(p)), 0, layout),
            *(_pair_factor(rep, k, v(p - k), layout, False) for k in range(1, n + 1))]


@pytest.mark.parametrize("dim,sites", [(2, 3), (3, 2)])
def test_lattice_factors_match_arithmetic_factors(dim, sites):
    # the factors re-keyed from their formal u equal the ones formed with
    # v^e at every lattice point, the collisions at p = +-k included, each on
    # the layout it acts on: the lead and the pair at site N on the
    # (auxiliary, site) pair, K- on the auxiliary space, the pair at site
    # k < N on (auxiliary, site_1..site_k)
    rep = build_glN_rep(dim, sites, FIXED)
    kit = build_kit(rep)
    lattice = TwoBoundaryLattice(rep, kit)
    pair = (dim, dim)
    v = LaurentPoly.unit
    for p in [*range(1, sites + 1), *range(-sites, 0)]:
        want = [embed_site(kit.aplus_at(v(p)), 0, pair),
                _pair_factor(rep, 1, v(p + sites), pair, True),
                k_minus_hat(rep, v(p)),
                _pair_factor(rep, 1, v(p - sites), pair, False)]
        for k in range(1, sites):
            layout = (dim,) * (k + 1)
            want += [_pair_factor(rep, k, v(p + k), layout, True),
                     _pair_factor(rep, k, v(p - k), layout, False)]
        assert lattice.factors(p) == want


@pytest.mark.parametrize("dim,sites", [(2, 4), (3, 3)])
@pytest.mark.parametrize("trivial_k", [False, True])
def test_grown_double_rows_match_full_products(dim, sites, trivial_k):
    # the middle and the bulk sandwich, grown inside out on the sites they
    # touch, against the products of their factors on the full layouts: the
    # middle's on (auxiliary, site_1..site_n), identity on site n
    rep = build_glN_rep(dim, sites, FIXED)
    u = LaurentPoly.unit(1)
    one = PolyMatrix.identity((dim,))
    for n in range(1, sites + 1):
        layout = (dim,) * (n + 1)
        inner = (PolyMatrix.identity(layout) if trivial_k
                 else embed_site(k_minus_hat(rep, u), 0, layout))
        full = reduce(mul, [*(_pair_factor(rep, k, u, layout, True) for k in range(n - 1, 0, -1)),
                            inner, *(_pair_factor(rep, k, u, layout, False) for k in range(1, n))])
        middle = OneBoundaryChain(rep, n, trivial_k).middle()
        assert middle.layout == (dim,) * n
        assert kron(middle, one) == full
        assert transfer.t_open_factorized(rep, n, trivial_k=trivial_k) == reduce(
            mul, _open_sandwich(rep, n, trivial_k))


def _drop_block(b, c):
    """``trace_sandwich`` with the ``(b, c)`` term of its contraction left out."""
    trace_sandwich = transfer.trace_sandwich

    def corrupted(x, blocks, y):
        zero = PolyMatrix(blocks[b, c].layout)
        return trace_sandwich(x, {**blocks, (b, c): zero}, y)
    return corrupted


def _misflip(mutant):
    """``flip_indices`` as the middle's relabel at three sites reads it, with
    the flip of ``k = 1`` skipped or the flips taken ``k = 2`` first; the
    two-factor flips of the pairs are left alone."""
    flip = transfer.flip_indices

    def corrupted(i, j, layout):
        if len(layout) != 3:
            return flip(i, j, layout)
        if mutant == "flip-skipped":
            return list(range(8)) if j == 1 else flip(i, j, layout)
        return flip(i, 3 - j, layout)
    return corrupted


@pytest.mark.parametrize("mutant", ["block-00", "block-01", "block-10", "block-11", "no-twist",
                                    "flip-skipped", "flip-reversed"])
def test_corrupted_contraction_fails_prop1(rep23, monkeypatch, mutant):
    # the direct-vs-factorized cross-check reaches the contraction that
    # closes the direct trace and the relabel that gives its middle: a lost
    # term, x without the twist M, or a flip skipped or out of order fails it
    chain = OneBoundaryChain(rep23, 3)
    if mutant == "no-twist":
        monkeypatch.setattr(chain, "_twist", PolyMatrix.identity((2, 2)))
    elif mutant.startswith("flip"):
        monkeypatch.setattr(transfer, "flip_indices", _misflip(mutant))
    else:
        monkeypatch.setattr(transfer, "trace_sandwich", _drop_block(*map(int, mutant[-2:])))
    reports = chain_edges(chain)
    assert [(r.check_name, r.status) for r in reports] == [("prop1/build[n=3]", "fail")]
    assert chain.check_aux_trace().status == "pass"


@pytest.mark.parametrize("n", [2, 3])
def test_corollary_edges(n):
    rep = build_glN_rep(2, n, FIXED)
    reports = chain_edges(OneBoundaryChain(rep, n, trivial_k=True))
    assert all(r.status == "pass" for r in reports)
    res = build_t_one_boundary(rep, n, trivial_k=True, cross_check=False)
    edges = extract_edges(res.matrix)
    assert edges.low_coeff == murphy(rep, "A", n - 1)
    assert mat_proportional(edges.high_coeff, murphy_inv(rep, "A", n - 1)) is not None


# ---------------------------------------------------------------------------
# two-boundary pipeline
# ---------------------------------------------------------------------------

def _c_towers(rep):
    """The C tower and its inverse, which the lattice checks read."""
    return murphy_tower(rep, "C"), murphy_tower(rep, "C", True)


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


def test_build_two_boundary_minus(rep23, kit23, rep32, kit32):
    # at p = N the family member is proportional to the minus product form as
    # a full Laurent matrix
    for rep, kit in ((rep23, kit23), (rep32, kit32)):
        direct = t_two_boundary_direct(rep, kit, rep.sites)
        ratio = mat_proportional(direct, t_two_boundary_factorized(rep, "minus"))
        assert ratio is not None and not ratio.is_zero


def test_build_two_boundary_plus(rep22, kit22):
    # at p = 1 the full matrices differ, but both edges agree up to scalars
    direct = t_two_boundary_direct(rep22, kit22, 1)
    factorized = t_two_boundary_factorized(rep22, "plus")
    assert mat_proportional(direct, factorized) is None
    ed, ef = extract_edges(direct), extract_edges(factorized)
    low = mat_proportional(ed.low_coeff, ef.low_coeff)
    assert low is not None and low.is_constant
    assert mat_proportional(ed.high_coeff, ef.high_coeff) is not None


def test_two_boundary_internal_mismatch_detected(rep22, kit22):
    kit = copy.copy(kit22)
    a0, a1, a2 = kit22.aplus
    kit.aplus = (a0, a1.scale(rat(3)), a2)
    direct = t_two_boundary_direct(rep22, kit, rep22.sites)
    assert mat_proportional(direct, t_two_boundary_factorized(rep22, "minus")) is None
    # the middle coefficient reaches no expansion edge; the right trace
    # condition, which reads the whole pencil, catches it
    assert [r.status for r in check_factorized(TwoBoundaryLattice(rep22, kit))] == [
        "pass", "pass"]
    assert [r.status for r in check_condition2(rep22, kit)] == ["fail", "pass"]


@pytest.mark.parametrize("dim,sites", [(2, 2), (2, 3), (3, 2)])
def test_murphy_two_boundary_four_points(dim, sites):
    rep = build_glN_rep(dim, sites, FIXED)
    kit = build_kit(rep)
    reports = verify_murphy_two_boundary(TwoBoundaryLattice(rep, kit), *_c_towers(rep))
    assert len(reports) == 4
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("which", ["22", "23", "32"])
def test_truncated_edges_match_full_matrix(request, which):
    # the grown member and its windowed edges against the reference: the
    # product of the full-layout factors, traced over the auxiliary space
    rep = request.getfixturevalue(f"rep{which}")
    kit = request.getfixturevalue(f"kit{which}")
    lattice = TwoBoundaryLattice(rep, kit)
    for n in range(1, rep.sites + 1):
        for p in (n, -n):
            ref = reduce(mul, _full_layout_factors(rep, kit, p)).partial_trace_first()
            assert t_two_boundary_direct(rep, kit, p) == ref
            full = extract_edges(ref)
            edges = lattice.edges(p)
            assert (edges.low_deg, edges.high_deg) == (full.low_deg, full.high_deg)
            assert edges.low_coeff == full.low_coeff
            assert edges.high_coeff == full.high_coeff
    # the same routine on site-space chains: the factorized forms
    for mode in ("minus", "plus"):
        assert trace_edges(transfer._two_boundary_sandwich(rep, mode)) == (
            extract_edges(t_two_boundary_factorized(rep, mode)))
    for trivial_k in (False, True):
        sandwich = _open_sandwich(rep, rep.sites, trivial_k)
        assert trace_edges(sandwich) == (
            extract_edges(transfer.t_open_factorized(rep, rep.sites, trivial_k=trivial_k)))


def _cancelling_factors(case):
    # aux factor 0 carries the nilpotent E (E*E = 0, tr E = 0), so the
    # products of the extreme coefficients vanish or trace to zero
    v = LaurentPoly.unit(1)
    e = PolyMatrix((2,), {(0, 1): 1})
    et = PolyMatrix((2,), {(1, 0): 1})
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


def _member_edges(lead, right):
    """The lattice's routine with ``lead`` and the outer right factor on the
    (auxiliary, site) pair, the identity as the seed and as the one pair:
    the edges of ``I (x) tr_0(lead * right)``."""
    d = lead.layout[0]
    pair = PolyMatrix.identity((d, d))
    return transfer._window_edges([pair, lead, PolyMatrix.identity((d,)), right, pair, pair],
                                  transfer._member)


@pytest.mark.parametrize("case", ["inner", "boundary"])
def test_truncated_edges_grow_past_cancelling_extremes(case):
    factors, degrees = _cancelling_factors(case)
    full = kron(PolyMatrix.identity((2,)), (factors[0] * factors[1]).partial_trace_first())
    edges = _member_edges(*factors)
    assert edges == extract_edges(full)
    # both edges lie strictly inside the span of the factor degrees, so the
    # first truncation (one degree per edge) traced to zero
    assert edges.low_deg > sum(f.min_degree() for f in factors)
    assert edges.high_deg < sum(f.max_degree() for f in factors)
    assert (edges.low_deg, edges.high_deg) == degrees


def test_truncated_edges_of_zero_product():
    e = PolyMatrix((2,), {(0, 1): 1})
    ee = kron(e, PolyMatrix.identity((2,)))
    one = PolyMatrix.identity(ee.layout)
    with pytest.raises(DimensionMismatch):
        trace_edges([ee.scale(LaurentPoly.unit(1)), ee])        # product is zero
    with pytest.raises(DimensionMismatch):
        _member_edges(ee.scale(LaurentPoly.unit(1)), ee)        # product is zero
    with pytest.raises(DimensionMismatch):
        _member_edges(ee + ee.scale(LaurentPoly.unit(2)), one)  # traces to zero
    with pytest.raises(DimensionMismatch):
        _member_edges(ee, PolyMatrix(ee.layout))
    # against a trace whose only term sits at the top of the degree span,
    # which only the last window, the whole span, keeps
    et = kron(PolyMatrix((2,), {(1, 0): 1}), PolyMatrix.identity((2,)))
    edges = _member_edges(ee, ee + et.scale(LaurentPoly.unit(3)))
    assert (edges.low_deg, edges.high_deg) == (3, 3)
    assert edges.low_coeff == PolyMatrix.identity((2, 2))


@pytest.mark.parametrize("dim,sites", [(2, 4), (3, 2)])
def test_lattice_products_stay_off_the_full_layout(monkeypatch, dim, sites):
    # the lattice grows its members on the sites each product touches: no
    # product has the (auxiliary, site_1..site_N) layout
    rep = build_glN_rep(dim, sites, FIXED)
    kit = build_kit(rep)
    layouts = set()
    matmul = PolyMatrix._matmul

    def recording(self, other, **window):
        layouts.update((self.layout, other.layout))
        return matmul(self, other, **window)

    monkeypatch.setattr(PolyMatrix, "_matmul", recording)
    lattice = TwoBoundaryLattice(rep, kit)
    for p in [*range(1, sites + 1), *range(-sites, 0)]:
        lattice.edges(p)
    assert layouts and max(map(len, layouts)) == sites
    layouts.clear()
    t_two_boundary_direct(rep, kit, sites)
    assert layouts and max(map(len, layouts)) == sites


def test_two_boundary_direct_family_commutes(rep22, kit22):
    a = t_two_boundary_direct(rep22, kit22, 2).evaluate(rat(3, 7))
    b = t_two_boundary_direct(rep22, kit22, 1).evaluate(rat(3, 7))
    assert a * b == b * a


def test_degeneration(fixed_params):
    for sites in (2, 3):
        rep_deg = scalar_right(build_glN_rep(2, sites, fixed_params))
        chain, element = OneBoundaryChain(rep_deg, sites), murphy(rep_deg, "B", sites - 1)
        assert check_degeneration(rep_deg, chain, element).status == "pass"


@pytest.mark.parametrize("generator", ["gN_local", "g0_local"])
def test_degeneration_corrupted_boundary_fails(fixed_params, generator):
    rep = copy.copy(scalar_right(build_glN_rep(2, 3, fixed_params)))
    g = getattr(rep, generator)
    setattr(rep, generator, g + PolyMatrix((2,), {(1, 0): rat(2, 5)}))
    report = check_degeneration(rep, OneBoundaryChain(rep, 3), murphy(rep, "B", 2))
    assert (report.status, report.first_failure) == (
        "fail", {"relation": "degenerate edge does not reduce"})


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


def test_hamiltonian_commutation_is_an_identity_in_u(rep23):
    # T(u) + p(u) E, with p vanishing at the three rationals a sampled check
    # at seed 0 draws (Random(seed ^ 0xA11CE)), commutes with H at those
    # points but not for every u, so the check must fail.
    chain = OneBoundaryChain(rep23, 3)
    rng = random.Random(0 ^ 0xA11CE)
    points = [rat(rng.randrange(1, 30), rng.randrange(1, 30)) for _ in range(3)]
    p = reduce(mul, (LaurentPoly({0: -x, 1: 1}) for x in points))
    e = PolyMatrix(rep23.layout, {(0, 1): 1})
    h = chain.hamiltonian().matrix
    assert h * e != e * h
    direct = chain.direct
    chain.direct = lambda u0: direct(u0) + e.scale(p)
    reports = chain.check_hamiltonian()
    assert [(r.check_name, r.status) for r in reports] == [
        ("hamiltonian/span", "pass"), ("hamiltonian/commutes", "fail")]
    assert set(reports[1].first_failure) == {"row", "col", "value"}


def _span_basis(rep, n):
    return [PolyMatrix.identity(rep.layout), *(rep.braid[i] for i in range(1, n)), rep.b0]


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_hamiltonian_matches_dense_solve(dim, n):
    # the reference: the entrywise derivative in rationals and one exact
    # Gauss-Jordan solve over all dim^2 entries, free coefficients zero
    rep = build_glN_rep(dim, n, FIXED)
    t = transfer.t_open_factorized(rep, n)
    h = {(r, c): sum(-2 * d * x for d, x in v.terms.items()) for r, c, v in t.entries()}
    basis = _span_basis(rep, n)
    k = len(basis)
    aug = [[*(b.get(r, c).coeff(0) for b in basis), h.get((r, c), rat(0))]
           for r in range(t.dim) for c in range(t.dim)]
    red, pivots = ref_rref(aug, k)
    assert not any(row[k] for row in red[len(pivots):])   # consistent
    sol = [next((row[k] for row, p in zip(red, pivots) if p == j), rat(0)) for j in range(k)]
    res = OneBoundaryChain(rep, n).hamiltonian()
    names = ["identity", *(f"g[{i}]" for i in range(1, n)), "g[0]"]
    assert res.coefficients == dict(zip(names, sol))
    assert list(res.coefficients) == names
    assert res.matrix == PolyMatrix(rep.layout, {key: LaurentPoly.const(v)
                                                 for key, v in h.items()})


def test_hamiltonian_span_checks_off_pivot_entries(rep23, monkeypatch):
    # a derivative wrong at one entry fails the span wherever the entry is:
    # inside the basis support, outside every basis support, and at the later
    # of two entries with the same basis row (a system deduplicated on the
    # basis rows alone would read only the first)
    basis = _span_basis(rep23, 3)
    dim = basis[0].dim
    groups = {}
    for key in sorted({(r, c) for b in basis for r, row in b.rows.items() for c in row}):
        groups.setdefault(tuple(b.get(*key).coeff(0) for b in basis), []).append(key)
    inside = next(keys[0] for keys in groups.values() if len(keys) == 1)
    outside = next((r, c) for r in range(dim) for c in range(dim)
                   if all(b.get(r, c).is_zero for b in basis))
    shared = next(keys[-1] for keys in groups.values() if len(keys) > 1)
    derivative = PolyMatrix.derivative_at_one
    for key in (inside, outside, shared):
        def perturbed(self, key=key):
            h = derivative(self)
            return h + PolyMatrix(h.layout, {key: rat(1, 7)})

        monkeypatch.setattr(PolyMatrix, "derivative_at_one", perturbed)
        reports = OneBoundaryChain(rep23, 3).check_hamiltonian()
        assert [(x.check_name, x.status) for x in reports] == [("hamiltonian/span", "fail")]
        assert reports[0].first_failure == {
            "relation": "derivative is not in the generator span"}


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
    reports = explore_generic(TwoBoundaryLattice(rep23, kit23), rep23.sites, *_c_towers(rep23))
    assert [(r.check_name, r.status, r.note) for r in reports] == [
        ("explore/lattice[p=3]", "pass", "low~J_C[2]"),
        ("explore/lattice[p=-3]", "pass", "low~J_C[2]^-1")]


def test_explore_intermediate_point_finds_middle_element(rep23, kit23):
    reports = explore_generic(TwoBoundaryLattice(rep23, kit23), 2, *_c_towers(rep23))
    assert [(r.check_name, r.status, r.note) for r in reports] == [
        ("explore/lattice[p=2]", "pass", "low~J_C[1]"),
        ("explore/lattice[p=-2]", "pass", "low~J_C[1]^-1")]


@pytest.mark.parametrize("coeff", [0, 2])
def test_corrupted_dual_fails_lattice_checks(rep23, kit23, coeff):
    # one entry of the right dual pencil X0 + X1 u + X2 u^2 changed: X0 leads
    # the lowest coefficient at every p > 0, X2 at every p < 0
    kit = copy.copy(kit23)
    pencil = list(kit23.aplus)
    pencil[coeff] = pencil[coeff] + PolyMatrix((2,), {(0, 1): rat(1, 3)})
    kit.aplus = tuple(pencil)
    lattice = TwoBoundaryLattice(rep23, kit)
    points = {r.check_name: r for n in range(1, 4) for r in explore_generic(lattice, n, *_c_towers(rep23))}
    for p in (1, 2, 3, -1, -2, -3):
        report = points[f"explore/lattice[p={p}]"]
        assert report.status == ("fail" if (p > 0) == (coeff == 0) else "pass")
        assert (report.note is None) == (report.status == "fail")
    assert [r.status for r in check_factorized(lattice)] == ["fail", "fail"]
    failing = points["explore/lattice[p=1]" if coeff == 0 else "explore/lattice[p=-1]"]
    assert failing.first_failure["element"] == ("J_C[0]" if coeff == 0 else "J_C[0]^-1")
