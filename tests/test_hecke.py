import copy
import hashlib

import pytest

from heckeverify import build_glN_rep
from heckeverify.errors import (ConstraintViolation, IndexOutOfRange,
                                NotInvertible, RelationFailure)
from heckeverify.hecke import (check_murphy_commutation, check_relations,
                               check_symmetric_commutant, check_tl_quotient,
                               generator_inverse, murphy, murphy_tower, scalar_right)
from heckeverify.params import Params, sample_params
from heckeverify.reporting import render_report
from heckeverify.rings import LaurentPoly, rat
from heckeverify.tensor import PolyMatrix, embed_pair, embed_site

from conftest import FIXED, SEEDS, murphy_inv


def dense(m):
    return [[m.get(r, c) for c in range(m.dim)] for r in range(m.dim)]


def test_bulk_matrix_explicit(rep22):
    q = FIXED.q
    s = q - 1 / q
    one = LaurentPoly.const(1)
    expected = [[LaurentPoly.const(q), 0, 0, 0],
                [0, 0, one, 0],
                [0, one, LaurentPoly.const(s), 0],
                [0, 0, 0, LaurentPoly.const(q)]]
    got = dense(rep22.g_local)
    for r in range(4):
        for c in range(4):
            assert got[r][c] == expected[r][c]


def _convention(d, q, hop_swapped, sgn_flipped):
    """A two-site generator of another index convention: the parallel hop
    ``e_ab (x) e_ab`` or the exchange hop ``e_ab (x) e_ba``, with the
    diagonal weight ``q^sgn`` in one orientation or the other."""
    entries = {(k, k): q for k in range(d * d)}
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            r, c = (a * d + b, b * d + a) if hop_swapped else (a * d + a, b * d + b)
            entries[r, c] = entries.get((r, c), 0) + 1
            sgn_arg = (b - a) if sgn_flipped else (a - b)
            entries[a * d + b, a * d + b] -= q if sgn_arg > 0 else 1 / q
    return PolyMatrix((d, d), entries)


def test_rejected_variant_passes_braid_but_fails_boundary(rep22):
    # Of the other index conventions, the parallel hop fails even the
    # quadratic relation; the exchange hop with the transposed weight
    # satisfies the braid and quadratic relations on its own (it is a flip
    # conjugate), yet fails both boundary braid relations, which single out
    # the orientation of the generator the representation uses.
    q = FIXED.q
    ident = PolyMatrix.identity((2, 2))
    assert _convention(2, q, True, True) == rep22.g_local

    def quadratic(g):
        return (g - ident.scale(q)) * (g + ident.scale(1 / q))

    assert not quadratic(_convention(2, q, False, False)).is_zero
    g = _convention(2, q, True, False)
    assert quadratic(g).is_zero
    l3 = (2, 2, 2)
    a = embed_pair(g, 0, 1, l3)
    b = embed_pair(g, 1, 2, l3)
    assert a * b * a == b * a * b
    e0 = embed_site(rep22.g0_local, 0, (2, 2))
    assert g * e0 * g * e0 != e0 * g * e0 * g
    en = embed_site(rep22.gN_local, 1, (2, 2))
    assert en * g * en * g != g * en * g * en


def test_left_boundary_explicit(rep22):
    got = dense(rep22.g0_local)
    Q0 = FIXED.Q0
    assert got[0][0] == LaurentPoly.const(Q0 - 1 / Q0)
    assert got[0][1] == LaurentPoly.const(FIXED.x0p)
    assert got[1][0] == LaurentPoly.const(FIXED.x0m)
    assert got[1][1] == 0


def test_x_product_constraint():
    bad = Params(q=rat(3, 5), Q0=rat(2, 7), QN=rat(5, 3), x0p=rat(4),
                 x0m=rat(1, 2), xNp=rat(7, 2), xNm=rat(2, 7),
                 c_minus=rat(1, 3), c_plus=rat(-2, 5))
    with pytest.raises(ConstraintViolation):
        build_glN_rep(2, 2, bad)


def test_generator_inverse():
    q = FIXED.q
    rep = build_glN_rep(2, 2, FIXED)
    inv = generator_inverse(rep.g_local, q)
    ident = PolyMatrix.identity((2, 2))
    assert inv == rep.g_local - ident.scale(q - 1 / q)
    assert generator_inverse(PolyMatrix.identity((3,)), rat(1)) \
        == PolyMatrix.identity((3,))
    nil = PolyMatrix((2,), {(0, 1): 1})
    with pytest.raises(NotInvertible):
        generator_inverse(nil, rat(2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim,sites", [(2, 3), (3, 2)])
def test_relations_all_families(seed, dim, sites):
    rep = build_glN_rep(dim, sites, sample_params(seed))
    for family in ("A", "B", "C"):
        assert check_relations(rep, family).status == "pass"


def test_relation_failure_detected(rep22):
    rep = copy.copy(rep22)
    rep.braid = dict(rep22.braid)
    rep.braid[1] = rep22.identity()  # identity violates the quadratic at q != 1
    report = check_relations(rep, "A")
    assert report.status == "fail"
    assert "quadratic" in report.first_failure["relation"]


def test_family_a_ignores_boundary(rep23):
    rep = copy.copy(rep23)
    rep.b0 = rep23.identity().scale(rat(17))  # corrupt the boundary image
    assert check_relations(rep, "A").status == "pass"
    assert check_relations(rep, "B").status == "fail"


def test_tl_quotient_values(rep23):
    km, kp = check_tl_quotient(rep23)
    assert km == rat(541, 210)
    assert kp == rat(706, 225)


def test_tl_oracle_product(rep23):
    # independent oracle: explicit products against the returned scalars
    p = FIXED
    ident = rep23.identity()
    e1 = rep23.braid[1] - ident.scale(p.q)
    e0 = rep23.b0 - ident.scale(p.Q0)
    km, _ = check_tl_quotient(rep23)
    assert e1 * e0 * e1 == e1.scale(km)
    e2 = rep23.braid[2] - ident.scale(p.q)
    assert e1 * e2 * e1 == e1
    # e^2 is proportional to e with the standard loop weight -(q + 1/q)
    assert e1 * e1 == e1.scale(-(p.q + 1 / p.q))


def test_tl_fails_beyond_dim_two(rep32):
    with pytest.raises((RelationFailure, ConstraintViolation)):
        check_tl_quotient(rep32)


def test_murphy_base_cases(rep23):
    assert murphy(rep23, "B", 0) == rep23.b0
    assert murphy(rep23, "A", 1) == rep23.braid[1] * rep23.braid[1]
    assert murphy(rep23, "B", 1) == rep23.braid[1] * rep23.b0 * rep23.braid[1]


def test_murphy_c_explicit(rep22):
    g1, g1i = rep22.braid[1], rep22.braid_inv[1]
    j0 = g1i * rep22.bn * g1 * rep22.b0
    assert murphy(rep22, "C", 0) == j0
    assert murphy(rep22, "C", 1) == g1 * j0 * g1


def test_murphy_index_ranges(rep23):
    with pytest.raises(IndexOutOfRange):
        murphy(rep23, "A", 0)
    with pytest.raises(IndexOutOfRange):
        murphy(rep23, "B", 3)
    with pytest.raises(IndexOutOfRange):
        murphy(rep23, "C", -1)


def test_murphy_inverses(rep23):
    ident = rep23.identity()
    for family in ("A", "B", "C"):
        idx = range(1, 3) if family == "A" else range(0, 3)
        for i in idx:
            assert murphy(rep23, family, i) * murphy_inv(rep23, family, i) == ident


def _word(rep, letters):
    """The product of a generator word of ``(index, +-1)`` letters."""
    mats = [rep.generator(k) if e == 1 else rep.generator_inv(k) for k, e in letters]
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


@pytest.mark.parametrize("dim,sites", [(2, 4), (3, 3)], ids=["2", "3"])
def test_murphy_follows_recursion(dim, sites):
    # the tower against the paper's full words g_i..g_1 base g_1..g_i from
    # J_1 = g1^2 (A), J_0 = g0 (B), J_0 = g1^-1..g_{N-1}^-1 gN g_{N-1}..g1 g0
    # (C), and J_i^-1 as the reversed word of inverses
    rep = build_glN_rep(dim, sites, FIXED)
    n = sites
    bases = {"A": [(1, 1), (1, 1)], "B": [(0, 1)],
             "C": [*((k, -1) for k in range(1, n)), (n, 1),
                   *((k, 1) for k in range(n - 1, 0, -1)), (0, 1)]}
    for family, base in bases.items():
        lo = 1 if family == "A" else 0
        for i in range(lo, n):
            left = [(k, 1) for k in range(i, lo, -1)]
            word = left + base + left[::-1]
            assert murphy(rep, family, i) == _word(rep, word)
            assert murphy_inv(rep, family, i) == _word(
                rep, [(k, -e) for k, e in reversed(word)])


def test_murphy_b_with_trivial_boundary_is_a_type(rep23):
    # replacing the boundary image by the identity collapses B onto A
    for i in (1, 2):
        j = rep23.identity()
        for k in range(1, i + 1):
            j = rep23.braid[k] * j * rep23.braid[k]
        # j = g_i .. g_1 * 1 * g_1 .. g_i
        assert j == murphy(rep23, "A", i)


@pytest.mark.parametrize("dim,sites", [(2, 4), (3, 3)])
def test_murphy_commutation(dim, sites):
    rep = build_glN_rep(dim, sites, FIXED)
    for family in ("A", "B", "C"):
        assert check_murphy_commutation(rep, family, murphy_tower(rep, family)).status == "pass"


def test_murphy_commutation_detects_corruption(rep23):
    rep = copy.copy(rep23)
    rep.b0 = rep23.braid[2]  # breaks [J_0, J_1] = 0
    report = check_murphy_commutation(rep, "B", murphy_tower(rep, "B"))
    assert report.status == "fail"
    assert report.first_failure["pair"] == "(0,1)"


def test_symmetric_commutant(rep23, rep22):
    assert check_symmetric_commutant(rep23, "B", 2, murphy_tower(rep23, "B")).status == "pass"
    assert check_symmetric_commutant(rep23, "A", 2, murphy_tower(rep23, "A")).status == "pass"
    c_both = murphy_tower(rep22, "C") + murphy_tower(rep22, "C", True)
    assert check_symmetric_commutant(rep22, "C", 1, c_both).status == "pass"


@pytest.mark.parametrize("dim,sites", [(2, 3), (3, 3)])
def test_b_tower_ignores_right_boundary(dim, sites):
    # no B-type word contains gN, so the B tower of a representation serves
    # the one with its right boundary collapsed to a scalar (degeneration)
    rep = build_glN_rep(dim, sites, FIXED)
    for inverse in (False, True):
        assert murphy_tower(rep, "B", inverse) == murphy_tower(scalar_right(rep), "B", inverse)


def test_single_murphy_element_is_not_central(rep23):
    # scoping: an individual element need not commute with every generator
    j1 = murphy(rep23, "B", 1)
    g2 = rep23.braid[2]
    assert j1 * g2 != g2 * j1


def test_degenerate_right_boundary():
    rep = scalar_right(build_glN_rep(2, 2, FIXED))
    assert rep.degenerate_right
    assert rep.gN_local == PolyMatrix.identity((2,)).scale(FIXED.QN)
    assert rep.bn == rep.identity().scale(FIXED.QN)
    assert rep.bn_inv == rep.identity().scale(1 / FIXED.QN)
    assert check_relations(rep, "C").status == "pass"


def _corrupted(rep, k, entry):
    """A copy of ``rep`` with 1 added to one entry of generator ``k``."""
    bad = copy.copy(rep)
    bad.braid = dict(rep.braid)
    g = rep.generator(k) + PolyMatrix(rep.layout, {entry: 1})
    if k == 0:
        bad.b0 = g
    elif k == rep.sites:
        bad.bn = g
    else:
        bad.braid[k] = g
    return bad


@pytest.mark.parametrize("dim,sites,statuses,digest", [
    (2, 4, "fff fff fff fff pff pff ppf ppf",
     "235660132f69845db652acc042730d70db1687ed5f0f4752e30ae9c550c2cda3"),
    (3, 3, "fff fff fff fff pff pff ppf ppf",
     "25a9923f5186145cb768130ce151ec1a30007579a0fc1a6b73016828029b29b5"),
], ids=["2x4", "3x3"])
def test_relation_failures_pinned(dim, sites, statuses, digest):
    # one corrupted entry in each of g_1, g_{n-1}, g_0 and g_n, at an
    # off-diagonal and a diagonal position: the reports pin which relation,
    # by name and order, finds each corruption first
    rep = build_glN_rep(dim, sites, FIXED)
    reports = [check_relations(_corrupted(rep, k, entry), family)
               for k in (1, sites - 1, 0, sites) for entry in ((1, 0), (0, 0))
               for family in ("A", "B", "C")]
    got = " ".join("".join(r.status[0] for r in reports[i:i + 3])
                   for i in range(0, len(reports), 3))
    assert got == statuses
    text = render_report(reports, {})
    assert hashlib.sha256(text.encode()).hexdigest() == digest
