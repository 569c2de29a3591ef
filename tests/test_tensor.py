import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeverify.errors import DimensionMismatch
from heckeverify.rings import LaurentPoly, rat
from heckeverify.tensor import (PolyMatrix, embed_pair, embed_site, kron, lin_solve,
                                mat_proportional, nullspace, permutation_pair)

U = LaurentPoly.unit


def unit_matrix(i, j, d):
    m = PolyMatrix((d,))
    m._set(i, j, 1)
    return m


def random_matrix(rng, d, poly=False):
    m = PolyMatrix((d,))
    for r in range(d):
        for c in range(d):
            if rng.random() < 0.7:
                val = rat(rng.randrange(-5, 6), rng.randrange(1, 5))
                if poly and rng.random() < 0.5:
                    m._set(r, c, LaurentPoly({0: val, 1: rat(rng.randrange(-3, 4))}))
                else:
                    m._set(r, c, val)
    return m


def trace(m):
    total = LaurentPoly.zero()
    for i in range(m.dim):
        total = total + m.get(i, i)
    return total


def test_kron_identity():
    i2 = PolyMatrix.identity((2,))
    assert kron(i2, i2) == PolyMatrix.identity((2, 2))


def test_kron_unit_matrices():
    # e_12 (x) e_21 with 1-based labels: single entry at (row 1, col 2)
    a = unit_matrix(0, 1, 2)
    b = unit_matrix(1, 0, 2)
    k = kron(a, b)
    assert list(k.entries()) == [(1, 2, LaurentPoly.const(1))]


def test_kron_dims():
    rng = random.Random(5)
    a = random_matrix(rng, 2)
    b = random_matrix(rng, 3)
    assert kron(a, b).dim == 6
    assert kron(a, b).layout == (2, 3)


def test_kron_associativity_and_mixed_product():
    rng = random.Random(7)
    a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
    assert kron(kron(a, b), c).rows == kron(a, kron(b, c)).rows
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_embed_examples():
    rng = random.Random(11)
    g = random_matrix(rng, 4)
    g.layout = (2, 2)
    i2 = PolyMatrix.identity((2,))
    assert embed_pair(g, 0, 1, (2, 2, 2)) == kron(g, i2)
    assert embed_pair(g, 1, 2, (2, 2, 2)) == kron(i2, g)
    g0 = random_matrix(rng, 2)
    assert embed_site(g0, 0, (2, 2)) == kron(g0, i2)
    with pytest.raises(DimensionMismatch):
        embed_pair(g, 1, 1, (2, 2, 2))
    with pytest.raises(DimensionMismatch):
        embed_site(g, 0, (2, 2, 2))


def test_embed_pair_nonadjacent_matches_flip_conjugation():
    rng = random.Random(13)
    g = random_matrix(rng, 4, poly=True)
    g.layout = (2, 2)
    layout = (2, 2, 2)
    direct = embed_pair(g, 0, 2, layout)
    # conjugating the adjacent embedding with the (1,2) flip moves the slot
    p12 = permutation_pair(1, 2, layout)
    assert direct == p12 * embed_pair(g, 0, 1, layout) * p12


def test_partial_trace_of_kron():
    rng = random.Random(17)
    for d in (2, 3):
        a = random_matrix(rng, d, poly=True)
        b = random_matrix(rng, d, poly=True)
        assert kron(a, b).partial_trace_first() == b.scale(trace(a))


def test_partial_trace_identity_factor():
    rng = random.Random(19)
    b = random_matrix(rng, 3)
    k = kron(PolyMatrix.identity((4,)), b)
    assert k.partial_trace_first() == b.scale(4)


def test_partial_trace_twist_example():
    q = rat(3, 5)
    m = PolyMatrix((2,))
    m._set(0, 0, q)
    m._set(1, 1, 1 / q)
    k = kron(m, PolyMatrix.identity((2,)))
    assert k.partial_trace_first() == PolyMatrix.identity((2,)).scale(q + 1 / q)


def test_partial_transpose():
    rng = random.Random(23)
    a = random_matrix(rng, 2, poly=True)
    b = random_matrix(rng, 3, poly=True)
    k = kron(a, b)
    k.layout = (2, 3)
    assert k.partial_transpose(0) == kron(a.transpose(), b)
    assert k.partial_transpose(1) == kron(a, b.transpose())
    assert k.partial_transpose(0).partial_transpose(0) == k
    diag = PolyMatrix.identity((2, 2)).scale(rat(5, 7))
    assert diag.partial_transpose(1) == diag


def test_partial_transpose_middle_factor():
    rng = random.Random(41)
    a, b, c = (random_matrix(rng, 2, poly=True) for _ in range(3))
    x = kron(kron(a, b), c)
    assert x.partial_transpose(1) == kron(kron(a, b.transpose()), c)
    assert x.partial_transpose(2) == kron(kron(a, b), c.transpose())


def test_mat_proportional_zero_against_support():
    # b has support where a vanishes: no common ratio unless a is zero
    rng = random.Random(43)
    b = random_matrix(rng, 2)
    zero = PolyMatrix((2,))
    r = mat_proportional(zero, b)
    assert r is not None and r.num.is_zero
    assert mat_proportional(b, zero) is None or b.is_zero


def test_mat_proportional_examples():
    i4 = PolyMatrix.identity((2, 2))
    r = mat_proportional(i4.scale(2), i4)
    assert r is not None and r.num == LaurentPoly.const(2)
    rng = random.Random(29)
    a = random_matrix(rng, 3, poly=True)
    r = mat_proportional(a.scale(U(1)), a)
    assert r is not None and r.num == U(1)
    bumped = i4 + kron(unit_matrix(0, 1, 2), PolyMatrix.identity((2,)))
    assert mat_proportional(bumped, i4) is None


def test_mat_proportional_rational_function_ratio():
    rng = random.Random(31)
    a = random_matrix(rng, 2, poly=True)
    num = LaurentPoly({0: 1, 1: 1})
    den = LaurentPoly({0: 1, 1: 2})
    r = mat_proportional(a.scale(num), a.scale(den))
    assert r is not None and r.num == num and r.den == den


def test_matmul_agrees_with_evaluation():
    rng = random.Random(37)
    a = random_matrix(rng, 4, poly=True)
    b = random_matrix(rng, 4, poly=True)
    x = rat(4, 7)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_dump_dict_shape():
    m = PolyMatrix((2,))
    m._set(0, 1, LaurentPoly({1: rat(-3, 4), 0: rat(2)}))
    d = m.to_dump_dict()
    assert d == {"dim": 2, "layout": [2], "entries": [[0, 1, [[0, 2, 1], [1, -3, 4]]]]}


def test_nullspace_and_solve():
    rows = [[rat(1), rat(2)], [rat(2), rat(4)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == 0
    sol = lin_solve([[rat(1), rat(1)], [rat(1), rat(-1)]], [rat(3), rat(1)])
    assert sol == [rat(2), rat(1)]
    assert lin_solve([[rat(1)], [rat(1)]], [rat(0), rat(1)]) is None


# ---------------------------------------------------------------------------
# the integer layer against a naive Fraction dict-of-dicts reference
# ---------------------------------------------------------------------------

LAYOUT = (2, 3)
DIM = 6


def _clean(ref):
    """Drop zero coefficients and empty entries of a reference matrix."""
    out = {}
    for key, poly in ref.items():
        poly = {d: c for d, c in poly.items() if c}
        if poly:
            out[key] = poly
    return out


def _ref_poly_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, Fraction(0)) + c
    return out


def _ref_poly_mul(a, b):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, Fraction(0)) + ca * cb
    return out


def _ref_add(a, b):
    out = dict(a)
    for key, poly in b.items():
        out[key] = _ref_poly_add(out.get(key, {}), poly)
    return _clean(out)


def _ref_matmul(a, b):
    out = {}
    for (r, k), pa in a.items():
        for (k2, c), pb in b.items():
            if k == k2:
                out[r, c] = _ref_poly_add(out.get((r, c), {}), _ref_poly_mul(pa, pb))
    return _clean(out)


def _ref_scale(a, s):
    return _clean({key: _ref_poly_mul(poly, s) for key, poly in a.items()})


def _ref_trace_first(a):
    rest = DIM // LAYOUT[0]
    out = {}
    for (r, c), poly in a.items():
        if r // rest == c // rest:
            key = (r % rest, c % rest)
            out[key] = _ref_poly_add(out.get(key, {}), poly)
    return _clean(out)


def _ref_evaluate(a, x):
    return _clean({key: {0: sum(c * x**d for d, c in poly.items())}
                   for key, poly in a.items()})


def _ref_coefficient(a, deg):
    return _clean({key: {0: poly.get(deg, Fraction(0))} for key, poly in a.items()})


def _from_ref(ref):
    return PolyMatrix(LAYOUT, {key: LaurentPoly(poly) for key, poly in ref.items()})


def _to_ref(m):
    out = {(r, c): dict(v.terms) for r, c, v in m.entries()}
    # values are read back as reduced rationals, and stored canonically
    for poly in out.values():
        for c in poly.values():
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    content = m.den
    for row in m.rows.values():
        for poly in row.values():
            for c in poly.terms.values():
                assert type(c) is int
                content = gcd(content, c)
    assert content == 1
    return out


_coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 6, 9)))
_polys = st.dictionaries(st.integers(-2, 2), _coeffs, max_size=3)
_refs = st.dictionaries(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)),
                        _polys, max_size=10).map(_clean)


@st.composite
def _pairs(draw):
    """Two reference matrices; ``b`` often repeats entries of ``a`` negated,
    so that sums and products cancel."""
    a = draw(_refs)
    b = draw(_refs)
    if a and draw(st.booleans()):
        keys = sorted(a)
        for key in draw(st.lists(st.sampled_from(keys), max_size=len(keys))):
            b[key] = {d: -c for d, c in a[key].items()}
    return a, b


@settings(max_examples=80, deadline=None)
@given(_pairs(), _polys.map(lambda p: {d: c for d, c in p.items() if c}),
       _coeffs.filter(bool), st.integers(-2, 2), st.integers(-3, 3))
def test_integer_layer_matches_fraction_reference(pair, s, x, deg, shift):
    a, b = pair
    ma, mb = _from_ref(a), _from_ref(b)
    assert _to_ref(ma) == a and _to_ref(mb) == b
    assert _to_ref(ma * mb) == _ref_matmul(a, b)
    assert _to_ref(ma + mb) == _ref_add(a, b)
    assert _to_ref(ma - mb) == _ref_add(a, _ref_scale(b, {0: Fraction(-1)}))
    assert _to_ref(ma.scale(LaurentPoly(s))) == _ref_scale(a, s)
    assert _to_ref(ma.partial_trace_first()) == _ref_trace_first(a)
    # the shift varies the parity of the lowest degree, and so the sign of
    # the evaluation's common denominator at negative points
    shifted = ma.scale(U(shift)).evaluate(rat(x.numerator, x.denominator))
    assert _to_ref(shifted) == _ref_evaluate(_ref_scale(a, {shift: Fraction(1)}), x)
    assert _to_ref(ma.coefficient(deg)) == _ref_coefficient(a, deg)
    assert (ma == mb) == (a == b)
    assert ma * mb - ma * mb == PolyMatrix(LAYOUT)
    # entry-by-entry construction gives the same canonical form
    built = PolyMatrix(LAYOUT)
    for (r, c), poly in sorted(b.items()):
        built._set(r, c, LaurentPoly(poly))
    for (r, c), poly in sorted(a.items()):
        built._set(r, c, LaurentPoly(poly))
    assert built == _from_ref({**b, **a})


@settings(max_examples=80, deadline=None)
@given(_refs, _polys.map(lambda p: {d: c for d, c in p.items() if c}).filter(bool),
       st.data())
def test_mat_proportional_matches_fraction_reference(b, s, data):
    scaled = _ref_scale(b, s)
    r = mat_proportional(_from_ref(scaled), _from_ref(b))
    if not b:
        assert r is not None
        return
    assert r is not None
    num, den = dict(r.num.terms), dict(r.den.terms)
    # scaled * den == b * num entry by entry, in reference arithmetic
    assert _ref_scale(scaled, den) == _ref_scale(b, num)
    if len(b) < 2:
        return
    # a perturbation of one entry breaks proportionality
    key = data.draw(st.sampled_from(sorted(b)))
    bumped = _ref_add(scaled, {key: {3: Fraction(1)}})
    assert mat_proportional(_from_ref(bumped), _from_ref(b)) is None
    outside = [(r, c) for r in range(DIM) for c in range(DIM) if (r, c) not in b]
    key = data.draw(st.sampled_from(outside))
    assert mat_proportional(_from_ref({**scaled, key: {0: Fraction(1)}}), _from_ref(b)) is None
