import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeverify.errors import DimensionMismatch
from heckeverify.rings import LaurentPoly, rat
from heckeverify.tensor import (PolyMatrix, _rref, commutes, embed, mat_proportional,
                                mat_sum, nullspace, trace_sandwich)

from conftest import flip_matrix, kron, lp_sum, ref_rref

U = LaurentPoly.unit


def unit_matrix(i, j, d):
    return PolyMatrix((d,), {(i, j): 1})


def random_matrix(rng, d, poly=False):
    entries = {}
    for r in range(d):
        for c in range(d):
            if rng.random() < 0.7:
                val = rat(rng.randrange(-5, 6), rng.randrange(1, 5))
                if poly and rng.random() < 0.5:
                    entries[r, c] = LaurentPoly({0: val, 1: rat(rng.randrange(-3, 4))})
                else:
                    entries[r, c] = val
    return PolyMatrix((d,), entries)


def trace(m):
    return lp_sum(m.get(i, i) for i in range(m.dim))


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
    assert embed(g, (0, 1), (2, 2, 2)) == kron(g, i2)
    assert embed(g, (1, 2), (2, 2, 2)) == kron(i2, g)
    g0 = random_matrix(rng, 2)
    assert embed(g0, (0,), (2, 2)) == kron(g0, i2)
    with pytest.raises(DimensionMismatch):
        embed(g, (1, 1), (2, 2, 2))
    with pytest.raises(DimensionMismatch):
        embed(g0, (3,), (2, 2, 2))
    with pytest.raises(DimensionMismatch):
        embed(g, (0,), (2, 2, 2))
    # the reversed pair is the flip conjugation
    p01 = flip_matrix(0, 1, (2, 2))
    assert embed(g, (1, 0), (2, 2)) == p01 * g * p01
    # a cycle of every factor, site k to factor k and the last to factor 0,
    # is the conjugation by the flips P_0,n-1 .. P_01 composed, k = 1 first:
    # the one-boundary middle against its former construction
    for n in (2, 3, 4):
        layout = (2,) * n
        x = random_matrix(rng, 2 ** n, poly=True)
        x.layout = layout
        flips = [flip_matrix(0, k, layout) for k in range(1, n)]
        cycle = reduce(mul, reversed(flips))
        assert embed(x, (*range(1, n), 0), layout) == cycle * x * reduce(mul, flips)
    # the identity pad moves the integers of x: x (x) I in the reference
    a = _clean({(r, c): {r - c: Fraction(r + 1, c + 2)} for r in range(DIM)
                for c in range(DIM) if (r * c) % 4 != 1})
    ident = {(i, i): {0: Fraction(1)} for i in range(DIM)}
    assert _to_ref(embed(_from_ref(a), range(2), LAYOUT * 2)) == _ref_kron(a, ident)


def test_embed_pair_nonadjacent_matches_flip_conjugation():
    rng = random.Random(13)
    g = random_matrix(rng, 4, poly=True)
    g.layout = (2, 2)
    layout = (2, 2, 2)
    direct = embed(g, (0, 2), layout)
    # conjugating the adjacent embedding with the (1,2) flip moves the slot
    p12 = flip_matrix(1, 2, layout)
    assert direct == p12 * embed(g, (0, 1), layout) * p12


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
    m = PolyMatrix((2,), {(0, 0): q, (1, 1): 1 / q})
    k = kron(m, PolyMatrix.identity((2,)))
    assert k.partial_trace_first() == PolyMatrix.identity((2,)).scale(q + 1 / q)


def _transposed(m):
    """The transpose of ``m``, from its entry map."""
    return PolyMatrix(m.layout, {(c, r): v for r, c, v in m.entries()})


def test_partial_transpose():
    rng = random.Random(23)
    a = random_matrix(rng, 2, poly=True)
    b = random_matrix(rng, 3, poly=True)
    k = kron(a, b)
    k.layout = (2, 3)
    assert k.partial_transpose(0) == kron(_transposed(a), b)
    assert k.partial_transpose(1) == kron(a, _transposed(b))
    assert k.partial_transpose(0).partial_transpose(0) == k
    diag = PolyMatrix.identity((2, 2)).scale(rat(5, 7))
    assert diag.partial_transpose(1) == diag


def test_partial_transpose_middle_factor():
    rng = random.Random(41)
    a, b, c = (random_matrix(rng, 2, poly=True) for _ in range(3))
    x = kron(kron(a, b), c)
    assert x.partial_transpose(1) == kron(kron(a, _transposed(b)), c)
    assert x.partial_transpose(2) == kron(kron(a, b), _transposed(c))


def test_mat_proportional_zero_against_support():
    # a zero side is proportional to nothing: a zero ratio is no ratio
    rng = random.Random(43)
    b = random_matrix(rng, 2)
    assert not b.is_zero
    zero = PolyMatrix((2,))
    assert mat_proportional(zero, b) is None
    assert mat_proportional(b, zero) is None
    assert mat_proportional(zero, zero) is None
    # nonzero sides with disjoint supports
    assert mat_proportional(unit_matrix(0, 1, 2), unit_matrix(1, 0, 2)) is None


def test_mat_proportional_examples():
    i4 = PolyMatrix.identity((2, 2))
    r = mat_proportional(i4.scale(2), i4)
    assert r == LaurentPoly.const(2)
    rng = random.Random(29)
    a = random_matrix(rng, 3, poly=True)
    r = mat_proportional(a.scale(U(1)), a)
    assert r == U(1)
    bumped = i4 + kron(unit_matrix(0, 1, 2), PolyMatrix.identity((2,)))
    assert mat_proportional(bumped, i4) is None


def test_mat_proportional_rational_function_ratio():
    rng = random.Random(31)
    a = random_matrix(rng, 2, poly=True)
    num = LaurentPoly({0: 1, 1: 1})
    den = LaurentPoly({0: 1, 1: 2})
    # (1 + u) / (1 + 2u) is a rational function, not a Laurent polynomial
    assert mat_proportional(a.scale(num), a.scale(den)) is None
    assert mat_proportional(a.scale(num * den), a.scale(den)) == num


def test_matmul_agrees_with_evaluation():
    rng = random.Random(37)
    a = random_matrix(rng, 4, poly=True)
    b = random_matrix(rng, 4, poly=True)
    x = rat(4, 7)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@pytest.mark.parametrize("entry", [(2, 0), (0, -1)], ids=["row-past-dim", "negative-col"])
def test_constructor_rejects_entries_outside_dim(entry):
    with pytest.raises(DimensionMismatch):
        PolyMatrix((2,), {entry: 1})


def test_dump_dict_shape():
    m = PolyMatrix((2,), {(0, 1): LaurentPoly({1: rat(-3, 4), 0: rat(2)})})
    d = m.to_dump_dict()
    assert d == {"dim": 2, "layout": [2], "entries": [[0, 1, [[0, 2, 1], [1, -3, 4]]]]}


def test_nullspace_and_solve():
    rows = [[rat(1), rat(2)], [rat(2), rat(4)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == 0
    # A x = b solves as the null vector of [A | b] at b's column: x = -y[:-1]
    (y,) = nullspace([[rat(1), rat(1), rat(3)], [rat(1), rat(-1), rat(1)]])
    assert y == [rat(-2), rat(-1), rat(1)]
    assert nullspace([[rat(1), rat(0)], [rat(1), rat(1)]]) == []


def test_independent_rows():
    rows = [[rat(0), rat(0)], [rat(1), rat(2)], [rat(2), rat(4)], [rat(0), rat(1)],
            [rat(1), rat(1)]]
    # the pivots of the transposed rows: zero and dependent rows are passed
    # over, and a full rank stops the scan
    assert _rref([list(col) for col in zip(*rows)])[1] == [1, 3]
    assert _rref([]) == ([], [])


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


def _ref_band(a, lo, hi):
    return _clean({key: {d: c for d, c in poly.items()
                         if (lo is None or d >= lo) and (hi is None or d <= hi)}
                   for key, poly in a.items()})


def _ref_compose(a, k):
    out = {}
    for key, poly in a.items():
        sub = out[key] = {}
        for d, c in poly.items():
            sub[d * k] = sub.get(d * k, Fraction(0)) + c
    return _clean(out)


def _ref_derivative(a):
    return _clean({key: {0: sum(-2 * d * c for d, c in poly.items())}
                   for key, poly in a.items()})


def _ref_kron(a, b):
    return _clean({(ra * DIM + rb, ca * DIM + cb): _ref_poly_mul(pa, pb)
                   for (ra, ca), pa in a.items() for (rb, cb), pb in b.items()})


def _ref_partial_transpose(a, factor):
    out = {}
    for (r, c), poly in a.items():
        rd, cd = list(divmod(r, LAYOUT[1])), list(divmod(c, LAYOUT[1]))
        rd[factor], cd[factor] = cd[factor], rd[factor]
        out[rd[0] * LAYOUT[1] + rd[1], cd[0] * LAYOUT[1] + cd[1]] = poly
    return out


def _from_ref(ref):
    return PolyMatrix(LAYOUT, {key: LaurentPoly(poly) for key, poly in ref.items()})


def _to_ref(m):
    out = {(r, c): dict(v.terms) for r, c, v in m.entries()}
    # values are read back as reduced rationals
    for poly in out.values():
        for c in poly.values():
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    # the stored form: no empty degree or row, no stored zero, and a positive
    # common denominator, not necessarily the least
    assert type(m.den) is int and m.den > 0
    for mat in m.mats.values():
        assert mat
        for row in mat.values():
            assert row
            for v in row.values():
                assert type(v) is int and v != 0
    # the entry-wise view holds the integer numerators over den
    assert {(r, c): {d: Fraction(v, m.den) for d, v in p.terms.items()}
            for r, row in m.rows.items() for c, p in row.items()} == out
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


_bounds = st.one_of(st.none(), st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(_pairs(), _polys.map(lambda p: {d: c for d, c in p.items() if c}),
       _coeffs.filter(bool), st.integers(-2, 2), st.integers(-3, 3), _bounds, _bounds)
def test_integer_layer_matches_fraction_reference(pair, s, x, deg, shift, lo, hi):
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
    assert _to_ref(ma.shift(shift)) == _ref_scale(a, {shift: Fraction(1)})
    assert _to_ref(ma.coefficient(deg)) == _ref_coefficient(a, deg)
    # a windowed product forms the product's terms of degree lo..hi only
    assert _to_ref(ma._matmul(mb, lo=lo, hi=hi)) == _ref_band(_ref_matmul(a, b), lo, hi)
    # u -> u^k re-keys the degrees; at k = 0 they all collide in degree 0
    for k in range(-2, 3):
        assert _to_ref(ma.compose_power(k)) == _ref_compose(a, k)
    assert _to_ref(ma.derivative_at_one()) == _ref_derivative(a)
    assert _to_ref(kron(ma, mb)) == _ref_kron(a, b)
    for factor in (0, 1):
        assert _to_ref(ma.partial_transpose(factor)) == _ref_partial_transpose(a, factor)
    assert ma.nnz == len(a)
    if a:
        degs = [d for poly in a.values() for d in poly]
        assert (ma.min_degree(), ma.max_degree()) == (min(degs), max(degs))
    # removing one degree cancels its whole key
    rest = ma - ma.coefficient(deg).scale(U(deg))
    assert deg not in rest.mats
    assert _to_ref(rest) == _ref_add(_ref_band(a, None, deg - 1), _ref_band(a, deg + 1, None))
    assert (ma == mb) == (a == b)
    assert ma * mb - ma * mb == PolyMatrix(LAYOUT)


@settings(max_examples=80, deadline=None)
@given(_pairs(), st.integers(2, 30), st.data())
def test_equality_compares_values(pair, k, data):
    a, b = pair
    m = _from_ref(a) * _from_ref(b)
    # a product over a denominator that is not always the least equals its
    # value rebuilt from the entries
    rebuilt = PolyMatrix(LAYOUT, {(r, c): v for r, c, v in m.entries()})
    assert m == rebuilt and rebuilt == m
    # the same numerators and denominator times k: the same values
    scaled = PolyMatrix(LAYOUT)
    scaled.mats = {d: {r: {c: k * v for c, v in row.items()} for r, row in mat.items()}
                   for d, mat in m.mats.items()}
    scaled.den = k * m.den
    assert scaled == m and m == scaled
    # one changed entry compares unequal, on either side
    key = (data.draw(st.integers(0, DIM - 1)), data.draw(st.integers(0, DIM - 1)))
    bump = data.draw(_coeffs.filter(bool))
    deg = data.draw(st.integers(-4, 4))
    changed = m + PolyMatrix(LAYOUT, {key: LaurentPoly({deg: bump})})
    assert changed != m and m != changed and changed != scaled


_terms = st.lists(st.tuples(_refs, st.sampled_from((1, 2, 3, 5, 12))), min_size=1,
                  max_size=4)


@settings(max_examples=80, deadline=None)
@given(_terms, st.booleans())
def test_mat_sum_matches_fraction_reference(terms, cancel):
    # each reference scaled by 1/k to mix the denominators
    refs = [_ref_scale(ref, {0: Fraction(1, k)}) for ref, k in terms]
    if cancel:
        refs.append(_ref_scale(reduce(_ref_add, refs), {0: Fraction(-1)}))
    got = mat_sum(_from_ref(ref) for ref in refs)
    want = reduce(_ref_add, refs)
    assert _to_ref(got) == want
    assert got.is_zero == (not want)
    if cancel:
        assert got.is_zero


def test_mat_sum_rejects_unequal_dims():
    with pytest.raises(DimensionMismatch):
        mat_sum([PolyMatrix.identity((2,)), PolyMatrix.identity((3,))])
    with pytest.raises(DimensionMismatch):
        PolyMatrix.identity((2,)) + PolyMatrix.identity((2, 2))


@settings(max_examples=80, deadline=None)
@given(_refs, _polys.map(lambda p: {d: c for d, c in p.items() if c}).filter(bool),
       st.data())
def test_mat_proportional_matches_fraction_reference(b, s, data):
    scaled = _ref_scale(b, s)
    r = mat_proportional(_from_ref(scaled), _from_ref(b))
    if not b:
        assert r is None   # a zero side is proportional to nothing
        return
    assert r is not None and not r.is_zero
    # scaled == b * r entry by entry, in reference arithmetic
    assert scaled == _ref_scale(b, dict(r.terms))
    if len(b) < 2:
        return
    # a perturbation of one entry breaks proportionality
    key = data.draw(st.sampled_from(sorted(b)))
    bumped = _ref_add(scaled, {key: {3: Fraction(1)}})
    assert mat_proportional(_from_ref(bumped), _from_ref(b)) is None
    outside = [(r, c) for r in range(DIM) for c in range(DIM) if (r, c) not in b]
    key = data.draw(st.sampled_from(outside))
    assert mat_proportional(_from_ref({**scaled, key: {0: Fraction(1)}}), _from_ref(b)) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]), st.data())
def test_trace_sandwich_matches_trace_product(shape, data):
    # x and y on the (auxiliary, site) pair, the middle on (auxiliary, rest):
    # the contraction against the partial trace of the sandwich formed on the
    # full layout
    d, extra = shape
    mid_layout = (d,) * (1 + extra)
    layout = mid_layout + (d,)

    def draw(dim, size):
        keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
        ref = _clean(data.draw(st.dictionaries(keys, _polys, max_size=size)))
        return {key: LaurentPoly(p) for key, p in ref.items()}

    x = PolyMatrix((d, d), draw(d * d, 12))
    y = PolyMatrix((d, d), draw(d * d, 12))
    mid = PolyMatrix(mid_layout, draw(d ** (1 + extra), 30))
    got = trace_sandwich(x, mid, y)
    last = len(layout) - 1
    want = (embed(x, (0, last), layout) * embed(mid, range(last), layout)
            * embed(y, (0, last), layout)).partial_trace_first()
    assert got == want
    assert got.layout == layout[1:]
    # the windowed contraction forms the terms of degree lo..hi only
    lo, hi = data.draw(_bounds), data.draw(_bounds)
    assert _to_ref(trace_sandwich(x, mid, y, lo=lo, hi=hi)) == _ref_band(_to_ref(got), lo, hi)


def test_trace_sandwich_rejects_mismatched_parts():
    x = PolyMatrix.identity((2, 2))
    with pytest.raises(DimensionMismatch):
        trace_sandwich(x, PolyMatrix.identity((2, 2)), PolyMatrix.identity((2, 3)))
    # the middle's factor 0 is the auxiliary space of x and y, whatever follows
    for layout in ((3, 2), (3,), (1, 2, 2)):
        with pytest.raises(DimensionMismatch, match="auxiliary factor"):
            trace_sandwich(x, PolyMatrix.identity(layout), x)
    assert trace_sandwich(x, PolyMatrix.identity((2, 3)), x).layout == (3, 2)


@st.composite
def _commutation_pairs(draw):
    """Two reference matrices over distinct denominators: unrelated, or ``b``
    a polynomial ``s a^2 + t a + c`` in ``a`` (commuting), or that with one
    entry changed."""
    a = draw(_refs.filter(bool))
    kind = draw(st.sampled_from(("unrelated", "polynomial", "bumped")))
    if kind == "unrelated":
        return a, draw(_refs.filter(bool))
    s, t, c = draw(_polys), draw(_polys), draw(_polys)
    scalar = _clean({(i, i): c for i in range(DIM)})
    b = _ref_add(_ref_add(_ref_scale(_ref_matmul(a, a), s), _ref_scale(a, t)), scalar)
    if kind == "bumped":
        key = (draw(st.integers(0, DIM - 1)), draw(st.integers(0, DIM - 1)))
        b = _ref_add(b, {key: {draw(st.integers(-2, 2)): draw(_coeffs.filter(bool))}})
    return a, b


@settings(max_examples=100, deadline=None)
@given(_commutation_pairs())
def test_commutes_matches_products(pair):
    a, b = pair
    ma, mb = _from_ref(a), _from_ref(b)
    want = _ref_matmul(a, b) == _ref_matmul(b, a)
    assert (ma * mb == mb * ma) == want
    assert commutes(ma, mb) == commutes(mb, ma) == want


def test_commutes_without_content_division():
    # the products keep a content that the accumulation of a b - b a never
    # divides either
    y = PolyMatrix((3,), {(0, 0): 1, (0, 1): 2, (1, 2): -1, (2, 0): 3, (2, 2): 1})
    a = y.scale(rat(2, 3))
    b = (y * y).scale(rat(3, 2)) + y.scale(LaurentPoly({1: rat(3, 4)}))
    ab = a * b
    assert gcd(ab.den, *(v for m in ab.mats.values() for row in m.values()
                         for v in row.values())) > 1
    assert commutes(a, b) and commutes(b, a)
    # a pair differing in one entry from a commuting one
    e = PolyMatrix((3,), {(1, 0): 1})
    assert a * e != e * a
    assert not commutes(a, b + e) and not commutes(b + e, a)


def test_commutes_rejects_unequal_dims():
    with pytest.raises(DimensionMismatch):
        commutes(PolyMatrix.identity((2,)), PolyMatrix.identity((3,)))


# ---------------------------------------------------------------------------
# fraction-free elimination against a rational Gauss-Jordan reference
# ---------------------------------------------------------------------------

@st.composite
def _low_rank_systems(draw):
    """An m x n product of random m x r and r x n matrices (rank <= r < m),
    some entries plain ints, and a right-hand side that is ``A x`` or ``A x``
    with one entry bumped (usually inconsistent)."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, m - 1))
    left = [[draw(_coeffs) for _ in range(r)] for _ in range(m)]
    right = [[draw(_coeffs) for _ in range(n)] for _ in range(r)]
    a = [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
         for i in range(m)]
    if draw(st.booleans()):
        a = [[int(x) if x.denominator == 1 else x for x in row] for row in a]
    x = [draw(_coeffs) for _ in range(n)]
    rhs = [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in a]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, m - 1))] += 1
    return a, rhs


@settings(max_examples=150, deadline=None)
@given(_low_rank_systems())
def test_fraction_free_rref_matches_rational_reference(system):
    a, rhs = system
    n = len(a[0])
    aug = [row + [b] for row, b in zip(a, rhs)]
    for rows in (a, aug, [list(col) for col in zip(*a)]):
        got, pivots = _rref(rows)
        want, want_pivots = ref_rref(rows, len(rows[0]))
        assert pivots == want_pivots
        assert got == want[:len(pivots)]
        assert all(type(x) is Fraction for row in got for x in row)
    # A x = rhs through the nullspace of [A | rhs]: a null vector with a
    # nonzero last coordinate exists exactly when the reference finds the
    # system consistent, and it is then the reference solution (free
    # coefficients zero)
    ref_aug, ref_pivots = ref_rref(aug, n)
    consistent = not any(row[n] for row in ref_aug[len(ref_pivots):])
    y = next((v for v in nullspace(aug) if v[n]), None)
    assert (y is not None) == consistent
    if consistent:
        sol = [-x / y[n] for x in y[:n]]
        assert [sum((v * w for v, w in zip(row, sol)), Fraction(0)) for row in a] == rhs
        assert sol == [next((row[n] for row, p in zip(ref_aug, ref_pivots) if p == j),
                            Fraction(0)) for j in range(n)]
    basis = nullspace(a)
    assert len(basis) == n - len(ref_rref(a, n)[1])
    assert all(sum((v * w for v, w in zip(row, vec)), Fraction(0)) == 0
               for vec in basis for row in a)
