"""Sparse matrices over the Laurent ring on a tensor-factor layout.

Convention: factor 0 of a layout is the leftmost tensor slot; composite
basis index is row-major (``idx = i0*d1*...*dk + i1*d2*... + ...``), and
``embed`` places every local operator on a layout.  The auxiliary space of
a transfer-matrix construction is always factor 0: ``trace_sandwich`` is
the one contraction that closes an auxiliary trace, and it takes the middle
matrix itself, split once into its auxiliary blocks over the middle's one
denominator.

Storage: a matrix is one matrix polynomial ``sum_d u^d C_d / den``: one
positive ``int`` common denominator ``den`` and ``mats = {d: C_d}``, each
``C_d`` a sparse integer matrix ``{row: {col: int}}``, with no empty degree
or row and no stored zero.  ``den`` is a common denominator, not necessarily
the least: values are reduced where they are read, and equality compares
values.  Every kernel works degree by degree on the integers and drops the
zeros of a result once; a sum of many terms (``mat_sum``) is accumulated
once; a constant matrix is the one-key case, so its products are plain
integer products.  A product may be given a degree window ``[lo, hi]``: the
degree pairs whose sum falls outside it are skipped, so a truncated product
forms only the terms it keeps.
Rationals are formed only where an entry is read (``get``, ``entries``,
``to_dump_dict``); ``rows`` is a read-only entry-wise view built on demand.
Stored integer matrices are never mutated, so results share them.

Every proportionality claim goes through ``mat_proportional``: two nonzero
matrices are proportional when one is a nonzero Laurent polynomial times
the other, and that polynomial is the ratio a report records.  Every
commutation claim goes through ``commutes``, one zero test of ``a b - b a``.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DimensionMismatch
from .rings import LaurentPoly, Rational, lp_ratio, rat


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _strides(layout) -> list[int]:
    n = len(layout)
    st = [1] * n
    for k in range(n - 2, -1, -1):
        st[k] = st[k + 1] * layout[k + 1]
    return st


def _poly(terms: dict) -> LaurentPoly:
    """Wrap a term dict (no zero values) without coercing its coefficients."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = terms
    return p


def _split(val) -> tuple[dict, int]:
    """Integer terms and least common denominator of a rational scalar or
    LaurentPoly: ``val == terms / den``."""
    terms = val.terms if isinstance(val, LaurentPoly) else {0: val}
    den = lcm(*(c.denominator for c in terms.values()))
    return {d: c.numerator * (den // c.denominator) for d, c in terms.items() if c}, den


def _add_into(acc: dict, m: dict, f: int) -> None:
    """``acc += f * m`` on integer matrices; the rows of ``acc`` are its own."""
    for r, row in m.items():
        arow = acc.get(r)
        if arow is None:
            acc[r] = {c: v * f for c, v in row.items()}
        else:
            for c, v in row.items():
                arow[c] = arow.get(c, 0) + v * f


def _canonical(mats: dict) -> dict:
    """Drop the zeros, empty rows and empty degrees a sum can leave: the
    degree readers (``is_zero``, ``min_degree``, ``max_degree``) need that."""
    out = {}
    for d, m in mats.items():
        rows = {}
        for r, row in m.items():
            if 0 in row.values():
                row = {c: v for c, v in row.items() if v}
            if row:
                rows[r] = row
        if rows:
            out[d] = rows
    return out


def _product(a: dict, b: dict, out: dict, lo: int | None = None,
             hi: int | None = None) -> dict:
    """The one product kernel: ``out += a * b`` for matrix polynomials, the
    sum over degree pairs of sparse integer products (zeros left in), only
    the pairs of degree ``lo <= d <= hi`` (a bound left out is open)."""
    for da, am in a.items():
        for db, bm in b.items():
            d = da + db
            if (lo is not None and d < lo) or (hi is not None and d > hi):
                continue
            m = out.get(d)
            if m is None:
                m = out[d] = {}
            for r, arow in am.items():
                acc = m.get(r)
                if acc is None:
                    acc = m[r] = {}
                get = acc.get
                for k, x in arow.items():
                    brow = bm.get(k)
                    if brow is not None:
                        for c, y in brow.items():
                            acc[c] = get(c, 0) + x * y
    return out


def _per_degree(mats: dict, fn) -> dict:
    return {d: fn(m) for d, m in mats.items()}


class PolyMatrix:
    """Square sparse matrix with LaurentPoly entries and a factor layout,
    stored as a polynomial of integer matrices over one common denominator."""

    __slots__ = ("dim", "layout", "mats", "den")

    def __init__(self, layout, entries=None):
        """The matrix with ``entries``, a map ``(r, c) -> value`` of rational
        scalars or LaurentPolys (zero values allowed), over their least
        common denominator."""
        self.layout = tuple(int(d) for d in layout)
        self.dim = _prod(self.layout)
        self.mats: dict[int, dict[int, dict[int, int]]] = {}
        self.den = 1
        if entries:
            split = {}
            for (r, c), val in entries.items():
                if not (0 <= r < self.dim and 0 <= c < self.dim):
                    raise DimensionMismatch(f"entry ({r},{c}) outside dim {self.dim}")
                split[r, c] = _split(val)
            den = lcm(*(d for _, d in split.values()))
            mats: dict = {}
            for (r, c), (terms, d) in split.items():
                for k, v in terms.items():
                    mats.setdefault(k, {}).setdefault(r, {})[c] = v * (den // d)
            self.mats, self.den = mats, den

    @classmethod
    def _make(cls, layout: tuple, dim: int, mats: dict, den: int) -> "PolyMatrix":
        """The matrix of integer ``mats``, no zero stored, over ``den``."""
        out = cls.__new__(cls)
        out.layout, out.dim, out.mats, out.den = layout, dim, mats, den
        return out

    def _like(self, mats: dict, den: int | None = None) -> "PolyMatrix":
        """Same layout, ``mats`` over ``den`` (by default this denominator)."""
        return self._make(self.layout, self.dim, mats, self.den if den is None else den)

    # -- construction ---------------------------------------------------
    @classmethod
    def identity(cls, layout) -> "PolyMatrix":
        m = cls(layout)
        m.mats = {0: {i: {i: 1} for i in range(m.dim)}}
        return m

    # -- reading ----------------------------------------------------------
    @property
    def rows(self) -> dict[int, dict[int, LaurentPoly]]:
        """Read-only entry-wise view ``{r: {c: LaurentPoly}}`` of the integer
        numerators over ``den``, built on demand."""
        rows: dict = {}
        for d, m in self.mats.items():
            for r, row in m.items():
                trow = rows.setdefault(r, {})
                for c, v in row.items():
                    trow.setdefault(c, {})[d] = v
        return {r: {c: _poly(t) for c, t in row.items()} for r, row in rows.items()}

    def get(self, r: int, c: int) -> LaurentPoly:
        """Entry ``(r, c)`` with reduced rational coefficients."""
        den = self.den
        return _poly({d: rat(m[r][c], den) for d, m in self.mats.items()
                      if c in m.get(r, ())})

    def entries(self):
        """Iterate ``(r, c, value)`` sorted by (r, c), values rational."""
        rows, den = self.rows, self.den
        for r in sorted(rows):
            row = rows[r]
            for c in sorted(row):
                yield r, c, _poly({d: rat(v, den) for d, v in row[c].terms.items()})

    @property
    def nnz(self) -> int:
        """The number of nonzero entries."""
        return len({(r, c) for m in self.mats.values() for r, row in m.items() for c in row})

    @property
    def is_zero(self) -> bool:
        return not self.mats

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return mat_sum((self, other))

    def __neg__(self) -> "PolyMatrix":
        return self._like(_per_degree(self.mats, lambda m: {
            r: {c: -v for c, v in row.items()} for r, row in m.items()}))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The matrix product; ``scale`` multiplies by a scalar."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._matmul(other)

    def scale(self, s) -> "PolyMatrix":
        terms, den = _split(s)
        out: dict = {}
        for k, t in terms.items():
            for d, m in self.mats.items():
                _add_into(out.setdefault(d + k, {}), m, t)
        return self._like(_canonical(out), self.den * den)

    def _matmul(self, other: "PolyMatrix", *, lo: int | None = None,
                hi: int | None = None) -> "PolyMatrix":
        """The product's terms of degree ``lo <= d <= hi`` (a bound left out
        is open), formed from those degree pairs only."""
        if self.dim != other.dim:
            raise DimensionMismatch("matrix product needs equal dims")
        return self._like(_canonical(_product(self.mats, other.mats, {}, lo, hi)),
                          self.den * other.den)

    def compose_power(self, k: int) -> "PolyMatrix":
        """Substitute ``u -> u^k``: for ``k != 0`` the degrees are re-keyed
        ``d -> d*k`` over the same integer matrices; for ``k = 0`` they
        collide and are summed."""
        if k == 0:
            return self._weighted(dict.fromkeys(self.mats, 1), self.den)
        return self._like({d * k: m for d, m in self.mats.items()})

    def shift(self, k: int) -> "PolyMatrix":
        """Multiply by ``u^k``: every degree re-keyed ``d -> d + k``."""
        return self._like({d + k: m for d, m in self.mats.items()})

    def __eq__(self, other):
        """Equality of values: no zero is stored, so equal values have equal
        supports, and numerators over other denominators agree crosswise."""
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        a, b = self.den, other.den
        if a == b:
            return self.mats == other.mats
        if self.mats.keys() != other.mats.keys():
            return False
        for d, m in self.mats.items():
            n = other.mats[d]
            if m.keys() != n.keys():
                return False
            for r, row in m.items():
                nrow = n[r]
                if row.keys() != nrow.keys() or any(v * b != nrow[c] * a
                                                    for c, v in row.items()):
                    return False
        return True

    # -- structural operations ---------------------------------------------
    def partial_transpose(self, factor: int) -> "PolyMatrix":
        """Transpose the indices of one tensor factor only."""
        if factor >= len(self.layout):
            raise DimensionMismatch(f"factor {factor} outside layout {self.layout}")
        st = _strides(self.layout)[factor]
        d = self.layout[factor]

        def flip(m):
            out: dict = {}
            for r, row in m.items():
                a = (r // st) % d
                base_r = r - a * st
                for c, v in row.items():
                    b = (c // st) % d
                    out.setdefault(base_r + b * st, {})[c - b * st + a * st] = v
            return out
        return self._like(_per_degree(self.mats, flip))

    def partial_trace_first(self) -> "PolyMatrix":
        """Trace out factor 0: the sum of the diagonal ``aux_blocks``, on the
        remaining factors."""
        blocks = aux_blocks(self)
        return mat_sum(blocks[b, b] for b in range(self.layout[0]))

    def _weighted(self, weight: dict, den: int) -> "PolyMatrix":
        """The constant matrix ``sum_d weight[d] * C_d / den``."""
        out: dict = {}
        for d, m in self.mats.items():
            if weight[d]:
                _add_into(out, m, weight[d])
        return self._like(_canonical({0: out}), den)

    def derivative_at_one(self) -> "PolyMatrix":
        """Entrywise derivative in ``lam`` at ``lam = 0`` for ``u = exp(-2 lam)``:
        the constant matrix ``sum_k -2k C_k`` of ``sum_k u^k C_k``."""
        return self._weighted({k: -2 * k for k in self.mats}, self.den)

    def evaluate(self, x) -> "PolyMatrix":
        """Specialize the formal variable at a rational point."""
        x = x if isinstance(x, Rational) else rat(x)
        xn, xd = x.numerator, x.denominator
        degs = [0, *self.mats]
        lo, hi = min(degs), max(degs)
        if not xn and lo < 0:
            raise ZeroDivisionError("negative degrees evaluated at zero")
        # x^d = xn^(d-lo) xd^(hi-d) / (xd^hi xn^-lo), all exponents >= 0
        den = self.den * xd**hi * xn**-lo
        sign = -1 if den < 0 else 1
        return self._weighted({d: sign * xn**(d - lo) * xd**(hi - d) for d in self.mats},
                              abs(den))

    def min_degree(self) -> int:
        return min(self.mats)

    def max_degree(self) -> int:
        return max(self.mats)

    def coefficient(self, deg: int) -> "PolyMatrix":
        """Constant matrix of the ``u^deg`` coefficients."""
        return self._like({0: self.mats[deg]} if deg in self.mats else {})

    def to_dump_dict(self) -> dict:
        """Canonical dump form: entries sorted by (row, col), degrees ascending."""
        ents = []
        for r, c, v in self.entries():
            ents.append([r, c, [[d, v.terms[d].numerator, v.terms[d].denominator]
                                for d in sorted(v.terms)]])
        return {"dim": self.dim, "layout": list(self.layout), "entries": ents}


# ---------------------------------------------------------------------------
# layout operations
# ---------------------------------------------------------------------------

def _split_aux(m: PolyMatrix) -> dict:
    """The integer matrix polynomials (over ``m.den``) of the nonzero blocks
    ``m^{bc}`` of ``m = sum_{b,c} E_bc (x) m^{bc}``, factor 0 auxiliary."""
    aux = range(m.layout[0])
    rest = m.dim // m.layout[0]
    out: dict = {}
    for d, mat in m.mats.items():
        for r, row in mat.items():
            b, rr = divmod(r, rest)
            parts: list[dict] = [{} for _ in aux]
            for c, v in row.items():
                parts[c // rest][c % rest] = v
            for c, part in zip(aux, parts):
                if part:
                    out.setdefault((b, c), {}).setdefault(d, {})[rr] = part
    return out


def aux_blocks(m: PolyMatrix) -> dict[tuple[int, int], PolyMatrix]:
    """Every auxiliary block ``m^{bc}`` of ``m = sum_{b,c} E_bc (x) m^{bc}``
    (factor 0 auxiliary, zero blocks included), each on the other factors."""
    split = _split_aux(m)
    aux = range(m.layout[0])
    layout, dim = m.layout[1:], m.dim // m.layout[0]
    return {(b, c): PolyMatrix._make(layout, dim, split.get((b, c), {}), m.den)
            for b in aux for c in aux}


def trace_sandwich(x: PolyMatrix, mid: PolyMatrix, y: PolyMatrix, *,
                   lo: int | None = None, hi: int | None = None) -> PolyMatrix:
    """``tr_0[x (mid (x) I) y]`` without forming the sandwich: ``x`` and ``y``
    on the (auxiliary, site) pair, ``mid`` with the same auxiliary factor 0,
    the result on the other factors of ``mid`` followed by the site.

    With ``x = sum E_ab (x) x^{ab}``, ``mid = sum E_bc (x) mid^{bc}`` and
    ``y = sum E_ca (x) y^{ca}`` the trace is ``sum_{b,c} mid^{bc} (x) z^{bc}``,
    ``z^{bc} = sum_a x^{ab} y^{ca}``: a product of small site matrices per
    nonzero block of ``mid``, then one Kronecker product of that block with
    it, summed in place.  Only the terms of degree ``lo <= d <= hi`` are
    formed, as in ``_matmul``."""
    if x.layout != y.layout or len(x.layout) != 2:
        raise DimensionMismatch("the sandwich ends must live on one (auxiliary, site) pair")
    aux, site = x.layout
    if mid.layout[0] != aux:
        raise DimensionMismatch(f"the middle's auxiliary factor must have dimension {aux}")
    xs, ys = _split_aux(x), _split_aux(y)
    out: dict = {}
    for (b, c), block in _split_aux(mid).items():
        z: dict = {}
        for a in range(aux):
            if (a, b) in xs and (c, a) in ys:
                _product(xs[a, b], ys[c, a], z)
        for dz, zm in z.items():
            for s, zrow in zm.items():
                for t, v in zrow.items():
                    if not v:
                        continue
                    for dm, mm in block.items():
                        d = dm + dz
                        if (lo is not None and d < lo) or (hi is not None and d > hi):
                            continue
                        o = out.get(d)
                        if o is None:
                            o = out[d] = {}
                        for r, mrow in mm.items():
                            orow = o.get(r * site + s)
                            if orow is None:
                                orow = o[r * site + s] = {}
                            get = orow.get
                            for col, w in mrow.items():
                                key = col * site + t
                                orow[key] = get(key, 0) + w * v
    return PolyMatrix._make(mid.layout[1:] + (site,), mid.dim // aux * site,
                            _canonical(out), mid.den * x.den * y.den)


def _offsets(layout, st, factors) -> list[int]:
    """Composite offsets of every digit tuple of ``factors``, row-major."""
    out = [0]
    for k in factors:
        out = [o + digit * st[k] for o in out for digit in range(layout[k])]
    return out


def embed(op: PolyMatrix, factors, layout) -> PolyMatrix:
    """Embed ``op``, whose row-major slots sit at the distinct ``factors``,
    with the identity on every other factor of ``layout``: the one way an
    operator is placed.  A pair in either order, ``(i, j)``, places a
    two-factor operator; ``range(len(op.layout))`` pads with identities
    after it; a permutation of every factor conjugates by that permutation.
    The stored integers are moved, never multiplied."""
    layout, factors = tuple(layout), tuple(factors)
    if len(set(factors)) != len(factors) or not all(0 <= k < len(layout) for k in factors):
        raise DimensionMismatch(f"invalid factors {factors} for layout {layout}")
    if op.dim != _prod(layout[k] for k in factors):
        raise DimensionMismatch(f"operator dim {op.dim} does not fit factors {factors} "
                                f"of layout {layout}")
    st = _strides(layout)
    off = _offsets(layout, st, factors)
    bases = _offsets(layout, st, [k for k in range(len(layout)) if k not in factors])

    def spread(m):
        ops = [(off[r], [(off[c], v) for c, v in row.items()]) for r, row in m.items()]
        return {base + r: {base + c: v for c, v in row} for base in bases for r, row in ops}
    return PolyMatrix._make(layout, _prod(layout), _per_degree(op.mats, spread), op.den)


def mat_sum(terms) -> PolyMatrix:
    """The sum of the matrices ``terms`` (at least one), each added once into
    one accumulator over the lcm of their denominators."""
    terms = list(terms)
    if len({t.dim for t in terms}) > 1:
        raise DimensionMismatch("matrix addition needs equal dims")
    den = lcm(*(t.den for t in terms))
    out: dict = {}
    for t in terms:
        for d, m in t.mats.items():
            _add_into(out.setdefault(d, {}), m, den // t.den)
    return terms[0]._like(_canonical(out), den)


def mat_proportional(a: PolyMatrix, b: PolyMatrix) -> LaurentPoly | None:
    """The nonzero Laurent polynomial ``r`` with ``a == r*b``, or None.

    This is the one place that decides proportionality: a zero side is
    proportional to nothing, and a quotient that is not a Laurent polynomial
    is no ratio.  The ratio is seeded from the first entry of ``b`` (in
    ``(r, c)`` order) and verified on the whole matrix: ``a == r*b``
    compares values, whatever common denominator either side carries.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("proportionality needs equal dims")
    if a.is_zero or b.is_zero:
        return None
    r = min(min(m) for m in b.mats.values())
    c = min(min(m[r]) for m in b.mats.values() if r in m)
    ratio = lp_ratio(a.get(r, c), b.get(r, c))
    if ratio is None or ratio.is_zero or b.scale(ratio) != a:
        return None
    return ratio


def commutes(a: PolyMatrix, b: PolyMatrix) -> bool:
    """``a * b == b * a``, with neither product built as a matrix:
    both are integer matrix polynomials over ``a.den * b.den``, so
    ``a b - b a`` is accumulated into one ``_product`` output, the operand
    with fewer stored integers negated, and tested for zero exactly."""
    if a.dim != b.dim:
        raise DimensionMismatch("commutation needs equal dims")
    size = [sum(len(row) for m in x.mats.values() for row in m.values()) for x in (a, b)]
    out = _product(a.mats, b.mats, {})
    if size[0] < size[1]:
        _product(b.mats, (-a).mats, out)
    else:
        _product((-b).mats, a.mats, out)
    return not any(v for m in out.values() for row in m.values() for v in row.values())


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination and its nullspace, on
# dense rational rows or on the integer rows of an entrywise matrix system
# ---------------------------------------------------------------------------

def numerator_rows(mats: list[PolyMatrix]) -> list[tuple[int, ...]]:
    """The distinct rows ``(N_1, .., N_k)`` of the entrywise system of
    ``mats``, read from the integer storage: one per degree and entry of the
    union of their supports, each matrix over its own ``den``.  An entry
    outside that union reads ``0 = 0`` and a repeated row adds nothing, so
    ``y`` is a null vector of these rows exactly when
    ``sum_i y_i den_i M_i = 0``."""
    keys = {(d, r, c) for m in mats for d, mat in m.mats.items()
            for r, row in mat.items() for c in row}
    return list({tuple(m.mats.get(d, {}).get(r, {}).get(c, 0) for m in mats)
                 for d, r, c in keys})


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Gauss-Jordan reduction of a dense rational matrix: its nonzero
    reduced rows and their pivot columns.

    Fraction-free: each row is cleared to integers, every elimination step
    ``p * row - f * pivot_row`` is divided by its content, and a pivot row
    is divided by its pivot only when returned, so it equals its rational
    Gauss-Jordan counterpart."""
    a = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
    m = len(a)
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        if len(pivots) == m:
            break
        r = len(pivots)
        pr = next((i for i in range(r, m) if a[i][col]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow, p = a[r], a[r][col]
        for i in range(m):
            f = a[i][col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return [[rat(x, row[col]) for x in row] for row, col in zip(a, pivots)], pivots


def nullspace(rows: list[list]) -> list[list]:
    """Basis of the right nullspace of a dense rational matrix: one vector
    per free column, 1 there and 0 at every other free column."""
    if not rows:
        return []
    n = len(rows[0])
    a, pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [rat(0)] * n
        vec[fc] = rat(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][fc]
        basis.append(vec)
    return basis
