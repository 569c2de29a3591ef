"""Sparse matrices over the Laurent ring on a tensor-factor layout.

Convention: factor 0 of a layout is the leftmost tensor slot; composite
basis index is row-major (``idx = i0*d1*...*dk + i1*d2*... + ...``).  The
auxiliary space of a transfer-matrix construction is always factor 0, so
its partial trace is a leading-block sum.

Storage: one positive ``int`` common denominator ``den`` per matrix plus
sparse rows of LaurentPoly entries with Python-``int`` coefficients; entry
``(r, c)`` is ``rows[r][c] / den``.  The form is canonical: ``den`` is the
least common denominator of the entries (its gcd with every coefficient is
1), so equal matrices have equal ``den`` and equal rows.  Every kernel works
on the integers and normalizes once per result; rationals are formed only
where an entry is read (``get``, ``entries``, ``to_dump_dict``).  Entry
objects are never mutated once stored, so embeddings share them.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DimensionMismatch
from .rings import LaurentPoly, LaurentRatio, Rational, lp_ratio, rat, _mul_into


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
    den = 1
    for c in terms.values():
        den = lcm(den, int(c.denominator))
    return {d: int(c.numerator) * (den // int(c.denominator))
            for d, c in terms.items() if c}, den


def _mul(a: dict, b: dict) -> dict:
    t: dict = {}
    _mul_into(t, a, b)
    return t


def _scaled(p: LaurentPoly, f: int) -> LaurentPoly:
    return p if f == 1 else _poly({d: c * f for d, c in p.terms.items()})


def _add_terms(a: dict, b: dict) -> dict:
    t = dict(a)
    for d, c in b.items():
        s = t.get(d, 0) + c
        if s:
            t[d] = s
        else:
            del t[d]
    return t


def _reduced(rows: dict, den: int) -> tuple[dict, int]:
    """Divide ``rows`` and ``den`` by their common content (usually 1, found
    after a few coefficients)."""
    g = den
    for row in rows.values():
        for p in row.values():
            for c in p.terms.values():
                g = gcd(g, c)
                if g == 1:
                    return rows, den
    return ({r: {c: _poly({d: v // g for d, v in p.terms.items()}) for c, p in row.items()}
             for r, row in rows.items()}, den // g)


class PolyMatrix:
    """Square sparse matrix with LaurentPoly entries and a factor layout,
    stored as integer rows over one common denominator."""

    __slots__ = ("dim", "layout", "rows", "den")

    def __init__(self, layout, entries=None):
        self.layout = tuple(int(d) for d in layout)
        self.dim = _prod(self.layout)
        self.rows: dict[int, dict[int, LaurentPoly]] = {}
        self.den = 1
        if entries:
            for (r, c), val in entries.items():
                self._set(r, c, val)

    @classmethod
    def _make(cls, layout, rows: dict, den: int) -> "PolyMatrix":
        """A matrix from integer rows over ``den``, brought to canonical form."""
        out = cls(layout)
        out.rows, out.den = _reduced(rows, den)
        return out

    def _like(self, rows: dict) -> "PolyMatrix":
        """Same layout and denominator, rows already canonical over it."""
        out = PolyMatrix(self.layout)
        out.rows, out.den = rows, self.den
        return out

    # -- construction ---------------------------------------------------
    @classmethod
    def zeros(cls, layout) -> "PolyMatrix":
        return cls(layout)

    @classmethod
    def identity(cls, layout) -> "PolyMatrix":
        m = cls(layout)
        one = _poly({0: 1})
        for i in range(m.dim):
            m.rows[i] = {i: one}
        return m

    def _set(self, r: int, c: int, val) -> None:
        if r >= self.dim or c >= self.dim or r < 0 or c < 0:
            raise DimensionMismatch(f"entry ({r},{c}) outside dim {self.dim}")
        terms, d = _split(val)
        den = lcm(self.den, d)
        rows = self.rows
        if den != self.den:
            f = den // self.den
            rows = {rr: {cc: _scaled(p, f) for cc, p in row.items()}
                    for rr, row in rows.items()}
        row = rows.setdefault(r, {})
        if terms:
            row[c] = _scaled(_poly(terms), den // d)
        else:
            row.pop(c, None)
            if not row:
                del rows[r]
        self.rows, self.den = _reduced(rows, den)

    def _rational(self, p: LaurentPoly) -> LaurentPoly:
        den = self.den
        return _poly({d: rat(c, den) for d, c in p.terms.items()})

    def get(self, r: int, c: int) -> LaurentPoly:
        """Entry ``(r, c)`` with reduced rational coefficients."""
        p = self.rows.get(r, {}).get(c)
        return LaurentPoly.zero() if p is None else self._rational(p)

    def _sorted(self):
        """Iterate ``(r, c, integer entry)`` sorted by (r, c)."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def entries(self):
        """Iterate ``(r, c, value)`` sorted by (r, c), values rational."""
        for r, c, p in self._sorted():
            yield r, c, self._rational(p)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    @property
    def is_zero(self) -> bool:
        return not self.rows

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix addition needs equal dims")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = {r: {c: _scaled(p, fa) for c, p in row.items()} for r, row in self.rows.items()}
        for r, row in other.rows.items():
            orow = rows.setdefault(r, {})
            for c, p in row.items():
                p = _scaled(p, fb)
                s = orow.get(c)
                if s is None:
                    orow[c] = p
                else:
                    t = _add_terms(s.terms, p.terms)
                    if t:
                        orow[c] = _poly(t)
                    else:
                        del orow[c]
            if not orow:
                del rows[r]
        return PolyMatrix._make(self.layout, rows, den)

    def __neg__(self) -> "PolyMatrix":
        return self._like({r: {c: _poly({d: -v for d, v in p.terms.items()})
                               for c, p in row.items()} for r, row in self.rows.items()})

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything here
        return self.scale(other)

    def scale(self, s) -> "PolyMatrix":
        terms, d = _split(s)
        if not terms:
            return PolyMatrix(self.layout)
        rows = {r: {c: _poly(_mul(p.terms, terms)) for c, p in row.items()}
                for r, row in self.rows.items()}
        return PolyMatrix._make(self.layout, rows, self.den * d)

    def _matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix product needs equal dims")
        rows = {}
        orows = other.rows
        for r, arow in self.rows.items():
            acc: dict[int, dict] = {}
            for k, a in arow.items():
                brow = orows.get(k)
                if not brow:
                    continue
                at = a.terms
                for c, b in brow.items():
                    tgt = acc.get(c)
                    if tgt is None:
                        tgt = acc[c] = {}
                    _mul_into(tgt, at, b.terms)
            orow = {c: _poly(terms) for c, terms in acc.items() if terms}
            if orow:
                rows[r] = orow
        return PolyMatrix._make(self.layout, rows, self.den * other.den)

    def band(self, lo: int | None = None, hi: int | None = None) -> "PolyMatrix":
        """The terms of degree ``lo <= d <= hi``; a bound left out is open."""
        rows = {}
        for r, row in self.rows.items():
            orow = {}
            for c, p in row.items():
                t = {d: v for d, v in p.terms.items()
                     if (lo is None or d >= lo) and (hi is None or d <= hi)}
                if t:
                    orow[c] = p if len(t) == len(p.terms) else _poly(t)
            if orow:
                rows[r] = orow
        return PolyMatrix._make(self.layout, rows, self.den)

    def relabel(self, rows=None, cols=None) -> "PolyMatrix":
        """Move entry ``(r, c)`` to ``(rows[r], cols[c])`` (a map left out is
        the identity).  For an involutive index permutation ``s`` with matrix
        ``P``, ``relabel(rows=s)`` is ``P * self`` and ``relabel(cols=s)`` is
        ``self * P``."""
        out = {}
        for r, row in self.rows.items():
            out[rows[r] if rows else r] = ({cols[c]: v for c, v in row.items()}
                                           if cols else dict(row))
        return self._like(out)

    def __eq__(self, other):
        # both sides canonical: equal values have equal denominators and rows
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.rows == other.rows

    def __hash__(self):  # pragma: no cover - matrices rarely hashed
        return hash((self.dim, self.den, frozenset((r, c, v) for r, c, v in self._sorted())))

    # -- structural operations ---------------------------------------------
    def transpose(self) -> "PolyMatrix":
        rows: dict = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return self._like(rows)

    def partial_transpose(self, factor: int) -> "PolyMatrix":
        """Transpose the indices of one tensor factor only."""
        if factor >= len(self.layout):
            raise DimensionMismatch(f"factor {factor} outside layout {self.layout}")
        st = _strides(self.layout)[factor]
        d = self.layout[factor]
        rows: dict = {}
        for r, row in self.rows.items():
            a = (r // st) % d
            base_r = r - a * st
            for c, v in row.items():
                b = (c // st) % d
                rows.setdefault(base_r + b * st, {})[c - b * st + a * st] = v
        return self._like(rows)

    def partial_trace_first(self) -> "PolyMatrix":
        """Trace out factor 0; the result lives on the remaining factors."""
        if len(self.layout) < 2:
            raise DimensionMismatch("partial trace needs at least two factors")
        rest = self.dim // self.layout[0]
        rows: dict = {}
        for r, row in self.rows.items():
            i, rr = divmod(r, rest)
            base = i * rest
            orow = None
            for c, v in row.items():
                if base <= c < base + rest:
                    if orow is None:
                        orow = rows.setdefault(rr, {})
                    cc = c - base
                    s = orow.get(cc)
                    if s is None:
                        orow[cc] = v
                    else:
                        t = _add_terms(s.terms, v.terms)
                        if t:
                            orow[cc] = _poly(t)
                        else:
                            del orow[cc]
            if orow is not None and not orow:
                del rows[rr]
        return PolyMatrix._make(self.layout[1:], rows, self.den)

    def evaluate(self, x) -> "PolyMatrix":
        """Specialize the formal variable at a rational point."""
        x = x if isinstance(x, Rational) else rat(x)
        xn, xd = int(x.numerator), int(x.denominator)
        degs = {d for row in self.rows.values() for p in row.values() for d in p.terms}
        lo, hi = min(degs | {0}), max(degs | {0})
        if not xn and lo < 0:
            raise ZeroDivisionError("negative degrees evaluated at zero")
        # x^d = xn^(d-lo) xd^(hi-d) / (xd^hi xn^-lo), all exponents >= 0
        den = self.den * xd**hi * xn**-lo
        sign = -1 if den < 0 else 1
        weight = {d: sign * xn**(d - lo) * xd**(hi - d) for d in degs}
        rows = {}
        for r, row in self.rows.items():
            orow = {}
            for c, p in row.items():
                val = sum(v * weight[d] for d, v in p.terms.items())
                if val:
                    orow[c] = _poly({0: val})
            if orow:
                rows[r] = orow
        return PolyMatrix._make(self.layout, rows, abs(den))

    def min_degree(self) -> int:
        return min(p.min_deg() for row in self.rows.values() for p in row.values())

    def max_degree(self) -> int:
        return max(p.max_deg() for row in self.rows.values() for p in row.values())

    def coefficient(self, deg: int) -> "PolyMatrix":
        """Constant matrix of the ``u^deg`` coefficients."""
        rows = {}
        for r, row in self.rows.items():
            orow = {c: _poly({0: p.terms[deg]}) for c, p in row.items() if deg in p.terms}
            if orow:
                rows[r] = orow
        return PolyMatrix._make(self.layout, rows, self.den)

    def to_dump_dict(self) -> dict:
        """Canonical dump form: entries sorted by (row, col), degrees ascending."""
        ents = []
        for r, c, v in self.entries():
            ents.append([r, c, [[d, int(v.terms[d].numerator), int(v.terms[d].denominator)]
                                for d in sorted(v.terms)]])
        return {"dim": self.dim, "layout": list(self.layout), "entries": ents}


# ---------------------------------------------------------------------------
# layout operations
# ---------------------------------------------------------------------------

def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product; composite index ``i_a * dim(b) + i_b``."""
    rows: dict = {}
    db = b.dim
    for ra, rowa in a.rows.items():
        for ca, va in rowa.items():
            for rb, rowb in b.rows.items():
                orow = rows.setdefault(ra * db + rb, {})
                for cb, vb in rowb.items():
                    orow[ca * db + cb] = _poly(_mul(va.terms, vb.terms))
    return PolyMatrix._make(a.layout + b.layout, rows, a.den * b.den)


def _offsets(layout, st, factors) -> list[int]:
    """Composite offsets of every digit tuple of ``factors``, row-major."""
    out = [0]
    for k in factors:
        out = [o + digit * st[k] for o in out for digit in range(layout[k])]
    return out


def _embed(op: PolyMatrix, factors: tuple, layout) -> PolyMatrix:
    """Embed ``op``, whose row-major slots sit at the distinct ``factors``,
    with the identity on every other factor of ``layout``."""
    layout = tuple(layout)
    if len(set(factors)) != len(factors) or not all(0 <= k < len(layout) for k in factors):
        raise DimensionMismatch(f"invalid factors {factors} for layout {layout}")
    if op.dim != _prod(layout[k] for k in factors):
        raise DimensionMismatch(f"operator dim {op.dim} does not fit factors {factors} "
                                f"of layout {layout}")
    st = _strides(layout)
    off = _offsets(layout, st, factors)
    ops = [(off[r], [(off[c], v) for c, v in row.items()]) for r, row in op.rows.items()]
    rows = {}
    for base in _offsets(layout, st, [k for k in range(len(layout)) if k not in factors]):
        for r, row in ops:
            rows[base + r] = {base + c: v for c, v in row}
    out = PolyMatrix(layout)
    out.rows, out.den = rows, op.den
    return out


def embed_pair(op: PolyMatrix, i: int, j: int, layout) -> PolyMatrix:
    """Embed a two-factor operator with its first slot at factor ``i`` and
    second slot at factor ``j`` (any distinct positions), identity elsewhere."""
    return _embed(op, (i, j), layout)


def embed_site(op: PolyMatrix, i: int, layout) -> PolyMatrix:
    """Embed a one-factor operator at factor ``i``, identity elsewhere."""
    return _embed(op, (i,), layout)


def permutation_pair(i: int, j: int, layout) -> PolyMatrix:
    """The flip operator P exchanging factors ``i`` and ``j``."""
    layout = tuple(layout)
    d = layout[i]
    if layout[j] != d:
        raise DimensionMismatch("can only flip equal-dimension factors")
    p = PolyMatrix((d, d))
    one = _poly({0: 1})
    for a in range(d):
        for b in range(d):
            p.rows.setdefault(a * d + b, {})[b * d + a] = one
    return embed_pair(p, i, j, layout)


def mat_proportional(a: PolyMatrix, b: PolyMatrix) -> LaurentRatio | None:
    """Common exact ratio ``r`` with ``a == r*b`` entrywise, or None.

    The ratio is seeded from the first nonzero entry pair and verified on
    every entry; scalar, monomial and full rational-function ratios are all
    accepted.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("proportionality needs equal dims")
    if b.is_zero:
        return lp_ratio(LaurentPoly.zero(), LaurentPoly.zero()) if a.is_zero else None
    ratio = None
    for r, c, _ in b._sorted():
        if c in a.rows.get(r, ()):
            ratio = lp_ratio(a.get(r, c), b.get(r, c))
            break
    if ratio is None:
        # a vanishes wherever b does not; if a == 0 the ratio is 0
        ratio = lp_ratio(LaurentPoly.zero(), LaurentPoly.const(1))
    # with a = A/da, b = B/db and ratio = (N/nd) / (D/dd) over integer polys,
    # a == ratio * b  <=>  A * D * (db * nd) == B * N * (da * dd)
    big_n, nd = _split(ratio.num)
    big_d, dd = _split(ratio.den)
    lhs = _mul(big_d, {0: b.den * nd})
    rhs = _mul(big_n, {0: a.den * dd})
    empty: dict = {}
    for r, brow in b.rows.items():
        arow = a.rows.get(r, empty)
        for c, v in brow.items():
            av = arow.get(c)
            if _mul(av.terms if av else empty, lhs) != _mul(v.terms, rhs):
                return None
        if any(c not in brow for c in arow):
            return None  # a has support outside b
    if any(r not in b.rows for r in a.rows):
        return None
    return ratio


# ---------------------------------------------------------------------------
# exact dense linear algebra over the rationals (small systems only)
# ---------------------------------------------------------------------------

def _rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan reduction of a dense rational matrix on its first
    ``ncols`` columns: the reduced rows and their pivot columns."""
    a = [[x if isinstance(x, Rational) else rat(x) for x in row] for row in rows]
    m = len(a)
    pivots: list[int] = []
    for col in range(ncols):
        if len(pivots) == m:
            break
        r = len(pivots)
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = rat(1) / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def nullspace(rows: list[list]) -> list[list]:
    """Basis of the right nullspace of a dense rational matrix."""
    if not rows:
        return []
    n = len(rows[0])
    a, pivots = _rref(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [rat(0)] * n
        vec[fc] = rat(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][fc]
        basis.append(vec)
    return basis


def lin_solve(rows: list[list], rhs: list) -> list | None:
    """Exact solution of ``A x = b`` for consistent systems, else None."""
    n = len(rows[0]) if rows else 0
    a, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None  # inconsistent
    x = [rat(0)] * n
    for prow, pcol in enumerate(pivots):
        x[pcol] = a[prow][n]
    return x
