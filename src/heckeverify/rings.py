"""Exact rational scalars and univariate Laurent polynomials.

All spectral-parameter dependence in the library lives in one formal
multiplicative variable ``u``.  The one scalar type is ``fractions.Fraction``
(``Rational``); a Laurent polynomial is a finite map ``degree ->
coefficient`` with no stored zeros, so equality of polynomials is equality
of dicts.  A ``tensor.PolyMatrix`` does not store LaurentPoly entries: it is
a polynomial of integer matrices over one common denominator, so a Rational
is formed only where an entry is read, and its ``rows`` view wraps integer
terms.
Ratios are exact division in the Laurent ring (``lp_ratio``): a quotient
that is not a Laurent polynomial is no ratio, so no rational function is
ever formed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnit

Rational = Fraction


def rat(num, den=1) -> Rational:
    """Exact rational ``num/den`` in canonical reduced form."""
    return Rational(num, den)


_ZERO = rat(0)
_ONE = rat(1)


def rat_str(x) -> str:
    """Canonical ``num/den`` string (den always printed positive)."""
    n, d = x.numerator, x.denominator
    return f"{n}/{d}"


class LaurentPoly:
    """Finite map degree -> nonzero Rational in one multiplicative variable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for deg, c in terms.items():
                c = c if isinstance(c, Rational) else rat(c)
                if c != 0:
                    t[int(deg)] = c
        self.terms = t

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def unit(cls, deg: int = 1, c=1) -> "LaurentPoly":
        """The single term ``c * u^deg``."""
        return cls({deg: c})

    # -- basic queries ------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    @property
    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def min_deg(self) -> int:
        return min(self.terms)

    def max_deg(self) -> int:
        return max(self.terms)

    def coeff(self, deg: int):
        return self.terms.get(deg, _ZERO)

    def constant_value(self):
        """The value of a constant polynomial as a Rational."""
        if not self.terms:
            return _ZERO
        if set(self.terms) != {0}:
            raise ValueError("polynomial is not constant")
        return self.terms[0]

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for deg, c in other.terms.items():
            s = t.get(deg, _ZERO) + c
            if s:
                t[deg] = s
            else:
                del t[deg]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {d: -c for d, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            t: dict = {}
            for da, ca in self.terms.items():
                for db, cb in other.terms.items():
                    d, s = da + db, t.get(da + db)
                    s = ca * cb if s is None else s + ca * cb
                    if s:
                        t[d] = s
                    else:
                        del t[d]
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = t
            return out
        if isinstance(other, (int, Fraction)):
            c = other if isinstance(other, Rational) else rat(other)
            if c == 0:
                return LaurentPoly.zero()
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = {d: v * c for d, v in self.terms.items()}
            return out
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.invert_unit() ** (-n)
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == LaurentPoly.const(other).terms
        return NotImplemented

    # -- specific operations -------------------------------------------
    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute ``u -> u^k`` (k nonzero)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {d * k: c for d, c in self.terms.items()}
        return out

    def invert_unit(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial ``c*u^k`` -> ``c^-1 u^-k``."""
        if len(self.terms) != 1:
            raise NotAUnit(f"not a unit: {self}")
        (deg, c), = self.terms.items()
        return LaurentPoly({-deg: _ONE / c})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 0:
                mono = rat_str(c)
            else:
                var = "u" if d == 1 else f"u^{d}"
                mono = var if c == 1 else (f"-{var}" if c == -1 else f"{rat_str(c)}*{var}")
            if parts and not mono.startswith("-"):
                parts.append("+" + mono)
            else:
                parts.append(mono)
        return "".join(parts)

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _to_dense(p: LaurentPoly) -> tuple[int, list]:
    """Split ``p = u^shift * P`` with ``P`` an ordinary poly, nonzero constant term."""
    shift = p.min_deg()
    top = p.max_deg()
    coeffs = [p.coeff(d) for d in range(shift, top + 1)]
    return shift, coeffs


def _dense_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = _ONE / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    while a and a[-1] == 0:
        a.pop()
    return q, a


def lp_ratio(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """The Laurent polynomial ``p`` with ``a == p*b``, or None when there is
    none (``b`` zero, or ``b`` not dividing ``a``).

    With ``a = u^i A`` and ``b = u^j B``, ``A`` and ``B`` ordinary
    polynomials with nonzero constant terms, the monomials are units and
    ``B`` is prime to ``u``, so ``b`` divides ``a`` exactly when ``B``
    divides ``A`` over the rationals.
    """
    if b.is_zero:
        return None
    if a.is_zero:
        return LaurentPoly.zero()
    sa, da = _to_dense(a)
    sb, db = _to_dense(b)
    q, rem = _dense_divmod(da, db)
    if rem:
        return None
    return LaurentPoly({sa - sb + i: c for i, c in enumerate(q)})
