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
    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {d: -c for d, c in self.terms.items()}
        return out

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
        return NotImplemented

    def __eq__(self, other):
        # a scalar is not silently unequal: compare it as ``LaurentPoly.const``
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot compare LaurentPoly with {type(other).__name__}")
        return self.terms == other.terms

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


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def lp_ratio(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """The Laurent polynomial ``p`` with ``a == p*b``, or None when there is
    none (``b`` zero, or ``b`` not dividing ``a``).

    Long division from the top term, on the terms present only: each step
    clears the remainder's top term, so its degree falls.  An exact quotient
    has lowest degree ``min(a) - min(b)``, so a top term that needs a lower
    quotient degree leaves a remainder, and ``b`` does not divide ``a``.
    """
    if b.is_zero:
        return None
    if a.is_zero:
        return LaurentPoly.zero()
    rem, top_b = dict(a.terms), b.max_deg()
    low, inv_lead = a.min_deg() - b.min_deg(), _ONE / b.terms[top_b]
    quot = {}
    while rem:
        deg = max(rem) - top_b
        if deg < low:
            return None
        c = quot[deg] = rem[deg + top_b] * inv_lead
        for db, cb in b.terms.items():
            v = rem.pop(deg + db, _ZERO) - c * cb
            if v:
                rem[deg + db] = v
    return LaurentPoly(quot)
