"""Dense exact-rational oracle for the identities the benchmark checks.

It shares no code with ``heckeverify.rings`` or ``heckeverify.tensor``: a
matrix is a list of rows of ``fractions.Fraction``, and a Laurent matrix (a
transfer matrix in the formal variable ``u``) is a list of rows of
``{degree: Fraction}`` dicts.  The embedded generators are rebuilt from the
program's local matrices by Kronecker products, and every Murphy element is
formed as the generator word the paper writes for it.  Products by a
generator go through its sparse rows, so a word of length ``k`` applied to
a dense matrix costs ``k`` sparse products, not ``k`` dense ones.

Letters are ``(index, power)`` pairs: index 0 is the left boundary
generator, ``1..n-1`` the bulk ones, ``n`` the right boundary generator,
and power is +1 or -1.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def kron(a, b) -> list[list[Fraction]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _sparse_rows(m) -> list[list[tuple[int, Fraction]]]:
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def matmul(a, b) -> list[list[Fraction]]:
    brows = _sparse_rows(b)
    width = len(b[0])
    out = []
    for row in a:
        acc = [ZERO] * width
        for k, x in enumerate(row):
            if x:
                for j, y in brows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def add(a, b, scale=ONE) -> list[list[Fraction]]:
    """``a + scale * b``."""
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(m) -> bool:
    return not any(x for row in m for x in row)


def inverse(m) -> list[list[Fraction]]:
    """Gauss-Jordan inverse; raises ValueError for a singular matrix."""
    n = len(m)
    a = [list(row) + unit for row, unit in zip(m, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def scalar_ratio(a, b) -> Fraction | None:
    """The nonzero scalar ``lam`` with ``a == lam * b``, else None."""
    lam = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y:
                if lam is None:
                    if not x:
                        return None
                    lam = x / y
                if x != lam * y:
                    return None
            elif x:
                return None
    return lam


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------

def degree_span(lm) -> tuple[int, int]:
    degs = [d for row in lm for entry in row for d in entry]
    if not degs:
        raise ValueError("zero Laurent matrix has no edges")
    return min(degs), max(degs)


def coefficient(lm, deg: int) -> list[list[Fraction]]:
    return [[entry.get(deg, ZERO) for entry in row] for row in lm]


def evaluate(lm, x: Fraction) -> list[list[Fraction]]:
    return [[sum((c * x ** d for d, c in entry.items()), ZERO) for entry in row]
            for row in lm]


# ---------------------------------------------------------------------------
# the tower of boundary Hecke algebras
# ---------------------------------------------------------------------------

def inverse_word(word):
    return [(k, -p) for k, p in reversed(word)]


class Tower:
    """Embedded generators on ``sites`` tensor factors of dimension ``local_dim``.

    ``g`` is the bulk two-site matrix, ``g0`` and ``gN`` the left and right
    boundary one-site matrices, all as lists of Fraction rows.
    """

    def __init__(self, local_dim: int, sites: int, g, g0, gN):
        d, n = local_dim, sites
        self.sites = n
        self.dim = d ** n

        def embed(op, first: int, width: int):
            return kron(kron(identity(d ** first), op), identity(d ** (n - first - width)))

        self.dense = {}
        for i in range(1, n):
            self.dense[(i, 1)] = embed(g, i - 1, 2)
            self.dense[(i, -1)] = embed(inverse(g), i - 1, 2)
        self.dense[(0, 1)] = embed(g0, 0, 1)
        self.dense[(0, -1)] = embed(inverse(g0), 0, 1)
        self.dense[(n, 1)] = embed(gN, n - 1, 1)
        self.dense[(n, -1)] = embed(inverse(gN), n - 1, 1)
        self._rows = {k: _sparse_rows(m) for k, m in self.dense.items()}

    # -- words ----------------------------------------------------------
    def apply_left(self, word, x):
        """``W * x`` for the word ``W``."""
        for letter in reversed(word):
            grows = self._rows[letter]
            out = []
            for entries in grows:
                acc = [ZERO] * len(x[0])
                for k, v in entries:
                    for j, y in enumerate(x[k]):
                        if y:
                            acc[j] += v * y
                out.append(acc)
            x = out
        return x

    def apply_right(self, x, word):
        """``x * W`` for the word ``W``."""
        for letter in word:
            grows = self._rows[letter]
            out = []
            for row in x:
                acc = [ZERO] * len(row)
                for k, a in enumerate(row):
                    if a:
                        for j, v in grows[k]:
                            acc[j] += a * v
                out.append(acc)
            x = out
        return x

    def matrix(self, word):
        return self.apply_left(word, identity(self.dim))

    def commutes(self, word, x) -> bool:
        return self.apply_left(word, x) == self.apply_right(x, word)

    def murphy_word(self, family: str, i: int):
        """The paper's word for the ``i``-th Murphy element of the family.

        A: ``g_i..g_2 g_1 g_1 g_2..g_i``; B: ``g_i..g_1 g_0 g_1..g_i``;
        C: ``g_i..g_1 J g_1..g_i`` with
        ``J = g_1^-1..g_{n-1}^-1 g_N g_{n-1}..g_1 g_0``.
        """
        n = self.sites
        if family == "A":
            core, first = [(1, 1), (1, 1)], 2
        elif family == "B":
            core, first = [(0, 1)], 1
        elif family == "C":
            core = ([(k, -1) for k in range(1, n)] + [(n, 1)]
                    + [(k, 1) for k in range(n - 1, 0, -1)] + [(0, 1)])
            first = 1
        else:
            raise ValueError(f"unknown family {family!r}")
        up = [(k, 1) for k in range(first, i + 1)]
        return up[::-1] + core + up

    # -- identities -----------------------------------------------------
    def generator_mismatches(self, program: dict) -> list[str]:
        """Letters whose program matrix differs from the Kronecker rebuild."""
        return [f"g[{k}]^{p}" for (k, p), m in sorted(program.items())
                if m != self.dense[(k, p)]]

    def relation_failures(self, q: Fraction, Q0: Fraction, QN: Fraction) -> list[str]:
        """Quadratic, braid and boundary-braid relations that fail."""
        n = self.sites
        bad = []
        eigen = {k: q for k in range(1, n)}
        eigen[0], eigen[n] = Q0, QN
        for k, a in sorted(eigen.items()):
            # (g - a)(g + 1/a) = g^2 + (1/a - a) g - 1
            g = self.dense[(k, 1)]
            lhs = add(add(self.apply_right(g, [(k, 1)]), g, ONE / a - a), identity(self.dim), -ONE)
            if not is_zero(lhs):
                bad.append(f"quadratic[{k}]")
        for i in range(1, n - 1):
            j = i + 1
            if self.matrix([(i, 1), (j, 1), (i, 1)]) != self.matrix([(j, 1), (i, 1), (j, 1)]):
                bad.append(f"braid[{i},{j}]")
        if n >= 2:
            b, g = (0, 1), (1, 1)
            if self.matrix([g, b, g, b]) != self.matrix([b, g, b, g]):
                bad.append("boundary-braid[0]")
            b, g = (n, 1), (n - 1, 1)
            if self.matrix([b, g, b, g]) != self.matrix([g, b, g, b]):
                bad.append(f"boundary-braid[{n}]")
        return bad

    def noncommuting_pairs(self, family: str) -> list[tuple[int, int]]:
        """Pairs of the family's Murphy elements that fail to commute."""
        idx = range(1, self.sites) if family == "A" else range(self.sites)
        mats = {i: self.matrix(self.murphy_word(family, i)) for i in idx}
        return [(a, b) for a in idx for b in idx
                if a < b and not self.commutes(self.murphy_word(family, a), mats[b])]

    def central_failures(self) -> list[int]:
        """Generators not commuting with ``sum_i (J_C[i] + J_C[i]^-1)``."""
        total = [[ZERO] * self.dim for _ in range(self.dim)]
        for i in range(self.sites):
            word = self.murphy_word("C", i)
            total = add(total, self.matrix(word))
            total = add(total, self.matrix(inverse_word(word)))
        return [k for k in range(self.sites + 1) if not self.commutes([(k, 1)], total)]
