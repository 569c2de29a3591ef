"""Tensor representation of the A/B/C-type Hecke algebras and Murphy elements.

The bulk two-site generator is the exchange-hop matrix of one index
convention; every build validates it against the full defining relation set
(quadratic, braid, and both boundary braid relations) with the boundary
generators it is paired with.

The Murphy elements of a family are one tower (``murphy_tower``): the
family's base word multiplied out once, then ``J_i = g_i J_{i-1} g_i``.
The checks take the elements as arguments: each tower is built once per
representation and shared (``cli.SuiteContext.tower``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import mul

from .errors import (ConstraintViolation, IndexOutOfRange, NotInvertible,
                     RelationFailure)
from .params import Params
from .rings import Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed
from .tensor import PolyMatrix, commutes, embed_pair, embed_site, mat_proportional

FAMILIES = ("A", "B", "C")


# ---------------------------------------------------------------------------
# local matrices
# ---------------------------------------------------------------------------

def _bulk_generator(d: int, q: Rational) -> PolyMatrix:
    """The two-site braid generator: ``q`` on ``e_aa (x) e_aa``, the exchange
    hop ``e_ab (x) e_ba`` for ``a != b``, and ``q - q^-1`` on ``e_aa (x) e_bb``
    for ``a > b``."""
    entries = {}
    for a in range(d):
        entries[a * d + a, a * d + a] = q
        for b in range(d):
            if a != b:
                entries[a * d + b, b * d + a] = 1
            if a > b:
                entries[a * d + b, a * d + b] = q - rat(1) / q
    return PolyMatrix((d, d), entries)


def left_boundary_matrix(d: int, Q0: Rational, xp: Rational, xm: Rational) -> PolyMatrix:
    return PolyMatrix((d,), {**{(j, j): Q0 for j in range(d)}, (0, 0): Q0 - rat(1) / Q0,
                             (d - 1, d - 1): 0, (0, d - 1): xp, (d - 1, 0): xm})


def right_boundary_matrix(d: int, QN: Rational, xp: Rational, xm: Rational) -> PolyMatrix:
    return PolyMatrix((d,), {**{(j, j): QN for j in range(d)}, (0, 0): 0,
                             (d - 1, d - 1): QN - rat(1) / QN, (0, d - 1): xp, (d - 1, 0): xm})


def twist_matrix(d: int, q: Rational) -> PolyMatrix:
    """Diagonal quantum-trace twist ``diag(q^{d-2j+1})``, ``j = 1..d``."""
    return PolyMatrix((d,), {(j - 1, j - 1): q ** (d - 2 * j + 1) for j in range(1, d + 1)})


def generator_inverse(g: PolyMatrix, a: Rational) -> PolyMatrix:
    """Inverse from the quadratic relation ``(g - a)(g + a^-1) = 0``.

    The relation gives ``g^-1 = g - (a - a^-1) I``; the product is verified
    before returning.
    """
    if a == 0:
        raise NotInvertible("zero eigenvalue")
    ident = PolyMatrix.identity(g.layout)
    inv = g - ident.scale(a - rat(1) / a)
    if g * inv != ident:
        raise NotInvertible("matrix does not satisfy the quadratic relation")
    return inv


# ---------------------------------------------------------------------------
# the representation
# ---------------------------------------------------------------------------

@dataclass
class HeckeRep:
    """Concrete tensor representation on ``sites`` factors of dim ``local_dim``."""

    local_dim: int
    sites: int
    params: Params
    g_local: PolyMatrix
    g_inv_local: PolyMatrix
    g0_local: PolyMatrix
    g0_inv_local: PolyMatrix
    gN_local: PolyMatrix
    gN_inv_local: PolyMatrix
    m_local: PolyMatrix
    degenerate_right: bool = False
    braid: dict[int, PolyMatrix] = field(default_factory=dict)
    braid_inv: dict[int, PolyMatrix] = field(default_factory=dict)
    b0: PolyMatrix | None = None
    b0_inv: PolyMatrix | None = None
    bn: PolyMatrix | None = None
    bn_inv: PolyMatrix | None = None

    @property
    def layout(self) -> tuple[int, ...]:
        return (self.local_dim,) * self.sites

    def identity(self) -> PolyMatrix:
        return PolyMatrix.identity(self.layout)

    def generator(self, index: int) -> PolyMatrix:
        """Image of generator ``index``: 0 left boundary, 1..sites-1 bulk,
        ``sites`` right boundary."""
        if index == 0:
            return self.b0
        if index == self.sites:
            return self.bn
        if 1 <= index < self.sites:
            return self.braid[index]
        raise IndexOutOfRange(f"generator index {index} for {self.sites} sites")

    def generator_inv(self, index: int) -> PolyMatrix:
        if index == 0:
            return self.b0_inv
        if index == self.sites:
            return self.bn_inv
        if 1 <= index < self.sites:
            return self.braid_inv[index]
        raise IndexOutOfRange(f"generator index {index} for {self.sites} sites")


def _validate_bulk(d: int, q: Rational, g: PolyMatrix, g0: PolyMatrix,
                   gN: PolyMatrix) -> bool:
    ident2 = PolyMatrix.identity((d, d))
    quad = (g - ident2.scale(q)) * (g + ident2.scale(rat(1) / q))
    if not quad.is_zero:
        return False
    a = embed_pair(g, 0, 1, (d, d, d))
    b = embed_pair(g, 1, 2, (d, d, d))
    if a * b * a != b * a * b:
        return False
    e0 = embed_site(g0, 0, (d, d))
    if g * e0 * g * e0 != e0 * g * e0 * g:
        return False
    en = embed_site(gN, 1, (d, d))
    return en * g * en * g == g * en * g * en


def build_glN_rep(local_dim: int, sites: int, params: Params) -> HeckeRep:
    """Build and validate the full tensor representation.

    Raises ConstraintViolation when the quadratic constraints (including
    ``x+ x- = 1`` at each boundary) fail or the bulk generator fails the
    relation set.
    """
    if local_dim < 2 or sites < 1:
        raise ConstraintViolation("need local_dim >= 2 and sites >= 1")
    p = params
    if p.x0p * p.x0m != 1:
        raise ConstraintViolation(
            f"left boundary needs x0p*x0m = 1, got {rat_str(p.x0p * p.x0m)}")
    if p.xNp * p.xNm != 1:
        raise ConstraintViolation(
            f"right boundary needs xNp*xNm = 1, got {rat_str(p.xNp * p.xNm)}")

    d = local_dim
    g0 = left_boundary_matrix(d, p.Q0, p.x0p, p.x0m)
    gN = right_boundary_matrix(d, p.QN, p.xNp, p.xNm)

    ident1 = PolyMatrix.identity((d,))
    q0quad = (g0 - ident1.scale(p.Q0)) * (g0 + ident1.scale(rat(1) / p.Q0))
    if not q0quad.is_zero:
        raise ConstraintViolation("left boundary quadratic relation fails")
    qnquad = (gN - ident1.scale(p.QN)) * (gN + ident1.scale(rat(1) / p.QN))
    if not qnquad.is_zero:
        raise ConstraintViolation("right boundary quadratic relation fails")

    g = _bulk_generator(d, p.q)
    if not _validate_bulk(d, p.q, g, g0, gN):
        raise ConstraintViolation("the bulk generator fails the relation set")
    g_inv = generator_inverse(g, p.q)
    g0_inv = generator_inverse(g0, p.Q0)
    gN_inv = generator_inverse(gN, p.QN)

    rep = HeckeRep(local_dim=d, sites=sites, params=p,
                   g_local=g, g_inv_local=g_inv, g0_local=g0, g0_inv_local=g0_inv,
                   gN_local=gN, gN_inv_local=gN_inv, m_local=twist_matrix(d, p.q))
    layout = rep.layout
    for i in range(1, sites):
        rep.braid[i] = embed_pair(g, i - 1, i, layout)
        rep.braid_inv[i] = embed_pair(g_inv, i - 1, i, layout)
    rep.b0 = embed_site(g0, 0, layout)
    rep.b0_inv = embed_site(g0_inv, 0, layout)
    rep.bn = embed_site(gN, sites - 1, layout)
    rep.bn_inv = embed_site(gN_inv, sites - 1, layout)
    return rep


def scalar_right(rep: HeckeRep) -> HeckeRep:
    """``rep`` with the right boundary collapsed to the scalar ``QN * I``.

    Nothing is validated again: a scalar satisfies its quadratic relation
    and commutes with every generator, so the relations it enters hold, and
    the others are those ``rep`` was built and validated with.
    """
    QN = rep.params.QN
    gN = PolyMatrix.identity((rep.local_dim,)).scale(QN)
    gN_inv = generator_inverse(gN, QN)
    return replace(rep, gN_local=gN, gN_inv_local=gN_inv, degenerate_right=True,
                   bn=embed_site(gN, rep.sites - 1, rep.layout),
                   bn_inv=embed_site(gN_inv, rep.sites - 1, rep.layout))


# ---------------------------------------------------------------------------
# relation suites
# ---------------------------------------------------------------------------

def _relation_list(rep: HeckeRep, family: str):
    """Yield (name, lhs, rhs) for every relation in the family, each built
    when it is reached: a braid, distant or boundary-braid relation as two
    generator words, a quadratic relation ``(g - a)(g + 1/a)`` against 0."""
    n = rep.sites
    ident = rep.identity()

    def words(name, lhs, rhs):
        return (name, _word_product(rep, [(k, 1) for k in lhs]),
                _word_product(rep, [(k, 1) for k in rhs]))

    def quadratic(k, a):
        g = rep.generator(k)
        return (f"quadratic[{k}]", (g - ident.scale(a)) * (g + ident.scale(rat(1) / a)),
                PolyMatrix(rep.layout))

    for i in range(1, n - 1):
        yield words(f"braid[{i},{i + 1}]", (i, i + 1, i), (i + 1, i, i + 1))
    for i in range(1, n):
        for j in range(i + 2, n):
            yield words(f"distant[{i},{j}]", (i, j), (j, i))
    for i in range(1, n):
        yield quadratic(i, rep.params.q)

    if family in ("B", "C"):
        if n >= 2:
            yield words("boundary-braid[0]", (1, 0, 1, 0), (0, 1, 0, 1))
        for i in range(2, n):
            yield words(f"distant[0,{i}]", (0, i), (i, 0))
        yield quadratic(0, rep.params.Q0)

    if family == "C":
        if n >= 2:
            yield words(f"boundary-braid[{n}]", (n, n - 1, n, n - 1), (n - 1, n, n - 1, n))
        for i in range(1, n - 1):
            yield words(f"distant[{n},{i}]", (n, i), (i, n))
        if n >= 2:
            yield words(f"distant[{n},0]", (n, 0), (0, n))
        yield quadratic(n, rep.params.QN)


def check_relations(rep: HeckeRep, family: str) -> CheckReport:
    """Verify every defining relation of the family as an exact identity."""
    if family not in FAMILIES:
        raise IndexOutOfRange(f"unknown family {family!r}")
    echo = _echo(rep)
    for name, l, r in _relation_list(rep, family):
        if l != r:
            return failed(f"relations/{family}", params=echo,
                          failure={"relation": name, **entry_failure(l - r)})
    return passed(f"relations/{family}", params=echo)


def _echo(rep: HeckeRep) -> dict[str, str]:
    echo = rep.params.echo()
    echo["local_dim"] = str(rep.local_dim)
    echo["sites"] = str(rep.sites)
    return echo


# ---------------------------------------------------------------------------
# Temperley-Lieb quotient (local dim 2)
# ---------------------------------------------------------------------------

def check_tl_quotient(rep: HeckeRep) -> tuple[Rational, Rational]:
    """Verify the quotient relations at local dim 2 and return the two
    boundary scalars.  Raises RelationFailure when a product fails to be
    proportional to the single generator."""
    if rep.local_dim != 2:
        raise ConstraintViolation("the quotient relations hold only at local dim 2")
    if rep.sites < 2:
        raise ConstraintViolation("need at least two sites")
    p = rep.params
    ident = rep.identity()
    es = {i: rep.braid[i] - ident.scale(p.q) for i in range(1, rep.sites)}
    e0 = rep.b0 - ident.scale(p.Q0)
    en = rep.bn - ident.scale(p.QN)

    for i in es:
        for j in (i - 1, i + 1):
            if j in es:
                if es[i] * es[j] * es[i] != es[i]:
                    raise RelationFailure(f"e{i} e{j} e{i} != e{i}")
    left = mat_proportional(es[1] * e0 * es[1], es[1])
    if left is None or not left.is_constant:
        raise RelationFailure("e1 e0 e1 is not proportional to e1")
    last = rep.sites - 1
    right = mat_proportional(es[last] * en * es[last], es[last])
    if right is None or not right.is_constant:
        raise RelationFailure(f"e{last} eN e{last} is not proportional to e{last}")
    return left.constant_value(), right.constant_value()


def check_tl_report(rep: HeckeRep) -> CheckReport:
    echo = _echo(rep)
    try:
        km, kp = check_tl_quotient(rep)
    except (RelationFailure, ConstraintViolation) as exc:
        return failed("tl/quotient", params=echo, failure={"relation": str(exc)})
    return passed("tl/quotient", params=echo,
                  ratio=f"kappa_minus={rat_str(km)} kappa_plus={rat_str(kp)}")


# ---------------------------------------------------------------------------
# Murphy elements
# ---------------------------------------------------------------------------

def _word_product(rep: HeckeRep, word: list[tuple[int, int]]) -> PolyMatrix:
    """Product of a generator word of ``(index, +-1)`` letters, left to
    right."""
    mats = [rep.generator(k) if e == 1 else rep.generator_inv(k) for k, e in word]
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


def _family_indices(rep: HeckeRep, family: str) -> range:
    if family not in FAMILIES:
        raise IndexOutOfRange(f"unknown family {family!r}")
    return range(1, rep.sites) if family == "A" else range(0, rep.sites)


def murphy_tower(rep: HeckeRep, family: str, inverse: bool = False) -> list[PolyMatrix]:
    """The family's Murphy elements (their inverses with ``inverse``) in
    index order, by ``J_i = g_i J_{i-1} g_i`` from the base word.

    A starts from ``J_1 = g1^2``, B from ``J_0 = g0``, C from the conjugated
    right-boundary word ``J_0 = g1^-1 .. g_{n-1}^-1 gN g_{n-1} .. g1 g0``.
    The inverse tower starts from the reversed base word of inverse
    generators and steps with ``g_i^-1``.
    """
    idx = _family_indices(rep, family)
    if not idx:
        return []
    n = rep.sites
    if family == "A":
        base = [(1, 1), (1, 1)]
    elif family == "B":
        base = [(0, 1)]
    else:
        base = ([(k, -1) for k in range(1, n)] + [(n, 1)]
                + [(k, 1) for k in range(n - 1, 0, -1)] + [(0, 1)])
    if inverse:
        base = [(k, -e) for k, e in reversed(base)]
    step = rep.generator_inv if inverse else rep.generator
    tower = [_word_product(rep, base)]
    for i in idx[1:]:
        tower.append(step(i) * tower[-1] * step(i))
    return tower


def murphy(rep: HeckeRep, family: str, i: int) -> PolyMatrix:
    """The ``i``-th Murphy element of the family, read from its tower:
    A uses indices 1..n-1, B and C 0..n-1."""
    idx = _family_indices(rep, family)
    if i not in idx:
        raise IndexOutOfRange(f"{family}-type index {i} outside {idx.start}..{idx.stop - 1}")
    return murphy_tower(rep, family)[i - idx.start]


def check_murphy_commutation(rep: HeckeRep, family: str,
                             tower: list[PolyMatrix]) -> CheckReport:
    """Pairwise commutation of the family's Murphy elements, ``tower`` in
    index order (``murphy_tower``)."""
    echo = _echo(rep)
    idx = list(_family_indices(rep, family))
    js = dict(zip(idx, tower))
    for a in idx:
        for b in idx:
            if b <= a:
                continue
            if not commutes(js[a], js[b]):
                return failed(f"murphy-commute/{family}", params=echo,
                              failure={"pair": f"({a},{b})"})
    return passed(f"murphy-commute/{family}", params=echo)


def check_symmetric_commutant(rep: HeckeRep, family: str, max_power: int,
                              elements: list[PolyMatrix]) -> CheckReport:
    """Power sums ``sum_e e^m`` of the Murphy ``elements`` centralize the
    family's generators.

    For C the symmetric functions must include the inverses, so there the
    elements are the tower and the inverse tower, and the checked sums are
    ``sum_i (J_i^m + J_i^-m)``.
    """
    echo = _echo(rep)
    gens = [*_family_indices(rep, family), *([rep.sites] if family == "C" else [])]
    for m in range(1, max_power + 1):
        total = sum((reduce(mul, [e] * m) for e in elements), PolyMatrix(rep.layout))
        for gidx in gens:
            gmat = rep.generator(gidx)
            if not commutes(total, gmat):
                return failed(f"central/{family}", params=echo,
                              failure={"power": m, "generator": gidx})
    return passed(f"central/{family}", params=echo)
