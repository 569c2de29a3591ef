"""Tensor representation of the A/B/C-type Hecke algebras and Murphy elements.

The bulk two-site generator is built from a short list of candidate index
conventions and validated against the full defining relation set (quadratic,
braid, and both boundary braid relations); the first candidate passing every
check is kept, so the convention is selected by the relations themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (ConstraintViolation, IndexOutOfRange, NotInvertible,
                     RelationFailure)
from .params import Params
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed
from .tensor import PolyMatrix, embed_pair, embed_site, mat_proportional

FAMILIES = ("A", "B", "C")


# ---------------------------------------------------------------------------
# local matrices
# ---------------------------------------------------------------------------

def _unit(i: int, j: int, d: int) -> PolyMatrix:
    m = PolyMatrix((d,))
    m._set(i, j, 1)
    return m


def _bulk_candidates(d: int, q: Rational):
    """Candidate two-site braid generators, tried in order.

    Candidate 1 uses the parallel hop term ``e_ab (x) e_ab``; candidates 2
    and 3 use the exchange hop ``e_ab (x) e_ba`` with the two possible
    orientations of the diagonal weight ``q^{sgn}``.  Validation, not
    convention, selects.
    """
    qi = rat(1) / q

    def build(hop_swapped: bool, sgn_flipped: bool) -> PolyMatrix:
        m = PolyMatrix((d, d))
        for k in range(d * d):
            m._set(k, k, q)
        for a in range(d):
            for b in range(d):
                if a == b:
                    continue
                if hop_swapped:  # e_ab (x) e_ba: entry at row (a,b), col (b,a)
                    r, c = a * d + b, b * d + a
                else:            # e_ab (x) e_ab: entry at row (a,a), col (b,b)
                    r, c = a * d + a, b * d + b
                m._set(r, c, m.get(r, c) + LaurentPoly.const(1))
                sgn_arg = (b - a) if sgn_flipped else (a - b)
                w = q if sgn_arg > 0 else qi
                diag = a * d + b
                m._set(diag, diag, m.get(diag, diag) - LaurentPoly.const(w))
        return m

    yield "parallel-hop", build(hop_swapped=False, sgn_flipped=False)
    yield "exchange-hop", build(hop_swapped=True, sgn_flipped=False)
    yield "exchange-hop-flipped", build(hop_swapped=True, sgn_flipped=True)


def left_boundary_matrix(d: int, Q0: Rational, xp: Rational, xm: Rational) -> PolyMatrix:
    m = PolyMatrix((d,))
    for j in range(d):
        m._set(j, j, Q0)
    m._set(0, 0, Q0 - rat(1) / Q0)
    m._set(d - 1, d - 1, 0)
    m._set(0, d - 1, xp)
    m._set(d - 1, 0, xm)
    return m


def right_boundary_matrix(d: int, QN: Rational, xp: Rational, xm: Rational) -> PolyMatrix:
    m = PolyMatrix((d,))
    for j in range(d):
        m._set(j, j, QN)
    m._set(0, 0, 0)
    m._set(d - 1, d - 1, QN - rat(1) / QN)
    m._set(0, d - 1, xp)
    m._set(d - 1, 0, xm)
    return m


def twist_matrix(d: int, q: Rational) -> PolyMatrix:
    """Diagonal quantum-trace twist ``diag(q^{d-2j+1})``, ``j = 1..d``."""
    m = PolyMatrix((d,))
    for j in range(1, d + 1):
        m._set(j - 1, j - 1, q ** (d - 2 * j + 1))
    return m


def generator_inverse(g: PolyMatrix, eigen_pair: tuple[Rational, Rational]) -> PolyMatrix:
    """Inverse from the quadratic relation ``(g - a)(g + b^-1) = 0``.

    The relation gives ``g^-1 = (g - (a - b^-1) I) / (a b^-1)``; the product
    is verified before returning.
    """
    alpha, beta = eigen_pair
    if alpha == 0 or beta == 0:
        raise NotInvertible("zero eigenvalue pair")
    shift = alpha - rat(1) / beta
    scale = rat(1) / (alpha / beta)
    ident = PolyMatrix.identity(g.layout)
    inv = (g - ident.scale(shift)).scale(scale)
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
    bulk_variant: str
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
    gi = g - ident2.scale(q - rat(1) / q)
    layout3 = (d, d, d)
    a = embed_pair(g, 0, 1, layout3)
    b = embed_pair(g, 1, 2, layout3)
    if a * b * a != b * a * b:
        return False
    layout2 = (d, d)
    gg = embed_pair(g, 0, 1, layout2)
    e0 = embed_site(g0, 0, layout2)
    if gg * e0 * gg * e0 != e0 * gg * e0 * gg:
        return False
    en = embed_site(gN, 1, layout2)
    if en * gg * en * gg != gg * en * gg * en:
        return False
    return True


def build_glN_rep(local_dim: int, sites: int, params: Params, *,
                  degenerate_right: bool = False) -> HeckeRep:
    """Build and validate the full tensor representation.

    Raises ConstraintViolation when the quadratic constraints (including
    ``x+ x- = 1`` at each boundary) fail or no bulk candidate satisfies the
    relation set.  With ``degenerate_right`` the right boundary becomes the
    scalar matrix ``QN * I`` (its own quadratic relation holds trivially and
    the ``x`` constraint is vacuous).
    """
    if local_dim < 2 or sites < 1:
        raise ConstraintViolation("need local_dim >= 2 and sites >= 1")
    p = params
    if p.x0p * p.x0m != 1:
        raise ConstraintViolation(
            f"left boundary needs x0p*x0m = 1, got {rat_str(p.x0p * p.x0m)}")
    if not degenerate_right and p.xNp * p.xNm != 1:
        raise ConstraintViolation(
            f"right boundary needs xNp*xNm = 1, got {rat_str(p.xNp * p.xNm)}")

    d = local_dim
    g0 = left_boundary_matrix(d, p.Q0, p.x0p, p.x0m)
    if degenerate_right:
        gN = PolyMatrix.identity((d,)).scale(p.QN)
    else:
        gN = right_boundary_matrix(d, p.QN, p.xNp, p.xNm)

    ident1 = PolyMatrix.identity((d,))
    q0quad = (g0 - ident1.scale(p.Q0)) * (g0 + ident1.scale(rat(1) / p.Q0))
    if not q0quad.is_zero:
        raise ConstraintViolation("left boundary quadratic relation fails")
    qnquad = (gN - ident1.scale(p.QN)) * (gN + ident1.scale(rat(1) / p.QN))
    if not qnquad.is_zero:
        raise ConstraintViolation("right boundary quadratic relation fails")

    chosen = None
    for tag, cand in _bulk_candidates(d, p.q):
        if _validate_bulk(d, p.q, cand, g0, gN):
            chosen = (tag, cand)
            break
    if chosen is None:
        raise ConstraintViolation("no bulk candidate satisfies the relation set")
    tag, g = chosen
    g_inv = generator_inverse(g, (p.q, p.q))
    g0_inv = generator_inverse(g0, (p.Q0, p.Q0))
    gN_inv = generator_inverse(gN, (p.QN, p.QN))

    rep = HeckeRep(local_dim=d, sites=sites, params=p, bulk_variant=tag,
                   g_local=g, g_inv_local=g_inv, g0_local=g0, g0_inv_local=g0_inv,
                   gN_local=gN, gN_inv_local=gN_inv, m_local=twist_matrix(d, p.q),
                   degenerate_right=degenerate_right)
    layout = rep.layout
    for i in range(1, sites):
        rep.braid[i] = embed_pair(g, i - 1, i, layout)
        rep.braid_inv[i] = embed_pair(g_inv, i - 1, i, layout)
    rep.b0 = embed_site(g0, 0, layout)
    rep.b0_inv = embed_site(g0_inv, 0, layout)
    rep.bn = embed_site(gN, sites - 1, layout)
    rep.bn_inv = embed_site(gN_inv, sites - 1, layout)
    return rep


# ---------------------------------------------------------------------------
# relation suites
# ---------------------------------------------------------------------------

def _relation_list(rep: HeckeRep, family: str):
    """Yield (name, lhs-thunk, rhs-thunk) for every relation in the family."""
    n = rep.sites
    gs = rep.braid
    ident = rep.identity()
    qi = rat(1) / rep.params.q

    for i in range(1, n - 1):
        yield (f"braid[{i},{i + 1}]",
               lambda i=i: gs[i] * gs[i + 1] * gs[i],
               lambda i=i: gs[i + 1] * gs[i] * gs[i + 1])
    for i in range(1, n):
        for j in range(i + 2, n):
            yield (f"distant[{i},{j}]",
                   lambda i=i, j=j: gs[i] * gs[j],
                   lambda i=i, j=j: gs[j] * gs[i])
    for i in range(1, n):
        yield (f"quadratic[{i}]",
               lambda i=i: (gs[i] - ident.scale(rep.params.q))
               * (gs[i] + ident.scale(qi)),
               lambda: PolyMatrix.zeros(rep.layout))

    if family in ("B", "C"):
        b0 = rep.b0
        if n >= 2:
            yield ("boundary-braid[0]",
                   lambda: gs[1] * b0 * gs[1] * b0,
                   lambda: b0 * gs[1] * b0 * gs[1])
        for i in range(2, n):
            yield (f"distant[0,{i}]",
                   lambda i=i: b0 * gs[i],
                   lambda i=i: gs[i] * b0)
        yield ("quadratic[0]",
               lambda: (b0 - ident.scale(rep.params.Q0))
               * (b0 + ident.scale(rat(1) / rep.params.Q0)),
               lambda: PolyMatrix.zeros(rep.layout))

    if family == "C":
        bn = rep.bn
        if n >= 2:
            yield (f"boundary-braid[{n}]",
                   lambda: bn * gs[n - 1] * bn * gs[n - 1],
                   lambda: gs[n - 1] * bn * gs[n - 1] * bn)
        for i in range(1, n - 1):
            yield (f"distant[{n},{i}]",
                   lambda i=i: bn * gs[i],
                   lambda i=i: gs[i] * bn)
        if n >= 2:
            yield (f"distant[{n},0]",
                   lambda: bn * rep.b0,
                   lambda: rep.b0 * bn)
        yield (f"quadratic[{n}]",
               lambda: (bn - ident.scale(rep.params.QN))
               * (bn + ident.scale(rat(1) / rep.params.QN)),
               lambda: PolyMatrix.zeros(rep.layout))


def check_relations(rep: HeckeRep, family: str) -> CheckReport:
    """Verify every defining relation of the family as an exact identity."""
    if family not in FAMILIES:
        raise IndexOutOfRange(f"unknown family {family!r}")
    echo = _echo(rep)
    for name, lhs, rhs in _relation_list(rep, family):
        l, r = lhs(), rhs()
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
    if left is None or not left.is_scalar:
        raise RelationFailure("e1 e0 e1 is not proportional to e1")
    last = rep.sites - 1
    right = mat_proportional(es[last] * en * es[last], es[last])
    if right is None or not right.is_scalar:
        raise RelationFailure(f"e{last} eN e{last} is not proportional to e{last}")
    return left.scalar_value(), right.scalar_value()


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

def _murphy_word(rep: HeckeRep, family: str, i: int) -> list[tuple[int, int]]:
    """The ``i``-th Murphy element of the family as a generator word of
    ``(index, +-1)`` letters, read left to right.

    Every family follows ``J_i = g_i J_{i-1} g_i``: A starts from
    ``J_1 = g1^2``, B from ``J_0 = g0``, C from the conjugated right-boundary
    word ``J_0 = g1^-1 .. g_{n-1}^-1 gN g_{n-1} .. g1 g0``.
    """
    if family not in FAMILIES:
        raise IndexOutOfRange(f"unknown family {family!r}")
    n = rep.sites
    lo = 1 if family == "A" else 0
    if not lo <= i <= n - 1:
        raise IndexOutOfRange(f"{family}-type index {i} outside {lo}..{n - 1}")
    if family == "A":
        core = [(1, 1), (1, 1)]
    elif family == "B":
        core = [(0, 1)]
    else:
        core = ([(k, -1) for k in range(1, n)] + [(n, 1)]
                + [(k, 1) for k in range(n - 1, 0, -1)] + [(0, 1)])
    left = [(k, 1) for k in range(i, lo, -1)]
    return left + core + left[::-1]


def _word_product(rep: HeckeRep, word: list[tuple[int, int]]) -> PolyMatrix:
    """Product of a generator word, left to right, after cancelling adjacent
    ``g_k g_k^-1`` pairs."""
    reduced: list[tuple[int, int]] = []
    for k, e in word:
        if reduced and reduced[-1] == (k, -e):
            reduced.pop()
        else:
            reduced.append((k, e))
    mats = [rep.generator(k) if e == 1 else rep.generator_inv(k) for k, e in reduced]
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


def murphy(rep: HeckeRep, family: str, i: int) -> PolyMatrix:
    """The ``i``-th Murphy element of the family.

    Families: A uses indices 1..n-1 starting from ``g1^2``; B uses 0..n-1
    starting from ``g0``; C uses 0..n-1 starting from the conjugated
    right-boundary word times ``g0``.
    """
    return _word_product(rep, _murphy_word(rep, family, i))


def murphy_inverse(rep: HeckeRep, family: str, i: int) -> PolyMatrix:
    """Exact inverse of a Murphy element: the reversed word of inverse
    generators."""
    return _word_product(rep, [(k, -e) for k, e in reversed(_murphy_word(rep, family, i))])


def _family_indices(rep: HeckeRep, family: str) -> range:
    return range(1, rep.sites) if family == "A" else range(0, rep.sites)


def check_murphy_commutation(rep: HeckeRep, family: str) -> CheckReport:
    """Pairwise commutation of the family's Murphy elements."""
    echo = _echo(rep)
    idx = list(_family_indices(rep, family))
    js = {i: murphy(rep, family, i) for i in idx}
    for a in idx:
        for b in idx:
            if b <= a:
                continue
            if js[a] * js[b] != js[b] * js[a]:
                return failed(f"murphy-commute/{family}", params=echo,
                              failure={"pair": f"({a},{b})"})
    return passed(f"murphy-commute/{family}", params=echo)


def check_symmetric_commutant(rep: HeckeRep, family: str, max_power: int) -> CheckReport:
    """Power sums of Murphy elements centralize the family's generators.

    For C the symmetric functions must include the inverses, so the checked
    sums are ``sum_i (J_i^m + J_i^-m)``.
    """
    echo = _echo(rep)
    idx = list(_family_indices(rep, family))
    js = {i: murphy(rep, family, i) for i in idx}
    jinvs = {i: murphy_inverse(rep, family, i) for i in idx} if family == "C" else {}
    gens = list(range(1, rep.sites))
    if family in ("B", "C"):
        gens = [0] + gens
    if family == "C":
        gens = gens + [rep.sites]
    for m in range(1, max_power + 1):
        total = PolyMatrix.zeros(rep.layout)
        for i in idx:
            total = total + _power(js[i], m)
            if family == "C":
                total = total + _power(jinvs[i], m)
        for gidx in gens:
            gmat = rep.generator(gidx)
            if total * gmat != gmat * total:
                return failed(f"central/{family}", params=echo,
                              failure={"power": m, "generator": gidx})
    return passed(f"central/{family}", params=echo)


def _power(m: PolyMatrix, n: int) -> PolyMatrix:
    out = m
    for _ in range(n - 1):
        out = out * m
    return out


# ---------------------------------------------------------------------------
# auxiliary-string images
# ---------------------------------------------------------------------------

def aux_string_image(rep: HeckeRep, l: int) -> list[PolyMatrix]:
    """Images of the boundary-algebra generators under the shift-by-``l`` map.

    The boundary generator maps to ``g_l .. g_1 g0 g1 .. g_l`` and the bulk
    generator ``g_i`` to ``g_{i+l}``.  The images satisfy the Artin relations
    of the one-boundary braid group; the quadratic boundary relation is not
    required (and generically fails for l > 0).
    """
    n = rep.sites
    if l < 0 or l > n - 1:
        raise IndexOutOfRange(f"shift {l} outside 0..{n - 1}")
    sigma0 = rep.b0
    for k in range(1, l + 1):
        sigma0 = rep.braid[k] * sigma0 * rep.braid[k]
    images = [sigma0]
    for i in range(1, n - l):
        images.append(rep.braid[i + l])

    # Artin relations among the images
    for i in range(1, len(images) - 1):
        a, b = images[i], images[i + 1]
        if a * b * a != b * a * b:
            raise RelationFailure(f"shifted braid relation fails at {i}")
    for i in range(1, len(images)):
        for j in range(i + 2, len(images)):
            if images[i] * images[j] != images[j] * images[i]:
                raise RelationFailure(f"shifted distant commutation fails at ({i},{j})")
    if len(images) >= 2:
        s0, s1 = images[0], images[1]
        if s1 * s0 * s1 * s0 != s0 * s1 * s0 * s1:
            raise RelationFailure("shifted boundary braid relation fails")
    for i in range(2, len(images)):
        if images[0] * images[i] != images[i] * images[0]:
            raise RelationFailure(f"shifted boundary distant commutation fails at {i}")
    return images


def aux_string_quadratic_holds(rep: HeckeRep, l: int) -> bool:
    """Whether the shifted boundary image still satisfies its quadratic
    relation (it does at l = 0, generically not beyond)."""
    sigma0 = rep.b0
    for k in range(1, l + 1):
        sigma0 = rep.braid[k] * sigma0 * rep.braid[k]
    ident = rep.identity()
    p = rep.params
    resid = (sigma0 - ident.scale(p.Q0)) * (sigma0 + ident.scale(rat(1) / p.Q0))
    return resid.is_zero
