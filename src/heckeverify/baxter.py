"""Spectral-parameter dependence: baxterized R and K matrices and their
consistency identities (Yang-Baxter, reflection, unitarity, crossing).

Normalization drops every overall exponential prefactor, so all downstream
statements are proportionality claims with a Laurent-polynomial ratio.
Additive spectral shifts are realized multiplicatively; identities in two
spectral variables are checked with one variable formal and the other
specialized at several rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CalibrationFailure
from .hecke import HeckeRep, _echo
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed, ratio_report
from .tensor import (PolyMatrix, embed_pair, embed_site, mat_proportional,
                     nullspace, permutation_pair, trace_product)


def r_hat(rep: HeckeRep, i: int, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Baxterized bulk matrix ``g_i - u g_i^{-1}`` on the site space."""
    u = arg if arg is not None else LaurentPoly.unit(1)
    return rep.braid[i] - rep.braid_inv[i].scale(u)


def _pencil(coeffs, w: LaurentPoly) -> PolyMatrix:
    """The quadratic matrix pencil ``X0 + X1 w + X2 w^2``."""
    x0, x1, x2 = coeffs
    return x0 + x1.scale(w) + x2.scale(w * w)


def _k_coeffs(rep: HeckeRep, left: bool) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Coefficients of the boundary pencil ``g + c u - u^2 g^{-1}`` at the left
    end (``g0``, ``c_-``) or the right end (``gN``, ``c_+``)."""
    if left:
        g, g_inv, c = rep.g0_local, rep.g0_inv_local, rep.params.c_minus
    else:
        g, g_inv, c = rep.gN_local, rep.gN_inv_local, rep.params.c_plus
    return g, PolyMatrix.identity((rep.local_dim,)).scale(c), -g_inv


def k_minus_hat(rep: HeckeRep, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Left boundary ``g0 + c_- u - u^2 g0^{-1}`` as a local matrix."""
    return _pencil(_k_coeffs(rep, True), arg if arg is not None else LaurentPoly.unit(1))


def k_bar_plus_hat(rep: HeckeRep, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Right boundary ``gN + c_+ u - u^2 gN^{-1}`` as a local matrix."""
    return _pencil(_k_coeffs(rep, False), arg if arg is not None else LaurentPoly.unit(1))


def _aux_site_pair(rep: HeckeRep) -> tuple[PolyMatrix, PolyMatrix]:
    """The bulk generator and its inverse on the (auxiliary, site) pair,
    first slot on the site factor: the kernel of every auxiliary trace."""
    layout = (rep.local_dim,) * 2
    return embed_pair(rep.g_local, 1, 0, layout), embed_pair(rep.g_inv_local, 1, 0, layout)


def _aux_trace(x: PolyMatrix, kernel: PolyMatrix) -> PolyMatrix:
    """``tr_aux{(x (x) I) * kernel}`` on the (auxiliary, site) pair."""
    return trace_product(embed_site(x, 0, kernel.layout), kernel)


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def _sample_points(seed: int, count: int) -> list[Rational]:
    rng = random.Random(seed ^ 0x5EED)
    pts = []
    while len(pts) < count:
        x = rat(rng.randrange(1, 40) * rng.choice((1, -1)), rng.randrange(1, 40))
        if x != 0 and x not in pts and x != 1:
            pts.append(x)
    return pts


def check_ybe(rep: HeckeRep, seed: int = 0) -> CheckReport:
    """Braid-form Yang-Baxter identity on a dedicated three-factor space,
    with one argument formal and the second specialized at three rationals.

    The three points prove the identity in ``r`` as well: every factor is
    ``g - a g^{-1}`` with ``a`` one of ``u/r``, ``u``, ``r``, so the residual
    ``lhs - rhs`` times ``r`` has degree <= 2 in ``r`` (coefficients Laurent
    in ``u``).  A polynomial of degree <= 2 vanishing at three distinct
    points is zero.
    """
    d = rep.local_dim
    layout = (d, d, d)
    g12 = embed_pair(rep.g_local, 0, 1, layout)
    g12i = embed_pair(rep.g_inv_local, 0, 1, layout)
    g23 = embed_pair(rep.g_local, 1, 2, layout)
    g23i = embed_pair(rep.g_inv_local, 1, 2, layout)

    def r12(a: LaurentPoly) -> PolyMatrix:
        return g12 - g12i.scale(a)

    def r23(a: LaurentPoly) -> PolyMatrix:
        return g23 - g23i.scale(a)

    u = LaurentPoly.unit(1)
    echo = _echo(rep)
    for r in _sample_points(seed, 3):
        udivr = LaurentPoly.unit(1, rat(1) / r)
        rc = LaurentPoly.const(r)
        lhs = r12(udivr) * r23(u) * r12(rc)
        rhs = r23(rc) * r12(u) * r23(udivr)
        if lhs != rhs:
            return failed("baxter/ybe", params=echo,
                          failure={"specialization": rat_str(r), **entry_failure(lhs - rhs)})
    return passed("baxter/ybe", params=echo)


def check_re(rep: HeckeRep, end: str, seed: int = 0) -> CheckReport:
    """Boundary reflection identity at the chosen end, on a two-factor space,
    with one argument formal and the second specialized at five rationals.

    The five points prove the identity in ``r`` as well: ``r*R(u/r)``,
    ``R(u*r)`` have degree 1 in ``r`` and ``K(r)`` has degree 2, so the
    residual ``lhs - rhs`` times ``r`` has degree <= 4 in ``r`` (coefficients
    Laurent in ``u``).  A polynomial of degree <= 4 vanishing at five
    distinct points is zero.
    """
    d = rep.local_dim
    layout = (d, d)

    def rr(a: LaurentPoly) -> PolyMatrix:
        return rep.g_local - rep.g_inv_local.scale(a)

    if end == "left":
        def kk(a: LaurentPoly) -> PolyMatrix:
            return embed_site(k_minus_hat(rep, a), 0, layout)
    elif end == "right":
        def kk(a: LaurentPoly) -> PolyMatrix:
            return embed_site(k_bar_plus_hat(rep, a), 1, layout)
    else:
        raise ValueError("end must be 'left' or 'right'")

    u = LaurentPoly.unit(1)
    echo = _echo(rep)
    echo["end"] = end
    for r in _sample_points(seed, 5):
        udivr = LaurentPoly.unit(1, rat(1) / r)
        umulr = LaurentPoly.unit(1, r)
        rc = LaurentPoly.const(r)
        lhs = rr(udivr) * kk(u) * rr(umulr) * kk(rc)
        rhs = kk(rc) * rr(umulr) * kk(u) * rr(udivr)
        if lhs != rhs:
            return failed(f"baxter/re-{end}", params=echo,
                          failure={"specialization": rat_str(r), **entry_failure(lhs - rhs)})
    return passed(f"baxter/re-{end}", params=echo)


def check_unitarity(rep: HeckeRep) -> list[CheckReport]:
    """Products at opposite arguments are scalars; the scalars are reported."""
    d = rep.local_dim
    u = LaurentPoly.unit(1)
    ident2 = PolyMatrix.identity((d, d))
    ident1 = PolyMatrix.identity((d,))
    echo = _echo(rep)
    # (g - u g^-1)(u g - g^-1), the cleared product at inverted argument
    prod = (rep.g_local - rep.g_inv_local.scale(u)) * \
           (rep.g_local.scale(u) - rep.g_inv_local)
    out = [ratio_report("baxter/unitarity-r", mat_proportional(prod, ident2),
                        entry_failure(prod), params=echo)]
    for name, kfun in (("k", k_minus_hat), ("kbar", k_bar_plus_hat)):
        low = kfun(rep, u)
        # u^2 * K(1/u) has polynomial entries again
        high = kfun(rep, LaurentPoly.unit(-1)).scale(u * u)
        prod = low * high
        out.append(ratio_report(f"baxter/unitarity-{name}", mat_proportional(prod, ident1),
                                entry_failure(prod), params=echo))
    return out


# ---------------------------------------------------------------------------
# crossing and dual-boundary calibration
# ---------------------------------------------------------------------------

def calibrate_crossing(rep: HeckeRep) -> tuple[Rational, LaurentPoly]:
    """Find the unique signed power of q making the crossing identity hold.

    The candidate substitution is ``u -> chi * u^{-1}``; the identity is
    checked with both partial transposes on a local two-factor space.  A
    unique winner is required.
    """
    d = rep.local_dim
    q = rep.params.q
    layout = (d, d)
    perm = permutation_pair(0, 1, layout)
    m1 = embed_site(rep.m_local, 0, layout)
    m1_inv = embed_site(_diag_inverse(rep.m_local), 0, layout)
    u = LaurentPoly.unit(1)
    ident = PolyMatrix.identity(layout)
    lhs = (perm * (rep.g_local - rep.g_inv_local.scale(u))).partial_transpose(0) * m1

    winners = []
    for sign in (1, -1):
        for k in range(-2 * d, 2 * d + 1):
            chi = q**k * sign
            crossed = perm * (rep.g_local.scale(u) - rep.g_inv_local.scale(chi))
            full = lhs * crossed.partial_transpose(1) * m1_inv
            ratio = mat_proportional(full, ident)
            if ratio is not None:
                winners.append((chi, ratio))
    if len(winners) != 1:
        raise CalibrationFailure(
            f"crossing calibration found {len(winners)} candidates: "
            + ", ".join(rat_str(c) for c, _ in winners))
    return winners[0]


def _diag_inverse(m: PolyMatrix) -> PolyMatrix:
    if any(r != c for r, c in m.support()):
        raise ValueError("not diagonal")
    return PolyMatrix(m.layout, {(r, c): rat(1) / v.constant_value() for r, c, v in m.entries()})


def _pair_trace_maps(rep: HeckeRep):
    """The two linear maps X -> tr_aux{(X (x) I) * G-part} with the bulk
    generator embedded site-first on the (aux, site) pair."""
    d = rep.local_dim

    def build_map(kernel: PolyMatrix) -> list[list[Rational]]:
        cols = []
        for a in range(d):
            for b in range(d):
                img = _aux_trace(PolyMatrix((d,), {(a, b): 1}), kernel)
                vec = [img.get(r, c).coeff(0) for r in range(d) for c in range(d)]
                cols.append(vec)
        # column-major -> row-major matrix of the map
        return [[cols[j][i] for j in range(d * d)] for i in range(d * d)]

    return tuple(build_map(kernel) for kernel in _aux_site_pair(rep))


def _calibrate_dual(rep: HeckeRep, low_map, high_map, target: list[PolyMatrix]):
    """Solve ``sum_j u^j Mlow(X_j) + u^{j+2} Mhigh(X_j) = s(u) * K(u)`` for a
    quadratic matrix pencil ``X`` and scalar polynomial ``s`` of degree <= 2.

    Returns (X0, X1, X2) normalized so the first nonzero unknown equals 1.
    The nullspace must be exactly one-dimensional.
    """
    d = rep.local_dim
    nm = d * d
    nunk = 3 * nm + 3
    kcoeffs = []
    for j in range(3):
        kcoeffs.append([target[j].get(r, c).coeff(0) for r in range(d) for c in range(d)])

    rows = []
    for deg in range(5):
        for comp in range(nm):
            row = [rat(0)] * nunk
            for j in range(3):
                if deg == j:
                    for src in range(nm):
                        row[j * nm + src] += low_map[comp][src]
                if deg == j + 2:
                    for src in range(nm):
                        row[j * nm + src] += high_map[comp][src]
            # rhs: - sum_m s_m * K_{deg-m}
            for m in range(3):
                if 0 <= deg - m <= 2:
                    row[3 * nm + m] -= kcoeffs[deg - m][comp]
            rows.append(row)

    basis = nullspace(rows)
    if len(basis) != 1 or all(x == 0 for x in basis[0][3 * nm:]):
        raise CalibrationFailure(
            f"dual-boundary calibration nullspace has dimension {len(basis)}")
    vec = basis[0]
    lead = next(x for x in vec if x != 0)
    vec = [x / lead for x in vec]
    return tuple(PolyMatrix((d,), {(r, c): vec[j * nm + r * d + c]
                                   for r in range(d) for c in range(d)}) for j in range(3))


@dataclass
class BaxterKit:
    """Calibrated spectral data attached to a representation.

    ``crossing_unit`` is the monomial unit of the crossing substitution.
    ``aplus`` holds the quadratic auxiliary operator (twist times dual right
    boundary) entering the two-boundary trace; ``bminus`` the shifted left
    boundary times twist appearing in the companion trace condition.  Both
    are calibrated exactly as one-dimensional nullspaces, in the same spirit
    as the crossing: the identity itself decides.
    """

    rep: HeckeRep
    crossing_unit: Rational
    crossing_ratio: LaurentPoly
    aplus: tuple[PolyMatrix, PolyMatrix, PolyMatrix]
    bminus: tuple[PolyMatrix, PolyMatrix, PolyMatrix]

    def aplus_at(self, arg: LaurentPoly) -> PolyMatrix:
        return _pencil(self.aplus, arg)

    def bminus_at(self, arg: LaurentPoly) -> PolyMatrix:
        return _pencil(self.bminus, arg)


def build_kit(rep: HeckeRep) -> BaxterKit:
    chi, ratio = calibrate_crossing(rep)
    map_g, map_gi = _pair_trace_maps(rep)
    neg_gi = [[-x for x in row] for row in map_gi]
    # trace kernel (G - u^2 Gi): degree-0 action G, degree-2 action -Gi
    aplus = _calibrate_dual(rep, map_g, neg_gi, _k_coeffs(rep, False))
    # trace kernel (u^2 G - Gi): degree-0 action -Gi, degree-2 action G
    bminus = _calibrate_dual(rep, neg_gi, map_g, _k_coeffs(rep, True))
    return BaxterKit(rep=rep, crossing_unit=chi, crossing_ratio=ratio,
                     aplus=aplus, bminus=bminus)


def check_condition2(rep: HeckeRep, kit: BaxterKit) -> list[CheckReport]:
    """Verify both trace conditions with the calibrated dual operators and
    report the exact proportionality functions."""
    gp, gpi = _aux_site_pair(rep)
    u = LaurentPoly.unit(1)
    u2 = LaurentPoly.unit(2)
    echo = _echo(rep)
    out = []
    for name, dual, kernel, target in (
            ("right", kit.aplus_at(u), gp - gpi.scale(u2), k_bar_plus_hat(rep, u)),
            ("left", kit.bminus_at(u), gp.scale(u2) - gpi, k_minus_hat(rep, u))):
        lhs = _aux_trace(dual, kernel)
        out.append(ratio_report(f"condition2/{name}-trace", mat_proportional(lhs, target),
                                entry_failure(lhs), params=echo))
    return out


def check_crossing_report(rep: HeckeRep) -> CheckReport:
    echo = _echo(rep)
    try:
        chi, ratio = calibrate_crossing(rep)
    except CalibrationFailure as exc:
        return failed("baxter/crossing", params=echo, failure={"relation": str(exc)})
    return passed("baxter/crossing", params=echo, ratio=f"chi={rat_str(chi)}; {ratio}")
