"""Spectral-parameter dependence: baxterized R and K matrices and their
consistency identities (Yang-Baxter, reflection, unitarity, crossing).

Every baxterized bulk matrix is ``r_local``, ``g - a g^{-1}`` on two
factors, embedded where it acts: the site pairs of ``r_hat``, the
three-factor Yang-Baxter space, the reflection and crossing spaces, and the
(auxiliary, site) pair of every auxiliary trace.

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
from .hecke import HeckeRep, _echo, twist_matrix
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed, ratio_report
from .tensor import (PolyMatrix, aux_blocks, embed_pair, embed_site, flip_indices,
                     mat_proportional, nullspace, trace_sandwich)


def r_local(rep: HeckeRep, a: LaurentPoly) -> PolyMatrix:
    """The baxterized generator ``g - a g^{-1}`` on two factors."""
    return rep.g_local - rep.g_inv_local.scale(a)


def r_hat(rep: HeckeRep, i: int, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Baxterized bulk matrix ``g_i - u g_i^{-1}`` on the site space."""
    u = arg if arg is not None else LaurentPoly.unit(1)
    return embed_pair(r_local(rep, u), i - 1, i, rep.layout)


def _pencil(coeffs, w: LaurentPoly) -> PolyMatrix:
    """The quadratic matrix pencil ``X0 + X1 w + X2 w^2``."""
    x0, x1, x2 = coeffs
    return x0 + x1.scale(w) + x2.scale(w * w)


def k_minus_hat(rep: HeckeRep, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Left boundary ``g0 + c_- u - u^2 g0^{-1}`` as a local matrix."""
    u = arg if arg is not None else LaurentPoly.unit(1)
    return _pencil((rep.g0_local, PolyMatrix.identity((rep.local_dim,)).scale(rep.params.c_minus),
                    -rep.g0_inv_local), u)


def k_bar_plus_hat(rep: HeckeRep, arg: LaurentPoly | None = None) -> PolyMatrix:
    """Right boundary ``gN + c_+ u - u^2 gN^{-1}`` as a local matrix."""
    u = arg if arg is not None else LaurentPoly.unit(1)
    return _pencil((rep.gN_local, PolyMatrix.identity((rep.local_dim,)).scale(rep.params.c_plus),
                    -rep.gN_inv_local), u)


def _aux_kernel(rep: HeckeRep, a: LaurentPoly) -> PolyMatrix:
    """``r_local`` on the (auxiliary, site) pair, first slot on the site
    factor: the kernel of every auxiliary trace."""
    return embed_pair(r_local(rep, a), 1, 0, (rep.local_dim,) * 2)


def _r_aux(rep: HeckeRep, w: LaurentPoly, left: bool) -> PolyMatrix:
    """``R_0k(w)`` on the (auxiliary, site) pair: the flip times
    ``g - w g^-1`` left of the middle (``left``), ``g - w g^-1`` times the
    flip right of it."""
    d = rep.local_dim
    flip = flip_indices(0, 1, (d, d))
    pair = r_local(rep, w)
    return pair.relabel(rows=flip) if left else pair.relabel(cols=flip)


def _aux_trace(x: PolyMatrix, kernel: PolyMatrix) -> PolyMatrix:
    """``tr_aux{(x (x) I) * kernel}`` on the (auxiliary, site) pair."""
    return trace_sandwich(PolyMatrix.identity(kernel.layout), aux_blocks(x), kernel)


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
    ``r_local(a)`` with ``a`` one of ``u/r``, ``u``, ``r``, so the residual
    ``lhs - rhs`` times ``r`` has degree <= 2 in ``r`` (coefficients Laurent
    in ``u``).  A polynomial of degree <= 2 vanishing at three distinct
    points is zero.
    """
    layout = (rep.local_dim,) * 3

    def r12(a: LaurentPoly) -> PolyMatrix:
        return embed_pair(r_local(rep, a), 0, 1, layout)

    def r23(a: LaurentPoly) -> PolyMatrix:
        return embed_pair(r_local(rep, a), 1, 2, layout)

    u = LaurentPoly.unit(1)
    r12u, r23u = r12(u), r23(u)
    echo = _echo(rep)
    for r in _sample_points(seed, 3):
        udivr = LaurentPoly.unit(1, rat(1) / r)
        rc = LaurentPoly.const(r)
        lhs = r12(udivr) * r23u * r12(rc)
        rhs = r23(rc) * r12u * r23(udivr)
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
    layout = (rep.local_dim,) * 2
    if end == "left":
        def kk(a: LaurentPoly) -> PolyMatrix:
            return embed_site(k_minus_hat(rep, a), 0, layout)
    elif end == "right":
        def kk(a: LaurentPoly) -> PolyMatrix:
            return embed_site(k_bar_plus_hat(rep, a), 1, layout)
    else:
        raise ValueError("end must be 'left' or 'right'")

    ku = kk(LaurentPoly.unit(1))
    echo = _echo(rep)
    echo["end"] = end
    for r in _sample_points(seed, 5):
        rdiv = r_local(rep, LaurentPoly.unit(1, rat(1) / r))
        rmul = r_local(rep, LaurentPoly.unit(1, r))
        kr = kk(LaurentPoly.const(r))
        lhs = rdiv * ku * rmul * kr
        rhs = kr * rmul * ku * rdiv
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
    # R(u) * u R(1/u), the cleared product at inverted argument
    prod = r_local(rep, u) * r_local(rep, LaurentPoly.unit(-1)).scale(u)
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
    m1 = embed_site(rep.m_local, 0, layout)
    m1_inv = embed_site(twist_matrix(d, rat(1) / q), 0, layout)
    u = LaurentPoly.unit(1)
    ident = PolyMatrix.identity(layout)
    lhs = _r_aux(rep, u, True).partial_transpose(0) * m1

    winners = []
    for sign in (1, -1):
        for k in range(-2 * d, 2 * d + 1):
            chi = q**k * sign
            # u R(chi / u) = u g - chi g^-1
            crossed = _r_aux(rep, LaurentPoly.unit(-1, chi), True).scale(u)
            full = lhs * crossed.partial_transpose(1) * m1_inv
            ratio = mat_proportional(full, ident)
            if ratio is not None:
                winners.append((chi, ratio))
    if len(winners) != 1:
        raise CalibrationFailure(
            f"crossing calibration found {len(winners)} candidates: "
            + ", ".join(rat_str(c) for c, _ in winners))
    return winners[0]


def _dual_condition(rep: HeckeRep, end: str) -> tuple[PolyMatrix, PolyMatrix]:
    """The trace condition ``tr_aux{(X(u) (x) I) kernel} = s(u) boundary`` of
    the dual boundary pencil ``X`` at ``end``, as ``(kernel, boundary)``.

    ``right``: the auxiliary operator (twist times dual right boundary) that
    leads the two-boundary trace, with kernel ``R(u^2) = G - u^2 Gi`` and
    boundary ``Kbar+(u)``.  ``left``: the shifted left boundary times twist
    of the companion condition, with kernel ``u^2 R(u^-2) = u^2 G - Gi`` and
    boundary ``K-(u)``.  ``R``, ``G`` and ``Gi`` are on the (auxiliary,
    site) pair (``_aux_kernel``).
    """
    u, u2 = LaurentPoly.unit(1), LaurentPoly.unit(2)
    if end == "right":
        return _aux_kernel(rep, u2), k_bar_plus_hat(rep, u)
    if end == "left":
        return _aux_kernel(rep, LaurentPoly.unit(-2)).scale(u2), k_minus_hat(rep, u)
    raise ValueError("end must be 'left' or 'right'")


def calibrate_dual(rep: HeckeRep, end: str) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The dual boundary pencil ``X(u) = X0 + X1 u + X2 u^2`` of the trace
    condition at ``end`` (``_dual_condition``), calibrated exactly as a
    one-dimensional nullspace: the identity itself decides.

    The unknowns are the entries of ``X0``, ``X1``, ``X2`` (row-major) and
    the coefficients of the scalar ``s(u) = s0 + s1 u + s2 u^2``; column
    ``j`` of the system is the image of unknown ``j`` under ``X, s ->
    tr_aux{(X (x) I) kernel} - s boundary``, read degree by degree.
    Returns (X0, X1, X2) normalized so the first nonzero unknown equals 1.
    """
    kernel, boundary = _dual_condition(rep, end)
    d = rep.local_dim
    unit = LaurentPoly.unit
    traces = [_aux_trace(PolyMatrix((d,), {(r, c): 1}), kernel)
              for r in range(d) for c in range(d)]
    images = [t.scale(unit(j)) for j in range(3) for t in traces]
    images += [boundary.scale(-unit(m)) for m in range(3)]
    entries = [[img.get(r, c) for img in images] for r in range(d) for c in range(d)]
    basis = nullspace([[x.coeff(deg) for x in row] for deg in range(5) for row in entries])
    nm = d * d
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
    """The calibrated spectral data the two-boundary family reads: ``aplus``,
    the right dual pencil (``calibrate_dual(rep, "right")``) that leads the
    auxiliary trace."""

    aplus: tuple[PolyMatrix, PolyMatrix, PolyMatrix]

    def aplus_at(self, arg: LaurentPoly) -> PolyMatrix:
        return _pencil(self.aplus, arg)


def build_kit(rep: HeckeRep) -> BaxterKit:
    return BaxterKit(aplus=calibrate_dual(rep, "right"))


def check_condition2(rep: HeckeRep, kit: BaxterKit) -> list[CheckReport]:
    """Verify both trace conditions, with the kit's right dual and the left
    dual calibrated here, and report the exact proportionality functions."""
    u = LaurentPoly.unit(1)
    echo = _echo(rep)
    out = []
    for end, dual in (("right", kit.aplus), ("left", calibrate_dual(rep, "left"))):
        kernel, boundary = _dual_condition(rep, end)
        lhs = _aux_trace(_pencil(dual, u), kernel)
        out.append(ratio_report(f"condition2/{end}-trace", mat_proportional(lhs, boundary),
                                entry_failure(lhs), params=echo))
    return out


def check_crossing_report(rep: HeckeRep) -> CheckReport:
    echo = _echo(rep)
    try:
        chi, ratio = calibrate_crossing(rep)
    except CalibrationFailure as exc:
        return failed("baxter/crossing", params=echo, failure={"relation": str(exc)})
    return passed("baxter/crossing", params=echo, ratio=f"chi={rat_str(chi)}; {ratio}")
