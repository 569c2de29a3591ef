"""Spectral-parameter dependence: baxterized R and K matrices and their
consistency identities (Yang-Baxter, reflection, unitarity, crossing).

Every baxterized bulk matrix is ``r_local``, ``g - a g^{-1}`` on two
factors, embedded where it acts: the site pairs of ``r_hat``, the
three-factor Yang-Baxter space, the reflection and crossing spaces, and the
(auxiliary, site) pair of every auxiliary trace, where ``R = P r_local``
is a product with the flip matrix ``P`` (``_flip``).

Every calibration is one exact nullspace of the identity it serves, which
is linear in its unknowns: the crossing unit (``calibrate_crossing``) and
the dual boundary pencils (``calibrate_dual``).

Every other R and K (``r_hat``, ``k_minus_hat``, ``k_bar_plus_hat``,
``_pencil``, ``_aux_kernel``) is built once in the formal ``u``; a caller
re-keys it at its argument: ``compose_power(k)`` for ``u -> u^k``,
``shift(k)`` for a factor ``u^k`` and ``evaluate(r)`` at a constant.

Normalization drops every overall exponential prefactor, so all downstream
statements are proportionality claims with a Laurent-polynomial ratio.
Additive spectral shifts are realized multiplicatively; identities in two
spectral variables are checked with one variable formal and the other
specialized at several rationals.
"""

from __future__ import annotations

import random

from .errors import CalibrationFailure
from .hecke import HeckeRep, _echo, twist_matrix
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed, ratio_report
from .tensor import (PolyMatrix, embed, mat_proportional, nullspace, numerator_rows,
                     trace_sandwich)


def r_local(rep: HeckeRep, a: LaurentPoly) -> PolyMatrix:
    """The baxterized generator ``g - a g^{-1}`` on two factors."""
    return rep.g_local - rep.g_inv_local.scale(a)


def r_hat(rep: HeckeRep, i: int) -> PolyMatrix:
    """Baxterized bulk matrix ``g_i - u g_i^{-1}`` on the site space."""
    return embed(r_local(rep, LaurentPoly.unit(1)), (i - 1, i), rep.layout)


# the coefficients ``(X0, X1, X2)`` of a quadratic matrix pencil
Pencil = tuple[PolyMatrix, PolyMatrix, PolyMatrix]


def _pencil(coeffs: Pencil) -> PolyMatrix:
    """The quadratic matrix pencil ``X0 + X1 u + X2 u^2``."""
    x0, x1, x2 = coeffs
    return x0 + x1.shift(1) + x2.shift(2)


def k_minus_hat(rep: HeckeRep) -> PolyMatrix:
    """Left boundary ``g0 + c_- u - u^2 g0^{-1}`` as a local matrix."""
    return _pencil((rep.g0_local, PolyMatrix.identity((rep.local_dim,)).scale(rep.params.c_minus),
                    -rep.g0_inv_local))


def k_bar_plus_hat(rep: HeckeRep) -> PolyMatrix:
    """Right boundary ``gN + c_+ u - u^2 gN^{-1}`` as a local matrix."""
    return _pencil((rep.gN_local, PolyMatrix.identity((rep.local_dim,)).scale(rep.params.c_plus),
                    -rep.gN_inv_local))


def _aux_kernel(rep: HeckeRep) -> PolyMatrix:
    """``r_local`` at ``u`` on the (auxiliary, site) pair, first slot on the
    site factor: the kernel of every auxiliary trace."""
    return embed(r_local(rep, LaurentPoly.unit(1)), (1, 0), (rep.local_dim,) * 2)


def _flip(d: int) -> PolyMatrix:
    """The flip ``P = sum_ab E_ab (x) E_ba`` on the pair ``(d, d)``."""
    return PolyMatrix((d, d), {(a * d + b, b * d + a): 1 for a in range(d) for b in range(d)})


def _r_aux(rep: HeckeRep, w: LaurentPoly, left: bool) -> PolyMatrix:
    """``R_0k(w)`` on the (auxiliary, site) pair: ``P (g - w g^-1)`` left of
    the middle (``left``), ``(g - w g^-1) P`` right of it, ``P`` the flip."""
    flip = _flip(rep.local_dim)
    pair = r_local(rep, w)
    return flip * pair if left else pair * flip


def _aux_trace(x: PolyMatrix, kernel: PolyMatrix) -> PolyMatrix:
    """``tr_aux{(x (x) I) * kernel}`` on the (auxiliary, site) pair."""
    return trace_sandwich(PolyMatrix.identity(kernel.layout), x, kernel)


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
        return embed(r_local(rep, a), (0, 1), layout)

    def r23(a: LaurentPoly) -> PolyMatrix:
        return embed(r_local(rep, a), (1, 2), layout)

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
        ku = embed(k_minus_hat(rep), (0,), layout)
    elif end == "right":
        ku = embed(k_bar_plus_hat(rep), (1,), layout)
    else:
        raise ValueError("end must be 'left' or 'right'")

    echo = _echo(rep)
    echo["end"] = end
    for r in _sample_points(seed, 5):
        rdiv = r_local(rep, LaurentPoly.unit(1, rat(1) / r))
        rmul = r_local(rep, LaurentPoly.unit(1, r))
        kr = ku.evaluate(r)
        lhs = rdiv * ku * rmul * kr
        rhs = kr * rmul * ku * rdiv
        if lhs != rhs:
            return failed(f"baxter/re-{end}", params=echo,
                          failure={"specialization": rat_str(r), **entry_failure(lhs - rhs)})
    return passed(f"baxter/re-{end}", params=echo)


def check_unitarity(rep: HeckeRep) -> list[CheckReport]:
    """Products at opposite arguments are scalars; the scalars are reported."""
    d = rep.local_dim
    ident2 = PolyMatrix.identity((d, d))
    ident1 = PolyMatrix.identity((d,))
    echo = _echo(rep)
    # R(u) * u R(1/u), the cleared product at inverted argument
    r = r_local(rep, LaurentPoly.unit(1))
    prod = r * r.compose_power(-1).shift(1)
    out = [ratio_report("baxter/unitarity-r", mat_proportional(prod, ident2),
                        entry_failure(prod), params=echo)]
    for name, kfun in (("k", k_minus_hat), ("kbar", k_bar_plus_hat)):
        low = kfun(rep)
        # u^2 * K(1/u) has polynomial entries again
        prod = low * low.compose_power(-1).shift(2)
        out.append(ratio_report(f"baxter/unitarity-{name}", mat_proportional(prod, ident1),
                                entry_failure(prod), params=echo))
    return out


# ---------------------------------------------------------------------------
# crossing and dual-boundary calibration
# ---------------------------------------------------------------------------

def calibrate_crossing(rep: HeckeRep) -> tuple[Rational, LaurentPoly]:
    """The crossing unit ``chi`` and ratio ``r`` of
    ``R(u)^t0 M1 (u R(chi/u))^t1 M1^-1 = r(u) I`` on a local two-factor
    space.  With ``u R(chi/u) = u P g - chi P g^-1`` it reads
    ``A - chi B = (r0 + r1 u + r2 u^2) I`` (``R(u)`` has degrees 0..1), which
    is linear: one exact nullspace of the images ``A, -B, -I, -u I, -u^2 I``,
    read as in ``calibrate_dual``, solves it.  ``chi`` is unique exactly when
    the nullspace is one-dimensional and its ``A`` entry is nonzero; ``r``
    must be nonzero too.
    """
    d = rep.local_dim
    layout = (d, d)
    m1 = embed(rep.m_local, (0,), layout)
    m1_inv = embed(twist_matrix(d, rat(1) / rep.params.q), (0,), layout)
    ident = PolyMatrix.identity(layout)
    lhs = _r_aux(rep, LaurentPoly.unit(1), True).partial_transpose(0) * m1
    flip = _flip(d)
    a = lhs * (flip * rep.g_local).shift(1).partial_transpose(1) * m1_inv
    b = lhs * (flip * rep.g_inv_local).partial_transpose(1) * m1_inv
    basis = nullspace(numerator_rows([a, -b, *(-ident.shift(k) for k in range(3))]))
    if len(basis) != 1 or basis[0][0] == 0 or all(x == 0 for x in basis[0][2:]):
        raise CalibrationFailure(
            f"crossing calibration nullspace has dimension {len(basis)}")
    y = basis[0]
    chi = y[1] * b.den / (y[0] * a.den)
    return chi, mat_proportional(a - b.scale(chi), ident)


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
    if end == "right":
        return _aux_kernel(rep).compose_power(2), k_bar_plus_hat(rep)
    if end == "left":
        return _aux_kernel(rep).compose_power(-2).shift(2), k_minus_hat(rep)
    raise ValueError("end must be 'left' or 'right'")


def calibrate_dual(rep: HeckeRep, end: str) -> Pencil:
    """The dual boundary pencil ``X(u) = X0 + X1 u + X2 u^2`` of the trace
    condition at ``end`` (``_dual_condition``), calibrated exactly as a
    one-dimensional nullspace: the identity itself decides.

    The unknowns are the entries of ``X0``, ``X1``, ``X2`` (row-major) and
    the coefficients of the scalar ``s(u) = s0 + s1 u + s2 u^2``; column
    ``j`` of the system is the image of unknown ``j`` under ``X, s ->
    tr_aux{(X (x) I) kernel} - s boundary``, read degree by degree from its
    integer numerators (``tensor.numerator_rows``), so unknown ``j`` is
    ``y_j`` times that image's ``den`` for a null vector ``y``.
    Returns (X0, X1, X2) normalized so the first nonzero unknown equals 1.
    """
    kernel, boundary = _dual_condition(rep, end)
    d = rep.local_dim
    traces = [_aux_trace(PolyMatrix((d,), {(r, c): 1}), kernel)
              for r in range(d) for c in range(d)]
    images = [t.shift(j) for j in range(3) for t in traces]
    images += [(-boundary).shift(m) for m in range(3)]
    basis = nullspace(numerator_rows(images))
    nm = d * d
    if len(basis) != 1 or all(x == 0 for x in basis[0][3 * nm:]):
        raise CalibrationFailure(
            f"dual-boundary calibration nullspace has dimension {len(basis)}")
    vec = [y * img.den for y, img in zip(basis[0], images)]
    lead = next(x for x in vec if x != 0)
    vec = [x / lead for x in vec]
    return tuple(PolyMatrix((d,), {(r, c): vec[j * nm + r * d + c]
                                   for r in range(d) for c in range(d)}) for j in range(3))


def build_kit(rep: HeckeRep) -> Pencil:
    """The calibrated spectral data the two-boundary family reads: the right
    dual pencil ``(X0, X1, X2)`` (``calibrate_dual(rep, "right")``) that leads
    the auxiliary trace."""
    return calibrate_dual(rep, "right")


def check_condition2(rep: HeckeRep, kit: Pencil) -> list[CheckReport]:
    """Verify both trace conditions, with the kit (``build_kit``) as the right
    dual and the left dual calibrated here, and report the exact
    proportionality functions."""
    echo = _echo(rep)
    out = []
    for end, dual in (("right", kit), ("left", calibrate_dual(rep, "left"))):
        kernel, boundary = _dual_condition(rep, end)
        lhs = _aux_trace(_pencil(dual), kernel)
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
