"""Double-row transfer matrices and the Murphy-element edge extraction.

One-boundary mode: the open transfer matrix with a single nontrivial left
boundary, with an inhomogeneity at the last dressed site.  At the diagonal
evaluation point it factorizes into a bulk sandwich around the boundary
matrix; the direct auxiliary-space trace construction is compared against
that factorized form up to a monomial.

Two-boundary mode: a single dressed double-row family ``T(u; v)`` with the
calibrated dual boundary operator under the trace.  Evaluated along the
inhomogeneity lattice ``u = v^p`` it telescopes: at ``p = +-N`` the lowest
expansion coefficient is the last Murphy element of the two-boundary family
(or its inverse), at ``p = +-1`` the zeroth one (or its inverse).  The
suites read only those expansion edges, so ``TwoBoundaryLattice`` computes
them by exact truncated products; ``t_two_boundary_direct`` gives the full
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baxter import BaxterKit, k_minus_hat
from .errors import (ConditionFailure, DimensionMismatch, InternalMismatch,
                     SpanFailure)
from .hecke import HeckeRep, _echo, murphy, murphy_inverse
from .rings import LaurentPoly, LaurentRatio, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, info, passed, ratio_report
from .tensor import (PolyMatrix, embed_pair, embed_site, lin_solve,
                     mat_proportional, permutation_pair)


@dataclass
class ExpansionEdge:
    """First and last coefficient of a transfer-matrix expansion."""

    low_deg: int
    low_coeff: PolyMatrix
    high_deg: int
    high_coeff: PolyMatrix


def extract_edges(t: PolyMatrix) -> ExpansionEdge:
    """Coefficient matrices at the minimal and maximal degree present."""
    if t.is_zero:
        raise DimensionMismatch("cannot extract edges of the zero matrix")
    lo, hi = t.min_degree(), t.max_degree()
    return ExpansionEdge(lo, t.coefficient(lo), hi, t.coefficient(hi))


# ---------------------------------------------------------------------------
# auxiliary-space workspace
# ---------------------------------------------------------------------------

class AuxWorkspace:
    """Embedded pair operators on the (auxiliary, site_1..site_n) layout.

    The auxiliary space is factor 0.  ``r_left(k, w)`` is the flip times the
    baxterized pair operator on factors (0, k); ``r_right(k, w)`` puts the
    flip on the other side.  Both use the bulk generator with its first slot
    on the auxiliary factor.  The flip is applied as a relabel of the row
    (left) or column (right) indices, not as a product.
    """

    def __init__(self, rep: HeckeRep, n: int):
        self.rep = rep
        self.n = n
        self.layout = (rep.local_dim,) * (n + 1)
        self.gk = {}
        self.gki = {}
        self.flip = {}
        for k in range(1, n + 1):
            self.gk[k] = embed_pair(rep.g_local, 0, k, self.layout)
            self.gki[k] = embed_pair(rep.g_inv_local, 0, k, self.layout)
            self.flip[k] = {r: next(iter(row))
                            for r, row in permutation_pair(0, k, self.layout).rows.items()}

    def pair(self, k: int, w: LaurentPoly) -> PolyMatrix:
        return self.gk[k] - self.gki[k].scale(w)

    def r_left(self, k: int, w: LaurentPoly) -> PolyMatrix:
        return self.pair(k, w).relabel(rows=self.flip[k])

    def r_right(self, k: int, w: LaurentPoly) -> PolyMatrix:
        return self.pair(k, w).relabel(cols=self.flip[k])

    def aux_op(self, local: PolyMatrix) -> PolyMatrix:
        return embed_site(local, 0, self.layout)


# ---------------------------------------------------------------------------
# one-boundary pipeline
# ---------------------------------------------------------------------------

def aux_trace_scalar(rep: HeckeRep) -> LaurentPoly | None:
    """Scalar ``f`` with ``tr_aux{(M (x) I) * (g - w g^-1)} = f(w) I`` for the
    site-first embedded bulk generator, or None when the trace is not scalar."""
    d = rep.local_dim
    layout = (d, d)
    gp = embed_pair(rep.g_local, 1, 0, layout)
    gpi = embed_pair(rep.g_inv_local, 1, 0, layout)
    w = LaurentPoly.unit(1)
    tr = (embed_site(rep.m_local, 0, layout) * (gp - gpi.scale(w))).partial_trace_first()
    ratio = mat_proportional(tr, PolyMatrix.identity((d,)))
    if ratio is None or ratio.den != LaurentPoly.const(1):
        return None
    return ratio.num


def check_aux_trace(rep: HeckeRep, n: int) -> CheckReport:
    """The quantum-trace requirement gating the one-boundary factorization."""
    echo = _echo(rep)
    echo["n"] = str(n)
    f = aux_trace_scalar(rep)
    if f is None:
        d = rep.local_dim
        layout = (d, d)
        gp = embed_pair(rep.g_local, 1, 0, layout)
        tr = (embed_site(rep.m_local, 0, layout) * gp).partial_trace_first()
        return failed("transfer/aux-trace", params=echo, failure=entry_failure(tr))
    return passed("transfer/aux-trace", params=echo, ratio=str(f))


def t_open_factorized(rep: HeckeRep, n: int, *, trivial_k: bool = False,
                      layout_sites: int | None = None) -> PolyMatrix:
    """Bulk sandwich around the left boundary at the diagonal point.

    Entries are polynomial of total degree exactly ``2n`` (``2n - 2`` when
    the boundary is switched off for the A-type corollary).
    """
    total = layout_sites if layout_sites is not None else rep.sites
    layout = (rep.local_dim,) * total
    u = LaurentPoly.unit(1)
    if trivial_k:
        mid = PolyMatrix.identity(layout)
    else:
        mid = embed_site(k_minus_hat(rep, u), 0, layout)
    out = mid
    for i in range(1, n):
        g = embed_pair(rep.g_local, i - 1, i, layout)
        gi = embed_pair(rep.g_inv_local, i - 1, i, layout)
        rh = g - gi.scale(u)
        out = rh * out * rh
    return out


def t_open_direct(rep: HeckeRep, n: int, *, trivial_k: bool = False) -> PolyMatrix:
    """Direct auxiliary trace at the diagonal point, on ``n`` sites."""
    ws = AuxWorkspace(rep, n)
    u = LaurentPoly.unit(1)
    u2 = LaurentPoly.unit(2)
    one = LaurentPoly.const(1)
    x = ws.aux_op(rep.m_local) * ws.r_left(n, u2)
    for k in range(n - 1, 0, -1):
        x = x * ws.r_left(k, u)
    if not trivial_k:
        x = x * ws.aux_op(k_minus_hat(rep, u))
    for k in range(1, n):
        x = x * ws.r_right(k, u)
    x = x * ws.r_right(n, one)
    return x.partial_trace_first()


def t_open_inhomogeneous(rep: HeckeRep, n: int, u0: Rational) -> PolyMatrix:
    """Direct trace with formal argument and a fixed rational inhomogeneity."""
    ws = AuxWorkspace(rep, n)
    u = LaurentPoly.unit(1)
    x = ws.aux_op(rep.m_local) * ws.r_left(n, LaurentPoly.unit(1, u0))
    for k in range(n - 1, 0, -1):
        x = x * ws.r_left(k, u)
    x = x * ws.aux_op(k_minus_hat(rep, u))
    for k in range(1, n):
        x = x * ws.r_right(k, u)
    x = x * ws.r_right(n, LaurentPoly.unit(1, rat(1) / u0))
    return x.partial_trace_first()


@dataclass
class OneBoundaryResult:
    matrix: PolyMatrix            # factorized form on the full site space
    aux_scalar: LaurentPoly       # the quantum-trace scalar f(w)
    internal_ratio: LaurentRatio | None  # direct / (f * factorized), a monomial


def build_t_one_boundary(rep: HeckeRep, n: int, *, trivial_k: bool = False,
                         cross_check: bool = True) -> OneBoundaryResult:
    """Factorized diagonal-point transfer matrix with its side condition and
    (optionally) the direct-trace cross-check.

    Raises ConditionFailure when the quantum-trace requirement fails and
    InternalMismatch when the two constructions disagree beyond a monomial.
    """
    if not 1 <= n <= rep.sites:
        raise DimensionMismatch(f"n={n} outside 1..{rep.sites}")
    f = aux_trace_scalar(rep)
    if f is None:
        raise ConditionFailure("auxiliary quantum trace is not scalar")
    matrix = t_open_factorized(rep, n, trivial_k=trivial_k)
    ratio = None
    if cross_check:
        direct = t_open_direct(rep, n, trivial_k=trivial_k)
        small = t_open_factorized(rep, n, trivial_k=trivial_k, layout_sites=n)
        expected = small.scale(f.compose_power(2))
        ratio = mat_proportional(direct, expected)
        if ratio is None:
            raise InternalMismatch("direct and factorized constructions disagree")
        if not (ratio.den == LaurentPoly.const(1) and ratio.num.is_single_term):
            raise InternalMismatch(f"non-monomial internal ratio {ratio}")
    return OneBoundaryResult(matrix=matrix, aux_scalar=f, internal_ratio=ratio)


def verify_murphy_edges_one_boundary(rep: HeckeRep, n: int, *,
                                     trivial_k: bool = False,
                                     cross_check: bool = True) -> list[CheckReport]:
    """Edge coefficients of the one-boundary expansion against the B-type
    (or, with the boundary off, A-type) Murphy element and its opposite."""
    echo = _echo(rep)
    echo["n"] = str(n)
    family = "A" if trivial_k else "B"
    tag = "corollary" if trivial_k else "prop1"
    out = []
    try:
        result = build_t_one_boundary(rep, n, trivial_k=trivial_k, cross_check=cross_check)
    except (ConditionFailure, InternalMismatch) as exc:
        return [failed(f"{tag}/build[n={n}]", params=echo, failure={"relation": str(exc)})]
    edges = extract_edges(result.matrix)
    expected_span = 2 * n if not trivial_k else 2 * (n - 1)
    span_ok = edges.low_deg == 0 and edges.high_deg == expected_span
    degs = f"[{edges.low_deg}, {edges.high_deg}]"
    if not span_ok:
        out.append(failed(f"{tag}/degree-span[n={n}]", params=echo,
                          failure={"span": degs, "expected": f"[0, {expected_span}]"}))
    else:
        out.append(passed(f"{tag}/degree-span[n={n}]", params=echo, degrees=degs))

    out.append(ratio_report(
        f"{tag}/low-edge[n={n}]", mat_proportional(edges.low_coeff, murphy(rep, family, n - 1)),
        {"relation": "low edge not proportional to Murphy element"}, params=echo))
    out.append(ratio_report(
        f"{tag}/high-edge[n={n}]",
        mat_proportional(edges.high_coeff, murphy_inverse(rep, family, n - 1)),
        {"relation": "high edge not proportional to inverse element"}, params=echo))
    return out


# ---------------------------------------------------------------------------
# two-boundary pipeline
# ---------------------------------------------------------------------------

def _two_boundary_factors(ws: AuxWorkspace, kit: BaxterKit, p: int) -> list[PolyMatrix]:
    """The factors of ``T(u = v^p; v)`` before the auxiliary trace, in order:
    the calibrated dual operator (twist included), the left pair operators
    ``N..1``, the left boundary, the right pair operators ``1..N``."""
    n = ws.n
    uarg = LaurentPoly.unit(p)
    return ([ws.aux_op(kit.aplus_at(uarg))]
            + [ws.r_left(k, LaurentPoly.unit(p + k)) for k in range(n, 0, -1)]
            + [ws.aux_op(k_minus_hat(ws.rep, uarg))]
            + [ws.r_right(k, LaurentPoly.unit(p - k)) for k in range(1, n + 1)])


def t_two_boundary_direct(rep: HeckeRep, kit: BaxterKit, p: int) -> PolyMatrix:
    """The dressed family member ``T(u = v^p; v)`` as a full Laurent matrix.

    The calibrated dual operator (twist included) leads the trace; the left
    boundary is dressed by the full inhomogeneity lattice.
    """
    x, *rest = _two_boundary_factors(AuxWorkspace(rep, rep.sites), kit, p)
    for f in rest:
        x = x * f
    return x.partial_trace_first()


def _trace_edge(factors: list[PolyMatrix], low: bool) -> tuple[int, PolyMatrix]:
    """Degree and coefficient of the lowest (``low``) or highest term of
    ``tr_aux(F_1 ... F_m)``.

    Degrees are signed (negated for the highest term), so both cases look
    for a lowest term.  A term of ``F_1 ... F_j`` above degree ``W - 1`` plus
    the lowest degrees of ``F_1..F_j`` only reaches degrees ``>= L + W`` of
    the product, ``L`` the sum of all lowest degrees.  Dropping such terms
    after every step (and, before it, the terms of ``F_j`` that cannot stay
    below that bound) leaves the product mod ``v^(L+W)`` exactly.  ``W``
    doubles while that remainder traces to zero; once it covers the whole
    degree span nothing is dropped, and zero means zero.
    """
    sign = 1 if low else -1

    def lowest(m: PolyMatrix) -> int:
        return m.min_degree() if low else -m.max_degree()

    def upto(m: PolyMatrix, top: int) -> PolyMatrix:   # signed degrees <= top
        return m.band(hi=top) if low else m.band(lo=-top)

    ext = [lowest(f) for f in factors]
    span = sum(f.max_degree() - f.min_degree() for f in factors)
    w = 1
    while True:
        top = ext[0] + w - 1
        x = upto(factors[0], top)
        for f, e in zip(factors[1:], ext[1:]):
            if x.is_zero:
                break
            top += e
            x = upto(x * upto(f, top - lowest(x)), top)
        t = x.partial_trace_first()
        if not t.is_zero:
            deg = sign * lowest(t)
            return deg, t.coefficient(deg)
        if w > span:
            raise DimensionMismatch("cannot extract edges of the zero matrix")
        w *= 2


def trace_edges(factors: list[PolyMatrix]) -> ExpansionEdge:
    """Expansion edges of ``tr_aux(F_1 ... F_m)`` (auxiliary space factor 0)
    from exact truncated products; equal to ``extract_edges`` of the full
    traced product, which is never formed."""
    if any(f.is_zero for f in factors):
        raise DimensionMismatch("cannot extract edges of the zero matrix")
    low_deg, low = _trace_edge(factors, True)
    high_deg, high = _trace_edge(factors, False)
    return ExpansionEdge(low_deg, low, high_deg, high)


class TwoBoundaryLattice:
    """Expansion edges of the dressed family ``T(u = v^p; v)`` of one
    representation and kit along the inhomogeneity lattice, each ``p``
    evaluated once.  Only the edges are computed (``trace_edges``); the
    full matrix is ``t_two_boundary_direct``."""

    def __init__(self, rep: HeckeRep, kit: BaxterKit):
        self.rep = rep
        self.kit = kit
        self.ws = AuxWorkspace(rep, rep.sites)
        self._edges: dict[int, ExpansionEdge] = {}
        self._murphy: dict[tuple[int, bool], PolyMatrix] = {}

    def factors(self, p: int) -> list[PolyMatrix]:
        return _two_boundary_factors(self.ws, self.kit, p)

    def edges(self, p: int) -> ExpansionEdge:
        if p not in self._edges:
            self._edges[p] = trace_edges(self.factors(p))
        return self._edges[p]

    def murphy(self, k: int, inverse: bool) -> PolyMatrix:
        """The C-type Murphy element ``J_C[k]`` (or its inverse), built once
        for the lattice checks and the exploratory sweep."""
        if (k, inverse) not in self._murphy:
            build = murphy_inverse if inverse else murphy
            self._murphy[k, inverse] = build(self.rep, "C", k)
        return self._murphy[k, inverse]


def t_two_boundary_factorized(rep: HeckeRep, mode: str) -> PolyMatrix:
    """The telescoped product forms of the two-boundary transfer matrices."""
    n = rep.sites
    layout = rep.layout
    ident = PolyMatrix.identity(layout)
    p = rep.params

    def rh(i: int, w: LaurentPoly) -> PolyMatrix:
        return rep.braid[i] - rep.braid_inv[i].scale(w)

    def rh_inv_lead(i: int, w: LaurentPoly) -> PolyMatrix:
        return rep.braid_inv[i] - rep.braid[i].scale(w)

    def kminus(w: LaurentPoly) -> PolyMatrix:
        return rep.b0 + ident.scale(w * p.c_minus) - rep.b0_inv.scale(w * w)

    def kplus(w: LaurentPoly) -> PolyMatrix:
        return rep.bn + ident.scale(w * p.c_plus) - rep.bn_inv.scale(w * w)

    if mode == "minus":
        out = kplus(LaurentPoly.unit(n))
        for i in range(n - 1, 0, -1):
            out = out * rh(i, LaurentPoly.unit(n + i))
        out = out * kminus(LaurentPoly.unit(n))
        for i in range(1, n):
            out = out * rh(i, LaurentPoly.unit(n - i))
        return out
    if mode == "plus":
        out = ident
        for i in range(1, n):
            out = out * rh_inv_lead(i, LaurentPoly.unit(i + 2))
        out = out * kplus(LaurentPoly.unit(1))
        for i in range(n - 1, 0, -1):
            out = out * rh(i, LaurentPoly.unit(n - i))
        out = out * kminus(LaurentPoly.unit(1))
        return out
    raise ValueError(f"unknown mode {mode!r}")


def _lattice_points(n: int) -> list[tuple[str, int, int, bool]]:
    """The four checked lattice points ``(name, p, k, inverse)``: the lowest
    coefficient at ``u = v^p`` is proportional to ``J_C[k]`` (its inverse
    with ``inverse``)."""
    return [("minus", n, n - 1, False), ("minus-opposite", -n, n - 1, True),
            ("plus", 1, 0, False), ("plus-opposite", -1, 0, True)]


@dataclass
class TwoBoundaryResult:
    factorized: PolyMatrix
    direct: PolyMatrix
    internal_ratio: LaurentRatio | None   # full-matrix ratio (minus mode)
    edge_ratio: LaurentRatio              # low-edge ratio direct vs factorized


def build_t_two_boundary(rep: HeckeRep, kit: BaxterKit, mode: str) -> TwoBoundaryResult:
    """Factorized two-boundary transfer matrix, cross-checked against the
    dressed family.

    In minus mode the direct family member is proportional to the factorized
    product as a full matrix.  In plus mode the full matrices differ, but
    both expansion edges (the zeroth Murphy element and the top coefficient)
    must agree up to scalars.
    """
    if mode not in ("minus", "plus"):
        raise ValueError(f"unknown mode {mode!r}")
    factorized = t_two_boundary_factorized(rep, mode)
    power = rep.sites if mode == "minus" else 1
    direct = t_two_boundary_direct(rep, kit, power)
    internal = None
    if mode == "minus":
        internal = mat_proportional(direct, factorized)
        if internal is None or internal.num.is_zero:
            raise InternalMismatch("two-boundary direct/factorized mismatch")
    e_dir = extract_edges(direct)
    e_fac = extract_edges(factorized)
    edge_ratio = mat_proportional(e_dir.low_coeff, e_fac.low_coeff)
    if edge_ratio is None or edge_ratio.num.is_zero:
        raise InternalMismatch("two-boundary low-edge mismatch")
    high_ratio = mat_proportional(e_dir.high_coeff, e_fac.high_coeff)
    if high_ratio is None or high_ratio.num.is_zero:
        raise InternalMismatch("two-boundary high-edge mismatch")
    return TwoBoundaryResult(factorized=factorized, direct=direct,
                             internal_ratio=internal, edge_ratio=edge_ratio)


def verify_murphy_two_boundary(lattice: TwoBoundaryLattice) -> list[CheckReport]:
    """The four lattice evaluations of the dressed family against the
    boundary Murphy elements and their inverses."""
    echo = _echo(lattice.rep)
    out = []
    for name, p, k, inverse in _lattice_points(lattice.rep.sites):
        edges = lattice.edges(p)
        out.append(ratio_report(
            f"prop2/{name}", mat_proportional(edges.low_coeff, lattice.murphy(k, inverse)),
            {"relation": "low edge not proportional", "low_deg": edges.low_deg},
            params=echo, degrees=f"[{edges.low_deg}, {edges.high_deg}]"))
    return out


def check_degeneration(rep_deg: HeckeRep) -> CheckReport:
    """With the right boundary collapsed to a scalar, the two-boundary edge
    reduces exactly to the one-boundary (B-type) edge."""
    echo = _echo(rep_deg)
    edge = extract_edges(t_two_boundary_factorized(rep_deg, "minus")).low_coeff
    ratio = mat_proportional(edge, murphy(rep_deg, "B", rep_deg.sites - 1))
    edge_one = extract_edges(t_open_factorized(rep_deg, rep_deg.sites)).low_coeff
    if mat_proportional(edge, edge_one) is None:
        ratio = None   # with a nonzero ``ratio`` the edge is nonzero: no zero ratio here
    return ratio_report("prop2/degeneration", ratio,
                        {"relation": "degenerate edge does not reduce"}, params=echo)


# ---------------------------------------------------------------------------
# Hamiltonian and commuting family
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianResult:
    matrix: PolyMatrix
    coefficients: dict[str, Rational]


def hamiltonian(rep: HeckeRep, n: int) -> HamiltonianResult:
    """First derivative of the factorized transfer matrix at the unit point,
    certified (by exact linear solve) to lie in the span of the identity,
    the bulk generators, and the left boundary generator."""
    if n < 2:
        raise DimensionMismatch("the Hamiltonian needs at least two sites")
    t = t_open_factorized(rep, n)
    layout = t.layout
    h = PolyMatrix(layout, {(r, c): v.derivative_at_one() for r, c, v in t.entries()})

    basis = [("identity", PolyMatrix.identity(layout))]
    for i in range(1, n):
        basis.append((f"g[{i}]", rep.braid[i]))
    basis.append(("g[0]", rep.b0))

    dim = h.dim
    rows = []
    rhs = []
    for r in range(dim):
        for c in range(dim):
            rows.append([mat.get(r, c).coeff(0) for _, mat in basis])
            rhs.append(h.get(r, c).coeff(0))
    sol = lin_solve(rows, rhs)
    if sol is None:
        raise SpanFailure("derivative is not in the generator span")
    coeffs = {name: val for (name, _), val in zip(basis, sol)}
    return HamiltonianResult(matrix=h, coefficients=coeffs)


def check_hamiltonian(rep: HeckeRep, n: int, seed: int = 0) -> list[CheckReport]:
    """Span certificate plus commutation with the homogeneous direct family."""
    import random as _random
    echo = _echo(rep)
    echo["n"] = str(n)
    out = []
    try:
        res = hamiltonian(rep, n)
    except SpanFailure as exc:
        return [failed("hamiltonian/span", params=echo, failure={"relation": str(exc)})]
    desc = " ".join(f"{k}={rat_str(v)}" for k, v in sorted(res.coefficients.items()))
    out.append(passed("hamiltonian/span", params=echo, ratio=desc))

    family = t_open_inhomogeneous(rep, n, rat(1))
    rng = _random.Random(seed ^ 0xA11CE)
    ok = True
    for _ in range(3):
        r = rat(rng.randrange(1, 30), rng.randrange(1, 30))
        tv = family.evaluate(r)
        if res.matrix * tv != tv * res.matrix:
            ok = False
            break
    if not ok:
        out.append(failed("hamiltonian/commutes", params=echo,
                          failure={"specialization": rat_str(r)}))
    else:
        out.append(passed("hamiltonian/commutes", params=echo))
    return out


def check_commuting_family(rep: HeckeRep, n: int, seed: int = 0) -> CheckReport:
    """Pairwise commutation of the direct family at a fixed inhomogeneity."""
    import random as _random
    echo = _echo(rep)
    echo["n"] = str(n)
    rng = _random.Random(seed ^ 0xFA111E5)
    u0 = rat(rng.randrange(1, 20), rng.randrange(1, 20))
    echo["inhomogeneity"] = rat_str(u0)
    family = t_open_inhomogeneous(rep, n, u0)
    for _ in range(3):
        r1 = rat(rng.randrange(1, 30), rng.randrange(1, 30))
        r2 = rat(rng.randrange(1, 30), rng.randrange(1, 30))
        if r1 == r2:
            r2 = r2 + 1
        a = family.evaluate(r1)
        b = family.evaluate(r2)
        if a * b != b * a:
            return failed("integrability/commuting-family", params=echo,
                          failure={"specialization": f"({rat_str(r1)},{rat_str(r2)})"})
    return passed("integrability/commuting-family", params=echo)


# ---------------------------------------------------------------------------
# exploratory lattice sweep
# ---------------------------------------------------------------------------

def explore_generic(lattice: TwoBoundaryLattice, n: int) -> list[CheckReport]:
    """Evaluate the dressed family at the intermediate lattice points
    ``u = v^{+-n}`` and tabulate which Murphy elements (if any) appear at
    the expansion edges.  Informational only; nothing is asserted."""
    rep = lattice.rep
    echo = _echo(rep)
    echo["n"] = str(n)
    out = []
    for p in (n, -n):
        edges = lattice.edges(p)
        hits = []
        for k in range(rep.sites):
            for inverse in (False, True):
                cand = lattice.murphy(k, inverse)
                name = f"J_C[{k}]^-1" if inverse else f"J_C[{k}]"
                r = mat_proportional(edges.low_coeff, cand)
                if r is not None and not r.num.is_zero:
                    hits.append(f"low~{name}")
                r = mat_proportional(edges.high_coeff, cand)
                if r is not None and not r.num.is_zero:
                    hits.append(f"high~{name}")
        note = "; ".join(hits) if hits else "no Murphy element at the edges"
        out.append(info(f"explore/lattice[p={p}]",
                        note=note, params=echo,
                        degrees=f"[{edges.low_deg}, {edges.high_deg}]"))
    return out
