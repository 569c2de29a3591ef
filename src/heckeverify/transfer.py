"""Double-row transfer matrices and the Murphy-element edge extraction.

One-boundary mode: the open transfer matrix with a single nontrivial left
boundary, with an inhomogeneity at the last dressed site.  At the diagonal
evaluation point it factorizes into a bulk sandwich around the boundary
matrix; the direct auxiliary-space trace construction is compared against
that factorized form up to a monomial.  ``OneBoundaryChain`` builds what the
one-boundary checks share once.  Its double row is built only on the sites
each product touches: the middle and the bulk sandwich grow inside out, one
site per step (``_grow``), and every direct trace closes the middle with the
outermost pair by one contraction of its auxiliary blocks
(``tensor.trace_sandwich``).

Two-boundary mode: a single dressed double-row family ``T(u; v)`` with the
calibrated dual boundary operator under the trace.  Evaluated along the
inhomogeneity lattice ``u = v^p`` it telescopes: the lowest expansion
coefficient is the Murphy element ``J_C[p - 1]`` of the two-boundary family
for ``p = 1..N``, and its inverse at ``-p``.  Every factor is built once in
a formal ``u`` and re-keyed at its argument (``PolyMatrix.compose_power``).
Every two-boundary claim reads expansion edges only, from one exact
truncated-product routine (``trace_edges``), whose products form only the
degrees it keeps: the lattice points of ``TwoBoundaryLattice`` (the last
product traced), and the factorized product forms and the one-boundary
sandwich they are compared with (the last product untraced).
``t_two_boundary_direct`` gives a full family member.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, mul

from .baxter import (BaxterKit, _aux_site_pair, _aux_trace, k_bar_plus_hat,
                     k_minus_hat, r_hat)
from .errors import (ConditionFailure, DimensionMismatch, InternalMismatch,
                     SpanFailure)
from .hecke import HeckeRep, _echo, murphy, murphy_inverse
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed, ratio_report
from .tensor import (PolyMatrix, aux_blocks, embed_pair, embed_site, flip_indices,
                     independent_rows, kron, lin_solve, mat_proportional, trace_product,
                     trace_sandwich)


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


def _trace_product(factors: Iterable[PolyMatrix]) -> PolyMatrix:
    """``tr_aux(F_1 ... F_m)``, auxiliary space factor 0, for ``m >= 2``; the
    last product is traced as it is formed (``trace_product``)."""
    factors = iter(factors)
    acc, last = next(factors), next(factors)
    for f in factors:
        acc, last = acc * last, f
    return trace_product(acc, last)


# ---------------------------------------------------------------------------
# one-boundary pipeline
# ---------------------------------------------------------------------------

def aux_trace_scalar(rep: HeckeRep) -> LaurentPoly | None:
    """Nonzero scalar ``f`` with ``tr_aux{(M (x) I) * (g - w g^-1)} = f(w) I``
    for the site-first embedded bulk generator, or None when there is none."""
    gp, gpi = _aux_site_pair(rep)
    tr = _aux_trace(rep.m_local, gp - gpi.scale(LaurentPoly.unit(1)))
    return mat_proportional(tr, PolyMatrix.identity((rep.local_dim,)))


def _open_sandwich(rep: HeckeRep, n: int, trivial_k: bool = False) -> list[PolyMatrix]:
    """The factors ``R_n-1..R_1 K- R_1..R_n-1`` of the bulk sandwich, ``K-``
    the identity with ``trivial_k``."""
    middle = rep.identity() if trivial_k else embed_site(k_minus_hat(rep), 0, rep.layout)
    bulk = [r_hat(rep, i) for i in range(1, n)]
    return [*reversed(bulk), middle, *bulk]


def _grow(seed: PolyMatrix, left: PolyMatrix, right: PolyMatrix, anchor: int | None,
          steps: int) -> PolyMatrix:
    """``steps`` times ``X -> L (X (x) I) R``, inside out: each step appends one
    factor ``k`` to the layout, and the two-factor operators ``L`` and ``R``
    act on the factors (``anchor``, ``k``), or (``k - 1``, ``k``) when
    ``anchor`` is None.  Every product runs on the factors built so far."""
    acc, one = seed, PolyMatrix.identity(left.layout[1:])
    for _ in range(steps):
        acc = kron(acc, one)
        k = len(acc.layout) - 1
        j = k - 1 if anchor is None else anchor
        acc = embed_pair(left, j, k, acc.layout) * acc * embed_pair(right, j, k, acc.layout)
    return acc


def _pair_local(rep: HeckeRep, w: LaurentPoly) -> PolyMatrix:
    """The baxterized pair operator ``g - w g^-1`` on two factors."""
    return rep.g_local - rep.g_inv_local.scale(w)


def _boundary_seed(rep: HeckeRep, trivial_k: bool) -> PolyMatrix:
    """``K-(u)`` on one factor, the identity with ``trivial_k``."""
    return PolyMatrix.identity((rep.local_dim,)) if trivial_k else k_minus_hat(rep)


def t_open_factorized(rep: HeckeRep, n: int, *, trivial_k: bool = False) -> PolyMatrix:
    """Bulk sandwich ``R_n-1..R_1 K- R_1..R_n-1`` around the left boundary at
    the diagonal point (``_open_sandwich``), grown from ``K-`` on site 1 with
    the pair at sites (k - 1, k), the identity on the sites after ``n``.

    Entries are polynomial of total degree exactly ``2n`` (``2n - 2`` when
    the boundary is switched off for the A-type corollary).
    """
    pair = _pair_local(rep, LaurentPoly.unit(1))
    grown = _grow(_boundary_seed(rep, trivial_k), pair, pair, None, n - 1)
    if n == rep.sites:
        return grown
    return kron(grown, PolyMatrix.identity((rep.local_dim,) * (rep.sites - n)))


@dataclass
class OneBoundaryResult:
    matrix: PolyMatrix            # factorized form on the full site space
    internal_ratio: LaurentPoly | None  # direct / (f * factorized), a monomial


@dataclass
class HamiltonianResult:
    matrix: PolyMatrix
    coefficients: dict[str, Rational]


def _pivot_entries(basis: list[PolyMatrix]) -> list[tuple[int, int]]:
    """Entries ``(r, c)`` whose rows ``[B(r, c) for B in basis]`` span the row
    space of the entrywise system ``sum_i x_i B_i = H``, chosen greedily in
    ``(r, c)`` order; an entry outside every basis support has a zero row.
    A row is read as the integer numerators of the constant terms, each
    matrix over its own denominator: a nonzero scale per column, which
    changes neither which rows are equal nor which are independent."""
    consts = [b.mats.get(0, {}) for b in basis]
    first: dict[tuple, tuple[int, int]] = {}   # distinct row -> its first entry
    for r, c in sorted(set().union(*(b.support() for b in basis))):
        first.setdefault(tuple(m.get(r, {}).get(c, 0) for m in consts), (r, c))
    rows = list(first)
    return [first[rows[i]] for i in independent_rows(rows)]


class OneBoundaryChain:
    """The open transfer matrix ``t(u; u0) = tr_0 M_0 R_0n..R_01 K-_0 R_01..R_0n``
    (Sklyanin's double row) of one representation on ``n`` sites, with the
    inhomogeneity ``u0`` at site ``n``, and the one-boundary checks on it.

    What the checks share is built once, on first use: the auxiliary scalar,
    the factorized matrix (``prop1`` and ``hamiltonian``) and the auxiliary
    blocks of the middle ``R_0,n-1(u)..R_01(u) K-_0(u) R_01(u)..R_0,n-1(u)``,
    which no ``u0`` touches (``prop1``, ``hamiltonian`` and
    ``commuting-family``).  The A-type pair (``trivial_k``) has one reader,
    ``corollary``, and is built without being kept.  The middle lives on
    (auxiliary, site_1..site_n-1) only; a direct trace closes it with the
    pair at site ``n`` (``trace_sandwich``).
    """

    def __init__(self, rep: HeckeRep, n: int):
        if not 1 <= n <= rep.sites:
            raise DimensionMismatch(f"n={n} outside 1..{rep.sites}")
        self.rep = rep
        self.n = n
        self._built: dict[str, object] = {}
        d = rep.local_dim
        self._flip = flip_indices(0, 1, (d, d))
        self._twist = embed_site(rep.m_local, 0, (d, d))

    @cached_property
    def aux_scalar(self) -> LaurentPoly | None:
        return aux_trace_scalar(self.rep)

    def _memo(self, name: str, trivial_k: bool, build):
        if trivial_k:
            return build()
        if name not in self._built:
            self._built[name] = build()
        return self._built[name]

    def factorized(self, trivial_k: bool = False) -> PolyMatrix:
        return self._memo("factorized", trivial_k,
                          lambda: t_open_factorized(self.rep, self.n, trivial_k=trivial_k))

    def _left(self, w: LaurentPoly) -> PolyMatrix:
        """``R_0k(w)`` left of the middle on the (auxiliary, site) pair: the
        flip times ``g - w g^-1``."""
        return _pair_local(self.rep, w).relabel(rows=self._flip)

    def _right(self, w: LaurentPoly) -> PolyMatrix:
        """``R_0k(w)`` right of the middle: ``g - w g^-1`` times the flip."""
        return _pair_local(self.rep, w).relabel(cols=self._flip)

    def middle(self, trivial_k: bool = False) -> PolyMatrix:
        """``R_0,n-1(u)..R_01(u) K-_0(u) R_01(u)..R_0,n-1(u)`` on (auxiliary,
        site_1..site_n-1), grown from ``K-`` (or the identity) on the
        auxiliary space, one site per step."""
        u = LaurentPoly.unit(1)
        return _grow(_boundary_seed(self.rep, trivial_k), self._left(u), self._right(u), 0,
                     self.n - 1)

    def direct(self, u0: Rational | LaurentPoly, trivial_k: bool = False) -> PolyMatrix:
        """The direct trace with formal argument ``u``: ``u * u0`` left and
        ``u / u0`` right of the middle at site ``n``.  ``u0`` is a rational, or
        the formal ``u`` itself for the diagonal point (``u^2`` and ``1``)."""
        u = LaurentPoly.unit(1)
        u0 = LaurentPoly.const(1) * u0
        blocks = self._memo("blocks", trivial_k, lambda: aux_blocks(self.middle(trivial_k)))
        return trace_sandwich(self._twist * self._left(u * u0), blocks,
                              self._right(u * u0 ** -1))

    def _params(self) -> dict[str, str]:
        echo = _echo(self.rep)
        echo["n"] = str(self.n)
        return echo

    def check_aux_trace(self) -> CheckReport:
        """The quantum-trace requirement gating the one-boundary factorization."""
        f = self.aux_scalar
        if f is None:
            tr = _aux_trace(self.rep.m_local, _aux_site_pair(self.rep)[0])
            return failed("transfer/aux-trace", params=self._params(), failure=entry_failure(tr))
        return passed("transfer/aux-trace", params=self._params(), ratio=str(f))

    def build(self, trivial_k: bool = False, cross_check: bool = True) -> OneBoundaryResult:
        """Factorized diagonal-point transfer matrix with its side condition
        and (optionally) the direct-trace cross-check.

        Raises ConditionFailure when the quantum-trace requirement fails and
        InternalMismatch when the two constructions disagree beyond a monomial.
        """
        f = self.aux_scalar
        if f is None:
            raise ConditionFailure("auxiliary quantum trace is not scalar")
        rep, n = self.rep, self.n
        matrix = self.factorized(trivial_k)
        ratio = None
        if cross_check:
            direct = self.direct(LaurentPoly.unit(1), trivial_k)
            if n < rep.sites:   # the factorized form is the identity on the other sites
                direct = kron(direct, PolyMatrix.identity((rep.local_dim,) * (rep.sites - n)))
            ratio = mat_proportional(direct, matrix.scale(f.compose_power(2)))
            if ratio is None:
                raise InternalMismatch("direct and factorized constructions disagree")
            if not ratio.is_single_term:
                raise InternalMismatch(f"non-monomial internal ratio {ratio}")
        return OneBoundaryResult(matrix=matrix, internal_ratio=ratio)

    def murphy_edges(self, trivial_k: bool = False) -> list[CheckReport]:
        """Edge coefficients of the expansion against the B-type (or, with
        the boundary off, A-type) Murphy element and its opposite."""
        rep, n = self.rep, self.n
        echo = self._params()
        family = "A" if trivial_k else "B"
        tag = "corollary" if trivial_k else "prop1"
        out = []
        try:
            result = self.build(trivial_k)
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
            f"{tag}/low-edge[n={n}]",
            mat_proportional(edges.low_coeff, murphy(rep, family, n - 1)),
            {"relation": "low edge not proportional to Murphy element"}, params=echo))
        out.append(ratio_report(
            f"{tag}/high-edge[n={n}]",
            mat_proportional(edges.high_coeff, murphy_inverse(rep, family, n - 1)),
            {"relation": "high edge not proportional to inverse element"}, params=echo))
        return out

    def hamiltonian(self) -> HamiltonianResult:
        """First derivative of the factorized transfer matrix at the unit
        point, in the span of the identity, the bulk generators and the left
        boundary generator.

        The coefficients solve the system on pivot entries whose rows span
        the row space of the whole entrywise system, so they are its
        reduced-echelon solution (free coefficients zero); one exact matrix
        equality ``h == sum_i c_i B_i`` then certifies the span.
        """
        rep, n = self.rep, self.n
        if n < 2:
            raise DimensionMismatch("the Hamiltonian needs at least two sites")
        h = self.factorized().derivative_at_one()
        names = ["identity", *(f"g[{i}]" for i in range(1, n)), "g[0]"]
        basis = [PolyMatrix.identity(h.layout), *(rep.braid[i] for i in range(1, n)), rep.b0]
        pivots = _pivot_entries(basis)
        sol = lin_solve([[b.get(r, c).coeff(0) for b in basis] for r, c in pivots],
                        [h.get(r, c).coeff(0) for r, c in pivots])
        if sol is None or reduce(add, (b.scale(x) for b, x in zip(basis, sol))) != h:
            raise SpanFailure("derivative is not in the generator span")
        return HamiltonianResult(matrix=h, coefficients=dict(zip(names, sol)))

    def check_hamiltonian(self) -> list[CheckReport]:
        """Span certificate plus commutation with the homogeneous direct
        family ``T(u) = sum_k u^k C_k`` for every ``u``: with each ``C_k``."""
        echo = self._params()
        out = []
        try:
            res = self.hamiltonian()
        except SpanFailure as exc:
            return [failed("hamiltonian/span", params=echo, failure={"relation": str(exc)})]
        desc = " ".join(f"{k}={rat_str(v)}" for k, v in sorted(res.coefficients.items()))
        out.append(passed("hamiltonian/span", params=echo, ratio=desc))

        h, family = res.matrix, self.direct(rat(1))
        for k in sorted(family.mats):
            coeff = family.coefficient(k)
            if h * coeff != coeff * h:
                out.append(failed("hamiltonian/commutes", params=echo,
                                  failure=entry_failure(h * coeff - coeff * h)))
                return out
        out.append(passed("hamiltonian/commutes", params=echo))
        return out

    def check_commuting_family(self, seed: int = 0) -> CheckReport:
        """Pairwise commutation of the direct family at a fixed inhomogeneity."""
        import random as _random
        echo = self._params()
        rng = _random.Random(seed ^ 0xFA111E5)
        u0 = rat(rng.randrange(1, 20), rng.randrange(1, 20))
        echo["inhomogeneity"] = rat_str(u0)
        family = self.direct(u0)
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


# One-shot forms on a throwaway chain, kept for the benchmark's oracle
# (perfbench/worker.py calls both).

def t_open_inhomogeneous(rep: HeckeRep, n: int, u0: Rational | LaurentPoly) -> PolyMatrix:
    """Direct trace on ``n`` sites with formal argument ``u`` and the
    inhomogeneity ``u0`` at the last site (``OneBoundaryChain.direct``)."""
    return OneBoundaryChain(rep, n).direct(u0)


def build_t_one_boundary(rep: HeckeRep, n: int, *, trivial_k: bool = False,
                         cross_check: bool = True) -> OneBoundaryResult:
    return OneBoundaryChain(rep, n).build(trivial_k, cross_check)


# ---------------------------------------------------------------------------
# two-boundary pipeline
# ---------------------------------------------------------------------------

def t_two_boundary_direct(rep: HeckeRep, kit: BaxterKit, p: int) -> PolyMatrix:
    """The dressed family member ``T(u = v^p; v)`` as a full Laurent matrix.

    The calibrated dual operator (twist included) leads the trace; the left
    boundary is dressed by the full inhomogeneity lattice.
    """
    return _trace_product(TwoBoundaryLattice(rep, kit).factors(p))


def _trace_edge(factors: list[PolyMatrix], low: bool, traced: bool) -> tuple[int, PolyMatrix]:
    """Degree and coefficient of the lowest (``low``) or highest term of
    ``F_1 ... F_m``, ``m >= 2``, the last product traced over the auxiliary
    space (``trace_product``) when ``traced``.

    Degrees are signed (negated for the highest term), so both cases look
    for a lowest term.  A term of ``F_1 ... F_j`` above degree ``W - 1`` plus
    the lowest degrees of ``F_1..F_j`` only reaches degrees ``>= L + W`` of
    the product, ``L`` the sum of all lowest degrees.  So every product is
    formed only in the signed degrees below that bound (its window), which
    leaves the product mod ``v^(L+W)`` exactly; the trace is linear, so its
    terms below the bound are exact too.  ``W`` doubles while that remainder
    is zero; once it covers the whole degree span nothing is dropped, and
    zero means zero.
    """
    ext = [f.min_degree() if low else -f.max_degree() for f in factors]
    span = sum(f.max_degree() - f.min_degree() for f in factors)
    final = len(factors) - 1
    w = 1
    while True:
        top = ext[0] + w - 1
        x = factors[0]
        for i in range(1, len(factors)):
            top += ext[i]
            lo, hi = (None, top) if low else (-top, None)
            # names looked up here, so a wrapped trace_product or _matmul is seen
            if traced and i == final:
                x = trace_product(x, factors[i], lo=lo, hi=hi)
            else:
                x = x._matmul(factors[i], lo=lo, hi=hi)
            if x.is_zero:
                break
        if not x.is_zero:
            deg = x.min_degree() if low else x.max_degree()
            return deg, x.coefficient(deg)
        if w > span:
            raise DimensionMismatch("cannot extract edges of the zero matrix")
        w *= 2


def trace_edges(factors: list[PolyMatrix], traced: bool = True) -> ExpansionEdge:
    """Expansion edges of ``tr_aux(F_1 ... F_m)`` (auxiliary space factor 0),
    or with ``traced=False`` of the site-space product ``F_1 ... F_m``, from
    exact truncated products; equal to ``extract_edges`` of the full
    product, which is never formed."""
    if any(f.is_zero for f in factors):
        raise DimensionMismatch("cannot extract edges of the zero matrix")
    if len(factors) == 1:   # the last product is the one with the identity
        factors = [PolyMatrix.identity(factors[0].layout), *factors]
    low_deg, low = _trace_edge(factors, True, traced)
    high_deg, high = _trace_edge(factors, False, traced)
    return ExpansionEdge(low_deg, low, high_deg, high)


class TwoBoundaryLattice:
    """Expansion edges of the dressed family ``T(u = v^p; v)`` of one
    representation and kit along the inhomogeneity lattice, each ``p``
    evaluated once.  Only the edges are computed (``trace_edges``); the
    full matrix is ``t_two_boundary_direct``.

    The factors of ``T(u; v)`` before the auxiliary trace, on the
    (auxiliary, site_1..site_N) layout, are built once in a formal ``u``,
    each with the shift ``s`` of its argument ``v^(p+s)``: the calibrated
    dual operator (twist included) leads and ``K-`` sits in the middle, both
    at ``v^p``; the pair at site ``k`` takes ``v^(p+k)`` left of it (the flip
    applied to its rows) and ``v^(p-k)`` right of it (to its columns).
    """

    def __init__(self, rep: HeckeRep, kit: BaxterKit):
        self.rep = rep
        self.kit = kit
        layout = (rep.local_dim,) * (rep.sites + 1)
        u = LaurentPoly.unit(1)
        pairs = [(embed_pair(_pair_local(rep, u), 0, k, layout), flip_indices(0, k, layout), k)
                 for k in range(1, rep.sites + 1)]
        self._formal = [(embed_site(kit.aplus_at(u), 0, layout), 0),
                        *((pair.relabel(rows=flip), k) for pair, flip, k in reversed(pairs)),
                        (embed_site(k_minus_hat(rep), 0, layout), 0),
                        *((pair.relabel(cols=flip), -k) for pair, flip, k in pairs)]
        self._edges: dict[int, ExpansionEdge] = {}
        self._murphy: dict[tuple[int, bool], PolyMatrix] = {}

    def factors(self, p: int) -> list[PolyMatrix]:
        """The factors of ``T(u = v^p; v)``: the formal ones at ``u = v^(p+s)``."""
        return [f.compose_power(p + s) for f, s in self._formal]

    def edges(self, p: int) -> ExpansionEdge:
        if p not in self._edges:
            self._edges[p] = trace_edges(self.factors(p))
        return self._edges[p]

    def murphy(self, k: int, inverse: bool) -> PolyMatrix:
        """The C-type Murphy element ``J_C[k]`` (or its inverse), built once
        for all lattice points."""
        if (k, inverse) not in self._murphy:
            build = murphy_inverse if inverse else murphy
            self._murphy[k, inverse] = build(self.rep, "C", k)
        return self._murphy[k, inverse]


def _two_boundary_sandwich(rep: HeckeRep, mode: str) -> list[PolyMatrix]:
    """The factors of the telescoped product form ``mode`` (minus or plus),
    each built in a formal ``u`` and re-keyed at its argument ``u^e``."""
    if mode not in ("minus", "plus"):
        raise ValueError(f"unknown mode {mode!r}")
    n = rep.sites
    bulk = {i: r_hat(rep, i) for i in range(1, n)}
    kplus = embed_site(k_bar_plus_hat(rep), n - 1, rep.layout)
    kminus = embed_site(k_minus_hat(rep), 0, rep.layout)
    if mode == "minus":
        factors = [(kplus, n), *((bulk[i], n + i) for i in range(n - 1, 0, -1)),
                   (kminus, n), *((bulk[i], n - i) for i in range(1, n))]
    else:
        # g_i^-1 - w g_i == -w (g_i - w^-1 g_i^-1) at w = u^(i+2)
        u = LaurentPoly.unit(1)
        factors = [*((rep.braid_inv[i] - rep.braid[i].scale(u), i + 2) for i in range(1, n)),
                   (kplus, 1), *((bulk[i], n - i) for i in range(n - 1, 0, -1)), (kminus, 1)]
    return [f.compose_power(e) for f, e in factors]


def t_two_boundary_factorized(rep: HeckeRep, mode: str) -> PolyMatrix:
    """The telescoped product forms of the two-boundary transfer matrices."""
    return reduce(mul, _two_boundary_sandwich(rep, mode))


def _lattice_report(lattice: TwoBoundaryLattice, name: str, p: int, params: dict,
                   *, named: bool = False) -> CheckReport:
    """The lowest coefficient of ``T(u = v^p; v)`` against ``J_C[|p| - 1]``
    (its inverse for ``p < 0``); with ``named`` a passing report's note
    names the element."""
    k, inverse = abs(p) - 1, p < 0
    element = f"J_C[{k}]" + ("^-1" if inverse else "")
    edges = lattice.edges(p)
    return ratio_report(
        name, mat_proportional(edges.low_coeff, lattice.murphy(k, inverse)),
        {"relation": "low edge not proportional", "low_deg": edges.low_deg,
         "element": element},
        params=params, degrees=f"[{edges.low_deg}, {edges.high_deg}]",
        note=f"low~{element}" if named else None)


def verify_murphy_two_boundary(lattice: TwoBoundaryLattice) -> list[CheckReport]:
    """Prop 2: the four boundary lattice points ``p = +-N, +-1`` against the
    last and the zeroth Murphy element and their inverses."""
    echo = _echo(lattice.rep)
    n = lattice.rep.sites
    return [_lattice_report(lattice, f"prop2/{name}", p, echo)
            for name, p in (("minus", n), ("minus-opposite", -n),
                            ("plus", 1), ("plus-opposite", -1))]


def explore_generic(lattice: TwoBoundaryLattice, n: int) -> list[CheckReport]:
    """The lattice theorem at ``u = v^(+-n)``: the lowest coefficient is
    ``J_C[n - 1]`` at ``p = n`` and its inverse at ``p = -n``."""
    echo = _echo(lattice.rep)
    echo["n"] = str(n)
    return [_lattice_report(lattice, f"explore/lattice[p={p}]", p, echo, named=True)
            for p in (n, -n)]


def check_factorized(lattice: TwoBoundaryLattice) -> list[CheckReport]:
    """Both expansion edges of the minus and plus product forms against those
    of the dressed family at ``p = N`` and ``p = 1``, read from the lattice."""
    rep = lattice.rep
    echo = _echo(rep)
    out = []
    for mode, p in (("minus", rep.sites), ("plus", 1)):
        fac = trace_edges(_two_boundary_sandwich(rep, mode), traced=False)
        family = lattice.edges(p)
        low = mat_proportional(family.low_coeff, fac.low_coeff)
        high = mat_proportional(family.high_coeff, fac.high_coeff)
        if low is None or high is None:
            edge = "low" if low is None else "high"
            out.append(failed(f"factorized/{mode}", {"relation": f"{edge} edge not proportional"},
                              params=echo))
        else:
            out.append(passed(f"factorized/{mode}", params=echo, ratio=f"low {low}; high {high}",
                              degrees=f"[{fac.low_deg}, {fac.high_deg}]"))
    return out


def check_degeneration(rep_deg: HeckeRep) -> CheckReport:
    """With the right boundary collapsed to a scalar, the lowest coefficient
    of the minus product form is the one-boundary (B-type) edge: proportional
    to ``J_B[N - 1]`` and to the lowest coefficient of ``t_open_factorized``."""
    n = rep_deg.sites
    edge = trace_edges(_two_boundary_sandwich(rep_deg, "minus"), traced=False).low_coeff
    one_boundary = trace_edges(_open_sandwich(rep_deg, n), traced=False).low_coeff
    ratio = mat_proportional(edge, murphy(rep_deg, "B", n - 1))
    if mat_proportional(edge, one_boundary) is None:
        ratio = None
    return ratio_report("prop2/degeneration", ratio,
                        {"relation": "degenerate edge does not reduce"}, params=_echo(rep_deg))
