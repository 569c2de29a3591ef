"""Double-row transfer matrices and the Murphy-element edge extraction.

Both boundary conditions build Sklyanin's double row
``tr_0 A R_0N..R_01 K- R_01..R_0N`` one way, only on the sites each product
touches: a double row grows inside out from ``K-``, one site per step
(``_grow``), and one contraction of the middle's auxiliary blocks with the
outermost pair closes the trace (``tensor.trace_sandwich``).  Every bulk
``R`` is ``baxter.r_local`` embedded where it acts; on the (auxiliary,
site) pair it is ``baxter._r_aux``.

One-boundary mode: the open transfer matrix with a single nontrivial left
boundary, with an inhomogeneity at the last dressed site.  At the diagonal
evaluation point it factorizes into a bulk sandwich around the boundary
matrix, the one double row a chain grows; the middle of the direct trace is
that sandwich relabelled (``R_0k = P_0k r_hat_0k``), and the direct trace
is compared against the factorized form up to a monomial.
``OneBoundaryChain`` builds what the one-boundary checks share once; its
boundary is fixed when it is built (``trivial_k`` switches ``K-`` off for
the A-type corollary).

Two-boundary mode: a single dressed double-row family ``T(u; v)`` with the
calibrated dual boundary operator under the trace.  Evaluated along the
inhomogeneity lattice ``u = v^p`` it telescopes: the lowest expansion
coefficient is the Murphy element ``J_C[p - 1]`` of the two-boundary family
for ``p = 1..N``, and its inverse at ``-p``.  Every factor is built once in
a formal ``u``, embedded where it acts, and re-keyed at its argument
(``PolyMatrix.compose_power``); the pair at site ``k`` sits at ``v^(p+-k)``.
Every two-boundary claim reads expansion edges only, from one exact
truncated-product routine (``_window_edges``) whose products form only the
degrees it keeps: the lattice members of ``TwoBoundaryLattice`` (the
growth, ``_member``) and the factorized product forms (site-space chains).
The full member, ``t_two_boundary_direct``, is the same growth with no
window.  The degenerate minus form is compared with the one-boundary bulk
sandwich of ``OneBoundaryChain.factorized``.  Every check takes the Murphy
elements it compares against from the caller's shared towers
(``hecke.murphy_tower``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

from .baxter import (BaxterKit, _aux_kernel, _aux_trace, _r_aux, k_bar_plus_hat,
                     k_minus_hat, r_hat, r_local)
from .errors import (ConditionFailure, DimensionMismatch, InternalMismatch,
                     SpanFailure)
from .hecke import HeckeRep, _echo
from .rings import LaurentPoly, Rational, rat, rat_str
from .reporting import CheckReport, entry_failure, failed, passed, ratio_report
from .tensor import (PolyMatrix, aux_blocks, commutes, embed_pair, embed_site,
                     flip_indices, kron, mat_proportional, nullspace, numerator_rows,
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


# ---------------------------------------------------------------------------
# one-boundary pipeline
# ---------------------------------------------------------------------------

def aux_trace_scalar(rep: HeckeRep) -> LaurentPoly | None:
    """Nonzero scalar ``f`` with ``tr_aux{(M (x) I) * (g - w g^-1)} = f(w) I``
    for the site-first embedded bulk generator, or None when there is none."""
    tr = _aux_trace(rep.m_local, _aux_kernel(rep, LaurentPoly.unit(1)))
    return mat_proportional(tr, PolyMatrix.identity((rep.local_dim,)))


def _grow(seed: PolyMatrix, pairs, *, lo: int | None = None,
          hi: int | None = None) -> PolyMatrix:
    """``X -> L (X (x) I) R`` for each pair ``(L, R)`` in turn, inside out:
    each step appends one factor to the layout, and its ``L`` and ``R`` are
    already embedded on the factors built so far (``_at``).  Every product
    keeps only the degrees ``lo..hi`` (a bound left out is open)."""
    acc = seed
    for left, right in pairs:
        acc = kron(acc, PolyMatrix.identity(left.layout[-1:]))
        acc = left._matmul(acc, lo=lo, hi=hi)._matmul(right, lo=lo, hi=hi)
    return acc


def _at(op: PolyMatrix, i: int, k: int) -> PolyMatrix:
    """The two-factor ``op`` on the factors (``i``, ``k``) of the layout that
    growth step ``k`` acts on: ``k + 1`` factors of ``op``'s local dimension."""
    return embed_pair(op, i, k, op.layout[:1] * (k + 1))


@dataclass
class OneBoundaryResult:
    matrix: PolyMatrix            # factorized form on the full site space
    internal_ratio: LaurentPoly | None  # direct / (f * factorized), a monomial


@dataclass
class HamiltonianResult:
    matrix: PolyMatrix
    coefficients: dict[str, Rational]


class OneBoundaryChain:
    """The open transfer matrix ``t(u; u0) = tr_0 M_0 R_0n..R_01 K-_0 R_01..R_0n``
    (Sklyanin's double row) of one representation on ``n`` sites, with the
    inhomogeneity ``u0`` at site ``n``, and the one-boundary checks on it.
    With ``trivial_k`` the boundary ``K-`` is the identity: the A-type chain
    of the corollary.

    What the checks share is built once, on first use: the auxiliary scalar,
    the one double row the chain grows, the bulk sandwich
    ``R_n-1..R_1 K- R_1..R_n-1`` (``R_k = r_hat(k)``), and the auxiliary
    blocks of the middle ``R_0,n-1(u)..R_01(u) K-_0(u) R_01(u)..R_0,n-1(u)``,
    its relabel, which no ``u0`` touches.  The middle lives on (auxiliary,
    site_1..site_n-1) only; a direct trace closes it with the pair at site
    ``n`` (``trace_sandwich``).
    """

    def __init__(self, rep: HeckeRep, n: int, trivial_k: bool = False):
        if not 1 <= n <= rep.sites:
            raise DimensionMismatch(f"n={n} outside 1..{rep.sites}")
        self.rep = rep
        self.n = n
        self.trivial_k = trivial_k
        self._twist = embed_site(rep.m_local, 0, (rep.local_dim,) * 2)

    @cached_property
    def aux_scalar(self) -> LaurentPoly | None:
        return aux_trace_scalar(self.rep)

    @cached_property
    def _sandwich(self) -> PolyMatrix:
        """The bulk sandwich on the ``n`` sites, grown from ``K-`` (or the
        identity) on site 1 with the pair at sites (k - 1, k)."""
        rep, pair = self.rep, r_local(self.rep, LaurentPoly.unit(1))
        seed = PolyMatrix.identity((rep.local_dim,)) if self.trivial_k else k_minus_hat(rep)
        return _grow(seed, [(_at(pair, k - 1, k),) * 2 for k in range(1, self.n)])

    @cached_property
    def factorized(self) -> PolyMatrix:
        """The bulk sandwich on all sites, the identity after site ``n``.
        Entries are polynomial of total degree exactly ``2n`` (``2n - 2``
        with the boundary off)."""
        pad = (self.rep.local_dim,) * (self.rep.sites - self.n)
        return kron(self._sandwich, PolyMatrix.identity(pad)) if pad else self._sandwich

    def middle(self) -> PolyMatrix:
        """``R_0,n-1(u)..R_01(u) K-_0(u) R_01(u)..R_0,n-1(u)`` on (auxiliary,
        site_1..site_n-1), not grown: as ``R_0k = P_0k r_hat_0k``, it is the
        bulk sandwich conjugated by ``P_0,n-1 .. P_01``, one relabel by the
        flips composed (``k = 1`` first)."""
        perm, layout = range(self._sandwich.dim), self._sandwich.layout
        for k in range(1, self.n):
            flip = flip_indices(0, k, layout)
            perm = [flip[i] for i in perm]
        return self._sandwich.relabel(rows=perm, cols=perm)

    @cached_property
    def _blocks(self) -> dict[tuple[int, int], PolyMatrix]:
        return aux_blocks(self.middle())

    def direct(self, u0: Rational | LaurentPoly) -> PolyMatrix:
        """The direct trace with formal argument ``u``: ``u * u0`` left and
        ``u / u0`` right of the middle at site ``n``.  ``u0`` is a rational, or
        the formal ``u`` itself for the diagonal point (``u^2`` and ``1``)."""
        u = LaurentPoly.unit(1)
        u0 = LaurentPoly.const(1) * u0
        return trace_sandwich(self._twist * _r_aux(self.rep, u * u0, True), self._blocks,
                              _r_aux(self.rep, u * u0.invert_unit(), False))

    def _params(self) -> dict[str, str]:
        echo = _echo(self.rep)
        echo["n"] = str(self.n)
        return echo

    def check_aux_trace(self) -> CheckReport:
        """The quantum-trace requirement gating the one-boundary factorization."""
        f = self.aux_scalar
        if f is None:
            tr = _aux_trace(self.rep.m_local, _aux_kernel(self.rep, LaurentPoly.unit(1)))
            return failed("transfer/aux-trace", params=self._params(), failure=entry_failure(tr))
        return passed("transfer/aux-trace", params=self._params(), ratio=str(f))

    def build(self) -> OneBoundaryResult:
        """Factorized diagonal-point transfer matrix with its side condition,
        cross-checked against the direct trace.

        Raises ConditionFailure when the quantum-trace requirement fails and
        InternalMismatch when the two constructions disagree beyond a monomial.
        """
        f = self.aux_scalar
        if f is None:
            raise ConditionFailure("auxiliary quantum trace is not scalar")
        rep, n = self.rep, self.n
        matrix = self.factorized
        direct = self.direct(LaurentPoly.unit(1))
        if n < rep.sites:   # the factorized form is the identity on the other sites
            direct = kron(direct, PolyMatrix.identity((rep.local_dim,) * (rep.sites - n)))
        ratio = mat_proportional(direct, matrix.scale(f.compose_power(2)))
        if ratio is None:
            raise InternalMismatch("direct and factorized constructions disagree")
        if not ratio.is_single_term:
            raise InternalMismatch(f"non-monomial internal ratio {ratio}")
        return OneBoundaryResult(matrix=matrix, internal_ratio=ratio)

    def murphy_edges(self, element: PolyMatrix, element_inv: PolyMatrix) -> list[CheckReport]:
        """Edge coefficients of the expansion against ``element``, the Murphy
        element ``J[n - 1]`` of the B-type (or, with the boundary off, A-type)
        family, and its inverse ``element_inv``."""
        n = self.n
        echo = self._params()
        tag = "corollary" if self.trivial_k else "prop1"
        out = []
        try:
            result = self.build()
        except (ConditionFailure, InternalMismatch) as exc:
            return [failed(f"{tag}/build[n={n}]", params=echo, failure={"relation": str(exc)})]
        edges = extract_edges(result.matrix)
        expected_span = 2 * (n - 1) if self.trivial_k else 2 * n
        span_ok = edges.low_deg == 0 and edges.high_deg == expected_span
        degs = f"[{edges.low_deg}, {edges.high_deg}]"
        if not span_ok:
            out.append(failed(f"{tag}/degree-span[n={n}]", params=echo,
                              failure={"span": degs, "expected": f"[0, {expected_span}]"}))
        else:
            out.append(passed(f"{tag}/degree-span[n={n}]", params=echo, degrees=degs))

        out.append(ratio_report(
            f"{tag}/low-edge[n={n}]", mat_proportional(edges.low_coeff, element),
            {"relation": "low edge not proportional to Murphy element"}, params=echo))
        out.append(ratio_report(
            f"{tag}/high-edge[n={n}]", mat_proportional(edges.high_coeff, element_inv),
            {"relation": "high edge not proportional to inverse element"}, params=echo))
        return out

    def hamiltonian(self) -> HamiltonianResult:
        """First derivative of the factorized transfer matrix at the unit
        point, in the span of the identity, the bulk generators and the left
        boundary generator.

        One exact nullspace of the whole entrywise system
        ``sum_i y_i N_i + y_h N_h = 0`` on the integer numerators
        (``tensor.numerator_rows``) certifies the span: ``h`` is in it
        exactly when ``h``'s column is free, and that column's null vector
        (``y_h = 1``) gives ``c_i = -y_i den_i / den_h``, the reduced-echelon
        solution with the free coefficients zero.
        """
        rep, n = self.rep, self.n
        if n < 2:
            raise DimensionMismatch("the Hamiltonian needs at least two sites")
        h = self.factorized.derivative_at_one()
        names = ["identity", *(f"g[{i}]" for i in range(1, n)), "g[0]"]
        basis = [PolyMatrix.identity(h.layout), *(rep.braid[i] for i in range(1, n)), rep.b0]
        y = next((v for v in nullspace(numerator_rows([*basis, h])) if v[-1]), None)
        if y is None:
            raise SpanFailure("derivative is not in the generator span")
        sol = [-x * b.den / h.den for x, b in zip(y, basis)]
        return HamiltonianResult(matrix=h, coefficients=dict(zip(names, sol)))

    def check_hamiltonian(self) -> list[CheckReport]:
        """Span certificate plus commutation with the homogeneous direct family
        ``T(u) = sum_k u^k C_k`` for every ``u``, decided on the whole family:
        ``h`` is constant, so ``[h, T(u)]`` has the coefficients ``[h, C_k]``."""
        echo = self._params()
        out = []
        try:
            res = self.hamiltonian()
        except SpanFailure as exc:
            return [failed("hamiltonian/span", params=echo, failure={"relation": str(exc)})]
        desc = " ".join(f"{k}={rat_str(v)}" for k, v in sorted(res.coefficients.items()))
        out.append(passed("hamiltonian/span", params=echo, ratio=desc))

        h, family = res.matrix, self.direct(rat(1))
        if commutes(h, family):
            out.append(passed("hamiltonian/commutes", params=echo))
        else:
            out.append(failed("hamiltonian/commutes", params=echo,
                              failure=entry_failure(h * family - family * h)))
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
            if not commutes(a, b):
                return failed("integrability/commuting-family", params=echo,
                              failure={"specialization": f"({rat_str(r1)},{rat_str(r2)})"})
        return passed("integrability/commuting-family", params=echo)


# One-shot forms on a throwaway chain: the bulk sandwich that ``dump``
# prints, and the two the benchmark's oracle calls (perfbench/worker.py).

def t_open_factorized(rep: HeckeRep, n: int, *, trivial_k: bool = False) -> PolyMatrix:
    """``OneBoundaryChain.factorized`` of a throwaway chain on ``n`` sites."""
    return OneBoundaryChain(rep, n, trivial_k).factorized


def t_open_inhomogeneous(rep: HeckeRep, n: int, u0: Rational | LaurentPoly) -> PolyMatrix:
    """Direct trace on ``n`` sites with formal argument ``u`` and the
    inhomogeneity ``u0`` at the last site (``OneBoundaryChain.direct``)."""
    return OneBoundaryChain(rep, n).direct(u0)


def build_t_one_boundary(rep: HeckeRep, n: int, *, trivial_k: bool = False,
                         cross_check: bool = True) -> OneBoundaryResult:
    chain = OneBoundaryChain(rep, n, trivial_k)
    if cross_check or chain.aux_scalar is None:   # build raises on the latter
        return chain.build()
    return OneBoundaryResult(matrix=chain.factorized, internal_ratio=None)


# ---------------------------------------------------------------------------
# two-boundary pipeline
# ---------------------------------------------------------------------------

def t_two_boundary_direct(rep: HeckeRep, kit: BaxterKit, p: int) -> PolyMatrix:
    """The dressed family member ``T(u = v^p; v)`` as a full Laurent matrix:
    the lattice's growth (``_member``) with no window.

    The calibrated dual operator (twist included) leads the trace; the left
    boundary is dressed by the full inhomogeneity lattice.
    """
    return _member(TwoBoundaryLattice(rep, kit).factors(p))


def _member(factors: list[PolyMatrix], lo: int | None = None,
            hi: int | None = None) -> PolyMatrix:
    """``tr_0[A L_N (mid (x) I) R_N]`` from the factors ``[A, L_N, K-, R_N,
    L_1, R_1, .., L_N-1, R_N-1]`` (``TwoBoundaryLattice.factors``): the
    middle grown from ``K-`` on the auxiliary space with the pairs
    ``(L_k, R_k)``, closed by one contraction (``trace_sandwich``), every
    product in the degrees ``lo..hi``."""
    lead, left, seed, right, *pairs = factors
    mid = _grow(seed, zip(pairs[::2], pairs[1::2]), lo=lo, hi=hi)
    return trace_sandwich(lead._matmul(left, lo=lo, hi=hi), aux_blocks(mid), right,
                          lo=lo, hi=hi)


def _chain(factors: list[PolyMatrix], lo: int | None = None,
           hi: int | None = None) -> PolyMatrix:
    """``F_1 ... F_m``, every product in the degrees ``lo..hi``."""
    return reduce(lambda x, f: x._matmul(f, lo=lo, hi=hi), factors)


def trace_edges(factors: list[PolyMatrix]) -> ExpansionEdge:
    """Expansion edges of the site-space product ``F_1 ... F_m``
    (``_window_edges``)."""
    return _window_edges(factors, _chain)


def _window_edges(factors: list[PolyMatrix], product) -> ExpansionEdge:
    """Expansion edges of ``product(factors, lo, hi)``, a product of the
    factors (a chain, ``_chain``, or a lattice member, ``_member``) with
    every partial product in the degrees ``lo..hi``, from exact truncated
    products; equal to ``extract_edges`` of the full product, which is never
    formed.

    For the lowest term every factor is re-keyed by a power of ``u`` so that
    its lowest degree is 0 (for the highest term its highest degree), which
    shifts the product by the sum of the powers.  The re-keyed factors are
    polynomials in ``u`` (in ``u^-1``), truncation mod ``u^W`` is a ring map
    and the trace is linear, so forming every partial product only in the
    degrees ``[0, W - 1]`` (``[1 - W, 0]``) leaves the product's terms there
    exact.  ``W`` doubles while they are zero; once it covers the whole
    degree span nothing is dropped, and zero means zero.
    """
    if any(f.is_zero for f in factors):
        raise DimensionMismatch("cannot extract edges of the zero matrix")
    span = sum(f.max_degree() - f.min_degree() for f in factors)

    def edge(low: bool) -> tuple[int, PolyMatrix]:
        shifts = [f.min_degree() if low else f.max_degree() for f in factors]
        shifted = [f.shift(-s) for f, s in zip(factors, shifts)]
        w = 1
        while True:
            x = product(shifted, *((0, w - 1) if low else (1 - w, 0)))
            if not x.is_zero:
                deg = x.min_degree() if low else x.max_degree()
                return deg + sum(shifts), x.coefficient(deg)
            if w > span:
                raise DimensionMismatch("cannot extract edges of the zero matrix")
            w *= 2

    return ExpansionEdge(*edge(True), *edge(False))


class TwoBoundaryLattice:
    """Expansion edges of the dressed family ``T(u = v^p; v)`` of one
    representation and kit along the inhomogeneity lattice, each ``p``
    evaluated once.  Only the edges are computed (``_window_edges`` of
    ``_member``); the full matrix is ``t_two_boundary_direct``, the same
    growth with no window.

    The factors of ``T(u; v)`` are built once in a formal ``u``, each
    already embedded on the layout it acts on and kept with the shift ``s``
    of its argument ``v^(p+s)``: the calibrated dual operator (twist
    included) leads on the (auxiliary, site_N) pair and ``K-`` seeds the
    middle on the auxiliary space, both at ``v^p``; the pair at site ``k``
    takes ``v^(p+k)`` left of the middle (the flip on its rows) and
    ``v^(p-k)`` right of it (on its columns), on (auxiliary, site_1..site_k)
    for ``k < N`` and on the (auxiliary, site_N) pair for ``k = N``.
    """

    def __init__(self, rep: HeckeRep, kit: BaxterKit):
        self.rep = rep
        n, u = rep.sites, LaurentPoly.unit(1)
        left, right = _r_aux(rep, u, True), _r_aux(rep, u, False)
        self._formal = [(embed_site(kit.aplus_at(u), 0, left.layout), 0), (left, n),
                        (k_minus_hat(rep), 0), (right, -n),
                        *((_at(f, 0, k), s * k) for k in range(1, n)
                          for f, s in ((left, 1), (right, -1)))]
        self._edges: dict[int, ExpansionEdge] = {}

    def factors(self, p: int) -> list[PolyMatrix]:
        """The factors of ``T(u = v^p; v)`` in ``_member``'s order: the
        formal ones at ``u = v^(p+s)``."""
        return [f.compose_power(p + s) for f, s in self._formal]

    def edges(self, p: int) -> ExpansionEdge:
        if p not in self._edges:
            self._edges[p] = _window_edges(self.factors(p), _member)
        return self._edges[p]


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
        # g_i^-1 - w g_i == -w R_i(w^-1) at w = u^(i+2)
        minus_u = LaurentPoly.unit(1, -1)
        factors = [*((r_hat(rep, i, LaurentPoly.unit(-1)).scale(minus_u), i + 2)
                     for i in range(1, n)),
                   (kplus, 1), *((bulk[i], n - i) for i in range(n - 1, 0, -1)), (kminus, 1)]
    return [f.compose_power(e) for f, e in factors]


def t_two_boundary_factorized(rep: HeckeRep, mode: str) -> PolyMatrix:
    """The telescoped product forms of the two-boundary transfer matrices."""
    return reduce(mul, _two_boundary_sandwich(rep, mode))


def _lattice_report(lattice: TwoBoundaryLattice, tower: list[PolyMatrix],
                    tower_inv: list[PolyMatrix], name: str, p: int, params: dict,
                    *, named: bool = False) -> CheckReport:
    """The lowest coefficient of ``T(u = v^p; v)`` against ``J_C[|p| - 1]``
    of the C ``tower`` (its inverse, from ``tower_inv``, for ``p < 0``);
    with ``named`` a passing report's note names the element."""
    k, inverse = abs(p) - 1, p < 0
    element = f"J_C[{k}]" + ("^-1" if inverse else "")
    edges = lattice.edges(p)
    return ratio_report(
        name, mat_proportional(edges.low_coeff, (tower_inv if inverse else tower)[k]),
        {"relation": "low edge not proportional", "low_deg": edges.low_deg,
         "element": element},
        params=params, degrees=f"[{edges.low_deg}, {edges.high_deg}]",
        note=f"low~{element}" if named else None)


def verify_murphy_two_boundary(lattice: TwoBoundaryLattice, tower: list[PolyMatrix],
                               tower_inv: list[PolyMatrix]) -> list[CheckReport]:
    """Prop 2: the four boundary lattice points ``p = +-N, +-1`` against the
    last and the zeroth Murphy element of the C ``tower`` and their inverses
    (``tower_inv``)."""
    echo = _echo(lattice.rep)
    n = lattice.rep.sites
    return [_lattice_report(lattice, tower, tower_inv, f"prop2/{name}", p, echo)
            for name, p in (("minus", n), ("minus-opposite", -n),
                            ("plus", 1), ("plus-opposite", -1))]


def explore_generic(lattice: TwoBoundaryLattice, n: int, tower: list[PolyMatrix],
                    tower_inv: list[PolyMatrix]) -> list[CheckReport]:
    """The lattice theorem at ``u = v^(+-n)``: the lowest coefficient is
    ``J_C[n - 1]`` of the C ``tower`` at ``p = n`` and its inverse (from
    ``tower_inv``) at ``p = -n``."""
    echo = _echo(lattice.rep)
    echo["n"] = str(n)
    return [_lattice_report(lattice, tower, tower_inv, f"explore/lattice[p={p}]", p,
                            echo, named=True)
            for p in (n, -n)]


def check_factorized(lattice: TwoBoundaryLattice) -> list[CheckReport]:
    """Both expansion edges of the minus and plus product forms against those
    of the dressed family at ``p = N`` and ``p = 1``, read from the lattice."""
    rep = lattice.rep
    echo = _echo(rep)
    out = []
    for mode, p in (("minus", rep.sites), ("plus", 1)):
        fac = trace_edges(_two_boundary_sandwich(rep, mode))
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


def check_degeneration(rep_deg: HeckeRep, chain: OneBoundaryChain,
                       element: PolyMatrix) -> CheckReport:
    """With the right boundary collapsed to a scalar, the lowest coefficient
    of the minus product form is the one-boundary (B-type) edge: proportional
    to ``element``, the Murphy element ``J_B[N - 1]``, and to the lowest
    coefficient of the bulk sandwich ``chain.factorized`` that ``prop1``
    reads, which no right boundary enters.  ``chain`` spans all ``N`` sites.
    No B-type word contains ``gN``, so ``J_B[N - 1]`` of the representation
    before the collapse serves ``rep_deg``."""
    edge = trace_edges(_two_boundary_sandwich(rep_deg, "minus")).low_coeff
    ratio = mat_proportional(edge, element)
    if mat_proportional(edge, extract_edges(chain.factorized).low_coeff) is None:
        ratio = None
    return ratio_report("prop2/degeneration", ratio,
                        {"relation": "degenerate edge does not reduce"}, params=_echo(rep_deg))
