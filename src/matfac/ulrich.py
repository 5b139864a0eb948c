"""Maximal Cohen-Macaulay modules from sums of products.

A polynomial written as f = sum of N terms, each a product of d non-unit
factors, yields a reduced d-fold factorization of f: tensor together the
rank-one row factorizations (f_i1, ..., f_id).  The result has rank d^(N-1)
and every factor matrix has determinant +-f^(d^(N-2)); regrouping each row's
factors into k products first gives the k-fold analogue with rank k^(N-1).

Over the hypersurface ring R of f, the cokernel of any product of ell
consecutive factor matrices (1 <= ell <= d-1) is a maximal Cohen-Macaulay
module.  When the factorization is reduced, the presentation is minimal, so

    mu    = rank of the factorization          (minimal generators)
    rank  = exponent s in det(product) = +-f^s (needs f irreducible)
    e     = ord(f) * rank                      (multiplicity of a module
                                                over a hypersurface domain)

mu <= e always; equality is the Ulrich property, attained by taking the
number of factors per term equal to ord(f) and ell = 1.  Taking ell = 2
instead gives a module with mu/e = 1/2 sitting in a short exact sequence
between two Ulrich modules, so the Ulrich modules are not closed under
extensions unless R is regular.  When the rows are pairwise coprime
monomials in disjoint variables, the structure module certifies the tensor
strongly indecomposable, making the Ulrich modules indecomposable as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .cyclo import CycloElem
from .errors import MatfacError, Refusal
from .factorization import MatFac, PresentationMatrix
from .linalg import Matrix
from .rings import Polynomial, PolynomialRing
from .structure import (
    ConsequenceReport,
    StrongIndCert,
    coprime_rank_one_cert,
    propagate_strong_ind,
    strong_ind_consequences,
)
from .tensor import tensor


# -- sums of products -------------------------------------------------------------


@dataclass(frozen=True)
class SumOfProducts:
    """A target polynomial together with a way of writing it as a sum of
    products: f = sum over i of factors[i][0] * ... * factors[i][d-1].

    `partition`, when given, regroups each row's d factors into k blocks
    (one tuple of k index-tuples per row, every row the same k); the row
    factorization then has the k block products as its entries, in block
    order.  Rows may use different partitions but must agree on k.
    """

    ring: PolynomialRing
    f: Polynomial
    factors: tuple
    partition: tuple | None = None

    @property
    def n_terms(self) -> int:
        return len(self.factors)

    @property
    def d(self) -> int:
        return len(self.factors[0])

    @property
    def k(self) -> int:
        """Number of entries in each row factorization (d, or the partition's
        block count)."""
        if self.partition is None:
            return self.d
        return len(self.partition[0])

    def problems(self) -> list[str]:
        out = []
        if self.n_terms < 2:
            out.append(f"need at least 2 terms, got {self.n_terms}")
        if self.d < 2:
            out.append(f"need at least 2 factors per term, got {self.d}")
        if any(len(row) != self.d for row in self.factors):
            out.append("rows have unequal lengths")
            return out
        for row in self.factors:
            for g in row:
                if not g.constant_term().is_zero():
                    out.append(f"factor {g} is a unit (nonzero constant term)")
        if _sum_of_row_products(self.ring, self.factors) != self.f:
            out.append("the declared f is not the sum of the row products")
        if self.partition is not None:
            if len(self.partition) != self.n_terms:
                out.append("partition must have one grouping per row")
                return out
            k = self.k
            if k < 2:
                out.append(f"partition blocks per row must be >= 2, got {k}")
            for i, groups in enumerate(self.partition):
                if len(groups) != k:
                    out.append(f"row {i}: expected {k} blocks, got {len(groups)}")
                    continue
                seen: list[int] = []
                for g in groups:
                    if not g:
                        out.append(f"row {i}: empty partition block")
                    seen.extend(g)
                if sorted(seen) != list(range(self.d)):
                    out.append(
                        f"row {i}: partition blocks must cover indices 0..{self.d - 1} "
                        "exactly once"
                    )
        return out

    def row_factorization(self, i: int) -> MatFac:
        """The rank-one factorization of the i-th row product."""
        row = self.factors[i]
        one = self.ring.one()
        if self.partition is None:
            entries = list(row)
        else:
            entries = [math.prod((row[j] for j in group), start=one)
                       for group in self.partition[i]]
        f_i = math.prod(row, start=one)
        return MatFac(self.ring, f_i, [Matrix(self.ring, [[g]]) for g in entries])


def _sum_of_row_products(ring: PolynomialRing, factors) -> Polynomial:
    """f = sum over rows of the product of the row's factors."""
    return sum((math.prod(row, start=ring.one()) for row in factors), ring.zero())


def sum_of_products(ring: PolynomialRing, rows, partition=None) -> SumOfProducts:
    """Build a SumOfProducts with f computed as the sum of the row products."""
    factors = tuple(tuple(row) for row in rows)
    f = _sum_of_row_products(ring, factors)
    return SumOfProducts(ring=ring, f=f, factors=factors, partition=partition)


# -- building factorizations from sums ----------------------------------------------


def _signed_powers(f: Polynomial, s: int) -> tuple[Polynomial, Polynomial]:
    """(f^s, -f^s): the two values a determinant +-f^s can take."""
    power = f ** s
    return power, -power


@dataclass
class BuildReport:
    rank_expected: int
    rank_ok: bool
    validates: bool
    reduced: bool
    det_exponent: int
    det_signs: tuple[str, ...]  # one of "+", "-" per factor index 0..k-1

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.validates and self.reduced


def build_from_sum(spec: SumOfProducts, zeta: CycloElem | None = None):
    """Tensor the row factorizations of a sum of products into one
    factorization of f, and verify its rank and determinants.

    The result has rank k^(N-1) (k entries per row, N rows) and each factor
    matrix has determinant +-f^(k^(N-2)), both checked exactly.  zeta
    defaults to the first primitive k-th root of unity of the coefficient
    field; the field must contain one.

    Returns (factorization, report).
    """
    problems = spec.problems()
    if problems:
        raise MatfacError("malformed sum of products: " + "; ".join(problems))
    k = spec.k
    n_terms = spec.n_terms
    if zeta is None:
        zeta = spec.ring.field.root_of_unity(k, 1)
    x = spec.row_factorization(0)
    for i in range(1, n_terms):
        x = tensor(x, spec.row_factorization(i), zeta)
    rank_expected = k ** (n_terms - 1)
    det_exponent = k ** (n_terms - 2)
    plus, minus = _signed_powers(spec.f, det_exponent)
    signs = []
    for p in range(k):
        det = x.mats[p].det()
        if det == plus:
            signs.append("+")
        elif det == minus:
            signs.append("-")
        else:
            raise MatfacError(
                f"factor {p}: determinant is not +-f^{det_exponent} "
                "(hypothesis failure in the sum-of-products input)"
            )
    report = BuildReport(
        rank_expected=rank_expected,
        rank_ok=x.n == rank_expected,
        validates=x.validate().passed,
        reduced=x.is_reduced(),
        det_exponent=det_exponent,
        det_signs=tuple(signs),
    )
    return x, report


# -- module statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class ModuleStats:
    """Counts for the cokernel of a product of ell consecutive factors."""

    mu: int
    rank_R: int
    e_R: int
    ord_f: int
    ulrich: bool
    irreducible_asserted: bool
    note: str | None = None

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.mu, self.e_R)


def mcm_stats(
    x: MatFac, ell: int, irreducible: bool, start: int = 1
) -> ModuleStats:
    """Statistics of cok(phi_start ... phi_{start+ell-1}) over the
    hypersurface ring of f.

    mu is the rank of the factorization (the presentation is minimal because
    x is reduced); rank_R is the exponent s in det = +-f^s, read off the
    determinant and verified exactly; e_R = ord(f) * rank_R.  The exponent
    is only a module rank when f is irreducible, so the caller must pass
    irreducible=True (the assertion is recorded, not checked).
    """
    if not 1 <= ell <= x.d - 1:
        raise MatfacError(f"ell must be in 1..{x.d - 1}, got {ell}")
    if not irreducible:
        raise Refusal(
            "rank and multiplicity read the determinant exponent, which "
            "needs f irreducible; pass irreducible=True to assert it"
        )
    if not x.validate().passed:
        raise MatfacError("factorization does not validate")
    if not x.is_reduced():
        raise MatfacError(
            "minimal-generator count needs a reduced factorization"
        )
    pres = x.cokernel_presentation(start, ell)
    det = pres.det()
    if det.is_zero():
        raise MatfacError("presentation determinant is zero")
    deg_f = x.f.total_degree()
    deg_det = det.total_degree()
    if deg_f <= 0 or deg_det % deg_f:
        raise MatfacError("determinant is not a pure signed power of f")
    s = deg_det // deg_f
    if det not in _signed_powers(x.f, s):
        raise MatfacError("determinant is not a pure signed power of f")
    ord_f = x.f.order_of()
    e_r = ord_f * s
    return ModuleStats(
        mu=x.n,
        rank_R=s,
        e_R=e_r,
        ord_f=ord_f,
        ulrich=x.n == e_r,
        irreducible_asserted=irreducible,
    )


# -- the Ulrich constructions ----------------------------------------------------------


def build_ulrich(spec: SumOfProducts, zeta: CycloElem | None = None):
    """Presentation of an Ulrich module: build the tensor factorization and
    take the cokernel of a single factor.

    Calling this asserts that f is irreducible.  The Ulrich guarantee needs
    the number of entries per row to equal ord(f); when it does not, the
    presentation and statistics are still returned, with a note recording
    that only the MCM claims survive.

    Returns (presentation, stats).
    """
    x, report = build_from_sum(spec, zeta)
    if not report.passed:
        raise MatfacError("sum-of-products build failed verification")
    stats = mcm_stats(x, 1, irreducible=True)
    if spec.k != stats.ord_f:
        stats = replace(stats, note=(
            f"entries per row ({spec.k}) differ from ord(f) = {stats.ord_f}; "
            "the Ulrich guarantee does not apply, MCM statistics only"
        ))
    return x.cokernel_presentation(1, 1), stats


@dataclass
class ExtensionSES:
    """A short exact sequence 0 -> L -> M -> N -> 0 of cokernels.

    L = cok(phi_{start+1}), N = cok(phi_start), M = cok(phi_start phi_{start+1});
    the witness identity m.matrix == phi_start @ phi_{start+1} is the
    commuting square connecting the two resolutions.
    """

    l: PresentationMatrix
    m: PresentationMatrix
    n: PresentationMatrix
    l_stats: ModuleStats
    m_stats: ModuleStats
    n_stats: ModuleStats
    squares_commute: bool

    @property
    def passed(self) -> bool:
        return self.squares_commute


def extension_ses(x: MatFac, start: int = 1) -> ExtensionSES:
    """The extension 0 -> L -> M -> N -> 0 witnessing that Ulrich modules
    are not closed under extensions.

    Needs d >= 3 so that the middle module uses two consecutive factors with
    ell = 2 <= d - 1.  On a build with entries-per-row = ord(f), L and N are
    Ulrich and M has mu/e = 1/2.  Calling this asserts f irreducible.
    """
    if x.d < 3:
        raise MatfacError(
            "extension sequence needs d >= 3 (the middle cokernel uses two "
            "consecutive factors, and ell must stay below d)"
        )
    if not x.validate().passed:
        raise MatfacError("factorization does not validate")
    if x.f.order_of() < 2:
        raise MatfacError("f must have order at least 2 (else R is regular)")
    l = x.cokernel_presentation(start + 1, 1)
    n = x.cokernel_presentation(start, 1)
    m = x.cokernel_presentation(start, 2)
    squares = m.matrix == x.phi(start) @ x.phi(start + 1)
    return ExtensionSES(
        l=l,
        m=m,
        n=n,
        l_stats=mcm_stats(x, 1, irreducible=True, start=start + 1),
        m_stats=mcm_stats(x, 2, irreducible=True, start=start),
        n_stats=mcm_stats(x, 1, irreducible=True, start=start),
        squares_commute=squares,
    )


@dataclass
class UlrichBuild:
    """An indecomposable MCM presentation with its certificate and counts."""

    presentation: PresentationMatrix
    certificate: StrongIndCert
    stats: ModuleStats
    consequences: ConsequenceReport
    uc_bound: int
    uc_note: str


def indecomposable_ulrich(spec: SumOfProducts, zeta: CycloElem | None = None) -> UlrichBuild:
    """Build an indecomposable MCM module from a sum of coprime monomial
    products in pairwise disjoint variables.

    Each row must give a rank-one factorization with pairwise coprime
    monomial entries (certified, refusal propagates); distinct rows must use
    disjoint variables (checked by the propagation step).  The cokernel of
    any single factor of the certified tensor is then indecomposable; it is
    Ulrich exactly when the entries-per-row count equals ord(f).  Calling
    this asserts f irreducible.  The rank of the presentation also bounds
    the Ulrich complexity of f from above; whether anything smaller is
    possible cannot be seen from this construction alone.
    """
    problems = spec.problems()
    if problems:
        raise MatfacError("malformed sum of products: " + "; ".join(problems))
    if zeta is None:
        zeta = spec.ring.field.root_of_unity(spec.k, 1)
    cert = coprime_rank_one_cert(spec.row_factorization(0))
    for i in range(1, spec.n_terms):
        cert = propagate_strong_ind(
            cert, coprime_rank_one_cert(spec.row_factorization(i)), zeta
        )
    # Continue with the direct build, equal to the certified tensor as data:
    # its factors already carry their determinants from build_from_sum.
    x = build_from_sum(spec, zeta)[0]
    if x != cert.subject:
        raise MatfacError("certified tensor differs from the direct build")
    stats = mcm_stats(x, 1, irreducible=True)
    if spec.k != stats.ord_f:
        stats = replace(stats, note=(
            f"entries per row ({spec.k}) differ from ord(f) = {stats.ord_f}; "
            "indecomposable MCM claims only, not Ulrich"
        ))
    consequences = strong_ind_consequences(cert)
    uc_bound = spec.k ** (spec.n_terms - 2)
    return UlrichBuild(
        presentation=x.cokernel_presentation(1, 1),
        certificate=cert,
        stats=stats,
        consequences=consequences,
        uc_bound=uc_bound,
        uc_note=(
            f"Ulrich complexity of f is at most {uc_bound}: this construction "
            "realizes that rank, and nothing smaller can come out of it"
        ),
    )
