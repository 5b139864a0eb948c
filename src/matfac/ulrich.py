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

Every build is verified once, whichever route made it: rank and the factor
determinants, each compared with the tensor determinant law of the last
step, (-1)^(s(k+1)) f^s with s = k^(N-2), as the pair
(sign, s) that `Matrix.det_as_power(f)` answers without expanding f^s.
Every cokernel's statistics, for every ell, are read one way
(`_cokernel_stats`) from that answer for its presentation; for a single
factor of a build it is read from the determinant the verification read,
kept on the matrix.  Validation is not recomputed: each tensor carries
the verdict the tensor theorem gives it (see `tensor.tensor`), from
validated operands and a primitive twist, and reducedness is proved, not
walked: the spec check refuses every unit factor before any tensor is
built, and a tensor's entries are its operands' entries times roots of
unity (`_verify_build`).  The rank is read from the built matrices; each
determinant is read off its factor (the diagonal scalars) together with
the product of the cyclic blocks that the last tensor step recorded,
f_x * I, which its left operand's validation certifies.  So the
determinants rest on that validation, which Yoshino's theorem derives,
step by step, from the rows' computed validations.  A failed check raises
MatfacError rather than returning a failing report.
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
from .tensor import TensorMatFac, _det_law, tensor


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
            if not self.factors:  # no row to read d from
                return out
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


@dataclass
class BuildReport:
    """What the verification of a sum-of-products build checked.  A build
    that fails a check raises instead, so a returned report has passed."""

    rank_expected: int
    rank_ok: bool
    validates: bool
    reduced: bool
    det_exponent: int
    det_signs: tuple[str, ...]  # the law's sign, "+" or "-", per factor index 0..k-1

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.validates and self.reduced


def _checked_zeta(spec: SumOfProducts, zeta: CycloElem | None) -> CycloElem:
    """Reject a malformed spec; default zeta to the field's first primitive
    k-th root of unity."""
    problems = spec.problems()
    if problems:
        raise MatfacError("malformed sum of products: " + "; ".join(problems))
    return spec.ring.field.root_of_unity(spec.k, 1) if zeta is None else zeta


def _verify_build(spec: SumOfProducts, x: TensorMatFac) -> BuildReport:
    """Check the tensor built from spec: rank k^(N-1) and every factor's
    determinant against the tensor determinant law of its last step,
    +-f^(k^(N-2)) with the law's sign; its reducedness is proved, not
    walked.  The rank is read off the matrices.  Each determinant is read
    as g^n from the factor's own diagonal scalars and the product of its
    cyclic blocks that `tensor` recorded, f_x * I, so it rests on the
    validation of the last step's left operand, which Yoshino's theorem
    derives from the rows' computed validations; x's own validation is the
    verdict it carries from `tensor`, read, not recomputed.
    Each factor passes when `det_as_power(f)` gives the law's pair: a
    factor whose determinant is read as g^n is decided by g = +-f, without
    f^n being expanded.  Raises MatfacError on any failure, naming the factor
    and what its determinant was found to be.

    Lemma: x is reduced.  `_checked_zeta` refuses, before any tensor is
    built, a spec with a factor whose constant term is nonzero
    (`SumOfProducts.problems`), so every entry of a row factorization, a
    factor or a product of factors of one partition block, vanishes at the
    origin.  Every entry of a slot of a tensor X (x) Y is an entry of a
    factor of X (a cyclic block kron(phi, I)) or a root of unity times an
    entry of a factor of Y (a diagonal block zeta^I kron(I, psi)), so each
    tensor step keeps the entries' constant terms zero, and x, built from
    the rows by such steps, is reduced."""
    rank = spec.k ** (spec.n_terms - 1)
    validates = x.validate().passed
    if x.n != rank or not validates:
        raise MatfacError(
            f"sum-of-products build failed verification: rank {x.n} "
            f"(expected {rank}), validates={validates}"
        )
    det_exponent = spec.k ** (spec.n_terms - 2)
    law = _det_law(x)
    for p, m in enumerate(x.mats):
        power = m.det_as_power(x.f)
        if power != law:
            found = ("no signed power of f" if power is None else
                     f"found {'-' if power[0] < 0 else ''}f^{power[1]}")
            raise MatfacError(
                f"factor {p}: determinant is not +-f^{det_exponent}: {found} "
                "(hypothesis failure in the sum-of-products input)"
            )
    return BuildReport(rank_expected=rank, rank_ok=True, validates=True, reduced=True,
                       det_exponent=det_exponent,
                       det_signs=("+" if law[0] == 1 else "-",) * x.d)


def build_from_sum(spec: SumOfProducts, zeta: CycloElem | None = None):
    """Tensor the row factorizations of a sum of products into one
    factorization of f, and verify its rank and determinants.

    The result has rank k^(N-1) (k entries per row, N rows) and each factor
    matrix has determinant (-1)^(s(k+1)) f^s, s = k^(N-2), by the tensor
    determinant law of the last step; both are checked exactly, and a
    failed check raises MatfacError.  Reducedness follows from the spec
    check, which refuses a unit factor before anything is built (the lemma
    of `_verify_build`), and is not walked.  Validation is
    carried: each row factorization is validated (rank one, d products of
    1x1 matrices) when it is tensored, and each tensor derives its own
    report from the tensor theorem, so no cyclic product of the
    rank-k^(N-1) factors is formed.
    Each step tensors with a rank-one row factorization, so every factor is
    block-cyclic: its determinant is read, without elimination or any block
    product, as g^s, with g read from the factor's diagonal
    scalars and the product of its cyclic blocks that the last step
    recorded, f_x * I, and compared with the law as factors (g = +-f with
    the sign (-1)^s accounted for), so f^s is never expanded.  The
    determinants therefore rest on the last step's left operand's
    validation, derived by Yoshino's theorem from the rows' computed
    validations; the cost lies in the tensor products.  zeta
    defaults to the first primitive k-th root of unity of the coefficient
    field; the field must contain one.

    Returns (factorization, report); the report records the checks passed.
    """
    zeta = _checked_zeta(spec, zeta)
    x = spec.row_factorization(0)
    for i in range(1, spec.n_terms):
        x = tensor(x, spec.row_factorization(i), zeta)
    return x, _verify_build(spec, x)


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
    x is reduced); rank_R is the exponent s in det = +-f^s, as
    `Matrix.det_as_power` answers it (`_cokernel_stats`); e_R =
    ord(f) * rank_R.  The exponent is only a module rank when f is
    irreducible, so the caller must pass irreducible=True (the assertion is
    recorded, not checked).
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
    _require_reduced(x)
    return _cokernel_stats(x, x.cokernel_presentation(start, ell))


def _require_reduced(x: MatFac) -> None:
    """Raise unless x is reduced, which makes its cokernel presentations
    minimal."""
    if not x.is_reduced():
        raise MatfacError(
            "minimal-generator count needs a reduced factorization"
        )


def _cokernel_stats(x: MatFac, pres: PresentationMatrix) -> ModuleStats:
    """Stats of cok(pres), pres a product of consecutive factors of the
    validated, reduced x: s is the exponent in det(pres) = +-f^s, as
    `Matrix.det_as_power` answers it (one factor, whose determinant a build
    has read already, is decided by its factors; a product of two is
    eliminated).
    With f != 0 the determinant of a validated x's presentation is nonzero,
    so only f = 0 is looked at for a zero one."""
    power = pres.matrix.det_as_power(x.f)
    if power is None:
        if x.f.is_zero() and pres.matrix.det().is_zero():
            raise MatfacError("presentation determinant is zero")
        raise MatfacError("determinant is not a pure signed power of f")
    s = power[1]
    ord_f = x.f.order_of()
    return ModuleStats(mu=x.n, rank_R=s, e_R=ord_f * s, ord_f=ord_f,
                       ulrich=x.n == ord_f * s, irreducible_asserted=True)


# -- the Ulrich constructions ----------------------------------------------------------


def _noted_stats(spec: SumOfProducts, x: MatFac, downgrade: str) -> ModuleStats:
    """Stats of the first factor's cokernel, read as every cokernel's are
    (`_cokernel_stats`): the build's verification read that factor's
    determinant already, so the exponent is a memo read.  The stats carry a
    note (ending in `downgrade`) when the entries per row differ from
    ord(f)."""
    stats = _cokernel_stats(x, x.cokernel_presentation(1, 1))
    if spec.k != stats.ord_f:
        stats = replace(stats, note=(
            f"entries per row ({spec.k}) differ from ord(f) = {stats.ord_f}; {downgrade}"
        ))
    return stats


def _ulrich_build(spec: SumOfProducts, zeta: CycloElem | None):
    """`build_ulrich`, also returning the factorization it took the cokernel
    of: (factorization, presentation, stats)."""
    x = build_from_sum(spec, zeta)[0]
    stats = _noted_stats(
        spec, x, "the Ulrich guarantee does not apply, MCM statistics only")
    return x, x.cokernel_presentation(1, 1), stats


def build_ulrich(spec: SumOfProducts, zeta: CycloElem | None = None):
    """Presentation of an Ulrich module: build the tensor factorization and
    take the cokernel of a single factor.

    Calling this asserts that f is irreducible.  The statistics are read
    from the factor determinant the build verified (kept on the matrix).
    The Ulrich guarantee
    needs the number of entries per row to equal ord(f); when it does not,
    the presentation and statistics are still returned, with a note
    recording that only the MCM claims survive.

    Returns (presentation, stats).
    """
    return _ulrich_build(spec, zeta)[1:]


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
    Validation and reducedness are checked once, and the three statistics
    are read from the presentations built here, as `mcm_stats` reads them.
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
    _require_reduced(x)
    l = x.cokernel_presentation(start + 1, 1)
    n = x.cokernel_presentation(start, 1)
    m = x.cokernel_presentation(start, 2)
    squares = m.matrix == x.phi(start) @ x.phi(start + 1)
    return ExtensionSES(
        l=l,
        m=m,
        n=n,
        l_stats=_cokernel_stats(x, l),
        m_stats=_cokernel_stats(x, m),
        n_stats=_cokernel_stats(x, n),
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
    monomial entries (certified, refusal propagates); every row is certified
    before any tensor is built.  Distinct rows must use disjoint variables
    (checked by the propagation step).  The certificate's subject is the
    build itself: it gets the checks of `build_from_sum`, and a failed check
    raises MatfacError.  The statistics are read from the factor
    determinant those checks verified; the certificate is verified once and
    keeps its verdict.  The cokernel of any single factor of the certified
    tensor is then indecomposable; it is Ulrich exactly when the
    entries-per-row count equals ord(f).  Calling this asserts f irreducible.
    The rank of the presentation also bounds the Ulrich complexity of f from
    above; whether anything smaller is possible cannot be seen from this
    construction alone.
    """
    zeta = _checked_zeta(spec, zeta)
    # Certify every row before building anything: a row that cannot be
    # certified refuses without a tensor product.
    certs = [coprime_rank_one_cert(spec.row_factorization(i)) for i in range(spec.n_terms)]
    cert = certs[0]
    for row_cert in certs[1:]:
        cert = propagate_strong_ind(cert, row_cert, zeta)
    x = cert.subject
    _verify_build(spec, x)
    stats = _noted_stats(spec, x, "indecomposable MCM claims only, not Ulrich")
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
