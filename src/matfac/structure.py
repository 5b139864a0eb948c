"""Decomposition structure of twisted tensor products.

When X uses one set of variables and Y uses a disjoint set, killing either
set of variables collapses X (x) Y onto a direct sum of shifted copies of the
surviving factor.  This module implements that reduction and the
indecomposability bookkeeping built on top of it:

* `reduce_tensor_witness` produces the direct-sum form of the reduced tensor
  together with an explicit isomorphism witness.  Killing the left factor's
  variables leaves, at every slot p, the literal block-diagonal matrix with
  blocks zeta^i * kron(I_n, (T^-i Y).mats[p]) for i = 0..d-1, so the witness
  is the identity.  Killing the right factor's variables leaves the same
  cyclic block matrix at every slot; the constant components of the swap
  isomorphism carry it onto the reduction of Y (x)_{zeta^-1} X, which is in
  direct-sum form.
* summand-count bounds: a tensor of reduced indecomposables has at most d*r
  indecomposable summands (r = gcd of the ranks), and at most r when neither
  factor is isomorphic to any nonzero shift of itself.
* strong-indecomposability certificates: rank-one factorizations with
  pairwise coprime monomial entries are strongly indecomposable (axiom case),
  and the property propagates through tensor products over disjoint variable
  sets.  Certificates are explicit trees, verified once, on the first
  `problems()` call, each tensor node by the provenance `tensor` records
  (no tensor is rebuilt); their consequences (indecomposability,
  shift-inequivalence, indecomposable cokernels, scalar residue
  endomorphisms) are emitted as claims, not recomputed facts.

Nothing here decides strong indecomposability from the definition -- that
quantifies over all pairs of homomorphisms over the power-series ring.  The
constant-term shadow of the definition is available as a spot-check
(`constant_term_spot_check`), and non-isomorphism to shifts can be refuted
soundly at jet level (`jet_refute_shift_iso`), but a certificate is only ever
produced from the axiom or by propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .cyclo import CycloElem
from .errors import MatfacError, Refusal
from .factorization import MatFac, PresentationMatrix, default_precision
from .linalg import Matrix
from .morphisms import Morphism, _invertible_jet_exists, hom_space_jets
from .rings import monomial_coprime, variables_in
from .tensor import TensorMatFac, _check_operands, swap_witness, tensor


def variable_support(x: MatFac) -> frozenset[str]:
    """All variable names appearing in the factors or in f, read at once
    from every entry's terms (`rings.variables_in`)."""
    return variables_in(x.ring, [x.f, *(p for m in x.mats for row in m.nonzero()
                                         for _, p in row)])


def _require_disjoint(x: MatFac, y: MatFac):
    shared = variable_support(x) & variable_support(y)
    if shared:
        raise MatfacError(
            f"factors must use disjoint variables; both use {sorted(shared)}"
        )


# -- reduction of tensors ------------------------------------------------------


def _contiguous_copies(y: MatFac, copies: int, unit: CycloElem, i: int) -> MatFac:
    """copies-fold direct sum of the unit-scaled shift T^-i Y, stored
    contiguously: slot p is unit * kron(I_copies, (T^-i Y).mats[p])."""
    ring = y.ring
    eye = Matrix.identity(ring, copies)
    scalar = ring.scalar(unit)
    shifted = y.shift(-i)
    return MatFac(ring, y.f, [eye.kron(m).scale(scalar) for m in shifted.mats])


@dataclass
class ReductionReport:
    side: str
    killed: tuple[str, ...]
    sum_matches_reduction: bool
    witness_is_isomorphism: bool
    reduction_validates: bool
    sum_validates: bool

    @property
    def passed(self) -> bool:
        return (
            self.sum_matches_reduction
            and self.witness_is_isomorphism
            and self.reduction_validates
            and self.sum_validates
        )


def reduce_tensor_witness(x: MatFac, y: MatFac, zeta: CycloElem, side: str):
    """Reduce X (x)_zeta Y modulo one factor's variables and exhibit the
    resulting direct sum of shifts of the other factor.

    side='left' sets the left factor's variables to zero (X must be reduced);
    the result is sum_{i=0}^{d-1} of n copies of zeta^i * T^-i Y, and the
    reduced tensor is that sum verbatim, so the witness is the identity.
    side='right' sets the right factor's variables to zero (Y must be
    reduced); the result is sum_i of m copies of zeta^-i * T^-i X, reached
    through the constant components of the swap isomorphism.

    Returns (witness, report): witness maps the reduced tensor onto the
    direct sum, and the report records the exact checks performed.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _require_disjoint(x, y)
    if side == "left":
        if not x.is_reduced():
            raise MatfacError("left reduction requires the left factor to be reduced")
        kill, survivor, copies, unit = variable_support(x), y, x.n, zeta
        t = tensor(x, y, zeta)
    else:
        if not y.is_reduced():
            raise MatfacError("right reduction requires the right factor to be reduced")
        kill, survivor, copies, unit = variable_support(y), x, y.n, zeta.inverse()
        swap = swap_witness(x, y, zeta)
        t = swap.source
    reduced = t.reduce_mod_vars(kill)
    first, *rest = [_contiguous_copies(survivor, copies, unit**i, i) for i in range(t.d)]
    total = first.direct_sum(*rest)
    if side == "left":
        comps = [Matrix.identity(t.ring, t.n)] * t.d
        matches = reduced == total
    else:
        # The swap components are constant matrices, so they survive the
        # reduction unchanged and still intertwine the reduced factors.
        comps = swap.comps
        matches = swap.target.reduce_mod_vars(kill) == total
    witness = Morphism(source=reduced, target=total, comps=comps)
    report = ReductionReport(
        side=side,
        killed=tuple(sorted(kill)),
        sum_matches_reduction=matches,
        witness_is_isomorphism=witness.is_isomorphism(),
        reduction_validates=reduced.validate().passed,
        sum_validates=total.validate().passed,
    )
    return witness, report


# -- summand-count bounds ------------------------------------------------------


@dataclass(frozen=True)
class DecompBound:
    """Upper bound on the number of indecomposable summands of a tensor.

    bound = d*r in general and r when both asymmetry flags are certified
    (r = gcd of the factor ranks).  min_summand_rank is the complementary
    consequence: every indecomposable summand has rank at least n*m/r, and at
    least d*n*m/r in the asymmetric case.
    """

    n: int
    m: int
    d: int
    r: int
    bound: int
    basis: str  # "general" or "fully-asymmetric"
    hypotheses: tuple[str, ...]
    min_summand_rank: int


def summand_bound(x: MatFac, y: MatFac, sym_flags=(False, False)) -> DecompBound:
    """Bound the indecomposable-summand count of X (x) Y.

    X and Y must share a ring and d, as `tensor` requires, and both must be
    reduced; their indecomposability is the caller's assertion and is
    recorded in the hypotheses rather than checked.
    sym_flags = (x_shifts_refuted, y_shifts_refuted) states that T^i X is not
    isomorphic to X for every i != 0 (and likewise for Y); certify the flags
    with jet_refute_shift_iso.  Both flags together sharpen the bound from
    d*r to r.  Anything but exactly two bools is a ValueError.
    """
    if len(sym_flags) != 2 or not all(isinstance(v, bool) for v in sym_flags):
        raise ValueError(f"sym_flags must be a pair of booleans, got {sym_flags!r}")
    _check_operands(x, y)
    if not x.is_reduced():
        raise MatfacError("summand bound requires a reduced left factor")
    if not y.is_reduced():
        raise MatfacError("summand bound requires a reduced right factor")
    x_flag, y_flag = sym_flags
    n, m, d = x.n, y.n, x.d
    r = gcd(n, m)
    hyps = [
        "both factors reduced (checked)",
        "both factors indecomposable (caller-asserted)",
    ]
    asymmetric = x_flag and y_flag
    if asymmetric:
        hyps.append("no nonzero shift of either factor is isomorphic to it")
    return DecompBound(
        n=n,
        m=m,
        d=d,
        r=r,
        bound=r if asymmetric else d * r,
        basis="fully-asymmetric" if asymmetric else "general",
        hypotheses=tuple(hyps),
        min_summand_rank=(d if asymmetric else 1) * n * m // r,
    )


# -- strong-indecomposability certificates ---------------------------------------


@dataclass(frozen=True)
class VarSplit:
    """Disjointness evidence: which variables each child certificate owns."""

    left_vars: frozenset[str]
    right_vars: frozenset[str]

    def as_dict(self) -> dict:
        return {
            "left": sorted(self.left_vars),
            "right": sorted(self.right_vars),
        }


@dataclass(frozen=True)
class AxiomCoprimeRankOne:
    """Rank-one basis case: pairwise coprime monomial entries."""

    entries: tuple

    def as_dict(self) -> dict:
        return {
            "kind": "coprime-rank-one",
            "entries": [str(e) for e in self.entries],
        }


@dataclass(frozen=True)
class TensorPropagation:
    """Propagation case: tensor of two certified subjects over disjoint
    variables, with the twist scalar that built the subject."""

    left: "StrongIndCert"
    right: "StrongIndCert"
    split: VarSplit
    zeta: CycloElem

    def as_dict(self) -> dict:
        return {
            "kind": "tensor-propagation",
            "zeta": str(self.zeta),
            "split": self.split.as_dict(),
            "left": self.left.as_dict(),
            "right": self.right.as_dict(),
        }


@dataclass(frozen=True)
class StrongIndCert:
    """Certificate that `subject` is strongly indecomposable.

    The certificate is a tree: leaves are coprime rank-one axioms, inner
    nodes are disjoint-variable tensor propagations.  `problems()` verifies
    the whole tree and returns a list of violations (empty means valid).
    The first call keeps the verdict, which cannot go stale (the certificate
    is frozen and its subject immutable); each call returns a fresh list.

    An inner node is checked by provenance, not by rebuilding its tensor:
    its subject must be a `TensorMatFac` whose `left` and `right` are the
    children's subjects themselves (`is`) and whose `zeta` equals the
    recorded one.  `tensor` is the one writer of that provenance and is
    deterministic, so a rebuild could only compare `tensor` with itself,
    and the subject's validation is already derived from `tensor`
    (`factorization._derived`): the node rests on what its validation rests
    on.  The recorded variable split and the children's disjointness are
    the certificate's own data and are checked against the subjects.
    """

    subject: MatFac
    basis: AxiomCoprimeRankOne | TensorPropagation

    def problems(self) -> list[str]:
        if not hasattr(self, "_problems"):
            object.__setattr__(self, "_problems", tuple(self._verify()))
        return list(self._problems)

    def _verify(self) -> list[str]:
        out: list[str] = []
        if not self.subject.validate().passed:
            out.append("subject does not validate")
        if isinstance(self.basis, AxiomCoprimeRankOne):
            if self.subject.n != 1:
                out.append(f"axiom subject must have rank 1, has {self.subject.n}")
                return out
            actual = tuple(m[0, 0] for m in self.subject.mats)
            if actual != self.basis.entries:
                out.append("recorded entries differ from the subject's entries")
            if not self.subject.is_reduced():
                out.append("axiom subject is not reduced")
            try:
                if not monomial_coprime(self.basis.entries):
                    out.append("entries are not pairwise coprime")
            except Refusal as exc:
                out.append(str(exc))
        else:
            prop = self.basis
            lsup = variable_support(prop.left.subject)
            rsup = variable_support(prop.right.subject)
            if lsup != prop.split.left_vars or rsup != prop.split.right_vars:
                out.append("recorded variable split differs from the subjects' supports")
            if lsup & rsup:
                out.append(f"children share variables {sorted(lsup & rsup)}")
            if not (isinstance(self.subject, TensorMatFac)
                    and self.subject.left is prop.left.subject
                    and self.subject.right is prop.right.subject
                    and self.subject.zeta == prop.zeta):
                out.append("subject is not the tensor of the child subjects")
            out.extend(f"left: {p}" for p in prop.left.problems())
            out.extend(f"right: {p}" for p in prop.right.problems())
        return out

    def as_dict(self) -> dict:
        return {
            "rank": self.subject.n,
            "d": self.subject.d,
            "f": str(self.subject.f),
            "basis": self.basis.as_dict(),
        }


def coprime_rank_one_cert(x: MatFac) -> StrongIndCert:
    """Certify a rank-one factorization with pairwise coprime monomial
    entries as strongly indecomposable.

    Refuses when the entries are not pairwise coprime; coprimality of
    non-monomial entries is not decided here (UndecidableError).
    """
    if x.n != 1:
        raise MatfacError(f"certificate needs a rank-one factorization, got rank {x.n}")
    if not x.validate().passed:
        raise MatfacError("factorization does not validate")
    if not x.is_reduced():
        raise MatfacError("certificate needs a reduced factorization")
    entries = tuple(m[0, 0] for m in x.mats)
    if not monomial_coprime(entries):
        raise Refusal(
            "entries are not pairwise coprime: "
            + ", ".join(str(e) for e in entries)
        )
    return StrongIndCert(subject=x, basis=AxiomCoprimeRankOne(entries=entries))


def _propagated(
    cx: StrongIndCert, cy: StrongIndCert, zeta: CycloElem, subject: MatFac
) -> StrongIndCert:
    """Certify `subject`, the zeta-twisted tensor of the two certified
    subjects, by propagation: check and record their disjoint variables.
    The subject is taken as given; `problems()` checks that `tensor` built
    it from those subjects and zeta (its recorded provenance)."""
    lsup = variable_support(cx.subject)
    rsup = variable_support(cy.subject)
    if lsup & rsup:
        raise MatfacError(
            f"certified subjects must use disjoint variables; both use "
            f"{sorted(lsup & rsup)}"
        )
    split = VarSplit(left_vars=lsup, right_vars=rsup)
    return StrongIndCert(
        subject=subject,
        basis=TensorPropagation(left=cx, right=cy, split=split, zeta=zeta),
    )


def propagate_strong_ind(
    cx: StrongIndCert, cy: StrongIndCert, zeta: CycloElem
) -> StrongIndCert:
    """Tensor two certified subjects over disjoint variables; the tensor
    product is again strongly indecomposable."""
    return _propagated(cx, cy, zeta, tensor(cx.subject, cy.subject, zeta))


@dataclass(frozen=True)
class StructuralClaim:
    claim: str
    index: int | None
    detail: str


@dataclass
class ConsequenceReport:
    subject: MatFac
    claims: tuple[StructuralClaim, ...]
    cokernels: dict[int, PresentationMatrix] = dc_field(default_factory=dict)


def strong_ind_consequences(cert: StrongIndCert) -> ConsequenceReport:
    """The structural consequences of a verified certificate.

    Raises MatfacError naming the problems the certificate's kept verdict
    lists (verified on the first `cert.problems()`).  The claims are
    emitted, not recomputed: indecomposability of the subject, inequivalence
    with every nonzero shift, indecomposability of each factor's cokernel
    over the hypersurface ring, and scalar residue of the endomorphism
    rings.
    """
    problems = cert.problems()
    if problems:
        raise MatfacError("invalid certificate: " + "; ".join(problems))
    x = cert.subject
    d = x.d
    claims = [
        StructuralClaim(
            claim="indecomposable",
            index=None,
            detail="the subject admits no nontrivial direct-sum decomposition",
        )
    ]
    for i in range(1, d):
        claims.append(
            StructuralClaim(
                claim="shift_inequivalent",
                index=i,
                detail=f"T^{i} of the subject is not isomorphic to the subject",
            )
        )
    cokernels = {}
    for k in range(d):
        cokernels[k] = x.cokernel_presentation(k, 1)
        claims.append(
            StructuralClaim(
                claim="cokernel_indecomposable",
                index=k,
                detail=(
                    f"cok phi_{k} is an indecomposable maximal Cohen-Macaulay "
                    "module over the hypersurface ring of f"
                ),
            )
        )
    claims.append(
        StructuralClaim(
            claim="endomorphism_residue_scalar",
            index=None,
            detail=(
                "the endomorphism ring of the subject, and of each cok phi_k, "
                "is scalar modulo its radical"
            ),
        )
    )
    return ConsequenceReport(subject=x, claims=tuple(claims), cokernels=cokernels)


# -- jet refutation of shift isomorphism ----------------------------------------


@dataclass
class ShiftRefutation:
    """Outcome of the jet-level search for isomorphisms X -> T^i X.

    refuted[i] is True when no jet morphism with invertible constant part
    exists at `precision`, the precision certified -- a sound proof that X
    and T^i X are not isomorphic.  It is always an integer: a request of
    None is stored as the `default_precision` of X it resolved to.  False
    means undetermined (a candidate exists at that precision), never a proof
    of isomorphism.  The keys are 1 .. d-1, in order.

    Each verdict is decided at precision 1 first; a refutation there is one
    at `precision` (the truncation lemma of
    `morphisms._invertible_jet_exists`), and refuted[i] == refuted[d-i]
    always (the pairing lemma of `jet_refute_shift_iso`).
    """

    subject: MatFac
    precision: int
    refuted: dict[int, bool]

    @property
    def all_refuted(self) -> bool:
        return all(self.refuted.values())


def jet_refute_shift_iso(x: MatFac, precision: int | None = 1) -> ShiftRefutation:
    """For each i != 0, try to refute X ~ T^i X at the given jet precision.

    None means `default_precision(x)`, resolved once here (T^i X has the
    entries of X, so it is every system's default too).  Only the shifts
    i <= d - i are solved, and refuted[d-i] is refuted[i].
    Pairing lemma: let alpha: X -> T^i X be a precision-N jet morphism with
    invertible constant part.  Then gamma = T^(d-i) alpha: T^(d-i) X -> X is
    one too, since T^d X = X as data.  Write phi for the factors of
    T^(d-i) X and psi for those of X.  The power-series inverse beta of
    gamma satisfies

        beta_p psi_p - phi_p beta_{p+1}
            = beta_p (psi_p gamma_{p+1} - gamma_p phi_p) beta_{p+1},

    which vanishes below degree N + delta.  Truncated below N, beta is a
    precision-N solution X -> T^(d-i) X with invertible constant part
    beta(0) = gamma(0)^-1.  So the verdicts for i and d - i are equal at
    every precision.
    """
    if precision is None:
        precision = default_precision(x)
    d, refuted = x.d, {}
    for i in range(1, d // 2 + 1):
        refuted[i] = not _invertible_jet_exists(x, x.shift(i), precision)
    return ShiftRefutation(subject=x, precision=precision,
                           refuted={i: refuted[min(i, d - i)] for i in range(1, d)})


# -- constant-term spot-check ----------------------------------------------------


def constant_term_spot_check(x: MatFac) -> bool:
    """Check the constant-term shadow of strong indecomposability.

    Every jet self-morphism at precision 1 must have all components equal to
    one common scalar at the origin, and every jet morphism to a nonzero
    shift must vanish at the origin.  A certificate subject failing this is a
    bug; passing it is evidence, not proof, of strength.
    """
    # constant terms are read from the kernel coordinates as sparse maps
    # (i, j) -> value, which hold no zeros (`JetHomBasis.constants`)
    for consts in hom_space_jets(x, x, 1).constants():
        xi = consts[0].get((0, 0))
        scalar = {} if xi is None else {(i, i): xi for i in range(x.n)}
        if any(c != scalar for c in consts):
            return False
    for i in range(1, x.d):
        if any(any(consts) for consts in hom_space_jets(x, x.shift(i), 1).constants()):
            return False
    return True
