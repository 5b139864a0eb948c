"""The zeta-twisted tensor product of d-fold factorizations.

Grading convention (0-based throughout this module): the degree-k piece of
X (x) Y is the direct sum over J = 0..d-1 of X_J (x) Y_{k-J}, enumerated as d
blocks in that order; within a block the X-basis index varies slower than the
Y-basis index, so phi (x) 1 is kron(phi, I) and 1 (x) psi is kron(I, psi).

The factor Phi_k mapping piece k to piece k-1 has block (I, J) equal to

    zeta^I * kron(I_n, psi_{k-I})   if J == I          (diagonal)
    kron(phi_{I+1}, I_m)            if J == (I+1) % d   (superdiagonal, cyclic)
    0                               otherwise

where phi, psi run through the factors of X and Y by the 1-based accessor:
the block-cyclic shape (Knorrer; Yoshino, Nagoya Math. J. 152, 1998) that
`Matrix.block_cyclic` builds, whose cyclic blocks are the same at every k.
The twist scalar zeta must be a primitive d-th root of unity in the
coefficient field and is always passed explicitly — the choice matters.

All witnesses constructed here (swap, shift, distribution) are weighted
permutations of the tensor's basis, derived by
tracking degrees: an element x (x) y of degrees (|x|, |y|) sits in block
J = |x| of piece |x| + |y|.  Each component is built one way, by
`Matrix.weighted_permutation`, from the target row and the unit weight of
every basis element, and targets that are not a permutation are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cyclo import CycloElem
from .errors import MatfacError, Refusal
from .factorization import MatFac, ValidationEntry, _derived, projective
from .linalg import Matrix, rank
from .morphisms import Morphism, _invertible_jet_exists
from .rings import Polynomial


def _check_primitive(zeta: CycloElem, d: int, field):
    if zeta.field != field:
        raise MatfacError("twist scalar lives in a different field than the ring")
    if zeta.multiplicative_order() != d:
        raise MatfacError(f"twist scalar is not a primitive d-th root of unity (d = {d})")


def _check_operands(x: MatFac, y: MatFac):
    """The operands of X (x) Y share a ring and d."""
    if x.ring != y.ring:
        raise MatfacError("tensor operands must share a ring")
    if x.d != y.d:
        raise MatfacError(f"tensor operands must share d; got {x.d} and {y.d}")


def _require_validated(*xs: MatFac):
    for x in xs:
        if not x.validate().passed:
            raise MatfacError(f"input factorization does not validate: {x!r}")


class TensorMatFac(MatFac):
    """A tensor product that remembers its factors and twist scalar.

    Identical to the underlying MatFac in data and behaviour (equality and
    hashing ignore the extra fields).  `tensor` is the one writer of `left`,
    `right` and `zeta`: they are the very operands and twist it was called
    with.  The provenance is read by `_det_law`, which takes the factor
    ranks from it for `det_check` and for the Ulrich build's verification
    (`ulrich._verify_build`); by `StrongIndCert`, which checks a
    propagation node by it instead of rebuilding the tensor; and by the
    CLI's `_certify`, which builds a certificate tree from a stored tensor's
    factors and twist.
    """

    __slots__ = ("left", "right", "zeta")


def tensor(x: MatFac, y: MatFac, zeta: CycloElem) -> TensorMatFac:
    """The zeta-twisted tensor product, a factorization of f + g of rank d*n*m.

    Its validation is derived, not computed (`_derived`): by the tensor
    theorem (Knorrer; Yoshino, Nagoya Math. J. 152, 1998), X (x)_zeta Y is a
    d-fold factorization of f + g whenever X and Y are d-fold factorizations
    of f and g and zeta is a primitive d-th root of unity, and both
    hypotheses are checked here first.  So every slot holds, and the report
    is the one `validate` would compute: d passing entries, no detail.

    Every slot is built by `Matrix.block_cyclic` with the product of its
    cyclic blocks handed over, f_x * I_nm (f_x is x.f), which x's
    validation, checked first, certifies: the blocks are
    A_I = kron(phi_{I+1}, I_m), so A_0 ... A_{d-1} = kron(phi_1 ... phi_d,
    I_m) = kron(f_x I_n, I_m).  The builder records it exactly when the
    diagonal blocks kron(I_n, zeta^I psi_{p+1-I}) are scalar, that is when
    every psi is a scalar matrix (a rank-one right operand, or one like
    diag(v, v)) and nm > 0; every other slot is eliminated.  With a rank-one
    right operand the diagonal blocks are the scalars
    c_I = zeta^I psi_{p+1-I}, whose product is zeta^(d(d-1)/2) f_y =
    (-1)^(d-1) f_y, so the determinant read (`linalg._block_cyclic_cut`)
    gives (c - (-1)^d f_x)^nm = ((-1)^(d-1) (f_x + f_y))^nm without
    multiplying a block: det Phi = (+-f)^nm, and the determinant checks
    (`det_check`, the Ulrich verification) rest on x's validation, as the
    tensor's report does.
    """
    _check_operands(x, y)
    d = x.d
    ring = x.ring
    _check_primitive(zeta, d, ring.field)
    _require_validated(x, y)
    eye_n = Matrix.identity(ring, x.n)
    eye_m = Matrix.identity(ring, y.n)
    zpow = [ring.scalar(zeta ** e) for e in range(d)]
    # mats[p] is Phi_{p+1}: diagonal block I is kron(I_n, zeta^I psi_{p+1-I}),
    # psi_{p+1-I} being y.mats[(p - I) % d]; the cyclic blocks
    # kron(phi_{I+1}, I_m) are the same at every slot
    cyclic = [x.phi(i + 1).kron(eye_m) for i in range(d)]
    mats = [Matrix.block_cyclic(ring, [eye_n.kron(y.mats[(p - i) % d].scale(zpow[i]))
                                       for i in range(d)], cyclic, _product=x.f)
            for p in range(d)]
    out = TensorMatFac(ring, x.f + y.f, mats)
    out.left, out.right, out.zeta = x, y, zeta
    _derived(out, [ValidationEntry(start=p, ok=True) for p in range(d)])
    return out


# -- witnesses --------------------------------------------------------------------


def _commutation_perm(n: int, m: int) -> list[int]:
    """Permutation sending index a*m + b (x slower) to b*n + a (y slower)."""
    return [(s % m) * n + (s // m) for s in range(n * m)]


def swap_witness(x: MatFac, y: MatFac, zeta: CycloElem) -> Morphism:
    """The isomorphism X (x)_zeta Y -> Y (x)_{zeta^{-1}} X, x(x)y |-> zeta^{|x||y|} y(x)x.

    Component k: an element of source block J (degrees |x| = J, |y| = k - J)
    lands in target block (k - J) mod d with scalar zeta^{J(k-J)} and the
    within-block commutation permutation.
    """
    src = tensor(x, y, zeta)
    tgt = tensor(y, x, zeta.inverse())
    d, ring, nm = x.d, x.ring, x.n * y.n
    kperm = _commutation_perm(x.n, y.n)
    comps = []
    for k in range(d):
        images = []
        for j in range(d):
            base, w = (k - j) % d * nm, ring.scalar(zeta ** (j * ((k - j) % d)))
            images += [(base + s, w) for s in kperm]
        comps.append(Matrix.weighted_permutation(ring, images))
    return Morphism(source=src, target=tgt, comps=comps)


def shift_witness(x: MatFac, y: MatFac, zeta: CycloElem):
    """Witness TX (x) Y -> T(X (x) Y), x(x)y |-> zeta^{-|y|} x(x)y, plus the
    literal data equality T(X (x) Y) == X (x) TY.

    Returns (morphism, equality_holds).  Component k: source block J holds
    degrees (J+1, k-J); it lands in target block (J+1) mod d, scaled by
    zeta^{-(k-J)}.
    """
    src = tensor(x.shift(1), y, zeta)
    txy = tensor(x, y, zeta).shift(1)
    equality = txy == tensor(x, y.shift(1), zeta)
    d, ring, nm = x.d, x.ring, x.n * y.n
    comps = []
    for k in range(d):
        images = []
        for j in range(d):
            base, w = (j + 1) % d * nm, ring.scalar(zeta ** (j - k))
            images += [(base + s, w) for s in range(nm)]
        comps.append(Matrix.weighted_permutation(ring, images))
    return Morphism(source=src, target=txy, comps=comps), equality


def distribute_witness(x: MatFac, x2: MatFac, y: MatFac, zeta: CycloElem) -> Morphism:
    """The regrouping (X + X2) (x) Y -> (X (x) Y) + (X2 (x) Y), a permutation."""
    src = tensor(x.direct_sum(x2), y, zeta)
    tgt = tensor(x, y, zeta).direct_sum(tensor(x2, y, zeta))
    d, n1, n2, m = x.d, x.n, x2.n, y.n
    one = x.ring.one()
    images = []
    for j in range(d):
        for a in range(n1 + n2):
            for b in range(m):
                if a < n1:
                    images.append((j * n1 * m + a * m + b, one))
                else:
                    images.append((d * n1 * m + j * n2 * m + (a - n1) * m + b, one))
    pmat = Matrix.weighted_permutation(x.ring, images)
    return Morphism(source=src, target=tgt, comps=[pmat] * d)


# -- determinant check -------------------------------------------------------------


@dataclass
class DetCheckEntry:
    k: int
    ok: bool
    determinant: Polynomial


@dataclass
class DetCheckReport:
    """Entries and their verdict: the report passes when every entry does."""

    entries: list[DetCheckEntry]
    expected: Polynomial
    passed: bool = dc_field(init=False)

    def __post_init__(self):
        self.passed = all(e.ok for e in self.entries)


def _det_law(t: TensorMatFac) -> tuple[int, int]:
    """The determinant law det Phi_k = (-1)^{nm(d+1)} (f+g)^{nm}, shared by
    every factor of the built tensor t, as the pair (sign, nm) that
    `Matrix.det_as_power(t.f)` answers; n and m are the ranks of t.left
    and t.right."""
    nm = t.left.n * t.right.n
    return -1 if (nm * (t.d + 1)) % 2 else 1, nm


def det_check(x: MatFac, y: MatFac, zeta: CycloElem) -> DetCheckReport:
    """Verify det Phi_k = (-1)^{nm(d+1)} (f+g)^{nm} for every k.

    The law is `_det_law`, and each Phi_k passes when
    `Phi_k.det_as_power(f+g)` gives the law's pair.  With a rank-one right
    operand every Phi_k is block-cyclic with scalar diagonal blocks, and its
    factored determinant is read as g^nm, g from its diagonal scalars and
    the product of its cyclic blocks that `tensor` recorded, f * I (see
    `tensor`), so g = +-(f+g) decides by the factors.  The check therefore
    rests on X's validation, which `tensor` requires, not on a product
    formed here; the report carries the law's value, expanded once.  Every
    Phi_k of a wider right operand still pays for full elimination.  A
    failing entry reports its own expanded determinant.
    """
    if x.f.is_zero() or y.f.is_zero():
        raise MatfacError("determinant check requires nonzero f and g")
    t = tensor(x, y, zeta)
    law = sign, nm = _det_law(t)
    expected = sign * t.f ** nm
    entries = []
    for p, m in enumerate(t.mats):
        ok = m.det_as_power(t.f) == law
        entries.append(DetCheckEntry(k=(p + 1) % t.d, ok=ok,
                                     determinant=expected if ok else m.det()))
    return DetCheckReport(entries, expected)


# -- projectivity preservation -------------------------------------------------------


def recognize_projective_sum(p: MatFac) -> list[int]:
    """The multiset of shifts i such that p equals (+) P_i structurally.

    Requires every factor diagonal and, on each diagonal position, exactly one
    slot equal to f with all others equal to 1.  Raises if p is anything else.
    """
    if p.f.is_one() or p.f.is_zero():
        raise MatfacError("projective recognition needs a nonunit, nonzero f")
    if any(i != j for m in p.mats for i, row in enumerate(m.nonzero()) for j, _ in row):
        raise MatfacError("not a sum of projectives: off-diagonal entry present")
    shifts = []
    one = p.ring.one()
    for pos in range(p.n):
        f_slots = []
        for s in range(p.d):
            entry = p.mats[s][pos, pos]
            if entry == p.f:
                f_slots.append(s)
            elif entry != one:
                raise MatfacError(
                    f"not a sum of projectives: diagonal entry {entry} is neither f nor 1"
                )
        if len(f_slots) != 1:
            raise MatfacError("not a sum of projectives: expected exactly one f per position")
        shifts.append((p.d - f_slots[0]) % p.d)
    return sorted(shifts)


@dataclass
class ProjectiveTensorReport:
    passed: bool
    input_shifts: list[int]
    shifts_found: list[int]
    precision: int


def is_projective_tensor(
    p: MatFac, y: MatFac, zeta: CycloElem, precision: int | None = None
) -> ProjectiveTensorReport:
    """Decide at jet level whether P (x) Y is again a sum of projectives.

    P must be structurally a sum of the rank-1 projective generators.  The
    multiset of shifts in the decomposition of P (x) Y is forced by the ranks
    of the factors at the origin (each P_i contributes its f-slot).  The
    claimed isomorphism onto that sum is then decided on the jet hom space
    alone: a combination of its basis invertible at the origin exists iff no
    component's symbolic determinant vanishes identically
    (`admits_invertible_combination`), at precision 1 first and then at the
    requested one (`morphisms._invertible_jet_exists`).  passed=True is a
    jet-level candidate, since jet solutions need not lift to exact
    morphisms; passed=False is a sound refutation at the stated precision.
    """
    input_shifts = recognize_projective_sum(p)
    t = tensor(p, y, zeta)
    ring = t.ring
    d = t.d
    if p.n == 0:
        return ProjectiveTensorReport(passed=True, input_shifts=[], shifts_found=[],
                                      precision=0)
    if not t.f.constant_term().is_zero():
        raise Refusal(
            "f + g is a unit at the origin; projective decomposition by "
            "origin ranks is not meaningful"
        )
    counts = []
    for slot in range(d):
        r = rank(t.mats[slot].constant_terms())
        counts.append(t.n - r)
    if sum(counts) != t.n:
        # origin ranks inconsistent with a sum of projectives
        return ProjectiveTensorReport(passed=False, input_shifts=input_shifts,
                                      shifts_found=[], precision=0)
    shifts_found = sorted(
        (d - slot) % d for slot in range(d) for _ in range(counts[slot])
    )
    summands = [projective(ring, d, t.f, i) for i in shifts_found]
    target = summands[0].direct_sum(*summands[1:])
    # Default to constant-level jets: invertibility of a morphism is decided
    # by its constant terms, and the forced shifts come from origin ranks, so
    # precision 1 already decides the candidate.  Callers who want the
    # matrices matched to higher order can pass a larger precision (at a cost
    # that grows quickly with the number of variables).
    n = precision if precision is not None else 1
    return ProjectiveTensorReport(
        passed=_invertible_jet_exists(t, target, n),
        input_shifts=input_shifts,
        shifts_found=shifts_found,
        precision=n,
    )
