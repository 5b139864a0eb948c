"""The zeta-twisted tensor product of d-fold factorizations.

Grading convention (0-based throughout this module): the degree-k piece of
X (x) Y is the direct sum over J = 0..d-1 of X_J (x) Y_{k-J}, enumerated as d
blocks in that order; within a block the X-basis index varies slower than the
Y-basis index, so phi (x) 1 is kron(phi, I) and 1 (x) psi is kron(I, psi).

The factor Phi_k mapping piece k to piece k-1 has block (I, J) equal to

    zeta^I * kron(I_n, psi_{k-I})   if J == I          (diagonal)
    kron(phi_{I+1}, I_m)            if J == (I+1) % d   (superdiagonal, cyclic)
    0                               otherwise

where phi, psi run through the factors of X and Y by the 1-based accessor.
The twist scalar zeta must be a primitive d-th root of unity in the
coefficient field and is always passed explicitly — the choice matters.

All witnesses constructed here (swap, shift, distribution, associativity
regrouping) are weighted permutation matrices on basis elements, derived by
tracking degrees: an element x (x) y of degrees (|x|, |y|) sits in block
J = |x| of piece |x| + |y|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from .cyclo import CycloElem
from .errors import MatfacError, Refusal
from .factorization import MatFac, projective
from .linalg import Matrix, rank
from .morphisms import (
    JetHomBasis,
    JetMorphism,
    Morphism,
    admits_invertible_combination,
    hom_space_jets,
)
from .rings import Polynomial


def _check_primitive(zeta: CycloElem, d: int, field):
    if zeta.field != field:
        raise MatfacError("twist scalar lives in a different field than the ring")
    if zeta.multiplicative_order(limit=d) != d:
        raise MatfacError(f"twist scalar is not a primitive d-th root of unity (d = {d})")


def _require_validated(*xs: MatFac):
    for x in xs:
        if not x.validate().passed:
            raise MatfacError(f"input factorization does not validate: {x!r}")


class TensorMatFac(MatFac):
    """A tensor product that remembers its factors and twist scalar.

    Identical to the underlying MatFac in data and behaviour (equality and
    hashing ignore the extra fields); the provenance lets the structure
    module slice morphisms between tensors into blocks without being handed
    the factors again.
    """

    __slots__ = ("left", "right", "zeta")


def tensor(x: MatFac, y: MatFac, zeta: CycloElem) -> TensorMatFac:
    """The zeta-twisted tensor product, a factorization of f + g of rank d*n*m."""
    if x.ring != y.ring:
        raise MatfacError("tensor operands must share a ring")
    if x.d != y.d:
        raise MatfacError(f"tensor operands must share d; got {x.d} and {y.d}")
    d = x.d
    ring = x.ring
    _check_primitive(zeta, d, ring.field)
    _require_validated(x, y)
    n, m = x.n, y.n
    eye_n = Matrix.identity(ring, n)
    eye_m = Matrix.identity(ring, m)
    zero_block = Matrix.zero(ring, n * m, n * m)
    zpow = [ring.scalar(zeta ** e) for e in range(d)]
    mats = []
    for p in range(d):
        k = p + 1  # mats[p] is Phi_{p+1}
        grid = [[zero_block for _ in range(d)] for _ in range(d)]
        for i in range(d):
            grid[i][i] = eye_n.kron(y.phi(k - i)).scale(zpow[i])
            grid[i][(i + 1) % d] = x.phi(i + 1).kron(eye_m)
        mats.append(Matrix.block(ring, grid))
    out = TensorMatFac(ring, x.f + y.f, mats)
    out.left = x
    out.right = y
    out.zeta = zeta
    return out


# -- functoriality ---------------------------------------------------------------


def tensor_morphism_left(alpha: Morphism, y: MatFac, zeta: CycloElem) -> Morphism:
    """alpha (x) 1_Y: acts by alpha on the X-side of each block, no twist."""
    src = tensor(alpha.source, y, zeta)
    tgt = tensor(alpha.target, y, zeta)
    d = y.d
    ring = y.ring
    eye_m = Matrix.identity(ring, y.n)
    comps = []
    for _k in range(d):
        blocks = [alpha.component(j).kron(eye_m) for j in range(d)]
        comps.append(Matrix.block_diagonal(ring, blocks))
    return Morphism(source=src, target=tgt, comps=comps)


def tensor_morphism_right(x: MatFac, beta: Morphism, zeta: CycloElem) -> Morphism:
    """1_X (x) beta: block J of piece k carries beta_{k-J} on the Y-side."""
    src = tensor(x, beta.source, zeta)
    tgt = tensor(x, beta.target, zeta)
    d = x.d
    ring = x.ring
    eye_n = Matrix.identity(ring, x.n)
    comps = []
    for k in range(d):
        blocks = [eye_n.kron(beta.component(k - j)) for j in range(d)]
        comps.append(Matrix.block_diagonal(ring, blocks))
    return Morphism(source=src, target=tgt, comps=comps)


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
    d, n, m = x.d, x.n, y.n
    ring = x.ring
    nm = n * m
    kperm = _commutation_perm(n, m)
    zero_block = Matrix.zero(ring, nm, nm)
    comps = []
    for k in range(d):
        grid = [[zero_block for _ in range(d)] for _ in range(d)]
        for j in range(d):
            i = (k - j) % d
            scalar = ring.scalar(zeta ** (j * ((k - j) % d)))
            grid[i][j] = Matrix.permutation(ring, kperm).scale(scalar)
        comps.append(Matrix.block(ring, grid))
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
    d, n, m = x.d, x.n, y.n
    ring = x.ring
    nm = n * m
    eye = Matrix.identity(ring, nm)
    zero_block = Matrix.zero(ring, nm, nm)
    comps = []
    for k in range(d):
        grid = [[zero_block for _ in range(d)] for _ in range(d)]
        for j in range(d):
            scalar = ring.scalar(zeta ** (j - k))
            grid[(j + 1) % d][j] = eye.scale(scalar)
        comps.append(Matrix.block(ring, grid))
    return Morphism(source=src, target=txy, comps=comps), equality


def distribute_witness(x: MatFac, x2: MatFac, y: MatFac, zeta: CycloElem) -> Morphism:
    """The regrouping (X + X2) (x) Y -> (X (x) Y) + (X2 (x) Y), a permutation."""
    src = tensor(x.direct_sum(x2), y, zeta)
    tgt = tensor(x, y, zeta).direct_sum(tensor(x2, y, zeta))
    d, n1, n2, m = x.d, x.n, x2.n, y.n
    ring = x.ring
    perm = []
    for j in range(d):
        for a in range(n1 + n2):
            for b in range(m):
                if a < n1:
                    perm.append(j * n1 * m + a * m + b)
                else:
                    perm.append(d * n1 * m + j * n2 * m + (a - n1) * m + b)
    pmat = Matrix.permutation(ring, perm)
    return Morphism(source=src, target=tgt, comps=[pmat] * d)


def assoc_check(x: MatFac, y: MatFac, z: MatFac, zeta: CycloElem):
    """Compare (X (x) Y) (x) Z with X (x) (Y (x) Z) as data.

    The canonical regrouping sends the left label (A, J, a, b, c) — outer
    block A, inner block J — to the right label (I, L) = (J, (A - J) mod d)
    with the same within-block indices; the twist exponents agree degreewise,
    so conjugation by this permutation must give literal equality.  Returns
    (ok, regrouping morphism).
    """
    left = tensor(tensor(x, y, zeta), z, zeta)
    right = tensor(x, tensor(y, z, zeta), zeta)
    d, n, m, p = x.d, x.n, y.n, z.n
    ring = x.ring
    n1 = d * n * m   # rank of X (x) Y
    n2 = d * m * p   # rank of Y (x) Z
    perm = []
    for a_blk in range(d):
        for j_blk in range(d):
            for a in range(n):
                for b in range(m):
                    for c in range(p):
                        i_blk = j_blk
                        l_blk = (a_blk - j_blk) % d
                        t = (
                            i_blk * n * n2
                            + a * n2
                            + l_blk * m * p
                            + b * p
                            + c
                        )
                        perm.append(t)
    sigma = Matrix.permutation(ring, perm)
    regroup = Morphism(source=left, target=right, comps=[sigma] * d)
    return regroup.is_morphism(), regroup


# -- determinant check -------------------------------------------------------------


@dataclass
class DetCheckEntry:
    k: int
    ok: bool
    determinant: Polynomial


@dataclass
class DetCheckReport:
    entries: list[DetCheckEntry]
    expected: Polynomial
    passed: bool


def det_check(x: MatFac, y: MatFac, zeta: CycloElem) -> DetCheckReport:
    """Verify det Phi_k = (-1)^{nm(d+1)} (f+g)^{nm} for every k."""
    if x.f.is_zero() or y.f.is_zero():
        raise MatfacError("determinant check requires nonzero f and g")
    t = tensor(x, y, zeta)
    nm = x.n * y.n
    d = x.d
    expected = (x.f + y.f) ** nm
    if (nm * (d + 1)) % 2 == 1:
        expected = -expected
    entries = []
    for p in range(d):
        det = t.mats[p].det()
        entries.append(DetCheckEntry(k=(p + 1) % d, ok=(det == expected), determinant=det))
    return DetCheckReport(entries=entries, expected=expected, passed=all(e.ok for e in entries))


# -- projectivity preservation -------------------------------------------------------


def recognize_projective_sum(p: MatFac) -> list[int]:
    """The multiset of shifts i such that p equals (+) P_i structurally.

    Requires every factor diagonal and, on each diagonal position, exactly one
    slot equal to f with all others equal to 1.  Raises if p is anything else.
    """
    if p.f.is_one() or p.f.is_zero():
        raise MatfacError("projective recognition needs a nonunit, nonzero f")
    for m in p.mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                if i != j and not m[i, j].is_zero():
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


def _explicit_invertible_combination(hom_basis: JetHomBasis) -> JetMorphism | None:
    """Deterministic search for a basis combination invertible at the origin."""
    nb = hom_basis.dimension
    if nb == 0:
        return None
    src, tgt = hom_basis.source, hom_basis.target
    field = src.ring.field

    def attempt(coeffs) -> JetMorphism | None:
        comps = None
        for b, c in enumerate(coeffs):
            if c == 0:
                continue
            scaled = [m.scale(field.rational(c)) for m in hom_basis.basis[b]]
            comps = scaled if comps is None else [a + s for a, s in zip(comps, scaled)]
        if comps is None:
            return None
        # cheap screen before the full check: invertibility at the origin
        if any(m.constant_terms().det().is_zero() for m in comps):
            return None
        cand = JetMorphism(source=src, target=tgt, comps=comps,
                           precision=hom_basis.precision)
        return cand if cand.is_isomorphism() else None

    # single basis elements, then geometric tuples, then a bounded grid
    for b in range(nb):
        got = attempt([1 if i == b else 0 for i in range(nb)])
        if got is not None:
            return got
    for s in range(1, 8):
        got = attempt([s ** i for i in range(nb)])
        if got is not None:
            return got
    tried = 0
    for coeffs in itertools.product(range(-2, 3), repeat=nb):
        got = attempt(coeffs)
        if got is not None:
            return got
        tried += 1
        if tried > 4000:
            break
    return None


@dataclass
class ProjectiveTensorReport:
    passed: bool
    input_shifts: list[int]
    shifts_found: list[int]
    precision: int
    witness: JetMorphism | None
    notes: list[str] = dataclass_field(default_factory=list)


def is_projective_tensor(
    p: MatFac, y: MatFac, zeta: CycloElem, precision: int | None = None
) -> ProjectiveTensorReport:
    """Verify constructively that P (x) Y is again a sum of projectives.

    P must be structurally a sum of the rank-1 projective generators.  The
    multiset of shifts in the decomposition of P (x) Y is forced by the ranks
    of the factors at the origin (each P_i contributes its f-slot); the
    claimed isomorphism is then certified at jet level: hom_space_jets
    produces the solution space, and a combination invertible at the origin
    exists iff no component's symbolic determinant vanishes identically.
    """
    input_shifts = recognize_projective_sum(p)
    t = tensor(p, y, zeta)
    ring = t.ring
    d = t.d
    if p.n == 0:
        return ProjectiveTensorReport(
            passed=True, input_shifts=[], shifts_found=[],
            precision=0, witness=None, notes=["rank-0 input: empty sum"],
        )
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
        return ProjectiveTensorReport(
            passed=False, input_shifts=input_shifts, shifts_found=[],
            precision=0, witness=None,
            notes=["origin ranks inconsistent with a sum of projectives"],
        )
    shifts_found = sorted(
        (d - slot) % d for slot in range(d) for _ in range(counts[slot])
    )
    summands = [projective(ring, d, t.f, i) for i in shifts_found]
    target = summands[0]
    for s in summands[1:]:
        target = target.direct_sum(s)
    # Default to constant-level jets: invertibility of a morphism is decided
    # by its constant terms, and the forced shifts come from origin ranks, so
    # precision 1 already certifies the decomposition.  Callers who want the
    # matrices matched to higher order can pass a larger precision (at a cost
    # that grows quickly with the number of variables).
    n = precision if precision is not None else 1
    hb = hom_space_jets(t, target, n)
    # A verified explicit witness settles existence, so try the cheap search
    # first; the symbolic determinant test is the fallback (and the sound
    # refuter when it says no).
    witness = _explicit_invertible_combination(hb)
    possible = True if witness is not None else admits_invertible_combination(hb)
    notes = []
    if possible and witness is None:
        notes.append(
            "invertible combination certified symbolically; explicit search "
            "did not land on one"
        )
    return ProjectiveTensorReport(
        passed=possible,
        input_shifts=input_shifts,
        shifts_found=shifts_found,
        precision=n,
        witness=witness,
        notes=notes,
    )
