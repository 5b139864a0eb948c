"""Block diagonalization of shift-symmetric tensor factorizations.

When both factors satisfy TX == X as literal data (every matrix in the tuple
is the same phi, resp. psi), all d components of the twisted tensor product
collapse to one block matrix

    Phi = [ B    A              ]        A = kron(phi, I),
          [      w^2 B  A       ]        B = kron(I, psi),
          [               ...  A]
          [ A         w^(2d-2) B]

where w is a primitive 2d-th root of unity whose square is the twist used by
the tensor.  Conjugating Phi by the circulant scalar matrices

    alpha_k(i, j) = w^(p(j - i - k)),     p(m) = -m^2 + d*m,

diagonalizes every component simultaneously into the pencils A - w^(odd) B,
and those reassemble into the d shifts of a single factorization Z whose
slot p is A - w^(2p+1) B.  Everything is certified exactly, and
invertibility never rests on a numeric rank guess: `alpha_matrix` checks
its determinant against a product of root sums, each of which multiplies
with its conjugate sum to the integer d, and `decompose_symmetric` checks
that its inverses are inverses.

alpha_k and its inverse alpha_k^-1 = alpha_k*/d (the conjugate transpose
over d) are both circulants, each held as its first row, written in closed
form by `_alpha`; `Matrix.circulant` expands a row where a matrix is
needed.  `decompose_symmetric` computes no determinant, root sum or
elimination, no product at rank nm or dnm, and O(d^2) field products in
all: every verdict is certified on first rows and d x d coordinates, by
three lemmas stated and proved in its docstring:

* forward's intertwining law follows, by the mixed-product rule, from two
  d x d identities per slot, once the tensor slots, the slots of the sum
  of shifts and forward's components are seen, as data, to be Kronecker
  forms over the pair A = kron(phi, I), B = kron(I, psi); both identities
  are slot-0 identities carried to every slot by rotation, since every
  alpha_k is alpha_0 times a power of the cyclic shift (its first row is
  alpha_0's rotated, a comparison of rows);
* the summand validates because A and B commute and its pencil roots are
  the d roots of t^d + 1;
* the round trip alpha_0^-1 alpha_0 = I_d is read off the first row of
  the product, both factors being circulants by representation and
  circulants a commutative algebra; every other alpha_k^-1 is a rotation
  of alpha_0^-1 (again a comparison of rows), and backward's law follows
  from forward's and the round trip, and so does "isomorphism" for both
  witnesses: each has a two-sided inverse morphism.

Index conventions match the rest of the package: matrices in a tuple are
0-based with slot p holding the component whose 1-based label is p+1, and
exponents of w are reduced mod 2d (p(m) is well defined there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclo import CycloElem, CycloField
from .errors import MatfacError
from .factorization import MatFac, ValidationEntry, ValidationReport, _check_slots, _derived
from .linalg import Matrix
from .morphisms import Morphism, _intertwining_report
from .rings import PolynomialRing
from .tensor import tensor

__all__ = [
    "OmegaContext", "omega_context", "root_sum", "alpha_matrix",
    "block_diagonalize", "decompose_symmetric", "SymmetricDecomposition",
]


@dataclass(frozen=True)
class OmegaContext:
    """A primitive 2d-th root of unity w and its square, in one field.

    zeta is always w^2 (a primitive d-th root).
    """

    d: int
    omega: CycloElem
    zeta: CycloElem

    @property
    def field(self) -> CycloField:
        return self.omega.field

    @cached_property
    def _omega_powers(self) -> tuple[CycloElem, ...]:
        """w^0, w^1, ..., w^(2d-1), each one multiplication from the last."""
        powers = [self.field.one()]
        for _ in range(2 * self.d - 1):
            powers.append(powers[-1] * self.omega)
        return tuple(powers)

    def omega_pow(self, e: int) -> CycloElem:
        return self._omega_powers[e % (2 * self.d)]

    @cached_property
    def _root_sums(self) -> tuple[CycloElem, ...]:
        """root_sum(d + 2s) for s = 1..d, the factors of every alpha_k
        determinant up to powers of w."""
        return tuple(root_sum(self, self.d + 2 * s) for s in range(1, self.d + 1))


def omega_context(d: int, omega: CycloElem | None = None,
                  zeta: CycloElem | None = None) -> OmegaContext:
    """Build an OmegaContext from a 2d-th root, or (odd d only) from a d-th root.

    When only a primitive d-th root z is available and d is odd, -z is a
    primitive 2d-th root, so the context can be bootstrapped from it; the
    twist the context carries is then zeta = (-z)^2 = z^2, which for odd d
    runs over all primitive d-th roots as z does.  For even d there is no
    such shortcut and a genuine 2d-th root must be supplied.
    """
    if d < 2:
        raise MatfacError("need d >= 2")
    if omega is None:
        if zeta is None:
            raise MatfacError("supply omega (a 2d-th root) or, for odd d, zeta")
        if d % 2 == 0:
            raise MatfacError(
                "for even d a primitive 2d-th root must be supplied explicitly; "
                "-zeta only works when d is odd"
            )
        if zeta.multiplicative_order() != d:
            raise MatfacError(f"zeta is not a primitive {d}-th root of unity")
        omega = -zeta
    # order 2d is the whole context: then w^d is a square root of 1 other
    # than 1, so -1, and w^2 has order 2d / gcd(2, 2d) = d
    if omega.multiplicative_order() != 2 * d:
        raise MatfacError(f"omega is not a primitive {2 * d}-th root of unity")
    return OmegaContext(d=d, omega=omega, zeta=omega * omega)


def _pexp(d: int, m: int) -> int:
    """The exponent polynomial -m^2 + d*m, reduced mod 2d.

    Replacing m by m + d changes the value by -2md - d^2 + d^2 = -2md, a
    multiple of 2d, so powers of w indexed by residues mod d are well
    defined without any parity hypothesis.
    """
    return (-m * m + d * m) % (2 * d)


def _alpha(ctx: OmegaContext, k: int, inverse: bool = False) -> list[CycloElem]:
    """The first row of alpha_k(i, j) = w^p(j-i-k), or with inverse=True of
    its inverse alpha_k^-1(i, j) = w^-p(i-j-k) / d, that is alpha_k*/d.
    Either entry depends on j - i mod d only (p is well defined mod d, see
    `_pexp`), so the matrix is the circulant of that row (`Matrix.circulant`),
    and the row is all that is computed: d entries, and for alpha_k^-1 d
    products by 1/d.

    Proof of the inverse: put a = i - l - k and b = j - l - k.  Then
    p(b) - p(a) = a^2 - b^2 - d(a - b) = (a - b)(a + b - d), with a - b =
    i - j and a + b - d = i + j - 2k - d - 2l, so

        (alpha_k* alpha_k)(i, j) = sum_l w^(p(b) - p(a))
            = w^((i-j)(i+j-2k-d)) * sum_l zeta^(-l(i-j)),

    and by the orthogonality of the characters l -> zeta^(cl) of Z_d the sum
    is d when i = j (where the prefactor is 1) and 0 otherwise.  No caller
    rests a verdict on this: `alpha_matrix` checks its determinant and
    `decompose_symmetric` the round trip.
    """
    d = ctx.d
    if not inverse:
        return [ctx.omega_pow(_pexp(d, j - k)) for j in range(d)]
    inv_d = Fraction(1, d)
    return [ctx.omega_pow(-_pexp(d, -j - k)) * inv_d
            for j in range(d)]


def root_sum(ctx: OmegaContext, t: int) -> CycloElem:
    """The exact value of sum_{j in Z_d} w^(-j^2 + t*j); nonzero, certified.

    Requires t + d even: only then is the summand independent of the
    representative of j mod d (shifting j by d changes the exponent by
    d^2 + td = d(d + t), a multiple of 2d exactly when t + d is even).
    Nonvanishing is certified by checking the product identity
    (sum_j w^(-j^2+tj)) * (sum_l w^(l^2-tl)) = d on the computed values.
    """
    d = ctx.d
    if (t + d) % 2 != 0:
        raise MatfacError(f"root_sum needs t + d even; got t={t}, d={d}")
    field = ctx.field
    s = field.zero()
    conj = field.zero()
    for j in range(d):
        s = s + ctx.omega_pow(-j * j + t * j)
        conj = conj + ctx.omega_pow(j * j - t * j)
    if s * conj != field.rational(d):
        raise MatfacError("root sum product identity failed")
    return s


def alpha_matrix(ctx: OmegaContext, k: int) -> Matrix:
    """The d x d circulant change-of-basis matrix with (i,j) entry w^(p(j-i-k)).

    The circulant of the first row `_alpha` writes.  Entries depend only on
    (j - i) mod d, so the determinant factors over the d-th roots of unity
    into the sums w^(2sk) * root_sum(d + 2s), s = 1..d; each factor is a
    unit, and the computed determinant is checked against the product, so
    the returned matrix is certifiably invertible.  The root sums do not
    depend on k and are computed once per context.  `decompose_symmetric`
    does not call this: it certifies its witnesses by their round trip
    instead.
    """
    field = ctx.field
    mat = Matrix.circulant(field, _alpha(ctx, k))
    expected_det = field.one()
    for s, root in enumerate(ctx._root_sums, start=1):
        expected_det = expected_det * ctx.omega_pow(2 * s * k) * root
    if mat.det() != expected_det:
        raise MatfacError("circulant determinant mismatch")
    return mat


def block_diagonalize(ctx: OmegaContext, a: Matrix, b: Matrix):
    """Conjugate the cyclic block matrix built on a commuting pair to pencils.

    Builds Phi with diagonal blocks w^(2I) * b (I = 0..d-1), superdiagonal
    blocks a and the wrap-around a in the lower-left corner, then verifies

        alpha_(k-1) Phi == Phi'_k alpha_k        for every k in Z_d,

    where Phi'_k is block diagonal with blocks a - w^(2k + 2I - 1) b and the
    alphas are the circulant scalar matrices `alpha_matrix(ctx, k)`, each
    with its determinant certificate, blown up to block size.
    Returns (alphas, diag_blocks, report): alphas and diag_blocks are indexed
    by k in Z_d, and report entry p checks the identity at k = p + 1.
    """
    if not a.is_square() or a.nrows != b.nrows or a.ncols != b.ncols:
        raise MatfacError("need square matrices of equal size")
    if a.space is not b.space and a.space != b.space:
        raise MatfacError("matrices live over different spaces")
    if a @ b != b @ a:
        raise MatfacError("matrices do not commute; the diagonalization "
                          "identity needs AB = BA")
    d = ctx.d
    space = a.space
    phi = Matrix.block_cyclic(space, [b.scale(ctx.omega_pow(2 * i)) for i in range(d)],
                              [a] * d)

    scalars = [alpha_matrix(ctx, k) for k in range(d)]
    if isinstance(space, PolynomialRing):
        scalars = [s.map(space.scalar, space) for s in scalars]
    elif space != ctx.field:
        raise MatfacError("scalar matrix lives over a different field")
    ident = Matrix.identity(space, a.nrows)
    alphas = [s.kron(ident) for s in scalars]
    diag_blocks = []
    for k in range(d):
        blocks = [a - b.scale(ctx.omega_pow(2 * k + 2 * i - 1))
                  for i in range(d)]
        diag_blocks.append(Matrix.block_diagonal(space, blocks))

    report = _intertwining_report(alphas, [phi] * d,
                                  [diag_blocks[(p + 1) % d] for p in range(d)])
    return alphas, diag_blocks, report


@dataclass
class SymmetricDecomposition:
    """Outcome of decompose_symmetric: the pencil factorization and witnesses.

    summand is Z itself; total is the direct sum of its d shifts, which
    equals the diagonalized form slot by slot; forward / backward are exact
    mutually inverse isomorphisms between the tensor product and total.
    """

    summand: MatFac
    total: MatFac
    forward: Morphism
    backward: Morphism
    report: ValidationReport


def decompose_symmetric(x: MatFac, y: MatFac, ctx: OmegaContext) -> SymmetricDecomposition:
    """Split X (x) Y into the d shifts of one factorization Z.

    Both inputs must be strictly shift-symmetric: every matrix of the tuple
    equal, as data, to the first one (that is what TX == X means here; mere
    isomorphism to the shift is not enough for this construction).  The
    tensor is taken at the context's twist w^2.  With a = kron(phi, I_m),
    b = kron(I_n, psi) and c_q = w^(2q+1), the summand Z has slot p equal to
    a - c_p b; the direct sum of its shifts T^0 Z, ..., T^(d-1) Z literally
    equals the conjugated diagonal form, and the circulant alphas give exact
    isomorphisms both ways.

    The report holds forward's intertwining law (entries 0..d-1, the report
    `forward.is_morphism()` keeps), the validation of Z (start -1) and the
    round trip (start -3).  The sum of shifts needs no check of its own:
    its cyclic product starting at slot p is block diagonal with blocks Z's
    cyclic products starting at p, p+1, ..., p+d-1, which run through all d
    slots, so it validates exactly when Z does.

    The witnesses are A_k (x) I_nm and A_k^-1 (x) I_nm, where A_k = alpha_k
    and A_k^-1 = alpha_k*/d are held as the first rows `_alpha` writes in
    closed form: a circulant by representation.  Each component is the
    circulant of its row, lifted into the ring, tensored with I_nm.  No
    determinant, root sum or elimination is computed, and no product at
    rank nm or dnm: three lemmas reduce every verdict to O(d^2) field
    products (the twist identity at slot 0, one row of the round trip) and
    to equalities of stored data and of rows.  Below,
    Q = sum_I E_(I, I+1 mod d) is the cyclic shift, (M Q)(i, j) =
    M(i, j-1) and (Q^-1 M)(i, j) = M(i-1, j) (indices mod d), and Q^d = I.

    1. Forward's law.  Every tensor slot is T_b (x) b + T_a (x) a, with
       T_b = diag(zeta^I) and T_a = Q, and slot p of the sum of shifts is
       I_d (x) a - W_p (x) b, with W_p = diag_i(c_(p+i mod d)).  By the
       mixed-product rule (A (x) B)(C (x) D) = AC (x) BD, forward's slot p,
       (A_p (x) I)(T_b (x) b + T_a (x) a) = (I_d (x) a - W_p (x) b)(A_(p+1) (x) I),
       is A_p T_b (x) b + A_p T_a (x) a = A_(p+1) (x) a - W_p A_(p+1) (x) b,
       which holds when A_p T_a = A_(p+1) and A_p T_b = -W_p A_(p+1).  The
       stored tensor slots, slots of the sum of shifts and components of
       forward are compared with these forms as data (no product).  Both
       identities come from slot 0:
       * A_k's row is A_0's rotated right by k places (a comparison of
         rows), so A_k(i, j) = A_0(i, j-k), that is A_k = A_0 Q^k, and
         A_p T_a = A_0 Q^(p+1) = A_(p+1) at every slot (Q^d = I), with no
         product.
       * When b = 0 the twist term vanishes.  Otherwise w^2 = zeta: block
         (1, 1) of a tensor slot is zeta b, and of the form it is compared
         with, w^2 b; and zeta^d = 1, since `tensor` checks that zeta is a
         primitive d-th root.  So w^(2d) = 1, and Q^p T_b = w^(2p) T_b Q^p:
         (Q T_b)(i, j) = [j = i+1] zeta^j = zeta (T_b Q)(i, j), the wrap
         entry (d-1, 0) included because zeta^d = 1.  And W_p = w^(2p) W_0,
         since c_(p+i mod d) = w^(2(p+i)+1) = w^(2p) c_i, again by
         w^(2d) = 1.  So from A_0 T_b = -W_0 A_1, multiplied out once on
         the circulants of rows 0 and 1,
         A_p T_b = A_0 Q^p T_b = w^(2p) A_0 T_b Q^p
                 = -w^(2p) W_0 A_0 Q^(p+1) = -W_p A_(p+1).
       The slot-0 identity holds for the closed form: with m = j - i,
       p(m-1) = p(m) + 2m - 1 - d, so (W_0 A_1)(i, j) = w^(2i+1 + p(m-1))
       = w^(p(m) + 2j - d) = -(A_0 T_b)(i, j).
    2. Z validates.  a and b commute (both products are kron(phi, psi)), so
       Z's cyclic product from every start is the product of all the
       a - c_q b, in any order.  When the c_q are pairwise distinct and
       c_q^d = -1, they are the d roots of t^d + 1, so that product is
       a^d + b^d = kron(phi^d, I_m) + kron(I_n, psi^d) = (f_x + f_y) I_nm
       by the validations of x and y, which `tensor` requires.  Only the
       c_q are checked; Z's report is derived: d passing entries without
       detail, the report `validate` would compute.
    3. The round trip.  A_0 and A_0^-1 are circulants by representation,
       whatever rows `_alpha` writes.  Circulants are the polynomials in
       Q, a commutative algebra, so A_0^-1 A_0 is a circulant, fixed by its
       first row: it is I_d exactly when that row, A_0^-1's row times A_0,
       is e_0 (d^2 products).  A_k^-1's row is A_0^-1's rotated left by k
       places (a comparison of rows), so A_k^-1(i, j) = A_0^-1(i-k, j),
       that is A_k^-1 = Q^-k A_0^-1, and A_k^-1 A_k = Q^-k (A_0^-1 A_0) Q^k
       = I_d.  A left inverse of a square matrix over a field is also a
       right inverse, and lifting into the ring and taking kron with I_nm
       is a ring homomorphism, so these are the round trips at rank dnm.

    Backward's law follows from forward's and the round trip: forward's slot
    p, multiplied by A_p^-1 on the left and by A_(p+1)^-1 on the right, is
    backward's slot p, Phi_p A_(p+1)^-1 = A_p^-1 Phi'_p (with backward's
    components compared, as data, with the lifted inverses).  Both kept laws
    are derived (`_derived`), one entry per slot naming its lemma.  Two
    morphisms inverse to each other are isomorphisms, so `is_isomorphism()`
    of both reads backward's verdict and computes no determinant.  The
    conditions are sufficient, not necessary (a and b may be dependent, as
    when x and y use one variable), so a derived entry may fail where the
    computed law would hold, but never the reverse; for the closed-form
    witnesses they hold on every input.  No verdict rests on the closed
    forms: a wrong alpha_k fails forward's identities, a wrong inverse the
    round trip.
    """
    if x.ring is not y.ring and x.ring != y.ring:
        raise MatfacError("factors live over different rings")
    if x.d != ctx.d or y.d != ctx.d:
        raise MatfacError("context and factorizations disagree on d")
    for p in range(x.d):
        if x.mats[p] != x.mats[0]:
            raise MatfacError(
                "first factor is not shift-symmetric: TX == X requires all "
                f"matrices equal, but slot {p} differs from slot 0"
            )
        if y.mats[p] != y.mats[0]:
            raise MatfacError(
                "second factor is not shift-symmetric: TY == Y requires all "
                f"matrices equal, but slot {p} differs from slot 0"
            )

    d = ctx.d
    ring, field = x.ring, ctx.field
    t = tensor(x, y, ctx.zeta)

    a = x.mats[0].kron(Matrix.identity(ring, y.n))
    b = Matrix.identity(ring, x.n).kron(y.mats[0])
    c = [ctx.omega_pow(2 * q + 1) for q in range(d)]
    pencils = [a - b.scale(cq) for cq in c]
    summand = MatFac(ring, t.f, pencils)
    total = summand.direct_sum(*(summand.shift(i) for i in range(1, d)))

    ident_nm = Matrix.identity(ring, x.n * y.n)
    rows = [_alpha(ctx, k) for k in range(d)]
    inv_rows = [_alpha(ctx, k, inverse=True) for k in range(d)]

    def lifted(row):  # its circulant, lifted into the ring, (x) I_nm
        return Matrix.circulant(ring, map(ring.scalar, row)).kron(ident_nm)

    comps = [lifted(row) for row in rows]
    inv_comps = [lifted(row) for row in inv_rows]
    forward = Morphism(source=t, target=total, comps=comps)
    backward = Morphism(source=total, target=t, comps=inv_comps)

    # lemmas 1 and 3: A_k's row is A_0's rotated right by k, A_k^-1's is
    # A_0^-1's rotated left by k
    rotated = [all(rows[k] == rows[0][d - k:] + rows[0][:d - k] for k in range(d)),
               all(inv_rows[k] == inv_rows[0][k:] + inv_rows[0][:k] for k in range(d))]

    # lemma 1: the stored forms as data, then the twist identity at slot 0
    t_a = Matrix.weighted_permutation(field, [((j - 1) % d, field.one()) for j in range(d)])
    t_b = Matrix.weighted_permutation(field, [(i, ctx.omega_pow(2 * i)) for i in range(d)])
    w_0 = Matrix.weighted_permutation(field, list(enumerate(c)))
    tensor_slot = t_b.map(ring.scalar, ring).kron(b) + t_a.map(ring.scalar, ring).kron(a)
    held = [s == e for s, e in zip(forward.comps, comps)]
    a_0, a_1 = Matrix.circulant(field, rows[0]), Matrix.circulant(field, rows[1])
    twist = _check_slots([(a_0 @ t_b, -(w_0 @ a_1))]).entries[0]
    carried = [what for what, ok in (
        ("A_k = A_0 Q^k", rotated[0]),
        (f"A_0 T_b = -W_0 A_1, {twist.detail}", twist.ok)) if not ok]
    entries = []
    for p in range(d):
        failed = [what for what, ok in (
            ("tensor slot", t.mats[p] == tensor_slot),
            ("slot of the sum of shifts",
             total.mats[p] == Matrix.block_diagonal(ring, pencils[p:] + pencils[:p])),
            (f"component {p}", held[p]),
            (f"component {(p + 1) % d}", held[(p + 1) % d])) if not ok] + carried
        detail = f"from the d x d identities at slot {p} by the mixed-product rule"
        entries.append(ValidationEntry(
            start=p, ok=not failed,
            detail=f"{detail}; fails: {'; '.join(failed)}" if failed else detail))
    _derived(forward, entries)

    # lemma 2: the c_q are the d roots of t^d + 1
    minus_one = -field.one()
    roots = len(set(c)) == d and all(cq ** d == minus_one for cq in c)
    _derived(summand, [ValidationEntry(
        start=s, ok=roots, detail=None if roots else "the c_q are not the d roots of t^d + 1")
        for s in range(d)])

    # lemma 3: the first row of A_0^-1 A_0 is e_0
    e_0 = Matrix(field, [[field.one()] + [field.zero()] * (d - 1)])
    round_trip = all(rotated) and Matrix(field, [inv_rows[0]]) @ a_0 == e_0

    report = ValidationReport(entries + [
        ValidationEntry(start=-1, ok=summand.validate().passed, detail="summand validates"),
        ValidationEntry(start=-3, ok=round_trip, detail="witnesses are mutually inverse")])
    inv_held = [s == e for s, e in zip(backward.comps, inv_comps)]
    certified = _derived(backward, [
        ValidationEntry(start=e.start, ok=e.ok and round_trip and inv_held[e.start]
                        and inv_held[(e.start + 1) % d],
                        detail=f"from forward's law at slot {e.start} and the round trip")
        for e in entries]).passed
    forward._iso = backward._iso = certified
    return SymmetricDecomposition(summand=summand, total=total,
                                  forward=forward, backward=backward,
                                  report=report)
