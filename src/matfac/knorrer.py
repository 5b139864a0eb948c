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
slot p is A - w^(2p+1) B.  Everything is certified exactly: the alpha
determinants factor into root sums, each of which multiplies with its
conjugate sum to the integer d, so invertibility never rests on a numeric
rank guess.

Index conventions match the rest of the package: matrices in a tuple are
0-based with slot p holding the component whose 1-based label is p+1, and
exponents of w are reduced mod 2d (p(m) is well defined there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloElem, CycloField
from .errors import MatfacError
from .factorization import MatFac, ValidationEntry, ValidationReport
from .linalg import Matrix, inverse_field
from .morphisms import Morphism, _intertwining_report
from .rings import PolynomialRing
from .tensor import tensor

__all__ = [
    "OmegaContext", "omega_context", "root_sum", "alpha_matrix",
    "block_diagonalize", "decompose_symmetric", "SymmetricDecomposition",
]


@dataclass(frozen=True)
class OmegaContext:
    """A primitive 2d-th root of unity w, its square, and 1/d, in one field.

    zeta is always w^2 (a primitive d-th root); inv_d is the inverse of d in
    the coefficient field, carried along because the diagonalization lives
    over a ring where d must be invertible.
    """

    d: int
    omega: CycloElem
    zeta: CycloElem
    inv_d: CycloElem

    @property
    def field(self) -> CycloField:
        return self.omega.field

    def omega_pow(self, e: int) -> CycloElem:
        return self.omega ** (e % (2 * self.d))


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
        if zeta.multiplicative_order(limit=2 * d) != d:
            raise MatfacError(f"zeta is not a primitive {d}-th root of unity")
        omega = -zeta
    if omega.multiplicative_order(limit=4 * d) != 2 * d:
        raise MatfacError(f"omega is not a primitive {2 * d}-th root of unity")
    field = omega.field
    zeta_sq = omega * omega
    # sanity: the defining identities of the context
    if omega ** d != -field.one():
        raise MatfacError(f"omega^{d} is not -1")
    if zeta_sq.multiplicative_order(limit=2 * d) != d:
        raise MatfacError(f"omega^2 is not a primitive {d}-th root of unity")
    return OmegaContext(d=d, omega=omega, zeta=zeta_sq,
                        inv_d=field.rational(Fraction(1, d)))


def _pexp(d: int, m: int) -> int:
    """The exponent polynomial -m^2 + d*m, reduced mod 2d.

    Replacing m by m + d changes the value by -2md - d^2 + d^2 = -2md, a
    multiple of 2d, so powers of w indexed by residues mod d are well
    defined without any parity hypothesis.
    """
    return (-m * m + d * m) % (2 * d)


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

    Entries depend only on (j - i) mod d, so the determinant factors over
    the d-th roots of unity into the sums w^(2sk) * root_sum(d + 2s),
    s = 1..d; each factor is a unit, and the computed determinant is checked
    against the product, so the returned matrix is certifiably invertible.
    """
    d = ctx.d
    field = ctx.field
    rows = [[ctx.omega_pow(_pexp(d, j - i - k)) for j in range(d)]
            for i in range(d)]
    mat = Matrix(field, rows)
    expected_det = field.one()
    for s in range(1, d + 1):
        factor = ctx.omega_pow(2 * s * k) * root_sum(ctx, d + 2 * s)
        expected_det = expected_det * factor
    if mat.det() != expected_det:
        raise MatfacError("circulant determinant mismatch")
    return mat


def _lift_scalar_matrix(mat: Matrix, space) -> Matrix:
    """View a field matrix inside `space` (a polynomial ring or the field)."""
    if isinstance(space, PolynomialRing):
        return mat.map(space.scalar, space)
    if space is not mat.space:
        raise MatfacError("scalar matrix lives over a different field")
    return mat


def block_diagonalize(ctx: OmegaContext, a: Matrix, b: Matrix):
    """Conjugate the cyclic block matrix built on a commuting pair to pencils.

    Builds Phi with diagonal blocks w^(2I) * b (I = 0..d-1), superdiagonal
    blocks a and the wrap-around a in the lower-left corner, then verifies

        alpha_(k-1) Phi == Phi'_k alpha_k        for every k in Z_d,

    where Phi'_k is block diagonal with blocks a - w^(2k + 2I - 1) b and the
    alphas are the circulant scalar matrices blown up to block size.
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
    n = a.nrows
    space = a.space
    zero = Matrix.zero(space, n, n)
    grid = [[zero for _ in range(d)] for _ in range(d)]
    for i in range(d):
        grid[i][i] = b.scale(ctx.omega_pow(2 * i))
        grid[i][(i + 1) % d] = a
    phi = Matrix.block(space, grid)

    ident = Matrix.identity(space, n)
    alphas = [
        _lift_scalar_matrix(alpha_matrix(ctx, k), space).kron(ident)
        for k in range(d)
    ]
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

    @property
    def witnesses(self) -> list[Morphism]:
        return [self.forward, self.backward]


def decompose_symmetric(x: MatFac, y: MatFac, ctx: OmegaContext) -> SymmetricDecomposition:
    """Split X (x) Y into the d shifts of one factorization Z.

    Both inputs must be strictly shift-symmetric: every matrix of the tuple
    equal, as data, to the first one (that is what TX == X means here; mere
    isomorphism to the shift is not enough for this construction).  The
    tensor is taken at the context's twist w^2.  The summand Z has slot p
    equal to kron(phi, I) - w^(2p+1) kron(I, psi); the direct sum of its
    shifts T^0 Z, ..., T^(d-1) Z literally equals the conjugated diagonal
    form, and the circulant alphas give exact isomorphisms both ways.
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
    ring = x.ring
    t = tensor(x, y, ctx.zeta)

    phi = x.mats[0]
    psi = y.mats[0]
    ident_n = Matrix.identity(ring, x.n)
    ident_m = Matrix.identity(ring, y.n)
    a = phi.kron(ident_m)
    b = ident_n.kron(psi)

    summand = MatFac(ring, t.f, [
        a - b.scale(ctx.omega_pow(2 * p + 1)) for p in range(d)
    ])

    total = summand
    for i in range(1, d):
        total = total.direct_sum(summand.shift(i))

    # The direct sum of the shifts is, slot for slot, the diagonalized form
    # of the (constant-in-k) tensor component, so the circulant alphas are
    # the whole isomorphism.
    nm = x.n * y.n
    ident_nm = Matrix.identity(ring, nm)
    alpha_blocks = []
    alpha_inv_blocks = []
    for k in range(d):
        scalar = alpha_matrix(ctx, k)
        alpha_blocks.append(_lift_scalar_matrix(scalar, ring).kron(ident_nm))
        alpha_inv_blocks.append(
            _lift_scalar_matrix(inverse_field(scalar), ring).kron(ident_nm))

    forward = Morphism(source=t, target=total, comps=alpha_blocks)
    backward = Morphism(source=total, target=t, comps=alpha_inv_blocks)

    # forward's intertwining law is the conjugation identity, slot by slot
    entries = _intertwining_report(forward.comps, t.mats, total.mats).entries
    entries.append(ValidationEntry(
        start=-1, ok=summand.validate().passed, detail="summand validates"))
    entries.append(ValidationEntry(
        start=-2, ok=total.validate().passed, detail="sum of shifts validates"))
    round_trip = (backward.compose(forward) == Morphism.identity(t)
                  and forward.compose(backward) == Morphism.identity(total))
    entries.append(ValidationEntry(
        start=-3, ok=round_trip, detail="witnesses are mutually inverse"))
    report = ValidationReport(entries=entries, passed=all(e.ok for e in entries))
    return SymmetricDecomposition(summand=summand, total=total,
                                  forward=forward, backward=backward,
                                  report=report)
