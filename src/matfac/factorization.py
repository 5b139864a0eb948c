"""The d-fold matrix factorization type and its basic operations.

A d-fold matrix factorization of f consists of d square matrices
(phi_1, phi_2, ..., phi_{d-1}, phi_0) over a polynomial ring such that every
cyclic product of all d of them, in order, equals f times the identity.  The
tuple is stored in exactly that order: `mats[p]` holds phi_{p+1} for
p = 0..d-2 and `mats[d-1]` holds phi_0, so the 1-based accessor is
`phi(k) == mats[(k-1) % d]`.  Index arithmetic on k is always modulo d.

phi_k maps the degree-k piece to the degree-(k-1) piece; the shift functor T
rotates the tuple one step: (T X).mats[p] = X.mats[(p+1) % d].

Rank-0 factorizations are admitted (0x0 matrices); they are the identity for
direct sums and make summand bookkeeping uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclo import CycloElem
from .errors import MatfacError
from .linalg import JetSpace, Matrix
from .rings import Jet, Polynomial, PolynomialRing


@dataclass
class ValidationEntry:
    start: int          # the slot checked; a cyclic product begins at phi_start
    ok: bool
    detail: str | None = None


@dataclass
class ValidationReport:
    entries: list[ValidationEntry]
    passed: bool

    def __bool__(self):
        return self.passed


def _check_slots(pairs) -> ValidationReport:
    """The package's one slot-by-slot identity check: slot i holds when the
    i-th pair (got, want) of matrices are equal.

    Failures are entries, not errors; a failing slot names its first wrong
    entry (row, column and the value found there).  Pairs are consumed one
    at a time, so a generator keeps only one slot's products alive.
    """
    entries = []
    for i, (g, w) in enumerate(pairs):
        ok = g == w
        detail = None
        if not ok:
            bad = next(((r, c) for r in range(g.nrows) for c in range(g.ncols)
                        if g[r, c] != w[r, c]), None)
            if bad is not None:
                detail = f"entry ({bad[0]},{bad[1]}): got {g[bad]}"
        entries.append(ValidationEntry(start=i, ok=ok, detail=detail))
    return ValidationReport(entries=entries, passed=all(e.ok for e in entries))


def _run_product(x, start: int, count: int) -> Matrix:
    """phi_start phi_{start+1} ... phi_{start+count-1}: count consecutive factors."""
    prod = x.phi(start)
    for k in range(start + 1, start + count):
        prod = prod @ x.phi(k)
    return prod


class MatFac:
    """A d-fold matrix factorization of `f` over `ring`.

    Construction checks shapes only; call `validate()` for the defining
    identity (it is a report, not an exception, so near-miss data can be
    inspected).
    """

    __slots__ = ("ring", "f", "mats", "d", "n")

    def __init__(self, ring: PolynomialRing, f: Polynomial, mats):
        mats = tuple(mats)
        if len(mats) < 2:
            raise ValueError("a matrix factorization needs d >= 2 matrices")
        n = mats[0].nrows
        for m in mats:
            if not isinstance(m, Matrix) or m.space != ring:
                raise ValueError("factors must be matrices over the given ring")
            if m.shape != (n, n):
                raise ValueError(f"all factors must be {n}x{n}; got {m.shape}")
        if f.ring != ring:
            raise ValueError("f lives in a different ring")
        self.ring = ring
        self.f = f
        self.mats = mats
        self.d = len(mats)
        self.n = n

    # -- accessors -----------------------------------------------------------

    def phi(self, k: int) -> Matrix:
        """The 1-based factor phi_k (k taken modulo d; phi_0 is the last slot)."""
        return self.mats[(k - 1) % self.d]

    @property
    def rank(self) -> int:
        return self.n

    def __eq__(self, other):
        if not isinstance(other, MatFac):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.f == other.f
            and self.mats == other.mats
        )

    def __hash__(self):
        return hash((self.ring, self.f, self.mats))

    def __repr__(self):
        return f"MatFac(d={self.d}, n={self.n}, f={self.f})"

    # -- the defining identity --------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check all d cyclic products against f*I.  Failures are entries, not errors."""
        target = Matrix.scalar(self.ring, self.n, self.f)
        return _check_slots((_run_product(self, i, self.d), target) for i in range(self.d))

    # -- structural operations ----------------------------------------------------

    def shift(self, i: int = 1) -> MatFac:
        """The i-th shift T^i X: rotate the stored tuple by i positions."""
        d = self.d
        return MatFac(self.ring, self.f, [self.mats[(p + i) % d] for p in range(d)])

    def direct_sum(self, other: MatFac) -> MatFac:
        if other.ring != self.ring or other.d != self.d or other.f != self.f:
            raise MatfacError("direct sum requires matching ring, d, and f")
        return MatFac(
            self.ring,
            self.f,
            [
                Matrix.block_diagonal(self.ring, [a, b])
                for a, b in zip(self.mats, other.mats)
            ],
        )

    def is_reduced(self) -> bool:
        """True iff every entry of every factor vanishes at the origin."""
        return all(
            p.constant_term().is_zero()
            for m in self.mats
            for row in m.rows
            for p in row
        )

    def reduce_mod_vars(self, kill) -> MatFac:
        """Set the named variables to zero in every entry and in f."""
        kill = set(kill)
        return MatFac(
            self.ring,
            self.f.reduce_mod_vars(kill),
            [m.map(lambda p: p.reduce_mod_vars(kill)) for m in self.mats],
        )

    def cokernel_presentation(self, k: int, ell: int) -> PresentationMatrix:
        """The product phi_k phi_{k+1} ... phi_{k+ell-1} presenting a module
        over the hypersurface ring of f.  ell ranges over 1..d (ell = d gives f*I)."""
        if not 1 <= ell <= self.d:
            raise ValueError(f"ell must be in 1..{self.d}, got {ell}")
        return PresentationMatrix(matrix=_run_product(self, k, ell), ring=self.ring, f=self.f)

    def to_jets(self, precision: int) -> JetMatFac:
        return JetMatFac(
            ring=self.ring,
            f=self.f,
            precision=precision,
            mats=tuple(m.to_jets(precision) for m in self.mats),
        )

    def max_entry_degree(self) -> int:
        return max(m.max_degree() for m in self.mats)


@dataclass
class PresentationMatrix:
    """A square polynomial matrix presenting a module over the hypersurface of f."""

    matrix: Matrix
    ring: PolynomialRing
    f: Polynomial

    @property
    def size(self) -> int:
        return self.matrix.nrows

    def det(self) -> Polynomial:
        return self.matrix.det()


class JetMatFac:
    """A factorization whose entries are known only modulo total degree N.

    Produced by localized operations (idempotent splitting); the defining
    identity is asserted modulo degree N.
    """

    __slots__ = ("ring", "f", "precision", "mats", "d", "n")

    def __init__(self, ring: PolynomialRing, f: Polynomial, precision: int, mats):
        mats = tuple(mats)
        space = JetSpace(ring, precision)
        n = mats[0].nrows if mats else 0
        for m in mats:
            if m.space != space:
                raise ValueError("jet factors must share ring and precision")
            if m.shape != (n, n):
                raise ValueError("jet factors must be square of equal size")
        self.ring = ring
        self.f = f
        self.precision = precision
        self.mats = mats
        self.d = len(mats)
        self.n = n

    def phi(self, k: int) -> Matrix:
        return self.mats[(k - 1) % self.d]

    @property
    def rank(self) -> int:
        return self.n

    def validate(self) -> ValidationReport:
        """Cyclic products == f*I modulo degree N, for every start."""
        space = JetSpace(self.ring, self.precision)
        target = Matrix.scalar(space, self.n, Jet(self.f, self.precision))
        return _check_slots((_run_product(self, i, self.d), target) for i in range(self.d))

    def __repr__(self):
        return f"JetMatFac(d={self.d}, n={self.n}, f={self.f}, N={self.precision})"


# -- constructions ------------------------------------------------------------


def projective(ring: PolynomialRing, d: int, f: Polynomial, i: int = 0) -> MatFac:
    """The i-th indecomposable projective: T^i of (f, 1, 1, ..., 1), rank 1."""
    if not 0 <= i < d:
        raise ValueError(f"shift index must satisfy 0 <= i < d, got {i}")
    one = Matrix.identity(ring, 1)
    first = Matrix(ring, [[f]])
    base = MatFac(ring, f, [first] + [one] * (d - 1))
    return base.shift(i)


def scale_by_units(x: MatFac, units):
    """Scale the stored factors entrywise by units (c_1, ..., c_{d-1}, c_0).

    Requires the product of the units to be 1.  Returns the scaled
    factorization together with the isomorphism witness from it back to x,
    whose components are the scalars gamma_k = c_1 c_2 ... c_k (gamma_0 = 1):
    the intertwining recurrence gamma_{k} = gamma_{k-1} c_k closes up around
    the cycle exactly because the product of the units is 1.
    """
    from .morphisms import Morphism

    units = list(units)
    if len(units) != x.d:
        raise ValueError(f"need {x.d} units, got {len(units)}")
    units = [u if isinstance(u, CycloElem) else x.ring.field.rational(u) for u in units]
    if not math.prod(units, start=x.ring.field.one()).is_one():
        raise MatfacError("unit scaling requires the product of the units to be 1")
    scaled = MatFac(
        x.ring, x.f, [m.scale(x.ring.scalar(u)) for m, u in zip(x.mats, units)]
    )
    gammas = [x.ring.field.one()]
    for k in range(1, x.d):
        gammas.append(gammas[k - 1] * units[k - 1])
    comps = [
        Matrix.scalar(x.ring, x.n, x.ring.scalar(g)) for g in gammas
    ]
    witness = Morphism(source=scaled, target=x, comps=comps)
    return scaled, witness


def default_precision(*objects) -> int:
    """The package-wide default jet cutoff: 1 + max entry degree involved."""
    best = 0
    for obj in objects:
        if isinstance(obj, MatFac):
            best = max(best, obj.max_entry_degree())
        elif isinstance(obj, Matrix):
            best = max(best, obj.max_degree())
        else:
            raise TypeError(f"cannot take entry degrees of {type(obj).__name__}")
    return 1 + best
