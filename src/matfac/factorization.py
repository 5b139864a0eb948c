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
from dataclasses import dataclass, field as dc_field, replace

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
    """Entries and their verdict: the report passes when every entry does,
    a rule stated here and nowhere else."""

    entries: list[ValidationEntry]
    passed: bool = dc_field(init=False)

    def __post_init__(self):
        self.passed = all(e.ok for e in self.entries)

    def __bool__(self):
        return self.passed


def _check_slots(pairs) -> ValidationReport:
    """The package's one slot-by-slot identity check: slot i holds when the
    i-th pair (got, want) of matrices are equal.

    Failures are entries, not errors; a failing slot names its first wrong
    entry (row, column and the value found there): the first row whose
    nonzero entries differ, and in it the smallest column of a (column,
    entry) pair that only one side holds, so a failure costs what the
    nonzeros cost.  Pairs are consumed one at a time, so a generator keeps
    only one slot's products alive.  The verdict `passed` is the report
    type's own, read from the entries.
    """
    entries = []
    for i, (g, w) in enumerate(pairs):
        ok = g == w
        detail = None
        if not ok:
            bad = next(((r, min(c for c, _ in set(got) ^ set(want)))
                        for r, (got, want) in enumerate(zip(g.nonzero(), w.nonzero()))
                        if got != want), None)
            if bad is not None:
                detail = f"entry ({bad[0]},{bad[1]}): got {g[bad]}"
        entries.append(ValidationEntry(start=i, ok=ok, detail=detail))
    return ValidationReport(entries)


def _derived(obj, entries: list[ValidationEntry]) -> ValidationReport:
    """Store on obj, as its kept report, the entries a lemma gives without
    computing them, and return that report.

    The package's one writer of a report that is not computed; every caller
    states the lemma its entries rest on.  `ValidationReport` reads `passed`
    from the entries, as for every report, and the memo method (`validate`,
    `is_morphism`) returns the report from then on.
    """
    obj._report = ValidationReport(entries)
    return obj._report


def _run_product(x, start: int, count: int) -> Matrix:
    """phi_start phi_{start+1} ... phi_{start+count-1}: count consecutive factors."""
    prod = x.phi(start)
    for k in range(start + 1, start + count):
        prod = prod @ x.phi(k)
    return prod


class _Factorization:
    """The core of `MatFac` and `JetMatFac`: the data, its one constructor
    check, the accessors and the one cyclic-product check.

    The twins differ only in their scalar space (the ring, or
    `JetSpace(ring, N)`), which they hand to this constructor.  The check:
    d >= 2, every factor a square n x n `Matrix` over that space, and f in
    the ring.
    """

    # _report is set on the first validate() call, or by a construction that
    # derives it (`_derived`), and absent until then
    __slots__ = ("ring", "f", "mats", "d", "n", "_report")

    def __init__(self, ring: PolynomialRing, f: Polynomial, mats, space):
        mats = tuple(mats)
        if len(mats) < 2:
            raise ValueError("a matrix factorization needs d >= 2 matrices")
        n = mats[0].nrows
        for m in mats:
            if not isinstance(m, Matrix) or m.space != space:
                raise ValueError(f"factors must be matrices over {space!r}")
            if m.shape != (n, n):
                raise ValueError(f"all factors must be {n}x{n}; got {m.shape}")
        if not isinstance(f, Polynomial) or f.ring != ring:
            raise ValueError("f lives in a different ring")
        self.ring = ring
        self.f = f
        self.mats = mats
        self.d = len(mats)
        self.n = n

    def phi(self, k: int) -> Matrix:
        """The 1-based factor phi_k (k taken modulo d; phi_0 is the last slot)."""
        return self.mats[(k - 1) % self.d]

    @property
    def rank(self) -> int:
        return self.n

    def _cyclic_report(self, f_scalar) -> ValidationReport:
        """All d cyclic products against f*I, f being `f_scalar` in the
        factors' space.  Failures are entries, not errors."""
        target = Matrix.scalar(self.mats[0].space, self.n, f_scalar)
        return _check_slots((_run_product(self, i, self.d), target) for i in range(self.d))


class MatFac(_Factorization):
    """A d-fold matrix factorization of `f` over `ring`.

    Construction checks shapes only; call `validate()` for the defining
    identity (it is a report, not an exception, so near-miss data can be
    inspected).
    """

    __slots__ = ()

    def __init__(self, ring: PolynomialRing, f: Polynomial, mats):
        super().__init__(ring, f, mats, ring)

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
        """Check all d cyclic products against f*I.  Failures are entries, not errors.

        Computed once per factorization: a MatFac is immutable, so the stored
        report cannot go stale.
        """
        if not hasattr(self, "_report"):
            self._report = self._cyclic_report(self.f)
        return self._report

    # -- structural operations ----------------------------------------------------

    def shift(self, i: int = 1) -> MatFac:
        """The i-th shift T^i X: rotate the stored tuple by i positions.

        T^i X's cyclic product from slot s is X's from slot s + i, the same
        product of the same matrices, so a validation X already holds is
        carried over (`_derived`), renumbered, not redone: entry s of T^i X's
        report is entry s + i of X's, detail included.
        """
        d = self.d
        out = MatFac(self.ring, self.f, [self.mats[(p + i) % d] for p in range(d)])
        if hasattr(self, "_report"):
            entries = self._report.entries
            _derived(out, [replace(entries[(s + i) % d], start=s) for s in range(d)])
        return out

    def direct_sum(self, *others: MatFac) -> MatFac:
        """X (+) Y_1 (+) ... (+) Y_r: slot p is the block-diagonal matrix of
        the summands' slots p, in order, formed once, so a sum of many
        summands makes no intermediate sums.  `x.direct_sum(y)` is the
        binary sum."""
        if any(o.ring != self.ring or o.d != self.d or o.f != self.f for o in others):
            raise MatfacError("direct sum requires matching ring, d, and f")
        return MatFac(self.ring, self.f, [
            Matrix.block_diagonal(self.ring, slot)
            for slot in zip(self.mats, *(o.mats for o in others))])

    def is_reduced(self) -> bool:
        """True iff every entry of every factor vanishes at the origin."""
        return all(p.constant_term().is_zero()
                   for m in self.mats for row in m.nonzero() for _, p in row)

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


class JetMatFac(_Factorization):
    """A factorization whose entries are known only modulo total degree N.

    Produced by localized operations (idempotent splitting); the defining
    identity is asserted modulo degree N.
    """

    __slots__ = ("precision",)

    def __init__(self, ring: PolynomialRing, f: Polynomial, precision: int, mats):
        super().__init__(ring, f, mats, JetSpace(ring, precision))
        self.precision = precision

    def validate(self) -> ValidationReport:
        """Cyclic products == f*I modulo degree N, for every start (computed once)."""
        if not hasattr(self, "_report"):
            self._report = self._cyclic_report(Jet(self.f, self.precision))
        return self._report

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
