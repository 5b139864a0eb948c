"""Morphisms of matrix factorizations and their jet-level linear algebra.

A morphism alpha: X -> X' is a tuple of matrices alpha_0, ..., alpha_{d-1}
(alpha_k maps the degree-k piece of X to the degree-k piece of X') subject to
the intertwining identities alpha_{k-1} phi_k = phi'_k alpha_k.  With the
storage convention of the factorization module this reads, for every slot p,

    comps[p] @ source.mats[p] == target.mats[p] @ comps[(p+1) % d]

which is the single law everything in this module checks against.

Two genuinely local computations are done at jet precision N:

* `hom_space_jets` solves the intertwining equations on all jet coefficients
  below degree N by exact elimination over the coefficient field.  Any exact
  morphism truncates to a solution, so an empty (or too-small) solution space
  soundly refutes existence; a solution found is only a candidate, since jet
  solutions need not lift.
* `split_idempotent` realizes an exact idempotent endomorphism as a direct
  sum decomposition, changing basis by columns of e and 1-e and inverting at
  precision N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycloElem
from .errors import MatfacError
from .factorization import (
    JetMatFac,
    MatFac,
    ValidationReport,
    _check_slots,
    default_precision,
)
from .linalg import (
    JetSpace,
    Matrix,
    jet_inverse,
    rank,
    rref,
    solve_right,
    sparse_nullspace,
)
from .rings import Jet, Polynomial, PolynomialRing, grlex_key


def _intertwining_report(comps, src, tgt) -> ValidationReport:
    """The law comps[p] @ src[p] == tgt[p] @ comps[(p+1) % d], slot by slot."""
    d = len(comps)
    return _check_slots((comps[p] @ src[p], tgt[p] @ comps[(p + 1) % d])
                        for p in range(d))


def _is_isomorphism(alpha) -> bool:
    """True iff alpha is a morphism and every component is invertible over
    the local ring at the origin (constant-term determinant nonzero)."""
    if alpha.source.n != alpha.target.n:
        return False
    if not alpha.is_morphism():
        return False
    return all(not c.constant_terms().det().is_zero() for c in alpha.comps)


class Morphism:
    """A morphism of d-fold factorizations with exact polynomial components."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: MatFac, target: MatFac, comps):
        comps = tuple(comps)
        if source.ring != target.ring or source.d != target.d or source.f != target.f:
            raise MatfacError("morphism endpoints must share ring, d, and f")
        if len(comps) != source.d:
            raise ValueError(f"need {source.d} components, got {len(comps)}")
        for c in comps:
            if c.space != source.ring:
                raise ValueError("components must be matrices over the shared ring")
            if c.shape != (target.n, source.n):
                raise ValueError(
                    f"component shape {c.shape} != (target rank {target.n}, source rank {source.n})"
                )
        self.source = source
        self.target = target
        self.comps = comps

    # -- basics ---------------------------------------------------------------

    def component(self, k: int) -> Matrix:
        """alpha_k, index modulo d."""
        return self.comps[k % self.source.d]

    @classmethod
    def identity(cls, x: MatFac) -> Morphism:
        ident = Matrix.identity(x.ring, x.n)
        return cls(source=x, target=x, comps=[ident] * x.d)

    def is_morphism(self) -> bool:
        return _intertwining_report(self.comps, self.source.mats, self.target.mats).passed

    def compose(self, other: Morphism) -> Morphism:
        """self after other (source of self must be target of other)."""
        if other.target != self.source:
            raise MatfacError("composition mismatch: target of inner != source of outer")
        return Morphism(
            source=other.source,
            target=self.target,
            comps=[a @ b for a, b in zip(self.comps, other.comps)],
        )

    def direct_sum(self, other: Morphism) -> Morphism:
        return Morphism(
            source=self.source.direct_sum(other.source),
            target=self.target.direct_sum(other.target),
            comps=[
                Matrix.block_diagonal(self.source.ring, [a, b])
                for a, b in zip(self.comps, other.comps)
            ],
        )

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.source, self.target, self.comps))

    def __repr__(self):
        return f"Morphism(d={self.source.d}, {self.source.n} -> {self.target.n})"

    # -- invertibility -----------------------------------------------------------

    is_isomorphism = _is_isomorphism

    def inverse_jets(self, precision: int | None = None) -> JetMorphism:
        """Inverse witness at jet precision (the exact inverse need not be
        polynomial).  Requires is_isomorphism()."""
        if not self.is_isomorphism():
            raise MatfacError("inverse witness requested for a non-isomorphism")
        n = precision if precision is not None else default_precision(
            self.source, self.target, *self.comps
        )
        inv_comps = [jet_inverse(c.to_jets(n)) for c in self.comps]
        return JetMorphism(
            source=self.target, target=self.source, comps=inv_comps, precision=n
        )

    def to_jets(self, precision: int) -> JetMorphism:
        return JetMorphism(
            source=self.source,
            target=self.target,
            comps=[c.to_jets(precision) for c in self.comps],
            precision=precision,
        )


def _mats_as_jets(x, precision: int):
    """Factor matrices of a MatFac or JetMatFac, as jets at the given precision."""
    if not isinstance(x, (MatFac, JetMatFac)):
        raise TypeError(f"expected a factorization, got {type(x).__name__}")
    if isinstance(x, JetMatFac) and x.precision < precision:
        raise MatfacError(
            f"factorization known only to degree {x.precision} < requested {precision}"
        )
    return tuple(m.to_jets(precision) for m in x.mats)


class JetMorphism:
    """A morphism whose components are known modulo total degree N.

    Endpoints may be exact factorizations or jet-level ones; all identities
    are asserted modulo degree N.
    """

    __slots__ = ("source", "target", "comps", "precision")

    def __init__(self, source, target, comps, precision: int):
        comps = tuple(comps)
        d = source.d
        if target.d != d or source.ring != target.ring:
            raise MatfacError("jet morphism endpoints must share ring and d")
        space = JetSpace(source.ring, precision)
        for c in comps:
            if c.space != space:
                raise ValueError("components must be jet matrices at the stated precision")
            if c.shape != (target.n, source.n):
                raise ValueError("component shape mismatch")
        self.source = source
        self.target = target
        self.comps = comps
        self.precision = precision

    def component(self, k: int) -> Matrix:
        return self.comps[k % self.source.d]

    def is_morphism(self) -> bool:
        src = _mats_as_jets(self.source, self.precision)
        tgt = _mats_as_jets(self.target, self.precision)
        return _intertwining_report(self.comps, src, tgt).passed

    is_isomorphism = _is_isomorphism

    def __repr__(self):
        return (
            f"JetMorphism(d={self.source.d}, {self.source.n} -> {self.target.n}, "
            f"N={self.precision})"
        )


# -- jet-level hom spaces ------------------------------------------------------


def _monomials_below(ring: PolynomialRing, bound: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree < bound, in ascending graded-lex order."""
    nv = len(ring.vars)
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    for total in range(bound):
        start = len(out)
        rec([], total, nv)
        # keep only exact-degree tuples for this level, sorted grlex
        level = [e for e in out[start:] if sum(e) == total]
        del out[start:]
        out.extend(sorted(level, key=grlex_key))
    return out


@dataclass
class JetHomBasis:
    """Basis of the space of jet-level morphism solutions below degree N.

    `basis[b]` is a d-tuple of jet matrices; `vectors[b]` is the same data as
    a sparse coordinate map in the (k, i, j, monomial) unknown order recorded
    in `monomials`.
    """

    source: MatFac
    target: MatFac
    precision: int
    monomials: list[tuple[int, ...]]
    vectors: list[dict[int, CycloElem]]
    basis: list[tuple[Matrix, ...]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _unknown_index(self, k: int, i: int, j: int, midx: int) -> int:
        nm = len(self.monomials)
        return ((k * self.target.n + i) * self.source.n + j) * nm + midx

    def vectorize(self, alpha: Morphism) -> dict[int, CycloElem]:
        """Flatten a morphism's truncation into the unknown coordinate order."""
        mono_pos = {m: idx for idx, m in enumerate(self.monomials)}
        bound = self.precision
        vec: dict[int, CycloElem] = {}
        for k in range(self.source.d):
            comp = alpha.comps[k]
            for i in range(self.target.n):
                for j in range(self.source.n):
                    for mono, c in comp[i, j].terms.items():
                        if sum(mono) < bound:
                            vec[self._unknown_index(k, i, j, mono_pos[mono])] = c
        return vec

    def contains_truncation(self, alpha: Morphism) -> bool:
        """Whether alpha's truncation below N lies in the span of the basis."""
        field = self.source.ring.field
        w = self.vectorize(alpha)
        if not self.vectors:
            return not w
        support = sorted(set().union(*[set(v) for v in self.vectors], set(w)))
        zero = field.zero()
        cols = Matrix(
            field,
            [[v.get(idx, zero) for v in self.vectors] for idx in support],
        )
        rhs = Matrix(field, [[w.get(idx, zero)] for idx in support])
        return solve_right(cols, rhs) is not None


def hom_space_jets(source: MatFac, target: MatFac, precision: int | None = None) -> JetHomBasis:
    """Solve the intertwining equations on jet coefficients below `precision`.

    Unknowns: all coefficients of all component entries on monomials of
    degree < N.  Equations: the residual comps[p] @ src[p] - tgt[p] @ comps[p+1]
    must vanish in every coefficient of degree < N + delta, where delta = 1
    if both factorizations are reduced (their entries then raise degrees by
    at least one, so a degree-N cutoff of a true morphism still satisfies the
    degree-N equations; without reducedness delta = 0 keeps the system sound).

    Soundness: the truncation of any exact morphism solves this system, so
    dimension 0 here means there are no nonzero morphisms at all.
    """
    if source.ring != target.ring or source.d != target.d or source.f != target.f:
        raise MatfacError("hom space endpoints must share ring, d, and f")
    ring = source.ring
    field = ring.field
    d = source.d
    n_src, n_tgt = source.n, target.n
    if precision is None:
        precision = default_precision(source, target)
    monos = _monomials_below(ring, precision)
    nm = len(monos)
    mono_pos = {m: idx for idx, m in enumerate(monos)}
    nunk = d * n_tgt * n_src * nm

    def unk(k, i, j, midx):
        return ((k * n_tgt + i) * n_src + j) * nm + midx

    delta = 1 if (source.is_reduced() and target.is_reduced()) else 0
    bound = precision + delta

    # Assemble the equation rows, keyed by (p, i, j, residual monomial), each a
    # sparse map from unknown index to coefficient.
    rows: list[dict[int, CycloElem]] = []
    zero = field.zero()
    for p in range(d):
        a = source.mats[p]
        b = target.mats[p]
        q = (p + 1) % d
        for i in range(n_tgt):
            for j in range(n_src):
                acc: dict[tuple[int, ...], dict[int, CycloElem]] = {}
                for t in range(n_src):
                    poly = a[t, j]
                    for e, c in poly.terms.items():
                        for midx, m in enumerate(monos):
                            mu = tuple(x + y for x, y in zip(m, e))
                            if sum(mu) < bound:
                                col = unk(p, i, t, midx)
                                row = acc.setdefault(mu, {})
                                row[col] = row.get(col, zero) + c
                for s in range(n_tgt):
                    poly = b[i, s]
                    for e, c in poly.terms.items():
                        for midx, m in enumerate(monos):
                            mu = tuple(x + y for x, y in zip(m, e))
                            if sum(mu) < bound:
                                col = unk(q, s, j, midx)
                                row = acc.setdefault(mu, {})
                                row[col] = row.get(col, zero) - c
                for mu in sorted(acc, key=grlex_key):
                    colmap = {
                        col: c for col, c in acc[mu].items() if not c.is_zero()
                    }
                    if colmap:
                        rows.append(colmap)

    if nunk == 0:
        return JetHomBasis(source, target, precision, monos, [], [])
    kernel = sparse_nullspace(rows, nunk, field)

    space = JetSpace(ring, precision)
    basis = []
    for vec in kernel:
        comps = []
        for k in range(d):
            mat_rows = []
            for i in range(n_tgt):
                row = []
                for j in range(n_src):
                    terms = {}
                    for midx, mono in enumerate(monos):
                        c = vec.get(unk(k, i, j, midx))
                        if c is not None and not c.is_zero():
                            terms[mono] = c
                    row.append(Jet(Polynomial(ring, terms), precision))
                mat_rows.append(row)
            comps.append(Matrix(space, mat_rows))
        basis.append(tuple(comps))
    return JetHomBasis(source, target, precision, monos, kernel, basis)


def admits_invertible_combination(hom_basis: JetHomBasis) -> bool:
    """Whether some field combination of the basis has all components
    invertible at the origin.

    For each component k, form the symbolic constant-term matrix
    sum_b t_b * const(basis[b][k]) over fresh scalars t_b.  A combination with
    all components invertible exists iff every component's symbolic
    determinant is not identically zero: the field is infinite, and a finite
    product of nonzero polynomials has a non-vanishing point.

    A True here is only a candidate (jet solutions need not lift to exact
    morphisms); a False at any valid precision is a sound refutation.
    """
    src, tgt = hom_basis.source, hom_basis.target
    if src.n != tgt.n:
        return False
    if src.n == 0:
        return True
    nb = hom_basis.dimension
    if nb == 0:
        return False
    field = src.ring.field
    tring = PolynomialRing(field, [f"t{i + 1}" for i in range(nb)])
    tvars = [tring.variable(f"t{i + 1}") for i in range(nb)]
    for k in range(src.d):
        consts = [hom_basis.basis[b][k].constant_terms() for b in range(nb)]
        rows = []
        for i in range(src.n):
            row = []
            for j in range(src.n):
                entry = tring.zero()
                for b in range(nb):
                    c = consts[b][i, j]
                    if not c.is_zero():
                        entry = entry + tvars[b] * c
                row.append(entry)
            rows.append(row)
        if Matrix(tring, rows).det().is_zero():
            return False
    return True


# -- idempotent splitting -----------------------------------------------------


@dataclass
class SplitResult:
    rank_image: int
    image: JetMatFac
    complement: JetMatFac
    witness: JetMorphism    # from image (+) complement onto the original X


def _greedy_columns(candidates: Matrix, seed: list, want: int) -> list[int]:
    """Indices of columns of `candidates` that extend `seed` to an independent
    family, chosen greedily left to right.  `seed` is a list of column tuples."""
    field = candidates.space
    chosen: list[int] = []
    current = list(seed)
    current_rank = rank(Matrix(field, [list(c) for c in zip(*current)])) if current else 0
    for j in range(candidates.ncols):
        if len(chosen) == want:
            break
        trial = current + [candidates.column(j)]
        r = rank(Matrix(field, [list(c) for c in zip(*trial)]))
        if r > current_rank:
            chosen.append(j)
            current = trial
            current_rank = r
    if len(chosen) != want:
        raise MatfacError("could not select enough independent columns")
    return chosen


def split_idempotent(x: MatFac, e: Morphism, precision: int | None = None) -> SplitResult:
    """Split X along an exact idempotent endomorphism e = e*e.

    The image and complement factorizations are produced at jet precision N
    (basis-change inverses live in the local ring, not the polynomial ring).
    Basis per component: r columns of e_k plus n-r columns of (1-e)_k, chosen
    greedily leftmost among those independent at the origin; r is the shared
    origin-rank of the components.
    """
    if e.source is not x and e.source != x:
        raise MatfacError("idempotent must be an endomorphism of the given factorization")
    if e.target != e.source:
        raise MatfacError("idempotent must be an endomorphism")
    if not e.is_morphism():
        raise MatfacError("idempotent candidate is not a morphism")
    if e.compose(e) != e:
        raise MatfacError("endomorphism is not idempotent")
    if not x.validate().passed:
        raise MatfacError("factorization does not validate; refusing to split")
    if precision is None:
        precision = default_precision(x, *e.comps)

    ring = x.ring
    field = ring.field
    n = x.n
    d = x.d
    ident = Matrix.identity(ring, n)

    ranks = [rank(c.constant_terms()) for c in e.comps]
    if len(set(ranks)) > 1:
        raise MatfacError(
            f"origin-ranks of idempotent components disagree: {ranks} (corrupted input)"
        )
    r = ranks[0]

    u_mats = []
    for k in range(d):
        ek = e.comps[k]
        fk = ident - ek
        e0 = ek.constant_terms()
        _, e_pivots = rref(e0)
        e_cols = list(e_pivots)  # exactly r of them: rank checked above
        seed = [e0.column(j) for j in e_cols]
        f_cols = _greedy_columns(fk.constant_terms(), seed, n - r)
        cols = [ek.column(j) for j in e_cols] + [fk.column(j) for j in f_cols]
        u_mats.append(Matrix(ring, [list(rowvals) for rowvals in zip(*cols)]) if cols
                      else Matrix(ring, [[] for _ in range(n)] if n else []))

    u_jets = [u.to_jets(precision) for u in u_mats]
    v_jets = [jet_inverse(u) for u in u_jets]
    new_mats = [
        v_jets[p] @ x.mats[p].to_jets(precision) @ u_jets[(p + 1) % d]
        for p in range(d)
    ]

    img_mats, comp_mats = [], []
    for m in new_mats:
        top_right = m.submatrix(range(r), range(r, n))
        bottom_left = m.submatrix(range(r, n), range(r))
        if not (top_right.is_zero() and bottom_left.is_zero()):
            raise MatfacError(
                "basis change did not block-diagonalize the factors "
                "(idempotent fails to commute with the factorization)"
            )
        img_mats.append(m.submatrix(range(r), range(r)))
        comp_mats.append(m.submatrix(range(r, n), range(r, n)))

    image = JetMatFac(ring=ring, f=x.f, precision=precision, mats=img_mats)
    complement = JetMatFac(ring=ring, f=x.f, precision=precision, mats=comp_mats)
    summed = JetMatFac(
        ring=ring,
        f=x.f,
        precision=precision,
        mats=[
            Matrix.block_diagonal(JetSpace(ring, precision), [a, b])
            for a, b in zip(img_mats, comp_mats)
        ],
    )
    witness = JetMorphism(source=summed, target=x, comps=u_jets, precision=precision)
    return SplitResult(rank_image=r, image=image, complement=complement, witness=witness)
