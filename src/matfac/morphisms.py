"""Morphisms of matrix factorizations and their jet-level linear algebra.

A morphism alpha: X -> X' is a tuple of matrices alpha_0, ..., alpha_{d-1}
(alpha_k maps the degree-k piece of X to the degree-k piece of X') subject to
the intertwining identities alpha_{k-1} phi_k = phi'_k alpha_k.  With the
storage convention of the factorization module this reads, for every slot p,

    comps[p] @ source.mats[p] == target.mats[p] @ comps[(p+1) % d]

which is the single law everything in this module checks against.

Two genuinely local computations are done at jet precision N:

* `hom_space_jets` solves the intertwining equations on all jet coefficients
  below degree N, numbered by the one layout `_JetLayout`, with
  `sparse_nullspace`: the one-term equations force their unknowns to zero
  with no field operation, and exact elimination over the coefficient field
  solves the rest.  The rows are built on packed monomial keys: a residual
  monomial is one integer sum, and an integer sort is graded-lex order.
  Any exact morphism truncates to a solution, so an empty (or too-small)
  solution space soundly refutes existence; a solution found is only a
  candidate, since jet solutions need not lift.  The last slot's equations
  are implied by the others when both endpoints validate and are reduced
  and the degree-one part L_p of every target factor but the last has
  det L_p != 0: the residuals E_p = comps[p] src[p] - tgt[p] comps[p+1]
  satisfy the telescoping identity
  sum_p tgt[0]...tgt[p-1] E_p src[p+1]...src[d-1] = 0.  A linear factor
  (every nonzero entry homogeneous of degree 1) of an f != 0 is its own
  L_p, and a factor of f^n = det(f I), so det L_p != 0 with no field
  arithmetic.  When f != 0 and every target factor but the last is
  linear, the last slot's rows are not built (`_last_slot_implied`); any
  other target keeps them, which is always sound.
  The kernel vectors, in `_JetLayout` coordinates, are the only stored form
  of the solutions (`JetHomBasis.vectors`).  The layout's one reader is
  `JetHomBasis.constants()`, which gives the constant terms that
  `admits_invertible_combination` and `constant_term_spot_check` decide on
  (through `_JetLayout.constants`).  No other module reads the layout.
* `split_idempotent` realizes an exact idempotent endomorphism as a direct
  sum decomposition, changing basis by the columns of e and of 1-e at the
  rref pivots of their constant terms (idempotence makes them a basis at the
  origin) and inverting at precision N; the conjugated factors, checked
  block diagonal, are the factors of image (+) complement as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cyclo import CycloElem
from .errors import MatfacError
from .factorization import (
    JetMatFac,
    MatFac,
    ValidationReport,
    _check_slots,
    _Factorization,
    default_precision,
)
from .linalg import JetSpace, Matrix, jet_inverse, rref, sparse_nullspace
from .rings import Polynomial, PolynomialRing


def _intertwining_report(comps, src, tgt) -> ValidationReport:
    """The law comps[p] @ src[p] == tgt[p] @ comps[(p+1) % d], slot by slot."""
    d = len(comps)
    return _check_slots((comps[p] @ src[p], tgt[p] @ comps[(p + 1) % d])
                        for p in range(d))


def _is_isomorphism(alpha) -> bool:
    """True iff alpha is a morphism and every component is invertible over
    the local ring at the origin (constant-term determinant nonzero).

    A verdict certified when the morphism was built is read first: a
    `Morphism` whose `_iso` slot is set (by `decompose_symmetric`, from a
    checked law and a checked two-sided inverse) answers from it."""
    verdict = getattr(alpha, "_iso", None)
    if verdict is not None:
        return verdict
    if alpha.source.n != alpha.target.n:
        return False
    if not alpha.is_morphism():
        return False
    return all(not c.constant_terms().det().is_zero() for c in alpha.comps)


class _Morphism:
    """The core of `Morphism` and `JetMorphism`: the data and its one
    constructor check.

    The twins differ only in the scalar space of their components (the
    shared ring, or `JetSpace(ring, N)`), which they hand to this
    constructor.  The check: the endpoints share ring, d and f, and there
    are d components, each target.n x source.n over that space.
    """

    # _report is set on the first is_morphism() call, or by a construction
    # that derives it (`factorization._derived`), and absent until then
    __slots__ = ("source", "target", "comps", "_report")

    def __init__(self, source, target, comps, space):
        comps = tuple(comps)
        if source.ring != target.ring or source.d != target.d or source.f != target.f:
            raise MatfacError("morphism endpoints must share ring, d, and f")
        if len(comps) != source.d:
            raise ValueError(f"need {source.d} components, got {len(comps)}")
        for c in comps:
            if not isinstance(c, Matrix) or c.space != space:
                raise ValueError(f"components must be matrices over {space!r}")
            if c.shape != (target.n, source.n):
                raise ValueError(
                    f"component shape {c.shape} != (target rank {target.n}, source rank {source.n})"
                )
        self.source = source
        self.target = target
        self.comps = comps


class Morphism(_Morphism):
    """A morphism of d-fold factorizations with exact polynomial components."""

    # _iso, a certified is_isomorphism() verdict, is set only by a
    # constructor that checked it (see `_is_isomorphism`)
    __slots__ = ("_iso",)

    def __init__(self, source: MatFac, target: MatFac, comps):
        super().__init__(source, target, comps, source.ring)

    @classmethod
    def identity(cls, x: MatFac) -> Morphism:
        ident = Matrix.identity(x.ring, x.n)
        return cls(source=x, target=x, comps=[ident] * x.d)

    def is_morphism(self) -> bool:
        """The intertwining law, slot by slot.

        Computed once per morphism: the components and endpoints are
        immutable, so the report kept in `_report` cannot go stale.
        """
        if not hasattr(self, "_report"):
            self._report = _intertwining_report(self.comps, self.source.mats,
                                                self.target.mats)
        return self._report.passed

    def compose(self, other: Morphism) -> Morphism:
        """self after other (source of self must be target of other)."""
        if other.target != self.source:
            raise MatfacError("composition mismatch: target of inner != source of outer")
        return Morphism(
            source=other.source,
            target=self.target,
            comps=[a @ b for a, b in zip(self.comps, other.comps)],
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


def _mats_as_jets(x, precision: int):
    """Factor matrices of a MatFac or JetMatFac, as jets at the given precision."""
    if not isinstance(x, _Factorization):
        raise TypeError(f"expected a factorization, got {type(x).__name__}")
    if isinstance(x, JetMatFac) and x.precision < precision:
        raise MatfacError(
            f"factorization known only to degree {x.precision} < requested {precision}"
        )
    return tuple(m.to_jets(precision) for m in x.mats)


class JetMorphism(_Morphism):
    """A morphism whose components are known modulo total degree N.

    Endpoints may be exact factorizations or jet-level ones; all identities
    are asserted modulo degree N.
    """

    __slots__ = ("precision",)

    def __init__(self, source, target, comps, precision: int):
        super().__init__(source, target, comps, JetSpace(source.ring, precision))
        self.precision = precision

    def is_morphism(self) -> bool:
        """The intertwining law modulo degree N, slot by slot (computed once)."""
        if not hasattr(self, "_report"):
            self._report = _intertwining_report(
                self.comps, _mats_as_jets(self.source, self.precision),
                _mats_as_jets(self.target, self.precision))
        return self._report.passed

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
    for total in range(bound):
        # each multiset of `total` variables is one exponent tuple of degree
        # `total`; within one degree graded-lex order is lex order
        out.extend(sorted(tuple(combo.count(v) for v in range(nv))
                          for combo in combinations_with_replacement(range(nv), total)))
    return out


@dataclass(frozen=True)
class _JetLayout:
    """Coordinates of the jet-morphism unknowns between two factorizations.

    The coefficient of `monomials[midx]` in entry (i, j) of component k is
    unknown `index(k, i, j, midx)`; `size` counts the unknowns.  Columns are
    `len(monomials)` apart, index(k, i, j, midx) = index(k, i, 0) +
    j * len(monomials) + midx, the closed form `hom_space_jets` builds its
    rows from.  Everything that reads or writes jet hom-space coordinates
    goes through this one map:

    * the equations of `hom_space_jets`, whose kernel vectors are the stored
      form of a `JetHomBasis`;
    * `constants`, the constant terms of a kernel vector's components, which
      `JetHomBasis.constants()` gives to `admits_invertible_combination` and
      `constant_term_spot_check`.
    """

    source: MatFac
    target: MatFac
    monomials: list[tuple[int, ...]]

    @property
    def size(self) -> int:
        return self.source.d * self.target.n * self.source.n * len(self.monomials)

    def index(self, k: int, i: int, j: int, midx: int = 0) -> int:
        return ((k * self.target.n + i) * self.source.n + j) * len(self.monomials) + midx

    def constants(self, vec: dict[int, CycloElem]) -> list[dict[tuple[int, int], CycloElem]]:
        """The constant terms of the components with coordinates `vec`, one
        sparse map (i, j) -> value per component k.  `monomials[0]` is the
        constant monomial, so const(comps[k])[i, j] is vec[index(k, i, j, 0)];
        the nonzero coordinates are read, not the d * n * n entries."""
        nm, ns = len(self.monomials), self.source.n
        per_comp = self.target.n * ns
        consts: list[dict[tuple[int, int], CycloElem]] = [{} for _ in range(self.source.d)]
        for key, c in vec.items():
            entry, midx = divmod(key, nm)
            if midx == 0:
                k, ij = divmod(entry, per_comp)
                consts[k][divmod(ij, ns)] = c
        return consts


@dataclass
class JetHomBasis:
    """Basis of the space of jet-level morphism solutions below degree N.

    `vectors[b]` is the b-th basis element as a sparse map in the `_JetLayout`
    coordinates over `monomials`; it is the only stored form.
    """

    source: MatFac
    target: MatFac
    precision: int
    monomials: list[tuple[int, ...]]
    vectors: list[dict[int, CycloElem]]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def constants(self) -> list[list[dict[tuple[int, int], CycloElem]]]:
        """The constant terms of every basis element, read from its
        coordinates (`_JetLayout.constants`): one sparse map (i, j) -> value
        per component, zeros left out."""
        layout = _JetLayout(self.source, self.target, self.monomials)
        return [layout.constants(vec) for vec in self.vectors]


def _evaluation_point(field, count: int) -> list[CycloElem]:
    """The fixed point of Q^count at which a determinant is certified
    nonzero: the top 24 bits (plus one) of a 64-bit linear congruential
    sequence (Knuth's MMIX constants).  Points such as t_b = b + 1 or
    (b + 1)^2 lie on low-degree curves, on which the finite differences some
    constant-term matrices are built from vanish; this one lies on none."""
    point, state = [], 1
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        point.append(field.rational((state >> 40) + 1))
    return point


def _is_linear(m: Matrix) -> bool:
    """Whether every nonzero entry of the polynomial matrix m is homogeneous
    of degree 1: each term's key has 1 in its total-degree field."""
    shift = m.space._degree_shift
    return all(k >> shift == 1 for row in m.nonzero() for _, p in row for k in p._terms)


def _last_slot_implied(source: MatFac, target: MatFac) -> bool:
    """Whether, for reduced endpoints (the caller checks), the equations of
    slot d-1 are certified to follow from those of slots 0..d-2, by the
    linear lemma below.

    With E_p = comps[p] @ src[p] - tgt[p] @ comps[p+1], the sum over p of
    tgt[0]...tgt[p-1] @ E_p @ src[p+1]...src[d-1] telescopes to
    comps[0] f - f comps[0] = 0 once both endpoints validate.  If both are
    also reduced and E_0..E_{d-2} vanish below degree B, the other terms
    vanish below degree B + d - 1, and so does tgt[0]...tgt[d-2] @ E_{d-1};
    its part of degree e + d - 1, for e the lowest degree of E_{d-1}, is
    L_0...L_{d-2} times the lowest part of E_{d-1}, where L_p is the
    degree-one part of tgt[p].  So when every det L_p is nonzero, E_{d-1}
    vanishes below B as well.

    Linear lemma: if f != 0 and every nonzero entry of tgt[p] is
    homogeneous of degree 1 (`_is_linear`), then L_p = tgt[p], and
    det tgt[0] ... det tgt[d-1] = det(f I) = f^n, which is nonzero in the
    domain F[x]; so det L_p != 0, with no field arithmetic.  The guard
    f != 0 is needed: a zero factor, possible only when f = 0, passes the
    linearity test vacuously, yet its L_p is singular.  A target with a
    non-linear factor among tgt[0..d-2] keeps its last slot: keeping it is
    always sound, and the kernel is the same.
    """
    return (source.validate().passed and target.validate().passed
            and not target.f.is_zero() and all(map(_is_linear, target.mats[:-1])))


def hom_space_jets(source: MatFac, target: MatFac, precision: int | None = None) -> JetHomBasis:
    """Solve the intertwining equations on jet coefficients below `precision`.

    Unknowns: all coefficients of all component entries on monomials of
    degree < N, numbered by `_JetLayout`.  Equations: the residual
    E_p = comps[p] @ src[p] - tgt[p] @ comps[p+1] must vanish in every
    coefficient of degree < N + delta, where delta = 1 if both factorizations
    are reduced (their entries then raise degrees by at least one, so a
    degree-N cutoff of a true morphism still satisfies the degree-N
    equations; without reducedness delta = 0 keeps the system sound).

    The rows of the last slot, E_{d-1}, are left out when `_last_slot_implied`
    certifies that they follow from the others: both endpoints validate and
    are reduced, f != 0, and target.mats[p] is linear for every p <= d-2, so
    that its degree-one part L_p is itself and det L_p != 0.  Then the
    telescoping identity sum_p tgt[0]...tgt[p-1] E_p src[p+1]...src[d-1] = 0
    makes E_{d-1} vanish below the bound whenever E_0..E_{d-2} do.  The left-out rows lie in the
    span of the others, so the kernel is the same as with all d slots, each
    vector with its keys in the canonical order of `sparse_nullspace`.

    Soundness: the truncation of any exact morphism solves this system, so
    dimension 0 here means there are no nonzero morphisms at all.  It needs
    N >= 1: below that there are no unknowns, and ValueError is raised.

    The result holds the kernel vectors only.
    """
    if source.ring != target.ring or source.d != target.d or source.f != target.f:
        raise MatfacError("hom space endpoints must share ring, d, and f")
    ring = source.ring
    if precision is None:
        precision = default_precision(source, target)
    if precision < 1:
        raise ValueError(f"jet precision must be at least 1, got {precision}")
    monos = _monomials_below(ring, precision)
    keys = [ring._pack(m) for m in monos]
    layout = _JetLayout(source, target, monos)
    reduced = source.is_reduced() and target.is_reduced()
    # a packed key is below `limit` iff its total degree is below the bound
    limit = (precision + (1 if reduced else 0)) << ring._degree_shift
    slots = source.d - 1 if reduced and _last_slot_implied(source, target) else source.d
    stride = len(monos)

    # One equation row per (p, i, j, residual monomial), a sparse map from
    # unknown to coefficient.  Residual entry (i, j) is sum_t comps[p][i, t]
    # src[p][t, j] - sum_s tgt[p][i, s] comps[p+1][s, j].  The two sides hold
    # different components (d >= 2) and an unknown meets a residual monomial
    # through one term at most, so each coefficient is one term: none cancels.
    # A zero entry adds nothing, so each (i, j) visits only the nonzero
    # entries of column j of src[p] and of row i of tgt[p], ascending, and
    # each row keeps the key order of a walk over all entries.  Monomials are
    # packed keys: a term e meets monos[midx] at residual key e + keys[midx],
    # and integer order on keys is graded-lex order, so an integer sort
    # lists each entry's rows by residual monomial as the oracle does.
    shifted: dict[int, list[tuple[int, int]]] = {}

    def meets(poly: Polynomial) -> list[tuple[int, int, CycloElem]]:
        """(midx, residual key e + keys[midx] below the bound, coefficient of
        e) for each term e of poly, and midx ascending."""
        out = []
        for e, c in poly._terms.items():
            if e not in shifted:
                shifted[e] = [(midx, e + m) for midx, m in enumerate(keys) if e + m < limit]
            out += [(midx, mu, c) for midx, mu in shifted[e]]
        return out

    rows: list[dict[int, CycloElem]] = []
    for p in range(slots):
        a, b, q = source.mats[p], target.mats[p], (p + 1) % source.d
        # Unknown (k, i, j, midx) is index(k, i, 0) + j * stride + midx
        # (`_JetLayout`).  So the unknown src[p][t, j] meets in entry (i, j)
        # is index(p, i, 0) plus an offset t * stride + midx listed per
        # column j, and the one tgt[p][i, s] meets is index(q, s, 0) + midx,
        # listed per row i, plus j * stride.
        a_cols: list[list] = [[] for _ in range(source.n)]
        for t, row in enumerate(a.nonzero()):
            for j, e in row:
                a_cols[j] += [(t * stride + midx, mu, c) for midx, mu, c in meets(e)]
        b_rows = [[(layout.index(q, s, 0) + midx, mu, -c)
                   for s, e in row for midx, mu, c in meets(e)]
                  for row in b.nonzero()]
        for i, b_row in enumerate(b_rows):
            base_i = layout.index(p, i, 0)
            for j, a_col in enumerate(a_cols):
                offset_j = j * stride
                acc: dict[int, dict[int, CycloElem]] = {}
                for offset, mu, c in a_col:
                    acc.setdefault(mu, {})[base_i + offset] = c
                for col, mu, c in b_row:
                    acc.setdefault(mu, {})[col + offset_j] = c
                rows += [acc[mu] for mu in sorted(acc)]

    kernel = sparse_nullspace(rows, layout.size, ring.field)
    return JetHomBasis(source, target, precision, monos, kernel)


def _combination(consts, coeffs, zero, n: int) -> list[list]:
    """The rows of sum_b coeffs[b] * consts[b], for n x n constant terms given
    as sparse maps (i, j) -> value (`JetHomBasis.constants`)."""
    acc = {}
    for t, const in zip(coeffs, consts):
        for ij, c in const.items():
            acc[ij] = acc.get(ij, zero) + t * c
    return [[acc.get((i, j), zero) for j in range(n)] for i in range(n)]


def admits_invertible_combination(hom_basis: JetHomBasis) -> bool:
    """Whether some field combination of the basis has all components
    invertible at the origin.

    For each component k, form the symbolic constant-term matrix
    sum_b t_b * const(basis[b][k]) over fresh scalars t_b.  A combination with
    all components invertible exists iff every component's symbolic
    determinant is not identically zero: the field is infinite, and a finite
    product of nonzero polynomials has a non-vanishing point.  The constant
    terms are read from the kernel coordinates (`JetHomBasis.constants`); no
    basis element is decoded.

    One fixed point, `_evaluation_point`, is tried first: a nonzero field
    determinant there, for every component, certifies every symbolic
    determinant nonzero, and True is returned without expanding one.
    Otherwise the symbolic determinants decide.

    A True here is only a candidate (jet solutions need not lift to exact
    morphisms); a False at any valid precision is a sound refutation.  A
    False at precision M is also the verdict at every precision N >= M: the
    truncation below M of a precision-N solution is a precision-M solution
    with the same constant terms (`_invertible_jet_exists`).
    """
    src, tgt = hom_basis.source, hom_basis.target
    if src.n != tgt.n:
        return False
    if src.n == 0:
        return True
    nb = hom_basis.dimension
    if nb == 0:
        return False
    field, n = src.ring.field, src.n
    # consts[k][b]: the constant terms of component k of basis element b
    consts = list(zip(*hom_basis.constants()))
    point = _evaluation_point(field, nb)
    if all(not Matrix(field, _combination(cs, point, field.zero(), n)).det().is_zero()
           for cs in consts):
        return True
    tring = PolynomialRing(field, [f"t{i + 1}" for i in range(nb)])
    tvars = [tring.variable(f"t{i + 1}") for i in range(nb)]
    return all(not Matrix(tring, _combination(cs, tvars, tring.zero(), n)).det().is_zero()
               for cs in consts)


def _invertible_jet_exists(source: MatFac, target: MatFac, precision: int) -> bool:
    """Whether a jet morphism source -> target at `precision` has all
    components invertible at the origin: `admits_invertible_combination` of
    `hom_space_jets(source, target, N)`, decided at precision 1 first.

    A precision below 1 raises ValueError, as in `hom_space_jets`, before
    any system is solved.  The rungs are (1, N), or (1,) when N = 1, and the
    first False is returned.

    Truncation lemma: take M <= N.  Every entry of either endpoint has
    degree >= delta (the delta of `hom_space_jets`), so the coefficients of
    E_p = comps[p] src[p] - tgt[p] comps[p+1] below degree M + delta read
    only the unknowns below degree M.  The truncation below M of a
    precision-N solution therefore solves the precision-M system, with the
    same constant terms.  No invertible candidate at M means none at N, so
    the verdict is the precision-N one on every input.
    """
    if precision < 1:
        raise ValueError(f"jet precision must be at least 1, got {precision}")
    return all(admits_invertible_combination(hom_space_jets(source, target, p))
               for p in sorted({1, precision}))


# -- idempotent splitting -----------------------------------------------------


@dataclass
class SplitResult:
    rank_image: int
    image: JetMatFac
    complement: JetMatFac
    witness: JetMorphism    # from image (+) complement onto the original X


def split_idempotent(x: MatFac, e: Morphism, precision: int | None = None) -> SplitResult:
    """Split X along an exact idempotent endomorphism e = e*e.

    The image and complement factorizations are produced at jet precision N
    (basis-change inverses live in the local ring, not the polynomial ring).
    Basis per component: the columns of e_k at the rref pivots of e_k(0),
    then the columns of (1-e)_k at the rref pivots of (1-e_k)(0); r is the
    shared origin-rank of the components.

    Together they are a basis at the origin.  e.compose(e) == e is checked
    exactly, so e_k(0) is idempotent and F^n = im e_k(0) (+) im (1-e_k)(0):
    every v is e_k(0)v + (1-e_k)(0)v, and a v = (1-e_k)(0)u in im e_k(0)
    has v = e_k(0)v = e_k(0)(1-e_k)(0)u = 0.  The pivot columns of a matrix are
    a basis of its column space, so those of e_k(0) and of (1-e_k)(0), r and
    n-r of them, make a basis of F^n.  They are also the columns a greedy
    left-to-right search would choose from (1-e_k)(0) after e_k(0)'s: the
    chosen columns of e_k(0) span im e_k(0), which meets im (1-e_k)(0) only
    in 0, so a column of (1-e_k)(0) is independent of them and of the
    earlier choices exactly when it is independent of the earlier choices.

    The conjugated factors V_p x.mats[p] U_(p+1) are checked to have zero
    off-diagonal blocks; each is then the block sum of its image and
    complement blocks, so it is, as it stands, the factor of the witness's
    source image (+) complement.

    A precision below 1 raises ValueError, as in `hom_space_jets`, before
    any check or basis change is computed.
    """
    if precision is not None and precision < 1:
        raise ValueError(f"jet precision must be at least 1, got {precision}")
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
    n = x.n
    d = x.d
    ident = Matrix.identity(ring, n)

    e_pivots = [rref(c.constant_terms())[1] for c in e.comps]
    ranks = [len(p) for p in e_pivots]
    if len(set(ranks)) > 1:
        raise MatfacError(
            f"origin-ranks of idempotent components disagree: {ranks} (corrupted input)"
        )
    r = ranks[0]

    u_mats = []
    for k in range(d):
        ek = e.comps[k]
        fk = ident - ek
        e_cols = e_pivots[k]  # exactly r of them: ranks checked above
        f_cols = rref(fk.constant_terms())[1]  # n - r, by idempotence
        cols = [ek.column(j) for j in e_cols] + [fk.column(j) for j in f_cols]
        u_mats.append(Matrix(ring, [list(rowvals) for rowvals in zip(*cols)]))

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
    summed = JetMatFac(ring=ring, f=x.f, precision=precision, mats=new_mats)
    witness = JetMorphism(source=summed, target=x, comps=u_jets, precision=precision)
    return SplitResult(rank_image=r, image=image, complement=complement, witness=witness)
