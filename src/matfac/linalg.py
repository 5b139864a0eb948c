"""Exact matrix arithmetic over the package's scalar types.

A `Matrix` is an immutable matrix of scalars together with the `space` the
scalars live in: a `CycloField` (field constants), a `PolynomialRing`, or a
`JetSpace` (polynomials truncated at a shared precision).  The space provides
zero()/one(), which is all the generic operations need; fancier routines
dispatch on the space type:

* storage: each row is kept as its nonzero entries, (column, entry) pairs
  with the columns ascending, the row-sparse form of Gustavson (ACM TOMS
  4(3), 1978).  `Matrix._store` is its one writer and drops every zero
  entry (zeros in dense input, cancelled sums, jets truncated to zero), so
  equal matrices store equal rows and compare and hash by them.  Every
  operation and builder below reads and writes the stored pairs only;
  `map` therefore needs a function that sends zero to zero;
* entries: `Matrix.nonzero()` hands out the stored pairs, scanning nothing.
  Every other module reads a matrix's nonzero entries through it (or
  through the operations below), and none reads the stored form.  The
  dense reads `rows`, `m[i, j]` and `column` fill in the zeros; the one
  dense working copy is `det_bareiss`'s;
* block shapes: `Matrix.block_diagonal` builds direct sums,
  `Matrix.block_cyclic` the block-cyclic factors of tensor products, whose
  recorded determinants `_block_cyclic_cut` below reads, and
  `Matrix.circulant` the circulant base changes of Knorrer's decomposition;
  no other module assembles a grid of blocks or a zero block
  (`Matrix.block`, `Matrix.zero`);
* products: `@` is the row-sparse product: each row of the result
  accumulates a_ik * B[k] over the stored a_ik only, so block-diagonal and
  kron-with-identity operands cost what their nonzeros cost; `kron`
  likewise forms only products of two stored entries and places either
  entry itself against a one;
* determinants: `Matrix.det` is the one dispatch.  Over a field it is
  `_det_field` on the one field elimination below; over a polynomial ring
  it is `_det_power`, which keeps the determinant factored and has three
  outcomes: a scalar matrix g * I_n is (g, n); a block-cyclic matrix whose
  builder recorded the product of its cyclic blocks, g * I_n (every factor
  of a tensor product), is read by the commuting-block identity
  det M = det(c_0...c_{d-1} I - (-1)^d A_0...A_{d-1}) (Silvester, Math.
  Gazette 84, 2000) as (c_0...c_{d-1} - (-1)^d g, n), with no product of
  blocks formed; every other matrix goes to `det_bareiss`, fraction-free
  elimination (Bareiss, Math. Comp. 22, 1968) with row-swap sign tracking
  and exact division, and is kept as (det, 1).  It scales rows lazily: a
  row whose entry below the pivot is zero is left as the last step that
  changed it made it, and is brought up to date once, when it next changes
  or becomes the pivot row.
  The factored form is this module's alone: `det` expands it, and
  `Matrix.det_as_power(g)` answers the one question the tensor and Ulrich
  checks ask of a polynomial determinant, det = u * g^s with u = +-1 and
  which s, from the factors when the base is +-g, so a power of f is never
  expanded just to compare it;
* field linear algebra: one elimination, `_Echelon`, keeps a row echelon
  form of sparse rows (col -> CycloElem), adding a row at a time without
  touching the older ones, and back-substitutes once into the reduced form
  when asked (`_Echelon.reduced`; the forward-then-back split of Faugere and
  Lachartre, PASCO 2010).  `rref` reads R and the pivots off the reduced
  rows (`rank` works on `rref`, and `inverse_field` on the `rref` of
  [m | I]), `sparse_nullspace` reads a kernel basis off them, and
  `_det_field` multiplies the leads the forward pass divides out;
* `jet_inverse`: Newton iteration for matrices of jets whose constant-term
  matrix is invertible.

Row and column indices are 0-based throughout; the factorization modules
translate their own 1-based block conventions at the boundary.
"""

from __future__ import annotations

import math
import operator
from heapq import heapify, heappop, heappush

from .cyclo import CycloElem, CycloField
from .errors import MatfacError
from .rings import Jet, Polynomial, PolynomialRing


class JetSpace:
    """Scalar space of jets over a fixed ring at a fixed precision."""

    def __init__(self, ring: PolynomialRing, precision: int):
        self.ring = ring
        self.precision = precision

    def zero(self) -> Jet:
        return Jet(self.ring.zero(), self.precision)

    def one(self) -> Jet:
        return Jet(self.ring.one(), self.precision)

    def __eq__(self, other):
        return (
            isinstance(other, JetSpace)
            and other.ring == self.ring
            and other.precision == self.precision
        )

    def __hash__(self):
        return hash(("JetSpace", self.ring, self.precision))

    def __repr__(self):
        return f"JetSpace({self.ring!r}, N={self.precision})"


class Matrix:
    """Immutable rectangular matrix over a scalar space.

    Each row is stored as its nonzero entries, (column, entry) pairs with
    the columns ascending and no zeros; `_store` is the one writer of that
    form, and the dense reads `rows`, `m[i, j]` and `column` fill in the
    zeros it leaves out.
    """

    # _det, absent until the determinant is first asked for, holds the field
    # value of a field matrix and the factored (base, exponent) of a
    # polynomial one, whose determinant is base ** exponent; _cycle, set only
    # by `block_cyclic` when its caller holds the product of the cyclic
    # blocks, holds (d, g) with A_0 ... A_{d-1} = g * I_n, and is absent on
    # every other matrix, derived ones included
    __slots__ = ("space", "_rows", "nrows", "ncols", "_det", "_cycle")

    def __init__(self, space, rows):
        """The matrix of the dense `rows`, zeros included, all of one length."""
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self._store(space, len(rows), ncols, [enumerate(r) for r in rows])

    @classmethod
    def _sparse(cls, space, nrows: int, ncols: int, rows) -> Matrix:
        """The nrows x ncols matrix whose row i holds the (column, entry)
        pairs of rows[i], columns ascending; built without `__init__`."""
        m = cls.__new__(cls)
        m._store(space, nrows, ncols, rows)
        return m

    def _store(self, space, nrows: int, ncols: int, rows) -> None:
        """Keep each row's (column, entry) pairs, dropping the zero entries
        (cancelled sums, truncated jets, zeros in dense input): the stored
        form holds nonzeros only, so that equal matrices store equal rows.
        A matrix without rows has no columns."""
        self.space = space
        self._rows = tuple(tuple([p for p in row if not p[1].is_zero()]) for row in rows)
        self.nrows = nrows
        self.ncols = ncols if nrows else 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space, nrows: int, ncols: int) -> Matrix:
        return cls._sparse(space, nrows, ncols, [()] * nrows)

    @classmethod
    def identity(cls, space, n: int) -> Matrix:
        return cls.scalar(space, n, space.one())

    @classmethod
    def scalar(cls, space, n: int, value) -> Matrix:
        """value * identity, n x n."""
        return cls._sparse(space, n, n, [((i, value),) for i in range(n)])

    @classmethod
    def weighted_permutation(cls, space, images) -> Matrix:
        """P with P e_j = w e_i for the j-th pair (i, w) of `images`: column j
        holds w in row i.  The rows i must be a permutation of 0..n-1."""
        images = list(images)
        n = len(images)
        targets = [i for i, _ in images]
        if sorted(targets) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {targets}")
        rows = [()] * n
        for j, (i, w) in enumerate(images):
            rows[i] = ((j, w),)
        return cls._sparse(space, n, n, rows)

    @classmethod
    def circulant(cls, space, first_row) -> Matrix:
        """The n x n matrix whose (i, j) entry is first_row[(j - i) mod n]:
        row i is the first row rotated i places to the right.  Such matrices
        are the polynomials in the cyclic shift (the circulant of e_1), so
        they form a commutative algebra."""
        c = list(first_row)
        n = len(c)
        return cls._sparse(space, n, n, [[(j, c[(j - i) % n]) for j in range(n)]
                                         for i in range(n)])

    @classmethod
    def block(cls, space, grid) -> Matrix:
        """Assemble from a grid (list of lists) of conforming matrices."""
        rows, widths = [], set()
        for block_row in grid:
            height = block_row[0].nrows
            if any(b.nrows != height for b in block_row):
                raise ValueError("block row heights disagree")
            widths.add(sum(b.ncols for b in block_row))
            for i in range(height):
                row, c0 = [], 0
                for b in block_row:
                    row += [(c0 + j, a) for j, a in b._rows[i]]
                    c0 += b.ncols
                rows.append(row)
        if rows and len(widths) > 1:
            raise ValueError("block column widths disagree")
        return cls._sparse(space, len(rows), max(widths, default=0), rows)

    @classmethod
    def block_diagonal(cls, space, blocks) -> Matrix:
        rows, c0 = [], 0
        for b in blocks:
            rows += [[(c0 + j, a) for j, a in row] for row in b._rows]
            c0 += b.ncols
        return cls._sparse(space, len(rows), c0, rows)

    @classmethod
    def block_cyclic(cls, space, diagonal, cyclic, *, _product=None) -> Matrix:
        """The d x d grid of n x n blocks with diagonal[I] at (I, I),
        cyclic[I] at (I, (I+1) mod d) and zeros elsewhere, d >= 2: every
        factor of a twisted tensor product has this shape (Knorrer; Yoshino,
        Nagoya Math. J. 152, 1998).  With scalar diagonal blocks it is the
        shape `_is_block_cyclic` recognizes.

        `_product` is the scalar g with cyclic[0] ... cyclic[d-1] = g * I_n
        when the caller holds that product certified (`tensor.tensor`, by
        the left operand's validation).  It is kept as (d, g) in the
        matrix's `_cycle` slot, and `_block_cyclic_cut` reads the
        determinant from it, so that determinant rests on that certificate;
        it is not checked here.  Without it the determinant is eliminated
        (`det_bareiss`): no product of the blocks is ever formed.

        Each row is written from its two stored blocks only, the diagonal
        block's entries before the cyclic one's except in the last block
        row, whose cyclic block is block column 0."""
        d = len(diagonal)
        if d < 2 or len(cyclic) != d:
            raise ValueError("a block-cyclic matrix needs d >= 2 diagonal "
                             "and as many cyclic blocks")
        n = diagonal[0].nrows
        if any(b.shape != (n, n) for b in (*diagonal, *cyclic)):
            raise ValueError(f"block-cyclic blocks must all be {n}x{n}")
        rows = []
        for i in range(d):
            on = [[(i * n + j, a) for j, a in row] for row in diagonal[i]._rows]
            off = [[((i + 1) % d * n + j, a) for j, a in row] for row in cyclic[i]._rows]
            first, second = (off, on) if i == d - 1 else (on, off)
            rows += [p + q for p, q in zip(first, second)]
        m = cls._sparse(space, d * n, d * n, rows)
        if _product is not None:
            m._cycle = (d, _product)
        return m

    # -- access ---------------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The entries row by row, zeros included: a dense read of the
        stored form, built on every call."""
        z = self.space.zero()
        return tuple(tuple(entries.get(j, z) for j in range(self.ncols))
                     for entries in map(dict, self._rows))

    def __getitem__(self, ij):
        # out of range is an IndexError, as it is for a dense row
        i, j = ij
        return dict(self._rows[i]).get(range(self.ncols)[j], self.space.zero())

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def nonzero(self) -> list[list[tuple[int, object]]]:
        """Each row's nonzero entries as (column, entry) pairs, columns
        ascending: the stored form, as lists.  Every other module reads a
        matrix's nonzero entries through it."""
        return [list(row) for row in self._rows]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def submatrix(self, row_indices, col_indices) -> Matrix:
        """The entries at the given rows and columns, in the order given."""
        ri, ci = list(row_indices), list(col_indices)
        where = {}  # column -> the places it takes in the submatrix
        for k, j in enumerate(ci):
            where.setdefault(range(self.ncols)[j], []).append(k)
        return Matrix._sparse(self.space, len(ri), len(ci),
                              [sorted((k, a) for j, a in self._rows[i] for k in where.get(j, ()))
                               for i in ri])

    def column(self, j: int):
        return tuple(self[i, j] for i in range(self.nrows))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.space != self.space:
            raise ValueError("matrices over different scalar spaces")

    def _entrywise(self, other, op) -> Matrix:
        """op(a, b) at each position either matrix stores an entry at."""
        self._check(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        z = self.space.zero()
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            acc = dict(r1)
            for j, b in r2:
                acc[j] = op(acc.get(j, z), b)
            out.append(sorted(acc.items()))
        return Matrix._sparse(self.space, self.nrows, self.ncols, out)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return self.map(operator.neg)

    def __matmul__(self, other):
        """Row-sparse product (Gustavson, "Two fast algorithms for sparse
        matrices", ACM TOMS 4(3), 1978).

        Row i of the product accumulates a_ik * B[k] over the stored a_ik
        only, into a col -> value dict.  Work is proportional to the nonzero
        products, so the circulant and block-diagonal operands of the
        Knorrer witnesses cost what their nonzeros cost.
        """
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        b_rows = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row:
                for j, b in b_rows[k]:
                    prev = acc.get(j)
                    acc[j] = a * b if prev is None else prev + a * b
            out.append(sorted(acc.items()))
        return Matrix._sparse(self.space, self.nrows, other.ncols, out)

    def scale(self, c) -> Matrix:
        """Entrywise multiplication by a scalar of the space (or coercible)."""
        return self.map(lambda a: a * c)

    def kron(self, other: Matrix) -> Matrix:
        """Kronecker product: block (i,j) is self[i][j] * other.

        Only the products of two stored entries are formed, and an entry
        equal to one places the other entry itself, so alpha (x) I_n and
        I_n (x) alpha cost the nonzeros of alpha and multiply nothing.
        """
        self._check(other)
        one = self.space.one()
        width = other.ncols
        b_rows = [[(j, b, b == one) for j, b in row] for row in other._rows]
        out = [[(ja * width + j, a if b_one else b if a == one else a * b)
                for ja, a in a_row for j, b, b_one in b_row]
               for a_row in self._rows for b_row in b_rows]
        return Matrix._sparse(self.space, self.nrows * other.nrows, self.ncols * width, out)

    def map(self, fn, space=None) -> Matrix:
        """fn applied to every entry, over `space` (this one by default).
        Only the stored entries are visited, so fn must send zero to zero."""
        if not fn(self.space.zero()).is_zero():
            raise ValueError("map needs a function that sends zero to zero")
        return Matrix._sparse(self.space if space is None else space, self.nrows, self.ncols,
                              [[(j, fn(a)) for j, a in row] for row in self._rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.space == other.space and self.shape == other.shape
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.space, self.shape, self._rows))

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.space!r})"

    # -- degree bookkeeping -----------------------------------------------------

    def max_degree(self) -> int:
        """Max total degree over entries of a polynomial matrix; 0 if all zero."""
        if not isinstance(self.space, PolynomialRing):
            raise TypeError("max_degree applies to polynomial matrices")
        return max((p.total_degree() for row in self._rows for _, p in row), default=0)

    # -- conversions ---------------------------------------------------------

    def constant_terms(self) -> Matrix:
        """Constant-term matrix over the coefficient field (polynomial/jet entries)."""
        if isinstance(self.space, PolynomialRing):
            field = self.space.field
            return self.map(lambda p: p.constant_term(), field)
        if isinstance(self.space, JetSpace):
            field = self.space.ring.field
            return self.map(lambda j: j.poly.constant_term(), field)
        raise TypeError("constant_terms applies to polynomial or jet matrices")

    def to_jets(self, precision: int) -> Matrix:
        if isinstance(self.space, JetSpace):
            if self.space.precision == precision:
                return self
            return self.map(
                lambda j: Jet(j.poly, precision), JetSpace(self.space.ring, precision)
            )
        if not isinstance(self.space, PolynomialRing):
            raise TypeError("to_jets applies to polynomial matrices")
        return self.map(lambda p: Jet(p, precision), JetSpace(self.space, precision))

    # -- determinants ----------------------------------------------------------

    def det(self):
        """Exact determinant; dispatches on the scalar space.

        Over a field it is `_det_field`; over a polynomial ring it is the
        factored `_det_power`, expanded.  Either is computed once per matrix,
        the polynomial one in factored form: a Matrix is immutable, so the
        stored value cannot go stale.
        """
        if not self.is_square():
            raise ValueError(f"determinant of a non-square {self.shape} matrix")
        if isinstance(self.space, PolynomialRing):
            base, exponent = _det_power(self)
            return base if exponent == 1 else base ** exponent
        if not isinstance(self.space, CycloField):
            raise TypeError(f"no determinant over {self.space!r}")
        if not hasattr(self, "_det"):
            self._det = _det_field(self)
        return self._det

    def det_as_power(self, g: Polynomial) -> tuple[int, int] | None:
        """(u, s) with det = u * g**s and u = +-1 for this square polynomial
        matrix, or None when there is no such pair: a zero determinant, a
        g of degree 0 (a unit or zero, whose powers do not fix s), or a
        determinant that is no signed power of g.

        When the factored determinant (`_det_power`) has base +-g, the
        factors decide without expanding anything: (-g)^n = (-1)^n g^n.
        Otherwise the degrees allow one s at most, and the determinant and
        g**s are each expanded once and compared up to sign.
        """
        if not self.is_square():
            raise ValueError(f"determinant of a non-square {self.shape} matrix")
        base, exponent = _det_power(self)
        if base.is_zero() or g.total_degree() <= 0:
            return None
        if base == g:
            return 1, exponent
        if base == -g:
            return (-1) ** exponent, exponent
        s, off = divmod(base.total_degree() * exponent, g.total_degree())
        if off:
            return None
        det, power = self.det(), g ** s
        return (1, s) if det == power else (-1, s) if det == -power else None


# -- field linear algebra (CycloElem entries) ---------------------------------


def _require_field(m: Matrix):
    if not isinstance(m.space, CycloField):
        raise TypeError("field linear algebra requires CycloElem entries")


class _Echelon:
    """Row echelon form of the sparse rows added so far: the one Gaussian
    elimination over the field.

    `pivots` maps each pivot column to its row (col -> CycloElem, zeros left
    out), in the order the pivots were found.  A pivot row has a one at its
    own pivot column and entries only at later columns; older rows are never
    touched when a row is added.  `reduced()` back-substitutes once, which
    is the forward-then-back split of Faugere and Lachartre ("Parallel
    Gaussian elimination for Groebner bases computations in finite fields",
    PASCO 2010): a pivot column is cleared from the rows above it once, at
    the end, not every time a pivot is found.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, CycloElem]] = {}

    def _subtract(self, target: dict, factor: CycloElem, source: dict, skip: int,
                  filled: list[int] | None = None) -> None:
        """target -= factor * source, leaving out column `skip`; appends to
        `filled`, when given, the columns target had no entry at before (the
        fill-in)."""
        neg = -factor
        for cc, v in source.items():
            if cc == skip:
                continue
            old = target.get(cc)
            if old is None:
                target[cc] = neg * v
                if filled is not None:
                    filled.append(cc)
                continue
            nv = old + neg * v
            if nv.is_zero():
                del target[cc]
            else:
                target[cc] = nv

    def reduce(self, row: dict) -> dict:
        """What is left of `row` (col -> coeff) after clearing every pivot
        column: a new dict, empty iff the row lies in the span of the pivot
        rows.  The pivot columns are cleared in ascending order from a heap,
        onto which the pivot columns a subtraction fills in are pushed; a
        pivot row only reaches later columns, so none comes back once
        cleared."""
        r = {c: v for c, v in row.items() if not v.is_zero()}
        pivots = self.pivots
        heap = [c for c in r if c in pivots]
        heapify(heap)
        filled: list[int] = []
        while heap:
            pc = heappop(heap)
            factor = r.pop(pc, None)
            if factor is None:  # cancelled, or pushed twice
                continue
            self._subtract(r, factor, pivots[pc], pc, filled)
            for cc in filled:
                if cc in pivots:
                    heappush(heap, cc)
            filled.clear()
        return r

    def add(self, row: dict) -> tuple[int, CycloElem] | None:
        """Reduce `row`; if anything is left, normalize it and keep it as the
        pivot row of its first column.  Returns (pivot column, the lead
        coefficient divided out), or None when the row was dependent."""
        r = self.reduce(row)
        if not r:
            return None
        c = min(r)
        lead = r[c]
        inv = lead.inverse()
        self.pivots[c] = {cc: v * inv for cc, v in r.items()}
        return c, lead

    def reduced(self) -> None:
        """Back-substitute the pivot rows into reduced row echelon form, in
        place: afterwards no pivot row holds another pivot column.  In
        descending pivot order, each row subtracts the rows of the later pivot
        columns it holds, which are reduced already and so fill in no pivot
        column."""
        pivots = self.pivots
        for pc in sorted(pivots, reverse=True):
            row = pivots[pc]
            for cc in [cc for cc in row if cc != pc and cc in pivots]:
                self._subtract(row, row.pop(cc), pivots[cc], cc)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, ascending.

    The rows of m go through `_Echelon` in order and are read back through
    `_Echelon.reduced`; R lists the pivot rows by pivot column, then
    m.nrows - rank zero rows.  The RREF of a matrix is unique, so R does not
    depend on the order of elimination.
    """
    _require_field(m)
    ech = _Echelon()
    for row in m._rows:
        ech.add(dict(row))
    ech.reduced()
    reduced = ech.pivots
    pivots = sorted(reduced)
    rows = [sorted(reduced[c].items()) for c in pivots]
    return Matrix._sparse(m.space, m.nrows, m.ncols, rows + [()] * (m.nrows - len(pivots))), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def sparse_nullspace(rows: list[dict[int, CycloElem]], ncols: int, field: CycloField) -> list[dict[int, CycloElem]]:
    """Right-kernel basis of a sparsely given matrix (one dict col->coeff per row).

    The rows go through `_Echelon` in order, and the basis is read off its
    reduced pivot rows: one vector per free column, ascending, with a unit at
    its free column and minus that column's pivot-row entries at the pivots
    (in the order the pivots were found).  A reduced pivot row holds free
    columns only, so one pass over the rows, in the order the pivots were
    found, transposes them into the basis.  The tests compare it with the
    dense textbook oracle `nullspace` in tests/oracles.py.
    """
    ech = _Echelon()
    for row in rows:
        ech.add(row)
    ech.reduced()
    reduced = ech.pivots
    one = field.one()
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in reduced}
    for pc, prow in reduced.items():
        for fc, v in prow.items():
            if fc != pc:
                basis[fc][pc] = -v
    return list(basis.values())


def inverse_field(m: Matrix) -> Matrix:
    _require_field(m)
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    R, pivots = rref(Matrix.block(m.space, [[m, Matrix.identity(m.space, n)]]))
    if pivots != list(range(n)):
        raise MatfacError("matrix is singular over the field")
    return R.submatrix(range(n), range(n, 2 * n))


def _det_field(m: Matrix) -> CycloElem:
    """Determinant of a square field matrix on `_Echelon`: the product of the
    leads divided out, times the sign of the permutation taking each row to
    its pivot column; zero as soon as a row is dependent.  (Reducing a row by
    earlier ones keeps the determinant; the normalized rows, taken in pivot
    order, form a unit upper triangular matrix.)"""
    field = m.space
    ech = _Echelon()
    det = field.one()
    cols = []
    for row in m._rows:
        found = ech.add(dict(row))
        if found is None:
            return field.zero()
        cols.append(found[0])
        det = det * found[1]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return -det if inversions % 2 else det


# -- polynomial determinant -----------------------------------------------------


def _is_scalar(m: Matrix) -> bool:
    """True iff the nonempty square m is g * I_n for g = m[0, 0]."""
    if not m.nrows:
        return False
    g = m[0, 0]
    return m.is_zero() if g.is_zero() else all(
        row == ((i, g),) for i, row in enumerate(m._rows))


def _is_block_cyclic(m: Matrix, d: int) -> bool:
    """True iff the square m, cut into d x d blocks of size n, has a scalar
    matrix c_I * I_n in every diagonal block (I, I), anything in the blocks
    (I, (I+1) mod d), and zeros everywhere else; False when m is empty,
    which has no blocks to read."""
    if not m.nrows:
        return False
    n = m.nrows // d
    diagonal = [m[block * n, block * n] for block in range(d)]
    for r, row in enumerate(m._rows):
        c = diagonal[r // n]
        lo = (r // n + 1) % d * n
        outside = [(j, a) for j, a in row if not lo <= j < lo + n]
        if outside != ([] if c.is_zero() else [(r, c)]):
            return False
    return True


def _block_cyclic_cut(m: Matrix) -> tuple[Polynomial, int] | None:
    """(c_0...c_{d-1} - (-1)^d g, n), with det m = that base ** n, when m's
    builder recorded A_0 ... A_{d-1} = g * I_n (its `_cycle`, see
    `Matrix.block_cyclic`) and m has the shape of `_is_block_cyclic` at that
    recorded d, A_I being block (I, (I+1) mod d); None for every other
    matrix.  The c_I are read off m itself and no product of blocks is
    formed.  The record holds for the builder's d only, so it is not read at
    any other."""
    cycle = getattr(m, "_cycle", None)
    if cycle is None or not _is_block_cyclic(m, cycle[0]):
        return None
    d, g = cycle
    n = m.nrows // d
    c = math.prod((m[r, r] for r in range(0, m.nrows, n)), start=m.space.one())
    return (c - g if d % 2 == 0 else c + g), n


def _det_power(m: Matrix) -> tuple[Polynomial, int]:
    """The determinant of a polynomial matrix in factored form, (base,
    exponent) with det = base ** exponent, computed once per matrix (kept in
    its `_det` slot).  There are three outcomes:

    * a scalar matrix g * I_n gives (g, n): g is never raised to the n-th
      power;
    * a block-cyclic matrix whose builder recorded the product of its cyclic
      blocks, g * I_n, at d blocks is read by `_block_cyclic_cut` as
      (c_0 ... c_{d-1} - (-1)^d g, n).  This is the commuting-block identity

          det M = det(c_0 c_1 ... c_{d-1} I_n - (-1)^d A_0 A_1 ... A_{d-1})

      (Silvester, "Determinants of block matrices", Math. Gazette 84, 2000):
      over the fraction field M = C(I + C^-1 S) with C = diag(c_I I_n)
      central, and det(I + B) = det(I - (-1)^d B_0 ... B_{d-1}) for
      block-cyclic B; both sides are polynomials in the c_I, so it also
      holds when some c_I is 0.  Every factor of a tensor product is built
      with such a record, f_x * I_n, which the left operand's validation
      certifies (see `tensor.tensor`), so its determinant rests on that
      validation, as the tensor's own does; with a rank-one right operand
      the base is +-f;
    * every other matrix goes to `det_bareiss`, and the result is (its
      determinant, 1).
    """
    if not isinstance(m.space, PolynomialRing):
        raise TypeError("a polynomial determinant requires polynomial entries")
    if not hasattr(m, "_det"):
        if _is_scalar(m):
            m._det = (m[0, 0], m.nrows)
        else:
            m._det = _block_cyclic_cut(m) or (det_bareiss(m), 1)
    return m._det


def det_bareiss(m: Matrix) -> Polynomial:
    """Fraction-free Bareiss elimination of a square polynomial matrix
    ("Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968), with each row scaled lazily.  It
    reads nothing: `Matrix.det` (through `_det_power`) is the determinant to
    ask for, and calls this on every matrix that is neither scalar nor read
    from its builder's record.

    Write a^(k) for the matrix after k steps (a^(0) = m), p_k = a_kk^(k) for
    the pivot of step k and p_-1 = 1.  Step k sets, for i, j > k,

        a_ij^(k+1) = (a_ij^(k) p_k - a_ik^(k) a_kj^(k)) / p_(k-1),

    an exact division, since a_ij^(k+1) is a minor of m (Sylvester's
    identity).  When a_ik^(k) = 0 this is a_ij^(k) p_k / p_(k-1), a mere
    rescaling.  So if row i had a zero in the pivot column at steps s..k-1,
    the quotients telescope:

        a_ij^(k) = a_ij^(s) (p_s / p_(s-1)) (p_(s+1) / p_s) ... (p_(k-1) / p_(k-2))
                 = a_ij^(s) p_(k-1) / p_(s-1),

    and step k's update of that row, the p_(k-1) cancelling, is

        a_ij^(k+1) = (a_ij^(s) p_k - a_ik^(s) a_kj^(k)) / p_(s-1),

    again exact, since the left side is a minor of m.  The elimination
    therefore keeps each row as a^(s) for the last step s that really
    changed it (its stamp): a step whose entry below the pivot is zero costs
    that row nothing.  Row swaps are tracked by sign, and a swapped row
    keeps its stamp.  A row that becomes the pivot row, the last one
    included, is brought up to date once, times p_(k-1), exact-divided by
    p_(s-1).  Every pivot is nonzero, so a stored entry is zero exactly when
    the true one is: the pivot search reads the stored rows, and the pivot
    order, the row-swap sign and the determinant p_(n-1) are those of the
    eager elimination.  The cross product a_ik^(s) a_kj^(k) and the
    difference are formed only when a_kj^(k) is nonzero, and a zero
    dividend is never divided."""
    ring = m.space
    if not isinstance(ring, PolynomialRing):
        raise TypeError("det_bareiss requires polynomial entries")
    n = m.nrows
    rows = [list(r) for r in m.rows]
    stamps = [0] * n  # rows[i] holds row i of a^(stamps[i])
    divisors = [ring.one()]  # divisors[s] = p_(s-1)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            return ring.zero()
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            stamps[k], stamps[piv] = stamps[piv], stamps[k]
            sign = -sign
        pivot_row = rows[k]
        if stamps[k] < k:
            scale, prev = divisors[k], divisors[stamps[k]]
            pivot_row[k:] = [a if a.is_zero() else (a * scale).divexact(prev)
                             for a in pivot_row[k:]]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            below = row[k]
            if below.is_zero():
                continue
            prev = divisors[stamps[i]]
            for j in range(k + 1, n):
                num = row[j] * pivot
                if not pivot_row[j].is_zero():
                    num -= below * pivot_row[j]
                row[j] = num.divexact(prev) if not num.is_zero() else ring.zero()
            stamps[i] = k + 1
        divisors.append(pivot)
    return divisors[n] if sign == 1 else -divisors[n]


# -- jet matrices ----------------------------------------------------------------


def jet_inverse(m: Matrix) -> Matrix:
    """Inverse of a jet matrix whose constant-term matrix is invertible.

    Newton iteration Y <- Y(2I - MY) doubles the order of the residual each
    step, starting from the exact field inverse of the constant terms.
    """
    if not isinstance(m.space, JetSpace):
        raise TypeError("jet_inverse requires jet entries")
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    space = m.space
    c0 = m.constant_terms()
    y = inverse_field(c0).map(
        lambda a: Jet(space.ring.scalar(a), space.precision), space
    )
    ident = Matrix.identity(space, m.nrows)
    two = ident + ident
    # After k steps the residual I - MY has order >= 2^k.
    order = 1
    while order < space.precision:
        y = y @ (two - m @ y)
        order *= 2
    return y
