"""Exact matrix arithmetic over the package's scalar types.

A `Matrix` is an immutable grid of scalars together with the `space` the
scalars live in: a `CycloField` (field constants), a `PolynomialRing`, or a
`JetSpace` (polynomials truncated at a shared precision).  The space provides
zero()/one(), which is all the generic operations need; fancier routines
dispatch on the space type:

* determinants: exact Gaussian elimination over a field; fraction-free
  Bareiss elimination (with row-swap sign tracking and exact division) over a
  polynomial ring;
* rref / rank / sparse nullspace / solve / inverse: field matrices only;
* `jet_inverse`: Newton iteration for matrices of jets whose constant-term
  matrix is invertible.

Row and column indices are 0-based throughout; the factorization modules
translate their own 1-based block conventions at the boundary.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Immutable rectangular matrix over a scalar space."""

    # _det is set on the first det() call and absent until then
    __slots__ = ("space", "rows", "nrows", "ncols", "_det")

    def __init__(self, space, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.space = space
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space, nrows: int, ncols: int) -> Matrix:
        z = space.zero()
        return cls(space, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, space, n: int) -> Matrix:
        z, o = space.zero(), space.one()
        return cls(space, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, space, entries) -> Matrix:
        entries = list(entries)
        z = space.zero()
        n = len(entries)
        return cls(space, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, space, n: int, value) -> Matrix:
        """value * identity, n x n."""
        z = space.zero()
        return cls(space, [[value if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, space, perm) -> Matrix:
        """P with P e_j = e_{perm[j]}: column j carries a 1 in row perm[j]."""
        perm = list(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        z, o = space.zero(), space.one()
        rows = [[z] * n for _ in range(n)]
        for j, i in enumerate(perm):
            rows[i][j] = o
        return cls(space, rows)

    @classmethod
    def block(cls, space, grid) -> Matrix:
        """Assemble from a grid (list of lists) of conforming matrices."""
        out_rows = []
        for block_row in grid:
            height = block_row[0].nrows
            if any(b.nrows != height for b in block_row):
                raise ValueError("block row heights disagree")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b.rows[i])
                out_rows.append(row)
        m = cls(space, out_rows)
        if m.nrows and any(
            sum(b.ncols for b in block_row) != m.ncols for block_row in grid
        ):
            raise ValueError("block column widths disagree")
        return m

    @classmethod
    def block_diagonal(cls, space, blocks) -> Matrix:
        blocks = list(blocks)
        total_r = sum(b.nrows for b in blocks)
        total_c = sum(b.ncols for b in blocks)
        z = space.zero()
        rows = [[z] * total_c for _ in range(total_r)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[r0 + i][c0 + j] = b.rows[i][j]
            r0 += b.nrows
            c0 += b.ncols
        return cls(space, rows)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def submatrix(self, row_indices, col_indices) -> Matrix:
        ri, ci = list(row_indices), list(col_indices)
        return Matrix(self.space, [[self.rows[i][j] for j in ci] for i in ri])

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.space != self.space:
            raise ValueError("matrices over different scalar spaces")

    def __add__(self, other):
        self._check(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(
            self.space,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(
            self.space,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.space, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        z = self.space.zero()
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            out_row = []
            for col in (cols or [()] * other.ncols):
                acc = z
                for a, b in zip(row, col):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        if not self.rows:
            return Matrix(self.space, [])
        return Matrix(self.space, out)

    def scale(self, c) -> Matrix:
        """Entrywise multiplication by a scalar of the space (or coercible)."""
        return Matrix(self.space, [[a * c for a in r] for r in self.rows])

    def kron(self, other: Matrix) -> Matrix:
        """Kronecker product: block (i,j) is self[i][j] * other."""
        self._check(other)
        out = []
        for i in range(self.nrows):
            for k in range(other.nrows):
                row = []
                for j in range(self.ncols):
                    a = self.rows[i][j]
                    row.extend(a * b for b in other.rows[k])
                out.append(row)
        return Matrix(self.space, out)

    def map(self, fn, space=None) -> Matrix:
        return Matrix(space if space is not None else self.space,
                      [[fn(a) for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.space == other.space
            and self.shape == other.shape
            and all(
                a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
            )
        )

    def __hash__(self):
        return hash((self.space, self.rows))

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.space!r})"

    # -- degree bookkeeping -----------------------------------------------------

    def max_degree(self) -> int:
        """Max total degree over entries of a polynomial matrix; 0 if all zero."""
        if not isinstance(self.space, PolynomialRing):
            raise TypeError("max_degree applies to polynomial matrices")
        best = 0
        for row in self.rows:
            for p in row:
                if not p.is_zero():
                    best = max(best, p.total_degree())
        return best

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

        Computed once per matrix: a Matrix is immutable, so the stored value
        cannot go stale.
        """
        if hasattr(self, "_det"):
            return self._det
        if not self.is_square():
            raise ValueError(f"determinant of a non-square {self.shape} matrix")
        if isinstance(self.space, CycloField):
            self._det = _det_field(self)
        elif isinstance(self.space, PolynomialRing):
            self._det = det_bareiss(self)
        else:
            raise TypeError(f"no determinant over {self.space!r}")
        return self._det


# -- field linear algebra (CycloElem entries) ---------------------------------


def _require_field(m: Matrix):
    if not isinstance(m.space, CycloField):
        raise TypeError("field linear algebra requires CycloElem entries")


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with deterministic greedy-leftmost pivoting.

    Returns (R, pivot_columns).  Pivot choice: scan columns left to right,
    take the topmost unused row with a nonzero entry.
    """
    _require_field(m)
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.space, rows), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def sparse_nullspace(rows: list[dict[int, CycloElem]], ncols: int, field: CycloField) -> list[dict[int, CycloElem]]:
    """Right-kernel basis of a sparsely given matrix (one dict col->coeff per row).

    Performs reduced row echelon elimination on the sparse rows; the result is
    the canonical basis of the kernel: one vector per free column, with a unit
    at its free column.  The tests compare it with the dense textbook oracle
    `nullspace` in tests/oracles.py.
    """
    zero = field.zero()
    pivots: dict[int, dict[int, CycloElem]] = {}

    def subtract(target: dict, factor: CycloElem, source: dict, skip: int):
        for cc, v in source.items():
            if cc == skip:
                continue
            nv = target.get(cc, zero) - factor * v
            if nv.is_zero():
                target.pop(cc, None)
            else:
                target[cc] = nv

    for row in rows:
        r = {c: v for c, v in row.items() if not v.is_zero()}
        # clear every pivot column from the incoming row (pivot rows carry no
        # other pivot columns, so one sweep per remaining pivot col suffices)
        while True:
            pcols = sorted(c for c in r if c in pivots)
            if not pcols:
                break
            for pc in pcols:
                f = r.pop(pc, None)
                if f is not None and not f.is_zero():
                    subtract(r, f, pivots[pc], pc)
        if not r:
            continue
        c = min(r)
        inv = r[c].inverse()
        r = {cc: v * inv for cc, v in r.items()}
        for p in pivots.values():
            f = p.pop(c, None)
            if f is not None and not f.is_zero():
                subtract(p, f, r, c)
        pivots[c] = r
    basis = []
    pivot_cols = set(pivots)
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec: dict[int, CycloElem] = {fc: field.one()}
        for pc, prow in pivots.items():
            v = prow.get(fc)
            if v is not None and not v.is_zero():
                vec[pc] = -v
        basis.append(vec)
    return basis


def solve_right(m: Matrix, rhs: Matrix) -> Matrix | None:
    """One solution of m @ X = rhs over the field, or None if inconsistent."""
    _require_field(m)
    m._check(rhs)
    aug = Matrix(m.space, [list(r1) + list(r2) for r1, r2 in zip(m.rows, rhs.rows)])
    R, pivots = rref(aug)
    if any(p >= m.ncols for p in pivots):
        return None
    field = m.space
    out = [[field.zero()] * rhs.ncols for _ in range(m.ncols)]
    for r, pc in enumerate(pivots):
        for j in range(rhs.ncols):
            out[pc][j] = R.rows[r][m.ncols + j]
    return Matrix(field, out)


def inverse_field(m: Matrix) -> Matrix:
    _require_field(m)
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    aug = Matrix(
        m.space,
        [list(r) + list(e) for r, e in zip(m.rows, Matrix.identity(m.space, m.nrows).rows)],
    )
    R, pivots = rref(aug)
    if pivots != list(range(m.nrows)):
        raise MatfacError("matrix is singular over the field")
    return Matrix(m.space, [row[m.nrows:] for row in R.rows])


def _det_field(m: Matrix) -> CycloElem:
    field = m.space
    n = m.nrows
    if n == 0:
        return field.one()
    rows = [list(r) for r in m.rows]
    det = field.one()
    for c in range(n):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return field.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


# -- polynomial determinant -----------------------------------------------------


def det_bareiss(m: Matrix) -> Polynomial:
    """Fraction-free determinant of a polynomial matrix.

    Bareiss elimination: every interior division is exact (entries stay
    minors of the original matrix), so the computation never leaves the ring.
    Row swaps are allowed and tracked by sign.
    """
    ring = m.space
    if not isinstance(ring, PolynomialRing):
        raise TypeError("det_bareiss requires polynomial entries")
    n = m.nrows
    if n == 0:
        return ring.one()
    rows = [list(r) for r in m.rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            return ring.zero()
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - rows[i][k] * rows[k][j]
                rows[i][j] = num.divexact(prev) if not num.is_zero() else ring.zero()
            rows[i][k] = ring.zero()
        prev = pivot
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


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
