"""Independent reference implementations used to cross-check the package.

Deliberately naive: cofactor expansion for determinants, textbook row
reduction for kernels.  Slow is fine; these only run on small inputs.
"""

from matfac import Matrix
from matfac.cyclo import CycloField


def det_cofactor(mat: Matrix):
    """Determinant by cofactor expansion along the first active row.

    Memoized on the active column set (the row index is determined by how
    many columns are gone); zero entries are skipped before recursing.
    """
    n = mat.nrows
    assert n == mat.ncols, "determinant of a non-square matrix"
    space = mat.space
    one = space.one()
    memo = {}

    def minor(cols):
        if not cols:
            return one
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        total = None
        for pos, c in enumerate(cols):
            entry = mat[row, c]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = entry * minor(rest)
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            total = one - one  # all entries zero: the minor vanishes
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def rref(rows: list[list], field: CycloField) -> list[list]:
    """Reduced row echelon form of a matrix of field elements (list of rows).

    Zero rows are dropped, so two bases of the same subspace (written as row
    matrices) have identical rref.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    pivot_col = 0
    work = rows
    while work and pivot_col < ncols:
        pivot_row = next((i for i, r in enumerate(work) if not r[pivot_col].is_zero()), None)
        if pivot_row is None:
            pivot_col += 1
            continue
        row = work.pop(pivot_row)
        inv = row[pivot_col].inverse()
        row = [inv * a for a in row]
        work = [
            [a - r[pivot_col] * b for a, b in zip(r, row)]
            for r in work
        ]
        out.append((pivot_col, row))
        pivot_col += 1
    # eliminate above the pivots too
    out.sort()
    reduced = [row for _, row in out]
    for i in range(len(reduced) - 1, -1, -1):
        pc = out[i][0]
        for j in range(i):
            factor = reduced[j][pc]
            if not factor.is_zero():
                reduced[j] = [a - factor * b for a, b in zip(reduced[j], reduced[i])]
    return reduced


def nullspace(m: Matrix) -> list[tuple]:
    """Basis of the right kernel of a field matrix, one vector per free column.

    Built on `rref` above: each reduced row's first nonzero column is a
    pivot, and the vector for a free column has a one there and minus that
    column's entries of the reduced rows at their pivots.
    """
    field = m.space
    reduced = rref([list(r) for r in m.rows], field)
    pivots = [next(c for c, a in enumerate(row) if not a.is_zero()) for row in reduced]
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * m.ncols
        vec[fc] = field.one()
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis
