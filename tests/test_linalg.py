"""Exact matrices: construction, kron/blocks, determinants, kernels."""

import math
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    PolynomialRing,
    build_from_sum,
    cyclotomic_field,
    recognize_projective_sum,
    sum_of_products,
    tensor,
    variable_support,
)
from matfac.linalg import (
    JetSpace,
    _block_cyclic_cut,
    _Echelon,
    _det_power,
    det_bareiss,
    inverse_field,
    sparse_nullspace,
)
from matfac.linalg import rref as rref_matrix
from matfac.rings import Jet, Polynomial

import oracles
from oracles import (
    block_cyclic_cut,
    circulant,
    det_cofactor,
    kron,
    matmul,
    nullspace,
    rref,
    signed_power,
)

F = cyclotomic_field(3)
R = PolynomialRing(F, ("x", "y"))
x, y = R.variable("x"), R.variable("y")


def test_construction_and_indexing():
    m = Matrix(R, [[x, y], [R.zero(), R.one()]])
    assert m.shape == (2, 2)
    assert m[0, 1] == y
    assert m[1, 0].is_zero() and m[-1, -1] == R.one() and m.column(0) == (x, R.zero())
    with pytest.raises(ValueError):
        Matrix(R, [[x], [x, y]])  # ragged rows
    # out of range raises IndexError, as a dense row does, stored entry or not
    for ij in [(2, 0), (0, 2), (1, 2), (-3, 0), (0, -3)]:
        with pytest.raises(IndexError):
            m[ij]
    with pytest.raises(IndexError):
        m.column(2)


def permutation(space, perm) -> Matrix:
    """P with P e_j = e_{perm[j]}: column j carries a 1 in row perm[j]."""
    return Matrix.weighted_permutation(space, [(i, space.one()) for i in perm])


def test_matmul_identity_zero():
    m = Matrix(R, [[x, y], [y, x]])
    eye = Matrix.identity(R, 2)
    assert m @ eye == m
    assert eye @ m == m
    assert (m - m).is_zero()
    assert Matrix.zero(R, 2, 2).is_zero()
    # a product that meets each row's columns in descending order still
    # stores them ascending
    assert m @ permutation(R, [1, 0]) == Matrix(R, [[y, x], [x, y]])


# Scalars of the three spaces a product runs over; each pool holds zero and
# a value together with its negative, so entries of a product can cancel.
_z = F.zeta(1)
_POLYS = [R.zero(), R.one(), x, -x, y, x * y + R.scalar(2), R.scalar(_z) * y - x]
_JETS = JetSpace(R, 2)
PRODUCT_SPACES = {
    "field": (F, [F.zero(), F.one(), -F.one(), _z, F.element([2, -3]), F.element([-2, 3])]),
    "poly": (R, _POLYS),
    "jet": (_JETS, [Jet(p, 2) for p in _POLYS]),
}


@st.composite
def _sparse_matrix(draw, space, pool, nrows, ncols):
    """An nrows x ncols matrix over `space`, entries from `pool`, with some
    rows and columns zeroed, or all of it."""
    zero = pool[0]
    rows = [[draw(st.sampled_from(pool)) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        dead_rows = draw(st.sets(st.integers(0, 4)))
        dead_cols = draw(st.sets(st.integers(0, 4)))
        rows = [[zero if i in dead_rows or j in dead_cols else e for j, e in enumerate(r)]
                for i, r in enumerate(rows)]
    if draw(st.integers(0, 5)) == 0:
        rows = [[zero] * ncols for _ in range(nrows)]
    return Matrix(space, rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_SPACES)), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_matmul_matches_dense_oracle(kind, n, k, m, data):
    # n x 0 operands and 0 x 0 ones (a matrix without rows has no columns)
    # are what rank-0 factorizations multiply
    space, pool = PRODUCT_SPACES[kind]
    a = data.draw(_sparse_matrix(space, pool, n, k))
    b = data.draw(_sparse_matrix(space, pool, a.ncols, m))
    got = a @ b
    assert got.shape == (a.nrows, b.ncols)
    assert got == matmul(a, b)
    bad = Matrix(space, [[pool[1]] * max(m, 1) for _ in range(a.ncols + 1)])
    with pytest.raises(ValueError):
        a @ bad
    with pytest.raises(ValueError):
        matmul(a, bad)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_SPACES)), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.booleans(), st.data())
def test_kron_matches_dense_oracle(kind, n, k, p, q, right_identity, data):
    # non-square and empty operands, zeroed rows and columns, and an identity
    # on either side, where the sparse product places the other entry itself
    space, pool = PRODUCT_SPACES[kind]
    a = data.draw(_sparse_matrix(space, pool, n, k))
    b = (Matrix.identity(space, p) if right_identity
         else data.draw(_sparse_matrix(space, pool, p, q)))
    got = a.kron(b)
    assert got.shape == (a.nrows * b.nrows, a.ncols * b.ncols)
    assert got == kron(a, b)
    left = Matrix.identity(space, p).kron(a)
    assert left == kron(Matrix.identity(space, p), a)
    # I_p (x) a places a's entries themselves, but for its ones, where the
    # identity's one is placed: nothing is multiplied
    assert all(left[l * n + i, l * k + j] is a[i, j]
               for i in range(n) for j in range(k) for l in range(p)
               if not (a[i, j].is_zero() or a[i, j] == space.one()))
    if right_identity:
        # a (x) I_p likewise
        assert all(got[i * p + l, j * p + l] is a[i, j]
                   for i in range(a.nrows) for j in range(a.ncols) for l in range(p)
                   if not a[i, j].is_zero())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["field", "poly"]), st.integers(1, 9), st.data())
def test_circulant_matches_dense_oracle(kind, n, data):
    # entry (i, j) is first_row[(j - i) mod n]; the zeros of the first row
    # are not stored, and circulants multiply as a commutative algebra, each
    # product the circulant of its own first row (the round trip of the
    # Knorrer witnesses rests on it)
    space, pool = PRODUCT_SPACES[kind]
    rows = [data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            for _ in range(2)]
    got, other = (Matrix.circulant(space, r) for r in rows)
    assert got == circulant(space, rows[0])
    assert got.nonzero() == dense_nonzero(got)
    assert [len(r) for r in got.nonzero()] == [sum(not a.is_zero() for a in rows[0])] * n
    product = got @ other
    assert product == other @ got == Matrix.circulant(space, product.rows[0])


# -- the one nonzero reader ---------------------------------------------------------


def dense_nonzero(m: Matrix) -> list:
    return [[(j, a) for j, a in enumerate(row) if not a.is_zero()] for row in m.rows]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_SPACES)), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_nonzero_is_the_dense_walk(kind, n, k, data):
    # zeroed rows and columns, all-zero matrices, 1 x k rows and the 0 x 0
    # matrix (a matrix without rows has no columns)
    space, pool = PRODUCT_SPACES[kind]
    m = data.draw(_sparse_matrix(space, pool, n, k))
    assert m.nonzero() == dense_nonzero(m)
    assert m.is_zero() == all(a.is_zero() for row in m.rows for a in row)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_SPACES)), st.integers(0, 3), st.integers(0, 3),
       st.data())
def test_every_operation_stores_the_canonical_form(kind, n, k, data):
    # explicit zeros, sums that cancel and jets whose products truncate to
    # zero: whatever builds a matrix stores its nonzero entries only, columns
    # ascending, so that it equals and hashes as its dense twin does
    space, pool = PRODUCT_SPACES[kind]
    a, b = (data.draw(_sparse_matrix(space, pool, n, k)) for _ in range(2))
    c = data.draw(_sparse_matrix(space, pool, a.ncols, n))
    s = data.draw(_sparse_matrix(space, pool, n, n))
    v = data.draw(st.sampled_from(pool))
    perm = data.draw(st.permutations(range(n)))
    ri = data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if a.nrows else []
    ci = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if a.ncols else []
    built = {
        "dense": a, "zero": Matrix.zero(space, n, k), "identity": Matrix.identity(space, n),
        "scalar": Matrix.scalar(space, n, v),
        "weighted_permutation": Matrix.weighted_permutation(space, [(i, v) for i in perm]),
        "block": Matrix.block(space, [[a, b], [b, a]]),
        "block_diagonal": Matrix.block_diagonal(space, [a, c, b]),
        "block_cyclic": Matrix.block_cyclic(space, [Matrix.scalar(space, n, v), s], [s, s]),
        "add": a + b, "sub": a - b, "cancel": a - a, "neg": -a, "matmul": a @ c,
        # a's nonzeros land in descending columns, stored ascending
        "reversed": a @ permutation(space, reversed(range(a.ncols))),
        "kron": a.kron(c), "scale": a.scale(v), "map": a.map(lambda e: e * v),
        "submatrix": a.submatrix(ri, ci),
    }
    if kind == "field":
        built["rref"] = rref_matrix(a)[0]
        if not s.det().is_zero():
            built["inverse"] = inverse_field(s)
    else:
        built["constant_terms"] = a.constant_terms()
        built["to_jets"] = a.to_jets(1)
    for name, m in built.items():
        assert m.nonzero() == dense_nonzero(m), name
        twin = Matrix(m.space, m.rows)
        assert m == twin and hash(m) == hash(twin), name
    assert built["cancel"] == built["zero"] and hash(built["cancel"]) == hash(built["zero"])
    assert built["matmul"] == matmul(a, c) and hash(built["matmul"]) == hash(matmul(a, c))
    assert built["kron"] == kron(a, c) and hash(built["kron"]) == hash(kron(a, c))
    assert a + b == b + a and hash(a + b) == hash(b + a)


def test_map_refuses_a_function_that_moves_zero():
    # map visits the stored entries only, so the zeros it skips must stay zero
    m = Matrix(R, [[x, R.zero()]])
    with pytest.raises(ValueError, match="zero to zero"):
        m.map(lambda p: p + R.one())
    assert m.map(lambda p: p * y) == Matrix(R, [[x * y, R.zero()]])


def dense_projective_sum(p: MatFac) -> list[int]:
    """Projective recognition as a walk over every (i, j): the shift of each
    diagonal position, which must hold f in one slot and 1 in the others."""
    for m in p.mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                if i != j and not m[i, j].is_zero():
                    raise MatfacError("not a sum of projectives: off-diagonal entry present")
    shifts = []
    for pos in range(p.n):
        diag = [m[pos, pos] for m in p.mats]
        for entry in diag:
            if entry != p.f and entry != p.ring.one():
                raise MatfacError(
                    f"not a sum of projectives: diagonal entry {entry} is neither f nor 1")
        if diag.count(p.f) != 1:
            raise MatfacError("not a sum of projectives: expected exactly one f per position")
        shifts.append((p.d - diag.index(p.f)) % p.d)
    return sorted(shifts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MatfacError as e:
        return str(e)


# f = x, so that y is in the variable support only through the entries
_F = x
_FACTOR_POOL = [R.zero(), R.one(), _F, -x, y, y + R.one(), R.scalar(_z) * x * y]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.integers(0, 3), st.booleans(), st.data())
def test_nonzero_readers_match_dense_walks(d, n, diagonal, data):
    # the readers that skip zeros through `Matrix.nonzero()` against the
    # dense walks over every entry; `diagonal` keeps only diagonal entries of
    # 0, 1 and f, so that projective recognition reaches its diagonal checks
    pool = _FACTOR_POOL[:3] if diagonal else _FACTOR_POOL
    mats = [data.draw(_sparse_matrix(R, pool, n, n)) for _ in range(d)]
    if diagonal:
        mats = [Matrix(R, [[a if i == j else R.zero() for j, a in enumerate(row)]
                           for i, row in enumerate(m.rows)]) for m in mats]
    p = MatFac(R, _F, mats)
    entries = [a for m in mats for row in m.rows for a in row]
    for m in mats:
        assert m.max_degree() == max(
            (a.total_degree() for row in m.rows for a in row if not a.is_zero()), default=0)
        assert m.kron(mats[0]) == kron(m, mats[0])
    assert p.is_reduced() == all(a.constant_term().is_zero() for a in entries)
    assert variable_support(p) == frozenset(
        v for q in [_F, *entries] for exps in q.terms for v, e in zip(R.vars, exps) if e)
    found = outcome(recognize_projective_sum, p)
    event("recognized" if isinstance(found, list) else found.split(":")[-1])
    assert found == outcome(dense_projective_sum, p)


def test_scalar_and_diagonal():
    s = Matrix.scalar(R, 3, x)
    assert s == Matrix(R, [[x if i == j else R.zero() for j in range(3)] for i in range(3)])


def test_kron_mixed_product():
    a = Matrix(R, [[x, R.one()], [R.zero(), y]])
    b = Matrix(R, [[y]])
    k = a.kron(b)
    assert k.shape == (2, 2)
    assert k[0, 0] == x * y
    # mixed product law (A kron B)(C kron D) = AC kron BD
    c = Matrix(R, [[R.one(), x], [y, R.zero()]])
    d = Matrix(R, [[x]])
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_block_and_submatrix_round_trip():
    a = Matrix(R, [[x]])
    b = Matrix(R, [[y]])
    z = Matrix.zero(R, 1, 1)
    m = Matrix.block(R, [[a, z], [z, b]])
    assert m.shape == (2, 2)
    assert m.submatrix([0], [0]) == a
    assert m.submatrix([1], [1]) == b
    assert m.submatrix([0, 1], [0, 1]) == m


def test_block_diagonal():
    a = Matrix(R, [[x, y], [y, x]])
    b = Matrix(R, [[R.one()]])
    m = Matrix.block_diagonal(R, [a, b])
    assert m.shape == (3, 3)
    assert m[2, 2] == R.one()
    assert m[0, 2].is_zero() and m[2, 0].is_zero()


def test_det_two_by_two():
    m = Matrix(R, [[x, y], [y, x]])
    assert m.det() == x * x - y * y
    assert det_bareiss(m) == x * x - y * y
    assert det_cofactor(m) == x * x - y * y


def test_det_multiplicative_on_products():
    a = Matrix(R, [[x, R.one()], [y, x]])
    b = Matrix(R, [[x + y, y], [R.zero(), x]])
    assert (a @ b).det() == a.det() * b.det()


def poly_entry():
    # small random polynomials: c0 + c1*x + c2*y
    return st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).map(
        lambda t: R.scalar(t[0]) + R.scalar(t[1]) * x + R.scalar(t[2]) * y
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(poly_entry(), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_cofactor_oracle(entries):
    m = Matrix(R, entries)
    expected = det_cofactor(m)
    assert m.det() == expected
    assert det_bareiss(m) == expected


def nonzero_poly_entry():
    return poly_entry().map(lambda p: R.one() if p.is_zero() else p)


# '*' is a nonzero entry.  Step 0 updates row 4, which is then zero in
# columns 1 and 2 and lags two steps; at step 3 row 3 is zero in column 3,
# so row 4 becomes the pivot row through a swap and is caught up.  Row 5
# lags three steps and is then updated by step 3.  Row 3 lags to the end:
# step 4 swaps it below row 5, and it is caught up as the last row.  Any
# other course would make rows 0 and 4 proportional or leave a column
# without a pivot, so a nonzero determinant forces this one.
LAGGING_PATTERN = ["*..*..",
                   ".*...*",
                   "..*.*.",
                   ".....*",
                   "*..*..",
                   "...**."]
# column 4 is zero; rows 1 and 3 lag before the elimination reaches it
ZERO_COLUMN_PATTERN = ["*.*..",
                       "..**.",
                       "*..*.",
                       ".*...",
                       "...*."]


def planted(pattern, values) -> Matrix:
    values = iter(values)
    return Matrix(R, [[next(values) if c == "*" else R.zero() for c in row] for row in pattern])


def linear_entries(count):
    return [R.scalar(i + 1) + R.scalar(i % 3 - 1) * x + R.scalar(1 - i % 2) * y
            for i in range(count)]


@st.composite
def half_zero_matrices(draw):
    # n <= 6 with at least half of the n^2 entries zero: LAGGING_PATTERN with
    # drawn entries, or random positions made zero, and sometimes a whole
    # zero column; returns the matrix and that column
    if draw(st.integers(0, 3)) == 0:
        return planted(LAGGING_PATTERN, draw(st.lists(nonzero_poly_entry(),
                                                      min_size=17, max_size=17))), None
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.one_of(st.just(R.zero()), poly_entry()),
                            min_size=n * n, max_size=n * n))
    for pos in draw(st.permutations(range(n * n)))[:(n * n + 1) // 2]:
        entries[pos] = R.zero()
    zero_column = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if zero_column is not None:
        entries[zero_column::n] = [R.zero()] * n
    return Matrix(R, [entries[i * n:(i + 1) * n] for i in range(n)]), zero_column


@settings(max_examples=80, deadline=None)
@given(half_zero_matrices())
@example((planted(LAGGING_PATTERN, linear_entries(17)), None))
@example((planted(ZERO_COLUMN_PATTERN, linear_entries(10)), 4))
def test_bareiss_matches_cofactor_on_half_zero_matrices(drawn):
    # the lazily scaled rows give the cofactor determinant; the explicit
    # examples take the forced courses above (LAGGING_PATTERN's entries
    # there give a nonzero determinant)
    m, zero_column = drawn
    event("zero column" if zero_column is not None else f"n = {m.nrows}")
    det = det_bareiss(m)
    assert det == det_cofactor(m)
    if zero_column is not None:
        assert det.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(R.zero()), poly_entry()), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.sampled_from(["full", "upper", "lower"]))
def test_bareiss_forms_no_difference_with_a_zero_cross_factor(entries, shape):
    # an update whose rows[i][k] or rows[k][j] is zero is rows[i][j] * pivot
    # alone; in a triangular matrix with a nonzero diagonal every update is,
    # so no difference is formed at all
    n = len(entries)
    if shape != "full":
        kept = [[e if (j >= i if shape == "upper" else j <= i) else R.zero()
                 for j, e in enumerate(row)] for i, row in enumerate(entries)]
        entries = [[R.one() + x if i == j and e.is_zero() else e for j, e in enumerate(row)]
                   for i, row in enumerate(kept)]
    m = Matrix(R, entries)
    event(f"{shape}, {sum(e.is_zero() for row in entries for e in row)} zero entries")
    sub, differences = Polynomial.__sub__, []

    def recording(a, b):
        differences.append((a, b))
        return sub(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polynomial, "__sub__", recording)
        det = det_bareiss(m)
    assert det == det_cofactor(m)
    if shape != "full":
        assert differences == []
        diagonal = R.one()
        for i in range(n):
            diagonal = diagonal * entries[i][i]
        assert det == diagonal


def field_entry():
    return st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
        lambda t: F.element([t[0], t[1]])
    )


def one_term_rows(ncols):
    """Rows with at most one nonzero coefficient, some of them holding a
    stored zero coefficient as well or in its place."""
    return st.lists(st.integers(0, ncols - 1), min_size=1, max_size=2, unique=True).flatmap(
        lambda cols: st.one_of(st.just(F.zero()), field_entry()).map(
            lambda v: {cols[0]: v, **{c: F.zero() for c in cols[1:]}}))


@st.composite
def sparse_systems(draw, nrows, ncols, entry, dependent=False):
    """(rows, ncols): nrows x ncols rows of `entry` draws as sparse dicts,
    zeros left out, then (when `dependent`, maybe) the sum of the first and
    the last of them, then up to three one-term rows, all shuffled."""
    ncols = draw(ncols)
    entries = [[draw(entry) for _ in range(ncols)] for _ in range(draw(nrows))]
    if dependent and len(entries) > 1 and draw(st.booleans()):
        entries.append([p + q for p, q in zip(entries[0], entries[-1])])
    rows = [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in entries]
    rows += draw(st.lists(one_term_rows(ncols), max_size=3))
    return draw(st.permutations(rows)), ncols


# Systems whose forced columns take every course of the singleton sweep: a
# stored zero coefficient, which is no entry; a chain that needs three
# sweeps; a row whose entries are all forced; a duplicated singleton row; an
# empty row.
CASCADE_SYSTEMS = [
    ([{0: 0, 1: 1}, {0: 0}], 2),
    ([{1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1}], 3),
    ([{0: 1, 1: 1}, {1: 1}, {0: 1}], 3),
    ([{1: 1}, {1: 1}, {0: 1, 1: 1, 2: 1}], 3),
    ([{}, {0: 1, 1: 1}], 2),
]


def over_f(system):
    rows, ncols = system
    return [{c: F.rational(v) for c, v in row.items()} for row in rows], ncols


def with_cascade_examples(test):
    for system in CASCADE_SYSTEMS:
        test = example(over_f(system))(test)
    return test


def dense_entries(rows, ncols) -> list[list]:
    return [[row.get(j, F.zero()) for j in range(ncols)] for row in rows]


@settings(max_examples=40, deadline=None)
@given(sparse_systems(st.integers(2, 4), st.integers(2, 5), field_entry()))
@with_cascade_examples
def test_sparse_nullspace_matches_dense(system):
    sparse_rows, ncols = system
    copies = [dict(row) for row in sparse_rows]
    dense = nullspace(Matrix(F, dense_entries(sparse_rows, ncols)))
    sparse = sparse_nullspace(sparse_rows, ncols, F)
    assert sparse_rows == copies  # the caller's rows are not changed
    assert len(dense) == len(sparse)
    # every sparse kernel vector is killed by m
    zero = F.zero()
    for vec in sparse:
        for row in sparse_rows:
            acc = zero
            for j, c in row.items():
                if j in vec:
                    acc = acc + c * vec[j]
            assert acc.is_zero()
    # and both span the same subspace: identical canonical row forms
    dense_rows = [list(v) for v in dense]
    sparse_dense = [[vec.get(j, zero) for j in range(ncols)] for vec in sparse]
    assert rref(dense_rows, F) == rref(sparse_dense, F)


@settings(max_examples=40, deadline=None)
@given(sparse_systems(st.integers(1, 5), st.integers(1, 6),
                      st.one_of(st.just(F.zero()), field_entry()), dependent=True))
@with_cascade_examples
def test_sparse_nullspace_is_the_documented_basis(system):
    # the exact kernel, not just its span: one vector per free column,
    # ascending, its unit first, then minus the free column's entries of the
    # reduced pivot rows, pivots ascending
    sparse_rows, ncols = system
    reduced = {next(j for j, e in enumerate(row) if not e.is_zero()): row
               for row in rref(dense_entries(sparse_rows, ncols), F)}
    expected = [
        [(fc, F.one())] + [(pc, -reduced[pc][fc]) for pc in sorted(reduced)
                           if not reduced[pc][fc].is_zero()]
        for fc in range(ncols) if fc not in reduced
    ]
    basis = sparse_nullspace(sparse_rows, ncols, F)
    assert [list(vec.items()) for vec in basis] == expected


def coprime_tensor_rank_9():
    """The tensor of the three rank-one factorizations x{i}_0 x{i}_1 x{i}_2
    over Q(zeta_3) with twist zeta_3: rank 9, the shape of the benchmark's
    `refute-3x3`."""
    ring = PolynomialRing(cyclotomic_field(3), [f"x{i}_{j}" for i in range(3) for j in range(3)])
    spec = sum_of_products(ring, [[ring.variable(f"x{i}_{j}") for j in range(3)]
                                  for i in range(3)])
    t = spec.row_factorization(0)
    for i in range(1, 3):
        t = tensor(t, spec.row_factorization(i), ring.field.root_of_unity(3))
    return t


def refute_3x3_rows():
    """The precision-1 system that refutes the rank-9 coprime tensor against
    its first shift: the oracle's rows of every slot but the last, which
    `hom_space_jets` leaves out, over 3 * 9 * 9 unknowns."""
    t = coprime_tensor_rank_9()
    slots = oracles.hom_equation_rows(t, t.shift(1), 1)
    return [r for slot in slots[:-1] for r in slot], t.d * t.n * t.n, t.ring.field


@pytest.mark.parametrize("system", [
    pytest.param(refute_3x3_rows, id="refute-3x3-precision-1"),
    pytest.param(lambda: (*over_f(CASCADE_SYSTEMS[1]), F), id="three-sweep-chain"),
])
def test_singleton_sweeps_force_every_unknown_with_no_elimination(count_calls, system):
    # every unknown is forced by a row that the earlier sweeps left with one
    # entry, so no row reaches the elimination
    rows, ncols, field = system()
    adds = count_calls(_Echelon.add)
    assert sparse_nullspace(rows, ncols, field) == []
    assert adds == []


def test_inverse_field_of_a_triangular_matrix():
    m = Matrix(F, [[F.rational(2), F.zeta(1)], [F.zero(), F.rational(3)]])
    inv = inverse_field(m)
    eye = Matrix.identity(F, 2)
    assert m @ inv == eye
    assert inv @ m == eye


def test_map_changes_space():
    m = Matrix(F, [[F.zeta(1)]])
    lifted = m.map(R.scalar, R)
    assert lifted.space is R
    assert lifted[0, 0] == R.scalar(F.zeta(1))


def test_max_degree_and_constant_terms():
    m = Matrix(R, [[x * y + R.one(), y], [R.zero(), R.scalar(4)]])
    assert m.max_degree() == 2
    consts = m.constant_terms()
    assert consts[0, 0] == F.one()
    assert consts[1, 1] == F.rational(4)


# -- block-cyclic reduction inside Matrix.det --------------------------------------


def block_cyclic(cs, blocks, n):
    """c_I * I_n on the diagonal blocks, A_I in block (I, (I+1) mod d), zeros elsewhere."""
    d = len(cs)
    zero = Matrix.zero(R, n, n)
    grid = [[zero] * d for _ in range(d)]
    for i in range(d):
        grid[i][i] = Matrix.scalar(R, n, cs[i])
        grid[i][(i + 1) % d] = blocks[i]
    return Matrix.block(R, grid)


def nonzero_entry():
    # constant term 1..4 keeps every entry nonzero
    return st.tuples(st.integers(1, 4), st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda t: R.scalar(t[0]) + R.scalar(t[1]) * x + R.scalar(t[2]) * y
    )


@st.composite
def block_cyclic_parts(draw, entry=poly_entry(), ds=(2, 3, 4), max_n=3):
    d = draw(st.sampled_from(ds))
    n = draw(st.integers(1, max_n))
    cs = [draw(st.one_of(st.just(R.zero()), poly_entry())) for _ in range(d)]
    blocks = [Matrix(R, [[draw(entry) for _ in range(n)] for _ in range(n)])
              for _ in range(d)]
    return cs, blocks, n


@settings(max_examples=30, deadline=None)
@given(block_cyclic_parts())
def test_block_cyclic_reduction_matches_cofactor_oracle(parts):
    # random blocks: non-commuting A_I, non-scalar products, some c_I zero;
    # the library's builder gives the zero-grid assembly.  The computed cut
    # of the oracles keeps the cofactor determinant; the library, handed no
    # product of the blocks, reads nothing and eliminates once
    cs, blocks, n = parts
    m = Matrix.block_cyclic(R, [Matrix.scalar(R, n, c) for c in cs], blocks)
    assert m == block_cyclic(*parts)
    det = det_cofactor(m)
    cut = block_cyclic_cut(m)
    assert cut is not None and det_cofactor(cut) == det
    with mock.patch("matfac.linalg.det_bareiss", wraps=det_bareiss) as elimination:
        assert m.det() == det
    scalar = m == Matrix.scalar(R, m.nrows, m[0, 0])
    assert elimination.call_count == (0 if scalar else 1)


def test_block_cyclic_needs_d_at_least_two_and_equal_square_blocks():
    a, b = Matrix(R, [[x]]), Matrix(R, [[y]])
    with pytest.raises(ValueError):
        Matrix.block_cyclic(R, [a], [b])
    with pytest.raises(ValueError):
        Matrix.block_cyclic(R, [a, a], [b])
    with pytest.raises(ValueError):
        Matrix.block_cyclic(R, [a, a], [b, Matrix(R, [[x, y], [y, x]])])
    assert Matrix.block_cyclic(R, [a, a], [b, b]) == Matrix(R, [[x, y], [y, x]])


@settings(max_examples=15, deadline=None)
@given(block_cyclic_parts(entry=nonzero_entry(), ds=(3, 4), max_n=2), st.data())
def test_stray_entry_falls_back_to_elimination(parts, data):
    cs, blocks, n = parts
    rows = [list(r) for r in block_cyclic(cs, blocks, n).rows]
    # a nonzero entry in block (0, 2), which must be zero for d >= 3
    rows[data.draw(st.integers(0, n - 1))][2 * n + data.draw(st.integers(0, n - 1))] = x
    m = Matrix(R, rows)
    assert block_cyclic_cut(m) is None
    assert m.det() == det_cofactor(m)


@settings(max_examples=15, deadline=None)
@given(block_cyclic_parts(entry=nonzero_entry(), max_n=2), st.data())
def test_unequal_diagonal_falls_back_to_elimination(parts, data):
    cs, blocks, n = parts
    if n == 1:  # a 1 x 1 block is always scalar; widen to 2 x 2
        n = 2
        blocks = [Matrix(R, [[R.one(), x], [y, R.one()]])] * len(cs)
    rows = [list(r) for r in block_cyclic(cs, blocks, n).rows]
    # the last diagonal entry of a diagonal block differs from its first
    r = data.draw(st.integers(0, len(cs) - 1)) * n + n - 1
    rows[r][r] = rows[r][r] + R.one()
    m = Matrix(R, rows)
    assert block_cyclic_cut(m) is None
    assert m.det() == det_cofactor(m)


@st.composite
def scalar_cut_parts(draw):
    """The block-cyclic matrix of blocks whose product is the scalar
    a_0...a_{d-1} I_n, built with that product recorded, so its determinant
    is read as (g, n): A_0 = a_0 P U and A_1 = a_1 U^-1 P^-1 for a
    permutation P and a shear U = I + t E_ij, the other A_I = a_I I_n.  The
    diagonal scalars are sometimes all equal, so the matrix is not scalar
    only because of its off-diagonal blocks."""
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 8 // d))
    if draw(st.booleans()):
        cs = [draw(poly_entry())] * d
    else:
        cs = [draw(st.one_of(st.just(R.zero()), poly_entry())) for _ in range(d)]
    a = [draw(poly_entry()) for _ in range(d)]
    perm = draw(st.permutations(range(n)))
    p = permutation(R, perm)
    p_inv = permutation(R, sorted(range(n), key=perm.__getitem__))
    shear = [[R.one() if i == j else R.zero() for j in range(n)] for i in range(n)]
    unshear = [list(r) for r in shear]
    if n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(poly_entry())
        shear[i][j], unshear[i][j] = t, -t
    blocks = [(p @ Matrix(R, shear)).scale(a[0]), (Matrix(R, unshear) @ p_inv).scale(a[1])]
    blocks += [Matrix.scalar(R, n, c) for c in a[2:]]
    return Matrix.block_cyclic(R, [Matrix.scalar(R, n, c) for c in cs], blocks,
                               _product=math.prod(a, start=R.one()))


def det_cases():
    """Block-cyclic matrices of rank <= 8: read ones (`scalar_cut_parts`),
    whose determinants are (g, n) for n odd and even, and record-free ones,
    which are eliminated."""
    return st.one_of(scalar_cut_parts(),
                     block_cyclic_parts(max_n=2).map(lambda parts: block_cyclic(*parts)))


@settings(max_examples=60, deadline=None)
@given(det_cases())
def test_factored_determinant_matches_oracles(m):
    # the factored determinant, expanded, is the cofactor oracle's and
    # minus the determinant of a row-swapped copy
    base, exponent = _det_power(m)
    det = det_cofactor(m)
    assert base ** exponent == m.det() == det
    assert det == -det_bareiss(Matrix(R, [m.rows[1], m.rows[0], *m.rows[2:]]))


@settings(max_examples=60, deadline=None)
@given(det_cases())
def test_det_as_power_matches_the_signed_power_oracle(m):
    # the same matrices, asked for det = u g^s with g the base their factored
    # determinant ends at, its negation ((-g)^n = (-1)^n g^n, decided by the
    # factors), its square and an unrelated g: (u, s) exactly
    # when the oracle finds det = u g^s in the cofactor determinant, None
    # otherwise, and None for every g when the determinant is zero
    base, _ = _det_power(m)
    det = det_cofactor(m)
    for g in (base, -base, base * base, x * x + y):
        assert m.det_as_power(g) == signed_power(det, g)
    if det.is_zero():
        event("zero determinant")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relative_sign_of_signed_powers(n):
    # det_as_power(g) gives the sign of det relative to g^s: by the factors
    # when the cut stops at (+-g) I_n, (-g)^n = (-1)^n g^n, and by value (g^n
    # expanded) when the determinant ends as +-g^n itself
    g = x + y
    for base in (g, -g):
        sign = 1 if base == g else (-1) ** n
        scalar = Matrix.scalar(R, n, base)
        assert scalar.det_as_power(g) == (sign, n)
        assert scalar.det_as_power(-g) == (sign * (-1) ** n, n)
        for unit in (1, -1):
            value = base ** n if unit == 1 else -(base ** n)
            assert Matrix(R, [[value]]).det_as_power(g) == (unit * sign, n)
    assert Matrix.scalar(R, n, g).det_as_power(g * g) == (None if n % 2 else (1, n // 2))
    assert Matrix.scalar(R, n, g + g).det_as_power(g) is None
    assert Matrix(R, [[g ** n + x]]).det_as_power(g) is None
    # no answer for a zero determinant, nor for a g of degree 0, whose
    # powers do not fix s
    assert Matrix.zero(R, n, n).det_as_power(g) is None
    for unit_or_zero in (R.one(), -R.one(), R.zero()):
        assert Matrix.scalar(R, n, g).det_as_power(unit_or_zero) is None
        assert Matrix.identity(R, n).det_as_power(unit_or_zero) is None


def test_det_memo_holds_the_factored_power_of_a_polynomial_matrix():
    # one slot: the field value of a field matrix, the factored (base,
    # exponent) of a polynomial one; det() expands it, and it stays memoized
    m = Matrix.scalar(R, 3, x + y)
    assert m.det() == (x + y) ** 3
    assert m._det == (x + y, 3) and _det_power(m) is m._det
    assert m.det_as_power(-x - y) == (-1, 3) and m._det == (x + y, 3)
    c = Matrix(F, [[F.rational(2), F.one()], [F.one(), F.one()]])
    assert c.det() == F.one() == c._det
    with pytest.raises(TypeError):
        _det_power(c)
    with pytest.raises(ValueError):
        Matrix(R, [[x, y]]).det_as_power(x)


def test_scalar_matrices_stop_before_any_cut():
    g = x + y
    for n in (1, 2, 3, 4):
        assert _det_power(Matrix.scalar(R, n, g)) == (g, n)


@pytest.mark.parametrize("n_rows,k", [(3, 3), (4, 2)])
def test_tensor_factor_determinants_match_elimination(n_rows, k):
    # cofactor expansion is too slow at these ranks; each factor's
    # determinant is read from its record, and swapping rows 0 and 1 gives a
    # record-free copy, which elimination sees as the negated matrix
    ring = PolynomialRing(cyclotomic_field(k),
                          tuple(f"x{i}_{j}" for i in range(n_rows) for j in range(k)))
    rows = [[ring.variable(f"x{i}_{j}") for j in range(k)] for i in range(n_rows)]
    fac, report = build_from_sum(sum_of_products(ring, rows))
    assert report.passed
    for m in fac.mats:
        swapped = Matrix(ring, [m.rows[1], m.rows[0], *m.rows[2:]])
        assert _block_cyclic_cut(m) is not None and _block_cyclic_cut(swapped) is None
        assert m.det() == -det_bareiss(swapped)
