"""Exact matrices: construction, kron/blocks, determinants, kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfac import Matrix, PolynomialRing, cyclotomic_field
from matfac.linalg import det_bareiss, inverse_field, solve_right, sparse_nullspace

from oracles import det_cofactor, nullspace, rref

F = cyclotomic_field(3)
R = PolynomialRing(F, ("x", "y"))
x, y = R.variable("x"), R.variable("y")


def test_construction_and_indexing():
    m = Matrix(R, [[x, y], [R.zero(), R.one()]])
    assert m.shape == (2, 2)
    assert m[0, 1] == y
    with pytest.raises(ValueError):
        Matrix(R, [[x], [x, y]])  # ragged rows


def test_matmul_identity_zero():
    m = Matrix(R, [[x, y], [y, x]])
    eye = Matrix.identity(R, 2)
    assert m @ eye == m
    assert eye @ m == m
    assert (m - m).is_zero()
    assert Matrix.zero(R, 2, 2).is_zero()


def test_scalar_and_diagonal():
    s = Matrix.scalar(R, 3, x)
    d = Matrix.diagonal(R, [x, x, x])
    assert s == d


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


def field_entry():
    return st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
        lambda t: F.element([t[0], t[1]])
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 5),
    st.data(),
)
def test_sparse_nullspace_matches_dense(nrows, ncols, data):
    entries = [
        [data.draw(field_entry()) for _ in range(ncols)] for _ in range(nrows)
    ]
    m = Matrix(F, entries)
    dense = nullspace(m)
    sparse_rows = [
        {j: e for j, e in enumerate(row) if not e.is_zero()} for row in entries
    ]
    sparse = sparse_nullspace(sparse_rows, ncols, F)
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


def test_solve_right_and_inverse_field():
    m = Matrix(F, [[F.rational(2), F.zeta(1)], [F.zero(), F.rational(3)]])
    inv = inverse_field(m)
    eye = Matrix.identity(F, 2)
    assert m @ inv == eye
    assert inv @ m == eye
    rhs = Matrix(F, [[F.one()], [F.zeta(1)]])
    sol = solve_right(m, rhs)
    assert m @ sol == rhs
    singular = Matrix(F, [[F.one(), F.one()], [F.one(), F.one()]])
    assert solve_right(singular, rhs) is None


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
