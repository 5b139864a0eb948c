"""Property tests for the one field elimination (`linalg._Echelon`).

Every routine built on it is compared with the dense textbook oracles in
tests/oracles.py over Q(zeta_m), m in {3, 4, 12}, on matrices up to 6 x 6
with zero rows, repeated rows and rows that combine earlier ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfac import Matrix, cyclotomic_field
from matfac.errors import MatfacError
from matfac.linalg import _Echelon, inverse_field, rank, rref

import oracles

FIELDS = {m: cyclotomic_field(m) for m in (3, 4, 12)}
SETTINGS = settings(max_examples=60, deadline=None)


def entries(field):
    """Small elements, many of them zero."""
    coords = st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree)
    return st.one_of(st.just(field.zero()), coords.map(field.element))


@st.composite
def rows_over(draw, field, nrows, ncols, kinds=("free", "free", "zero", "copy", "combo")):
    """nrows x ncols rows in which some rows are zero, copies of an earlier
    row, or an earlier row plus a multiple of another."""
    entry = entries(field)
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            rows.append([field.zero()] * ncols)
        elif kind == "copy" and i:
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        elif kind == "combo" and i:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(entry)
            rows.append([p + c * q for p, q in zip(rows[a], rows[b])])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return rows


@st.composite
def field_matrices(draw, square=False):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows = draw(st.integers(1, 6))
    if not square:
        return Matrix(field, draw(rows_over(field, nrows, draw(st.integers(1, 6)))))
    # square: half of them free rows (mostly invertible), in shuffled order
    # so that the pivot columns come in every order
    kinds = ("free",) if draw(st.booleans()) else ("free", "free", "zero", "copy", "combo")
    rows = draw(rows_over(field, nrows, nrows, kinds))
    return Matrix(field, [rows[i] for i in draw(st.permutations(range(nrows)))])


def leading_column(row) -> int:
    return next(c for c, a in enumerate(row) if not a.is_zero())


@SETTINGS
@given(field_matrices())
def test_rref_matches_oracle(m):
    R, pivots = rref(m)
    reduced = oracles.rref([list(r) for r in m.rows], m.space)
    assert R.shape == m.shape
    assert [list(r) for r in R.rows[:len(pivots)]] == reduced
    assert Matrix(m.space, R.rows[len(pivots):]).is_zero()
    assert pivots == [leading_column(row) for row in reduced]
    assert rank(m) == len(reduced)


@SETTINGS
@given(field_matrices(square=True))
def test_det_matches_cofactor(m):
    assert m.det() == oracles.det_cofactor(m)


def test_det_of_empty_matrix_is_one():
    field = FIELDS[3]
    assert Matrix(field, []).det() == field.one()


@SETTINGS
@given(field_matrices(square=True))
def test_inverse_field(m):
    field = m.space
    if oracles.det_cofactor(m).is_zero():
        with pytest.raises(MatfacError):
            inverse_field(m)
        return
    inv = inverse_field(m)
    eye = Matrix.identity(field, m.nrows)
    assert m @ inv == eye and inv @ m == eye


def test_rref_back_substitutes():
    field = FIELDS[3]
    one, zero = field.one(), field.zero()
    R, pivots = rref(Matrix(field, [[one, one], [zero, one]]))
    assert R == Matrix.identity(field, 2) and pivots == [0, 1]


def test_reduce_clears_filled_in_pivot_columns():
    # clearing column 0 fills in column 1, itself a pivot column
    field = FIELDS[3]
    one = field.one()
    ech = _Echelon()
    ech.add({0: one, 1: one})
    ech.add({1: one, 2: one})
    assert ech.reduce({0: one}) == {2: one}


@SETTINGS
@given(field_matrices())
def test_pivot_rows_stay_in_echelon_form(m):
    ech = _Echelon()
    rows = [dict(enumerate(row)) for row in m.rows]
    for row in rows:
        ech.add(row)
        # a one at its pivot and nothing at an earlier column
        assert all(min(prow) == pc and prow[pc].is_one() for pc, prow in ech.pivots.items())
    for row in rows:
        assert ech.reduce(row) == {}
    ech.reduced()
    reduced = ech.pivots
    assert all(min(prow) == pc and prow[pc].is_one() for pc, prow in reduced.items())
    assert all(cc == pc or cc not in reduced for pc, prow in reduced.items() for cc in prow)
