"""The twisted tensor product: worked 3x3 and 9x9 examples, determinant law,
naturality witnesses, projectivity preservation."""

import math
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    PolynomialRing,
    Refusal,
    TensorMatFac,
    cyclotomic_field,
    det_check,
    distribute_witness,
    is_projective_tensor,
    projective,
    recognize_projective_sum,
    shift_witness,
    swap_witness,
    tensor,
)
from matfac.morphisms import Morphism, admits_invertible_combination, hom_space_jets

from matfac.linalg import _block_cyclic_cut, _det_power, _is_block_cyclic, det_bareiss
from matfac.tensor import _det_law

from oracles import (
    admits_invertible_combination_symbolic,
    assoc_regrouping,
    cut_det_as_power,
    cut_det_power,
    det_cofactor,
    shift_component,
    swap_component,
    tensor_factor,
    tensor_factors_twisted_late,
)

F3 = cyclotomic_field(3)
R9 = PolynomialRing(F3, ("x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"))


def rank_one(ring, *names):
    entries = [ring.variable(v) for v in names]
    f = ring.one()
    for e in entries:
        f = f * e
    return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])


X = rank_one(R9, "x1", "x2", "x0")
Y = rank_one(R9, "y1", "y2", "y0")
Z = rank_one(R9, "z1", "z2", "z0")
ZETA = F3.zeta(1)


def as_matrix(rows):
    return Matrix(R9, [[R9.parse(s) for s in row] for row in rows])


def carried_and_fresh(t):
    """The report a tensor carries from its construction, after checking
    that it equals a fresh validation of the same matrices."""
    carried = t.validate()
    assert MatFac(t.ring, t.f, t.mats).validate() == carried
    return carried


# The printed 3x3 triple for (x1,x2,x0) (x) (y1,y2,y0) at twist zeta,
# diagonal carrying the zeta-scaled y entries and the x entries one block over.
A1 = as_matrix([
    ["y1", "x1", "0"],
    ["0", "z*y0", "x2"],
    ["x0", "0", "z^2*y2"],
])
A2 = as_matrix([
    ["y2", "x1", "0"],
    ["0", "z*y1", "x2"],
    ["x0", "0", "z^2*y0"],
])
A0 = as_matrix([
    ["y0", "x1", "0"],
    ["0", "z*y2", "x2"],
    ["x0", "0", "z^2*y1"],
])


def test_three_by_three_example_exact():
    t = tensor(X, Y, ZETA)
    assert t.n == 3
    assert t.mats[0] == A1
    assert t.mats[1] == A2
    assert t.mats[2] == A0
    assert carried_and_fresh(t).passed
    assert t.f == X.f + Y.f


def test_nine_by_nine_example_exact():
    t = tensor(tensor(X, Y, ZETA), Z, ZETA)
    assert t.n == 9
    zero3 = Matrix.zero(R9, 3, 3)

    def zscaled(name, power):
        val = R9.scalar(F3.zeta(power)) * R9.variable(name)
        return Matrix.scalar(R9, 3, val)

    expected = [
        Matrix.block(R9, [
            [zscaled("z1", 0), A1, zero3],
            [zero3, zscaled("z0", 1), A2],
            [A0, zero3, zscaled("z2", 2)],
        ]),
        Matrix.block(R9, [
            [zscaled("z2", 0), A1, zero3],
            [zero3, zscaled("z1", 1), A2],
            [A0, zero3, zscaled("z0", 2)],
        ]),
        Matrix.block(R9, [
            [zscaled("z0", 0), A1, zero3],
            [zero3, zscaled("z2", 1), A2],
            [A0, zero3, zscaled("z1", 2)],
        ]),
    ]
    for p in range(3):
        assert t.mats[p] == expected[p]
    assert carried_and_fresh(t).passed


def test_tensor_remembers_factors():
    t = tensor(X, Y, ZETA)
    assert isinstance(t, TensorMatFac)
    assert t.left == X and t.right == Y and t.zeta == ZETA
    # provenance does not affect equality with plain data
    plain = MatFac(t.ring, t.f, list(t.mats))
    assert t == plain and plain == t


def test_non_primitive_twist_rejected():
    with pytest.raises(MatfacError):
        tensor(X, Y, F3.one())


def grid_ring(d):
    fld = cyclotomic_field(d)
    names = tuple(f"u{i}" for i in range(d)) + tuple(f"v{i}" for i in range(d))
    ring = PolynomialRing(fld, names)
    x1 = rank_one(ring, *(f"u{i}" for i in range(d)))
    y1 = rank_one(ring, *(f"v{i}" for i in range(d)))
    return ring, fld, x1, y1


def grid_factor(base, rank):
    return base if rank == 1 else base.direct_sum(base.shift(1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_determinant_law_on_grid(d, n, m):
    ring, fld, x1, y1 = grid_ring(d)
    x = grid_factor(x1, n)
    y = grid_factor(y1, m)
    zeta = fld.root_of_unity(d, 1)
    rep = det_check(x, y, zeta)
    assert rep.passed
    # independent oracle: cofactor expansion of each factor of the tensor
    t = tensor(x, y, zeta)
    assert carried_and_fresh(t).passed
    nm = n * m
    expected = (x.f + y.f) ** nm
    if (nm * (d + 1)) % 2:
        expected = -expected
    assert rep.expected == expected
    assert list(t.mats) == tensor_factors_twisted_late(x, y, zeta)
    for p, mat in enumerate(t.mats):
        assert mat == tensor_factor(x, y, zeta, p)
        assert det_cofactor(mat) == expected


# -- determinants read from the left operand's validation ---------------------------


def _record_free(m):
    """m rebuilt from its stored rows: the same matrix, with no recorded
    product of its cyclic blocks, so its determinant is computed."""
    return Matrix._sparse(m.space, m.nrows, m.ncols, m._rows)


def _read_ring(d):
    names = ("a", "b", "c") + tuple(f"v{i}" for i in range(d))
    return PolynomialRing(cyclotomic_field(d), names)


_READ_RINGS = {d: _read_ring(d) for d in range(2, 6)}


def _read_entries(ring):
    a, b, c = (ring.variable(v) for v in "abc")
    z = ring.scalar(ring.field.zeta())
    return [a, b, c, a + b, a * c - b, z * b + c, a * a, ring.one(), ring.zero()]


@st.composite
def read_cases(draw):
    """(x, y, zeta) with a validated left operand x of any rank the tensor
    allows up to rank 729: a chain of tensors of rank-one rows of
    polynomial entries, sometimes a direct sum with its shift, and shifted.
    y is a rank-one row, or (one case in four) the wide rank-two y1 + T y1
    of distinct variables, whose diagonal blocks are not scalar, so that its
    slots go to elimination; x is then one row.  A zero entry makes f_x = 0
    or f_y = 0; x takes one only while it is one row, since a zero block
    can let the oracle's computed cut fit a smaller d and leave it
    eliminating at the full rank."""
    d = draw(st.integers(2, 5))
    ring = _READ_RINGS[d]
    zeta = ring.field.root_of_unity(d, 1)
    entries = _read_entries(ring)

    def row(zero=True):
        pool = entries if zero else [e for e in entries if not e.is_zero()]
        es = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
        return MatFac(ring, math.prod(es, start=ring.one()), [Matrix(ring, [[e]]) for e in es])

    x = row()
    if draw(st.sampled_from(("rank one", "chain", "chain", "wide"))) == "wide":
        y1 = rank_one(ring, *(f"v{i}" for i in range(d)))
        return x.shift(draw(st.integers(0, d - 1))), y1.direct_sum(y1.shift(1)), zeta
    # rows tensored onto x: the tensor's rank d^(rows + 2) stays <= 729
    rows = 0 if x.f.is_zero() else draw(st.integers(0, int(math.log(729, d) + 1e-9) - 2))
    for _ in range(rows):
        x = tensor(x, row(zero=False), zeta)
    if 2 * d * x.n <= 729 and draw(st.booleans()):
        x = x.direct_sum(x.shift(1))
    return x.shift(draw(st.integers(0, d - 1))), row(), zeta


@settings(max_examples=30, deadline=None)
@given(read_cases(), st.data())
def test_read_determinants_equal_the_computed_cut(case, data):
    # every slot's determinant, read from the recorded product f_x * I, is
    # the one the oracle's computed cut gives, and the law's when f is not
    # constant; elimination of the record-free copy agrees at rank <= 9.  A
    # wide right operand's slots are not block-cyclic at d, so a record, even
    # a wrong one, is not read.  Matrices derived from a slot carry no
    # record, and the shift of a tensor, built before any determinant is
    # asked for, reads the same.
    x, y, zeta = case
    t = tensor(x, y, zeta)
    shift = data.draw(st.integers(1, t.d - 1))
    shifted = tensor(x, y, zeta).shift(shift)
    law = _det_law(t)
    event(f"d={t.d}, rank {next(r for r in (9, 81, 729) if t.n <= r)}"
          + (", wide" if y.n > 1 else ""))
    assert list(t.mats) == tensor_factors_twisted_late(x, y, zeta)
    for p, m in enumerate(t.mats):
        assert m._cycle == (t.d, x.f)
        free = _record_free(m)
        want = cut_det_as_power(m, t.f)
        assert m.det_as_power(t.f) == want
        assert shifted.mats[(p - shift) % t.d].det_as_power(t.f) == want
        if t.f.total_degree() > 0:
            assert want == law
        if t.n <= 9:
            assert m.det() == det_bareiss(free)
        if y.n > 1:
            assert not _is_block_cyclic(m, t.d)
            wrong = _record_free(m)
            wrong._cycle = (t.d, y.f)
            assert _det_power(wrong) == _det_power(free)
    m = t.mats[0]
    for derived in (m.map(lambda a: a), m.scale(t.ring.one()),
                    m.kron(Matrix.identity(t.ring, 1)), Matrix.identity(t.ring, 1).kron(m),
                    m.submatrix(range(m.nrows), range(m.ncols))):
        assert derived == m and not hasattr(derived, "_cycle")


def test_the_record_is_read_at_the_builders_d():
    # x = (0, a, 0, c) validates with f_x = 0 and zero blocks A_0 and A_2, and
    # y's entries make c_0 = c_1 and c_2 = c_3 at slots 0 and 2: those slots
    # are block-cyclic at d = 2 as well as at the builder's d = 4.  The read
    # uses d = 4 and gives (-f)^1; the oracle's computed cut takes the
    # smallest d that fits, 2, and stops at (v0 v1) * I_2 with the same
    # determinant, which the record-free copy eliminates
    ring = _READ_RINGS[4]
    a, c, v0, v1 = (ring.variable(v) for v in ("a", "c", "v0", "v1"))
    zeta = ring.field.root_of_unity(4, 1)
    z = ring.scalar(zeta)
    zero = ring.zero()
    x = MatFac(ring, zero, [Matrix(ring, [[e]]) for e in (zero, a, zero, c)])
    y = MatFac(ring, z * z * v0 * v0 * v1 * v1,
               [Matrix(ring, [[e]]) for e in (z * v1, v0, z * v0, v1)])
    t = tensor(x, y, zeta)
    assert t.f == -(v0 * v0 * v1 * v1)
    for p, m in enumerate(t.mats):
        assert _det_power(m) == (-t.f, 1)
        free = _record_free(m)
        assert _is_block_cyclic(m, 2) == (p % 2 == 0)
        assert cut_det_power(m) == ((v0 * v1, 2) if p % 2 == 0 else (-t.f, 1))
        assert m.det() == free.det()


def test_a_record_is_read_only_at_the_shape_it_was_made_for():
    # y is the rank-two factorization of v0 v1 + v2 v3 with non-diagonal
    # factors, so the slots carry the record f_x * I but their diagonal
    # blocks are not scalar: nothing is read (a read would give
    # (v0 v1 + ab)^2 at slot 0), each determinant is eliminated, and
    # det_check finds the law
    ring = PolynomialRing(cyclotomic_field(2), ("a", "b", "v0", "v1", "v2", "v3"))
    v0, v1, v2, v3 = (ring.variable(f"v{i}") for i in range(4))
    x = rank_one(ring, "a", "b")
    y = MatFac(ring, v0 * v1 + v2 * v3, [Matrix(ring, [[v0, v2], [-v3, v1]]),
                                         Matrix(ring, [[v1, -v2], [v3, v0]])])
    zeta = ring.field.root_of_unity(2, 1)
    t = tensor(x, y, zeta)
    for m in t.mats:
        assert m._cycle == (2, x.f) and _block_cyclic_cut(m) is None
        assert _det_power(m) == (det_bareiss(_record_free(m)), 1)
    assert det_check(x, y, zeta).passed


def test_determinant_law_at_a_rank_zero_left_operand():
    # z, a 0 x 0 matrix in each of its three slots, validates; its tensor
    # slots are empty and carry the record f_z * I_0, which has no blocks to
    # read: each determinant is the empty one, 1 = (f + g)^0
    z = MatFac(R9, X.f, [Matrix(R9, [])] * 3)
    t = tensor(z, Y, ZETA)
    assert all(m.shape == (0, 0) and not _is_block_cyclic(m, 3) for m in t.mats)
    rep = det_check(z, Y, ZETA)
    assert rep.passed and rep.expected == R9.one()
    assert [e.determinant for e in rep.entries] == [R9.one()] * 3


def test_tensor_refuses_an_unvalidated_operand_before_building_a_slot(count_calls):
    # the record rests on x's validation, so no slot is built before it is
    # checked
    built = count_calls(Matrix.block_cyclic)
    bad = MatFac(R9, X.f + R9.one(), X.mats)
    for left, right in ((bad, Y), (X, bad)):
        with pytest.raises(MatfacError, match="does not validate"):
            tensor(left, right, ZETA)
    assert built == []
    tensor(X, Y, ZETA)
    assert len(built) == 3


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_witness_components_are_the_grid_form(d, n, m):
    # the swap and shift witnesses, built one basis element at a time, equal
    # their block grids written out entry by entry
    ring, fld, x1, y1 = grid_ring(d)
    x, y = grid_factor(x1, n), grid_factor(y1, m)
    zeta = fld.root_of_unity(d, 1)
    swap = swap_witness(x, y, zeta)
    shift, _ = shift_witness(x, y, zeta)
    for k in range(d):
        assert swap.comps[k] == swap_component(x, y, zeta, k)
        assert shift.comps[k] == shift_component(x, y, zeta, k)


@pytest.mark.parametrize("rows", [[0, 0], [1, 2], [2, 0, 1, 1]])
def test_witness_constructor_refuses_non_permutations(rows):
    one = R9.one()
    with pytest.raises(ValueError, match="not a permutation"):
        Matrix.weighted_permutation(R9, [(i, one) for i in rows])
    assert Matrix.weighted_permutation(R9, [(1, one), (0, -one)]) == Matrix(
        R9, [[R9.zero(), -one], [one, R9.zero()]])


def test_swap_witness_is_isomorphism():
    w = swap_witness(X, Y, ZETA)
    assert w.source == tensor(X, Y, ZETA)
    assert w.target == tensor(Y, X, ZETA.inverse())
    assert w.is_morphism()
    assert w.is_isomorphism()


def test_shift_witness_and_data_equality():
    w, equality = shift_witness(X, Y, ZETA)
    assert equality  # T(X (x) Y) == X (x) TY on the nose
    assert w.is_morphism()
    assert w.is_isomorphism()
    assert w.source == tensor(X.shift(1), Y, ZETA)
    assert w.target == tensor(X, Y, ZETA).shift(1)


def test_distribute_witness():
    X2 = rank_one(R9, "x2", "x0", "x1")  # same f, different order
    w = distribute_witness(X, X2, Y, ZETA)
    assert w.is_morphism()
    assert w.is_isomorphism()
    assert w.target == tensor(X, Y, ZETA).direct_sum(tensor(X2, Y, ZETA))


def test_associativity_as_data():
    # conjugation by the regrouping permutation carries (X (x) Y) (x) Z onto
    # X (x) (Y (x) Z) literally: the twist exponents agree degreewise
    left = tensor(tensor(X, Y, ZETA), Z, ZETA)
    right = tensor(X, tensor(Y, Z, ZETA), ZETA)
    regroup = Morphism(source=left, target=right, comps=[assoc_regrouping(X, Y, Z)] * 3)
    assert regroup.is_morphism()
    assert regroup.is_isomorphism()


def test_projective_tensor_recognition():
    p = projective(R9, 3, X.f, 0)
    rep = is_projective_tensor(p, Y, ZETA)
    assert rep.passed
    assert rep.input_shifts == [0]
    assert len(rep.shifts_found) == 3
    t = tensor(p, Y, ZETA)
    assert carried_and_fresh(t).passed
    with pytest.raises(MatfacError):
        recognize_projective_sum(tensor(X, Y, ZETA))


def grid_projective_tensor(d, rank_p):
    """is_projective_tensor of P = P_0 (+) ... (+) P_{rank_p - 1} against the
    grid's rank-one Y."""
    ring, fld, x1, y1 = grid_ring(d)
    p = projective(ring, d, x1.f, 0)
    for i in range(1, rank_p):
        p = p.direct_sum(projective(ring, d, x1.f, i))
    return is_projective_tensor(p, y1, fld.root_of_unity(d, 1))


@pytest.mark.parametrize("d, rank_p", [(2, 2), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_projective_tensor_on_grid(d, rank_p):
    # P = P_0 (+) ... (+) P_{rank_p - 1} against a rank-one Y: each P_i (x) Y
    # is the sum of all d shifted projectives
    rep = grid_projective_tensor(d, rank_p)
    assert rep.passed
    assert rep.input_shifts == list(range(rank_p))
    assert rep.shifts_found == sorted(list(range(d)) * rank_p)
    assert rep.precision == 1


@pytest.mark.parametrize("d, rank_p", [(2, 2), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_projective_tensor_verdict_equals_the_symbolic_one(count_calls, d, rank_p):
    # the decider answers True from one evaluation point; the cofactor
    # expansion of the symbolic determinants agrees
    decider_calls = count_calls(admits_invertible_combination)
    assert grid_projective_tensor(d, rank_p).passed
    (hom_basis,), = decider_calls
    assert admits_invertible_combination_symbolic(hom_basis)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_shift_hom_verdict_equals_the_symbolic_one_on_grid(d, n, m):
    # the tensors of the determinant-law grid against their shifts: True
    # for the identity shift, and the symbolic verdict for every other one
    ring, fld, x1, y1 = grid_ring(d)
    t = tensor(grid_factor(x1, n), grid_factor(y1, m), fld.root_of_unity(d, 1))
    verdicts = []
    for i in range(d):
        hb = hom_space_jets(t, t.shift(i), 1)
        verdicts.append(admits_invertible_combination(hb))
        assert verdicts[-1] == admits_invertible_combination_symbolic(hb)
    assert verdicts[0]


def test_projective_tensor_true_by_evaluation(count_calls):
    # P_0 (+) P_1 (+) P_2 against a rank-one Y at d = 3: 81 basis vectors,
    # whose symbolic 9 x 9 determinants took minutes; no polynomial
    # determinant is computed for the True verdict
    dets = count_calls(_det_power)
    rep = grid_projective_tensor(3, 3)
    assert rep.passed and rep.shifts_found == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert dets == []


def test_projective_tensor_decides_by_the_symbolic_test_alone(count_calls):
    hom_calls = count_calls(hom_space_jets)
    decider_calls = count_calls(admits_invertible_combination)
    ring, fld, x1, y1 = grid_ring(3)
    rep = is_projective_tensor(projective(ring, 3, x1.f, 0), y1, fld.root_of_unity(3, 1))
    assert rep.passed
    assert len(hom_calls) == 1 and len(decider_calls) == 1


def test_projective_tensor_below_precision_one_raises():
    # P_0 (x) Y is a sum of projectives (passed at precision 1); at precision
    # 0 the jet hom space has no unknowns, which must not read as "refuted"
    ring, fld, x1, y1 = grid_ring(3)
    p, zeta = projective(ring, 3, x1.f, 0), fld.root_of_unity(3, 1)
    assert is_projective_tensor(p, y1, zeta, precision=1).passed
    with pytest.raises(ValueError, match="at least 1"):
        is_projective_tensor(p, y1, zeta, precision=0)


def test_projective_tensor_at_rank_zero_and_at_a_unit_origin():
    # rank 0 is the empty sum of projectives; f + g that is a unit at the
    # origin has no origin ranks to read, which is refused
    empty = MatFac(R9, X.f, [Matrix(R9, [])] * 3)
    rep = is_projective_tensor(empty, Y, ZETA)
    assert rep.passed and rep.input_shifts == [] and rep.shifts_found == []
    unit_at_origin = projective(R9, 3, X.f + R9.one(), 0)
    with pytest.raises(Refusal, match="f \\+ g is a unit at the origin"):
        is_projective_tensor(unit_at_origin, Y, ZETA)


def test_projective_tensor_with_inconsistent_origin_ranks_is_refuted(monkeypatch):
    # P (x) Y is a sum of projectives, so its origin coranks add up to its
    # rank; with every factor read as rank 0 at the origin they add up to
    # d times that, which no sum of projectives has
    # the package's `tensor` is the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["matfac.tensor"], "rank", lambda m: 0)
    rep = is_projective_tensor(projective(R9, 3, X.f, 0), Y, ZETA)
    assert not rep.passed and rep.shifts_found == [] and rep.input_shifts == [0]
