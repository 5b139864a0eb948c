"""Morphisms between factorizations, jet hom spaces, idempotent splitting."""

import pytest

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    Morphism,
    PolynomialRing,
    admits_invertible_combination,
    cyclotomic_field,
    hom_space_jets,
    scale_by_units,
    split_idempotent,
)
from matfac.morphisms import _intertwining_report

F = cyclotomic_field(3)
R = PolynomialRing(F, ("a", "b", "c"))
a, b, c = (R.variable(v) for v in ("a", "b", "c"))


def rank_one(*entries):
    f = R.one()
    for e in entries:
        f = f * e
    return MatFac(R, f, [Matrix(R, [[e]]) for e in entries])


X = rank_one(a, b, c)


def test_identity_is_morphism():
    ident = Morphism.identity(X)
    assert ident.is_morphism()
    assert ident.is_isomorphism()
    assert ident.component(1) == Matrix.identity(R, 1)


def test_intertwining_law_rejects_wrong_components():
    # multiplying slot 0 only by a constant breaks the law unless all match
    comps = [Matrix(R, [[R.scalar(2)]]), Matrix.identity(R, 1), Matrix.identity(R, 1)]
    alpha = Morphism(X, X, comps)
    assert not alpha.is_morphism()
    uniform = Morphism(X, X, [Matrix(R, [[R.scalar(2)]])] * 3)
    assert uniform.is_morphism()
    assert uniform.is_isomorphism()


def test_multiplication_by_f_is_endomorphism():
    mul = Morphism(X, X, [Matrix(R, [[X.f]])] * 3)
    assert mul.is_morphism()
    assert not mul.is_isomorphism()  # determinant f is not a unit constant


def test_endpoint_compatibility_enforced():
    other = rank_one(a, a, a)
    with pytest.raises(MatfacError):
        Morphism(X, other, [Matrix.identity(R, 1)] * 3)  # different f
    with pytest.raises(ValueError):
        Morphism(X, X, [Matrix.identity(R, 1)] * 2)  # wrong count


def test_compose_and_direct_sum():
    two = Morphism(X, X, [Matrix(R, [[R.scalar(2)]])] * 3)
    three = Morphism(X, X, [Matrix(R, [[R.scalar(3)]])] * 3)
    assert two.compose(three).component(1)[0, 0] == R.scalar(6)
    s = two.direct_sum(three)
    assert s.source == X.direct_sum(X)
    assert s.is_morphism()
    assert s.component(1)[0, 0] == R.scalar(2)
    assert s.component(1)[1, 1] == R.scalar(3)
    assert s.component(1)[0, 1].is_zero()


def test_scale_witness_has_jet_inverse():
    z = F.zeta(1)
    scaled, witness = scale_by_units(X, [z, z, z])
    jw = witness.to_jets(2)
    inv = witness.inverse_jets(precision=2)
    assert inv.is_morphism()
    # component-wise products are the identity at jet level, both ways
    for k in range(3):
        prod = jw.component(k) @ inv.component(k)
        assert all(
            prod[i, j].poly == (R.one() if i == j else R.zero())
            for i in range(prod.nrows) for j in range(prod.ncols)
        )


def test_hom_space_self_is_one_dimensional_at_constant_precision():
    basis = hom_space_jets(X, X, precision=1)
    assert len(basis.basis) == 1
    assert admits_invertible_combination(basis)


def test_hom_space_to_shift_is_empty():
    basis = hom_space_jets(X, X.shift(1), precision=1)
    assert len(basis.basis) == 0
    assert not admits_invertible_combination(basis)


def test_hom_space_contains_identity_truncation():
    basis = hom_space_jets(X, X, precision=2)
    assert basis.contains_truncation(Morphism.identity(X))


def test_hom_space_of_direct_sum_counts_blocks():
    s = X.direct_sum(X)
    basis = hom_space_jets(s, s, precision=1)
    # constant endomorphisms of 1 (+) 1 are full 2x2 scalars: dimension 4
    assert len(basis.basis) == 4
    assert admits_invertible_combination(basis)


def test_split_idempotent_projection():
    s = X.direct_sum(X.shift(1))
    proj = Morphism(
        s, s,
        [Matrix(R, [[R.one(), R.zero()], [R.zero(), R.zero()]])] * 3,
    )
    assert proj.is_morphism()
    res = split_idempotent(s, proj)
    assert res.rank_image == 1
    assert res.complement.rank == 1
    assert res.image.validate().passed
    assert res.complement.validate().passed
    assert res.witness.is_morphism()
    assert res.witness.is_isomorphism()


def test_split_idempotent_rejects_non_idempotent():
    two = Morphism(X, X, [Matrix(R, [[R.scalar(2)]])] * 3)
    with pytest.raises(MatfacError):
        split_idempotent(X, two)


def test_corrupted_component_names_slot_and_entry():
    # one wrong entry in component 1 of an identity breaks exactly the two
    # slots whose law involves that component: p = 0 and p = 1
    xx = X.direct_sum(X)
    comps = list(Morphism.identity(xx).comps)
    comps[1] = Matrix(R, [[R.one(), a], [R.zero(), R.one()]])
    bad = Morphism(xx, xx, comps)
    assert not bad.is_morphism()
    assert not bad.is_isomorphism()
    rep = _intertwining_report(bad.comps, bad.source.mats, bad.target.mats)
    assert not rep.passed
    assert [e.start for e in rep.entries if not e.ok] == [0, 1]
    assert rep.entries[0].detail == "entry (0,1): got 0"
    assert rep.entries[1].detail == f"entry (0,1): got {a * b}"
    assert rep.entries[2].ok and rep.entries[2].detail is None
