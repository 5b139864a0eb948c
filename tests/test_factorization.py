"""d-fold factorizations: the defining identity, shifts, sums, scaling."""

import pytest

from matfac import (
    Jet,
    JetMatFac,
    MatFac,
    MatfacError,
    Matrix,
    PolynomialRing,
    cyclotomic_field,
    default_precision,
    projective,
    scale_by_units,
)

F = cyclotomic_field(3)
R = PolynomialRing(F, ("a", "b", "c"))
a, b, c = (R.variable(v) for v in ("a", "b", "c"))


def rank_one(*entries):
    f = R.one()
    for e in entries:
        f = f * e
    return MatFac(R, f, [Matrix(R, [[e]]) for e in entries])


def test_validate_passes_on_rank_one():
    x = rank_one(a, b, c)
    rep = x.validate()
    assert rep.passed
    assert len(rep.entries) == 3
    assert bool(rep)


def test_validate_pinpoints_corruption():
    f = a * b * c
    bad = MatFac(R, f, [Matrix(R, [[a]]), Matrix(R, [[b]]), Matrix(R, [[a]])])
    rep = bad.validate()
    assert not rep.passed
    # every cyclic start sees the bad product; details name an entry
    assert all(not e.ok for e in rep.entries)
    assert rep.entries[0].detail is not None


def test_phi_indexing_and_shift():
    x = rank_one(a, b, c)
    # phi(1), phi(2) are the stored order; phi(0) is the closing factor
    assert x.phi(1)[0, 0] == a
    assert x.phi(2)[0, 0] == b
    assert x.phi(0)[0, 0] == c
    tx = x.shift(1)
    assert tx.phi(1)[0, 0] == b
    assert tx.phi(2)[0, 0] == c
    assert tx.phi(0)[0, 0] == a
    assert x.shift(3) == x
    assert x.shift(-1) == x.shift(2)
    assert tx.validate().passed


def test_equality_and_hash():
    x = rank_one(a, b, c)
    x2 = rank_one(a, b, c)
    assert x == x2
    assert hash(x) == hash(x2)
    assert x != rank_one(b, a, c)
    assert len({x, x2}) == 1


def test_direct_sum():
    x = rank_one(a, b, c)
    s = x.direct_sum(x.shift(1))
    assert s.n == 2
    assert s.validate().passed
    assert s.phi(1)[0, 0] == a and s.phi(1)[1, 1] == b
    assert s.phi(1)[0, 1].is_zero()
    with pytest.raises(MatfacError):
        x.direct_sum(rank_one(a, a, a))  # different f


def test_is_reduced():
    assert rank_one(a, b, c).is_reduced()
    not_reduced = MatFac(
        R, a, [Matrix(R, [[a]]), Matrix(R, [[R.one()]]), Matrix(R, [[R.one()]])]
    )
    assert not not_reduced.is_reduced()


def test_projective_pattern():
    f = a * b * c
    p = projective(R, 3, f, 0)
    assert p.validate().passed
    assert not p.is_reduced()
    # exactly one slot carries f, the others are 1
    slots = [p.phi(k)[0, 0] for k in (1, 2, 0)]
    assert slots.count(f) == 1
    assert slots.count(R.one()) == 2
    shifted = projective(R, 3, f, 1)
    assert shifted.validate().passed
    assert shifted != p


def test_reduce_mod_vars_kills_named_variables():
    x = rank_one(a + b, b, c)
    red = x.reduce_mod_vars({"b"})
    assert red.phi(1)[0, 0] == a
    assert red.phi(2)[0, 0].is_zero()
    assert red.f == x.f.reduce_mod_vars({"b"})


def test_scale_by_units_witness():
    x = rank_one(a, b, c)
    z = F.zeta(1)
    scaled, witness = scale_by_units(x, [z, z, z])  # product zeta^3 = 1
    assert scaled.validate().passed
    assert witness.source == scaled and witness.target == x
    assert witness.is_morphism()
    assert witness.is_isomorphism()
    assert scaled.phi(1)[0, 0] == R.scalar(z) * a
    with pytest.raises(MatfacError):
        scale_by_units(x, [z, z, F.one()])  # product is not 1


def test_cokernel_presentation():
    x = rank_one(a, b, c)
    pres = x.cokernel_presentation(1, 2)
    assert pres.size == 1
    assert pres.matrix[0, 0] == a * b
    assert pres.det() == a * b
    full = x.cokernel_presentation(1, 3)
    assert full.matrix[0, 0] == x.f
    with pytest.raises(ValueError):
        x.cokernel_presentation(1, 4)


def test_default_precision_covers_entries():
    x = rank_one(a * a, b, c)
    assert default_precision(x) >= 3  # max degree 2, plus one


def test_rank_mismatch_rejected():
    with pytest.raises((MatfacError, ValueError)):
        MatFac(R, a * b, [Matrix(R, [[a]]), Matrix(R, [[b], [a]])])


def test_jet_validate_pinpoints_corruption():
    xx = rank_one(a, b, c).direct_sum(rank_one(a, b, c)).to_jets(4)
    assert xx.validate().passed
    mats = list(xx.mats)
    rows = [list(r) for r in mats[2].rows]
    rows[1][0] = Jet(a, 4)
    mats[2] = Matrix(mats[2].space, rows)
    bad = JetMatFac(R, xx.f, 4, mats)
    rep = bad.validate()
    assert not rep.passed
    # every cyclic product carries the stray a into entry (1,0) as a^2*b
    assert all(not e.ok for e in rep.entries)
    assert {e.detail for e in rep.entries} == {f"entry (1,0): got {Jet(a * a * b, 4)}"}
