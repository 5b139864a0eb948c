"""Morphisms between factorizations, jet hom spaces, idempotent splitting."""

import hashlib
from itertools import product

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
    sum_of_products,
    tensor,
)
from matfac.morphisms import _intertwining_report, _monomials_below
from matfac.rings import grlex_key

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


@pytest.mark.parametrize("nv", range(1, 5))
@pytest.mark.parametrize("bound", range(5))
def test_monomials_below_matches_brute_force(nv, bound):
    ring = PolynomialRing(F, [f"v{i}" for i in range(nv)])
    oracle = sorted((e for e in product(range(bound), repeat=nv) if sum(e) < bound),
                    key=grlex_key)
    assert _monomials_below(ring, bound) == oracle


def _swapped_tensors():
    ring = PolynomialRing(F, ("x1", "x2", "x0", "y1", "y2", "y0"))
    x, y = (MatFac(ring, ring.parse("*".join(names)),
                   [Matrix(ring, [[ring.parse(v)]]) for v in names])
            for names in (("x1", "x2", "x0"), ("y1", "y2", "y0")))
    return tensor(x, y, F.zeta(1)), tensor(y, x, F.zeta(1))


@pytest.mark.parametrize("source, target, precision", [
    pytest.param(X, X, 2, id="end-X"),
    pytest.param(*_swapped_tensors(), 2, id="hom-XY-YX"),
    pytest.param(X.direct_sum(X), X.direct_sum(X), 1, id="end-X-plus-X"),
])
def test_hom_basis_coordinates_round_trip(source, target, precision):
    hb = hom_space_jets(source, target, precision)
    assert hb.dimension > 0
    nm = len(hb.monomials)
    for vec, comps in zip(hb.vectors, hb.basis):
        polys = [m.map(lambda jet: jet.poly, source.ring) for m in comps]
        assert hb.vectorize(Morphism(source, target, polys)) == vec
        # the documented unknown order (k, i, j, monomial), written out
        expected = {}
        for k, m in enumerate(polys):
            for i, j in product(range(target.n), range(source.n)):
                for midx, mono in enumerate(hb.monomials):
                    if mono in m[i, j].terms:
                        col = ((k * target.n + i) * source.n + j) * nm + midx
                        expected[col] = m[i, j].terms[mono]
        assert vec == expected


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


def count_matmuls(monkeypatch):
    """Count Matrix products from here on; returns the call list."""
    calls = []
    original = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


def test_law_is_checked_once_per_morphism(monkeypatch):
    z = F.zeta(1)
    _, witness = scale_by_units(X, [z, z, z])
    jet_inverse = witness.inverse_jets(precision=2)
    first = [(m.is_morphism(), m.is_isomorphism()) for m in (witness, jet_inverse)]
    assert first == [(True, True), (True, True)]
    calls = count_matmuls(monkeypatch)
    again = [(m.is_morphism(), m.is_isomorphism()) for m in (witness, jet_inverse)]
    assert again == first
    assert calls == []
    # a failing law is kept as well, entries and all
    bad = Morphism(X, X, [Matrix(R, [[R.one()]]), Matrix(R, [[a]]), Matrix(R, [[R.one()]])])
    assert not bad.is_morphism() and not bad.is_isomorphism()
    assert [e.start for e in bad._report.entries if not e.ok] == [0, 1]
    assert len(calls) == 6


def coprime_tensor_rank_8():
    """The tensor of the four rank-one factorizations x{i}_0 * x{i}_1 over Q
    with twist -1: rank 8, the shape of the benchmark's `coprime_tensor`
    with four rows of two."""
    ring = PolynomialRing(cyclotomic_field(2), [f"x{i}_{j}" for i in range(4) for j in range(2)])
    spec = sum_of_products(ring, [[ring.variable(f"x{i}_{j}") for j in range(2)]
                                  for i in range(4)])
    x = spec.row_factorization(0)
    for i in range(1, 4):
        x = tensor(x, spec.row_factorization(i), ring.field.root_of_unity(2))
    return x


# sha256 of the kernel vectors, keys and their order included, as the
# elimination that cleared every new pivot column from every older pivot row
# produced them
RANK_8_SHIFT_KERNEL_SHA256 = "6c53702683ffeca5a16335856d8b4d822cd6070e888d049999e7fee18f1840f9"


def test_hom_space_kernel_is_pinned():
    x = coprime_tensor_rank_8()
    assert x.n == 8
    hb = hom_space_jets(x, x.shift(1), 2)
    assert hb.dimension == 127
    data = repr([[(k, c.num, c.den) for k, c in vec.items()] for vec in hb.vectors])
    assert hashlib.sha256(data.encode()).hexdigest() == RANK_8_SHIFT_KERNEL_SHA256

