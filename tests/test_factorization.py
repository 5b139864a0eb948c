"""d-fold factorizations: the defining identity, shifts, sums, scaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from matfac.factorization import ValidationEntry, ValidationReport, _check_slots
from matfac.tensor import DetCheckEntry, DetCheckReport
from oracles import as_jets, factorization_verdict, first_wrong_entry, verdict

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


ENTRIES = [R.zero(), R.one(), a, b, c, a * b - c]


@st.composite
def factorizations(draw, d, f=a):
    """A MatFac of f with d slots of rank 0-2 and arbitrary entries: a direct
    sum needs matching shapes, not the defining identity."""
    n = draw(st.integers(0, 2))
    return MatFac(R, f, [Matrix(R, [[draw(st.sampled_from(ENTRIES)) for _ in range(n)]
                                    for _ in range(n)]) for _ in range(d)])


@st.composite
def summands(draw):
    d = draw(st.integers(2, 3))
    return draw(st.lists(factorizations(d), min_size=1, max_size=4))


def binary_sum(x, y):
    """The two-summand sum, slot by slot, as one block-diagonal matrix."""
    return MatFac(R, x.f, [Matrix.block_diagonal(R, [p, q]) for p, q in zip(x.mats, y.mats)])


@settings(max_examples=60, deadline=None)
@given(summands(), st.data())
def test_n_ary_direct_sum_is_the_left_fold(xs, data):
    # one call forms X (+) Y_1 (+) ... (+) Y_r in order, as the binary sums do
    first, *rest = xs
    fold = first
    for y in rest:
        fold = binary_sum(fold, y)
    total = first.direct_sum(*rest)
    assert total == fold
    assert total.n == sum(y.n for y in xs)
    # one summand of another d or f anywhere refuses the whole sum
    d = first.d
    bad = data.draw(st.one_of(factorizations(d + 1), factorizations(d, f=b)))
    at = data.draw(st.integers(0, len(rest)))
    with pytest.raises(MatfacError):
        first.direct_sum(*rest[:at], bad, *rest[at:])


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
    assert pres.matrix.det() == a * b
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
    xx = as_jets(rank_one(a, b, c).direct_sum(rank_one(a, b, c)), 4)
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


SLOT_ENTRIES = st.sampled_from([R.zero(), R.zero(), a, b, a + b, R.scalar(2)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_failing_slot_names_the_entry_a_dense_scan_finds(nrows, ncols, data):
    # want, and got = want with 0-3 entries redrawn (to zero, from zero, or
    # to a value that may be the same): the slot fails exactly when they
    # differ, and names the entry the dense scan of every position meets
    # first, rows first
    want = [[data.draw(SLOT_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    got = [list(row) for row in want]
    for _ in range(data.draw(st.integers(0, 3))):
        r, c = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
        got[r][c] = data.draw(SLOT_ENTRIES)
    g, w = Matrix(R, got), Matrix(R, want)
    (entry,) = _check_slots([(g, w)]).entries
    bad = first_wrong_entry(g, w)
    assert entry.ok == (bad is None)
    assert entry.detail == (None if bad is None else f"entry ({bad[0]},{bad[1]}): got {g[bad]}")


def test_validate_report_is_computed_once(monkeypatch):
    # MatFac and JetMatFac are immutable, so a second validate() reuses the
    # stored report and runs no matrix product
    subjects = [rank_one(a, b, c).direct_sum(rank_one(a, b, c))]
    subjects.append(as_jets(subjects[0], 4))
    products = []
    original = Matrix.__matmul__

    def counting(self, other):
        products.append(self.shape)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    for x in subjects:
        first = x.validate()
        assert first.passed and products
        products.clear()
        assert x.validate() is first
        assert products == []


def test_shift_carries_the_validation_over(monkeypatch):
    # T^i X's cyclic product from slot s is X's from slot s + i: the shift of
    # a validated X holds X's report, renumbered, and runs no product; it
    # equals a fresh validate() of the same matrices, entry by entry
    good = rank_one(a, b, c).direct_sum(rank_one(a, b, c).shift(1))
    mats = list(good.mats)
    mats[0] = Matrix(R, [[a, c], [R.zero(), b]])
    bad = MatFac(R, good.f, mats)
    for x in (good, bad):
        x.validate()
    assert len({(e.ok, e.detail) for e in bad.validate().entries}) == 3
    products = []
    original = Matrix.__matmul__

    def counting(self, other):
        products.append(self.shape)
        return original(self, other)

    for x in (good, bad):
        for i in range(-3, 7):
            monkeypatch.setattr(Matrix, "__matmul__", counting)
            carried = x.shift(i).validate()
            assert products == []
            monkeypatch.setattr(Matrix, "__matmul__", original)
            fresh = MatFac(R, x.f, x.shift(i).mats)
            assert not hasattr(fresh, "_report")
            assert carried == fresh.validate()
            assert [e.start for e in carried.entries] == [0, 1, 2]
    # a shift of a factorization not validated yet validates on demand
    y = rank_one(a, b, c)
    assert not hasattr(y.shift(1), "_report")
    assert y.shift(1).validate().passed


# -- one constructor check for exact and jet factorizations ---------------------

OTHER = PolynomialRing(F, ("u",))


def test_jet_factorization_refuses_fewer_than_two_factors():
    # these used to build, and validate() then passed vacuously
    one = Matrix.identity(R, 1).to_jets(2)
    for mats in ([], [one]):
        with pytest.raises(ValueError, match="d >= 2"):
            JetMatFac(R, a, 2, mats)


def test_jet_factorization_refuses_f_from_another_ring():
    one = Matrix.identity(R, 1).to_jets(2)
    with pytest.raises(ValueError, match="f lives in a different ring"):
        JetMatFac(R, OTHER.variable("u"), 2, [one, one])


def test_factors_over_the_wrong_space_name_the_expected_one():
    exact = [Matrix.identity(R, 1)] * 2
    jets = [m.to_jets(2) for m in exact]
    with pytest.raises(ValueError, match=r"over PolynomialRing\("):
        MatFac(R, a, jets)
    with pytest.raises(ValueError, match=r"over JetSpace\(.*N=2\)"):
        JetMatFac(R, a, 2, exact)
    with pytest.raises(ValueError, match=r"over JetSpace\(.*N=3\)"):
        JetMatFac(R, a, 3, jets)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(0, 2), data=st.data(),
       f=st.sampled_from([a * b, R.zero(), OTHER.variable("u")]))
def test_exact_and_jet_constructors_accept_and_refuse_together(d, n, data, f):
    # the jet constructor given to_jets of the same data gives the exact
    # constructor's verdict, message included, and both give the oracle's
    widths = data.draw(st.lists(st.sampled_from([n, n, n + 1]), min_size=d, max_size=d))
    heights = data.draw(st.lists(st.sampled_from([n, n, n + 1]), min_size=d, max_size=d))
    mats = [Matrix(R, [[data.draw(st.sampled_from(ENTRIES)) for _ in range(w)]
                       for _ in range(h)]) for w, h in zip(widths, heights)]
    precision = data.draw(st.integers(1, 3))
    exact = verdict(lambda: MatFac(R, f, mats))
    jet = verdict(lambda: JetMatFac(R, f, precision, [m.to_jets(precision) for m in mats]))
    assert exact == jet == factorization_verdict(R, f, mats)


@given(oks=st.lists(st.booleans(), max_size=4))
def test_a_report_passes_when_every_entry_does(oks):
    # the verdict is the report type's own, read from its entries
    rep = ValidationReport([ValidationEntry(start=i, ok=ok) for i, ok in enumerate(oks)])
    assert rep.passed is all(oks) and bool(rep) is all(oks)
    one = R.one()
    rep = DetCheckReport([DetCheckEntry(k=i, ok=ok, determinant=one) for i, ok in enumerate(oks)],
                         one)
    assert rep.passed is all(oks)
