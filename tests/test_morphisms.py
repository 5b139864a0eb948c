"""Morphisms between factorizations, jet hom spaces, idempotent splitting."""

import hashlib
import re
from itertools import product

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from matfac import (
    JetHomBasis,
    JetMorphism,
    MatFac,
    MatfacError,
    Matrix,
    Morphism,
    Polynomial,
    PolynomialRing,
    admits_invertible_combination,
    constant_term_spot_check,
    cyclotomic_field,
    hom_space_jets,
    is_projective_tensor,
    jet_refute_shift_iso,
    projective,
    scale_by_units,
    split_idempotent,
    sum_of_products,
    tensor,
)
from matfac import morphisms
from matfac.cli import run_document
from matfac.linalg import _det_power, inverse_field, jet_inverse, sparse_nullspace
from matfac.morphisms import (
    _evaluation_point,
    _JetLayout,
    _intertwining_report,
    _last_slot_implied,
    _monomials_below,
)
from matfac.rings import grlex_key

import oracles

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
    assert ident.comps[1] == Matrix.identity(R, 1)


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
    assert two.compose(three).comps[1][0, 0] == R.scalar(6)
    xx = X.direct_sum(X)
    s = Morphism(xx, xx, [Matrix.block_diagonal(R, [p, q])
                          for p, q in zip(two.comps, three.comps)])
    assert s.is_morphism()
    assert s.comps[1][0, 0] == R.scalar(2)
    assert s.comps[1][1, 1] == R.scalar(3)
    assert s.comps[1][0, 1].is_zero()


def jet_inverse_morphism(alpha: Morphism, precision: int) -> JetMorphism:
    """The inverse of an isomorphism at jet precision, component by
    component (the exact inverse need not be polynomial)."""
    comps = [jet_inverse(c.to_jets(precision)) for c in alpha.comps]
    return JetMorphism(alpha.target, alpha.source, comps, precision)


def test_scale_witness_has_jet_inverse():
    z = F.zeta(1)
    scaled, witness = scale_by_units(X, [z, z, z])
    assert witness.is_isomorphism()
    inv = jet_inverse_morphism(witness, 2)
    assert inv.is_morphism()
    # component-wise products are the identity at jet level, both ways
    for k in range(3):
        prod = witness.comps[k].to_jets(2) @ inv.comps[k]
        assert all(
            prod[i, j].poly == (R.one() if i == j else R.zero())
            for i in range(prod.nrows) for j in range(prod.ncols)
        )


def test_hom_space_self_is_one_dimensional_at_constant_precision():
    basis = hom_space_jets(X, X, precision=1)
    assert basis.dimension == 1
    assert admits_invertible_combination(basis)


def test_hom_space_to_shift_is_empty():
    basis = hom_space_jets(X, X.shift(1), precision=1)
    assert basis.dimension == 0
    assert not admits_invertible_combination(basis)


def test_hom_space_contains_identity_truncation():
    basis = hom_space_jets(X, X, precision=2)
    assert oracles.truncation_in_span(basis, Morphism.identity(X))


def test_hom_space_of_direct_sum_counts_blocks():
    s = X.direct_sum(X)
    basis = hom_space_jets(s, s, precision=1)
    # constant endomorphisms of 1 (+) 1 are full 2x2 scalars: dimension 4
    assert basis.dimension == 4
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
    # every kernel vector, read in the documented unknown order (k, i, j,
    # monomial), is a jet morphism, and its components read back as it
    hb = hom_space_jets(source, target, precision)
    assert hb.dimension > 0
    for vec, comps in zip(hb.vectors, oracles.hom_basis_decode(hb)):
        assert JetMorphism(source, target, comps, precision).is_morphism()
        polys = [m.map(lambda jet: jet.poly, source.ring) for m in comps]
        assert oracles.hom_basis_encode(hb, polys) == vec


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
    inverse = jet_inverse_morphism(witness, 2)
    first = [(m.is_morphism(), m.is_isomorphism()) for m in (witness, inverse)]
    assert first == [(True, True), (True, True)]
    calls = count_matmuls(monkeypatch)
    again = [(m.is_morphism(), m.is_isomorphism()) for m in (witness, inverse)]
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



# -- the implied last slot of the jet hom-space system ------------------------------


def rank_one_over(ring, entries):
    f = ring.one()
    for e in entries:
        f = f * e
    return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])


def kernel_items(vectors):
    return [list(v.items()) for v in vectors]


def full_system_kernel(source, target, precision, slots=None):
    """sparse_nullspace of the oracle's rows of the first `slots` slots (all d
    by default), over the layout's unknowns."""
    rows = oracles.hom_equation_rows(source, target, precision)[:slots]
    ncols = source.d * target.n * source.n * len(_monomials_below(source.ring, precision))
    return sparse_nullspace([r for slot in rows for r in slot], ncols, source.ring.field)


def test_last_slot_is_kept_without_its_certificate():
    # (xy, w^2, x) against its second shift (x, xy, w^2): the degree-one part
    # of the target's slot 1 is zero, so the certificate fails and all three
    # slots are solved; leaving the last one out would be unsound
    ring = PolynomialRing(cyclotomic_field(2), ("x", "y", "w"))
    x, y, w = (ring.variable(v) for v in "xyw")
    xf = rank_one_over(ring, [x * y, w * w, x])
    target = xf.shift(2)
    assert not _last_slot_implied(xf, target)
    dims = [hom_space_jets(xf, target, n).dimension for n in range(1, 5)]
    assert dims == [1, 3, 7, 14]
    assert [len(full_system_kernel(xf, target, n)) for n in range(1, 5)] == dims
    assert [len(full_system_kernel(xf, target, n, slots=2)) for n in range(1, 5)] == [2, 7, 15, 27]


def test_last_slot_is_kept_when_an_endpoint_does_not_validate():
    # (a, b, 2c) does not factor f = abc, although its degree-one parts are
    # nonsingular: the law forces c0 = c1 = c2 = 2 c0 = 0, and without the
    # last slot c0 = c1 = c2 would survive
    bad = MatFac(R, X.f, [Matrix(R, [[e]]) for e in (a, b, c * R.scalar(2))])
    assert not bad.validate().passed
    assert not _last_slot_implied(X, bad)
    assert hom_space_jets(X, bad, 1).dimension == 0
    assert len(full_system_kernel(X, bad, 1, slots=2)) == 1


HOM_RINGS = {m: PolynomialRing(cyclotomic_field(m), ("x", "y", "w")) for m in (2, 3, 4)}
ENTRY_MONOMIALS = [e for e in product(range(3), repeat=3) if 1 <= sum(e) <= 2]


@st.composite
def hom_pairs(draw):
    """A reduced rank-one factorization with entries of one or two terms of
    degree 1 or 2 (some with no linear part), or its sum with a shift of
    itself; source and target are shifts of it, d = 2 or 3."""
    ring = HOM_RINGS[draw(st.sampled_from(sorted(HOM_RINGS)))]
    field = ring.field
    coeffs = [field.one(), -field.one(), field.rational(2), field.zeta(1)]
    d = draw(st.integers(2, 3))
    entries = []
    for _ in range(d):
        monos = draw(st.lists(st.sampled_from(ENTRY_MONOMIALS), min_size=1, max_size=2,
                              unique=True))
        entries.append(Polynomial(ring, {e: draw(st.sampled_from(coeffs)) for e in monos}))
    base = rank_one_over(ring, entries)
    if draw(st.booleans()):
        base = base.direct_sum(base.shift(draw(st.integers(1, d - 1))))
    source = base.shift(draw(st.integers(0, d - 1)))
    return source, base.shift(draw(st.integers(0, d - 1))), draw(st.integers(1, 2))


@settings(max_examples=80, deadline=None)
@given(hom_pairs())
def test_hom_space_kernel_matches_the_full_system(pair):
    # with or without the last slot, the kernel vectors, keys and their order
    # included, are those of the oracle's rows of all d slots
    source, target, precision = pair
    event("last slot left out" if _last_slot_implied(source, target) else "all slots")
    hb = hom_space_jets(source, target, precision)
    assert kernel_items(hb.vectors) == kernel_items(full_system_kernel(source, target, precision))


def sparse_constants(m: Matrix) -> dict:
    """The nonzero constant terms of a jet matrix, keyed by (i, j)."""
    consts = m.constant_terms()
    return {(i, j): consts[i, j] for i in range(consts.nrows) for j in range(consts.ncols)
            if not consts[i, j].is_zero()}


@settings(max_examples=80, deadline=None)
@given(hom_pairs())
def test_constants_read_from_coordinates_equal_the_decoded_ones(pair):
    # the one constant-term reader against constant_terms() of the basis
    # decoded entry by entry, for every basis element and component
    hb = hom_space_jets(*pair)
    event("nonzero hom space" if hb.dimension else "zero hom space")
    layout = _JetLayout(hb.source, hb.target, hb.monomials)
    decoded = [[sparse_constants(m) for m in comps] for comps in oracles.hom_basis_decode(hb)]
    assert [layout.constants(vec) for vec in hb.vectors] == decoded
    assert hb.constants() == decoded


def test_no_verdict_decodes_the_basis():
    # jet refutation, projective tensors, the spot check and the CLI read
    # constant terms and dimensions from the kernel coordinates (the package
    # has no decoder) and give their verdicts
    x8 = coprime_tensor_rank_8()
    assert jet_refute_shift_iso(x8, 2).all_refuted
    sym = rank_one_over(R, [a, a, a])
    assert jet_refute_shift_iso(sym, 2).refuted == {1: False, 2: False}
    ring = PolynomialRing(F, ("u0", "u1", "u2", "v0", "v1", "v2"))
    u, v = (rank_one_over(ring, [ring.variable(f"{s}{i}") for i in range(3)]) for s in "uv")
    p = projective(ring, 3, u.f, 0).direct_sum(projective(ring, 3, u.f, 1))
    assert is_projective_tensor(p, v, F.zeta(1)).passed
    assert constant_term_spot_check(X) and not constant_term_spot_check(sym)
    doc = {"ring": {"conductor": 3, "variables": ["a", "b", "c"]},
           "factorizations": {"X": {"f": "a*b*c", "matrices": [[["a"]], [["b"]], [["c"]]]}},
           "commands": [{"op": "hom-jets", "source": "X", "target": "X", "precision": 2,
                         "check_invertible": True}]}
    results, status = run_document(doc)
    assert status == 0
    assert results[0].data == {"dimension": hom_space_jets(X, X, 2).dimension,
                               "precision": 2, "admits_invertible_combination": True}


@pytest.mark.parametrize("source, target", [
    pytest.param(*_swapped_tensors(), id="hom-XY-YX-d3"),
    pytest.param(coprime_tensor_rank_8(), None, id="rank-8-shift-d2"),
])
def test_hom_space_jets_leaves_out_the_last_slot(count_calls, source, target):
    # on coprime tensors the last slot is implied: the elimination receives
    # the rows of slots 0..d-2 exactly, (d - 1)/d of all of them
    target = source.shift(1) if target is None else target
    calls = count_calls(sparse_nullspace)
    hom_space_jets(source, target, 2)
    (rows, _, _), = calls
    slots = oracles.hom_equation_rows(source, target, 2)
    d = source.d
    assert len(rows) * d == sum(map(len, slots)) * (d - 1)
    assert rows == [r for slot in slots[:-1] for r in slot]


# -- invertible combinations: evaluation first, symbolic determinants for "no" ------


def _jet_refute_hom_bases():
    ring = PolynomialRing(F, ("x1",))
    sym = rank_one_over(ring, [ring.variable("x1")] * 3)
    xy, yx = _swapped_tensors()
    coprime = coprime_tensor_rank_8()
    return [hom_space_jets(sym, sym.shift(i), 2) for i in (1, 2)] + [
        hom_space_jets(xy, yx, p) for p in (1, 2)] + [
        hom_space_jets(coprime, coprime.shift(1), 2)]


def test_invertible_combination_verdict_on_jet_refute_inputs():
    # the symmetric rank-one is isomorphic to its shifts (True); the swapped
    # tensors and the coprime tensor's shift are refuted (False) with nonzero
    # hom spaces, which a decider accepting a zero determinant would miss
    bases = _jet_refute_hom_bases()
    verdicts = [admits_invertible_combination(hb) for hb in bases]
    assert verdicts == [True, True, False, False, False]
    assert [hb.dimension > 0 for hb in bases] == [True, True, False, True, True]
    assert verdicts == [oracles.admits_invertible_combination_symbolic(hb) for hb in bases]


def fabricated_basis(coeffs):
    """A JetHomBasis of X = (a, b, c) onto itself whose b-th element is
    coeffs[b] times the identity, as precision-1 jets: coefficient c at
    index(k, 0, 0, 0) of every component k, and no coordinate where c = 0."""
    layout = _JetLayout(X, X, [(0, 0, 0)])
    scalars = [R.scalar(c).constant_term() for c in coeffs]
    vectors = [{layout.index(k, 0, 0, 0): c for k in range(3) if not c.is_zero()}
               for c in scalars]
    return JetHomBasis(X, X, 1, layout.monomials, vectors)


def test_invertible_combination_falls_back_when_the_point_vanishes(count_calls):
    # p2 t1 - p1 t2 vanishes at the evaluation point (p1, p2) but not
    # identically: the symbolic determinants decide True, one per component;
    # 0 t1 + 0 t2 vanishes identically: False at the first component
    p1, p2 = _evaluation_point(F, 2)
    assert p1 != p2
    dets = count_calls(_det_power)
    assert admits_invertible_combination(fabricated_basis([p2, -p1]))
    assert len(dets) == 3
    dets.clear()
    assert not admits_invertible_combination(fabricated_basis([0, 0]))
    assert len(dets) == 1


def test_true_verdict_computes_no_symbolic_determinant(count_calls):
    bases = _jet_refute_hom_bases()[:2]
    dets = count_calls(_det_power)
    assert all(admits_invertible_combination(hb) for hb in bases)
    assert admits_invertible_combination(fabricated_basis([1, 3]))
    assert dets == []


# -- one constructor check for exact and jet morphisms ---------------------------

OTHER = PolynomialRing(F, ("a", "b"))


def test_jet_morphism_refuses_endpoints_of_different_f():
    # this used to build; Morphism refused it
    other = rank_one(a, a, a)
    comps = [Matrix.identity(R, 1)] * 3
    with pytest.raises(MatfacError, match="share ring, d, and f"):
        JetMorphism(X, other, [c.to_jets(2) for c in comps], 2)
    with pytest.raises(MatfacError, match="share ring, d, and f"):
        JetMorphism(oracles.as_jets(X, 2), oracles.as_jets(other, 2),
                    [c.to_jets(2) for c in comps], 2)


def test_components_over_the_wrong_space_name_the_expected_one():
    comps = [Matrix.identity(R, 1)] * 3
    with pytest.raises(ValueError, match=r"over PolynomialRing\("):
        Morphism(X, X, [c.to_jets(2) for c in comps])
    with pytest.raises(ValueError, match=r"over JetSpace\(.*N=2\)"):
        JetMorphism(X, X, comps, 2)


# endpoints of every kind of mismatch: rank, f, d and ring
ENDPOINTS = [X, X.direct_sum(X), rank_one(a, a, a), rank_one(a * b, c),
             MatFac(OTHER, OTHER.variable("a"), [Matrix.identity(OTHER, 1)] * 3)]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_exact_and_jet_morphisms_accept_and_refuse_together(data):
    # for every (src, tgt) pair of ENDPOINTS in every example, so that each
    # kind of mismatch is met on every run: the jet constructor, given
    # to_jets of the same components (and exact or jet endpoints), gives the
    # exact constructor's verdict, message included, and both give the
    # oracle's
    for src, tgt in product(ENDPOINTS, repeat=2):
        ring = src.ring
        count = data.draw(st.integers(1, 4))
        shapes = data.draw(st.lists(st.sampled_from(
            [(tgt.n, src.n)] * 2 + [(tgt.n + 1, src.n), (tgt.n, src.n + 1)]),
            min_size=count, max_size=count))
        comps = [Matrix(ring, [[ring.one()] * w for _ in range(h)]) for h, w in shapes]
        precision = data.draw(st.integers(1, 3))
        jet_src, jet_tgt = ((oracles.as_jets(x, precision) if data.draw(st.booleans()) else x)
                            for x in (src, tgt))
        exact = oracles.verdict(lambda: Morphism(src, tgt, comps))
        jet = oracles.verdict(lambda: JetMorphism(
            jet_src, jet_tgt, [c.to_jets(precision) for c in comps], precision))
        assert exact == jet == oracles.morphism_verdict(src, tgt, comps)


S = X.direct_sum(X.shift(1))
PROJ = Morphism(S, S, [Matrix(R, [[R.one(), R.zero()], [R.zero(), R.zero()]])] * 3)


@pytest.mark.parametrize("x, e, message", [
    (X, Morphism.identity(rank_one(a, c, b)),
     "idempotent must be an endomorphism of the given factorization"),
    (X, Morphism(X, X.shift(1), [Matrix.identity(R, 1)] * 3),
     "idempotent must be an endomorphism"),
    (X, Morphism(X, X, [Matrix(R, [[R.scalar(2)]])] + [Matrix.identity(R, 1)] * 2),
     "idempotent candidate is not a morphism"),
    (MatFac(R, X.f, [Matrix(R, [[e]]) for e in (a, b, a)]),
     Morphism.identity(MatFac(R, X.f, [Matrix(R, [[e]]) for e in (a, b, a)])),
     "factorization does not validate; refusing to split"),
], ids=["other-factorization", "not-endo", "not-morphism", "invalid"])
def test_split_idempotent_refuses_unmet_hypotheses(x, e, message):
    with pytest.raises(MatfacError, match=re.escape(message)):
        split_idempotent(x, e)


@pytest.mark.parametrize("precision", [0, -1])
def test_split_idempotent_refuses_a_precision_below_one(precision):
    # refused up front, as hom_space_jets refuses it: the idempotent's law
    # is not even computed
    e = Morphism(S, S, PROJ.comps)
    with pytest.raises(ValueError, match=f"jet precision must be at least 1, got {precision}"):
        split_idempotent(S, e, precision)
    assert not hasattr(e, "_report")


def test_split_idempotent_refuses_disagreeing_origin_ranks(monkeypatch):
    # a true idempotent's components share their origin rank; one pivot
    # dropped from the first component's reduction is refused, not split
    original = morphisms.rref
    seen = []

    def lopsided(m):
        reduced, pivots = original(m)
        seen.append(m)
        return reduced, pivots if len(seen) > 1 else pivots[:-1]

    monkeypatch.setattr(morphisms, "rref", lopsided)
    with pytest.raises(MatfacError, match=re.escape("origin-ranks of idempotent "
                                                    "components disagree: [0, 1, 1]")):
        split_idempotent(S, PROJ)


def test_split_idempotent_refuses_a_basis_change_that_mixes_summands(monkeypatch):
    # a wrong inverse of the basis change leaves off-diagonal blocks
    def shear(u):
        one, zero = u.space.one(), u.space.zero()
        return Matrix(u.space, [[one, one], [zero, one]])

    monkeypatch.setattr(morphisms, "jet_inverse", shear)
    with pytest.raises(MatfacError, match="did not block-diagonalize"):
        split_idempotent(S, PROJ)


def field_entries():
    """Elements of F with small coordinates, many of them zero."""
    coords = st.lists(st.integers(-2, 2), min_size=F.degree, max_size=F.degree)
    return st.one_of(st.just(F.zero()), coords.map(F.element))


@st.composite
def constant_idempotents(draw):
    """e(0) = g D g^-1 for g in GL_n(F), n <= 4, and D a 0/1 diagonal."""
    n = draw(st.integers(1, 4))
    g = Matrix(F, [[draw(field_entries()) for _ in range(n)] for _ in range(n)])
    assume(not g.det().is_zero())
    ones = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    diag = Matrix(F, [[F.one() if i == j and ones[i] else F.zero() for j in range(n)]
                      for i in range(n)])
    return g @ diag @ inverse_field(g)


@settings(max_examples=100, deadline=None)
@given(constant_idempotents())
@example(Matrix(F, [[F.zero(), F.zero()], [F.one(), F.one()]]))
def test_split_idempotent_bases_are_the_greedy_columns(e0):
    # the constant idempotent e(0) of X^n: the witness's constant columns are
    # those of e(0), then of 1 - e(0), that a brute-force greedy search picks;
    # at e(0) = [[0, 0], [1, 1]] both pick column 0, so the complement is not
    # the columns left over by e(0)'s
    n = e0.nrows
    xn = X
    for _ in range(n - 1):
        xn = xn.direct_sum(X)
    e = Morphism(xn, xn, [e0.map(R.scalar, R)] * xn.d)
    res = split_idempotent(xn, e)
    f0 = Matrix.identity(F, n) - e0
    e_cols = oracles.greedy_columns(e0, [])
    f_cols = oracles.greedy_columns(f0, [e0.column(j) for j in e_cols])
    expected = [e0.column(j) for j in e_cols] + [f0.column(j) for j in f_cols]
    r = len(e_cols)
    event(f"rank {r} of {n}")
    assert len(expected) == n
    for u in res.witness.comps:
        assert [u.constant_terms().column(j) for j in range(n)] == expected
    assert (res.rank_image, res.image.rank, res.complement.rank) == (r, r, n - r)
    assert res.image.validate().passed and res.complement.validate().passed
    assert res.witness.is_morphism() and res.witness.is_isomorphism()


def test_invertible_combination_at_unequal_ranks_and_rank_zero():
    # no component of a map between ranks 1 and 2 is square, so none is
    # invertible; between rank-0 factorizations the empty map is
    assert not admits_invertible_combination(hom_space_jets(X, S, 1))
    empty = MatFac(R, X.f, [Matrix(R, [])] * 3)
    assert admits_invertible_combination(hom_space_jets(empty, empty, 1))
