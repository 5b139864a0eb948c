"""Reductions modulo one side's variables, summand bounds, strong
indecomposability certificates, and shift-isomorphism refutations."""

import re
from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from matfac import (
    AxiomCoprimeRankOne,
    MatFac,
    MatfacError,
    Matrix,
    Polynomial,
    PolynomialRing,
    Refusal,
    StrongIndCert,
    TensorPropagation,
    UndecidableError,
    admits_invertible_combination,
    constant_term_spot_check,
    coprime_rank_one_cert,
    cyclotomic_field,
    default_precision,
    hom_space_jets,
    is_projective_tensor,
    jet_refute_shift_iso,
    projective,
    propagate_strong_ind,
    reduce_tensor_witness,
    strong_ind_consequences,
    summand_bound,
    tensor,
    variable_support,
)
from matfac.structure import VarSplit
from oracles import invertible_jet_exists, shift_refutation

F = cyclotomic_field(3)
ZETA = F.zeta(1)
R = PolynomialRing(F, ("x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0"))


def rank1(*names):
    f = R.one()
    for nm in names:
        f = f * R.parse(nm)
    return MatFac(R, f, [Matrix(R, [[R.parse(nm)]]) for nm in names])


X = rank1("x1", "x2", "x0")
Y = rank1("y1", "y2", "y0")
Z = rank1("z1", "z2", "z0")


def test_variable_support():
    assert variable_support(X) == frozenset({"x1", "x2", "x0"})
    assert variable_support(X.direct_sum(X.shift(1))) == frozenset({"x1", "x2", "x0"})


@pytest.mark.parametrize("side, tensors", [("left", 1), ("right", 2)],
                         ids=["left", "right"])
def test_reduce_tensor_witness(side, tensors, count_tensors):
    w, rep = reduce_tensor_witness(X, Y, ZETA, side)
    # the right reduction reads both tensors off the swap witness
    assert len(count_tensors) == tensors
    assert rep.passed
    assert rep.side == side
    assert w.is_morphism()
    assert w.is_isomorphism()
    killed = {"x1", "x2", "x0"} if side == "left" else {"y1", "y2", "y0"}
    assert set(rep.killed) == killed


def test_reduce_tensor_witness_multiplicities():
    # the reduction carries one copy of the scaled shifts per unit of rank
    w, rep = reduce_tensor_witness(X.direct_sum(X), Y, ZETA, "left")
    assert rep.passed
    assert w.source.n == 3 * 2 * 1
    w, rep = reduce_tensor_witness(X, Y.direct_sum(Y.shift(1)), ZETA, "right")
    assert rep.passed
    assert w.source.n == 3 * 1 * 2


def test_reduce_tensor_witness_requires_reduced_killed_side():
    projective_like = MatFac(
        R, R.parse("x1*x2*x0"),
        [Matrix(R, [[R.parse("x1*x2*x0")]]), Matrix(R, [[R.one()]]), Matrix(R, [[R.one()]])],
    )
    with pytest.raises(MatfacError):
        reduce_tensor_witness(projective_like, Y, ZETA, "left")


def test_reduce_tensor_witness_requires_disjoint_variables():
    with pytest.raises(MatfacError):
        reduce_tensor_witness(X, X.shift(1), ZETA, "left")


def test_summand_bound_general_and_sharpened():
    b = summand_bound(X, Y)
    assert (b.r, b.bound, b.basis, b.min_summand_rank) == (1, 3, "general", 1)
    b = summand_bound(X, Y, (True, True))
    assert (b.bound, b.basis, b.min_summand_rank) == (1, "fully-asymmetric", 3)
    # one flag alone does not sharpen
    b = summand_bound(X, Y, (True, False))
    assert b.basis == "general"


@pytest.mark.parametrize("flags", [(True,), (True, True, False), (1, 0)],
                         ids=["short", "long", "not-bool"])
def test_summand_bound_refuses_anything_but_a_pair_of_bools(flags):
    with pytest.raises(ValueError, match="sym_flags must be a pair of booleans"):
        summand_bound(X, Y, flags)


def test_summand_bound_gcd_arithmetic():
    X2 = X.direct_sum(X)
    Y3 = Y.direct_sum(Y).direct_sum(Y)
    b = summand_bound(X2, Y3, (True, True))
    assert (b.n, b.m, b.r, b.bound) == (2, 3, 1, 1)
    X3 = X.direct_sum(X).direct_sum(X)
    b3 = summand_bound(X3, Y3)
    assert (b3.r, b3.bound, b3.min_summand_rank) == (3, 9, 3)


def test_summand_bound_requires_reduced():
    projective_like = MatFac(
        R, R.parse("x1*x2*x0"),
        [Matrix(R, [[R.parse("x1*x2*x0")]]), Matrix(R, [[R.one()]]), Matrix(R, [[R.one()]])],
    )
    with pytest.raises(MatfacError):
        summand_bound(projective_like, Y)


def test_summand_bound_refuses_a_rank_zero_factor():
    # a rank-zero factorization (three 0 x 0 slots) validates, but its tensor
    # has no summand to count: the bound refuses it, naming both ranks,
    # where r = gcd(0, 0) would divide by zero and gcd(0, 1) bound nothing
    empty = MatFac(R, X.f, [Matrix(R, [])] * 3)
    assert empty.validate().passed and empty.n == 0
    for left, right, ranks in [(empty, empty, "0 and 0"), (empty, X, "0 and 1"),
                               (X, empty, "1 and 0")]:
        with pytest.raises(MatfacError, match=f"positive rank, got {ranks}"):
            summand_bound(left, right)


def test_summand_bound_refuses_operands_that_cannot_be_tensored():
    # rank-one X (d = 3) and Y (d = 2) over Q(zeta_6) have no tensor product
    # to bound; the bound refuses as `tensor` does, with its message, and so
    # does a pair over two rings
    ring = PolynomialRing(cyclotomic_field(6), ("x1", "x2", "x0", "y1", "y0"))

    def row(*names):
        entries = [ring.parse(nm) for nm in names]
        f = ring.one()
        for e in entries:
            f = f * e
        return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])

    x6, y6 = row("x1", "x2", "x0"), row("y1", "y0")
    zeta = ring.field.zeta(1)
    for left, right, message in [(x6, y6, "tensor operands must share d; got 3 and 2"),
                                 (X, y6, "tensor operands must share a ring")]:
        with pytest.raises(MatfacError, match=re.escape(message)):
            tensor(left, right, zeta)
        with pytest.raises(MatfacError, match=re.escape(message)):
            summand_bound(left, right)


def test_coprime_rank_one_cert():
    cert = coprime_rank_one_cert(X)
    assert cert.problems() == []
    d = cert.as_dict()
    assert d["basis"]["kind"] == "coprime-rank-one"
    assert d["rank"] == 1 and d["d"] == 3


def test_coprime_cert_refuses_shared_variables():
    bad = rank1("x1^2", "x1^3", "y1")
    with pytest.raises(Refusal):
        coprime_rank_one_cert(bad)


def test_coprime_cert_undecidable_for_non_monomials():
    nonmono = MatFac(
        R, R.parse("(x1+x2)*x0*y1"),
        [Matrix(R, [[R.parse("x1+x2")]]), Matrix(R, [[R.parse("x0")]]),
         Matrix(R, [[R.parse("y1")]])],
    )
    with pytest.raises(UndecidableError):
        coprime_rank_one_cert(nonmono)


def test_propagate_strong_ind_iterated():
    cx, cy, cz = (coprime_rank_one_cert(w) for w in (X, Y, Z))
    cxy = propagate_strong_ind(cx, cy, ZETA)
    assert cxy.problems() == []
    assert cxy.subject.n == 3
    cxyz = propagate_strong_ind(cxy, cz, ZETA)
    assert cxyz.problems() == []
    assert cxyz.subject.n == 9
    assert cxyz.subject.validate().passed
    d = cxyz.as_dict()
    assert d["basis"]["kind"] == "tensor-propagation"
    assert d["basis"]["left"]["basis"]["kind"] == "tensor-propagation"
    assert d["basis"]["right"]["basis"]["kind"] == "coprime-rank-one"


def test_propagate_rejects_shared_variables():
    cx = coprime_rank_one_cert(X)
    with pytest.raises(MatfacError):
        propagate_strong_ind(cx, cx, ZETA)


def test_certificate_is_verified_once(count_tensors):
    cx, cy, cz = (coprime_rank_one_cert(w) for w in (X, Y, Z))
    cert = propagate_strong_ind(propagate_strong_ind(cx, cy, ZETA), cz, ZETA)
    count_tensors.clear()
    first = cert.problems()
    # each propagation node is checked by its provenance, so no tensor is
    # rebuilt; the verdict is kept
    assert first == [] and count_tensors == []
    first.append("edited by the caller")
    assert cert.problems() == []
    strong_ind_consequences(cert)
    assert count_tensors == []


def _tampered_certificates():
    cx, cy = coprime_rank_one_cert(X), coprime_rank_one_cert(Y)
    split = VarSplit(left_vars=variable_support(X), right_vars=variable_support(Y))

    def prop(subject, left=cx, right=cy, split=split, zeta=ZETA):
        return StrongIndCert(subject=subject, basis=TensorPropagation(
            left=left, right=right, split=split, zeta=zeta))

    wrong_entries = StrongIndCert(subject=X, basis=AxiomCoprimeRankOne(
        entries=tuple(m[0, 0] for m in Y.mats)))
    # same variables as X, but x1 * x2 * x0^2 != f: tensor() would refuse
    # this child, and its problems are listed
    invalid = MatFac(R, X.f, [Matrix(R, [[R.parse(e)]]) for e in ("x1", "x2", "x0^2")])
    invalid_child = StrongIndCert(subject=invalid, basis=AxiomCoprimeRankOne(
        entries=tuple(m[0, 0] for m in invalid.mats)))
    entries_problem = "recorded entries differ from the subject's entries"
    not_the_tensor = "subject is not the tensor of the child subjects"
    swapped_split = VarSplit(left_vars=split.right_vars, right_vars=split.left_vars)
    # equal data without provenance, and a tensor whose left operand was
    # reassigned after it was built
    t = tensor(X, Y, ZETA)
    reassigned = tensor(X, Y, ZETA)
    reassigned.left = MatFac(X.ring, X.f, X.mats)
    return [
        pytest.param(wrong_entries, entries_problem, id="axiom-entries"),
        pytest.param(prop(tensor(X, Y, ZETA ** 2)), not_the_tensor, id="other-zeta"),
        pytest.param(prop(tensor(Y, X, ZETA)), not_the_tensor, id="swapped-children"),
        pytest.param(prop(tensor(X, Y, ZETA), split=swapped_split),
                     "recorded variable split differs from the subjects' supports",
                     id="wrong-split"),
        pytest.param(prop(tensor(X, Y, ZETA), left=wrong_entries),
                     "left: " + entries_problem, id="tampered-child"),
        pytest.param(prop(tensor(X, Y, ZETA), zeta=F.one()), not_the_tensor, id="zeta-one"),
        pytest.param(prop(MatFac(t.ring, t.f, t.mats)), not_the_tensor, id="plain-copy"),
        pytest.param(prop(reassigned), not_the_tensor, id="reassigned-left"),
        pytest.param(prop(tensor(X, Y, ZETA), left=invalid_child),
                     "left: subject does not validate", id="invalid-child"),
    ]


@pytest.mark.parametrize("cert, problem", _tampered_certificates())
def test_tampered_certificate_reports_its_problem(cert, problem):
    assert problem in cert.problems()
    with pytest.raises(MatfacError, match=re.escape(problem)):
        strong_ind_consequences(cert)


def test_strong_ind_consequences_claims():
    cx, cy = coprime_rank_one_cert(X), coprime_rank_one_cert(Y)
    rep = strong_ind_consequences(propagate_strong_ind(cx, cy, ZETA))
    ids = [c.claim for c in rep.claims]
    assert ids.count("indecomposable") == 1
    assert ids.count("shift_inequivalent") == 2
    assert ids.count("cokernel_indecomposable") == 3
    assert ids.count("endomorphism_residue_scalar") == 1
    assert sorted(rep.cokernels) == [0, 1, 2]
    assert rep.cokernels[1].size == 3


def test_jet_refutation_of_shift_isomorphisms():
    r = jet_refute_shift_iso(X, 1)
    assert r.all_refuted
    assert sorted(r.refuted) == [1, 2]
    assert all(r.refuted.values())
    # the fully symmetric factorization is isomorphic to its shifts: nothing refuted
    sym = rank1("x1", "x1", "x1")
    r2 = jet_refute_shift_iso(sym, 1)
    assert not r2.all_refuted
    assert not any(r2.refuted.values())


@pytest.mark.parametrize("precision", [0, -1])
def test_jet_refutation_below_precision_one_raises(precision):
    # (x, x, x) equals its shifts; below precision 1 the jet system has no
    # unknowns, and its empty hom space must not read as a refutation
    sym = rank1("x1", "x1", "x1")
    with pytest.raises(ValueError, match="at least 1"):
        hom_space_jets(sym, sym, precision)
    with pytest.raises(ValueError, match="at least 1"):
        jet_refute_shift_iso(sym, precision)
    assert jet_refute_shift_iso(sym, 1).refuted == {1: False, 2: False}


def test_tensor_and_swap_not_isomorphic():
    # same twist on both sides: the constant terms already obstruct
    t1 = tensor(X, Y, ZETA)
    t2 = tensor(Y, X, ZETA)
    hb = hom_space_jets(t1, t2, 1)
    assert not admits_invertible_combination(hb)


def test_asymmetry_hypothesis_names_the_resolved_precision():
    # None resolves to default_precision(X) = 2 for the linear (x1, x2, x0),
    # and the refutation, the evidence for summand_bound's asymmetry flags,
    # states that integer
    refutation = jet_refute_shift_iso(X, None)
    assert refutation.precision == default_precision(X) == 2
    assert refutation.all_refuted


XYW = PolynomialRing(F, ("x", "y", "w"))


def xyw_rank_one(names):
    entries = [XYW.variable(nm) for nm in names]
    f = XYW.one()
    for e in entries:
        f = f * e
    return MatFac(XYW, f, [Matrix(XYW, [[e]]) for e in entries])


def test_constant_term_spot_check():
    assert constant_term_spot_check(X)
    assert constant_term_spot_check(xyw_rank_one("xyw"))
    cx, cy = coprime_rank_one_cert(X), coprime_rank_one_cert(Y)
    cxy = propagate_strong_ind(cx, cy, ZETA)
    assert constant_term_spot_check(cxy.subject)


def test_constant_term_spot_check_fails_on_a_shift_symmetric_subject():
    # (x, x, x) is its own shift, so the identity is a morphism to T X that
    # is nonzero at the origin; its endomorphisms at precision 1 are scalars,
    # so only the shift clause can say False
    sym = xyw_rank_one("xxx")
    assert sym.shift(1) == sym
    assert hom_space_jets(sym, sym, 1).dimension == 1
    assert not constant_term_spot_check(sym)


def test_constant_term_spot_check_fails_on_a_direct_sum():
    # X (+) X has the non-scalar constant endomorphisms of 1 (+) 1 and no
    # nonzero morphism to a shift, so only the scalar clause can say False
    xx = xyw_rank_one("xyw").direct_sum(xyw_rank_one("xyw"))
    assert [hom_space_jets(xx, xx.shift(i), 1).dimension for i in range(3)] == [4, 0, 0]
    assert not constant_term_spot_check(xx)


# -- jet refutation: precision 1 first, each shift pair {i, d-i} once --------------


def test_refutation_escalates_past_precision_one(count_calls):
    # (x^2, y^2, w^2) has candidates X -> T^i X at precision 1 and none at 2:
    # a precision-1 True is not the verdict, the requested precision is
    sq = MatFac(XYW, XYW.parse("x^2*y^2*w^2"),
                [Matrix(XYW, [[XYW.parse(e)]]) for e in ("x^2", "y^2", "w^2")])
    assert jet_refute_shift_iso(sq, 1).refuted == {1: False, 2: False}
    assert jet_refute_shift_iso(sq, 2).refuted == {1: True, 2: True}
    # None is default_precision, 1 + the largest entry degree
    calls = count_calls(hom_space_jets)
    r = jet_refute_shift_iso(sq, None)
    assert r.refuted == {1: True, 2: True} and r.precision == 3
    assert [(c[1], c[2]) for c in calls] == [(sq.shift(1), 1), (sq.shift(1), 3)]


@pytest.mark.parametrize("precision", [1, 2])
def test_refutation_pairs_each_shift_with_its_complement(precision):
    # (x, y, x, y) equals its second shift, and T^1 = T^3 of it is (y, x, y, x)
    r = jet_refute_shift_iso(xyw_rank_one("xyxy"), precision)
    assert list(r.refuted.items()) == [(1, True), (2, False), (3, True)]
    assert r.precision == precision


def test_refutation_solves_the_cheapest_sound_systems(count_calls):
    # d = 3 solves shift 1 only; the coprime rank-9 tensor is refuted at
    # precision 1, so precision 2 is never solved, while (x1, x1, x1) has a
    # candidate at precision 1 and escalates
    x9 = tensor(tensor(X, Y, ZETA), Z, ZETA)
    calls = count_calls(hom_space_jets)
    assert jet_refute_shift_iso(x9, 2).refuted == {1: True, 2: True}
    assert [(c[1], c[2]) for c in calls] == [(x9.shift(1), 1)]
    calls.clear()
    sym = rank1("x1", "x1", "x1")
    assert jet_refute_shift_iso(sym, 2).refuted == {1: False, 2: False}
    assert [(c[1], c[2]) for c in calls] == [(sym.shift(1), 1), (sym.shift(1), 2)]


LADDER_RINGS = {d: PolynomialRing(cyclotomic_field(d), ("x", "y", "w")) for d in range(2, 6)}
LADDER_MONOMIALS = [e for e in product(range(4), repeat=3) if 1 <= sum(e) <= 3]


@st.composite
def rank_one_entries(draw, ring, d):
    """d entries of one or two terms of degree 1 to 3, repeating with a
    period q dividing d, so that T^q X = X for q < d."""
    field = ring.field
    coeffs = [field.one(), -field.one(), field.rational(2), field.zeta(1)]
    period = draw(st.sampled_from([q for q in range(1, d + 1) if d % q == 0]))
    entries = []
    for _ in range(period):
        monos = draw(st.lists(st.sampled_from(LADDER_MONOMIALS), min_size=1, max_size=2,
                              unique=True))
        entries.append(Polynomial(ring, {e: draw(st.sampled_from(coeffs)) for e in monos}))
    entries *= d // period
    f = ring.one()
    for e in entries:
        f = f * e
    return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])


@st.composite
def refutation_subjects(draw):
    """A rank-one factorization with d = 2..5, the tensor of two of them
    (d <= 3), or X (+) T^i X; and a precision from 1 to 3."""
    d = draw(st.integers(2, 5))
    ring = LADDER_RINGS[d]
    x = draw(rank_one_entries(ring, d))
    kind = draw(st.sampled_from(["rank one", "tensor", "sum"] if d <= 3 else ["rank one", "sum"]))
    if kind == "tensor":
        x = tensor(x, draw(rank_one_entries(ring, d)), ring.field.root_of_unity(d, 1))
    elif kind == "sum":
        x = x.direct_sum(x.shift(draw(st.integers(0, d - 1))))
    return kind, x, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(refutation_subjects())
def test_refutation_equals_the_direct_verdict(subject):
    # each shift decided on its own system at the requested precision
    kind, x, precision = subject
    refuted = jet_refute_shift_iso(x, precision).refuted
    event(f"{kind}: {sum(refuted.values())} of {len(refuted)} refuted")
    if refuted != shift_refutation(x, 1):
        event("refuted above precision 1 only")
    assert refuted == shift_refutation(x, precision)
    assert all(refuted[i] == refuted[x.d - i] for i in refuted)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projective_tensor_equals_the_direct_verdict(data):
    # P (x) Y against the sum of projectives its origin ranks force, decided
    # on the one hom system at the requested precision
    d = data.draw(st.integers(2, 5))
    ring = LADDER_RINGS[d]
    y = data.draw(rank_one_entries(ring, d))
    shifts = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2))
    p = MatFac.direct_sum(*(projective(ring, d, y.f, i) for i in shifts))
    precision = data.draw(st.integers(1, 3))
    rep = is_projective_tensor(p, y, ring.field.root_of_unity(d, 1), precision)
    t = tensor(p, y, ring.field.root_of_unity(d, 1))
    target = MatFac.direct_sum(*(projective(ring, d, t.f, i) for i in rep.shifts_found))
    event(f"passed={rep.passed}")
    assert rep.precision == precision
    assert rep.passed == invertible_jet_exists(t, target, precision)


# -- refusals: each names the hypothesis that does not hold ----------------------

# (x1 x2 x0, 1, 1): validates, but is not reduced; the same on the y side
P_X = MatFac(R, X.f, [Matrix(R, [[e]]) for e in (X.f, R.one(), R.one())])
P_Y = MatFac(R, Y.f, [Matrix(R, [[e]]) for e in (Y.f, R.one(), R.one())])


@pytest.mark.parametrize("call, message", [
    (lambda: reduce_tensor_witness(X, Y, ZETA, "middle"), "side must be 'left' or 'right'"),
    (lambda: reduce_tensor_witness(X, P_Y, ZETA, "right"),
     "right reduction requires the right factor to be reduced"),
], ids=["witness-side", "witness-right-unreduced"])
def test_reductions_refuse_what_they_cannot_reduce(call, message):
    with pytest.raises((MatfacError, ValueError), match=re.escape(message)):
        call()


@pytest.mark.parametrize("x, message", [
    (X.direct_sum(X), "certificate needs a rank-one factorization, got rank 2"),
    (MatFac(R, X.f, [Matrix(R, [[R.parse(e)]]) for e in ("x1", "x2", "x1")]),
     "factorization does not validate"),
    (P_X, "certificate needs a reduced factorization"),
], ids=["rank-two", "invalid", "unreduced"])
def test_coprime_cert_refuses_unmet_hypotheses(x, message):
    with pytest.raises(MatfacError, match=re.escape(message)):
        coprime_rank_one_cert(x)


def _axiom(subject):
    return StrongIndCert(subject=subject, basis=AxiomCoprimeRankOne(
        entries=tuple(m[0, 0] for m in subject.mats)))


@pytest.mark.parametrize("cert, problem", [
    (_axiom(X.direct_sum(X)), "axiom subject must have rank 1, has 2"),
    (_axiom(P_X), "axiom subject is not reduced"),
    (_axiom(rank1("x1", "x1", "x2")), "entries are not pairwise coprime"),
    (StrongIndCert(subject=tensor(X, X, ZETA), basis=TensorPropagation(
        left=_axiom(X), right=_axiom(X), zeta=ZETA,
        split=VarSplit(left_vars=variable_support(X), right_vars=variable_support(X)))),
     "children share variables ['x0', 'x1', 'x2']"),
], ids=["axiom-rank", "axiom-unreduced", "axiom-not-coprime", "shared-variables"])
def test_certificate_lists_each_unmet_hypothesis(cert, problem):
    assert problem in cert.problems()
