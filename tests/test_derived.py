"""Every report the package derives from a lemma instead of computing it,
checked against a fresh computation of the same identity.

`factorization._derived` is the one writer of such reports, so wrapping it
records every derivation a construction makes.  A derived factorization
report (a shift, a tensor, Knorrer's summand) must equal a fresh
`validate()` of the same matrices, entry by entry: start, ok and detail.
Knorrer's derived forward law rests on sufficient conditions (d x d
identities and data checks), and its backward law on forward's and the
round trip, so neither may pass a slot whose fresh `_intertwining_report`
fails; both equal the fresh law on valid inputs, and each entry names its
lemma.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    PolynomialRing,
    build_ulrich,
    cyclotomic_field,
    decompose_symmetric,
    extension_ses,
    indecomposable_ulrich,
    omega_context,
    sum_of_products,
    tensor,
)
from matfac import knorrer
from matfac.factorization import _derived
from matfac.morphisms import Morphism, _intertwining_report
from matfac.tensor import TensorMatFac

GRID = [(d, n, m) for d in (2, 3, 4, 5) for n in (1, 2) for m in (1, 2)]


@pytest.fixture
def derivations(count_calls):
    """The (object, entries) of every derivation, in order."""
    return count_calls(_derived)


def fresh(obj):
    """The report obj's identity gives when computed from scratch."""
    if isinstance(obj, Morphism):
        return _intertwining_report(obj.comps, obj.source.mats, obj.target.mats)
    return MatFac(obj.ring, obj.f, obj.mats).validate()


def check_derivations(calls):
    """Compare the kept report of every recorded derivation with a fresh
    computation; returns the fresh reports."""
    assert calls
    out = []
    for obj, _ in calls:
        derived, computed = obj._report, fresh(obj)
        out.append(computed)
        if not isinstance(obj, Morphism):
            assert derived == computed
            continue
        assert [e.start for e in derived.entries] == [e.start for e in computed.entries]
        assert all(c.ok for e, c in zip(derived.entries, computed.entries) if e.ok)
        # a failing forward entry goes on to name what failed
        lemma = ("from the d x d identities at slot {} by the mixed-product rule"
                 if isinstance(obj.source, TensorMatFac) else
                 "from forward's law at slot {} and the round trip")
        assert [e.detail.split("; fails: ")[0] for e in derived.entries] == [
            lemma.format(e.start) for e in derived.entries]
    return out


def rank_one(ring, entries):
    f = ring.one()
    for e in entries:
        f = f * e
    return MatFac(ring, f, [Matrix(ring, [[e]]) for e in entries])


def doubled(x):
    """x plus its shift: a rank-two factorization of the same f."""
    return x.direct_sum(x.shift(1))


def corrupted(d):
    """A rank-two factorization of u0...u_{d-1} with a stray u1 in slot 0,
    so that its cyclic products fail at different entries."""
    ring = PolynomialRing(cyclotomic_field(d), tuple(f"u{i}" for i in range(d)))
    good = doubled(rank_one(ring, [ring.variable(f"u{i}") for i in range(d)]))
    mats = list(good.mats)
    mats[0] = mats[0] + Matrix(ring, [[ring.zero(), ring.variable("u1")],
                                      [ring.zero(), ring.zero()]])
    return MatFac(ring, good.f, mats), good


# -- the shift ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shift_carries_the_fresh_report(derivations, d):
    bad, good = corrupted(d)
    for x in (good, bad):
        x.validate()
        for i in range(-d, 2 * d):
            x.shift(i)
    assert len(derivations) == 2 * 3 * d
    reports = check_derivations(derivations)
    assert all(r.passed for r in reports[:3 * d])
    assert not any(r.passed for r in reports[3 * d:])
    # the failing entries differ, so a carry that renumbers wrongly shows
    assert len({(e.ok, e.detail) for e in bad.validate().entries}) > 1


def test_shift_of_an_unvalidated_factorization_derives_nothing(derivations):
    bad, good = corrupted(3)
    assert [bad.shift(1).validate().passed, good.shift(2).validate().passed] == [False, True]
    assert derivations == []


# -- the tensor -----------------------------------------------------------------


@st.composite
def twisted_rows(draw):
    """Operands from the determinant-law grid with random rank-one rows:
    each row is d random polynomials in u, v, w with small coefficients,
    constants and zeros included."""
    d, n, m = draw(st.sampled_from(GRID))
    fld = cyclotomic_field(d)
    ring = PolynomialRing(fld, ("u", "v", "w"))
    monomials = [ring.one()] + [ring.variable(v) for v in "uvw"]
    monomials += [a * b for a in monomials[1:] for b in monomials[1:]]

    def entry():
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(monomials), min_size=len(coeffs),
                              max_size=len(coeffs)))
        return sum((ring.scalar(fld.rational(c)) * mono for c, mono in zip(coeffs, picks)),
                   ring.zero())

    x = rank_one(ring, [entry() for _ in range(d)])
    y = rank_one(ring, [entry() for _ in range(d)])
    zeta = fld.root_of_unity(d, draw(st.sampled_from(
        [p for p in range(1, d) if math.gcd(p, d) == 1])))
    return (x if n == 1 else doubled(x)), (y if m == 1 else doubled(y)), zeta


@settings(max_examples=40, deadline=None)
@given(operands=twisted_rows())
def test_tensor_report_equals_the_fresh_one_on_random_rows(operands):
    x, y, zeta = operands
    t = tensor(x, y, zeta)
    assert t.validate() == fresh(t)
    assert t.shift(1).validate() == fresh(t.shift(1))


def test_tensor_of_tensors_and_the_ulrich_pipeline(derivations):
    # every derivation of the two Ulrich builds' tensors and the extension
    # sequence, each against a fresh validation; the certificate derives
    # nothing, since it builds no tensor
    ring = PolynomialRing(cyclotomic_field(3),
                          tuple(f"{v}{i}" for v in "xyz" for i in range(3)))
    spec = sum_of_products(ring, [[ring.variable(f"{v}{i}") for i in range(3)]
                                  for v in "xyz"])
    build_ulrich(spec)
    ub = indecomposable_ulrich(spec)
    assert extension_ses(ub.certificate.subject).passed
    assert len(derivations) == 2 * (spec.n_terms - 1)
    assert all(r.passed for r in check_derivations(derivations))


def test_tensor_refuses_what_the_theorem_does_not_cover(derivations):
    bad, good = corrupted(3)
    zeta = good.ring.field.root_of_unity(3, 1)
    with pytest.raises(MatfacError, match="does not validate"):
        tensor(good, bad, zeta)
    with pytest.raises(MatfacError, match="not a primitive"):
        tensor(good, good, zeta ** 3)
    assert derivations == []


# -- Knorrer's backward witness ---------------------------------------------------


def symmetric_inputs(d, n):
    fld = cyclotomic_field(2 * d)
    ring = PolynomialRing(fld, ("x", "y"))
    xv, yv = ring.variable("x"), ring.variable("y")
    x = MatFac(ring, xv ** d, [Matrix(ring, [[xv]])] * d)
    y = MatFac(ring, yv ** d, [Matrix(ring, [[yv]])] * d)
    for _ in range(n - 1):
        x = x.direct_sum(MatFac(ring, xv ** d, [Matrix(ring, [[xv]])] * d))
    return x, y, omega_context(d, omega=fld.zeta(1))


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_backward_law_equals_the_fresh_one(derivations, d, n):
    dec = decompose_symmetric(*symmetric_inputs(d, n))
    laws = [obj for obj, _ in derivations if isinstance(obj, Morphism)]
    assert laws == [dec.forward, dec.backward]
    assert dec.summand in [obj for obj, _ in derivations]
    computed = check_derivations(derivations)
    assert all(r.passed for r in computed)
    assert [e.ok for e in dec.backward._report.entries] == [True] * d


def test_backward_law_fails_where_the_round_trip_does(monkeypatch, derivations):
    # alpha_k^-1 built with the exponents of alpha_(-k)^-1: forward's law
    # holds, backward's components are wrong for k = 1, 2, and only the round
    # trip sees it
    original = knorrer._alpha
    monkeypatch.setattr(knorrer, "_alpha", lambda ctx, k, inverse=False:
                        original(ctx, -k if inverse else k, inverse))
    dec = decompose_symmetric(*symmetric_inputs(3, 1))
    assert dec.forward.is_morphism()
    assert [e.start for e in dec.report.entries if not e.ok] == [-3]
    assert (dec.backward.is_morphism(), dec.forward.is_isomorphism(),
            dec.backward.is_isomorphism()) == (False, False, False)
    computed = check_derivations(derivations)
    assert not computed[-1].passed
    assert not any(e.ok for e in dec.backward._report.entries)


def test_backward_law_fails_where_forward_does(monkeypatch, derivations):
    # forward's component 1 doubled: backward's components still pass their
    # own law, and the derived verdict stays on the safe side of it
    built = []

    def corrupting(source, target, comps):
        comps = list(comps)
        if not built:
            comps[1] = comps[1].scale(2)
        built.append(comps)
        return Morphism(source=source, target=target, comps=comps)

    monkeypatch.setattr(knorrer, "Morphism", corrupting)
    dec = decompose_symmetric(*symmetric_inputs(3, 1))
    computed = check_derivations(derivations)
    assert computed[-1].passed
    assert [e.ok for e in dec.backward._report.entries] == [False, False, True]


@st.composite
def symmetric_operands(draw):
    """Strictly shift-symmetric operands of ranks n, m in {1, 2} and their
    context, from a primitive 2d-th root (`omega=`) or, for odd d, from a
    primitive d-th root (`zeta=`), d = 2..7.  Each operand repeats one phi
    with phi^d = u^d I: (u) at rank one, S diag(u, z^j u) S^-1 with
    S = [[1, s], [0, 1]] and z^d = 1 at rank two, where u is a linear form
    in its own variable or, for both operands, in x."""
    d = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["omega", "zeta"] if d % 2 else ["omega"]))
    order = 2 * d if kind == "omega" else d
    fld = cyclotomic_field(order)
    power = draw(st.sampled_from([k for k in range(1, order) if math.gcd(k, order) == 1]))
    ctx = omega_context(d, **{kind: fld.root_of_unity(order, power)})
    ring = PolynomialRing(fld, ("x", "y"))
    names = ("x", "x") if draw(st.booleans()) else ("x", "y")

    def const(c):
        return ring.scalar(fld.rational(c))

    def operand(name):
        u = const(draw(st.integers(1, 3))) * ring.variable(name) + const(draw(st.integers(-2, 2)))
        if draw(st.sampled_from([1, 2])) == 1:
            phi = Matrix(ring, [[u]])
        else:
            v = ring.scalar(fld.root_of_unity(d, 1) ** draw(st.integers(0, d - 1))) * u
            phi = Matrix(ring, [[u, const(draw(st.integers(-1, 2))) * (v - u)],
                                [ring.zero(), v]])
        return MatFac(ring, u ** d, [phi] * d)

    return operand(names[0]), operand(names[1]), ctx


@settings(max_examples=60, deadline=None)
@given(operands=symmetric_operands())
def test_knorrer_derived_reports_equal_the_fresh_ones(operands):
    # the oracle: forward's and backward's laws computed at rank dnm, and
    # the summand's cyclic products multiplied out
    dec = decompose_symmetric(*operands)
    for law in (dec.forward, dec.backward):
        derived, computed = law._report, fresh(law)
        assert all(c.ok for e, c in zip(derived.entries, computed.entries) if e.ok)
        assert [(e.start, e.ok) for e in derived.entries] == [
            (c.start, c.ok) for c in computed.entries]
        assert derived.passed
    z = dec.summand
    assert z.validate() == MatFac(z.ring, z.f, z.mats).validate()
    assert dec.report.passed
    assert dec.forward.is_isomorphism() and dec.backward.is_isomorphism()
