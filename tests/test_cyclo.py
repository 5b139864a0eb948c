"""Cyclotomic field arithmetic: construction, inverses, roots of unity."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cyclo_inverse, cyclo_mul, cyclo_order, cyclo_str

from matfac import (
    MatFac,
    MatfacError,
    Matrix,
    PolynomialRing,
    cyclotomic_field,
    cyclotomic_polynomial,
    scale_by_units,
)
from matfac.cyclo import CycloField, _totient


def test_cyclotomic_polynomial_known_values():
    # low degree first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler's phi
    for m in range(1, 30):
        assert len(cyclotomic_polynomial(m)) - 1 == _totient(m)


def test_field_basics():
    F = cyclotomic_field(3)
    z = F.zeta(1)
    assert F.degree == 2
    assert z * z == F.zeta(2)
    assert z ** 3 == F.one()
    # 1 + z + z^2 = 0 in Q(zeta_3)
    assert F.one() + z + z * z == F.zero()


def test_zeta_negative_powers():
    F = cyclotomic_field(5)
    z = F.zeta(1)
    assert F.zeta(-1) == z ** 4
    assert F.zeta(-1) * z == F.one()


def test_rational_arithmetic_embeds():
    F = cyclotomic_field(4)
    a = F.rational(Fraction(3, 7))
    b = F.rational(2)
    assert a + b == F.rational(Fraction(17, 7))
    assert a * b == F.rational(Fraction(6, 7))


@pytest.mark.parametrize("inexact", [0.1, "1/3", Decimal("0.5")],
                         ids=["float", "str", "Decimal"])
def test_only_exact_scalars_become_field_elements(inexact):
    # wherever a scalar becomes a field element, as in CycloElem arithmetic,
    # only an int or a Fraction is taken: 0.1 would be a binary fraction,
    # and a units product of 0.1 and 10 would not be 1
    F = cyclotomic_field(4)
    R = PolynomialRing(F, ("x",))
    x = R.variable("x")
    X = MatFac(R, x * x, [Matrix(R, [[x]])] * 2)
    exact = "a rational must be an int or a Fraction"
    for make in (lambda: F.rational(inexact), lambda: R.scalar(inexact),
                 lambda: R.monomial((1,), inexact), lambda: scale_by_units(X, [inexact, 10])):
        with pytest.raises(TypeError, match=exact):
            make()
    with pytest.raises(TypeError):
        F.one() + inexact


def test_inverse_small_cases():
    F = cyclotomic_field(3)
    z = F.zeta(1)
    x = F.one() - z  # 1 - zeta_3, norm 3
    assert x * x.inverse() == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_inverse_checks_the_norm():
    # a private field whose table of powers of z has two entries swapped:
    # the product of the "conjugates" is no longer the norm, and the check
    # that it is a positive rational must say so
    F = CycloField(12)
    F._zeta_powers[5], F._zeta_powers[7] = F._zeta_powers[7], F._zeta_powers[5]
    with pytest.raises(MatfacError, match="is not a positive rational"):
        F.element([1, 2, 0, 1]).inverse()


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 6, 8, 12]),
    coeffs=st.lists(st.fractions(max_denominator=12), min_size=1, max_size=4),
)
def test_inverse_is_exact(m, coeffs):
    F = cyclotomic_field(m)
    x = F.element(coeffs[: F.degree])
    if x.is_zero():
        return
    assert x * x.inverse() == F.one()


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 6]),
    a=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    b=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    c=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
)
def test_ring_axioms(m, a, b, c):
    F = cyclotomic_field(m)
    x, y, w = F.element(a), F.element(b), F.element(c)
    assert (x + y) * w == x * w + y * w
    assert x * y == y * x
    assert (x * y) * w == x * (y * w)


def test_root_of_unity_orders():
    F = cyclotomic_field(12)
    for order in (1, 2, 3, 4, 6, 12):
        w = F.root_of_unity(order)
        assert w.multiplicative_order() == order
    with pytest.raises(ValueError):
        F.root_of_unity(5)
    with pytest.raises(ValueError):
        F.root_of_unity(4, power=2)  # not primitive


def test_orders_past_a_thousand_are_read():
    # the signed roots of Q(zeta_999) form a group of order 1998
    F = cyclotomic_field(999)
    assert (-F.zeta(1)).multiplicative_order() == 1998
    assert F.zeta(1).multiplicative_order() == 999


def test_root_of_unity_order_two_any_conductor():
    # -1 is rational, so every field has it, odd conductors included
    F = cyclotomic_field(3)
    w = F.root_of_unity(2)
    assert w == F.rational(-1)
    assert w.multiplicative_order() == 2
    with pytest.raises(ValueError):
        F.root_of_unity(2, power=2)


def test_str_is_reparseable_shape():
    F = cyclotomic_field(5)
    x = F.element([1, -2, Fraction(1, 3)])
    s = str(x)
    assert "z" in s and "1/3" in s


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12])
def test_zeta_every_power(m):
    F = cyclotomic_field(m)
    for p in range(-m, 2 * m):
        assert F.zeta(p) == F.zeta(1) ** (p % m)
    if m % 2 == 0:
        assert F.zeta(m // 2) == F.rational(-1)


def test_high_powers_of_zeta_reduce():
    F4 = cyclotomic_field(4)
    assert F4.zeta(3) == -F4.zeta(1)
    assert F4.root_of_unity(4, 3) == -F4.zeta(1)
    F12 = cyclotomic_field(12)
    for p in range(7, 12):
        assert F12.zeta(p) == -F12.zeta(p - 6)


ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 7, 8, 12, 14]

_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)


@st.composite
def _field_and_vectors(draw):
    """A field and two Fraction coordinate vectors, the zero vector included."""
    field = cyclotomic_field(draw(st.sampled_from(ORACLE_CONDUCTORS)))
    zero = (Fraction(0),) * field.degree
    vec = st.lists(_rationals, min_size=field.degree, max_size=field.degree).map(tuple)
    return field, draw(st.one_of(st.just(zero), vec)), draw(st.one_of(st.just(zero), vec))


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.num)
    assert len(x.num) == x.field.degree
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


@settings(max_examples=300, deadline=None)
@given(_field_and_vectors())
def test_arithmetic_matches_fraction_oracle(case):
    field, a, b = case
    x, y = field.element(a), field.element(b)
    assert x.coeffs == a and y.coeffs == b
    cases = [
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (-x, tuple(-p for p in a)),
        (x * y, cyclo_mul(field, a, b)),
        (x * Fraction(3, 4), tuple(Fraction(3, 4) * p for p in a)),
        (Fraction(-2, 5) - y, tuple((Fraction(-2, 5) if i == 0 else 0) - q
                                    for i, q in enumerate(b))),
    ]
    for got, want in cases + [(x, a), (y, b)]:
        _assert_canonical(got)
        assert got.coeffs == want
        assert str(got) == cyclo_str(want)
    assert (x == y) == (a == b)
    # the same value reached two ways is the same key
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)
    assert hash(x * y) == hash(y * x)
    if any(a):
        inv = x.inverse()
        _assert_canonical(inv)
        assert inv.coeffs == cyclo_inverse(field, a)
        assert cyclo_mul(field, a, inv.coeffs) == (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


def test_canonical_zero_and_one():
    for m in ORACLE_CONDUCTORS:
        F = cyclotomic_field(m)
        half = F.rational(Fraction(1, 2))
        zero = half - half
        assert zero.num == (0,) * F.degree and zero.den == 1
        assert zero == F.zero() and hash(zero) == hash(F.zero())
        one = half + half
        assert one.den == 1 and one.is_one() and hash(one) == hash(F.one())
        assert F.rational(Fraction(6, 4)).den == 2


def test_cyclotomic_polynomial_is_integral():
    for m in ORACLE_CONDUCTORS + [15, 30]:
        assert all(type(c) is int for c in cyclotomic_polynomial(m))


def test_conductor_maximum_is_refused_before_any_table():
    from matfac.cyclo import _MAX_CONDUCTOR

    assert cyclotomic_field(_MAX_CONDUCTOR).m == _MAX_CONDUCTOR
    for m in (_MAX_CONDUCTOR + 1, 100_003):
        with pytest.raises(ValueError, match=f"conductor {m} exceeds the maximum"):
            cyclotomic_field(m)
    # a conductor too long to print whole is quoted short
    with pytest.raises(ValueError, match=r"characters\) exceeds the maximum") as info:
        CycloField(10 ** 4000)
    assert len(str(info.value)) < 120


@st.composite
def _root_operands(draw):
    """A conductor m <= 60 (12, 15 and 30 have phi(m) < m - 1; odd m have
    signed roots -zeta^a that are no power of zeta), two operands, each a
    signed root +-zeta^a with a < m (a >= phi(m) included), zero, such a root
    over a denominator, or a vector of rationals, and the first one's kind."""
    m = draw(st.one_of(st.sampled_from([12, 15, 30]), st.integers(1, 60)))
    field = cyclotomic_field(m)
    vec = st.lists(_rationals, min_size=field.degree, max_size=field.degree)

    def operand():
        root = draw(st.sampled_from([1, -1])) * field.zeta(draw(st.integers(0, m - 1)))
        kind = draw(st.sampled_from(["root", "root", "zero", "scaled", "vector"]))
        if kind == "root":
            return root, kind
        if kind == "zero":
            return field.zero(), kind
        if kind == "scaled":
            q = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(2, 7)))
            return root * q, kind
        return field.element(draw(vec)), kind

    (x, kind), (y, _) = operand(), operand()
    return field, x, kind, y


_F15 = cyclotomic_field(15)


@settings(max_examples=150, deadline=None)
@given(_root_operands())
# all but the first coordinate of x overflow under -z^7, a negative root of odd m
@example((_F15, _F15.element([Fraction(k, 3) for k in range(1, 9)]), "vector",
          -_F15.zeta(7)))
def test_root_products_inverses_and_orders_match_the_oracles(case):
    field, x, kind, y = case
    for got, want in ((x * y, cyclo_mul(field, x.coeffs, y.coeffs)),
                      (y * x, cyclo_mul(field, y.coeffs, x.coeffs))):
        _assert_canonical(got)
        assert got.coeffs == want
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = x.inverse()
        _assert_canonical(inv)
        if kind == "vector":
            # the Euclid oracle's coefficients explode on dense vectors of
            # degree about 50; the inverse is the one y with x * y = 1
            assert cyclo_mul(field, x.coeffs, inv.coeffs) == field.one().coeffs
        else:
            assert inv.coeffs == cyclo_inverse(field, x.coeffs)
    # every root's order divides lcm(2, m), the oracle's bound; it multiplies
    # out that many powers, 18 s for a dense vector of degree 58, so a
    # vector's order is checked in fields of degree <= 8 only (roots of every
    # degree are drawn as the "root" kind)
    if kind != "vector" or field.degree <= 8:
        assert x.multiplicative_order() == cyclo_order(field, x.coeffs, math.lcm(2, field.m))


def test_rationals_and_constants_hash_as_the_scalars_they_equal():
    F = cyclotomic_field(12)
    R = PolynomialRing(F, ["x", "y"])
    for q in (0, 3, -1, Fraction(-2, 7)):
        c = F.rational(q)
        assert c == q and hash(c) == hash(q) and q in {c} and c in {q}
        for p in (R.scalar(q), R.scalar(c)):
            assert p == c and p == q and hash(p) == hash(c)
            assert p in {c} and c in {p} and q in {p}
    z = F.zeta(1)
    assert R.scalar(z) == z and hash(R.scalar(z)) == hash(z) and z in {R.scalar(z)}
    assert R.zero() == 0 and hash(R.zero()) == hash(0)
