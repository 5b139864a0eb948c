"""Cyclotomic field arithmetic: construction, inverses, roots of unity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfac import cyclotomic_field, cyclotomic_polynomial, embed
from matfac.cyclo import _totient


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
    assert (a + b).as_rational() == Fraction(17, 7)
    assert (a * b).as_rational() == Fraction(6, 7)


def test_inverse_small_cases():
    F = cyclotomic_field(3)
    z = F.zeta(1)
    x = F.one() - z  # 1 - zeta_3, norm 3
    assert x * x.inverse() == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


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


def test_root_of_unity_order_two_any_conductor():
    # -1 is rational, so every field has it, odd conductors included
    F = cyclotomic_field(3)
    w = F.root_of_unity(2)
    assert w == F.rational(-1)
    assert w.multiplicative_order() == 2
    with pytest.raises(ValueError):
        F.root_of_unity(2, power=2)


def test_embed_compatible_with_arithmetic():
    F3 = cyclotomic_field(3)
    F12 = cyclotomic_field(12)
    z3 = F3.zeta(1)
    img = embed(z3, F12)
    assert img == F12.zeta(4)
    assert img ** 3 == F12.one()
    # embedding is a ring map
    x = F3.one() + z3
    assert embed(x * x, F12) == embed(x, F12) * embed(x, F12)
    with pytest.raises(ValueError):
        embed(z3, cyclotomic_field(4))


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
