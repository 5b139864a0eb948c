"""Sparse polynomial arithmetic, the expression parser, and jets."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from matfac import (
    Jet,
    MatfacError,
    Matrix,
    Polynomial,
    PolynomialRing,
    Refusal,
    UndecidableError,
    cyclotomic_field,
    cyclotomic_polynomial,
    monomial_coprime,
    parse_polynomial,
)
from matfac.linalg import JetSpace, jet_inverse
from matfac.rings import _MAX_DEGREE, PolyParseError, grlex_key, variables_in
from oracles import poly_add, poly_divexact, poly_mul, poly_sub

F = cyclotomic_field(3)
R = PolynomialRing(F, ("x", "y", "w"))
x, y, w = (R.variable(v) for v in ("x", "y", "w"))


def poly_strategy(ring=R, max_terms=4, max_exp=3):
    nvars = len(ring.vars)
    term = st.tuples(
        st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars),
        st.integers(-9, 9),
    )
    def build(terms):
        p = ring.zero()
        for exps, c in terms:
            p = p + ring.monomial(tuple(exps), c)
        return p
    return st.lists(term, max_size=max_terms).map(build)


def test_basic_arithmetic():
    f = x * y + w
    g = x * y - w
    assert f + g == R.scalar(2) * x * y
    assert f * g == x * x * y * y - w * w
    assert (f - f).is_zero()


def test_scalar_coercion_and_zeta_coefficients():
    z = F.zeta(1)
    p = R.scalar(z) * x + y
    q = R.scalar(z * z) * x + y
    # zeta + zeta^2 = -1
    assert p + q == -x + R.scalar(2) * y


@settings(max_examples=50, deadline=None)
@given(f=poly_strategy(), g=poly_strategy(), h=poly_strategy())
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_degrees_and_order():
    f = x * y + w * w * w
    assert f.total_degree() == 3
    assert f.order_of() == 2
    assert R.zero().total_degree() == -1
    with pytest.raises(MatfacError):
        R.zero().order_of()
    assert R.one().order_of() == 0


def test_constant_term_and_variables_used():
    f = x * y + R.scalar(5)
    assert f.constant_term() == F.rational(5)
    assert variables_in(R, (f,)) == frozenset({"x", "y"})
    assert variables_in(R, (R.scalar(7),)) == frozenset()


def test_reduce_mod_vars():
    f = x * y + y * w + w
    assert f.reduce_mod_vars({"w"}) == x * y
    # every term of f touches x or w, so killing both leaves nothing
    assert f.reduce_mod_vars({"x", "w"}).is_zero()
    with pytest.raises(ValueError):
        f.reduce_mod_vars({"nope"})


def test_divexact():
    f = (x + y) * (x - y) * w
    assert f.divexact(x + y) == (x - y) * w
    assert f.divexact(w) == (x + y) * (x - y)
    with pytest.raises(MatfacError):
        (x + y).divexact(w)
    with pytest.raises(ZeroDivisionError):
        x.divexact(R.zero())


# The kernels against their oracles: a ring of 3 variables over Q(zeta_3)
# and one of 24 over Q(zeta_4); zero, one-term operands with coefficient one
# and with other coefficients, and terms in any insertion order, because the
# key order of every result is pinned as well as its value.
R24 = PolynomialRing(cyclotomic_field(4), [f"x{i}" for i in range(24)])


def _coefficients(field):
    # nonzero: an all-zero coordinate vector stands for zeta
    return st.one_of(
        st.just(field.one()),
        st.sampled_from([-3, -2, -1, 2, 3]).map(field.rational),
        st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=field.degree)
        .map(lambda v: field.element(v) if any(v) else field.zeta()),
    )


def _exponents(ring):
    n = len(ring.vars)

    def build(pairs):
        exps = [0] * n
        for i, k in pairs:
            exps[i] = k
        return tuple(exps)
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=3).map(build)


def _kernel_poly(ring, zero=True):
    one_term = st.tuples(_exponents(ring), _coefficients(ring.field))
    many_terms = st.dictionaries(_exponents(ring), _coefficients(ring.field),
                                 min_size=2, max_size=5).map(lambda ts: Polynomial(ring, ts))
    shapes = [_exponents(ring).map(lambda e: Polynomial(ring, {e: ring.field.one()})),
              one_term.map(lambda t: Polynomial(ring, dict([t]))),
              many_terms, many_terms]
    return st.one_of(*shapes, st.just(ring.zero())) if zero else st.one_of(*shapes)


def _operands(ring):
    # the second operand is sometimes the first or its negation, so that
    # sums and differences cancel to zero
    poly = _kernel_poly(ring)
    return poly.flatmap(lambda f: st.tuples(
        st.just(f), st.one_of(poly, poly, st.just(f), st.just(poly_sub(ring.zero(), f))), poly))


OPERANDS = st.sampled_from([R, R24]).flatmap(_operands)


def _size(p):
    return ("zero", "one term")[len(p.terms)] if len(p.terms) < 2 else "more terms"


def _same(got, want):
    # equal values, and the same keys in the same order
    return got == want and list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=150, deadline=None)
@given(case=OPERANDS)
@example(case=(R24.parse("x0 + 2*x23 - z*x5^2"), R24.parse("x0*x5 - x23 + 1/2"), R24.zero()))
# z * z = -1 in Q(zeta_4): a convolution coordinate past the field degree folds
@example(case=(R24.parse("z*x0 + x1"), R24.parse("z*x0 - x1"), R24.zero()))
def test_sum_difference_and_product_match_their_oracles(case):
    f, g, _ = case
    event(f"{len(f.ring.vars)} variables: {_size(f)} by {_size(g)}")
    event(f"difference {'is' if (f - g).is_zero() else 'is not'} zero")
    for a, b in ((f, g), (g, f)):
        assert _same(a + b, poly_add(a, b))
        assert _same(a - b, poly_sub(a, b))
        assert _same(a * b, poly_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from([R, R24]).flatmap(
    lambda ring: st.tuples(_kernel_poly(ring), _kernel_poly(ring, zero=False), _kernel_poly(ring))))
# a monomial divisor that does not divide: no non-lead terms to subtract
@example(case=(R.zero(), y, x))
@example(case=(R.zero(), R.scalar(3) * x * y, x * w))
# the remainder's y^2 term cancels to zero before it would be the lead
@example(case=(x - y, x + y, R.zero()))
def test_divexact_matches_the_greedy_oracle(case):
    # f = q*g + r with r sometimes zero (an exact division) and sometimes not;
    # a failing division raises the oracle's message
    q, g, r = case
    f = poly_add(poly_mul(q, g), r)
    event(f"divisor of {_size(g)}")
    try:
        want = poly_divexact(f, g)
    except MatfacError as e:
        event("not exact")
        with pytest.raises(MatfacError) as got:
            f.divexact(g)
        assert str(got.value) == str(e)
    else:
        assert _same(f.divexact(g), want)
    assert poly_mul(q, g).divexact(g) == q  # quotients come out in descending grlex


# Coefficients over several denominators at once: each operand of a product
# is put over its own common denominator, and each output coefficient is
# brought to lowest terms once.
def _mixed_poly(ring):
    coeff = st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1,
                     max_size=ring.field.degree).map(ring.field.element)
    return st.dictionaries(_exponents(ring), coeff, min_size=2, max_size=5).map(
        lambda ts: Polynomial(ring, ts))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([R, R24, PolynomialRing(cyclotomic_field(7), ("x", "y"))]).flatmap(
    lambda ring: st.tuples(_mixed_poly(ring), _mixed_poly(ring))))
@example(case=(R.parse("1/2*x + 1/3*y + 1/5*z"), R.parse("2/7*x - 3/4*z*y + 1/6")))
def test_products_over_mixed_denominators_match_the_oracle(case):
    f, g = case
    dens = {c.den for p in case for c in p.terms.values()}
    event(f"{len(dens)} denominators")
    assert _same(f * g, poly_mul(f, g))
    assert _same(g * f, poly_mul(g, f))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([R, R24]).flatmap(
    lambda ring: st.tuples(_kernel_poly(ring, zero=False), _kernel_poly(ring),
                           st.sampled_from(ring.vars))))
def test_products_whose_terms_cancel_match_the_oracle(case):
    # (p*u + q)(p*u - q) = p^2 u^2 - q^2: every cross term cancels
    p, q, u = case
    u = p.ring.variable(u)
    a, b = p * u + q, p * u - q
    assert _same(a * b, poly_mul(a, b))
    assert a * b == p * p * u * u - q * q


def test_a_convolution_that_folds_to_zero_leaves_no_term():
    # the x*y*w coefficient is 1*1 + 1*z + z*z: its raw convolution is
    # 1 + z + z^2, nonzero as a vector and zero in Q(zeta_3)
    a = R.parse("x + y + z*w")
    b = R.parse("y*w + z*x*w + z*x*y")
    product = a * b
    assert _same(product, poly_mul(a, b))
    assert (1, 1, 1) not in product.terms and len(product.terms) == 6


@settings(max_examples=150, deadline=None)
@given(ring=st.sampled_from([R, R24]), data=st.data())
def test_variables_in_is_the_union_of_each_polynomials_support(ring, data):
    # the keys of every polynomial ORed and read once, against the union of
    # the variables each term's exponent tuple uses, polynomial by polynomial
    polys = data.draw(st.lists(_kernel_poly(ring), max_size=5))
    supports = [frozenset(v for exps in p.terms for v, e in zip(ring.vars, exps) if e)
                for p in polys]
    assert variables_in(ring, polys) == frozenset().union(*supports)
    assert [variables_in(ring, (p,)) for p in polys] == supports


@settings(max_examples=200, deadline=None)
@given(ring=st.sampled_from([R, R24]), data=st.data())
def test_packed_key_order_is_graded_lex_order(ring, data):
    # a key reads back as its exponents, and keys compare as `grlex_key`
    e1, e2 = data.draw(_exponents(ring)), data.draw(_exponents(ring))
    k1, k2 = ring._pack(e1), ring._pack(e2)
    assert ring._unpack(k1) == e1 and ring._unpack(k2) == e2
    assert (k1 < k2) == (grlex_key(e1) < grlex_key(e2))
    assert k1 + k2 == ring._pack(map(sum, zip(e1, e2)))
    f = Polynomial(ring, {e1: ring.field.one(), e2: ring.field.rational(2)})
    assert [e for e, _ in f.sorted_terms()] == sorted(f.terms, key=grlex_key, reverse=True)
    assert ring._unpack(max(f._terms)) == max(f.terms, key=grlex_key)


def test_exponents_at_the_degree_limit_and_past_it():
    # every field holds up to _MAX_DEGREE; one past it is refused, naming
    # the limit, and never wraps into the neighbouring field
    top = R.monomial((_MAX_DEGREE, 0, 0))
    assert top.terms == {(_MAX_DEGREE, 0, 0): F.one()}
    assert top.total_degree() == _MAX_DEGREE
    assert (R.monomial((0, 0, _MAX_DEGREE - 1)) * w).terms == {(0, 0, _MAX_DEGREE): F.one()}
    assert (x ** (_MAX_DEGREE - 1) * (x + y)).terms == {
        (_MAX_DEGREE, 0, 0): F.one(), (_MAX_DEGREE - 1, 1, 0): F.one()}
    assert (top * R.scalar(3)).divexact(x ** 2) == R.scalar(3) * x ** (_MAX_DEGREE - 2)
    limit = f"total degree {_MAX_DEGREE + 1} exceeds the limit {_MAX_DEGREE}"
    for past in (lambda: top * w, lambda: w * top, lambda: (top + 1) * (y + 1),
                 lambda: R.monomial((0, _MAX_DEGREE + 1, 0)),
                 lambda: R.monomial((1, _MAX_DEGREE, 0)),
                 lambda: Polynomial(R, {(0, 0, _MAX_DEGREE + 1): F.one()}),
                 lambda: w ** (_MAX_DEGREE + 1)):
        with pytest.raises(Refusal, match=limit):
            past()
    with pytest.raises(Refusal, match=limit):
        R.parse(f"x^{_MAX_DEGREE} * y")


def test_bad_exponent_tuples_are_refused_not_packed():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(R, {(2, -1, 0): F.one()})
    with pytest.raises(ValueError, match="expected 3 exponents, got 2"):
        Polynomial(R, {(1, 0): F.one()})


@settings(max_examples=100, deadline=None)
@given(case=OPERANDS, c=_coefficients(F))
def test_hash_contract(case, c):
    # a constant hashes as its coefficient, and equal polynomials hash
    # equally however their terms were ordered
    f, g, _ = case
    assert hash(R.scalar(c)) == hash(c) and R.scalar(c) == c
    assert hash(R.scalar(3)) == hash(3) and hash(R.zero()) == hash(0)
    for a, b in ((f * g, g * f), (f + g, g + f), (f * g, poly_mul(f, g))):
        assert a == b and hash(a) == hash(b)
    reordered = Polynomial(f.ring, dict(reversed(list(f.terms.items()))))
    assert reordered == f and hash(reordered) == hash(f)


def test_polynomials_copy_and_pickle():
    # a polynomial keeps its packed terms and any exponent-tuple view it has
    # built
    for read_first in (False, True):
        f = R.parse("x^2*w + z*y - 1/3")
        if read_first:
            f.terms
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and g.ring == R and _same(g, f)
            assert g * x == f * x


def test_exact_division_with_quotients_larger_than_the_dividend():
    # x^n - y^n by x - y, where a remainder coefficient meets up to n
    # quotient terms; a quotient whose coefficients outgrow the dividend's;
    # and a quotient with 100-digit coefficients
    for n in (2, 9, 40):
        f = x ** n - y ** n
        assert _same(f.divexact(x - y), poly_divexact(f, x - y))
        assert f.divexact(x - y) * (x - y) == f
    # x^140 - 1 over the product g of its other cyclotomic factors: the
    # quotient Phi_1 Phi_4 Phi_10 Phi_14 has a coefficient of absolute value
    # 19, where every coefficient of the dividend is +-1
    def cyclotomic(d):
        return sum((R.scalar(c) * x ** i for i, c in enumerate(cyclotomic_polynomial(d))),
                   R.zero())
    q = cyclotomic(1) * cyclotomic(4) * cyclotomic(10) * cyclotomic(14)
    g = R.one()
    for d in (2, 5, 7, 20, 28, 35, 70, 140):
        g = g * cyclotomic(d)
    assert q * g == x ** 140 - 1 and max(abs(c.num[0]) for c in q.terms.values()) == 19
    assert _same((x ** 140 - 1).divexact(g), poly_divexact(x ** 140 - 1, g))
    g = R.parse("x - 3*z*y + 2")
    q = (R.scalar(10 ** 100) * x + R.parse("z*y - 1/7")) ** 3
    assert _same((q * g).divexact(g), poly_divexact(q * g, g))
    assert _same((q * g).divexact(q), poly_divexact(q * g, q))


def _truncated(p, precision):
    return Polynomial(p.ring, {e: c for e, c in p.terms.items() if sum(e) < precision})


@settings(max_examples=60, deadline=None)
@given(case=OPERANDS, precision=st.integers(0, 5))
def test_jet_kernels_match_the_oracles(case, precision):
    f, g = (_truncated(p, precision) for p in case[:2])
    a, b = Jet(f, precision), Jet(g, precision)
    assert _same((a * b).poly, _truncated(poly_mul(f, g), precision))
    assert _same((a - b).poly, poly_sub(f, g))
    assert _same((a + b).poly, poly_add(f, g))


@settings(max_examples=60, deadline=None)
@given(case=OPERANDS)
def test_trusted_builder_stores_no_zero(case):
    # `Polynomial._of` keeps the terms it is given: every kernel that builds
    # through it must hand over nonzero coefficients only
    f, g, h = case
    built = []
    of = Polynomial._of

    def recording(ring, terms):
        built.append(terms)
        return of(ring, terms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polynomial, "_of", staticmethod(recording))
        [f + g, f - g, f - f, f + (-f), -f, f * g, g * h, f * h * g,
         f.truncate(3), f.reduce_mod_vars(f.ring.vars[:1]), Jet(f, 2) * Jet(g, 2) - Jet(h, 2)]
        if not g.is_zero():
            (f * g).divexact(g)
    assert built
    assert all(not c.is_zero() for terms in built for c in terms.values())


def test_equality_with_a_scalar_of_another_field_is_false():
    # a scalar of another field is unequal, as another ring's polynomial is;
    # arithmetic with it still raises
    other = cyclotomic_field(4).one()
    for a in (x, R.one(), Jet(x, 2), Jet(R.one(), 2)):
        assert not a == other and a != other
        assert not other == a and other != a
    assert R.one() == F.one() and Jet(R.one(), 2) == F.one() and R.scalar(2) == 2
    with pytest.raises(ValueError, match="scalar from a different field"):
        x + other


def test_truncate_and_homogeneous_part():
    f = R.one() + x + x * y + x * y * w
    assert f.truncate(2) == R.one() + x


def test_monomial_coprime():
    assert monomial_coprime([x, y, w])
    assert not monomial_coprime([x * y, y * w])
    with pytest.raises(UndecidableError):
        monomial_coprime([x + y, w])
    with pytest.raises(UndecidableError):
        monomial_coprime([R.zero(), x])


def test_parser_basics():
    assert R.parse("x*y + 2*w^3") == x * y + R.scalar(2) * w * w * w
    assert R.parse("(x + y)^2") == x * x + R.scalar(2) * x * y + y * y
    assert R.parse("-x") == -x
    assert R.parse("z*x") == R.scalar(F.zeta(1)) * x
    assert R.parse("z^2*x") == R.scalar(F.zeta(2)) * x
    assert R.parse("1/3*x") == R.scalar(Fraction(1, 3)) * x
    assert R.parse("0").is_zero()


def test_parser_errors_carry_position():
    with pytest.raises(MatfacError) as e:
        R.parse("x + * y")
    assert "position" in str(e.value)
    with pytest.raises(MatfacError):
        R.parse("unknown_var + 1")
    with pytest.raises(MatfacError):
        R.parse("x +")


def test_parser_reads_decimal_digits_only():
    # `int` reads decimal digits only: a superscript two is no literal, an
    # Arabic-Indic three is
    assert R.parse("x^\u0663") == x * x * x
    for text, pos in (("x^\u00b2", 2), ("\u00b2*x", 0)):
        with pytest.raises(PolyParseError) as e:
            R.parse(text)
        assert str(e.value) == f"unexpected character '\u00b2' (at position {pos})"


def test_unexpected_token_is_quoted_as_written():
    # an int token carries its value, but the message names the source text
    for text, quoted, pos in (("x 007", "007", 2), ("x \u0663", "\u0663", 2),
                              ("x y", "y", 2), ("x )", ")", 2)):
        with pytest.raises(PolyParseError) as e:
            R.parse(text)
        assert str(e.value) == f"unexpected {quoted!r} (at position {pos})"


def test_parser_refuses_deep_nesting_and_reads_any_run_of_signs():
    assert R.parse("(" * 100 + "x" + ")" * 100) == x
    for opener, depth, pos in (("(", 101, 100), ("(", 1000, 100), ("-(", 101, 201)):
        with pytest.raises(PolyParseError) as e:
            R.parse(opener * depth + "x" + ")" * depth)
        assert str(e.value) == f"expression nested too deeply (at position {pos})"
    assert R.parse("-" * 1001 + "x") == -x
    assert R.parse("+-" * 5000 + "(-x)^2") == x * x


@settings(max_examples=60, deadline=None)
@given(f=poly_strategy())
def test_str_parse_round_trip(f):
    assert parse_polynomial(str(f), R) == f


def test_str_round_trip_with_cyclotomic_coefficients():
    z = F.zeta(1)
    f = R.scalar(z) * x + R.scalar(z * z - F.rational(Fraction(1, 2))) * y * w
    assert R.parse(str(f)) == f


DOC_VARS = ("x1", "x2", "x0", "y1", "y2", "y0", "z1", "z2", "z0")


@pytest.mark.parametrize("conductor,variables,text", [
    (3, DOC_VARS, "x1*x2*x0 + y1*y2*y0 + z1*z2*z0"),
    (3, DOC_VARS, "y1*y2*y0"),
    (3, DOC_VARS, "x0"),
    (3, DOC_VARS, "z"),
    (4, ("x", "y"), "x^2"),
    (4, ("x", "y"), "x"),
    (4, ("x", "y"), "0"),
    (4, ("x", "y"), "1"),
])
def test_str_parse_round_trip_of_document_polynomials(conductor, variables, text):
    # the polynomials of the CLI test documents: variable names with digits,
    # the field generator z, conductor 4, and the zero and one entries
    ring = PolynomialRing(cyclotomic_field(conductor), variables)
    f = ring.parse(text)
    assert ring.parse(str(f)) == f
    assert str(ring.parse(str(f))) == str(f)


def test_jets_truncate_arithmetic():
    f = Jet(R.one() + x, 3)
    g = Jet(R.one() - x, 3)
    prod = f * g
    assert prod == Jet(R.one() - x * x, 3)
    # degree-3 terms fall off
    h = Jet(x, 3)
    assert (h * h * h).is_zero()


def test_jet_inverse():
    space = JetSpace(R, 4)
    f = Matrix(space, [[Jet(R.one() + x + y, 4)]])
    inv = jet_inverse(f)
    assert f @ inv == Matrix.identity(space, 1) == inv @ f
    with pytest.raises(MatfacError):
        jet_inverse(Matrix(space, [[Jet(x, 4)]]))  # zero constant term: not a unit


_EQUALITY_BASES = [R.zero(), R.one(), R.scalar(3), x, R.one() + x, x * x + 1, x * x, x * y + x]


@st.composite
def _jet_operands(draw):
    """A jet, a polynomial or an int, drawn from few bases so that equal
    pairs and triples are common."""
    p = draw(st.sampled_from(_EQUALITY_BASES) | poly_strategy(max_terms=2, max_exp=2))
    kind = draw(st.sampled_from(["jet", "jet", "poly", "int"]))
    if kind == "int":
        return draw(st.integers(-1, 3))
    return p if kind == "poly" else Jet(p, draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(a=_jet_operands(), b=_jet_operands(), c=_jet_operands())
# Jet(x^2 + 1, 2) stores 1: it equals 1 but not x^2 + 1
@example(a=x * x + 1, b=Jet(x * x + 1, 2), c=1)
@example(a=Jet(R.scalar(3), 2), b=3, c=Jet(R.scalar(3), 1))
def test_jet_equality_is_an_equivalence_that_agrees_with_the_hash(a, b, c):
    assert a == a and not a != a
    assert (a == b) == (b == a) == (not a != b)
    if a == b and b == c:
        assert a == c
    if a == b:
        assert hash(a) == hash(b) and a in {b} and b in {a}


def test_jets_equal_their_stored_polynomial():
    j = Jet(x * x + 1, 2)
    assert j == 1 and j != x * x + 1 and hash(j) == hash(1)
    assert 3 in {Jet(R.scalar(3), 2)}
    assert Jet(x, 2) == Jet(x, 3) and hash(Jet(x, 2)) == hash(Jet(x, 3))
    # matrices still tell precisions apart, through their spaces
    assert Matrix(JetSpace(R, 2), [[Jet(x, 2)]]) != Matrix(JetSpace(R, 3), [[Jet(x, 3)]])


def test_jet_mixed_precision_rejected():
    with pytest.raises(ValueError):
        Jet(x, 2) + Jet(x, 3)


def test_ring_equality_with_itself_compares_nothing(monkeypatch):
    calls = []
    field_eq = type(F).__eq__
    monkeypatch.setattr(type(F), "__eq__", lambda a, b: calls.append(b) or field_eq(a, b))
    assert R == R and x._coerce(y) is y
    assert calls == []
    assert R == PolynomialRing(cyclotomic_field(3), ("x", "y", "w"))
    assert calls


# ASCII letters (z among them), digits and _, then a middle dot, a combining
# acute accent, an undertie, a superscript two and an Arabic-Indic three
NAME_CHARS = ("abcxyzXYZ", "0129", "_", "\u00b7", "\u0301", "\u203f", "\u00b2", "\u0663")


@settings(max_examples=150, deadline=None)
@given(name=st.text(st.sampled_from("".join(NAME_CHARS)), min_size=1, max_size=4))
def test_ring_variable_names_print_and_parse_back(name):
    # a ring takes a name only if its printed variable parses back to it;
    # `z` alone is the field generator, which the ring refuses
    if name == "z":
        with pytest.raises(ValueError, match="'z' is reserved"):
            PolynomialRing(F, (name,))
        return
    try:
        ring = PolynomialRing(F, (name,))
    except ValueError as e:
        assert str(e).startswith("bad variable name ")
        return
    v = ring.variable(name)
    assert ring.parse(str(v)) == v


@pytest.mark.parametrize("variables, message", [
    (("x", "y", "x"), "duplicate variable names in ('x', 'y', 'x')"),
    (("x\u00b7y",), "bad variable name 'x\u00b7y'"),
    (("2x",), "bad variable name '2x'"),
    (("x", "y" * 100 + "\u00b7"), "bad variable name 'yyyyyyyyyy"),
    (("x", "z"), "'z' is reserved for the root of unity"),
])
def test_bad_ring_variable_names_are_refused(variables, message):
    with pytest.raises(ValueError) as info:
        PolynomialRing(F, variables)
    assert str(info.value).startswith(message)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("text, message", [
    ("x^-2", "negative exponent (at position 2)"),
    ("x^", "expected a nonnegative integer exponent (at position 2)"),
    ("x^y", "expected a nonnegative integer exponent (at position 2)"),
    ("1/x", "expected an integer denominator (at position 2)"),
    ("3/0", "zero denominator (at position 2)"),
    ("q" * 200, "unknown variable 'qqqq"),
])
def test_parse_errors_name_what_is_wrong_and_where(text, message):
    with pytest.raises(PolyParseError) as info:
        R.parse(text)
    assert str(info.value).startswith(message)
    assert len(str(info.value)) < 120
