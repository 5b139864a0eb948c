"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is represented over the power basis 1, z, z^2, ..., z^(phi(m)-1),
where z is a fixed primitive m-th root of unity and phi is Euler's totient,
as a tuple of integer numerators over one positive integer denominator (the
layout FLINT uses for `fmpq_poly`).  Elements are kept in lowest terms:
gcd(den, *num) == 1 and zero is (0, ..., 0)/1, so equal elements have equal
numerators and denominators.

Reduction happens modulo the m-th cyclotomic polynomial, which is computed
once per conductor by the classical "divide x^m - 1 by the proper divisors'
cyclotomic polynomials" recursion.  It is monic with integer coefficients,
so the reduction table of z^phi(m), ..., z^(2 phi(m) - 2) is integral too: a
product is an integer convolution reduced through the table, over the
product of the denominators, brought to lowest terms by one gcd.  The
reduction is one function, `_fold`, which the polynomial product also calls
once per output coefficient, on a sum of convolutions.

An inverse is the product of the other Galois conjugates z |-> z^a over the
norm, all in integers; since the modulus is irreducible over Q, the norm of a
nonzero element is a nonzero rational.

The signed roots of unity +-zeta^a are the whole torsion of Q(zeta_m)^x, a
cyclic group of order lcm(2, m), and each field keeps them as one table: the
powers w^k of a generator, indexed by numerator tuple.  Knorrer's circulant
conjugations make most products have such an operand.  A product of two roots
is the table entry w^(j+k), with no arithmetic; a product with a signed basis
vector +-z^s is the other operand rotated up by s and folded through the
reduction table, with its denominator kept; the inverse of w^k is w^(-k), and
its multiplicative order is read from k.  Every other product convolves.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, neg, sub

from .errors import MatfacError, _quote

# The largest conductor a field is built for: `CycloField` tabulates all m
# powers of zeta_m as phi(m)-vectors, O(m phi(m)) work and memory
_MAX_CONDUCTOR = 1000


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder in Z[x] by a monic divisor; dense coefficient
    lists, low degree first."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    r = num[: len(den) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (low degree first) of the m-th cyclotomic polynomial.

    Computed by exact division: Phi_m = (x^m - 1) / prod_{k | m, k < m} Phi_k.
    Every divisor is monic, so the quotients stay integral.
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(k))
            if rem:
                raise MatfacError(f"cyclotomic recursion left a remainder at m={m}, k={k}")
    return tuple(poly)


def _rotation(num: tuple[int, ...]) -> tuple[int, int] | None:
    """(a, sign) when num is the signed basis vector sign * z^a, else None."""
    support = [i for i, c in enumerate(num) if c]
    if len(support) == 1 and num[support[0]] in (1, -1):
        return support[0], num[support[0]]
    return None


def _totient(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            count += 1
    return count


class CycloField:
    """The field Q(zeta_m).  Obtain instances through `cyclotomic_field(m)`.

    Attributes:
        m: the conductor, at most `_MAX_CONDUCTOR`.
        degree: phi(m), the dimension over Q.
    """

    def __init__(self, m: int):
        if m > _MAX_CONDUCTOR:
            raise ValueError(f"conductor {_quote(m)} exceeds the maximum {_MAX_CONDUCTOR}")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = deg = len(self.modulus) - 1
        if deg != _totient(m):
            raise MatfacError(f"cyclotomic polynomial of conductor {m} has the wrong degree")
        # Reduction table: z^k for k in [degree, 2*degree - 2], in that
        # order, each as the sparse (index, integer coefficient) pairs of its
        # power-basis vector.  A product of reduced elements has raw degree
        # <= 2*degree - 2.
        rows = []
        vec = [-c for c in self.modulus[:-1]]  # z^degree; the modulus is monic
        for _ in range(deg - 1):
            rows.append(tuple((i, c) for i, c in enumerate(vec) if c))
            # times z: the overflowing lead * z^degree is -lead * (modulus minus its top)
            lead = vec[-1]
            vec = [0] + vec[:-1]
            if lead:
                vec = [v - lead * c for v, c in zip(vec, self.modulus)]
        self._reduction = tuple(rows)
        self._zero_tail = (0,) * (deg - 1)
        self._zero = CycloElem(self, (0,) * deg, 1)
        self._one = CycloElem(self, (1,) + self._zero_tail, 1)
        # Empty while the powers below are formed, so their products convolve.
        self._root_index = {}
        # zeta^0, ..., zeta^(m-1): each power is the previous one times the
        # generator, so no raw degree ever exceeds the table's reach.  In
        # degree one the generator is the root of x + modulus[0] itself.
        z = self.element([0, 1]) if deg > 1 else self.rational(-self.modulus[0])
        powers = [self._one]
        for _ in range(m - 1):
            powers.append(powers[-1] * z)
        self._zeta_powers = powers
        # The signed roots +-zeta^a, the torsion of Q(zeta_m)^x: a cyclic
        # group of order lcm(2, m), listed as w^0, w^1, ... for the generator
        # w = zeta (m even, where -zeta^a = zeta^(a + m/2)) or w =
        # -zeta^((m+1)/2) (m odd: w^2 = zeta and w^m = -1).  The index maps
        # each numerator tuple to (k, rotation): w^k = +-z^a with a < degree
        # gives rotation (a, sign), any other root None.
        if m % 2 == 0:
            roots = powers
        else:
            half = (m + 1) // 2
            roots = [-powers[k * half % m] if k % 2 else powers[k * half % m]
                     for k in range(2 * m)]
        self._roots = roots
        self._root_index = {r.num: (k, _rotation(r.num)) for k, r in enumerate(roots)}

    def __repr__(self):
        return f"CycloField({self.m})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.m == self.m

    def __hash__(self):
        return hash(("CycloField", self.m))

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> CycloElem:
        """Element from an iterable of rationals over the power basis (padded with zeros)."""
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError(f"coordinate vector longer than field degree {self.degree}")
        # Over the lcm of reduced denominators the numerators share no factor
        # with it: each prime power of the lcm is some coordinate's whole
        # denominator, and that coordinate's numerator is prime to it.
        den = math.lcm(*(q.denominator for q in vec))
        num = [q.numerator * (den // q.denominator) for q in vec]
        num += [0] * (self.degree - len(num))
        return CycloElem(self, tuple(num), den)

    def zero(self) -> CycloElem:
        return self._zero

    def one(self) -> CycloElem:
        return self._one

    def rational(self, a) -> CycloElem:
        """The rational a, given exactly: an int or a Fraction, as
        `CycloElem` arithmetic takes them; anything else is a TypeError."""
        if type(a) is int:
            return CycloElem(self, (a,) + self._zero_tail, 1)
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"a rational must be an int or a Fraction, not {type(a).__name__}")
        return CycloElem(self, (a.numerator,) + self._zero_tail, a.denominator)

    def zeta(self, power: int = 1) -> CycloElem:
        """zeta_m^power, for any integer power (negative allowed)."""
        return self._zeta_powers[power % self.m]

    def root_of_unity(self, order: int, power: int = 1) -> CycloElem:
        """A primitive `order`-th root of unity, namely zeta_m^(m/order * power).

        Requires order | m and gcd(power, order) = 1 so the result is primitive.
        Order 2 is available for any conductor, since -1 is rational.
        """
        if order == 2 and self.m % 2:
            if power % 2 == 0:
                raise ValueError(f"power {power} does not give a primitive 2-th root")
            return self.rational(-1)
        if order <= 0 or self.m % order != 0:
            raise ValueError(f"no primitive root of order {order} in Q(zeta_{self.m})")
        if math.gcd(power, order) != 1:
            raise ValueError(f"power {power} does not give a primitive {order}-th root")
        return self.zeta((self.m // order) * power)


@functools.lru_cache(maxsize=None)
def cyclotomic_field(m: int) -> CycloField:
    return CycloField(m)


def _fold(field: CycloField, raw: list[int]) -> list[int]:
    """The power-basis numerators of the integer vector raw over z^0, z^1,
    ..., z^(2 degree - 2): its first degree coordinates, plus each higher
    coordinate times its row of the reduction table.  Every product in the
    package, of two elements or of two polynomials' coefficients, is reduced
    here once."""
    deg = field.degree
    out = raw[:deg]
    for k, row in enumerate(field._reduction, deg):
        c = raw[k]
        if c:
            for i, t in row:
                out[i] += c * t
    return out


def _lowest_terms(field: CycloField, num, den: int) -> CycloElem:
    """The element num/den (den > 0) brought to lowest terms."""
    g = math.gcd(den, *num)
    if g == 1:
        return CycloElem(field, tuple(num), den)
    return CycloElem(field, tuple(c // g for c in num), den // g)


class CycloElem:
    """An element of Q(zeta_m).  Immutable; full exact arithmetic.

    `num` holds the integer numerators over the power basis and `den` the
    common positive denominator, in lowest terms.  Construct elements through
    the field (`element`, `rational`, `zeta`, ...) or by arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates over the power basis."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field._one.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> CycloElem | None:
        if isinstance(other, CycloElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(
                    f"field mismatch: Q(zeta_{self.field.m}) vs Q(zeta_{other.field.m})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        o = other
        if type(o) is not CycloElem or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(add, self.num, o.num))
            if da == 1:
                return CycloElem(self.field, num, 1)
            return _lowest_terms(self.field, num, da)
        return _lowest_terms(self.field, [a * db + b * da for a, b in zip(self.num, o.num)],
                             da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = other
        if type(o) is not CycloElem or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(sub, self.num, o.num))
            if da == 1:
                return CycloElem(self.field, num, 1)
            return _lowest_terms(self.field, num, da)
        return _lowest_terms(self.field, [a * db - b * da for a, b in zip(self.num, o.num)],
                             da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloElem(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        """The product; a signed root of unity costs an index or a rotation.

        Two signed roots multiply by adding their exponents in the field's
        table of roots.  A signed basis vector +-z^s (s < degree) shifts the
        other operand's numerators up by s, folds the overflow through the
        reduction table and keeps the denominator with no gcd: z^s is a unit
        of Z[z] (its inverse z^(m-s) is integral) and the power basis is a
        Z-basis of Z[z], so multiplying by it is a bijection of the integer
        numerator vectors that maps g*Z[z] onto itself for every integer g.
        An integer dividing every numerator of z^s * num thus divides every
        numerator of num, and gcd(den, *num) = 1 still holds.  Any other
        product is an integer convolution reduced through the table, over the
        product of the denominators, brought to lowest terms by one gcd.
        """
        o = other
        if type(o) is not CycloElem or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        field = self.field
        a, b = self.num, o.num
        index = field._root_index
        ra = index.get(a) if self.den == 1 else None
        rb = index.get(b) if o.den == 1 else None
        if ra is not None and rb is not None:
            roots = field._roots
            return roots[(ra[0] + rb[0]) % len(roots)]
        deg = len(a)
        raw = [0] * (2 * deg - 1)
        x, root = (o, ra) if ra is not None else (self, rb)
        if root is not None and root[1] is not None:
            # x * (+-z^s): shift up by s, fold the overflow z^deg..z^(deg+s-1)
            # through the table's first s rows; the denominator stays
            s, sign = root[1]
            raw[s:s + deg] = x.num
            out = _fold(field, raw)
            if sign < 0:
                out = map(neg, out)
            return CycloElem(field, tuple(out), x.den)
        # Integer convolution over the power basis, then the reduction table.
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        raw[j] += ai * bj
        out = _fold(field, raw)
        den = self.den * o.den
        if den == 1:
            return CycloElem(field, tuple(out), 1)
        return _lowest_terms(field, out, den)

    __rmul__ = __mul__

    def inverse(self) -> CycloElem:
        """Multiplicative inverse: w^(-k) from the field's table for a signed
        root w^k, else the product of the other Galois conjugates over the
        norm.

        sigma_a (a prime to m) sends z to z^a, and x * prod_{a != 1}
        sigma_a(x) = N(x) is a positive rational.  Everything stays in
        integers: each conjugate of the numerator vector is summed from the
        table of powers of z, and the norm of that algebraic integer is an
        integer, so (num/den)^-1 = den * prod_{a != 1} sigma_a(num) / N(num).
        """
        field = self.field
        if self.den == 1:
            root = field._root_index.get(self.num)
            if root is not None:
                roots = field._roots
                return roots[-root[0] % len(roots)]
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if self.is_rational():
            return field.rational(Fraction(self.den, self.num[0]))
        m, deg, powers = field.m, field.degree, field._zeta_powers
        terms = [(i, c) for i, c in enumerate(self.num) if c]
        prod = None
        for a in range(2, m):
            if math.gcd(a, m) != 1:
                continue
            conj = [0] * deg
            for i, c in terms:
                for j, t in enumerate(powers[a * i % m].num):
                    if t:
                        conj[j] += c * t
            conj = CycloElem(field, tuple(conj), 1)
            prod = conj if prod is None else prod * conj
        # Q(zeta_m) of degree >= 2 is totally imaginary, so the norm, a
        # product of |sigma(x)|^2 over conjugate pairs, is positive.
        norm = CycloElem(field, self.num, 1) * prod
        n = norm.num[0]
        if not norm.is_rational() or n <= 0:
            raise MatfacError(f"norm of {self} is not a positive rational: {norm}")
        return _lowest_terms(field, [c * self.den for c in prod.num], n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, CycloElem) else other
        if o is None or not isinstance(o, CycloElem):
            return NotImplemented
        if o.field is not self.field and o.field != self.field:
            return False
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction (`__eq__` coerces), so it
        # hashes as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.m, self.num, self.den))

    def multiplicative_order(self) -> int | None:
        """Order of the element in the unit group, or None if it is infinite.

        The elements of finite order in Q(zeta_m)^x are its roots of unity,
        the signed roots +-zeta^a: a cyclic group of order M = lcm(2, m),
        which the field lists as the powers of a generator w.  So w^k has
        order M / gcd(k, M), and an element outside the table (zero included)
        has none.
        """
        root = self.field._root_index.get(self.num) if self.den == 1 else None
        if root is None:
            return None
        size = len(self.field._roots)
        return size // math.gcd(root[0], size)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"CycloElem({self})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


