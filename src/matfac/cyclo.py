"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is represented by its coordinate vector over the power basis
1, z, z^2, ..., z^(phi(m)-1), where z is a fixed primitive m-th root of
unity and phi is Euler's totient.  Coordinates are `fractions.Fraction`s,
so every operation is exact.  Reduction happens modulo the m-th cyclotomic
polynomial, which is computed once per conductor by the classical
"divide x^m - 1 by the proper divisors' cyclotomic polynomials" recursion.

Inverses go through the extended Euclidean algorithm in Q[x] against the
cyclotomic modulus; since the modulus is irreducible over Q, any nonzero
element is invertible.

Fields of different conductors never mix silently: `embed` moves an element
of Q(zeta_m) into Q(zeta_m2) for m | m2 via z_m |-> z_m2^(m2/m).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import MatfacError


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder in Q[x]; dense coefficient lists, low degree first."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    r = num[: len(den) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients (low degree first) of the m-th cyclotomic polynomial.

    Computed by exact division: Phi_m = (x^m - 1) / prod_{k | m, k < m} Phi_k.
    The result has integer coefficients; they are returned as Fractions for
    uniformity with the field arithmetic.
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for k in range(1, m):
        if m % k == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(k)))
            if rem:
                raise MatfacError(f"cyclotomic recursion left a remainder at m={m}, k={k}")
    return tuple(poly)


def _totient(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            count += 1
    return count


class CycloField:
    """The field Q(zeta_m).  Obtain instances through `cyclotomic_field(m)`.

    Attributes:
        m: the conductor.
        degree: phi(m), the dimension over Q.
    """

    def __init__(self, m: int):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        if self.degree != _totient(m):
            raise MatfacError(f"cyclotomic polynomial of conductor {m} has the wrong degree")
        # Reduction table: z^k for k in [degree, 2*degree - 2] as vectors over
        # the power basis.  Multiplication produces raw degree <= 2*degree - 2.
        table = []
        # z^degree = -(modulus without leading coeff); modulus is monic.
        prev = [-c for c in self.modulus[:-1]]
        table.append(tuple(prev))
        for _ in range(self.degree - 2):
            shifted = [Fraction(0)] + prev[:-1]
            lead = prev[-1]
            nxt = [s + lead * t for s, t in zip(shifted, table[0])]
            table.append(tuple(nxt))
            prev = nxt
        self._power_table = table
        # zeta^0, ..., zeta^(m-1): each power is the previous one times the
        # reduced generator, so no raw degree ever exceeds the table's reach.
        z = CycloElem(self, self._reduce([Fraction(0), Fraction(1)]))
        powers = [self.one()]
        for _ in range(m - 1):
            powers.append(powers[-1] * z)
        self._zeta_powers = powers

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
        vec += [Fraction(0)] * (self.degree - len(vec))
        return CycloElem(self, tuple(vec))

    def zero(self) -> CycloElem:
        return self.element([])

    def one(self) -> CycloElem:
        return self.element([1])

    def rational(self, a) -> CycloElem:
        return self.element([Fraction(a)])

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

    # -- internal reduction --------------------------------------------------

    def _reduce(self, raw: list[Fraction]) -> tuple[Fraction, ...]:
        """Reduce a raw coefficient list (any length < 2*degree) mod the cyclotomic polynomial."""
        deg = self.degree
        out = list(raw[:deg]) + [Fraction(0)] * max(0, deg - len(raw))
        for k in range(deg, len(raw)):
            c = raw[k]
            if c:
                row = self._power_table[k - deg]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_field(m: int) -> CycloField:
    return CycloField(m)


class CycloElem:
    """An element of Q(zeta_m).  Immutable; full exact arithmetic."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> CycloElem | None:
        if isinstance(other, CycloElem):
            if other.field != self.field:
                raise ValueError(
                    f"field mismatch: Q(zeta_{self.field.m}) vs Q(zeta_{other.field.m})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        raw = [Fraction(0)] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        raw[i + j] += ai * bj
        return CycloElem(self.field, self.field._reduce(raw))

    __rmul__ = __mul__

    def inverse(self) -> CycloElem:
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if self.is_rational():
            return self.field.rational(1 / self.coeffs[0])
        # Maintain r = s * self (mod modulus); stop when r is a nonzero constant.
        r0 = list(self.field.modulus)
        r1 = [c for c in self.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            # s_next = s0 - q * s1
            prod = [Fraction(0)] * (len(q) + len(s1) - 1) if s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            s_next = [
                (s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0))
                for i in range(max(len(s0), len(prod)))
            ]
            r0, r1 = r1, r
            s0, s1 = s1, s_next
        if not r1:
            raise ZeroDivisionError("element shares a factor with the modulus (not a field?)")
        scale = 1 / r1[0]
        return self.field.element([c * scale for c in s1])

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
        if o.field != self.field:
            return False
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.m, self.coeffs))

    def multiplicative_order(self, limit: int = 1000) -> int | None:
        """Order of the element in the unit group, or None if it exceeds `limit`."""
        acc = self
        for k in range(1, limit + 1):
            if acc.is_one():
                return k
            acc = acc * self
        return None

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


def embed(elem: CycloElem, target: CycloField) -> CycloElem:
    """Embed Q(zeta_m) into Q(zeta_m2) for m | m2, sending zeta_m to zeta_m2^(m2/m)."""
    m, m2 = elem.field.m, target.m
    if m2 % m != 0:
        raise ValueError(f"no standard embedding of Q(zeta_{m}) into Q(zeta_{m2})")
    step = m2 // m
    out = target.zero()
    for i, c in enumerate(elem.coeffs):
        if c:
            out = out + target.zeta(i * step) * c
    return out
