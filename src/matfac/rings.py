"""Sparse multivariate polynomials over a cyclotomic field, plus jets.

A polynomial is a dict from packed monomials to nonzero CycloElem
coefficients.  A packed monomial is one integer (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): fields of `_FIELD_BITS` bits hold the total degree,
most significant, and then the exponents, the ring's first variable most
significant.  The top bit of every field is a guard, zero in every stored
key, so a total degree, and with it every exponent, is at most
`_MAX_DEGREE` = 32,767; a product or a monomial past that is refused
(`Refusal`, naming the limit) before anything is packed, never truncated or
aliased.  Integer order on the keys is then graded lexicographic order
(`grlex_key`): compare total degree first, then the exponent tuple itself,
with earlier variables weighing more.  So a lead term is the largest key, a
graded-lex sort is an integer sort, the product of two monomials is the sum
of their keys, and `terms` reads the keys back as exponent tuples.  The
canonical term order everywhere — printing, lead terms — is descending
graded-lex; the printer emits exactly the grammar the parser accepts, so
print-then-parse is the identity.

The kernels under every determinant (products, sums and differences, exact
division) cost what their output costs.  A product with a one-term operand
adds that term's key to every key of the other operand and scales its
coefficients, in that operand's own order, with no accumulation (Q(zeta_m)
is a field, so no product of nonzeros is zero) and no coefficient product
at all when the one term's coefficient is one.  A product of two multi-term
operands reduces each output coefficient once: each operand's numerators
are put over its coefficients' common denominator, each numerator vector is
evaluated at 2^b (Kronecker substitution, with b wide enough that no
coordinate of an accumulated convolution reaches 2^(b-1)), and the term
pairs accumulate one integer product per output monomial.  Each sum is read
back as the raw integer convolution, folded through the field's reduction
table by `cyclo._fold`, the fold `CycloElem.__mul__` uses, and brought to
lowest terms by one gcd.  A sum or a difference is one pass over the second
operand's terms into a copy of the first's, dropping each term that
cancels.  Exact division is heap-ordered sparse division (Johnson, "Sparse
polynomial arithmetic", SIGSAM Bull. 8(3), 1974; Monagan and Pearce, CASC
2007) by the monic divisor g / lc(g): the remainder is one dict updated in
place, its keys sit negated in a heap, and each quotient term subtracts
only the divisor's non-lead terms.  Whether the divisor's lead divides the
remainder's is one subtraction with the guard bits set and one mask: a
field that borrows clears its guard.
Results keep the key order of the plain double loop and of greedy division.

Jets are polynomials truncated below a total-degree bound N.  They stand in
for power-series arithmetic where a genuinely local operation is required
(unit inversion, idempotent splitting); all other identities in the package
are polynomial and exact.

The expression grammar (see `parse_polynomial`): rational literals ``a`` or
``a/b``, the symbol ``z`` for the root of unity of the ring's field, variable
identifiers, ``+ - * ^ ( )``, with ``^`` taking a nonnegative integer literal.
Multiplication is always explicit.  A ring takes a variable name only when
the tokenizer reads it back as one identifier equal to it (`_reads_back`)
and the name is not ``z``, so ``x·y``, a letter with a combining accent or
``z`` itself is refused at the ring, not at the first polynomial.
Literals are decimal digits
(`str.isdecimal`, so ``²`` is not one), no more than the interpreter
converts to an integer (4,300 by default; a longer one is a parse error at
its position).  Parentheses nest at most
`_MAX_NESTING` = 100 deep: an opening parenthesis past that is a parse error
at its position, raised before parsing starts and well before any caller's
recursion limit.  A run of signs is read in a loop, at any length.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import MappingProxyType

from .cyclo import CycloElem, CycloField, _fold, _lowest_terms
from .errors import MatfacError, Refusal, UndecidableError, _quote

Exponents = tuple[int, ...]

# The width of each field of a packed monomial, one struct "H" (unsigned
# 16-bit) field when written big-endian; its top bit is the guard.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _degree_refusal(degree: int) -> Refusal:
    return Refusal(f"total degree {degree} exceeds the limit {_MAX_DEGREE} of a packed monomial")


class PolynomialRing:
    """A polynomial ring field[vars] with a fixed variable order, and the
    layout of its packed monomials (see the module docstring)."""

    def __init__(self, field: CycloField, variables):
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise ValueError(f"duplicate variable names in {_quote(vars_tuple)}")
        for v in vars_tuple:
            if v == "z":
                raise ValueError("'z' is reserved for the root of unity and cannot be a variable")
            if not _reads_back(v):
                raise ValueError(f"bad variable name {_quote(v)}")
        self.field = field
        self.vars = vars_tuple
        self._index = {v: i for i, v in enumerate(vars_tuple)}
        n = len(vars_tuple)
        # the shift of each variable's field, the first variable's highest,
        # and of the total degree's, above them all
        self._shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self._degree_shift = _FIELD_BITS * n
        # the struct formats of a key's bytes, big-endian: the degree's
        # field, then the exponents' (struct caches their compiled forms)
        self._fields = f">{n + 1}H"
        self._exponents = f">{n}H"
        self._bytes = 2 * (n + 1)
        # every key of total degree <= _MAX_DEGREE is below _limit
        self._limit = (_MAX_DEGREE + 1) << self._degree_shift
        self._guards = sum(1 << (_FIELD_BITS - 1 + _FIELD_BITS * i) for i in range(n + 1))

    def __repr__(self):
        return f"PolynomialRing(Q(zeta_{self.field.m}), {list(self.vars)})"

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.vars == self.vars
        )

    def __hash__(self):
        return hash(("PolynomialRing", self.field, self.vars))

    def _pack(self, exps) -> int:
        """The packed key of an exponent tuple aligned with `vars`."""
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        degree = sum(exps)
        if degree > _MAX_DEGREE:
            raise _degree_refusal(degree)
        return int.from_bytes(struct.pack(self._fields, degree, *exps), "big")

    def _unpack(self, key: int) -> Exponents:
        """The exponent tuple of a packed key."""
        return struct.unpack_from(self._exponents, key.to_bytes(self._bytes, "big"), 2)

    def zero(self) -> Polynomial:
        return Polynomial._of(self, {})

    def one(self) -> Polynomial:
        return Polynomial._of(self, {0: self.field.one()})

    def scalar(self, c) -> Polynomial:
        """Constant polynomial from a CycloElem, int, or Fraction."""
        if isinstance(c, CycloElem):
            if c.field != self.field:
                raise ValueError("scalar from a different field")
        else:
            c = self.field.rational(c)
        if c.is_zero():
            return self.zero()
        return Polynomial._of(self, {0: c})

    def variable(self, name: str) -> Polynomial:
        if name not in self._index:
            raise ValueError(f"unknown variable {name!r} in {self.vars}")
        key = 1 << self._degree_shift | 1 << self._shifts[self._index[name]]
        return Polynomial._of(self, {key: self.field.one()})

    def monomial(self, exps, coeff=1) -> Polynomial:
        """Monomial from an exponent iterable (aligned with ring.vars) and a coefficient."""
        key = self._pack(int(e) for e in exps)
        if not isinstance(coeff, CycloElem):
            coeff = self.field.rational(coeff)
        if coeff.is_zero():
            return self.zero()
        return Polynomial._of(self, {key: coeff})

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)


def _kronecker(num, bits: int) -> int:
    """The integer sum of num[i] * 2^(bits * i)."""
    value = 0
    for c in reversed(num):
        value = (value << bits) + c
    return value


def _digits(value: int, bits: int, count: int) -> list[int]:
    """The inverse of `_kronecker` for count coordinates, each of absolute
    value below 2^(bits-1): balanced base-2^bits digits, lowest first."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(count):
        d = ((value + half) & mask) - half
        out.append(d)
        value = (value - d) >> bits
    return out


def _numerators(terms: dict[int, CycloElem]) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """(d, [(key, numerator vector over d), ...]) for the terms' coefficients
    over their common denominator d."""
    d = math.lcm(*[c.den for c in terms.values()])
    return d, [(k, c.num if c.den == d else tuple(x * (d // c.den) for x in c.num))
               for k, c in terms.items()]


def _convolve(field: CycloField, a: dict[int, CycloElem],
              b: dict[int, CycloElem]) -> dict[int, CycloElem]:
    """The nonzero terms of the product of two term dicts, in the order of
    the double loop over a's terms, then b's.

    a's coefficients are put over their common denominator da and b's over
    db, and each numerator vector is evaluated at 2^bits.  One output
    coefficient is a sum of at most min(|a|, |b|) coefficient products, and
    each coordinate of one convolution is a sum of at most `degree` integer
    products, so every coordinate of an accumulated convolution is below
    min(|a|, |b|) * degree * max|A| * max|B| < 2^(bits-1) in absolute
    value, and the balanced digits of the accumulated integer are exactly
    those coordinates.  Each is folded once and brought to lowest terms over
    da * db once.
    """
    deg = field.degree
    da, na = _numerators(a)
    db, nb = _numerators(b)
    bits = (max(abs(x) for _, v in na for x in v).bit_length()
            + max(abs(x) for _, v in nb for x in v).bit_length()
            + (deg * min(len(a), len(b))).bit_length() + 1)
    pb = [(k, _kronecker(v, bits)) for k, v in nb]
    acc: dict[int, int] = {}
    get = acc.get
    for ka, va in na:
        va = _kronecker(va, bits)
        for kb, vb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + va * vb
    den, width = da * db, 2 * deg - 1
    terms = {}
    for k, v in acc.items():
        if v:
            num = _fold(field, _digits(v, bits, width))
            if any(num):
                terms[k] = (CycloElem(field, tuple(num), 1) if den == 1
                            else _lowest_terms(field, num, den))
    return terms


def _quotient_key(ring: PolynomialRing, lead: int, ge: int) -> int:
    """The key of the monomial lead / ge, or MatfacError when ge does not
    divide lead.  With every guard bit of lead set, a field of lead below
    ge's borrows its own guard bit and no more, so one subtraction and one
    mask decide divisibility, and clearing the guards leaves the quotient."""
    guards = ring._guards
    qe = (lead | guards) - ge
    if qe & guards != guards:
        raise MatfacError(f"not an exact division: remainder lead "
                          f"{ring._unpack(lead)} vs divisor lead {ring._unpack(ge)}")
    return qe ^ guards


class Polynomial:
    """Immutable sparse polynomial.  Construct through PolynomialRing methods.

    `_terms` maps packed monomials (see the module docstring) to nonzero
    coefficients; the constructor takes exponent tuples and strips zeros,
    and the kernels, which know their keys are packed and their terms
    nonzero, build through `_of`, so the representation is canonical up to
    dict iteration order.  `terms` reads the same terms back keyed by
    exponent tuple.
    """

    __slots__ = ("ring", "_terms", "_view")

    def __init__(self, ring: PolynomialRing, terms: dict[Exponents, CycloElem]):
        self.ring = ring
        pack = ring._pack
        self._terms = {pack(e): c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, ring: PolynomialRing, terms: dict[int, CycloElem]) -> Polynomial:
        """The polynomial whose packed terms are `terms`, kept as given, which
        the caller guarantees hold no zero coefficient; built without
        `__init__`."""
        p = cls.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Exponents, CycloElem]:
        """The terms keyed by exponent tuple, in the stored order: a
        read-only view, built from the packed keys when it is first read and
        kept from then on.  The kernels never read it, so a polynomial that
        only passes through arithmetic keeps no tuple-keyed copy."""
        try:
            view = self._view
        except AttributeError:
            unpack = self.ring._unpack
            view = self._view = {unpack(k): c for k, c in self._terms.items()}
        return MappingProxyType(view)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self == self.ring.one()

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_term(self) -> CycloElem:
        return self._terms.get(0, self.ring.field.zero())

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.ring._degree_shift

    def order_of(self) -> int:
        """Min total degree of a term; the order of f in the variable-ideal filtration."""
        if not self._terms:
            raise MatfacError("order of the zero polynomial is undefined")
        return min(self._terms) >> self.ring._degree_shift

    def sorted_terms(self) -> list[tuple[Exponents, CycloElem]]:
        """Terms in descending graded-lex order (the canonical iteration order)."""
        unpack, terms = self.ring._unpack, self._terms
        return [(unpack(k), terms[k]) for k in sorted(terms, reverse=True)]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, CycloElem)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in o._terms.items():
            s = terms.get(k)
            if s is None:
                terms[k] = c
            elif (s := s + c).is_zero():
                del terms[k]
            else:
                terms[k] = s
        return Polynomial._of(self.ring, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in o._terms.items():
            s = terms.get(k)
            if s is None:
                terms[k] = -c
            elif (s := s - c).is_zero():
                del terms[k]
            else:
                terms[k] = s
        return Polynomial._of(self.ring, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Polynomial._of(self.ring, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        a, b = self._terms, o._terms
        if not a or not b:
            return ring.zero()
        if len(a) == 1 and (len(b) != 1 or not next(iter(b.values())).is_one()):
            a, b = b, a
        # the largest key of the product is the sum of the operands' largest
        if (top := max(a) + max(b)) >= ring._limit:
            raise _degree_refusal(top >> ring._degree_shift)
        if len(b) == 1:
            # add b's one key to a's keys, in their order, and scale by its
            # coefficient (one if either operand's is); c != 0 in a field,
            # so no product is zero
            ((shift, c),) = b.items()
            if c.is_one():
                return Polynomial._of(ring, {k + shift: d for k, d in a.items()})
            return Polynomial._of(ring, {k + shift: d * c for k, d in a.items()})
        return Polynomial._of(ring, _convolve(ring.field, a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square beyond the last bit: it is the costliest product
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, CycloElem) and other.field != self.ring.field:
                return False
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient (`__eq__` coerces scalars), so it
        # hashes as one
        if self.total_degree() <= 0:
            return hash(self.constant_term())
        return hash((self.ring, tuple(sorted(self._terms.items()))))

    # -- structural operations ----------------------------------------------

    def reduce_mod_vars(self, kill) -> Polynomial:
        """Set the named variables to zero (drop every term that uses one)."""
        kill = set(kill)
        unknown = kill - set(self.ring.vars)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        fields = 0
        for v in kill:
            fields |= _FIELD_MASK << self.ring._shifts[self.ring._index[v]]
        return Polynomial._of(self.ring, {k: c for k, c in self._terms.items() if not k & fields})

    def divexact(self, g: Polynomial) -> Polynomial:
        """Exact quotient self / g; raises MatfacError if the division is not exact.

        Greedy lead-term elimination in graded-lex order: while the remainder
        r is nonzero, the next quotient term is lead(r) / lead(g), and r loses
        that term times g.  In a polynomial ring over a field this terminates
        and succeeds exactly when g divides self, because lead terms multiply:
        if g divides r, lead(g) divides lead(r), and r minus a multiple of g
        is again a multiple of g with a smaller lead.

        The division runs by the monic divisor h = g / lc(g), whose non-lead
        terms are formed once, and each quotient term is the remainder's lead
        term over lead(h), times lc(g)^-1.  The remainder is one dict updated
        in place, and a heap holds its keys negated, so that the largest, the
        graded-lex lead, pops first (Johnson 1974; Monagan and Pearce, CASC
        2007).  Each quotient term subtracts its multiple of h's non-lead
        terms only, all at keys below the lead it removed: so no key enters
        the remainder after it has been popped, each key is pushed once, and
        the value a key holds when it pops is final.  A key whose value
        cancelled to zero is skipped when it pops.  The remainder passes
        through the same states as in the greedy loop: quotient terms come
        out in descending graded-lex order, and a failing division names the
        same leads.
        """
        if g.ring != self.ring:
            raise ValueError("polynomials from different rings")
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ge = max(g._terms)
        ginv = g._terms[ge].inverse()
        tail = [(k, c * ginv) for k, c in g._terms.items() if k != ge]
        rem = dict(self._terms)
        heap = [-k for k in rem]
        heapify(heap)
        quotient: dict[int, CycloElem] = {}
        while heap:
            lead = -heappop(heap)
            rc = rem.pop(lead)
            if rc.is_zero():
                continue
            qe = _quotient_key(self.ring, lead, ge)
            quotient[qe] = rc * ginv
            for k2, c2 in tail:
                k = qe + k2
                s = rem.get(k)
                if s is None:
                    rem[k] = -(rc * c2)
                    heappush(heap, -k)
                else:
                    rem[k] = s - rc * c2
        return Polynomial._of(self.ring, quotient)

    def truncate(self, precision: int) -> Polynomial:
        """Drop every term of total degree >= precision."""
        # a key is below precision << degree_shift iff its degree is below precision
        bound = precision << self.ring._degree_shift
        return Polynomial._of(self.ring, {k: c for k, c in self._terms.items() if k < bound})

    # -- display --------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.ring.vars, e) if k
            )
            pieces.append(_format_term(c, mono))
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _format_term(c: CycloElem, mono: str) -> str:
    """Render one term so the result reparses to the same term.

    Rational and single-power-of-z coefficients print bare; anything else is
    parenthesized.  A leading '-' is used by the caller to choose the joiner.
    """
    coeffs = c.coeffs
    nz = [i for i, a in enumerate(coeffs) if a]
    if c.is_rational():
        q = coeffs[0]
        if not mono:
            return str(q)
        if q == 1:
            return mono
        if q == -1:
            return f"-{mono}"
        return f"{q}*{mono}"
    if len(nz) == 1 and abs(coeffs[nz[0]]) == 1:
        k = nz[0]
        zs = "z" if k == 1 else f"z^{k}"
        sign = "-" if coeffs[k] < 0 else ""
        return f"{sign}{zs}*{mono}" if mono else f"{sign}{zs}"
    body = f"({c})"
    return f"{body}*{mono}" if mono else body


def variables_in(ring: PolynomialRing, polys) -> frozenset[str]:
    """The names of the variables that some term of the polynomials `polys`,
    all of `ring`, uses: every packed key is ORed into one integer, whose
    exponent fields are read once, so the cost is one OR per term and one
    pass over the ring's variables in all."""
    used = 0
    for p in polys:
        for k in p._terms:
            used |= k
    return frozenset(v for v, s in zip(ring.vars, ring._shifts) if used >> s & _FIELD_MASK)


def monomial_coprime(polys) -> bool:
    """True iff the given monomials are pairwise coprime (disjoint variable supports).

    Refuses (UndecidableError) if any input is not a single term: general
    polynomial gcd is outside this package's exact scope.
    """
    supports = []
    for p in polys:
        if p.is_zero() or not p.is_monomial():
            raise UndecidableError(
                f"coprimality is only decided for monomials; got {p}"
            )
        (e, _), = p.terms.items()
        supports.append(frozenset(i for i, k in enumerate(e) if k))
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    return True


class Jet:
    """A polynomial truncated below total degree `precision`.

    Arithmetic truncates after each operation; two jets interoperate only at
    equal precision (mixing cutoffs silently would make results meaningless).
    A jet equals what its stored, truncated polynomial equals, and hashes as
    it: an operand is not truncated again, so equality is an equivalence
    that agrees with the hash, and jets storing one polynomial are equal at
    any precision (`JetSpace` equality still tells precisions apart).
    """

    __slots__ = ("poly", "precision")

    def __init__(self, poly: Polynomial, precision: int):
        if precision < 0:
            raise ValueError("jet precision must be nonnegative")
        self.poly = poly.truncate(precision)
        self.precision = precision

    @property
    def ring(self) -> PolynomialRing:
        return self.poly.ring

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def _coerce(self, other) -> Jet | None:
        if isinstance(other, Jet):
            if other.ring != self.ring:
                raise ValueError("jets over different rings")
            if other.precision != self.precision:
                raise ValueError(
                    f"jet precision mismatch: {self.precision} vs {other.precision}"
                )
            return other
        if isinstance(other, Polynomial):
            return Jet(other, self.precision)
        if isinstance(other, (int, Fraction, CycloElem)):
            return Jet(self.ring.scalar(other), self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.poly + o.poly, self.precision)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.poly - o.poly, self.precision)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet(-self.poly, self.precision)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.poly * o.poly, self.precision)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.poly.__eq__(other.poly if isinstance(other, Jet) else other)

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return f"{self.poly} + O(deg {self.precision})"

    def __repr__(self):
        return f"Jet({self.poly}, N={self.precision})"


# -- parser -------------------------------------------------------------------


class PolyParseError(MatfacError):
    """Syntax or semantic error in a polynomial expression; carries the position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_CHARS = set("+-*^()/")
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str | int, int, int]]:
    """Tokens are (kind, value, start, end), with text[start:end] the source
    they were read from; kinds: int, ident, op.  An int token's value is the
    number itself, converted here and nowhere else, so
    a literal longer than the interpreter converts (4,300 digits by default)
    is refused at its position, whether it is a constant, an exponent or a
    denominator.  An opening parenthesis more than `_MAX_NESTING` deep is
    refused here, before the recursive descent starts, so the descent never
    nests deeper: up to the first unmatched closing parenthesis, where the
    descent stops, the count here is its depth."""
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's digit limit
                raise PolyParseError("integer literal too long", i) from None
            tokens.append(("int", value, i, j))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i, j))
            i = j
        elif ch in _TOKEN_CHARS:
            depth += (ch == "(") - (ch == ")")
            if depth > _MAX_NESTING:
                raise PolyParseError("expression nested too deeply", i)
            tokens.append(("op", ch, i, i + 1))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _reads_back(name) -> bool:
    """The tokenizer's rule for ring variable names: `_tokenize` reads the
    name back as one identifier token equal to it, so a printed variable
    parses.  (The ring refuses `z` besides, which parses as the field
    generator.)"""
    try:
        return isinstance(name, str) and _tokenize(name) == [("ident", name, 0, len(name))]
    except PolyParseError:
        return False


class _Parser:
    """Recursive descent over the token list; builds Polynomial values directly."""

    def __init__(self, tokens, ring: PolynomialRing, text: str):
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        self.text = text
        self.text_len = len(text)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", self.text_len)
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self._peek()
        if tok is not None:
            raise PolyParseError(f"unexpected {_quote(self.text[tok[2]:tok[3]])}", tok[2])
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self._next()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self._next()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        negate = False
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self._next()
            negate ^= tok[1] == "-"
        value = self.power()
        return -value if negate else value

    def power(self) -> Polynomial:
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self._next()
            exp_tok = self._peek()
            if exp_tok and exp_tok[0] == "op" and exp_tok[1] == "-":
                raise PolyParseError("negative exponent", exp_tok[2])
            if exp_tok is None or exp_tok[0] != "int":
                raise PolyParseError("expected a nonnegative integer exponent",
                                     exp_tok[2] if exp_tok else self.text_len)
            self._next()
            return base ** exp_tok[1]
        return base

    def atom(self) -> Polynomial:
        tok = self._next()
        kind, value, pos, _ = tok
        if kind == "int":
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self._next()
                den_tok = self._next()
                if den_tok[0] != "int":
                    raise PolyParseError("expected an integer denominator", den_tok[2])
                den = den_tok[1]
                if den == 0:
                    raise PolyParseError("zero denominator", den_tok[2])
                return self.ring.scalar(Fraction(value, den))
            return self.ring.scalar(value)
        if kind == "ident":
            if value == "z":
                return self.ring.scalar(self.ring.field.zeta())
            if value not in self.ring._index:
                raise PolyParseError(f"unknown variable {_quote(value)}", pos)
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            close = self._next()
            if close[0] != "op" or close[1] != ")":
                raise PolyParseError("expected ')'", close[2])
            return inner
        raise PolyParseError(f"unexpected {value!r}", pos)


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse an expression in the grammar described in the module docstring.

    The symbol `z` denotes the generator of the ring's cyclotomic field;
    every other identifier must be a declared ring variable.
    """
    tokens = _tokenize(text)
    return _Parser(tokens, ring, text).parse()
