"""Sparse multivariate polynomials over a cyclotomic field, plus jets.

A polynomial is a dict from exponent tuples (aligned with the ring's variable
order) to nonzero CycloElem coefficients.  The canonical term order everywhere
— printing, lead terms, hashing — is graded lexicographic: compare total
degree first, then the exponent tuple itself, with earlier variables weighing
more.  Printing in descending graded-lex gives deterministic output, and the
printer emits exactly the grammar the parser accepts, so print-then-parse is
the identity.

Jets are polynomials truncated below a total-degree bound N.  They stand in
for power-series arithmetic where a genuinely local operation is required
(unit inversion, idempotent splitting); all other identities in the package
are polynomial and exact.

The expression grammar (see `parse_polynomial`): rational literals ``a`` or
``a/b``, the symbol ``z`` for the root of unity of the ring's field, variable
identifiers, ``+ - * ^ ( )``, with ``^`` taking a nonnegative integer literal.
Multiplication is always explicit.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem, CycloField
from .errors import MatfacError, UndecidableError

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


class PolynomialRing:
    """A polynomial ring field[vars] with a fixed variable order."""

    def __init__(self, field: CycloField, variables):
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise ValueError(f"duplicate variable names in {vars_tuple}")
        for v in vars_tuple:
            if not v.isidentifier():
                raise ValueError(f"bad variable name {v!r}")
        self.field = field
        self.vars = vars_tuple
        self._index = {v: i for i, v in enumerate(vars_tuple)}

    def __repr__(self):
        return f"PolynomialRing(Q(zeta_{self.field.m}), {list(self.vars)})"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.vars == self.vars
        )

    def __hash__(self):
        return hash(("PolynomialRing", self.field, self.vars))

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return Polynomial(self, {(0,) * len(self.vars): self.field.one()})

    def scalar(self, c) -> Polynomial:
        """Constant polynomial from a CycloElem, int, or Fraction."""
        if isinstance(c, CycloElem):
            if c.field != self.field:
                raise ValueError("scalar from a different field")
        else:
            c = self.field.rational(c)
        if c.is_zero():
            return self.zero()
        return Polynomial(self, {(0,) * len(self.vars): c})

    def variable(self, name: str) -> Polynomial:
        if name not in self._index:
            raise ValueError(f"unknown variable {name!r} in {self.vars}")
        exps = [0] * len(self.vars)
        exps[self._index[name]] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def monomial(self, exps, coeff=1) -> Polynomial:
        """Monomial from an exponent iterable (aligned with ring.vars) and a coefficient."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if not isinstance(coeff, CycloElem):
            coeff = self.field.rational(coeff)
        if coeff.is_zero():
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)


class Polynomial:
    """Immutable sparse polynomial.  Construct through PolynomialRing methods.

    `terms` maps exponent tuples to nonzero coefficients; constructors strip
    zeros, so the representation is canonical up to dict iteration order.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: dict[Exponents, CycloElem]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._hash = None

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self == self.ring.one()

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> CycloElem:
        zero_exp = (0,) * len(self.ring.vars)
        return self.terms.get(zero_exp, self.ring.field.zero())

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order_of(self) -> int:
        """Min total degree of a term; the order of f in the variable-ideal filtration."""
        if not self.terms:
            raise MatfacError("order of the zero polynomial is undefined")
        return min(sum(e) for e in self.terms)

    def variables_used(self) -> frozenset[str]:
        used = set()
        for e in self.terms:
            for v, k in zip(self.ring.vars, e):
                if k:
                    used.add(v)
        return frozenset(used)

    def lead(self) -> tuple[Exponents, CycloElem]:
        """Lead term under graded-lex; errors on zero."""
        if not self.terms:
            raise MatfacError("lead term of the zero polynomial")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Exponents, CycloElem]]:
        """Terms in descending graded-lex order (the canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

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
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[Exponents, CycloElem] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return Polynomial(self.ring, terms)

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
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0])))
            self._hash = hash((self.ring, items))
        return self._hash

    # -- structural operations ----------------------------------------------

    def reduce_mod_vars(self, kill) -> Polynomial:
        """Set the named variables to zero (drop every term that uses one)."""
        kill = set(kill)
        unknown = kill - set(self.ring.vars)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        idx = [self.ring._index[v] for v in kill]
        return Polynomial(
            self.ring,
            {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)},
        )

    def divexact(self, g: Polynomial) -> Polynomial:
        """Exact quotient self / g; raises MatfacError if the division is not exact.

        Greedy lead-term elimination in graded-lex order.  In a polynomial
        ring over a field this terminates and succeeds exactly when g divides
        self, because lead terms multiply.
        """
        if g.ring != self.ring:
            raise ValueError("polynomials from different rings")
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = self
        qterms: dict[Exponents, CycloElem] = {}
        ge, gc = g.lead()
        while not rem.is_zero():
            re_, rc = rem.lead()
            qe = tuple(a - b for a, b in zip(re_, ge))
            if any(k < 0 for k in qe):
                raise MatfacError(f"not an exact division: remainder lead {re_} vs divisor lead {ge}")
            qc = rc / gc
            qterms[qe] = qc
            rem = rem - Polynomial(self.ring, {qe: qc}) * g
        return Polynomial(self.ring, qterms)

    def truncate(self, precision: int) -> Polynomial:
        """Drop every term of total degree >= precision."""
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if sum(e) < precision}
        )

    def homogeneous_part(self, degree: int) -> Polynomial:
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    # -- display --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
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
    nz = [i for i, a in enumerate(c.coeffs) if a]
    if c.is_rational():
        q = c.coeffs[0]
        if not mono:
            return str(q)
        if q == 1:
            return mono
        if q == -1:
            return f"-{mono}"
        return f"{q}*{mono}"
    if len(nz) == 1 and abs(c.coeffs[nz[0]]) == 1:
        k = nz[0]
        zs = "z" if k == 1 else f"z^{k}"
        sign = "-" if c.coeffs[k] < 0 else ""
        return f"{sign}{zs}*{mono}" if mono else f"{sign}{zs}"
    body = f"({c})"
    return f"{body}*{mono}" if mono else body


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

    def inverse(self) -> Jet:
        """Inverse of a unit jet: geometric series around the constant term."""
        c = self.poly.constant_term()
        if c.is_zero() or self.precision == 0:
            raise MatfacError(f"jet {self} is not a unit; no inverse")
        # self = c*(1 - t) with order(t) >= 1, so 1/self = (1/c)*sum t^k, k < N.
        cinv = c.inverse()
        t = Jet(self.ring.one() - self.poly * cinv, self.precision)
        acc = Jet(self.ring.one(), self.precision)
        power = acc
        for _ in range(1, self.precision):
            power = power * t
            if power.is_zero():
                break
            acc = acc + power
        return acc * cinv

    def __eq__(self, other):
        if not isinstance(other, Jet):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return (
            self.ring == other.ring
            and self.precision == other.precision
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.poly, self.precision))

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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens are (kind, value, position); kinds: int, ident, op."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent over the token list; builds Polynomial values directly."""

    def __init__(self, tokens, ring: PolynomialRing, text_len: int):
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        self.text_len = text_len

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
            raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])
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
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self._next()
            value = self.factor()
            return -value if tok[1] == "-" else value
        return self.power()

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
            return base ** int(exp_tok[1])
        return base

    def atom(self) -> Polynomial:
        tok = self._next()
        kind, value, pos = tok
        if kind == "int":
            num = int(value)
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self._next()
                den_tok = self._next()
                if den_tok[0] != "int":
                    raise PolyParseError("expected an integer denominator", den_tok[2])
                den = int(den_tok[1])
                if den == 0:
                    raise PolyParseError("zero denominator", den_tok[2])
                return self.ring.scalar(Fraction(num, den))
            return self.ring.scalar(num)
        if kind == "ident":
            if value == "z":
                return self.ring.scalar(self.ring.field.zeta())
            if value not in self.ring._index:
                raise PolyParseError(f"unknown variable {value!r}", pos)
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
    if "z" in ring.vars:
        raise ValueError("'z' is reserved for the root of unity and cannot be a variable")
    tokens = _tokenize(text)
    return _Parser(tokens, ring, len(text)).parse()
