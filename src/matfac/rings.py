"""Sparse multivariate polynomials over a cyclotomic field, plus jets.

A polynomial is a dict from exponent tuples (aligned with the ring's variable
order) to nonzero CycloElem coefficients.  The canonical term order everywhere
— printing, lead terms, hashing — is graded lexicographic: compare total
degree first, then the exponent tuple itself, with earlier variables weighing
more.  Printing in descending graded-lex gives deterministic output, and the
printer emits exactly the grammar the parser accepts, so print-then-parse is
the identity.

The kernels under every determinant (products, sums and differences, exact
division) cost what their output costs.  A product with a one-term operand
shifts the other operand's exponents and scales its coefficients, in that
operand's own order, with no accumulation (Q(zeta_m) is a field, so no
product of nonzeros is zero) and no coefficient product at all when the one
term's coefficient is one.  A sum or a difference is one pass over the
second operand's terms into a copy of the first's, dropping each term that
cancels.  Exact division is heap-ordered sparse division (Johnson, "Sparse
polynomial arithmetic", SIGSAM Bull. 8(3), 1974; Monagan and Pearce, CASC
2007): the remainder is one dict updated in place, its exponents sit in a
heap in descending graded-lex order, and each quotient term subtracts only
the divisor's non-lead terms.  Results keep the key order of the plain
double loop and of greedy division.

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

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from .cyclo import CycloElem, CycloField
from .errors import MatfacError, UndecidableError, _quote

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _descending(exps: Exponents) -> tuple[int, Exponents, Exponents]:
    """Heap entry for exps: the smallest entry has the largest `grlex_key`
    (negating every component reverses both comparisons); exps rides last."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


class PolynomialRing:
    """A polynomial ring field[vars] with a fixed variable order."""

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

    `terms` maps exponent tuples to nonzero coefficients; the constructor
    strips zeros, and the kernels that know their terms are nonzero build
    through `_of`, so the representation is canonical up to dict iteration
    order.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict[Exponents, CycloElem]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, ring: PolynomialRing, terms: dict[Exponents, CycloElem]) -> Polynomial:
        """The polynomial whose terms are `terms`, kept as given, which the
        caller guarantees hold no zero coefficient; built without `__init__`."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

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
            if s is None:
                terms[e] = c
            elif (s := s + c).is_zero():
                del terms[e]
            else:
                terms[e] = s
        return Polynomial._of(self.ring, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = -c
            elif (s := s - c).is_zero():
                del terms[e]
            else:
                terms[e] = s
        return Polynomial._of(self.ring, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Polynomial._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) == 1 and (len(b) != 1 or not next(iter(b.values())).is_one()):
            a, b = b, a
        if len(b) == 1:
            # shift and scale a's terms, in their order, by b's one term (of
            # coefficient one if either operand's is); c != 0 in a field, so
            # no product is zero
            ((shift, c),) = b.items()
            if c.is_one():
                return Polynomial._of(self.ring, {tuple(map(add, e, shift)): d
                                                  for e, d in a.items()})
            return Polynomial._of(self.ring, {tuple(map(add, e, shift)): d * c
                                              for e, d in a.items()})
        terms: dict[Exponents, CycloElem] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
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
            if isinstance(other, CycloElem) and other.field != self.ring.field:
                return False
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # a constant equals its coefficient (`__eq__` coerces scalars), so it
        # hashes as one
        if self.total_degree() <= 0:
            return hash(self.constant_term())
        items = tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0])))
        return hash((self.ring, items))

    # -- structural operations ----------------------------------------------

    def reduce_mod_vars(self, kill) -> Polynomial:
        """Set the named variables to zero (drop every term that uses one)."""
        kill = set(kill)
        unknown = kill - set(self.ring.vars)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        idx = [self.ring._index[v] for v in kill]
        return Polynomial._of(
            self.ring,
            {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)},
        )

    def divexact(self, g: Polynomial) -> Polynomial:
        """Exact quotient self / g; raises MatfacError if the division is not exact.

        Greedy lead-term elimination in graded-lex order: while the remainder
        r is nonzero, the next quotient term is lead(r) / lead(g), and r loses
        that term times g.  In a polynomial ring over a field this terminates
        and succeeds exactly when g divides self, because lead terms multiply:
        if g divides r, lead(g) divides lead(r), and r minus a multiple of g
        is again a multiple of g with a smaller lead.

        The remainder is one dict updated in place, and a heap holds its
        exponents in descending graded-lex order (Johnson 1974; Monagan and
        Pearce, CASC 2007), with g's lead coefficient inverted once.  A term
        that cancels leaves the dict and its heap entry is skipped when popped
        (lazy deletion); a term is pushed each time it enters the dict.  Each
        quotient term removes the remainder's lead, which cancels exactly, and
        subtracts its multiple of g's non-lead terms, so a monomial divisor
        subtracts nothing.  The remainder passes through the same states as
        in the greedy loop: quotient terms come out in descending graded-lex
        order, and a failing division names the same leads.
        """
        if g.ring != self.ring:
            raise ValueError("polynomials from different rings")
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ge, gc = g.lead()
        ginv = gc.inverse()
        tail = [(e, c) for e, c in g.terms.items() if e != ge]
        rem = dict(self.terms)
        heap = [_descending(e) for e in rem]
        heapify(heap)
        quotient: dict[Exponents, CycloElem] = {}
        while heap:
            re_ = heappop(heap)[2]
            rc = rem.pop(re_, None)
            if rc is None:  # stale: the term left the dict after this push
                continue
            qe = tuple(map(sub, re_, ge))
            if any(k < 0 for k in qe):
                raise MatfacError(f"not an exact division: remainder lead {re_} vs divisor lead {ge}")
            qc = rc * ginv
            quotient[qe] = qc
            for e2, c2 in tail:
                e = tuple(map(add, qe, e2))
                t = qc * c2
                s = rem.get(e)
                if s is None:
                    rem[e] = -t
                    heappush(heap, _descending(e))
                elif (s := s - t).is_zero():
                    del rem[e]
                else:
                    rem[e] = s
        return Polynomial._of(self.ring, quotient)

    def truncate(self, precision: int) -> Polynomial:
        """Drop every term of total degree >= precision."""
        return Polynomial._of(
            self.ring, {e: c for e, c in self.terms.items() if sum(e) < precision}
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
