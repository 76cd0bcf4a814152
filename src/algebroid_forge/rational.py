"""Exact multivariate rational-function arithmetic over the rationals.

Every tensor coefficient in the package is a quotient of multivariate
polynomials with Fraction coefficients over a fixed ordered coordinate
tuple.  Values are immutable and normalized on construction: numerator and
denominator are reduced by their polynomial gcd and the denominator is made
monic under graded-lexicographic order, so equal values have identical
representations (and identical serializations).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DivisionByZero, ParseError, UnknownCoordinate

Monomial = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


class Polynomial:
    """Multivariate polynomial with Fraction coefficients.

    Stored sparsely as a map from exponent tuples to nonzero coefficients.
    The variable tuple is fixed; cross-ring arithmetic is a programming
    error and raises ValueError.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Monomial, Fraction]):
        self.vars = vars
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "Polynomial":
        q = Fraction(value)
        if not q:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): q})

    @classmethod
    def coord(cls, vars: tuple[str, ...], name: str) -> "Polynomial":
        if name not in vars:
            raise UnknownCoordinate(f"unknown coordinate {name!r} (chart has {list(vars)})")
        mono = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {mono: _ONE})

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading(self) -> tuple[Monomial, Fraction]:
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"mixed coordinate rings {self.vars} vs {other.vars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, _ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.vars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.vars)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, _ZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.vars, terms)

    def scale(self, q: Fraction) -> "Polynomial":
        if not q:
            return Polynomial.zero(self.vars)
        return Polynomial(self.vars, {m: c * q for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power on Polynomial")
        result = Polynomial.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self, index: int) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                dm = m[:index] + (e - 1,) + m[index + 1 :]
                s = terms.get(dm, _ZERO) + c * e
                if s:
                    terms[dm] = s
                else:
                    terms.pop(dm, None)
        return Polynomial(self.vars, terms)

    # -- equality / hashing / rendering --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, mono)
                if e
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        head = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + parts[1:])

    __repr__ = __str__


# ---------------------------------------------------------------------------
# polynomial gcd (primitive PRS over Z, recursing on the variable set)
# ---------------------------------------------------------------------------


def _int_content_and_primitive(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """Write p = content * P with P an integer polynomial of content 1.

    The sign convention puts the sign in the content so that P's grlex
    leading coefficient is positive.
    """
    if p.is_zero():
        return _ZERO, p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    numer_gcd = 0
    for c in p.terms.values():
        numer_gcd = math.gcd(numer_gcd, c.numerator * (denom_lcm // c.denominator))
    content = Fraction(numer_gcd, denom_lcm)
    prim = p.scale(1 / content)
    _, lc = prim.leading()
    if lc < 0:
        content = -content
        prim = prim.scale(Fraction(-1))
    return content, prim


def _coeffs_in(p: Polynomial, index: int) -> dict[int, Polynomial]:
    """View p as univariate in vars[index] with Polynomial coefficients."""
    out: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in p.terms.items():
        e = m[index]
        rest = m[:index] + (0,) + m[index + 1 :]
        out.setdefault(e, {})[rest] = c
    return {e: Polynomial(p.vars, t) for e, t in out.items()}


def _deg_in(p: Polynomial, index: int) -> int:
    return max((m[index] for m in p.terms), default=-1)


def _shift(p: Polynomial, index: int, k: int) -> Polynomial:
    return Polynomial(
        p.vars, {m[:index] + (m[index] + k,) + m[index + 1 :]: c for m, c in p.terms.items()}
    )


def _pseudo_rem(a: Polynomial, b: Polynomial, index: int) -> Polynomial:
    """Strict pseudo-remainder lc(b)^(deg a - deg b + 1) * a rem b."""
    db = _deg_in(b, index)
    da = _deg_in(a, index)
    lb = _coeffs_in(b, index)[db]
    r = a
    steps = 0
    dr = da
    while not r.is_zero() and dr >= db:
        lr = _coeffs_in(r, index)[dr]
        r = r * lb - _shift(b * lr, index, dr - db)
        steps += 1
        dr = _deg_in(r, index)
    # pad to the full lc(b)^(da-db+1) factor so subresultant divisions stay exact
    missing = (da - db + 1) - steps
    if missing > 0 and not r.is_zero():
        r = r * lb**missing
    return r


def _content_in(p: Polynomial, index: int) -> Polynomial:
    """Gcd of the coefficients of p viewed as univariate in vars[index].

    Integer contents are ignored (callers strip them separately), so a
    constant running gcd short-circuits to 1.
    """
    coeffs = list(_coeffs_in(p, index).values())
    g = _int_content_and_primitive(coeffs[0])[1]
    for c in coeffs[1:]:
        if g.total_degree() == 0:
            return Polynomial.const(p.vars, 1)
        g = poly_gcd(g, c)
    if g.total_degree() == 0:
        return Polynomial.const(p.vars, 1)
    return g


def _monomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd when at least one argument is a single term."""
    mono = tuple(
        min(min(m[i] for m in p.terms), min(m[i] for m in q.terms))
        for i in range(len(p.vars))
    )
    return Polynomial(p.vars, {mono: _ONE})


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd in Q[x], normalized primitive over Z with positive leading coeff.

    Subresultant PRS recursing on the set of active variables; a single-term
    argument short-circuits to exponent minima.
    """
    if p.is_zero():
        return _int_content_and_primitive(q)[1] if not q.is_zero() else q
    if q.is_zero():
        return _int_content_and_primitive(p)[1]
    p = _int_content_and_primitive(p)[1]
    q = _int_content_and_primitive(q)[1]
    if p == q:
        return p
    if len(p.terms) == 1 or len(q.terms) == 1:
        return _monomial_gcd(p, q)
    used = [
        i
        for i in range(len(p.vars))
        if _deg_in(p, i) > 0 or _deg_in(q, i) > 0
    ]
    if not used:
        a = int(p.constant_value())
        b = int(q.constant_value())
        return Polynomial.const(p.vars, math.gcd(a, b))
    index = used[-1]
    if _deg_in(p, index) == 0 or _deg_in(q, index) == 0:
        # one argument is free of the main variable: gcd divides its content
        if _deg_in(p, index) > 0:
            p, q = q, p
        return poly_gcd(p, _content_in(q, index))
    cp = _content_in(p, index)
    cq = _content_in(q, index)
    d = poly_gcd(cp, cq)
    a = exact_div(p, cp) if not _is_unit(cp) else p
    b = exact_div(q, cq) if not _is_unit(cq) else q
    if _deg_in(a, index) < _deg_in(b, index):
        a, b = b, a
    one = Polynomial.const(p.vars, 1)
    g_prev, h_prev = one, one
    while True:
        delta = _deg_in(a, index) - _deg_in(b, index)
        r = _pseudo_rem(a, b, index)
        if r.is_zero():
            g = b
            break
        divisor = g_prev * h_prev**delta
        a, b = b, (exact_div(r, divisor) if not _is_unit(divisor) else r)
        g_prev = _coeffs_in(a, index)[_deg_in(a, index)]
        if delta > 0:
            h_new = g_prev**delta
            if delta > 1:
                h_new = exact_div(h_new, h_prev ** (delta - 1))
            h_prev = h_new
        if _deg_in(b, index) == 0:
            g = b
            break
    cg = _content_in(g, index)
    g = exact_div(g, cg) if not _is_unit(cg) else g
    if _deg_in(g, index) == 0:
        # the PRS bottomed out in the coefficient ring: cofactors are coprime
        g = one
    g = _int_content_and_primitive(g)[1]
    return _int_content_and_primitive(d * g)[1]


def _is_unit(p: Polynomial) -> bool:
    return p.is_constant() and abs(p.constant_value()) == 1


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact polynomial division; q must divide p."""
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero():
        return p
    qm, qc = q.leading()
    terms: dict[Monomial, Fraction] = {}
    r = p
    while not r.is_zero():
        rm, rc = r.leading()
        m = tuple(a - b for a, b in zip(rm, qm))
        if any(e < 0 for e in m):
            raise ValueError("inexact polynomial division")
        c = rc / qc
        terms[m] = c
        r = r - Polynomial(p.vars, {m: c}) * q
    return Polynomial(p.vars, terms)


# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of Polynomials in normalized canonical form.

    Invariants: the denominator is nonzero and monic under grlex order, the
    gcd of numerator and denominator is 1, and zero is 0/1.  Two values are
    equal iff their representations are equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial, _normalized=False):
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "RationalFunction":
        try:
            return _ZEROS[vars]
        except KeyError:
            zero = _ZEROS[vars] = cls(Polynomial.zero(vars), _unit(vars), _normalized=True)
            return zero

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "RationalFunction":
        try:
            return _ONES[vars]
        except KeyError:
            unit = Polynomial.const(vars, 1)
            one = _ONES[vars] = cls(unit, unit, _normalized=True)
            return one

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "RationalFunction":
        return cls(Polynomial.const(vars, value), _unit(vars), _normalized=True)

    @classmethod
    def coord(cls, vars: tuple[str, ...], name: str) -> "RationalFunction":
        return cls(Polynomial.coord(vars, name), _unit(vars), _normalized=True)

    # -- predicates -----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- field operations -------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise ValueError("mixed coordinate rings")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.vars, other)
        return NotImplemented

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1.is_constant() and d2.is_constant():
            # both denominators are monic constants, hence 1
            return _reduced(self.num + other.num, d1)
        if d1 == d2:
            return RationalFunction(self.num + other.num, d1)
        g = poly_gcd(d1, d2)
        if _is_unit(g):
            return _reduced(self.num * d2 + other.num * d1, d1 * d2)
        d1r = exact_div(d1, g)
        d2r = exact_div(d2, g)
        t = self.num * d2r + other.num * d1r
        if t.is_zero():
            return RationalFunction.zero(self.vars)
        g2 = poly_gcd(t, g)
        if _is_unit(g2):
            return _reduced(t, d1 * d2r)
        return _reduced(exact_div(t, g2), exact_div(d1, g2) * d2r)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not d2.is_constant():
            g = poly_gcd(n1, d2)
            if not _is_unit(g):
                n1, d2 = exact_div(n1, g), exact_div(d2, g)
        if not d1.is_constant():
            g = poly_gcd(n2, d1)
            if not _is_unit(g):
                n2, d1 = exact_div(n2, g), exact_div(d1, g)
        return _reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            return _reduced(self.den ** (-k), self.num ** (-k))
        return _reduced(self.num**k, self.den**k)

    def differentiate(self, coord: str) -> "RationalFunction":
        """Exact partial derivative by coordinate name (quotient rule)."""
        if coord not in self.vars:
            raise UnknownCoordinate(f"unknown coordinate {coord!r}")
        i = self.vars.index(coord)
        d = self.den
        if d.is_constant():
            return _reduced(self.num.derivative(i), d)
        dd = d.derivative(i)
        e = poly_gcd(d, dd)
        u = exact_div(d, e)
        w = exact_div(dd, e)
        num = self.num.derivative(i) * u - self.num * w
        return RationalFunction(num, d * u)

    def subs(
        self, values: Mapping[str, "RationalFunction"], target: tuple[str, ...] | None = None
    ) -> "RationalFunction":
        """Substitute coordinates; unmentioned coordinates map to themselves.

        `target` names the resulting ring (defaults to the common ring of the
        substituted values, or this one).
        """
        if target is None:
            target = next(iter(values.values())).vars if values else self.vars
        image = []
        for v in self.vars:
            if v in values:
                image.append(values[v])
            else:
                image.append(RationalFunction.coord(target, v))
        return _poly_subs(self.num, image, target) / _poly_subs(self.den, image, target)

    # -- equality / rendering -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(self.vars, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self) -> str:
        if self.den == Polynomial.const(self.vars, 1):
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


# One zero and one unit per coordinate tuple, shared by every chart with
# those coordinates: values are immutable.  The package's only module-level
# cache; it grows with the number of distinct charts, not with the work.
_ZEROS: dict[tuple[str, ...], RationalFunction] = {}
_ONES: dict[tuple[str, ...], RationalFunction] = {}


def _unit(vars: tuple[str, ...]) -> Polynomial:
    """The constant polynomial 1, the denominator of every polynomial value."""
    return RationalFunction.one(vars).num


def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return num, _unit(num.vars)
    if not den.is_constant():
        g = poly_gcd(num, den)
        if g.total_degree() > 0 or g.constant_value() != 1:
            num = exact_div(num, g)
            den = exact_div(den, g)
    _, lc = den.leading()
    if lc != 1:
        inv = 1 / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _reduced(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Build a value already known to be in lowest terms (monic-scale only)."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return RationalFunction.zero(num.vars)
    _, lc = den.leading()
    if lc != 1:
        inv = 1 / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return RationalFunction(num, den, _normalized=True)


def _poly_subs(
    p: Polynomial, image: Sequence[RationalFunction], target: tuple[str, ...]
) -> RationalFunction:
    total = RationalFunction.zero(target)
    for m, c in p.terms.items():
        term = RationalFunction.const(target, c)
        for rf, e in zip(image, m):
            if e:
                term = term * rf**e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# expression tokenizer / parser (shared with the .alg structure-file parser)
# ---------------------------------------------------------------------------


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r}, {self.line}:{self.column})"


_PUNCT = {
    "{", "}", "[", "]", "(", ")", ",", ";", "=", ":", "+", "-", "*", "/", "^",
}


def tokenize(text: str) -> list[Token]:
    """Tokenize text into names, integers and punctuation.

    `->` is one token; `#` comments run to end of line.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("arrow", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "a token", ch)
    tokens.append(Token("eof", "", line, col))
    return tokens


class ExpressionParser:
    """Recursive-descent parser for scalar expressions over a chart.

    Grammar: `+ - * / ^` with integer exponents, integer literals and
    coordinate names; standard precedence, `^` binds tightest.  Parentheses
    and prefix signs nest at most MAX_DEPTH deep in total; deeper input is a
    ParseError at the first token past the limit (the recursion would
    otherwise exhaust the interpreter's stack).
    """

    MAX_DEPTH = 100

    def __init__(self, tokens: Sequence[Token], pos: int, vars: tuple[str, ...]):
        self.tokens = tokens
        self.pos = pos
        self.vars = vars
        self.depth = 0

    def _enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            expected = f"at most {self.MAX_DEPTH} nested parentheses or signs"
            raise ParseError(tok.line, tok.column, expected, tok.value)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def parse(self) -> RationalFunction:
        value = self._sum()
        return value

    def _sum(self) -> RationalFunction:
        value = self._product()
        while self.peek().kind in ("+", "-"):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self._product()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def _product(self) -> RationalFunction:
        value = self._factor()
        while self.peek().kind in ("*", "/"):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self._factor()
            if op.kind == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError(op.line, op.column, "a nonzero divisor", "0")
                value = value / rhs
        return value

    def _factor(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self._enter(tok)
            self.pos += 1
            value = self._factor()
            self.depth -= 1
            return -value if tok.kind == "-" else value
        return self._power()

    def _power(self) -> RationalFunction:
        base = self._atom()
        if self.peek().kind == "^":
            self.pos += 1
            sign = 1
            while self.peek().kind in ("+", "-"):
                if self.peek().kind == "-":
                    sign = -sign
                self.pos += 1
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(tok.line, tok.column, "an integer exponent", tok.value)
            self.pos += 1
            exponent = sign * int(tok.value)
            if exponent < 0 and base.is_zero():
                raise ParseError(tok.line, tok.column, "a nonzero base for a negative exponent", "0")
            return base**exponent
        return base

    def _atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "int":
            self.pos += 1
            return RationalFunction.const(self.vars, int(tok.value))
        if tok.kind == "name":
            if tok.value not in self.vars:
                raise ParseError(tok.line, tok.column, f"a coordinate in {list(self.vars)}", tok.value)
            self.pos += 1
            return RationalFunction.coord(self.vars, tok.value)
        if tok.kind == "(":
            self._enter(tok)
            self.pos += 1
            value = self._sum()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError(closing.line, closing.column, "')'", closing.value)
            self.pos += 1
            self.depth -= 1
            return value
        raise ParseError(tok.line, tok.column, "an expression", tok.value or "end of input")


def parse_scalar(text: str, vars: tuple[str, ...]) -> RationalFunction:
    """Parse a standalone expression into a RationalFunction."""
    tokens = tokenize(text)
    parser = ExpressionParser(tokens, 0, vars)
    value = parser.parse()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ParseError(tail.line, tail.column, "end of expression", tail.value)
    return value
