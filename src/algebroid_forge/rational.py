"""Exact multivariate rational-function arithmetic over the rationals.

Every tensor coefficient in the package is a quotient of multivariate
polynomials over a fixed ordered coordinate tuple.  A polynomial is held
fraction-free: a rational content, kept as a reduced pair of ints, times a
primitive part with integer coefficients of gcd 1 and a positive leading
coefficient.  Each monomial of
the primitive part is one int, packed in fields of FIELD_BITS bits: the
total degree in the top field, then the exponents of x1, x2, ... going
down.  Integer order is then graded-lexicographic (grlex) order, a monomial
product is one integer add, and by Gauss's lemma a product of polynomials
is the product of the contents times the product of the primitive parts.
Total degrees are at most MAX_DEGREE, so a field never overflows into the
next; a product beyond it raises DegreeOverflow.  A product of t1 and t2
terms has at most t1 * t2 terms, and one whose bound exceeds MAX_TERMS raises
TermOverflow before it is expanded, so each product does bounded work.

Rational scalars (a content, a constant, a scale factor) come in as any
number whose ``numerator`` and ``denominator`` are ints, such as an int or a
``fractions.Fraction``; ``content``, ``terms`` and ``constant_value`` hand
Fractions back.

Values are immutable and normalized on construction: numerator and
denominator are coprime and the denominator is made monic under grlex
order, so equal values have identical representations (and identical
serializations).  Beside its expansion, a value holds its denominator
factored as prod f^e: the f primitive and pairwise coprime, each a
coordinate or divisible by none.  A sum, difference, product or partial
derivative reads the shape of its operands' denominators from that form
once:

- the unit (no factors): every constant denominator is one interned
  object per coordinate tuple, so two polynomial values combine by one
  Polynomial operation, with no denominator arithmetic;
- anything else (a factored denominator, such as x1^2 or (c + a*x1)^k):
  an lcm takes exponent maxima and a product adds exponents, and a
  numerator is reduced factor by factor: by trial division against a
  factor of total degree 1, a coordinate among them, which is complete
  because such a factor is irreducible, and through poly_gcd only against
  a nonlinear one.  Distinct nonlinear factors with a common divisor are
  refined to a coprime set.

poly_gcd tries in order: the trivial shapes (zero, equal or single-term
arguments), the variable support, trial division, and GCDHEU, each step
proving its answer.  GCDHEU is the only gcd algorithm.  It tries at most
GCD_POINTS evaluation points per variable, so a gcd does bounded work;
when they all fail, poly_gcd raises GcdGiveUp, a ForgeError, as a product
past MAX_TERMS raises TermOverflow.  It is the one entry for a gcd of two
multi-term polynomials.

A sum built term by term need not be reduced term by term: term_product
keeps a product with a factored-denominator factor as its unreduced
numerator over the product of the factored denominators, and fraction_sum
brings a list of terms to the lcm of their denominators, by exponent
maxima, and reduces it once.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import DegreeOverflow, DivisionByZero, GcdGiveUp, ParseError, TermOverflow, UnknownCoordinate, clip

Monomial = tuple[int, ...]

# Bits per packed monomial field.  The top bit of each field stays clear in
# every stored monomial: it is the guard bit of the divisibility test in
# _divide, and it bounds every exponent and total degree by MAX_DEGREE.
FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

# The most terms a polynomial product may have by its bound t1 * t2, and a
# parsed power by its bound C(n + t - 1, t - 1): one product then takes at
# most MAX_TERMS coefficient multiplications.
MAX_TERMS = 10**5

# The evaluation points GCDHEU tries before poly_gcd gives up with GcdGiveUp.
GCD_POINTS = 6


def _pack(mono: Monomial) -> int:
    key = sum(mono)
    for e in mono:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int, n: int) -> Monomial:
    return tuple((key >> (FIELD_BITS * (n - 1 - i))) & _FIELD_MASK for i in range(n))


def _var_key(n: int, index: int) -> int:
    """The packed monomial of the coordinate vars[index] in n variables."""
    return (1 << (FIELD_BITS * (n - 1 - index))) | (1 << (FIELD_BITS * n))


def _exponent_shift(n: int, index: int) -> int:
    return FIELD_BITS * (n - 1 - index)


def _guards(n: int) -> int:
    """The guard bits of all n + 1 fields (a repunit in base 2**FIELD_BITS)."""
    return ((1 << (FIELD_BITS * (n + 1))) - 1) // _FIELD_MASK << (FIELD_BITS - 1)


def _ratio(q) -> tuple[int, int]:
    """An exact rational scalar as a reduced (numerator, denominator > 0) pair."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return num, 1
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def _is_rational(x) -> bool:
    """Whether x is a rational scalar: its numerator and denominator are ints."""
    num, den = getattr(x, "numerator", None), getattr(x, "denominator", None)
    return isinstance(num, int) and isinstance(den, int)


def _qmul(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) * (n2/d2) reduced, for reduced pairs with positive denominators."""
    if d1 == d2 == 1:
        return n1 * n2, 1
    g1 = math.gcd(n1, d2)
    g2 = math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _qdiv(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) / (n2/d2) reduced, for reduced pairs with n2 nonzero."""
    return _qmul(n1, d1, d2, n2) if n2 > 0 else _qmul(n1, d1, -d2, -n2)


def _canonical(num: int, den: int, coeffs: dict[int, int]) -> tuple[int, int, dict[int, int]]:
    """Write (num/den) * coeffs, den > 0 and coeffs nonzero, as the content
    pair and the primitive part."""
    g = math.gcd(*coeffs.values())
    if coeffs[max(coeffs)] < 0:
        g = -g
    if g != 1:
        coeffs = {k: c // g for k, c in coeffs.items()}
        num *= g
    if den != 1:
        r = math.gcd(num, den)
        if r != 1:
            num, den = num // r, den // r
    return num, den, coeffs


def _fraction(num: int, den: int):
    """num/den as a Fraction, for the accessors that hand rationals out."""
    from fractions import Fraction

    return Fraction(num, den)


class Polynomial:
    """Multivariate polynomial over Q, stored as content * primitive part.

    The content is cnum/cden, a reduced pair of ints with cden > 0 that
    carries the sign (0/1 for the zero polynomial); ``content`` reads it as a
    Fraction.  `prim` maps packed monomials to int coefficients of gcd 1
    whose grlex-leading one is positive (empty for zero).  None of them is
    mutated after construction.  `terms` is the read-only {exponent tuple:
    Fraction} view.  The variable tuple is fixed; cross-ring arithmetic is a
    programming error and raises ValueError.
    """

    __slots__ = ("vars", "cnum", "cden", "prim", "_hash")

    def __init__(self, vars: tuple[str, ...], terms: dict[Monomial, object]):
        n = len(vars)
        pairs = {}
        for mono, c in terms.items():
            if not c:
                continue
            if len(mono) != n or min(mono, default=0) < 0:
                raise ValueError(f"bad exponent tuple {mono} for coordinates {vars}")
            if sum(mono) > MAX_DEGREE:
                raise DegreeOverflow(sum(mono), MAX_DEGREE)
            pairs[_pack(mono)] = _ratio(c)
        self.vars = vars
        self._hash = None
        if not pairs:
            self.cnum, self.cden, self.prim = 0, 1, {}
            return
        den = math.lcm(*(d for _, d in pairs.values()))
        ints = {k: c * (den // d) for k, (c, d) in pairs.items()}
        self.cnum, self.cden, self.prim = _canonical(1, den, ints)

    @classmethod
    def _make(cls, vars: tuple[str, ...], cnum: int, cden: int, prim: dict[int, int]) -> "Polynomial":
        """Wrap parts already in canonical form."""
        p = object.__new__(cls)
        p.vars = vars
        p.cnum = cnum
        p.cden = cden
        p.prim = prim
        p._hash = None
        return p

    @classmethod
    def _from_ints(cls, vars, num: int, den: int, coeffs: dict[int, int]) -> "Polynomial":
        """The polynomial (num/den) * coeffs, for nonzero int coefficients."""
        if not coeffs:
            return cls.zero(vars)
        return cls._make(vars, *_canonical(num, den, coeffs))

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Polynomial":
        return cls._make(vars, 0, 1, {})

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "Polynomial":
        num, den = _ratio(value)
        if not num:
            return cls.zero(vars)
        return cls._make(vars, num, den, {0: 1})

    @classmethod
    def coord(cls, vars: tuple[str, ...], name: str) -> "Polynomial":
        if name not in vars:
            raise UnknownCoordinate(f"unknown coordinate {clip(name)!r} (chart has {list(vars)})")
        return cls._make(vars, 1, 1, {_var_key(len(vars), vars.index(name)): 1})

    @property
    def content(self):
        """The content as a Fraction."""
        return _fraction(self.cnum, self.cden)

    @property
    def terms(self) -> MappingProxyType:
        n, content = len(self.vars), self.content
        return MappingProxyType({_unpack(k, n): content * c for k, c in self.prim.items()})

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.prim

    def is_constant(self) -> bool:
        prim = self.prim
        return not prim or (len(prim) == 1 and 0 in prim)

    def constant_value(self):
        """The constant term as a Fraction (the value, for a constant polynomial)."""
        c = self.prim.get(0, 0)
        return _fraction(self.cnum * c, self.cden)

    def total_degree(self) -> int:
        if not self.prim:
            return 0
        return max(self.prim) >> (FIELD_BITS * len(self.vars))

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"mixed coordinate rings {self.vars} vs {other.vars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not other.prim:
            return self
        if not self.prim:
            return other
        # c1*P1 + c2*P2 = (g/l) * (a1*P1 + a2*P2) with integer a1, a2
        n1, d1 = self.cnum, self.cden
        n2, d2 = other.cnum, other.cden
        g = math.gcd(n1, n2)
        l = d1 // math.gcd(d1, d2) * d2
        a1 = n1 // g * (l // d1)
        a2 = n2 // g * (l // d2)
        terms = dict(self.prim) if a1 == 1 else {k: a1 * c for k, c in self.prim.items()}
        get = terms.get
        for k, c in other.prim.items():
            s = get(k, 0) + a2 * c
            if s:
                terms[k] = s
            else:
                del terms[k]
        return Polynomial._from_ints(self.vars, g, l, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.vars, -self.cnum, self.cden, self.prim)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p, q = self.prim, other.prim
        if not p:
            return self
        if not q:
            return other
        top = FIELD_BITS * len(self.vars)
        degree = (max(p) >> top) + (max(q) >> top)
        if degree > MAX_DEGREE:
            raise DegreeOverflow(degree, MAX_DEGREE)
        if len(p) * len(q) > MAX_TERMS:
            raise TermOverflow(len(p) * len(q), MAX_TERMS)
        if len(p) < len(q):
            p, q = q, p
        if len(q) == 1:
            # a primitive single term is a monomial with coefficient 1
            (shift,) = q
            terms = {k + shift: c for k, c in p.items()} if shift else p
        else:
            terms = {}
            get = terms.get
            for k2, c2 in q.items():
                for k1, c1 in p.items():
                    k = k1 + k2
                    terms[k] = get(k, 0) + c1 * c2
            if not all(terms.values()):
                terms = {k: c for k, c in terms.items() if c}
        return Polynomial._make(self.vars, *_qmul(self.cnum, self.cden, other.cnum, other.cden), terms)

    def scale(self, q) -> "Polynomial":
        """self * q for a rational scalar q."""
        num, den = _ratio(q)
        if not num:
            return Polynomial.zero(self.vars)
        if not self.prim:
            return self
        return Polynomial._make(self.vars, *_qmul(self.cnum, self.cden, num, den), self.prim)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power on Polynomial")
        # bounded as a whole, so an overflow names the power's own degree
        # and not that of a square on the way to it
        if self.total_degree() * k > MAX_DEGREE:
            raise DegreeOverflow(self.total_degree() * k, MAX_DEGREE)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.const(self.vars, 1) if result is None else result

    def derivative(self, index: int) -> "Polynomial":
        n = len(self.vars)
        shift = _exponent_shift(n, index)
        step = _var_key(n, index)
        # k -> k - step is injective, so no two terms meet
        terms = {}
        for k, c in self.prim.items():
            e = (k >> shift) & _FIELD_MASK
            if e:
                terms[k - step] = c * e
        return Polynomial._from_ints(self.vars, self.cnum, self.cden, terms)

    # -- equality / hashing / rendering --------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.cnum == other.cnum
            and self.cden == other.cden
            and self.prim == other.prim
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vars, self.cnum, self.cden, frozenset(self.prim.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.prim:
            return "0"
        n, cnum, cden = len(self.vars), self.cnum, self.cden
        parts = []
        for key in sorted(self.prim, reverse=True):
            c = cnum * self.prim[key]
            g = math.gcd(c, cden)
            coeff = str(abs(c) // g) if g == cden else f"{abs(c) // g}/{cden // g}"
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, _unpack(key, n))
                if e
            ]
            if not factors:
                body = coeff
            elif coeff == "1":
                body = "*".join(factors)
            else:
                body = "*".join([coeff] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + parts[1:])

    __repr__ = __str__


# ---------------------------------------------------------------------------
# division and gcd on primitive parts (packed int-coefficient dicts)
# ---------------------------------------------------------------------------


def _divide(f: dict[int, int], h: dict[int, int], n: int) -> dict[int, int] | None:
    """The quotient f / h in Z[x] if h divides f there, else None.

    A leading monomial rk is divisible by hk iff every field of rk is at
    least that of hk, that is iff subtracting hk from rk with all guard bits
    set clears none of them.
    """
    hk = max(h)
    if hk > max(f):
        return None
    hc = h[hk]
    guards = _guards(n)
    if len(h) == 1:
        quotient = {}
        for k, c in f.items():
            c, rem = divmod(c, hc)
            if rem or ((k | guards) - hk) & guards != guards:
                return None
            quotient[k - hk] = c
        return quotient
    rest = [(k, c) for k, c in h.items() if k != hk]
    r = dict(f)
    quotient = {}
    while r:
        rk = max(r)
        if ((rk | guards) - hk) & guards != guards:
            return None
        c, rem = divmod(r.pop(rk), hc)
        if rem:
            return None
        mk = rk - hk
        quotient[mk] = c
        get = r.get
        for k, ck in rest:
            k += mk
            v = get(k, 0) - c * ck
            if v:
                r[k] = v
            else:
                del r[k]
    return quotient


def _evaluate(f: dict[int, int], shift: int, step: int, x: int) -> dict[int, int]:
    """f with the variable at `shift` (monomial `step`) set to the integer x."""
    out: dict[int, int] = {}
    powers = [1]
    for k, c in f.items():
        e = (k >> shift) & _FIELD_MASK
        if e:
            while len(powers) <= e:
                powers.append(powers[-1] * x)
            k -= e * step
            c *= powers[e]
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _interpolate(h: dict[int, int], x: int, step: int, limit: int) -> dict[int, int] | None:
    """Read h's coefficients as base-x numbers with symmetric digits, the
    i-th digit being the coefficient of (monomial `step`)^i.

    None when the degree in that variable would exceed `limit`: such a
    candidate cannot divide the inputs.
    """
    out: dict[int, int] = {}
    half = x // 2
    i = 0
    while h:
        if i > limit:
            return None
        high = {}
        for k, c in h.items():
            digit = c % x
            if digit > half:
                digit -= x
            if digit:
                out[k + i * step] = digit
            c = (c - digit) // x
            if c:
                high[k] = c
        h = high
        i += 1
    return out


def _primitive_ints(f: dict[int, int]) -> dict[int, int]:
    """f divided by its integer content, with a positive leading coefficient."""
    return _canonical(1, 1, f)[2]


def _heu_gcd(f: dict[int, int], g: dict[int, int], active: range, n: int):
    """GCDHEU of nonzero integer polynomials in the variables `active`.

    Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989).
    Evaluate the first variable of `active` that occurs at an integer x,
    recurse on the rest (down to an integer gcd), interpolate the gcd and
    the cofactors back with symmetric residues, and keep a candidate only
    if trial division proves it.  Returns (h, f / h, g / h) with h the gcd
    in Z[x], or None when GCD_POINTS evaluation points all fail.
    """
    for at, index in enumerate(active):
        shift = _exponent_shift(n, index)
        df = max((k >> shift) & _FIELD_MASK for k in f)
        dg = max((k >> shift) & _FIELD_MASK for k in g)
        if df or dg:
            break
    else:  # both are integers
        a, b = f[0], g[0]
        h = math.gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    rest = active[at + 1 :]
    step = _var_key(n, index)
    ground = math.gcd(*f.values(), *g.values())
    if ground != 1:
        f = {k: c // ground for k, c in f.items()}
        g = {k: c // ground for k, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4,
    )
    for _ in range(GCD_POINTS):
        ff = _evaluate(f, shift, step, x)
        gg = _evaluate(g, shift, step, x)
        if ff and gg:
            inner = _heu_gcd(ff, gg, rest, n)
            if inner is None:
                return None
            h, cff, cfg = inner
            h = _interpolate(h, x, step, min(df, dg))
            if h is not None:
                h = _primitive_ints(h)
                cff_ = _divide(f, h, n)
                cfg_ = _divide(g, h, n) if cff_ is not None else None
                if cfg_ is not None:
                    return _times(h, ground), cff_, cfg_
            cff = _interpolate(cff, x, step, df)
            h = _divide(f, cff, n) if cff is not None else None
            cfg_ = _divide(g, h, n) if h is not None else None
            if cfg_ is not None:
                return _leading_positive(_times(h, ground), cff, cfg_)
            cfg = _interpolate(cfg, x, step, dg)
            h = _divide(g, cfg, n) if cfg is not None else None
            cff_ = _divide(f, h, n) if h is not None else None
            if cff_ is not None:
                return _leading_positive(_times(h, ground), cff_, cfg)
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _times(f: dict[int, int], c: int) -> dict[int, int]:
    return f if c == 1 else {k: c * v for k, v in f.items()}


def _leading_positive(h, cff, cfg):
    """(h, cff, cfg), all negated when h found from a cofactor leads negatively."""
    return (h, cff, cfg) if h[max(h)] > 0 else tuple(_times(f, -1) for f in (h, cff, cfg))


def _monomial_gcd_key(prim: dict[int, int], key: int, n: int) -> int:
    """The packed key of gcd(p, x^key) for p with primitive part ``prim``."""
    g = total = 0
    for index, e in enumerate(_unpack(key, n)):
        if e:
            shift = _exponent_shift(n, index)
            for k in prim:
                e = min(e, (k >> shift) & _FIELD_MASK)
                if not e:
                    break
            g |= e << shift
            total += e
    return g | total << (FIELD_BITS * n)


def _monomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd when at least one argument is a single term: exponent minima."""
    if len(q.prim) != 1:
        p, q = q, p
    (key,) = q.prim
    return Polynomial._make(p.vars, 1, 1, {_monomial_gcd_key(p.prim, key, len(p.vars)): 1})


def _coprime_by_support(f: dict[int, int], g: dict[int, int], n: int) -> bool:
    """Whether the support argument proves gcd(f, g) = 1.

    Let Y be the variables that occur in f but not in g.  The gcd divides g,
    so it is free of Y, and so it divides every coefficient of f viewed as a
    polynomial in Y.  When one such coefficient is a nonzero constant (a
    term of f with no exponent outside Y, alone in its Y-monomial), the gcd
    is 1.  Tried both ways round.
    """
    fields = [_FIELD_MASK << _exponent_shift(n, i) for i in range(n)]
    used_f = used_g = 0
    for k in f:
        used_f |= k
    for k in g:
        used_g |= k
    for a, used_a, used_b in ((f, used_f, used_g), (g, used_g, used_f)):
        y = sum(m for m in fields if used_a & m and not used_b & m)
        if y:
            rest = sum(fields) ^ y
            pure = {k & y for k in a if not k & rest}
            pure.difference_update(k & y for k in a if k & rest)
            if pure:
                return True
    return False


def _primitive(p: Polynomial) -> Polynomial:
    """P in p = content * P: an integer polynomial of content 1 and a
    positive grlex leading coefficient (the sign goes to the content)."""
    return Polynomial._make(p.vars, 1 if p.prim else 0, 1, p.prim)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd in Q[x], normalized primitive over Z with positive leading coeff.

    Tried in order on the primitive parts, each step proving its answer:
    the trivial shapes (a zero or equal argument; a single-term argument
    gives exponent minima), the variable support (_coprime_by_support
    proves the gcd is 1), trial division (the part with the smaller grlex
    leading monomial is the gcd when it divides the other), and GCDHEU,
    whose candidate is the gcd when trial division shows it divides both.
    GCDHEU tries at most GCD_POINTS evaluation points per variable; when
    none yields a candidate, poly_gcd raises GcdGiveUp, a ForgeError.
    There is no fallback.
    """
    p._check(q)
    if not p.prim:
        return _primitive(q)
    if not q.prim:
        return _primitive(p)
    if p.prim == q.prim:
        return _primitive(p)
    if len(p.prim) == 1 or len(q.prim) == 1:
        return _monomial_gcd(p, q)
    n = len(p.vars)
    if _coprime_by_support(p.prim, q.prim, n):
        return Polynomial._make(p.vars, 1, 1, {0: 1})
    a, b = (p.prim, q.prim) if max(p.prim) <= max(q.prim) else (q.prim, p.prim)
    if _divide(b, a, n) is not None:
        return Polynomial._make(p.vars, 1, 1, a)
    found = _heu_gcd(p.prim, q.prim, range(n), n)
    if found is None:
        raise GcdGiveUp(f"no polynomial gcd within {GCD_POINTS} evaluation points")
    return Polynomial._make(p.vars, 1, 1, _primitive_ints(found[0]))


# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of Polynomials in normalized canonical form.

    Invariants: the denominator is nonzero and monic under grlex order, the
    gcd of numerator and denominator is 1, and zero is 0/1.  Two values are
    equal iff their representations are equal.  Beside ``den`` a value
    holds it factored, as the pairs (f, e) of ``factors`` (see the section
    on factored denominators): the unit has none.  ``num``, ``den`` and so
    equality, hashing and rendering never read the factored form.
    """

    __slots__ = ("num", "den", "factors", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial):
        """num / den in lowest terms."""
        if not den.prim:
            raise DivisionByZero("zero denominator")
        if num.prim:
            value = _settle(_by_content(num, den), _split(den))
        else:
            value = RationalFunction.zero(num.vars)
        self.num, self.den, self.factors = value.num, value.den, value.factors
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial, factors: tuple = ()) -> "RationalFunction":
        """Wrap parts already in lowest terms and canonical form, den factored
        as prod f^e over ``factors``."""
        v = object.__new__(cls)
        v.num = num
        v.den = den
        v.factors = factors
        v._hash = None
        return v

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "RationalFunction":
        try:
            return _ZEROS[vars]
        except KeyError:
            zero = _ZEROS[vars] = cls._make(Polynomial.zero(vars), _unit(vars))
            return zero

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "RationalFunction":
        try:
            return _ONES[vars]
        except KeyError:
            unit = Polynomial.const(vars, 1)
            one = _ONES[vars] = cls._make(unit, unit)
            return one

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "RationalFunction":
        return cls._make(Polynomial.const(vars, value), _unit(vars))

    @classmethod
    def coord(cls, vars: tuple[str, ...], name: str) -> "RationalFunction":
        return cls._make(Polynomial.coord(vars, name), _unit(vars))

    # -- predicates -----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        """The value of a constant as a Fraction."""
        return self.num.constant_value() / self.den.constant_value()

    # -- field operations -------------------------------------------------------
    # Each reads its operands' denominator shapes from factors once: the
    # unit (none) or a factored denominator.

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise ValueError("mixed coordinate rings")
            return other
        if _is_rational(other):
            return RationalFunction.const(self.vars, other)
        return NotImplemented

    def __add__(self, other) -> "RationalFunction":
        if other.__class__ is not RationalFunction or other.num.vars is not self.num.vars:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if not n2.prim:
            return self
        if not n1.prim:
            return other
        if self.factors or other.factors:
            return _common_sum((self, other))
        t = n1 + n2
        return RationalFunction._make(t, self.den) if t.prim else RationalFunction.zero(n1.vars)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._make(-self.num, self.den, self.factors)

    def __sub__(self, other) -> "RationalFunction":
        if other.__class__ is not RationalFunction or other.num.vars is not self.num.vars:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        if other.__class__ is not RationalFunction or other.num.vars is not self.num.vars:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if not other.factors and n2.is_constant():
            return self._scaled(other)
        if not self.factors and n1.is_constant():
            return other._scaled(self)
        if self.factors or other.factors:
            return _general_product(self, other)
        return RationalFunction._make(n1 * n2, self.den)

    __rmul__ = __mul__

    def _scaled(self, c: "RationalFunction") -> "RationalFunction":
        """self * c for a constant c: the zero operand if either is zero, the
        other operand if either is 1, else (c * num) / den.  A nonzero
        constant is a unit, so that quotient is in lowest terms and den stays
        monic."""
        k, num = c.num, self.num
        if not k.prim:
            return c
        if not num.prim or k.cnum == k.cden == 1:
            return self
        if num.cnum == num.cden == 1 and self.is_constant():
            return c
        scaled = Polynomial._make(num.vars, *_qmul(num.cnum, num.cden, k.cnum, k.cden), num.prim)
        return RationalFunction._make(scaled, self.den, self.factors)

    def _reciprocal(self) -> "RationalFunction":
        """1 / self for nonzero self: den over num, whose factors come in as
        _split reads them; a value in lowest terms stays so."""
        return _build(_by_content(self.den, self.num), _split(self.num))

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * other._reciprocal()

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            return self._reciprocal() ** -k
        if not k:
            return RationalFunction.one(self.vars)
        # a power of a value in lowest terms is in lowest terms
        if self.factors:
            factors = tuple((f, e * k) for f, e in self.factors)
            return RationalFunction._make(self.num**k, self.den**k, factors)
        return RationalFunction._make(self.num**k, self.den)

    def differentiate(self, coord: str) -> "RationalFunction":
        """Exact partial derivative by coordinate name (quotient rule)."""
        if coord not in self.vars:
            raise UnknownCoordinate(f"unknown coordinate {clip(coord)!r}")
        n = self.num
        i = n.vars.index(coord)
        if self.factors:
            return _general_derivative(self, i)
        dn = n.derivative(i)
        return RationalFunction._make(dn, self.den) if dn.prim else RationalFunction.zero(n.vars)

    def subs(
        self, values: dict[str, "RationalFunction"], target: tuple[str, ...] | None = None
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
        if not isinstance(other, RationalFunction):
            if not _is_rational(other):
                return NotImplemented
            other = RationalFunction.const(self.vars, other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        num = str(self.num)
        if len(self.num.prim) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.prim) > 1 or "*" in den:
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


# -- factored denominators -----------------------------------------------------
# A denominator other than the unit is held, beside its expansion, as
# prod f^e over ``factors``, a tuple of pairs (f, e): each f a primitive
# Polynomial with a positive leading coefficient, not constant, either a
# coordinate or divisible by none, and the f pairwise coprime (the module
# docstring says how each operation uses them).  Their product P leads with
# lc(P) = prod lc(f)^e, and den = P / lc(P).  Inside an operation a value
# num/den is carried as its numerator over P, that is num * lc(P)
# (_lifted).


def _is_linear(f: Polynomial, n: int) -> bool:
    return max(f.prim) >> (FIELD_BITS * n) == 1


def _deg_in(p: Polynomial, index: int) -> int:
    shift = _exponent_shift(len(p.vars), index)
    return max(((k >> shift) & _FIELD_MASK for k in p.prim), default=-1)


def _var_power(p: Polynomial, index: int, k: int) -> Polynomial:
    """The monomial vars[index]^k in p's ring."""
    return Polynomial._make(p.vars, 1, 1, {k * _var_key(len(p.vars), index): 1})


def _lifted(v: RationalFunction) -> Polynomial:
    """v's numerator over the product P of its denominator factors."""
    num, lc = v.num, v.den.cden
    return num if lc == 1 else Polynomial._make(num.vars, *_qmul(num.cnum, num.cden, lc, 1), num.prim)


def _linear_root(f: Polynomial) -> tuple[Polynomial, int]:
    """(L, d) when f = L^d for a linear L, else (f, 1).  If f = L^d, then
    the (d-1)-th partial of f by a variable of degree d in f is a multiple
    of L, so one candidate and one power decide."""
    d = f.total_degree()
    full = [i for i in range(len(f.vars)) if _deg_in(f, i) == d]
    if d > 1 and full:
        r = f
        for _ in range(d - 1):
            r = r.derivative(full[0])
        root = Polynomial._make(f.vars, 1, 1, _primitive_ints(r.prim))
        if root.total_degree() == 1 and (root**d).prim == f.prim:
            return root, d
    return f, 1


def _by_content(p: Polynomial, q: Polynomial) -> Polynomial:
    """p divided by the content of q: with q = c * Q, p / q is that
    quotient over Q."""
    return Polynomial._make(p.vars, *_qdiv(p.cnum, p.cden, q.cnum, q.cden), p.prim)


def _split(p: Polynomial) -> tuple:
    """The factors of a new denominator p: its primitive part is x^E times
    F, F divisible by no coordinate; each x_i^E_i is one factor, and F one
    more (none when F is 1), read as L^d when F is a power of a linear L."""
    vars, prim = p.vars, p.prim
    key = _monomial_gcd_key(prim, max(prim), len(vars))
    factors = tuple((_var_power(p, i, 1), e) for i, e in enumerate(_unpack(key, len(vars))) if e)
    if len(prim) == 1:
        return factors
    return factors + (_linear_root(Polynomial._make(vars, 1, 1, {k - key: c for k, c in prim.items()})),)


def _quotient(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g for primitive f and a primitive divisor g."""
    return Polynomial._make(f.vars, 1, 1, _divide(f.prim, g.prim, len(f.vars)))


def _coprime_base(keys: list[tuple], n: int) -> list[tuple[Polynomial, list[int]]]:
    """The factors of every tuple in ``keys`` refined to a coprime set
    (Bach, Driscoll and Shallit, "Factor refinement", J. Algorithms 15
    (1993)): pairs (p, v), the p pairwise coprime and the factors of
    keys[i] the product of the p^v[i].  Equal factors merge and two
    distinct linear ones are coprime with no gcd; two others with a common
    factor h become f/h, h and g/h, until no two have one."""
    base: list[tuple[Polynomial, list[int]]] = []
    for i, factors in enumerate(keys):
        for f, e in factors:
            v = [0] * len(keys)
            v[i] = e
            work = [(f, v)]
            while work:
                f, v = work.pop()
                for j, (g, w) in enumerate(base):
                    if g is f or g.prim == f.prim:
                        base[j] = (g, [a + b for a, b in zip(w, v)])
                        break
                    if _is_linear(f, n) and _is_linear(g, n):
                        continue
                    h = poly_gcd(f, g)
                    if not h.is_constant():
                        del base[j]
                        # g^w f^v = (g/h)^w h^(w+v) (f/h)^v
                        pieces = ((_quotient(g, h), w), (h, [a + b for a, b in zip(w, v)]), (_quotient(f, h), v))
                        work += [(p, u) for p, u in pieces if not p.is_constant()]
                        break
                else:
                    base.append((f, v))
    return base


def _product_factors(f1: tuple, f2: tuple, n: int) -> tuple:
    """The factors of the product of two factored denominators."""
    if not f1 or not f2:
        return f1 or f2
    if len(f1) == len(f2) == 1 and f1[0][0].prim == f2[0][0].prim:
        return ((f1[0][0], f1[0][1] + f2[0][1]),)
    return tuple((p, v[0] + v[1]) for p, v in _coprime_base([f1, f2], n))


def _cancel(num: Polynomial, factors: tuple, start: int = 0, coprime: tuple = ()) -> tuple[Polynomial, tuple]:
    """(num, factors) with the common factors of num and prod f^e removed;
    the same factors tuple when none of them changed.  factors[:start], and
    each factor that also occurs in the factors tuple ``coprime``, are known
    to be prime to num, and a single-term num is prime to every factor but
    a coordinate."""
    vars = num.vars
    n = len(vars)
    prim = num.prim
    kept = list(factors[:start])
    changed = False
    for f, e in factors[start:]:
        if len(num.prim) == 1 < len(f.prim) or any(f.prim == g.prim for g, _ in coprime):
            kept.append((f, e))
            continue
        if _is_linear(f, n):
            # f is irreducible, so trial division finds gcd(num, f^e)
            k = e
            while k:
                q = _divide(prim, f.prim, n)
                if q is None:
                    break
                prim, k = q, k - 1
            changed |= k != e
            if k:
                kept.append((f, k))
            continue
        power = f if e == 1 else f**e
        g = poly_gcd(Polynomial._make(vars, 1, 1, prim), power)
        if g.is_constant():
            kept.append((f, e))
            continue
        changed = True
        prim = _divide(prim, g.prim, n)
        k, h = 0, g.prim
        while h is not None and h != {0: 1}:
            h = _divide(h, f.prim, n)
            k += 1
        if h is None:  # g is not a power of f: f^e / g is one factor
            kept.append((_quotient(power, g), 1))
        elif k < e:
            kept.append((f, e - k))
    if changed:
        factors = tuple(kept)
    if prim is not num.prim:
        num = Polynomial._make(vars, num.cnum, num.cden, prim)
    return num, factors


def _expand(factors: tuple) -> Polynomial:
    """The monic denominator prod f^e / (its leading coefficient)."""
    p = None
    for f, e in factors:
        f = f if e == 1 else f**e
        p = f if p is None else p * f
    prim = p.prim
    return Polynomial._make(p.vars, 1, prim[max(prim)], prim)


def _build(num: Polynomial, factors: tuple, den: Polynomial | None = None) -> RationalFunction:
    """The value num / prod f^e, for a nonzero num prime to that product;
    ``den`` is its expansion when the caller has it."""
    vars = num.vars
    if not factors:
        return RationalFunction._make(num, _unit(vars))
    if den is None:
        den = _expand(factors)
    lc = den.cden
    if lc != 1:
        num = Polynomial._make(vars, *_qdiv(num.cnum, num.cden, lc, 1), num.prim)
    return RationalFunction._make(num, den, factors)


def _settle(num: Polynomial, factors: tuple, den: Polynomial | None = None, start: int = 0) -> RationalFunction:
    """num / prod f^e in lowest terms; ``den`` and ``start`` as for _build
    and _cancel."""
    if not num.prim:
        return RationalFunction.zero(num.vars)
    reduced = _cancel(num, factors, start)
    if reduced[1] is not factors:
        den = None
    return _build(*reduced, den)


def _general_product(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """a * b with a factored denominator on either side: each numerator
    first cancels against the other's denominator, which leaves the product
    in lowest terms (Knuth, TAOCP vol. 2, 4.5.1).  A numerator is prime to
    its own denominator, so a factor the two denominators share is skipped."""
    n1, f2 = _cancel(a.num, b.factors, coprime=a.factors)
    n2, f1 = _cancel(b.num, a.factors, coprime=b.factors)
    factors = _product_factors(f1, f2, len(n1.vars))
    if f1 is a.factors and f2 is b.factors:
        return RationalFunction._make(n1 * n2, a.den * b.den, factors)
    return _build((n1 * n2).scale(a.den.cden * b.den.cden), factors)


def _general_derivative(v: RationalFunction, i: int) -> RationalFunction:
    """d(N/P)/dx_i for P = prod f^e.  With G the product of the f that
    involve x_i,

        d(N/P)/dx_i = (N' G - N sum e f' G/f) / (P G).

    A linear f that involves x_i, x_i itself among them, does not divide
    that numerator: mod f it is -N e f' G/f, and N, f' and the other
    factors are prime to f.  So only the other factors are cancelled."""
    num = _lifted(v)
    vars = num.vars
    n = len(vars)
    raised, others = [], []
    g = s = None
    for f, e in v.factors:
        df = f.derivative(i)
        if not df.prim:
            others.append((f, e))
            continue
        (raised if _is_linear(f, n) else others).append((f, e + 1))
        term = df.scale(e)
        s = term if s is None else s * f + g * term
        g = f if g is None else g * f
    top = num.derivative(i)
    den = v.den
    if g is not None:
        top = top * g - num * s
        den = den * Polynomial._make(vars, 1, g.prim[max(g.prim)], g.prim)
    return _settle(top, tuple(raised + others), den, len(raised))


# -- sums of factored-denominator terms, normalized once ------------------------
# A sum that a caller builds term by term, such as a frame component of a
# section, need not be in lowest terms until it is read.  Once a term has a
# factored denominator, its terms are kept in a list and fraction_sum brings
# the whole list to one common denominator and one reduction, in place of a
# Henrici reduction per term (Knuth, TAOCP vol. 2, 4.5.1).


def term_product(a: RationalFunction, b: RationalFunction, sign: int = 1):
    """sign * a * b as a term for fraction_sum: the product itself when
    neither factor has a factored denominator or one is a constant, else the
    pair (num, factors) of the numerator over the product of the two
    factored denominators, as _lifted carries it, with no cancellation.
    The numerator may pass MAX_DEGREE or MAX_TERMS where the reduced product
    does not; then it is the product itself."""
    if (a.factors or b.factors) and not (a.is_constant() or b.is_constant()):
        try:
            num = a.num * b.num
        except (DegreeOverflow, TermOverflow):
            pass
        else:
            num = num.scale(a.den.cden * b.den.cden)
            factors = _product_factors(a.factors, b.factors, len(num.vars))
            return (num if sign > 0 else -num), factors
    p = a * b
    return p if sign > 0 else -p


def _common_sum(terms) -> RationalFunction:
    """The sum of ``terms``, values or term_product pairs: the numerators
    over equal denominators summed, then each brought to the lcm of the
    denominators, exponent maxima over a coprime base, and the total reduced
    once.  Raises DegreeOverflow or TermOverflow past the bounds."""
    # factors -> [numerator sum, expanded denominator or None]
    groups: dict[tuple, list] = {}
    for t in terms:
        if t.__class__ is RationalFunction:
            num, den, expanded = _lifted(t), t.factors, t.den
        else:
            (num, den), expanded = t, None
        s = groups.get(den)
        if s is None:
            groups[den] = [num, expanded]
        else:
            s[0] = s[0] + num
            s[1] = s[1] or expanded
    parts = [(den, num, expanded) for den, (num, expanded) in groups.items() if num.prim]
    if not parts:
        return RationalFunction.zero(next(iter(groups.values()))[0].vars)
    if len(parts) == 1:
        ((factors, num, den),) = parts
    else:
        num, factors, den = _over_lcm(parts)
    return _settle(num, factors, den)


def _over_lcm(parts: list) -> tuple:
    """(num, factors, den): the sum of the parts (factors, numerator, its
    expanded denominator or None) over the lcm of their denominators, prod
    f^e with exponent maxima over a coprime base; den is the lcm's
    expansion when a part has it."""
    base = _coprime_base([factors for factors, _, _ in parts], len(parts[0][1].vars))
    tops = [max(v) for _, v in base]
    powers: dict[tuple[int, int], Polynomial] = {}
    num = den = None
    for g, (_, t, expanded) in enumerate(parts):
        cofactor = None
        for j, (f, v) in enumerate(base):
            k = tops[j] - v[g]
            if k:
                if (j, k) not in powers:
                    powers[j, k] = f**k
                cofactor = powers[j, k] if cofactor is None else cofactor * powers[j, k]
        if cofactor is None:  # this part's denominator is the lcm
            den = den or expanded
        else:
            t = t * cofactor
        num = t if num is None else num + t
    return num, tuple((f, e) for (f, _), e in zip(base, tops)), den


def fraction_sum(terms: list) -> RationalFunction:
    """The sum of ``terms``, each a RationalFunction or a term_product
    pair, in lowest terms, by _common_sum.  Should the common numerator or
    denominator pass MAX_DEGREE or MAX_TERMS, the terms are summed one by
    one in lowest terms instead, as the values they stand for."""
    try:
        return _common_sum(terms)
    except (DegreeOverflow, TermOverflow):
        total = None
        for t in terms:
            t = t if t.__class__ is RationalFunction else _settle(*t)
            total = t if total is None else total + t
        return total


def _poly_subs(
    p: Polynomial, image: list[RationalFunction], target: tuple[str, ...]
) -> RationalFunction:
    total = RationalFunction.zero(target)
    n = len(p.vars)
    for k, c in p.prim.items():
        term = RationalFunction._make(Polynomial._from_ints(target, p.cnum, p.cden, {0: c}), _unit(target))
        for rf, e in zip(image, _unpack(k, n)):
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

# the most digits an integer literal may have, well below the interpreter's
# limit on int() of a decimal string; an exponent is exempt, as
# ExpressionParser bounds its value and reports it at its '^'
MAX_DIGITS = 1000


def _is_exponent(tokens: list[Token]) -> bool:
    """Whether the next token is an exponent: it follows '^' and any signs."""
    k = len(tokens)
    while k and tokens[k - 1].kind in ("+", "-"):
        k -= 1
    return k > 0 and tokens[k - 1].kind == "^"


def tokenize(text: str) -> list[Token]:
    """Tokenize text into names, integers and punctuation.

    `->` is one token; `#` comments run to end of line.  An integer literal
    of more than MAX_DIGITS digits, other than an exponent, is a ParseError
    at its first digit.
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
            if j - i > MAX_DIGITS and not _is_exponent(tokens):
                raise ParseError(line, start_col, f"an integer of at most {MAX_DIGITS} digits", text[i:j])
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
    otherwise exhaust the interpreter's stack).  An exponent is at most
    MAX_EXPONENT in absolute value.  No operation may reach a polynomial
    degree above MAX_DEGREE, so a packed monomial can never alias, nor a
    polynomial product or power a term bound above MAX_TERMS (a power p^n of
    t terms is bounded by C(n + t - 1, t - 1) before it is expanded); either
    is a ParseError at the operator's token.
    """

    MAX_DEPTH = 100
    MAX_EXPONENT = MAX_DEGREE

    def __init__(self, tokens: list[Token], pos: int, vars: tuple[str, ...]):
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
            value = _at(op, value.__add__ if op.kind == "+" else value.__sub__, rhs)
        return value

    def _product(self) -> RationalFunction:
        value = self._factor()
        while self.peek().kind in ("*", "/"):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self._factor()
            if op.kind == "/" and rhs.is_zero():
                raise ParseError(op.line, op.column, "a nonzero divisor", "0")
            value = _at(op, value.__mul__ if op.kind == "*" else value.__truediv__, rhs)
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
            caret = self.tokens[self.pos]
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
            digits = tok.value.lstrip("0")
            # compare lengths first: int() of a huge literal is slow or refused
            if len(digits) > len(str(self.MAX_EXPONENT)) or int(digits or "0") > self.MAX_EXPONENT:
                bound = f"an exponent of at most {self.MAX_EXPONENT}"
                raise ParseError(caret.line, caret.column, bound, tok.value)
            exponent = sign * int(digits or "0")
            if exponent < 0 and base.is_zero():
                raise ParseError(tok.line, tok.column, "a nonzero base for a negative exponent", "0")
            parts = (base.num, base.den)
            degree = max(p.total_degree() for p in parts) * abs(exponent)
            if degree > MAX_DEGREE:
                raise _degree_error(caret, degree)
            terms = max(math.comb(abs(exponent) + len(p.prim) - 1, len(p.prim) - 1) for p in parts if p.prim)
            if terms > MAX_TERMS:
                raise _terms_error(caret, terms)
            return _at(caret, base.__pow__, exponent)
        return base

    def _atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "int":
            self.pos += 1
            return RationalFunction.const(self.vars, int(tok.value))
        if tok.kind == "name":
            if tok.value not in self.vars:
                chart = clip(str(list(self.vars)))
                raise ParseError(tok.line, tok.column, f"a coordinate in {chart}", tok.value)
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


def _degree_error(tok: Token, degree: int) -> ParseError:
    return ParseError(tok.line, tok.column, f"a polynomial degree of at most {MAX_DEGREE}", f"degree {degree}")


def _terms_error(tok: Token, terms: int) -> ParseError:
    expected = f"a polynomial of at most {MAX_TERMS} terms"
    return ParseError(tok.line, tok.column, expected, f"up to {terms} terms")


def _at(tok: Token, op, *args) -> RationalFunction:
    """op(*args) for a parsed operator; an overflow or a gcd give-up is a
    ParseError at tok."""
    try:
        return op(*args)
    except DegreeOverflow as err:
        raise _degree_error(tok, err.degree) from None
    except TermOverflow as err:
        raise _terms_error(tok, err.terms) from None
    except GcdGiveUp:
        expected = f"a polynomial gcd within {GCD_POINTS} evaluation points"
        raise ParseError(tok.line, tok.column, expected) from None


def parse_scalar(text: str, vars: tuple[str, ...]) -> RationalFunction:
    """Parse a standalone expression into a RationalFunction."""
    tokens = tokenize(text)
    parser = ExpressionParser(tokens, 0, vars)
    value = parser.parse()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ParseError(tail.line, tail.column, "end of expression", tail.value)
    return value
