import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_forge import rational
from algebroid_forge.errors import DegreeOverflow, DivisionByZero, ParseError, TermOverflow, UnknownCoordinate
from algebroid_forge.rational import (
    MAX_DEGREE,
    ExpressionParser,
    Polynomial,
    RationalFunction,
    _heu_gcd,
    parse_scalar,
    poly_gcd,
)
from oracles import canonical_parts, primitive_form, sympy_poly, sympy_terms

VARS = ("x1", "x2", "x3")


def rf(text):
    return parse_scalar(text, VARS)


def random_poly(rng, max_degree=2, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = tuple(rng.randrange(0, max_degree + 1) for _ in VARS)
        terms[mono] = Fraction(rng.randrange(-4, 5))
    return Polynomial(VARS, terms)


def random_rf(rng):
    # denominators stay small (1, a monomial, or a binomial), the shapes the
    # geometry workload actually produces
    num = random_poly(rng)
    kind = rng.randrange(3)
    if kind == 0:
        den = Polynomial.const(VARS, 1)
    elif kind == 1:
        mono = tuple(rng.randrange(0, 2) for _ in VARS)
        den = Polynomial(VARS, {mono: Fraction(rng.choice([1, 2]))})
    else:
        den = random_poly(rng, max_degree=1, max_terms=2)
        while den.is_zero():
            den = random_poly(rng, max_degree=1, max_terms=2)
    return RationalFunction(num, den)


class TestArith:
    def test_common_denominator(self):
        assert rf("x1") + rf("1/x1") == rf("(x1^2+1)/x1")

    def test_gcd_cancellation(self):
        assert rf("(x1^2-1)/(x1-1)") == rf("x1+1")

    def test_inverse_product(self):
        p = rf("x1^2+x2")
        q = rf("x3-2")
        assert (p / q) * (q / p) == rf("1")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            rf("x1") / rf("x1-x1")

    def test_zero_canonical(self):
        z = rf("(x1*x2 - x2*x1)/x3")
        assert z.is_zero()
        assert z == RationalFunction.zero(VARS)

    def test_not_zero(self):
        assert not rf("x1/x2").is_zero()


class TestDifferentiate:
    def test_product(self):
        assert rf("x1*x2").differentiate("x1") == rf("x2")

    def test_quotient_rule(self):
        assert rf("1/x1").differentiate("x1") == rf("-1/x1^2")

    def test_constant(self):
        assert rf("7").differentiate("x1").is_zero()

    def test_unknown_coordinate(self):
        with pytest.raises(UnknownCoordinate):
            rf("x1").differentiate("q")


class TestNormalization:
    def test_monic_denominator(self):
        v = rf("x1 / (2*x2 + 2)")
        assert str(v) == "1/2*x1/(x2 + 1)"

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            v = random_rf(rng)
            again = RationalFunction(v.num, v.den)
            assert again.num == v.num and again.den == v.den

    def test_equal_values_equal_reps(self):
        a = rf("(x1^2 + 2*x1*x2 + x2^2)/(x1 + x2)")
        b = rf("x1 + x2")
        assert a.num == b.num and a.den == b.den


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a, b, c = (random_rf(rng) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_leibniz_rule(seed):
    rng = random.Random(seed)
    f, g = random_rf(rng), random_rf(rng)
    for v in VARS:
        lhs = (f * g).differentiate(v)
        rhs = f * g.differentiate(v) + g * f.differentiate(v)
        assert lhs == rhs


def test_gcd_matches_sympy():
    # independent oracle: sympy's multivariate gcd on random integer polys
    rng = random.Random(11)
    symbols = sympy.symbols(VARS)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        ours = poly_gcd(p, q)
        sp = sympy.Poly(sympy.sympify(str(p).replace("^", "**")), *symbols)
        sq = sympy.Poly(sympy.sympify(str(q).replace("^", "**")), *symbols)
        theirs = sympy.gcd(sp, sq)
        sours = sympy.Poly(sympy.sympify(str(ours).replace("^", "**")), *symbols)
        ratio = sympy.simplify(sours.as_expr() / theirs.as_expr())
        assert ratio.is_number and ratio != 0


rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))


@st.composite
def factor_triples(draw):
    """(g, a, b) with up to 4 terms each in the first 1-3 coordinates."""
    nvars = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 2)] * nvars, *[st.just(0)] * (3 - nvars))
    polys = st.dictionaries(monomials, rationals, min_size=1, max_size=4)
    return tuple(Polynomial(VARS, draw(polys)) for _ in range(3))


def sympy_gcd_form(p, q):
    return primitive_form(sympy_terms(sympy.gcd(sympy_poly(p.terms, 3), sympy_poly(q.terms, 3))))


def from_ints(coeffs):
    """The polynomial on VARS of packed integer coefficients."""
    return Polynomial._from_ints(VARS, 1, 1, coeffs)


@settings(max_examples=60, deadline=None)
@given(factor_triples(), st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), rationals, min_size=1, max_size=3))
def test_planted_gcd_matches_sympy(triple, divisor_terms):
    # g*a and g*b share g, so the gcd is g times gcd(a, b), rarely 1
    g, a, b = triple
    p, q = g * a, g * b
    ours = poly_gcd(p, q)
    assert dict(ours.terms) == sympy_gcd_form(p, q)
    assert rational._divide(p.prim, ours.prim, 3) is not None
    assert rational._divide(q.prim, ours.prim, 3) is not None
    # by Gauss's lemma a divisor divides in Q[x] iff its primitive part does in Z[x]
    quotient, remainder = sympy.div(sympy_poly(p.terms, 3), sympy_poly(divisor_terms, 3))
    divided = rational._divide(p.prim, Polynomial(VARS, divisor_terms).prim, 3)
    if remainder.is_zero:
        assert dict(from_ints(divided).terms) == primitive_form(sympy_terms(quotient))
    else:
        assert divided is None


@settings(max_examples=40, deadline=None)
@given(factor_triples())
def test_gcdheu_matches_sympy_with_cofactors(triple):
    # GCDHEU on its own, past the steps of poly_gcd that answer before it
    g, a, b = triple
    p, q = g * a, g * b
    found = _heu_gcd(p.prim, q.prim, range(3), 3)
    assert found is not None
    h, cff, cfg = map(from_ints, found)
    assert dict(h.terms) == sympy_gcd_form(p, q)
    assert h * cff == from_ints(p.prim) and h * cfg == from_ints(q.prim)


def x1_polys(min_size=1):
    """Polynomials in x1 alone, up to 4 terms of degree at most 3."""
    monomials = st.tuples(st.integers(0, 3), st.just(0), st.just(0))
    return st.dictionaries(monomials, rationals, min_size=min_size, max_size=4).map(
        lambda terms: Polynomial(VARS, terms)
    )


@st.composite
def support_pairs(draw):
    """(p, q, coprime): p = c*a in x1 only, q = c*b in x1..x3, and with
    `coprime` q gains the term x2^3, a constant coefficient in the variables
    p lacks, so the gcd is 1."""
    c, a = draw(x1_polys()), draw(x1_polys())
    monomials = st.tuples(*[st.integers(0, 2)] * 3)
    b = Polynomial(VARS, draw(st.dictionaries(monomials, rationals, min_size=1, max_size=4)))
    p, q = c * a, c * b
    coprime = draw(st.booleans())
    if coprime:
        q = q + Polynomial(VARS, {(0, 3, 0): draw(rationals)})
    return p, q, coprime


@st.composite
def divisor_pairs(draw):
    """(u * L^j, L^k) for a linear L, or (d, d') for a derivative d'."""
    degree_one = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    linear = st.dictionaries(degree_one, rationals, min_size=2)
    if draw(st.booleans()):
        L = Polynomial(VARS, draw(linear))
        u = draw(factor_triples())[0]
        return u * L ** draw(st.integers(0, 3)), L ** draw(st.integers(1, 3))
    d = draw(factor_triples())[0] * Polynomial(VARS, draw(linear)) ** draw(st.integers(1, 3))
    return d, d.derivative(draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(support_pairs(), divisor_pairs().map(lambda pair: (*pair, False))))
def test_fast_path_gcds_match_sympy(case):
    # the variable-support and trial-division steps answer before GCDHEU
    p, q, coprime = case
    if p.is_zero() or q.is_zero():
        return
    ours = poly_gcd(p, q)
    assert dict(ours.terms) == dict(poly_gcd(q, p).terms) == sympy_gcd_form(p, q)
    if coprime:
        assert ours == Polynomial.const(VARS, 1)


@pytest.fixture
def no_gcdheu(monkeypatch):
    def refuse(*args):
        raise AssertionError("GCDHEU ran")

    monkeypatch.setattr(rational, "_heu_gcd", refuse)


class TestGcdFastPaths:
    def test_support_proves_a_unit_gcd(self, no_gcdheu):
        # x1*x2 + 3 read in x2 has the constant coefficient 3
        p, q = rf("x1 + 1").num, rf("x1*x2 + 3").num
        assert poly_gcd(p, q) == poly_gcd(q, p) == Polynomial.const(VARS, 1)

    def test_power_of_a_linear_divides_a_higher_power(self, no_gcdheu):
        L = rf("2*x1 - 3*x2 + 5").num
        assert poly_gcd(L**2, -(L**3)) == poly_gcd(L**3, L**2) == rational._primitive(L**2)

    def test_derivative_divides_its_square_free_function(self, no_gcdheu):
        d = rf("x2*x1^2 + x2").num
        assert poly_gcd(d, d.derivative(1)) == rf("x1^2 + 1").num

    def test_sums_of_powers_of_one_denominator(self, no_gcdheu):
        # the rational-chart shape: g = 1/L, d_i g = -a_i / L^2
        total = rf("1/(2*x1 + 3)^2") + rf("x2/(2*x1 + 3)^3")
        assert total == rf("(2*x1 + 3 + x2)/(2*x1 + 3)^3")
        assert rf("1/(2*x1 + 3)^2").differentiate("x1") == rf("-4/(2*x1 + 3)^3")

    def test_undecided_pairs_still_reach_gcdheu(self, no_gcdheu):
        # neither step applies to (x1 + x2)(x1 - 1) and (x1 + x2)(x2 + 2)
        p, q = rf("(x1 + x2)*(x1 - 1)").num, rf("(x1 + x2)*(x2 + 2)").num
        with pytest.raises(AssertionError, match="GCDHEU ran"):
            poly_gcd(p, q)


@st.composite
def wide_polys(draw, nvars):
    """Up to 4 terms of degree at most 8 in the first nvars coordinates,
    integer coefficients up to 10^20 in size."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        left, mono = draw(st.integers(0, 8)), []
        for _ in range(nvars):
            mono.append(draw(st.integers(0, left)))
            left -= mono[-1]
        terms[(*mono, *[0] * (3 - nvars))] = draw(st.integers(-(10**20), 10**20).filter(bool))
    return Polynomial(VARS, terms)


@st.composite
def wide_planted_pairs(draw):
    """(h*a, h*b) on 1-3 coordinates; for half of them a = b + c, so that
    a and b have a large resultant."""
    polys = wide_polys(draw(st.integers(1, 3)))
    h, a, b = draw(polys), draw(polys), draw(polys)
    if draw(st.booleans()):
        a = b + draw(polys)
    return h * a, h * b


@settings(max_examples=100, deadline=None)
@given(wide_planted_pairs())
def test_poly_gcd_never_gives_up_on_wide_planted_gcds(pair):
    # poly_gcd has no fallback past GCDHEU: a planted gcd of high degree and
    # large coefficients is still found, with no GcdGiveUp
    p, q = pair
    if not (p.is_zero() or q.is_zero()):
        assert dict(poly_gcd(p, q).terms) == sympy_gcd_form(p, q)


def test_heu_gcd_through_a_cofactor_leads_positively():
    # with p == q the gcd comes back as p / (interpolated cofactor), which
    # here once carried the cofactor's negative sign; hypothesis found it
    p = rf("-1/5*x2^2 + 5*x2 + 1/3*x3 + 1").num * rf("1/3*x1*x3^2 + 5*x1*x3 + 1/5*x3^2").num
    h, cff, cfg = _heu_gcd(p.prim, p.prim, range(3), 3)
    assert from_ints(h) == poly_gcd(p, p) == rational._primitive(p)
    assert cff == cfg == {0: 1}


class TestDegreeBound:
    # monomials only: nothing here allocates more than a few terms

    def test_boundary_monomials_pack_without_aliasing(self):
        top = Polynomial(VARS, {(MAX_DEGREE, 0, 0): Fraction(1)})
        mixed = Polynomial(VARS, {(MAX_DEGREE - 1, 1, 0): Fraction(2)})
        assert dict(top.terms) == {(MAX_DEGREE, 0, 0): 1}
        assert dict(mixed.terms) == {(MAX_DEGREE - 1, 1, 0): 2}
        x1, x2 = Polynomial.coord(VARS, "x1"), Polynomial.coord(VARS, "x2")
        assert x1**MAX_DEGREE == top
        assert (x1 ** (MAX_DEGREE - 1) * x2).scale(Fraction(2)) == mixed
        assert x1 ** (MAX_DEGREE - 1) * x2 != x1**MAX_DEGREE

    def test_overflowing_product_raises(self):
        x1, x2 = Polynomial.coord(VARS, "x1"), Polynomial.coord(VARS, "x2")
        with pytest.raises(DegreeOverflow):
            x1**MAX_DEGREE * x2
        with pytest.raises(DegreeOverflow):
            x2 ** (MAX_DEGREE + 1)
        with pytest.raises(DegreeOverflow):
            Polynomial(VARS, {(MAX_DEGREE, 1, 0): Fraction(1)})

    def test_overflowing_power_names_its_own_degree(self):
        # not that of x1^32768, the first square on the way to x1^39999
        with pytest.raises(DegreeOverflow) as err:
            Polynomial.coord(VARS, "x1") ** 39999
        assert err.value.degree == 39999

    def test_parser_caps(self):
        assert ExpressionParser.MAX_EXPONENT == MAX_DEGREE
        assert rf(f"x1^{MAX_DEGREE}") == rf("x1") ** MAX_DEGREE
        cases = [
            # (text, column of the offending token, expected)
            (f"x1^{MAX_DEGREE + 1}", 3, f"an exponent of at most {MAX_DEGREE}"),
            ("x1^-" + "9" * 5000, 3, f"an exponent of at most {MAX_DEGREE}"),
            ("(x2^200)^200", 9, f"a polynomial degree of at most {MAX_DEGREE}"),
            ("(1/x2^200)^200", 11, f"a polynomial degree of at most {MAX_DEGREE}"),
            ("x1^20000 * x1^20000", 10, f"a polynomial degree of at most {MAX_DEGREE}"),
            ("1/x1^20000 / x1^20000", 12, f"a polynomial degree of at most {MAX_DEGREE}"),
        ]
        for text, column, expected in cases:
            with pytest.raises(ParseError) as err:
                parse_scalar(text, VARS)
            assert (err.value.column, err.value.expected) == (column, expected), text


def test_arith_matches_sympy():
    rng = random.Random(13)
    symbols = sympy.symbols(VARS)
    for _ in range(10):
        a, b = random_rf(rng), random_rf(rng)
        sa = sympy.sympify(str(a).replace("^", "**"))
        sb = sympy.sympify(str(b).replace("^", "**"))
        for ours, theirs in (
            (a + b, sa + sb),
            (a - b, sa - sb),
            (a * b, sa * sb),
        ):
            got = sympy.sympify(str(ours).replace("^", "**"))
            assert sympy.simplify(got - theirs) == 0


# -- the denominator shapes ----------------------------------------------------
# A denominator is the unit or anything else, held factored with each
# coordinate that divides it as a factor of its own: two unit operands take
# the polynomial path through the field operations, any other pair the
# factored one.  The draws and their sympy expectations depend on the seed
# alone, so tests/test_mutants.py runs the same property on its mutants.

SHAPE_SEED, SHAPE_DRAWS = 20, 150
SHAPE_OPS = (
    ("a", lambda a, b, d, s: a),
    ("b", lambda a, b, d, s: b),
    ("a + b", lambda a, b, d, s: a + b),
    ("a - b", lambda a, b, d, s: a - b),
    ("a * b", lambda a, b, d, s: a * b),
    ("a / b", lambda a, b, d, s: a / b),
    ("d a", lambda a, b, d, s: d(a)),
    ("d (a / b)", lambda a, b, d, s: d(a / b)),
    ("a(x1 -> xn / (1 + x1))", lambda a, b, d, s: s(a)),
)


def factor_pool(vars_):
    """Denominator factors on the coordinates ``vars_`` as expression text,
    the same number for 1-3 coordinates: linear in one, two and all of
    them; 1 + x1^2; (1 + x1)(2 + xn), expanded when parsed; x1^2 - 1, which
    shares x1 - 1 with the second; Q = (1 + x1)^2 (2 + xn) with
    2 (1 + x1)(2 + xn), its partial by x1; and x1 (1 + xn), expanded when
    parsed, so that the coordinate must be split from the rest."""
    x, last = vars_[0], vars_[-1]
    return (
        f"1 + 2*{x}",
        f"{x} - 1",
        f"2*{x} - 3*{last} + 1" if len(vars_) > 1 else f"3*{x} + 2",
        " + ".join(vars_) + " + 1",
        f"1 + {x}^2",
        f"(1 + {x})*(2 + {last})",
        f"{x}^2 - 1",
        f"(1 + {x})^2*(2 + {last})",
        f"2*(1 + {x})*(2 + {last})",
        f"{x}*(1 + {last})",
    )


POOL_SIZE = len(factor_pool(VARS))


def shape_spec(rng, n):
    """(terms, factor, kind, den): a sum of coefficient * monomial terms
    with distinct exponents up to 2, times the monomial ``factor``, over a
    denominator of ``kind``: "unit"; "term", a content 1, 2 or 1/3 times a
    monomial with exponents up to 3; "general", (1 + 2*x_j)^k; "content", a
    constant 2, 1/3 or -1; or "factored", (powers, separate, extra): the
    product of factor_pool powers (index, 1 or 2), divided out one power
    at a time when ``separate``, else as one expanded polynomial, with the
    numerator times the pool power ``extra`` or 1."""
    exponents = {tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randrange(1, 4))}
    terms = [(rng.choice((-3, -2, -1, 1, 2, 5)), e) for e in sorted(exponents)]
    factor = tuple(rng.randrange(2) for _ in range(n)) if rng.random() < 0.4 else (0,) * n
    kind = rng.choice(("unit", "term", "general", "content", "factored", "factored"))
    den = {
        "unit": None,
        "term": (rng.choice((1, 2, Fraction(1, 3))), tuple(rng.randrange(4) for _ in range(n))),
        "general": (rng.randrange(n), rng.randrange(1, 3)),
        "content": rng.choice((2, Fraction(1, 3), -1)),
        "factored": (
            tuple((rng.randrange(POOL_SIZE), rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))),
            rng.random() < 0.5,
            (rng.randrange(POOL_SIZE), rng.randrange(1, 3)) if rng.random() < 0.5 else None,
        ),
    }[kind]
    return terms, factor, kind, den


def shape_specs(seed, draws):
    """Per draw: the number of coordinates (1-3), two value specs and the
    coordinate index to differentiate by."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.randrange(1, 4)
        out.append((n, shape_spec(rng, n), shape_spec(rng, n), rng.randrange(n)))
    return out


def shape_value(rat, vars_, spec):
    """The spec's value by the arithmetic of the module ``rat``.  A content
    c enters as one * c, which shares the unit's primitive part."""
    RF = rat.RationalFunction
    terms, factor, kind, den = spec

    def monomial(c, exponents):
        out = RF.one(vars_) * c
        for name, e in zip(vars_, exponents):
            if e:
                out = out * RF.coord(vars_, name) ** e
        return out

    num = RF.zero(vars_)
    for c, exponents in terms:
        num = num + monomial(c, exponents)
    num = num * monomial(1, factor)
    if kind == "term":
        return num / monomial(*den)
    if kind == "general":
        j, k = den
        return num / (RF.coord(vars_, vars_[j]) * 2 + 1) ** k
    if kind == "content":
        return num / (RF.one(vars_) * den)
    if kind == "factored":
        pool = [rat.parse_scalar(text, vars_) for text in factor_pool(vars_)]
        powers, separate, extra = den
        if extra is not None:
            num = num * pool[extra[0]] ** extra[1]
        if separate:
            for i, e in powers:
                num = num / pool[i] ** e
            return num
        product = RF.one(vars_)
        for i, e in powers:
            product = product * pool[i] ** e
        return num / product
    return num


def shape_element(field, spec):
    """The spec's value in sympy's rational function field ``field``."""
    terms, factor, kind, den = spec

    def monomial(c, exponents):
        c = Fraction(c)
        out = field(c.numerator) / c.denominator
        for x, e in zip(field.gens, exponents):
            out *= x**e
        return out

    num = sum((monomial(c, e) for c, e in terms), field.zero) * monomial(1, factor)
    if kind == "term":
        return num / monomial(*den)
    if kind == "general":
        j, k = den
        return num / (1 + 2 * field.gens[j]) ** k
    if kind == "content":
        return num / monomial(den, ())
    if kind == "factored":
        names = tuple(str(x) for x in field.gens)
        pool = [field.from_sympy(sympy.sympify(text.replace("^", "**"))) for text in factor_pool(names)]
        powers, _, extra = den
        if extra is not None:
            num *= pool[extra[0]] ** extra[1]
        for i, e in powers:
            num /= pool[i] ** e
    return num


_SHAPE_EXPECTED = {}


def shape_expected(seed, draws):
    """The oracle's canonical parts of every SHAPE_OPS result, per draw."""
    if (seed, draws) not in _SHAPE_EXPECTED:
        expected = []
        for n, spec_a, spec_b, x in shape_specs(seed, draws):
            field = sympy.QQ.frac_field(*sympy.symbols(VARS[:n]))
            a, b = shape_element(field, spec_a), shape_element(field, spec_b)
            first, last = field.gens[0].as_expr(), field.gens[-1].as_expr()

            def substituted(f):
                return field.from_sympy(f.as_expr().subs(first, last / (1 + first)))

            results = [op(a, b, lambda f: f.diff(field.gens[x]), substituted) for _, op in SHAPE_OPS]
            expected.append([canonical_parts(r) for r in results])
        _SHAPE_EXPECTED[(seed, draws)] = expected
    return _SHAPE_EXPECTED[(seed, draws)]


def stored_parts(p):
    """(cnum, cden, prim) as a Polynomial stores them, prim by exponent
    tuples."""
    content = Fraction(p.cnum, p.cden)
    return p.cnum, p.cden, {m: c / content for m, c in p.terms.items()}


def factored_problem(v) -> str | None:
    """What breaks the invariants of v's factored denominator, or None: den
    is prod f^e over v.factors, made monic; every e is positive; every f is
    primitive with a positive leading coefficient and not constant; each f
    is either a coordinate or divisible by no coordinate; and the f are
    pairwise coprime (by sympy's gcd)."""
    den, n = v.den, len(v.vars)
    product = den._make(v.vars, 1, 1, {0: 1})
    for f, e in v.factors:
        if e < 1 or (f.cnum, f.cden) != (1, 1) or f.is_constant():
            return f"factor ({f})^{e}"
        if math.gcd(*f.prim.values()) != 1 or f.prim[max(f.prim)] < 0:
            return f"factor {f} is not primitive with a positive leading coefficient"
        coordinate = len(f.terms) == 1 and sum(next(iter(f.terms))) == 1
        if not coordinate and any(all(m[j] for m in f.terms) for j in range(n)):
            return f"factor {f} is neither a coordinate nor divisible by none"
        product = product * f**e
    if product.prim != den.prim or (den.cnum, den.cden) != (1, product.prim[max(product.prim)]):
        return f"den {den} is not the monic product of {v.factors}"
    for (f, _), (g, _) in combinations(v.factors, 2):
        key = (n, *sorted((tuple(sorted(f.prim.items())), tuple(sorted(g.prim.items())))))
        if key not in _SHARED:
            _SHARED[key] = sympy.gcd(sympy_poly(f.terms, n), sympy_poly(g.terms, n)).total_degree() > 0
        if _SHARED[key]:
            return f"factors {f} and {g} share a factor"
    return None


# (coordinates, factor, factor) -> whether sympy finds a common factor
_SHARED: dict[tuple, bool] = {}


def shape_property(rat, seed=SHAPE_SEED, draws=SHAPE_DRAWS) -> list[str]:
    """Every SHAPE_OPS result on the drawn pairs, built by the module
    ``rat``, has the oracle's canonical parts and a factored denominator
    that keeps its invariants, and every constant denominator is the
    interned unit.  Stops at the first failure; an exception is one."""
    for (n, spec_a, spec_b, x), expected in zip(shape_specs(seed, draws), shape_expected(seed, draws)):
        vars_ = VARS[:n]
        try:
            a, b = shape_value(rat, vars_, spec_a), shape_value(rat, vars_, spec_b)
            RF = rat.RationalFunction
            image = {vars_[0]: RF.coord(vars_, vars_[-1]) / (RF.coord(vars_, vars_[0]) + 1)}
            results = [
                op(a, b, lambda f: f.differentiate(vars_[x]), lambda f: f.subs(image)) for _, op in SHAPE_OPS
            ]
        except Exception as err:
            return [f"{spec_a}, {spec_b}: {type(err).__name__}: {err}"]
        unit = rat.RationalFunction.one(vars_).den
        for (label, _), got, parts in zip(SHAPE_OPS, results, expected):
            if (stored_parts(got.num), stored_parts(got.den)) != parts:
                return [f"{label} for a = {a}, b = {b}: got {got}"]
            if got.den.is_constant() and got.den is not unit:
                return [f"{label} for a = {a}, b = {b}: a constant denominator that is not the unit"]
            problem = factored_problem(got)
            if problem is not None:
                return [f"{label} for a = {a}, b = {b}: {problem}"]
    return []


def test_denominator_shapes_match_sympy():
    assert shape_property(rational) == []


# -- term lists summed once ---------------------------------------------------
# A term is a value spec or a product of two, with a sign; a product enters
# as term_product forms it.  A third of the lists are cut to at most four
# terms and followed by those terms negated, in reverse order and with each
# product entering as the reduced value a * b, so that they cancel to zero
# only over a common denominator.

SUM_SEED, SUM_DRAWS = 21, 80


def sum_specs(seed, draws):
    """Per draw: the number of coordinates (1-3) and a list of 1-8 terms
    (sign, spec, spec or None, whether a product enters reduced)."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.randrange(1, 4)
        terms = [
            (rng.choice((1, -1)), shape_spec(rng, n), shape_spec(rng, n) if rng.random() < 0.6 else None, False)
            for _ in range(rng.randrange(1, 9))
        ]
        if rng.random() < 1 / 3:
            terms = terms[:4]
            terms += [(-sign, a, b, True) for sign, a, b, _ in reversed(terms)]
        out.append((n, terms))
    return out


_SUM_EXPECTED = {}


def sum_expected(seed, draws):
    """The oracle's canonical parts of every drawn list's sum."""
    if (seed, draws) not in _SUM_EXPECTED:
        expected = []
        for n, terms in sum_specs(seed, draws):
            field = sympy.QQ.frac_field(*sympy.symbols(VARS[:n]))
            total = field.zero
            for sign, a, b, _ in terms:
                total += sign * shape_element(field, a) * (field.one if b is None else shape_element(field, b))
            expected.append(canonical_parts(total))
        _SUM_EXPECTED[(seed, draws)] = expected
    return _SUM_EXPECTED[(seed, draws)]


def deferred_sum_property(rat, seed=SUM_SEED, draws=SUM_DRAWS) -> list[str]:
    """Each drawn term list, a product entering as ``term_product(a, b,
    sign)`` or as the reduced value, sums by ``fraction_sum`` to the
    oracle's canonical parts and to the pairwise sum of the same values, and
    a zero sum is the interned zero.  Stops at the first failure; an
    exception is one."""
    for (n, specs), parts in zip(sum_specs(seed, draws), sum_expected(seed, draws)):
        vars_ = VARS[:n]
        RF = rat.RationalFunction
        try:
            terms, eager = [], RF.zero(vars_)
            for sign, a, b, reduced in specs:
                a = shape_value(rat, vars_, a)
                if b is not None:
                    b = shape_value(rat, vars_, b)
                    pair = None if reduced else rat.term_product(a, b, sign)
                    a = a * b
                value = a if sign > 0 else -a
                terms.append(value if b is None or reduced else pair)
                eager = eager + value
            got = rat.fraction_sum(terms)
        except Exception as err:
            return [f"{specs}: {type(err).__name__}: {err}"]
        if (stored_parts(got.num), stored_parts(got.den)) != parts or got != eager:
            return [f"{specs}: got {got}, pairwise {eager}"]
        problem = factored_problem(got)
        if problem is not None:
            return [f"{specs}: {problem}"]
        if got.is_zero() and got is not RF.zero(vars_):
            return [f"{specs}: a zero sum that is not the interned zero"]
    return []


def test_term_lists_sum_as_sympy_and_pairwise():
    assert deferred_sum_property(rational) == []


class TestShapeBounds:
    # both paths keep the bounds of the products they form, on 1/x^E too

    def test_degree_overflow_on_the_polynomial_path(self):
        with pytest.raises(DegreeOverflow):
            rf("x1^20000") * rf("x2^20000")

    def test_degree_overflow_on_the_laurent_paths(self):
        a, b = rf("1/x1^20000"), rf("1/x2^20000")
        for op in (lambda: a + b, lambda: a * b, lambda: rf(f"1/x1^{MAX_DEGREE}").differentiate("x1")):
            with pytest.raises(DegreeOverflow):
                op()

    def test_term_overflow_on_the_polynomial_and_laurent_paths(self):
        # 400 terms each: the product's bound 160,000 exceeds MAX_TERMS
        terms = {(i, j, 0): Fraction(1) for i in range(20) for j in range(20)}
        p = RationalFunction(Polynomial(VARS, terms), Polynomial.const(VARS, 1))
        for a, b in ((p, p), (p / rf("x1"), p / rf("x2^2"))):
            with pytest.raises(TermOverflow):
                a * b

    # a deferred product or sum is unreduced, so it may pass a bound that
    # the reduced value keeps: then it is formed as the values themselves

    def test_deferred_product_past_the_degree_bound(self):
        a, b = rf("x1^20000 / (1 + x2^20000)"), rf("(1 + x2^20000) / (1 + x1)")
        for sign in (1, -1):
            expected = sign * rf("x1^20000 / (1 + x1)")
            assert rational.term_product(a, b, sign) == (a * b if sign > 0 else -(a * b)) == expected
        with pytest.raises(DegreeOverflow):
            rational.term_product(a, rf("x2^20000 / (1 + x3)"))

    def test_deferred_product_past_the_term_bound(self):
        # p has 400 terms and q = p + x3 401, so the pair's bound is 160,400
        terms = {(i, j, 0): Fraction(1) for i in range(20) for j in range(20)}
        p = RationalFunction(Polynomial(VARS, terms), Polynomial.const(VARS, 1))
        q = p + rf("x3")
        assert rational.term_product(p / q, q / p) == RationalFunction.one(VARS)
        with pytest.raises(TermOverflow):
            rational.term_product(p / rf("1 + x3"), q / rf("2 + x2"))

    def test_deferred_sum_past_the_degree_bound(self):
        # the pair (h, h (1 + x2)) stands for 1/(1 + x2); over a common
        # denominator with 1/(1 + x1^30000) it passes MAX_DEGREE, summed
        # pairwise it does not
        h = rf("1 + x3^3000")
        pair = rational.term_product(h / rf("1 + x2"), 1 / h)
        assert isinstance(pair, tuple)
        c = rf("1 / (1 + x1^30000)")
        assert rational.fraction_sum([pair, c]) == rf("1 / (1 + x2)") + c
        with pytest.raises(DegreeOverflow):
            rational.fraction_sum([1 / h, rf("1 / (1 + x1^30000)")])


class TestParser:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(25):
            v = random_rf(rng)
            assert parse_scalar(str(v), VARS) == v

    def test_precedence(self):
        assert rf("2*x1^2 + 1") == rf("1 + x1*x1*2")
        assert rf("-x1^2") == -(rf("x1") ** 2)
        assert rf("6/2/3") == rf("1")

    def test_negative_exponent(self):
        assert rf("x1^-2") == rf("1/x1^2")

    def test_rejects_unknown_name(self):
        with pytest.raises(ParseError):
            parse_scalar("y1 + 1", VARS)

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("x1 x2", VARS)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("x1 + (x2", VARS)
        assert err.value.line == 1
