import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_forge import rational
from algebroid_forge.errors import DegreeOverflow, DivisionByZero, ParseError, UnknownCoordinate
from algebroid_forge.rational import (
    MAX_DEGREE,
    ExpressionParser,
    Polynomial,
    RationalFunction,
    _heu_gcd,
    _prs_gcd,
    exact_div,
    parse_scalar,
    poly_gcd,
)
from oracles import primitive_form, sympy_poly, sympy_terms

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


@settings(max_examples=60, deadline=None)
@given(factor_triples(), st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), rationals, min_size=1, max_size=3))
def test_planted_gcd_matches_sympy(triple, divisor_terms):
    # g*a and g*b share g, so the gcd is g times gcd(a, b), rarely 1
    g, a, b = triple
    p, q = g * a, g * b
    ours = poly_gcd(p, q)
    assert dict(ours.terms) == sympy_gcd_form(p, q)
    assert exact_div(p, g) == a and exact_div(q, g) == b
    assert exact_div(p, ours) * ours == p and exact_div(q, ours) * ours == q
    divisor = Polynomial(VARS, divisor_terms)
    quotient, remainder = sympy.div(sympy_poly(p.terms, 3), sympy_poly(divisor_terms, 3))
    if remainder.is_zero:
        assert dict(exact_div(p, divisor).terms) == sympy_terms(quotient)
    else:
        with pytest.raises(ValueError):
            exact_div(p, divisor)


@settings(max_examples=40, deadline=None)
@given(factor_triples())
def test_prs_fallback_agrees_with_gcdheu(triple):
    # no shipped input reaches the PRS: run it and GCDHEU on their own
    g, a, b = triple
    p, q = g * a, g * b
    expected = sympy_gcd_form(p, q)
    assert dict(_prs_gcd(p, q).terms) == expected
    found = _heu_gcd(p.prim, q.prim, range(3), 3)
    assert found is not None
    h, cff, cfg = found
    assert dict(Polynomial._from_ints(VARS, 1, 1, h).terms) == expected
    assert Polynomial._from_ints(VARS, 1, 1, h) * Polynomial._from_ints(VARS, 1, 1, cff) == (
        Polynomial._from_ints(VARS, 1, 1, p.prim)
    )


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


def test_heu_gcd_through_a_cofactor_leads_positively():
    # with p == q the gcd comes back as p / (interpolated cofactor), which
    # here once carried the cofactor's negative sign; hypothesis found it
    p = rf("-1/5*x2^2 + 5*x2 + 1/3*x3 + 1").num * rf("1/3*x1*x3^2 + 5*x1*x3 + 1/5*x3^2").num
    h, cff, cfg = _heu_gcd(p.prim, p.prim, range(3), 3)
    assert Polynomial._from_ints(VARS, 1, 1, h) == _prs_gcd(p, p) == poly_gcd(p, p)
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
