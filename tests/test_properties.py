"""Hypothesis property checks layered on top of the seeded random tests:
the graded-algebra laws on generated sections, the canonical-form law for
the scalar field, the content-times-primitive-part representation of
polynomials, the frame-component Dorfman bracket against its composition
from the calculus, the component sums of the Courant residues against
section arithmetic, the product of two doubles against its dense
transport, the seeded random sections against ``random.Random``, Schouten
and d against a sympy reference built from the raw anchor and structure
data, and the Dorfman bracket and check-axioms verdicts under a constant
change of frame."""

import math
import pathlib
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algebroid_forge.algfile import parse
from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    SeededRng,
    check_axioms,
    differential,
    insert,
    lie_derivative,
    pairing,
    random_sections,
    schouten,
    tangent_algebroid,
    wedge,
)
from algebroid_forge.courant import (
    CourantDouble,
    CourantSection,
    _residue,
    anchor_field,
    conjugate,
    d_operator,
    dorfman,
    pairing_sections,
    product,
    product_with_renaming,
    rho_apply_section,
    twisted_double,
)
from algebroid_forge.rational import Polynomial, RationalFunction
from oracles import (
    RawAlgebroid,
    cartan_d_oracle,
    dense_product,
    det,
    dorfman_by_calculus,
    dorfman_oracle,
    matches_oracle,
    random_sections_reference,
    raw_double,
    reframe_double,
    reframe_presentation,
    schouten_oracle,
    sympy_poly,
    sympy_terms,
)

TR3 = tangent_algebroid(3)
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

coeff = st.integers(-3, 3)


@st.composite
def scalars(draw):
    c = draw(coeff)
    out = TR3.scalar(c)
    for name in TR3.coords:
        if draw(st.booleans()):
            out = out + TR3.coord_rf(name) * draw(coeff)
    return out


@st.composite
def sections(draw, variance, degree=None):
    if degree is None:
        degree = draw(st.integers(0, 3))
    coeffs = {}
    for idx in combinations(range(3), degree):
        if draw(st.booleans()):
            coeffs[idx] = draw(scalars())
    return TR3.section(variance, degree, coeffs)


@settings(max_examples=40, deadline=None)
@given(sections(FORM), sections(FORM), sections(FORM))
def test_wedge_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=40, deadline=None)
@given(sections(FORM), sections(FORM))
def test_wedge_graded_commutativity(a, b):
    sign = -1 if (a.degree * b.degree) % 2 else 1
    assert wedge(a, b) == wedge(b, a).scale(sign)


@settings(max_examples=40, deadline=None)
@given(sections(FORM, 2), sections(MULTIVECTOR, 1), sections(MULTIVECTOR, 1))
def test_contraction_adjoint(mu, x, w):
    assert pairing(insert(mu, x), w) == pairing(mu, wedge(x, w))


@settings(max_examples=30, deadline=None)
@given(sections(FORM, 1))
def test_d_squared_vanishes(mu):
    assert differential(differential(mu)).is_zero()


@settings(max_examples=25, deadline=None)
@given(sections(MULTIVECTOR, 1), sections(FORM, 1))
def test_lie_derivative_commutes_with_d(x, mu):
    assert lie_derivative(x, differential(mu)) == differential(lie_derivative(x, mu))


@settings(max_examples=25, deadline=None)
@given(sections(MULTIVECTOR, 1), sections(MULTIVECTOR, 2))
def test_schouten_antisymmetry(p, q):
    sign = -1 if ((p.degree - 1) * (q.degree - 1)) % 2 == 0 else 1
    assert schouten(p, q) == schouten(q, p).scale(sign)


@settings(max_examples=40, deadline=None)
@given(sections(FORM), sections(FORM), sections(MULTIVECTOR), st.integers(0, 3))
def test_equal_sections_hash_equal(s, t, u, degree):
    # zero sections of every degree are equal, so they must hash equal; the
    # memo key tells them apart, and is otherwise equality itself
    same_value = [-(-s), s + TR3.zero_section(FORM, degree), TR3.section(FORM, s.degree, s.coeffs)]
    zeros = [TR3.zero_section(variance, degree) for variance in (FORM, MULTIVECTOR)]
    candidates = [s, t, u, *same_value, *zeros]
    for a in candidates:
        for b in candidates:
            if a == b:
                assert hash(a) == hash(b)
            assert (a.key == b.key) == (a == b and a.degree == b.degree)
    for other in same_value:
        assert other == s and hash(other) == hash(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_equal_values_identical_representation(seed, scale_seed):
    rng = random.Random(seed)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        mono = tuple(rng.randrange(0, 3) for _ in TR3.coords)
        terms[mono] = Fraction(rng.randrange(-4, 5))
    num = Polynomial(TR3.coords, terms)
    den_terms = {tuple(rng.randrange(0, 2) for _ in TR3.coords): Fraction(rng.randrange(1, 4))}
    den = Polynomial(TR3.coords, den_terms)
    rng2 = random.Random(scale_seed)
    scale_terms = {}
    for _ in range(rng2.randrange(1, 3)):
        mono = tuple(rng2.randrange(0, 2) for _ in TR3.coords)
        scale_terms[mono] = Fraction(rng2.randrange(-3, 4))
    scale = Polynomial(TR3.coords, scale_terms)
    if scale.is_zero():
        return
    plain = RationalFunction(num, den)
    blown = RationalFunction(num * scale, den * scale)
    assert plain.num == blown.num and plain.den == blown.den


polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    max_size=5,
).map(lambda terms: Polynomial(TR3.coords, terms))


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_polynomial_representation_is_canonical(p, q):
    # the terms view round-trips, and equal values share one representation
    assert Polynomial(TR3.coords, p.terms) == p
    for value, again in ((p + q - q, p), (p * q, Polynomial(TR3.coords, dict((p * q).terms)))):
        assert (value.content, value.prim) == (again.content, again.prim)
        assert value == again and hash(value) == hash(again)
    if p.is_zero():
        assert p.content == 0 and not p.prim
        return
    # an integer primitive part with a positive leading coefficient; the
    # content carries the sign of the grlex-leading coefficient
    assert all(type(c) is int for c in p.prim.values())
    assert math.gcd(*p.prim.values()) == 1 and p.prim[max(p.prim)] > 0
    lead = p.terms[max(p.terms, key=lambda m: (sum(m), m))]
    assert (p.content > 0) == (lead > 0)
    assert (-p).content == -p.content and (-p).prim == p.prim
    # the content is held as a reduced int pair with a positive denominator
    assert p.cden > 0 and math.gcd(p.cnum, p.cden) == 1 and p.content == Fraction(p.cnum, p.cden)


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, st.integers(0, 2))
def test_polynomial_ops_match_sympy(p, q, index):
    sp, sq = sympy_poly(p.terms, 3), sympy_poly(q.terms, 3)
    assert dict((p + q).terms) == sympy_terms(sp + sq)
    assert dict((p * q).terms) == sympy_terms(sp * sq)
    assert dict(p.derivative(index).terms) == sympy_terms(sp.diff(sp.gens[index]))
    factor = Fraction(index - 1, index + 2)
    assert dict(p.scale(factor).terms) == sympy_terms(sp * sympy_poly({(0, 0, 0): factor}, 3))


def fields(rf):
    return rf.num.cnum, rf.num.cden, rf.num.prim, rf.den


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
def test_identity_fast_paths_match_the_general_path(p, q, c):
    # a = p/q, a nonconstant denominator included; 0, 1 and units c
    a = RationalFunction(p, q if not q.is_zero() else Polynomial.const(TR3.coords, 1))
    zero, one = RationalFunction.zero(TR3.coords), RationalFunction.one(TR3.coords)
    # a sum with a zero operand is the other operand (either, if both are zero)
    assert all(s is a or s == a == zero for s in (a + zero, zero + a, a + 0, 0 + a))
    assert a * one is a and a * 1 is a and (one * a is a or a == one)
    assert a * zero == zero and zero * a == zero and a * 0 == zero
    general = RationalFunction(a.num * Polynomial.const(TR3.coords, c), a.den)
    constant = RationalFunction.const(TR3.coords, c)
    for product in (a * constant, constant * a, a * c, c * a):
        assert fields(product) == fields(general)


# the draws the sampler makes: a constant in -2..2, a degree in 0..max_degree,
# a coin, and an index into a section family of up to a few hundred members
SAMPLER_DRAWS = st.one_of(
    st.just((-2, 3)),
    st.integers(1, 40).map(lambda width: (0, width)),
    st.integers(1, 400).map(lambda width: (0, width)),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(-500, 500), st.integers()), st.lists(SAMPLER_DRAWS, max_size=60))
@example(0, [(-2, 3), (0, 3), None, (0, 120)])
def test_sampler_rng_replays_random(seed, draws):
    # SeededRng draws exactly what random.Random(seed) draws, so the sampled
    # families, and every record, stay those of the random module
    ours, reference = SeededRng(seed), random.Random(seed)
    for draw in draws:
        if draw is None:
            assert ours.random() == reference.random()
        else:
            assert ours.randrange(*draw) == reference.randrange(*draw)


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(1, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 2))
def test_random_sections_replay_the_documented_draws(seed, rank, n, samples, max_degree):
    # every sampled family (Courant sections, check-qlb's vector pairs) reads
    # random_sections, so its draws are the records' draws
    coords = tuple(f"x{a + 1}" for a in range(n))
    zero = RationalFunction.zero(coords)
    A = AlgebroidPresentation(coords, rank, ((zero,) * n,) * rank, {})
    got = random_sections(A, seed, samples, max_degree)
    assert got == random_sections_reference(A, seed, samples, max_degree)


# -- the Dorfman kernel against the calculus composition --------------------


@st.composite
def chart_coefficients(draw, coords, nonzero=False):
    """0 (unless ``nonzero``), a polynomial of degree <= 2 or 1/(c + x1) on
    ``coords``."""
    kind = draw(st.sampled_from(("poly", "poly", "pole") if nonzero else ("zero", "poly", "poly", "pole")))
    if kind == "zero":
        return RationalFunction.zero(coords)
    if kind == "pole":
        return 1 / (RationalFunction.coord(coords, "x1") + draw(st.integers(1, 3)))
    out = RationalFunction.const(coords, draw(st.integers(1, 2) if nonzero else coeff))
    for name in coords:
        if draw(st.booleans()):
            out = out + RationalFunction.coord(coords, name) ** draw(st.integers(1, 2)) * draw(coeff)
    return out


@st.composite
def chart_poles(draw, coords, nonzero=False):
    """A ``chart_coefficients`` draw, or m / L^k as on the rational charts:
    L = c + a*x1 with c in 1..3 and a in +-1..3, k in 1..3, m in -3..3
    (nonzero if asked)."""
    if draw(st.booleans()):
        return draw(chart_coefficients(coords, nonzero))
    x1 = RationalFunction.coord(coords, "x1")
    L = x1 * draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) + draw(st.integers(1, 3))
    m = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)) if nonzero else st.integers(-3, 3))
    return m / L ** draw(st.integers(1, 3))


@st.composite
def anchored_brackets(draw, coords, rank, coefficients=chart_coefficients):
    """Anchor and structure functions drawn freely: the bracket formula is
    an identity of the data, so no axiom is needed for the comparison."""
    anchor = tuple(tuple(draw(coefficients(coords)) for _ in coords) for _ in range(rank))
    structure = {
        pair: tuple(enumerate(draw(coefficients(coords)) for _ in range(rank)))
        for pair in combinations(range(rank), 2)
    }
    return AlgebroidPresentation(coords, rank, anchor, structure)


@st.composite
def split_doubles(draw, coords, rank, coefficients=chart_coefficients):
    base = draw(anchored_brackets(coords, rank, coefficients))
    dual = draw(anchored_brackets(coords, rank, coefficients))
    top = [(0, 1, 2)] if rank == 3 else []
    x3 = base.section(MULTIVECTOR, 3, {idx: draw(coefficients(coords, True)) for idx in top})
    psi = base.section(FORM, 3, {idx: draw(coefficients(coords, True)) for idx in top})
    return CourantDouble(base, dual, x3, psi)


@st.composite
def courant_halves(draw, E, variance, coefficients=chart_coefficients):
    if draw(st.integers(0, 3)) == 0:
        return E.base.zero_section(variance, 1)
    coords = E.base.coords
    return E.base.section(variance, 1, {(i,): draw(coefficients(coords)) for i in range(E.rank)})


@st.composite
def dorfman_cases(draw):
    kind = draw(st.sampled_from(("plain", "plain", "conjugate", "product")))
    if kind == "product":
        # two one-coordinate factors; the second factor's x1 is renamed
        r1 = draw(st.integers(1, 2))
        E1 = draw(split_doubles(("x1",), r1))
        E2 = draw(split_doubles(("x1",), draw(st.integers(1, 3 - r1))))
        E = product(E1, conjugate(E2) if draw(st.booleans()) else E2)
    else:
        coords = draw(st.sampled_from((("x1",), ("x1", "x2"))))
        E = draw(split_doubles(coords, draw(st.integers(1, 3))))
        if kind == "conjugate":
            E = conjugate(E)
    e1, e2 = (
        CourantSection(draw(courant_halves(E, MULTIVECTOR)), draw(courant_halves(E, FORM)))
        for _ in range(2)
    )
    return E, e1, e2


@st.composite
def factor_pairs(draw):
    """Two ``split_doubles`` of rank 1-2, each conjugated or not, on charts
    that share ``x1``: the second factor's coordinates are renamed, twice
    over when the first chart also has ``x1_b``."""
    factors = []
    for _ in range(2):
        coords = draw(st.sampled_from((("x1",), ("x1", "x2"), ("x1", "x1_b"))))
        E = draw(split_doubles(coords, draw(st.integers(1, 2))))
        factors.append(conjugate(E) if draw(st.booleans()) else E)
    return factors


@settings(max_examples=40, deadline=None)
@given(factor_pairs())
def test_product_matches_the_dense_transport(pair):
    E, renames = product_with_renaming(*pair)
    assert (E.base, E.dual, renames) == dense_product(*pair)


def exact_section(s):
    return s.parent, s.variance, s.degree, {idx: fields(c) for idx, c in s.coeffs.items()}


@settings(max_examples=100, deadline=None)
@given(dorfman_cases())
def test_dorfman_kernel_matches_the_calculus(case):
    E, e1, e2 = case
    got, want = dorfman(E, e1, e2), dorfman_by_calculus(E, e1, e2)
    assert exact_section(got.vec) == exact_section(want.vec)
    assert exact_section(got.cov) == exact_section(want.cov)


@st.composite
def oracle_cases(draw):
    """A split double of rank 1-3, conjugated or not, and two sections, with
    every coefficient a ``chart_poles`` draw."""
    coords = draw(st.sampled_from((("x1",), ("x1", "x2"))))
    E = draw(split_doubles(coords, draw(st.integers(1, 3)), chart_poles))
    if draw(st.booleans()):
        E = conjugate(E)
    e1, e2 = (
        CourantSection(draw(courant_halves(E, MULTIVECTOR, chart_poles)), draw(courant_halves(E, FORM, chart_poles)))
        for _ in range(2)
    )
    return E, e1, e2


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_dorfman_matches_the_raw_data_oracle(case):
    # the stored normal form is read raw, a conjugate's included
    E, e1, e2 = case
    raw = raw_double(E)
    halves = [(raw[0].coefficients(e.vec), raw[0].coefficients(e.cov)) for e in (e1, e2)]
    vec, cov = dorfman_oracle(*raw, *halves)
    got = dorfman(E, e1, e2)
    assert raw[0].coefficients(got.vec) == {k: c for k, c in vec.items() if c}
    assert raw[0].coefficients(got.cov) == {k: c for k, c in cov.items() if c}


def to_conjugate(e):
    """The section X + a of a double as one of its conjugate: X - a."""
    return CourantSection(e.vec, -e.cov)


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_conjugate_is_the_transport_of_the_double(case):
    # conjugate is an involution on the data, and X + a -> X - a takes the
    # bracket and anchor of E to those of conj(E) and its pairing to minus
    E, e1, e2 = case
    Ec = conjugate(E)
    assert conjugate(Ec) == E
    t1, t2 = to_conjugate(e1), to_conjugate(e2)
    assert dorfman(Ec, t1, t2) == to_conjugate(dorfman(E, e1, e2))
    assert anchor_field(Ec, t1) == anchor_field(E, e1)
    assert pairing_sections(Ec, t1, t2) == -pairing_sections(E, e1, e2)


@st.composite
def frame_changes(draw):
    """A standard, twisted or general split double of rank 2-3, two
    sections, and a constant invertible matrix M with entries in -2..2."""
    coords = draw(st.sampled_from((("x1",), ("x1", "x2"))))
    rank = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("standard", "twisted", "split")))
    if kind == "split":
        E = draw(split_doubles(coords, rank))
    else:
        A = draw(anchored_brackets(coords, rank))
        top = {(0, 1, 2): draw(chart_coefficients(coords, True))} if kind == "twisted" and rank == 3 else {}
        E = twisted_double(A, A.section(FORM, 3, top))
    e1, e2 = (
        CourantSection(draw(courant_halves(E, MULTIVECTOR)), draw(courant_halves(E, FORM))) for _ in range(2)
    )
    M = [[Fraction(draw(st.integers(-2, 2))) for _ in range(rank)] for _ in range(rank)]
    assume(det(M) != 0)
    return E, e1, e2, M


@settings(max_examples=30, deadline=None)
@given(frame_changes())
def test_dorfman_is_frame_change_equivariant(case):
    # bracket then map equals map then bracket, in the frame e'_i = sum_j M_ji e_j
    E, e1, e2, M = case
    E2, to_new = reframe_double(E, M)
    assert to_new(dorfman(E, e1, e2)) == dorfman(E2, to_new(e1), to_new(e2))


def test_check_axioms_verdicts_survive_a_frame_change():
    # corrupted_so3 fails jacobi, so a verdict that flips to pass shows too
    M = {2: [[2, 1], [1, 1]], 3: [[1, 1, 0], [0, 1, 1], [1, 0, 2]]}
    for name in ("so3", "aff1", "tr2_triangular", "corrupted_so3"):
        text = (CORPUS / f"{name}.alg").read_text(encoding="utf-8")
        for A in parse(text).algebroids.values():
            before = [(c.name, c.passed) for c in check_axioms(A).clauses]
            after = check_axioms(reframe_presentation(A, [[Fraction(c) for c in row] for row in M[A.rank]]))
            assert [(c.name, c.passed) for c in after.clauses] == before, name


@st.composite
def residue_cases(draw):
    """A ``dorfman_cases`` draw, a third section, a function and a kappa."""
    E, e1, e2 = draw(dorfman_cases())
    e3 = CourantSection(draw(courant_halves(E, MULTIVECTOR)), draw(courant_halves(E, FORM)))
    f = draw(chart_coefficients(E.base.coords))
    return E, e1, e2, e3, f, E.base.scalar(draw(st.sampled_from(("1/2", "1", "0", "-3/2"))))


@settings(max_examples=40, deadline=None)
@given(residue_cases())
def test_component_residues_match_section_arithmetic(case):
    # the C1, C2 and C5 residues as verify_courant_axioms sums them, against
    # lhs - rhs in section arithmetic, by exact key: zero residues included
    E, e1, e2, e3, f, factor = case
    lhs = dorfman(E, e1, dorfman(E, e2, e3))
    rhs1, rhs2 = dorfman(E, dorfman(E, e1, e2), e3), dorfman(E, e2, dorfman(E, e1, e3))
    square, ee = d_operator(E, pairing_sections(E, e1, e1)), dorfman(E, e1, e1)
    fe2, rho, e12 = e2.scale(f), rho_apply_section(E, e1, f), dorfman(E, e1, e2)
    leibniz = dorfman(E, e1, fe2)
    pairs = (
        (((1, None, lhs), (-1, None, rhs1), (-1, None, rhs2)), lhs - (rhs1 + rhs2)),
        (((1, None, ee), (-1, factor, square)), ee - square.scale(factor)),
        (((1, None, leibniz), (-1, f, e12), (-1, rho, e2)), leibniz - (e12.scale(f) + e2.scale(rho))),
    )
    for terms, want in pairs:
        assert _residue(E, terms).key == want.key


# -- Schouten and d against the engine-free reference -------------------------


@st.composite
def calculus_cases(draw):
    """Drawn anchored data of rank 1-3 and, for the degrees p, q and every
    form degree up to the rank, sections with drawn coefficients."""
    coords = draw(st.sampled_from((("x1",), ("x1", "x2"))))
    rank = draw(st.integers(1, 3))
    A = draw(anchored_brackets(coords, rank))

    def section(variance, degree):
        idx = combinations(range(rank), degree)
        return A.section(variance, degree, {I: draw(chart_coefficients(coords)) for I in idx})

    p, q = draw(st.integers(0, rank)), draw(st.integers(0, rank))
    forms = [section(FORM, k) for k in range(rank + 1)]
    return A, section(MULTIVECTOR, p), section(MULTIVECTOR, q), forms


@settings(max_examples=80, deadline=None)
@given(calculus_cases())
def test_schouten_and_d_match_the_raw_data_oracle(case):
    A, P, Q, forms = case
    raw = RawAlgebroid(A)
    expected = schouten_oracle(raw, raw.coefficients(P), raw.coefficients(Q))
    assert matches_oracle(raw, schouten(P, Q), expected)
    for mu in forms:
        assert matches_oracle(raw, differential(mu), cartan_d_oracle(raw, raw.coefficients(mu), mu.degree))
