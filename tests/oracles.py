"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production code paths: the pairing oracle is a
permutation-expansion determinant, the differential oracle evaluates the
Cartan formula argument by argument on frame tuples, and the intertwining
oracle applies N, N* and pi# to plain ``Fraction`` vectors one definition
at a time, with nothing from ``pn``.  The bundle-map oracles (pi# on
k-forms, N* and i_N on forms, wedge^k Phi on multivectors) work on
constant coefficients, ``{increasing index tuple: Fraction}`` and
``Fraction`` matrices, and evaluate forms by determinants, with nothing
from ``pn`` or ``calculus``.  The polynomial oracles hand exponent
dictionaries to sympy and read its results back into the canonical form by
plain integer arithmetic.

The test references at the end are constructions the package itself never
needs: a Lie algebra as an algebroid over a point, the composite of two
bundle maps, the B <-> B* swap of a split double, and the Dorfman bracket
composed from the calculus operations, term by term of the formula in the
``courant`` module docstring.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

import sympy

from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    differential,
    evaluate,
    insert,
    lie_derivative,
    pairing,
    retag,
    schouten,
    vector_field,
    wedge,
)
from algebroid_forge.courant import CourantDouble, CourantSection
from algebroid_forge.pn import d_star, dual_bracket
from algebroid_forge.rational import RationalFunction


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def pairing_oracle(alphas, xs):
    """<a_1 ^ ... ^ a_k, X_1 ^ ... ^ X_k> = det <a_i, X_j> by Leibniz expansion."""
    k = len(alphas)
    A = alphas[0].parent
    total = A.zero_rf()
    for perm in permutations(range(k)):
        term = A.one_rf()
        for i in range(k):
            term = term * pairing(alphas[i], xs[perm[i]])
        total = total + term if perm_sign(perm) == 1 else total - term
    return total


def rho_of(X):
    """Apply rho(X) to a function, componentwise from the anchor."""
    comps = vector_field(X)

    def act(f):
        out = X.parent.zero_rf()
        for a, name in enumerate(X.parent.coords):
            if not comps[a].is_zero():
                out = out + comps[a] * f.differentiate(name)
        return out

    return act


def cartan_d_value(mu, frame_tuple, bracket):
    """d(mu)(X_0, ..., X_k) by the Cartan formula, for frame arguments.

    ``bracket`` maps a pair of degree-1 sections to their bracket section.
    """
    args = list(frame_tuple)
    k = len(args)
    A = mu.parent
    total = A.zero_rf()
    for t in range(k):
        others = args[:t] + args[t + 1 :]
        value = evaluate(mu, others)
        term = rho_of(args[t])(value)
        total = total + term if t % 2 == 0 else total - term
    for s in range(k):
        for t in range(s + 1, k):
            others = [a for u, a in enumerate(args) if u not in (s, t)]
            value = evaluate(mu, [bracket(args[s], args[t])] + others)
            total = total + value if (s + t) % 2 == 0 else total - value
    return total


def unit(i, rank):
    return [Fraction(int(k == i)) for k in range(rank)]


def sharp(pi, a):
    """pi#(a) = i_a pi for a covector ``a`` (a list of Fractions), with
    ``i_a(e_i ^ e_j) = a(e_i) e_j - a(e_j) e_i``."""
    out = [Fraction(0)] * len(a)
    for (i, j), c in pi.items():
        out[j] += c * a[i]
        out[i] -= c * a[j]
    return out


def det(rows):
    """Determinant of a square list of lists by the Leibniz expansion."""
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        term = Fraction(perm_sign(perm))
        for i, col in enumerate(perm):
            term *= rows[i][col]
        total += term
    return total


def form_value(mu, xs):
    """mu(X_1, ..., X_k) = sum_J mu_J det[eps^{j_s}(X_t)] for vectors ``xs``."""
    return sum((c * det([[x[j] for x in xs] for j in idx]) for idx, c in mu.items()), Fraction(0))


def _nonzero_on_tuples(rank, k, value):
    """{I: value(I)} over the increasing k-tuples I where it is nonzero."""
    out = {idx: value(idx) for idx in combinations(range(rank), k)}
    return {idx: v for idx, v in out.items() if v}


def pi_sharp_oracle(pi, mu, rank, k):
    """pi# on a k-form by its definition:
    <pi# mu, eps^I> = (-1)^k mu(pi# eps^{i_1}, ..., pi# eps^{i_k})."""
    images = [sharp(pi, unit(i, rank)) for i in range(rank)]
    return _nonzero_on_tuples(rank, k, lambda I: (-1) ** k * form_value(mu, [images[i] for i in I]))


def _columns(n):
    """N e_j for the matrix ``n`` by columns (``n[i][j]`` is the e_i part of N e_j)."""
    return [[row[j] for row in n] for j in range(len(n))]


def nstar_pullback_oracle(n, psi, k):
    """(N* psi)(e_I) = psi(N e_{i_1}, ..., N e_{i_k})."""
    cols = _columns(n)
    return _nonzero_on_tuples(len(n), k, lambda I: form_value(psi, [cols[i] for i in I]))


def insert_endomorphism_oracle(n, mu, k):
    """(i_N mu)(e_I) = sum_t mu(e_{i_1}, ..., N e_{i_t}, ..., e_{i_k})."""
    rank, cols = len(n), _columns(n)

    def value(I):
        args = [unit(i, rank) for i in I]
        return sum(
            (form_value(mu, args[:t] + [cols[i]] + args[t + 1 :]) for t, i in enumerate(I)),
            Fraction(0),
        )

    return _nonzero_on_tuples(rank, k, value)


def push_oracle(matrix, x, k):
    """(wedge^k Phi)(X) for a k-vector X: its e^J coefficient is
    sum_I X_I times the minor of Phi's matrix on rows J and columns I."""

    def value(J):
        return sum((c * det([[matrix[j][i] for i in I] for j in J]) for I, c in x.items()), Fraction(0))

    return _nonzero_on_tuples(len(matrix), k, value)


def sharp_intertwining_oracle(pi, n):
    """The nonzero entries of N pi# - pi# N* for constant coefficients, from
    the definitions alone, on plain ``Fraction`` lists.

    ``pi`` maps index pairs ``(i, j)``, ``i < j``, to the coefficient of
    ``e_i ^ e_j``; ``n`` is the matrix of N by columns (``n[i][j]`` is the
    ``e_i`` component of ``N(e_j)``).  ``pi#(a) = i_a pi`` with
    ``i_a(e_i ^ e_j) = a(e_i) e_j - a(e_j) e_i``, and ``(N* a)(X) = a(NX)``.
    Returns ``{"(Npi# - pi#N*)[k,i]": residue}``, labelled as the
    sharp-intertwines clause labels its failures: the ``e_k`` component of
    the residue at the coframe element ``eps^i`` (1-based), nonzero only.
    """
    rank = len(n)
    zero = Fraction(0)

    def apply_n(x):
        return [sum((n[k][j] * x[j] for j in range(rank)), zero) for k in range(rank)]

    def n_star(a):
        # (N* a)(e_j) = a(N e_j)
        images = [apply_n(unit(j, rank)) for j in range(rank)]
        return [sum((a[k] * y[k] for k in range(rank)), zero) for y in images]

    residues = {}
    for i in range(rank):
        eps = unit(i, rank)
        lhs = apply_n(sharp(pi, eps))
        rhs = sharp(pi, n_star(eps))
        for k in range(rank):
            if lhs[k] != rhs[k]:
                residues[f"(Npi# - pi#N*)[{k+1},{i+1}]"] = lhs[k] - rhs[k]
    return residues


def sympy_poly(terms, nvars):
    """sympy Poly over QQ in x1..x<nvars> from {exponent tuple: Fraction}."""
    symbols = sympy.symbols(f"x1:{nvars + 1}")
    coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in terms.items()}
    return sympy.Poly.from_dict(coeffs, *symbols, domain=sympy.QQ)


def sympy_terms(poly):
    """{exponent tuple: Fraction} of a sympy Poly."""
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms() if c}


def primitive_form(terms):
    """The terms scaled to integer coefficients of gcd 1 whose leading one in
    graded-lexicographic order is positive (the form of ``poly_gcd``)."""
    if not terms:
        return {}
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: int(c * den) for m, c in terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints, key=lambda m: (sum(m), m))] < 0:
        g = -g
    return {m: Fraction(c, g) for m, c in ints.items()}


def lie_algebra_presentation(rank, brackets, name=""):
    """A Lie algebra as an algebroid over a point (no coordinates, zero
    anchor); ``brackets`` maps ``(i, j)``, ``i < j``, to ``{k: c_ij^k}``."""
    coords = ()
    zero = RationalFunction.zero(coords)
    rows = []
    for i in range(rank):
        for j in range(i + 1, rank):
            row = [zero] * rank
            for k, c in brackets.get((i, j), {}).items():
                row[k] = RationalFunction.const(coords, c)
            rows.append(tuple(row))
    return AlgebroidPresentation(coords, rank, tuple(() for _ in range(rank)), tuple(rows), name=name)


def compose(outer, inner):
    """outer o inner (inner applied first): base maps substituted, matrices
    multiplied with the outer entries pulled back along the inner base map."""
    assert inner.target == outer.source
    base = tuple(inner.base_subs(f) for f in outer.base_map)
    rows = []
    for j in range(outer.target.rank):
        row = []
        for i in range(inner.source.rank):
            acc = RationalFunction.zero(inner.source.coords)
            for k in range(inner.target.rank):
                acc = acc + inner.base_subs(outer.matrix[j][k]) * inner.matrix[k][i]
            row.append(acc)
        rows.append(tuple(row))
    return BundleMorphism(inner.source, outer.target, base, tuple(rows))


def flip(E):
    """The plain double E with the roles of B and B* swapped; its sections
    swap with ``flip_section``."""
    assert not E.conjugated
    return CourantDouble(E.dual, E.base, retag(E.psi, E.dual, MULTIVECTOR), retag(E.x3, E.dual, FORM))


def flip_section(E, e):
    return CourantSection(retag(e.cov, E.dual, MULTIVECTOR), retag(e.vec, E.dual, FORM))


def dorfman_by_calculus(E, e1, e2):
    """(X+a) o (Y+b) composed from schouten, d_star, insert, lie_derivative,
    differential, dual_bracket and wedge: the reference for the frame-
    component kernel behind ``courant.dorfman``."""
    X, a = e1.vec, e1.cov
    Y, b = e2.vec, e2.cov
    vec = schouten(X, Y)
    if not a.is_zero():
        dsY = d_star(E, Y)
        vec = vec + insert(dsY, a) + d_star(E, pairing(a, Y))
    if not b.is_zero():
        vec = vec - insert(d_star(E, X), b)
    if not E.x3.is_zero() and not a.is_zero() and not b.is_zero():
        vec = vec + insert(E.x3, wedge(a, b))
    cov = dual_bracket(E, a, b)
    if not X.is_zero():
        cov = cov + lie_derivative(X, b)
    if not Y.is_zero():
        cov = cov - insert(differential(a), Y)
    if not E.psi.is_zero() and not X.is_zero() and not Y.is_zero():
        cov = cov + insert(E.psi, wedge(X, Y))
    return CourantSection(vec, cov)
