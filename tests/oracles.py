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
plain integer arithmetic; ``canonical_parts`` does so for an element of
sympy's rational function field, which sympy keeps in lowest terms.

The test references after them are constructions the package itself
never needs: a Lie algebra as an algebroid over a point, the identity
bundle map and the composite of two, the B <-> B* swap of a split double, the Dorfman
bracket composed from the calculus operations, term by term of the formula
in the ``courant`` module docstring, a presentation and a double rebuilt in
a constant change of frame, the product of two doubles built
densely from every anchor and structure entry, the seeded random sections
replayed from ``random.Random``, a paired operator applied by
contraction with pi and sigma rather than through its block matrices, and
the four split-Dirac conditions computed on sections and tested by row
reduction.

Last come references for Schouten, d and Dorfman that make no engine call
at all: sympy expressions read from a presentation's raw anchor and
structure rows, the Schouten bracket expanded by the graded Leibniz rule
and antisymmetry alone, d by the Cartan formula, and the Dorfman bracket of
a double by the ten terms of the normal form at the top of the ``courant``
module docstring, five per half, with d*Y, d*X, da and db formed as
two-forms (the kernel expands them into five terms per side instead), from
both sides' raw data and the raw x3 and psi.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import sympy

from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    derived_presentation,
    differential,
    evaluate,
    identity_matrix,
    insert,
    lie_derivative,
    mat_apply,
    pairing,
    retag,
    schouten,
    vector_field,
    wedge,
)
from algebroid_forge.courant import CourantDouble, CourantSection, _row_space, in_span, qlb_double
from algebroid_forge.pn import d_star, dual_anchor, dual_bracket, nstar_matrix
from algebroid_forge.rational import RationalFunction
from algebroid_forge.reporting import PROOF_TENSORIAL, Report


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


def polynomial_parts(terms):
    """(cnum, cden, prim) of {exponent tuple: Fraction}: the content as a
    reduced pair and the primitive part {exponent tuple: int}."""
    if not terms:
        return 0, 1, {}
    prim = primitive_form(terms)
    m = next(iter(terms))
    content = terms[m] / prim[m]
    return content.numerator, content.denominator, {k: int(c) for k, c in prim.items()}


def canonical_parts(f):
    """The parts of ``f``, an element of sympy's field ``QQ.frac_field(x1,
    ...)`` (numerator and denominator coprime), as a RationalFunction holds
    them: both divided by the denominator's graded-lexicographic leading
    coefficient, each as ``polynomial_parts``."""
    num, den = (
        {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in p.terms() if c} for p in (f.numer, f.denom)
    )
    lead = den[max(den, key=lambda m: (sum(m), m))]
    return tuple(polynomial_parts({m: c / lead for m, c in t.items()}) for t in (num, den))


def lie_algebra_presentation(rank, brackets, name=""):
    """A Lie algebra as an algebroid over a point (no coordinates, zero
    anchor); ``brackets`` maps ``(i, j)``, ``i < j``, to ``{k: c_ij^k}``."""
    coords = ()
    structure = {
        pair: tuple((k, RationalFunction.const(coords, c)) for k, c in row.items())
        for pair, row in brackets.items()
    }
    return AlgebroidPresentation(coords, rank, tuple(() for _ in range(rank)), structure, name=name)


def identity_morphism(A):
    """The identity bundle map of A, base map included."""
    return BundleMorphism(A, A, tuple(A.coord_rf(c) for c in A.coords), identity_matrix(A))


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
    """The double E with the roles of B and B* swapped; its sections swap
    with ``flip_section``."""
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


def inverse(rows):
    """The inverse of an invertible square Fraction matrix, by the adjugate."""
    n = len(rows)
    d = det(rows)

    def minor(i, j):
        return [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]

    return [[(-1) ** (i + j) * det(minor(j, i)) / d for j in range(n)] for i in range(n)]


def _scalars(P, rows):
    return tuple(tuple(P.scalar(c) for c in row) for row in rows)


def reframe_presentation(P, M):
    """P in the frame e'_i = sum_j M[j][i] e_j, for a constant invertible
    Fraction matrix M, by ``derived_presentation``: anchor rho o M, and
    [e'_i, e'_j] the Schouten bracket of the two old sections, read in the
    new frame through M^-1."""
    frames = [mat_apply(_scalars(P, M), P.frame(i)) for i in range(P.rank)]
    back = _scalars(P, inverse(M))
    return derived_presentation(P, _scalars(P, M), lambda i, j: mat_apply(back, schouten(frames[i], frames[j])))


def reframe_double(E, M):
    """(E', to_new): the double E in the frame e'_i = sum_j M[j][i] e_j of
    its vector side and the dual frame eps'^i = sum_j M^-1[i][j] eps^j of its
    covector side, x3 and psi evaluated on the new (co)frames as
    three-tensors, and the map of E's sections into E'."""
    n = E.rank
    Minv = inverse(M)
    transpose = [[Minv[j][i] for j in range(n)] for i in range(n)]
    base, dual = reframe_presentation(E.base, M), reframe_presentation(E.dual, transpose)
    frames = [mat_apply(_scalars(E.base, M), E.base.frame(i)) for i in range(n)]
    coframes = [mat_apply(_scalars(E.base, transpose), E.base.coframe(i)) for i in range(n)]

    def tensor(T, basis):
        coeffs = {}
        for I in combinations(range(n), T.degree):
            w = basis[I[0]]
            for i in I[1:]:
                w = wedge(w, basis[i])
            coeffs[I] = pairing(T, w)
        return base.section(T.variance, T.degree, coeffs)

    vec_map = _scalars(E.base, Minv)
    cov_map = _scalars(E.base, [[M[j][i] for j in range(n)] for i in range(n)])

    def to_new(e):
        return CourantSection(
            retag(mat_apply(vec_map, e.vec), base, MULTIVECTOR), retag(mat_apply(cov_map, e.cov), base, FORM)
        )

    return CourantDouble(base, dual, tensor(E.x3, coframes), tensor(E.psi, frames)), to_new


def dense_product(E1, E2):
    """(base, dual, renames2) of the product of two split doubles, built
    densely: every anchor entry and every c_ij^k of both factors, zeros
    included (the entries a factor's ``structure`` omits), transported to
    the product chart, with the second factor's coordinates renamed by
    appending ``_b`` until they are free.  The reference for
    ``courant.product_with_renaming``, which transports the nonzero entries
    of each factor only."""
    taken = set(E1.base.coords)
    renames2 = {}
    for name in E2.base.coords:
        candidate = name
        while candidate in taken:
            candidate = candidate + "_b"
        renames2[name] = candidate
        taken.add(candidate)
    coords = E1.base.coords + tuple(renames2[c] for c in E2.base.coords)
    renames1 = {c: c for c in E1.base.coords}

    def transport(rf, renames):
        values = {old: RationalFunction.coord(coords, new) for old, new in renames.items()}
        return rf.subs(values, target=coords)

    def combine(p1, p2):
        r1, r2 = p1.rank, p2.rank
        zero = RationalFunction.zero(coords)
        anchor = []
        for i in range(r1):
            row = [transport(p1.anchor[i][a], renames1) for a in range(p1.n)]
            anchor.append(tuple(row + [zero] * p2.n))
        for j in range(r2):
            row = [transport(p2.anchor[j][a], renames2) for a in range(p2.n)]
            anchor.append(tuple([zero] * p1.n + row))
        rank = r1 + r2
        structure = {}
        for i, j in combinations(range(rank), 2):
            row = [zero] * rank
            if j < r1:
                src = dict(p1.structure.get((i, j), ()))
                for k in range(r1):
                    row[k] = transport(src.get(k, zero), renames1)
            elif i >= r1:
                src = dict(p2.structure.get((i - r1, j - r1), ()))
                for k in range(r2):
                    row[r1 + k] = transport(src.get(k, zero), renames2)
            structure[(i, j)] = tuple(enumerate(row))
        return AlgebroidPresentation(coords, rank, tuple(anchor), structure)

    return combine(E1.base, E2.base), combine(E1.dual, E2.dual), renames2


def random_sections_reference(A, seed, samples, max_degree):
    """The documented draws of ``calculus.random_sections``, replayed from
    ``random.Random(seed)``: per pair, a polynomial for each frame index of
    the first map, then of the second.  A polynomial is a constant in
    [-2, 2] plus, for each coordinate in turn, a degree d in [0, max_degree]
    and, when d > 0 and a coin falls below 1/2, x^d times a constant in
    [-2, 2]."""
    rng = random.Random(seed)

    def poly():
        out = RationalFunction.const(A.coords, rng.randrange(-2, 3))
        for name in A.coords:
            d = rng.randrange(0, max_degree + 1)
            if d and rng.random() < 0.5:
                out = out + RationalFunction.coord(A.coords, name) ** d * rng.randrange(-2, 3)
        return out

    pairs = []
    for _ in range(samples):
        first = {(i,): poly() for i in range(A.rank)}
        second = {(i,): poly() for i in range(A.rank)}
        pairs.append((first, second))
    return pairs


def apply_by_contraction(op, e):
    """N(X + alpha) = (N X + pi# alpha) + (sigma_flat X - N* alpha): the
    paired operator by contraction with pi and sigma, the reference for its
    block action ``paired.apply_operator``."""
    X, alpha = e.vec, e.cov
    return CourantSection(
        mat_apply(op.n_matrix, X) + insert(op.pi, alpha),
        insert(op.sigma, X) - mat_apply(nstar_matrix(op.A, op.n_matrix), alpha),
    )


def split_dirac_conditions_reference(Q, span, P):
    """The four conditions of ``courant.check_split_dirac`` as clauses of a
    report, in their section-calculus form: the brackets of the spanning
    sections by ``schouten`` and ``dual_bracket``, each tested for
    membership in L (or L^perp) by row reduction against the unit vectors of
    its spanning sections, the anchors by ``vector_field`` and
    ``dual_anchor``, and X paired with the wedge of three L^perp sections.
    The reference for the engine's reads of the frame data."""
    E = qlb_double(Q)
    report = Report("check-split-dirac")
    l_secs = [(f"L{k+1}", E.frame_section(i)) for k, i in enumerate(span)]
    rest = [i for i in range(E.rank) if i not in span]
    p_secs = [(f"Lp{k+1}", E.coframe_section(i)) for k, i in enumerate(rest)]
    l_rows = _row_space([s.components(E.rank) for _, s in l_secs])
    p_rows = _row_space([s.components(E.rank) for _, s in p_secs])
    zeros = [E.base.zero_rf()] * E.rank

    cond1 = report.clause("1-L-subalgebroid", PROOF_TENSORIAL)
    for label, s in l_secs:
        for name, residue in P.tangency_residues(E.base, vector_field(s.vec)):
            cond1.record(f"rho({label}).{name}", residue)
    for l1, s1 in l_secs:
        for l2, s2 in l_secs:
            br = schouten(s1.vec, s2.vec)
            v = [P.restrict(br.coefficient((i,))) for i in range(E.rank)] + zeros
            cond1.record_flag(f"[{l1},{l2}]", in_span(l_rows, v), "left-L")

    cond2 = report.clause("2-Lperp-closed", PROOF_TENSORIAL)
    for l1, s1 in p_secs:
        for l2, s2 in p_secs:
            br = dual_bracket(E, s1.cov, s2.cov)
            v = zeros + [P.restrict(br.coefficient((i,))) for i in range(E.rank)]
            cond2.record_flag(f"[{l1},{l2}]*", in_span(p_rows, v), "left-Lperp")

    cond3 = report.clause("3-Lperp-anchor-tangency", PROOF_TENSORIAL)
    for label, s in p_secs:
        for name, residue in P.tangency_residues(E.base, dual_anchor(E, s.cov)):
            cond3.record(f"rho*({label}).{name}", residue)

    cond4 = report.clause("4-X-vanishes-on-Lperp", PROOF_TENSORIAL)
    cond4.record_flag("X-degree", True)
    for (l1, s1), (l2, s2), (l3, s3) in combinations(p_secs, 3):
        value = pairing(wedge(wedge(s1.cov, s2.cov), s3.cov), Q.x3)
        cond4.record(f"X({l1},{l2},{l3})", P.restrict(value))
    return report


# -- Schouten and d from raw anchor and structure data ----------------------
# Nothing below calls the engine: a presentation is read once into sympy
# expressions (its ``anchor`` rows and its ``structure`` entries, spread into
# a dense row of c_ij^k per pair i < j, zeros included), and the brackets
# follow from the Leibniz rules and the Cartan formula alone.  No Jacobi
# identity is assumed.


def sympy_rf(rf, symbols):
    """A RationalFunction as a sympy expression, from its terms."""

    def poly(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )

    return poly(rf.num) / poly(rf.den)


def field_rf(rf, field):
    """A RationalFunction as an element of sympy's field ``QQ.frac_field``
    on its coordinates, from its terms."""

    def poly(p):
        out = field.zero
        for m, c in p.terms.items():
            term = field(c.numerator) / c.denominator
            for x, e in zip(field.gens, m):
                term *= x**e
            out += term
        return out

    return poly(rf.num) / poly(rf.den)


class RawAlgebroid:
    """Anchor and structure functions of a presentation as sympy expressions
    or, with ``field``, as elements of sympy's field ``QQ.frac_field`` on
    the same coordinates, which keeps them in lowest terms."""

    def __init__(self, A, field=None):
        self.rank = A.rank
        self.symbols = tuple(sympy.Symbol(name) for name in A.coords)
        self.field = field
        self.zero = sympy.Integer(0) if field is None else field.zero
        self.anchor = [[self.value(c) for c in row] for row in A.anchor]
        self.brackets = {ij: [self.zero] * A.rank for ij in combinations(range(A.rank), 2)}
        for ij, row in A.structure.items():
            for k, c in row:
                self.brackets[ij][k] = self.value(c)

    def value(self, rf):
        return sympy_rf(rf, self.symbols) if self.field is None else field_rf(rf, self.field)

    def rho(self, i, f):
        """rho(e_i) f = sum_a rho_i^a df/dx_a."""
        if self.field is None:
            return sum((c * sympy.diff(f, x) for c, x in zip(self.anchor[i], self.symbols)), self.zero)
        return sum((c * f.diff(x) for c, x in zip(self.anchor[i], self.field.gens) if c), self.zero)

    def coefficients(self, section):
        return {idx: self.value(c) for idx, c in section.coeffs.items()}


def _sorted_frames(word):
    """(sign, increasing frame tuple) of the frame indices of a word, or None
    if one repeats."""
    frames = [a for a in word if isinstance(a, int)]
    if len(set(frames)) < len(frames):
        return None
    return perm_sign(frames), tuple(sorted(frames))


def _degree(word):
    return sum(isinstance(a, int) for a in word)


def _bracket_atoms(raw, x, y):
    """[x, y] for a frame index (degree 1) or a function (degree 0) each."""
    if isinstance(x, int) and isinstance(y, int):
        if x == y:
            return []
        (i, j), sign = ((x, y), 1) if x < y else ((y, x), -1)
        return [(sign * c, (k,)) for k, c in enumerate(raw.brackets[(i, j)]) if c != 0]
    if isinstance(x, int):
        return [(raw.rho(x, y), ())]
    if isinstance(y, int):
        return [(-raw.rho(y, x), ())]
    return []


def _bracket_words(raw, u, v):
    """[u, v] for wedge words of atoms, as (coefficient, word) terms: the
    graded Leibniz rule on the right, and graded antisymmetry to bring a
    longer left word to the right."""
    p, q = _degree(u), _degree(v)
    if len(v) > 1:
        # [u, v0 ^ w] = [u, v0] ^ w + (-1)^{(p-1) deg v0} v0 ^ [u, w]
        v0, w = v[:1], v[1:]
        sign = -1 if (p - 1) * _degree(v0) % 2 else 1
        return [(c, t + w) for c, t in _bracket_words(raw, u, v0)] + [
            (sign * c, v0 + t) for c, t in _bracket_words(raw, u, w)
        ]
    if len(u) > 1:
        # [u, v] = -(-1)^{(p-1)(q-1)} [v, u]
        sign = 1 if (p - 1) * (q - 1) % 2 else -1
        return [(sign * c, t) for c, t in _bracket_words(raw, v, u)]
    return _bracket_atoms(raw, u[0], v[0])


def schouten_oracle(raw, P, Q):
    """[P, Q] for {I: coefficient} multivectors, expanded word by word:
    f e_I is the word (f, i_1, ..., i_p)."""
    out = {}
    for I, f in P.items():
        for J, g in Q.items():
            for c, word in _bracket_words(raw, (f,) + I, (g,) + J):
                normal = _sorted_frames(word)
                if normal is not None:
                    sign, idx = normal
                    term = sign * c * sympy.Mul(*(a for a in word if not isinstance(a, int)))
                    out[idx] = out.get(idx, 0) + term
    return out


def cartan_d_oracle(raw, mu, degree):
    """d mu for a {I: coefficient} form of the given degree, on every
    increasing frame tuple K = (k_0, ..., k_degree):
    sum_t (-1)^t rho_{k_t} mu(K minus k_t)
    + sum_{s<t} (-1)^{s+t} mu([e_{k_s}, e_{k_t}], K minus {k_s, k_t})."""

    def value(frames):
        normal = _sorted_frames(frames)
        return 0 if normal is None else normal[0] * mu.get(normal[1], 0)

    out = {}
    for K in combinations(range(raw.rank), degree + 1):
        total = sympy.Integer(0)
        for t in range(degree + 1):
            total += (-1) ** t * raw.rho(K[t], mu.get(K[:t] + K[t + 1 :], sympy.Integer(0)))
        for s, t in combinations(range(degree + 1), 2):
            rest = tuple(k for u, k in enumerate(K) if u not in (s, t))
            for m, c in enumerate(raw.brackets[(K[s], K[t])]):
                total += (-1) ** (s + t) * c * value((m,) + rest)
        out[K] = total
    return out


def matches_oracle(raw, section, expected):
    """Whether an engine section has exactly the oracle's coefficients."""
    got = raw.coefficients(section)
    return all(sympy.cancel(got.get(idx, 0) - expected.get(idx, 0)) == 0 for idx in set(got) | set(expected))


# -- the Dorfman bracket from raw data ------------------------------------------
# The ten terms of the normal form in the ``courant`` module docstring, five
# per half, on RawAlgebroid data of both sides, read into sympy's rational function
# field; d*Y, d*X, da and db are the Chevalley-Eilenberg d of the side they
# belong to.  No engine call.


def _triple(T, i, j, k):
    """T(i, j, k) for a three-tensor {increasing I: value}, antisymmetric:
    the component k of i_{j} i_{i} T."""
    normal = _sorted_frames((i, j, k))
    return 0 if normal is None else normal[0] * T.get(normal[1], 0)


def _side_bracket(raw, u, v, k):
    """[u, v]_k = sum_{i<j} (u_i v_j - u_j v_i) c_ij^k
    + sum_i (u_i rho_i(v_k) - v_i rho_i(u_k))."""
    out = sum(
        ((u[i] * v[j] - u[j] * v[i]) * raw.brackets[(i, j)][k] for i, j in combinations(range(raw.rank), 2)),
        raw.zero,
    )
    return out + sum(u[i] * raw.rho(i, v[k]) - v[i] * raw.rho(i, u[k]) for i in range(raw.rank))


def _two_form(raw, u):
    """d u on the side ``raw`` as W(j, k) = rho_j(u_k) - rho_k(u_j) -
    sum_m c_jk^m u_m, with W(k, j) = -W(j, k)."""
    W = {
        (j, k): raw.rho(j, u[k])
        - raw.rho(k, u[j])
        - sum((c * u[m] for m, c in enumerate(raw.brackets[(j, k)])), raw.zero)
        for j, k in combinations(range(raw.rank), 2)
    }
    return lambda j, k: 0 if j == k else W[(j, k)] if j < k else -W[(k, j)]


def dorfman_oracle(base, dual, x3, psi, e1, e2):
    """(X+a) o (Y+b) as its ({(k,): vec_k}, {(k,): cov_k}) components, from
    the RawAlgebroid data of the vector side ``base`` and of the covector
    side ``dual``, the three-tensors ``x3`` and ``psi`` as {I: expression},
    and each section as its (vector, covector) halves {(i,): expression}."""
    n = base.rank
    (X, a), (Y, b) = ([[h.get((i,), base.zero) for i in range(n)] for h in e] for e in (e1, e2))
    dsY, dsX, da, db = _two_form(dual, Y), _two_form(dual, X), _two_form(base, a), _two_form(base, b)
    aY = sum((a[i] * Y[i] for i in range(n)), base.zero)
    bX = sum((b[i] * X[i] for i in range(n)), base.zero)
    pairs = list(combinations(range(n), 2))
    vec, cov = {}, {}
    for k in range(n):
        vec[(k,)] = (
            _side_bracket(base, X, Y, k)
            + sum(a[j] * dsY(j, k) for j in range(n))
            + dual.rho(k, aY)
            - sum(b[j] * dsX(j, k) for j in range(n))
            + sum((a[i] * b[j] - a[j] * b[i]) * _triple(x3, i, j, k) for i, j in pairs)
        )
        cov[(k,)] = (
            _side_bracket(dual, a, b, k)
            + sum(X[j] * db(j, k) for j in range(n))
            + base.rho(k, bX)
            - sum(Y[j] * da(j, k) for j in range(n))
            + sum((X[i] * Y[j] - X[j] * Y[i]) * _triple(psi, i, j, k) for i, j in pairs)
        )
    return vec, cov


def raw_double(E):
    """(base, dual, x3, psi) of a double's stored normal form, read raw into
    sympy's rational function field on the base chart."""
    field = sympy.QQ.frac_field(*sympy.symbols(E.base.coords))
    base, dual = RawAlgebroid(E.base, field), RawAlgebroid(E.dual, field)
    return base, dual, base.coefficients(E.x3), base.coefficients(E.psi)
