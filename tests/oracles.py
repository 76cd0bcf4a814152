"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production code paths: the pairing oracle is a
permutation-expansion determinant, the differential oracle evaluates the
Cartan formula argument by argument on frame tuples, and the intertwining
oracle applies N, N* and pi# to plain ``Fraction`` vectors one definition
at a time, with nothing from ``pn``.  The polynomial oracles hand exponent
dictionaries to sympy and read its results back into the canonical form by
plain integer arithmetic.
"""

import math
from fractions import Fraction
from itertools import permutations

import sympy

from algebroid_forge.calculus import evaluate, pairing, vector_field


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

    def unit(i):
        return [Fraction(int(k == i)) for k in range(rank)]

    def apply_n(x):
        return [sum((n[k][j] * x[j] for j in range(rank)), zero) for k in range(rank)]

    def n_star(a):
        # (N* a)(e_j) = a(N e_j)
        images = [apply_n(unit(j)) for j in range(rank)]
        return [sum((a[k] * y[k] for k in range(rank)), zero) for y in images]

    def sharp(a):
        out = [zero] * rank
        for (i, j), c in pi.items():
            out[j] += c * a[i]
            out[i] -= c * a[j]
        return out

    residues = {}
    for i in range(rank):
        eps = unit(i)
        lhs = apply_n(sharp(eps))
        rhs = sharp(n_star(eps))
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
