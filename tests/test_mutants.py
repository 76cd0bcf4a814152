"""A standing mutant gate: named source mutations of the package, each run
against the property that must kill it.

A mutation replaces one snippet of a module's source text, which must occur
exactly once, in memory.  The text is compiled into a fresh module object
that imports its sibling modules, unmutated, from the package; no file is
written.  Every property builds its own presentations and doubles, so no
memo cache filled by the unmutated code can answer for the mutant.

A surviving mutant fails ``test_mutant_is_killed[<name>]``, and so does a
mutation whose snippet no longer occurs exactly once, so the list follows
the code.  ``test_property_holds_unmutated`` runs every property on the
package itself, where it must hold.  A kernel change adds its mutants here.
"""

import pathlib
import random
import types
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid_forge import calculus, courant, paired, pn, rational
from algebroid_forge.calculus import FORM, MULTIVECTOR
from algebroid_forge.errors import HypothesisNotSatisfied
from algebroid_forge.rational import RationalFunction

from oracles import (
    RawAlgebroid,
    apply_by_contraction,
    cartan_d_oracle,
    dense_product,
    dorfman_by_calculus,
    dorfman_oracle,
    identity_morphism,
    lie_algebra_presentation,
    matches_oracle,
    random_sections_reference,
    raw_double,
    schouten_oracle,
)
from test_courant import QLB_FILES, corpus_qlbs, split_dirac_mismatches
from test_paired import equivalence_failures, paired_parts
from test_rational import deferred_sum_property, shape_property

SRC = pathlib.Path(calculus.__file__).resolve().parent
COORDS = ("x1", "x2")


def compile_mutant(module: str, old: str, new: str) -> types.ModuleType:
    path = SRC / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"the snippet occurs {text.count(old)} times in {module}.py: {old!r}"
    fresh = types.ModuleType(f"algebroid_forge.{module}")
    fresh.__package__ = "algebroid_forge"
    exec(compile(text.replace(old, new), str(path), "exec"), fresh.__dict__)
    return fresh


# -- seeded data ---------------------------------------------------------------


def seeded_coefficient(rng: random.Random) -> RationalFunction:
    """A nonzero polynomial of degree <= 2 on COORDS, seeded."""
    out = RationalFunction.const(COORDS, rng.choice((-2, -1, 1, 2)))
    for name in COORDS:
        out = out + RationalFunction.coord(COORDS, name) ** rng.randrange(1, 3) * rng.randrange(-2, 3)
    return out


def seeded_data(seed: int, rank: int = 3):
    """(anchor, structure) with every entry nonzero."""
    rng = random.Random(seed)
    anchor = tuple(tuple(seeded_coefficient(rng) for _ in COORDS) for _ in range(rank))
    structure = {
        pair: tuple((k, seeded_coefficient(rng)) for k in range(rank)) for pair in combinations(range(rank), 2)
    }
    return anchor, structure


def seeded_section(A, variance: str, degree: int, seed: int):
    rng = random.Random(seed)
    return A.section(variance, degree, {I: seeded_coefficient(rng) for I in combinations(range(A.rank), degree)})


# -- properties ------------------------------------------------------------------
# Each takes the module under test (the package's own or a mutant) and
# returns a list of failures; an empty list means the property holds.


SCHOUTEN_DEGREES = ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2))
_CALCULUS_EXPECTED = []


def calculus_expected(raw, A):
    """The oracle's Schouten brackets and differentials of ``calculus_sections``,
    computed once: the seeded data are the same for every module."""
    if not _CALCULUS_EXPECTED:
        schoutens, forms = calculus_sections(A)
        _CALCULUS_EXPECTED.append(
            [schouten_oracle(raw, raw.coefficients(P), raw.coefficients(Q)) for P, Q in schoutens]
        )
        _CALCULUS_EXPECTED.append([cartan_d_oracle(raw, raw.coefficients(mu), mu.degree) for mu in forms])
    return _CALCULUS_EXPECTED


def calculus_sections(A):
    schoutens = [
        (seeded_section(A, MULTIVECTOR, p, 10 + p), seeded_section(A, MULTIVECTOR, q, 20 + q))
        for p, q in SCHOUTEN_DEGREES
    ]
    return schoutens, [seeded_section(A, FORM, k, 30 + k) for k in range(3)]


def calculus_property(calc) -> list[str]:
    """Section subtraction inverts addition, and Schouten at the degrees
    SCHOUTEN_DEGREES and d in degrees 0-2 agree with the raw-data oracle on
    rank-3 data with every entry nonzero.  Stops at the first failure."""
    A = calc.AlgebroidPresentation(COORDS, 3, *seeded_data(1))
    P, Q = seeded_section(A, FORM, 2, 40), seeded_section(A, FORM, 2, 41)
    if (P - Q) + Q != P or not (P - P).is_zero():
        return ["subtraction"]
    raw = RawAlgebroid(A)
    schouten_expected, d_expected = calculus_expected(raw, A)
    schoutens, forms = calculus_sections(A)
    for (P, Q), expected in zip(schoutens, schouten_expected):
        if not matches_oracle(raw, calc.schouten(P, Q), expected):
            return [f"schouten of degrees {P.degree}, {Q.degree}"]
    for mu, expected in zip(forms, d_expected):
        if not matches_oracle(raw, calc.differential(mu), expected):
            return [f"d in degree {mu.degree}"]
    return []


def presentation_equality_property(calc) -> list[str]:
    """A presentation's structure spelled with an explicit zero entry or an
    empty row equals, with an equal hash, the one spelled without."""
    x, zero = RationalFunction.coord(COORDS, "x1"), RationalFunction.zero(COORDS)
    anchor = tuple(tuple(seeded_coefficient(random.Random(i)) for _ in COORDS) for i in range(3))
    bare = calc.AlgebroidPresentation(COORDS, 3, anchor, {(0, 2): ((1, x),)})
    failures = []
    for label, structure in (
        ("an explicit zero entry", {(0, 2): ((1, x), (2, zero))}),
        ("an empty row", {(0, 1): (), (0, 2): ((1, x),)}),
    ):
        P = calc.AlgebroidPresentation(COORDS, 3, anchor, structure)
        if P != bare or hash(P) != hash(bare):
            failures.append(f"structure with {label}")
    return failures


DORFMAN_SEEDS = (2, 3)


def dorfman_case(seed: int, double_type):
    """A rank-3 double with nonzero x3 and psi, every structure entry
    nonzero, and two sections with all four halves nonzero."""
    base = calculus.AlgebroidPresentation(COORDS, 3, *seeded_data(seed))
    dual = calculus.AlgebroidPresentation(COORDS, 3, *seeded_data(seed + 100))
    x3 = seeded_section(base, MULTIVECTOR, 3, seed + 200)
    psi = seeded_section(base, FORM, 3, seed + 300)
    e1, e2 = (
        courant.CourantSection(seeded_section(base, MULTIVECTOR, 1, s), seeded_section(base, FORM, 1, s + 1))
        for s in (seed + 400, seed + 500)
    )
    return double_type(base, dual, x3, psi), e1, e2


_DORFMAN_EXPECTED = {}


def dorfman_property(mod) -> list[str]:
    """Both orders of the Dorfman bracket of two generic sections agree
    with its composition from the calculus (``oracles.dorfman_by_calculus``)."""
    failures = []
    for seed in DORFMAN_SEEDS:
        if seed not in _DORFMAN_EXPECTED:
            E, e1, e2 = dorfman_case(seed, courant.CourantDouble)
            _DORFMAN_EXPECTED[seed] = [dorfman_by_calculus(E, e1, e2), dorfman_by_calculus(E, e2, e1)]
        E, e1, e2 = dorfman_case(seed, mod.CourantDouble)
        if [mod.dorfman(E, e1, e2), mod.dorfman(E, e2, e1)] != _DORFMAN_EXPECTED[seed]:
            failures.append(f"dorfman at seed {seed}")
    return failures


def chart_case(seed: int, double_type):
    """A rank-3 double and two sections as ``dorfman_case``, with each
    anchor, structure, x3 and psi entry and each section coefficient divided
    by L^k, L = 2 + 3*x1 and k in 0..2 seeded: the poles of the rational
    charts."""
    rng = random.Random(seed + 600)
    L = RationalFunction.coord(COORDS, "x1") * 3 + 2

    def poled(c):
        return c / L ** rng.randrange(3)

    def presentation(anchor, structure):
        anchor = tuple(tuple(poled(c) for c in row) for row in anchor)
        structure = {pair: tuple((k, poled(c)) for k, c in row) for pair, row in structure.items()}
        return calculus.AlgebroidPresentation(COORDS, 3, anchor, structure)

    def section(variance, degree, s):
        plain = seeded_section(base, variance, degree, s)
        return base.section(variance, degree, {I: poled(c) for I, c in plain.coeffs.items()})

    base, dual = presentation(*seeded_data(seed)), presentation(*seeded_data(seed + 100))
    x3, psi = section(MULTIVECTOR, 3, seed + 200), section(FORM, 3, seed + 300)
    e1, e2 = (
        courant.CourantSection(section(MULTIVECTOR, 1, s), section(FORM, 1, s + 1)) for s in (seed + 400, seed + 500)
    )
    return double_type(base, dual, x3, psi), e1, e2


_ORACLE_EXPECTED = {}


def dorfman_oracle_property(mod) -> list[str]:
    """Both orders of the Dorfman bracket on ``chart_case`` data agree with
    the raw-data oracle (``oracles.dorfman_oracle``)."""
    failures = []
    for seed in DORFMAN_SEEDS:
        E, e1, e2 = chart_case(seed, mod.CourantDouble)
        raw = raw_double(E)
        if seed not in _ORACLE_EXPECTED:
            halves = [(raw[0].coefficients(e.vec), raw[0].coefficients(e.cov)) for e in (e1, e2)]
            _ORACLE_EXPECTED[seed] = [
                [{k: c for k, c in half.items() if c} for half in dorfman_oracle(*raw, *order)]
                for order in (halves, halves[::-1])
            ]
        for (x, y), expected in zip(((e1, e2), (e2, e1)), _ORACLE_EXPECTED[seed]):
            got = mod.dorfman(E, x, y)
            if [raw[0].coefficients(got.vec), raw[0].coefficients(got.cov)] != expected:
                failures.append(f"dorfman at seed {seed}")
    return failures


def residue_property(mod) -> list[str]:
    """``_residue``'s component sums equal section arithmetic on
    ``chart_case`` sections, unweighted and weighted by a factored-denominator
    function."""
    E, e1, e2 = chart_case(2, mod.CourantDouble)
    w = 1 / (RationalFunction.coord(COORDS, "x2") * 3 + 2)
    cases = (
        (((1, None, e1), (-1, None, e2)), e1 - e2),
        (((1, w, e1), (-1, None, e2), (-1, w, e2)), e1.scale(w) - e2 - e2.scale(w)),
    )
    return [f"residue {k}" for k, (terms, want) in enumerate(cases) if mod._residue(E, terms).key != want.key]


def d_star_property(pn_mod) -> list[str]:
    """d_* is a derivation: d_*(f X) = d_* f ^ X + f d_* X."""
    base = calculus.AlgebroidPresentation(COORDS, 3, *seeded_data(4))
    dual = calculus.AlgebroidPresentation(COORDS, 3, *seeded_data(5))
    Q = pn_mod.QuasiLieBialgebroid(base, dual, base.zero_section(MULTIVECTOR, 3))
    f = base.coord_rf("x1") + 1
    failures = []
    for degree in (1, 2):
        X = seeded_section(base, MULTIVECTOR, degree, 50 + degree)
        lhs = pn_mod.d_star(Q, X.scale(f))
        rhs = calculus.wedge(pn_mod.d_star(Q, f), X) + pn_mod.d_star(Q, X).scale(f)
        if lhs != rhs:
            failures.append(f"Leibniz rule in degree {degree}")
    return failures


def courant_axioms_property(mod) -> list[str]:
    """The standard double of TR2 passes verify-courant."""
    report = mod.verify_courant_axioms(mod.standard_double(calculus.tangent_algebroid(2)), samples=2)
    return [c.name for c in report.failing_clauses()]


def sampler_property(calc) -> list[str]:
    """random_sections draws what its ``random.Random`` replay draws."""
    failures = []
    for A, seed in ((calculus.tangent_algebroid(2), 7), (lie_algebra_presentation(3, {}), -4)):
        if calc.random_sections(A, seed, 3, 2) != random_sections_reference(A, seed, 3, 2):
            failures.append(f"random sections of rank {A.rank} at seed {seed}")
    return failures


def product_property(mod) -> list[str]:
    """The product of two rank-2 doubles on colliding charts, the second
    conjugated, with every anchor and structure entry nonzero, has the base,
    dual and renames of the dense reference (``oracles.dense_product``)."""
    factors = []
    for seed in (70, 72):
        base = calculus.AlgebroidPresentation(COORDS, 2, *seeded_data(seed, 2))
        dual = calculus.AlgebroidPresentation(COORDS, 2, *seeded_data(seed + 1, 2))
        x3, psi = base.zero_section(MULTIVECTOR, 3), base.zero_section(FORM, 3)
        factors.append(mod.CourantDouble(base, dual, x3, psi))
    E1, E2 = factors[0], mod.conjugate(factors[1])
    E, renames = mod.product_with_renaming(E1, E2)
    return [] if (E.base, E.dual, renames) == dense_product(E1, E2) else ["product presentations"]


def identity_graph_property(mod) -> list[str]:
    """The graph of the identity of Q, in Q x conj(Q), is Dirac for every
    qLB the corpus builds, each with a nonzero dual side."""
    failures = []
    for name in QLB_FILES:
        for q, Q in corpus_qlbs(name).items():
            report = mod.check_generalized_dirac(mod.build_morphism_graph(identity_morphism(Q.base), Q, Q))
            failures += [f"{name} {q}: {c.name}" for c in report.failing_clauses()]
    return failures


def split_dirac_property(mod) -> list[str]:
    """check_split_dirac's four conditions, read from frame data, equal the
    row-reduction reference (``oracles.split_dirac_conditions_reference``)
    in checked counts, failures and errors, on every corpus qLB, sorted
    span and coordinate hyperplane of ``test_courant.split_dirac_cases``."""
    return split_dirac_mismatches(mod)


def paired_property(mod) -> list[str]:
    """A generic seeded operator on TR2 acts as its contraction reference
    (``oracles.apply_by_contraction``) and its theorem's sharp-intertwines
    failures are pn's intertwining residues; an almost complex J on TR4
    that passes check-gc but is not integrable (torsion on vectors only)
    stops the deformed double, and the generalized complex operator of
    ``corpus/e5_gc.alg`` (N = 0, pi = e1^e2, sigma = eps1^eps2 on TR2)
    passes it."""
    A = calculus.tangent_algebroid(2)
    zero, one = A.zero_rf(), A.one_rf()
    rng = random.Random(6)
    n = tuple(tuple(seeded_coefficient(rng) for _ in range(2)) for _ in range(2))
    ops = [
        mod.PairedOperator(A, n, seeded_section(A, MULTIVECTOR, 2, 60), seeded_section(A, FORM, 2, 61)),
        # N = Id: N pi# - pi# N* vanishes, N pi# + pi# N does not
        mod.PairedOperator(
            A, ((one, zero), (zero, one)), seeded_section(A, MULTIVECTOR, 2, 62), A.zero_section(FORM, 2)
        ),
    ]
    e = courant.CourantSection(seeded_section(A, MULTIVECTOR, 1, 63), seeded_section(A, FORM, 1, 64))
    failures = []
    for k, op in enumerate(ops):
        got, want = mod.apply_operator(op, e), apply_by_contraction(op, e)
        if (got.vec, got.cov) != (want.vec, want.cov):
            failures.append(f"block action of operator {k}")
        residue = pn.intertwining(A, op.pi, op.n_matrix)
        expected = [
            (f"[{i+1},{j+1}]", str(c))
            for i, row in enumerate(residue)
            for j, c in enumerate(row)
            if not c.is_zero()
        ]
        clauses = {c.name: c for c in mod.check_theorem_pqn_from_paired(A, op).clauses}
        if clauses["sharp-intertwines"].failures != expected:
            failures.append(f"sharp-intertwines of operator {k}")
    R4 = calculus.tangent_algebroid(4)
    z, o, f = R4.zero_rf(), R4.one_rf(), R4.coord_rf("x1")
    J = ((z, -o, f, z), (o, z, z, -f), (z, z, z, -o), (z, z, o, z))
    op = mod.PairedOperator(R4, J, R4.zero_section(MULTIVECTOR, 2), R4.zero_section(FORM, 2))
    try:
        mod.build_deformed_double(courant.standard_double(R4), op)
        failures.append("non-integrable J passes the deformed-double gate")
    except HypothesisNotSatisfied as err:
        if "torsion-on-vectors" not in str(err):
            failures.append(f"gate message: {err}")
    pi, sigma = A.section(MULTIVECTOR, 2, {(0, 1): one}), A.section(FORM, 2, {(0, 1): one})
    e5 = mod.PairedOperator(A, ((zero, zero), (zero, zero)), pi, sigma)
    _, report = mod.build_deformed_double(courant.standard_double(A), e5)
    failures += [f"e5 deformed double: {c.name}" for c in report.failing_clauses()]
    return failures


def torsion_equivalence_property(mod) -> list[str]:
    """check-torsion-blocks's equivalence-consistency passes on 100 seeded
    draws of ``test_paired.paired_parts``: constant or linear operators on
    TR2 and TR3, on standard doubles and doubles twisted by d beta."""
    failures = []
    for seed in range(100):
        case = paired_parts(random.Random(seed).choice)
        failures += [f"seed {seed}: {f}" for f in equivalence_failures(mod, case)]
    return failures


def gcd_property(rat) -> list[str]:
    """gcd(f h, g h) = h for coprime f, g."""
    vars_ = ("x", "y")

    def poly(terms):
        return rat.Polynomial(vars_, {m: Fraction(c) for m, c in terms.items()})

    h = poly({(1, 0): 1, (0, 0): 1})  # x + 1
    failures = []
    for f, g in (({(0, 1): 1}, {(0, 0): 1}), ({(0, 1): 1, (0, 0): 2}, {(1, 0): 1})):
        got = rat.poly_gcd(poly(f) * h, poly(g) * h)
        if got != h:
            failures.append(f"gcd of {poly(f) * h} and {poly(g) * h} is {got}")
    return failures


def heu_property(rat) -> list[str]:
    """GCDHEU returns (h, f / h, g / h) with h the gcd in Z[x], its integer
    content kept and its leading coefficient positive: on f = 6 H A and
    g = 4 H B (gcd 2 H; H, A and B pairwise coprime, of mixed signs), and on
    f = g = P, where h comes back as f over an interpolated cofactor that
    leads negatively.  Stops at the first failure; an exception is one."""
    vars_ = ("x1", "x2", "x3")

    def ints(text):
        p = rat.parse_scalar(text, vars_).num
        return rat._times(p.prim, p.cnum)

    H, A, B = "(x1 - 2*x2 + 3)", "(x1*x2 - 5*x3 + 1)", "(x2^2 - 7*x1 - 4)"
    P = ints("576*x1^3 + 128*x1^2*x2 - 6000*x1*x2^2 - 3600*x2^3 + 108*x1^2 - 300*x1*x2 - 225*x2^2")
    cases = (
        (ints(f"6*{H}*{A}"), ints(f"4*{H}*{B}"), (ints(f"2*{H}"), ints(f"3*{A}"), ints(f"2*{B}"))),
        (P, P, (P, {0: 1}, {0: 1})),
    )
    for f, g, expected in cases:
        try:
            got = rat._heu_gcd(f, g, range(3), 3)
        except Exception as err:
            return [f"{type(err).__name__}: {err}"]
        if got != expected:
            return [f"GCDHEU of {f} and {g} is {got}"]
    return []


# -- the mutants -------------------------------------------------------------------

# the five terms of the Dorfman kernel's side helper (numbered as in the
# courant docstring) and the x3 and psi terms, each as (label, snippet,
# snippet with the term dropped, snippet with the term's sign flipped)
DORFMAN_TERMS = (
    ("own-structure", "_pairs_into(own, P.structure, u, v)", "pass", "_pairs_into(own, P.structure, v, u)"),
    ("own-anchor", "(own, ui, v, 1), (own, vi, u, -1), ", "", "(own, ui, v, -1), (own, vi, u, 1), "),
    ("other-anchor", ", (other, ui, t, 1), (other, vi, s, -1)", "", ", (other, ui, t, -1), (other, vi, s, 1)"),
    (
        "other-gradient",
        "_accumulate(other, i, term_product(wj, r))",
        "pass",
        "_accumulate(other, i, term_product(wj, r, -1))",
    ),
    (
        "other-structure",
        "((j, p.get(i), -sign), (i, p.get(j), sign))",
        "()",
        "((j, p.get(i), sign), (i, p.get(j), -sign))",
    ),
    ("x3", "_pairs_into(vec, x3_pairs, a, b)", "pass", "_pairs_into(vec, x3_pairs, b, a)"),
    ("psi", "_pairs_into(cov, psi_pairs, X, Y)", "pass", "_pairs_into(cov, psi_pairs, Y, X)"),
)

# name -> (module, snippet, replacement, property)
MUTANTS = {}
for label, snippet, dropped, flipped in DORFMAN_TERMS:
    MUTANTS[f"dorfman-drop-{label}"] = ("courant", snippet, dropped, dorfman_property)
    MUTANTS[f"dorfman-flip-{label}"] = ("courant", snippet, flipped, dorfman_property)
# each of the two side calls
for side, call in (
    ("base", "_side_into(vec, cov, E.base, X, Y, a, b)"),
    ("dual", "_side_into(cov, vec, E.dual, a, b, X, Y)"),
):
    MUTANTS[f"dorfman-drop-{side}-side"] = ("courant", call, "pass", dorfman_property)
MUTANTS.update(
    {
        "dorfman-no-x3-table": (
            "courant", "contractions(E.x3, MULTIVECTOR)", "{}", dorfman_property,
        ),
        "dorfman-no-psi-table": (
            "courant", "contractions(E.psi, FORM)", "{}", dorfman_property,
        ),
        "dorfman-drops-an-anchor-term": (
            "courant", "(own, vi, u, -1), ", "", dorfman_oracle_property,
        ),
        "d_star-sign": (
            "pn",
            "return retag(differential(retag(s, D.dual, FORM)), D.base, MULTIVECTOR)",
            "return -retag(differential(retag(s, D.dual, FORM)), D.base, MULTIVECTOR)",
            d_star_property,
        ),
        "C2-kappa-1": (
            "courant", "factor = E.base.scalar(kappa)", "factor = E.base.scalar(1)", courant_axioms_property,
        ),
        "residue-ignores-sign": (
            "courant",
            "(c if sign > 0 else -c) if w is None else term_product(c, w, sign)",
            "c if w is None else term_product(c, w)",
            courant_axioms_property,
        ),
        "residue-unweighted-ignores-sign": (
            "courant", "(c if sign > 0 else -c) if w is None else", "c if w is None else", residue_property,
        ),
        "C5-scaled-keyed-by-f": (
            "courant", "key = (l2, fname)", "key = fname", courant_axioms_property,
        ),
        "poly_gcd-support-too-eager": (
            "rational", "            pure.difference_update(k & y for k in a if k & rest)\n", "", gcd_property,
        ),
        "gcdheu-skips-leading-positive": (
            "rational",
            "    return (h, cff, cfg) if h[max(h)] > 0 else tuple(_times(f, -1) for f in (h, cff, cfg))",
            "    return (h, cff, cfg)",
            heu_property,
        ),
        "gcdheu-asymmetric-digits": (
            "rational", "            if digit > half:\n                digit -= x\n", "", heu_property,
        ),
        "gcdheu-drops-integer-content": (
            "rational", "return _times(h, ground), cff_, cfg_", "return h, cff_, cfg_", heu_property,
        ),
        "gcdheu-integer-gcd-is-one": (
            "rational", "h = math.gcd(a, b)", "h = 1", heu_property,
        ),
        "schouten-closed-form-sign": (
            "calculus",
            "sign = merged[0] * (-1) ** (a + b) * (1 if i < j else -1)",
            "sign = merged[0] * (1 if i < j else -1)",
            calculus_property,
        ),
        "schouten-anchor-sign": (
            "calculus",
            "term_product(f, t, sign * merged[0] * (-1) ** (p - 1 - a))",
            "term_product(f, t, sign * merged[0])",
            calculus_property,
        ),
        "d-closed-form-sign": (
            "calculus",
            "-c if merged[0] * (-1) ** a > 0 else c",
            "-c if merged[0] > 0 else c",
            calculus_property,
        ),
        "plus-ignores-sign": (
            "calculus",
            "_accumulate(coeffs, idx, rf if sign > 0 else -rf)",
            "_accumulate(coeffs, idx, rf)",
            calculus_property,
        ),
        "gradient-memo-drops-coordinate": (
            "calculus",
            'A.memo(("gradient", f, name), f.differentiate, name)',
            'A.memo(("gradient", f), f.differentiate, name)',
            calculus_property,
        ),
        "frame-table-no-anchored": (
            "calculus",
            "self.anchored = tuple(i for i, row in enumerate(anchor) if any(not c.is_zero() for c in row))",
            "self.anchored = ()",
            calculus_property,
        ),
        "structure-keeps-zero-entries": (
            "calculus",
            "for k, c in row if not c.is_zero())",
            "for k, c in row)",
            presentation_equality_property,
        ),
        "structure-keeps-empty-rows": (
            "calculus", "            if entries:\n", "            if True:\n", presentation_equality_property,
        ),
        "paired-nstar-sign": (
            "paired", "tuple(-c for c in row)", "tuple(c for c in row)", paired_property,
        ),
        "paired-apply-swaps-p-s": (
            "paired",
            "n, p, s, m = op.blocks\n    X, alpha = e.vec, e.cov",
            "n, s, p, m = op.blocks\n    X, alpha = e.vec, e.cov",
            paired_property,
        ),
        "paired-gate-covectors-only": (
            "paired",
            "blocking = [c.name for c in hypotheses.failing_clauses()]",
            "blocking = [c.name for c in hypotheses.failing_clauses() if c.name != 'torsion-on-vectors']",
            paired_property,
        ),
        "random-sections-second-map-fresh-rng": (
            "calculus",
            "        second = {(i,): random_poly(A, rng, max_degree) for i in range(A.rank)}\n",
            "        fresh = SeededRng(seed)\n"
            "        second = {(i,): random_poly(A, fresh, max_degree) for i in range(A.rank)}\n",
            sampler_property,
        ),
        "conjugate-keeps-the-dual": (
            "courant",
            "CourantDouble(E.base, negate_presentation(E.dual), E.x3, -E.psi)",
            "CourantDouble(E.base, E.dual, E.x3, -E.psi)",
            identity_graph_property,
        ),
        "product-drops-block-offset": (
            "courant", "(offset + k, _transport(", "(k, _transport(", product_property,
        ),
        "bracket-agrees-images-l2-for-e1": (
            "paired",
            "_deformed(E, op, e1, e2, images[l1], images[l2])",
            "_deformed(E, op, e1, e2, images[l2], images[l2])",
            paired_property,
        ),
        "factored-product-no-cross-cancellation": (
            "rational",
            "n1, f2 = _cancel(a.num, b.factors, coprime=a.factors)\n"
            "    n2, f1 = _cancel(b.num, a.factors, coprime=b.factors)",
            "n1, f2, n2, f1 = a.num, b.factors, b.num, a.factors",
            shape_property,
        ),
        "factored-derivative-drops-N-s": (
            "rational", "top = top * g - num * s", "top = top * g", shape_property,
        ),
        "constant-denominator-not-the-unit": (
            "rational",
            "return RationalFunction._make(num, _unit(vars))",
            "return RationalFunction._make(num, Polynomial.const(vars, 1))",
            shape_property,
        ),
        "term-sum-not-normalized": (
            "rational",
            "    return _settle(num, factors, den)\n",
            "    return _build(num, factors, den)\n",
            deferred_sum_property,
        ),
        "term-product-drops-sign": (
            "rational",
            "return (num if sign > 0 else -num), factors",
            "return num, factors",
            deferred_sum_property,
        ),
        "term-sum-groups-by-leading-monomial": (
            "rational",
            "        s = groups.get(den)\n",
            # the leading monomial of prod f^e is sum e * lead(f)
            "        den = next((d for d in groups if sum(e * max(f.prim) for f, e in d)"
            " == sum(e * max(f.prim) for f, e in den)), den)\n"
            "        s = groups.get(den)\n",
            deferred_sum_property,
        ),
        "factored-lcm-takes-the-minimum": (
            "rational", "tops = [max(v) for _, v in base]", "tops = [min(v) for _, v in base]", shape_property,
        ),
        "trial-division-stops-one-short": (
            "rational", "k = e\n            while k:\n", "k = e\n            while k > 1:\n", shape_property,
        ),
        "nonlinear-factors-merged-unchecked": (
            "rational",
            "                    if _is_linear(f, n) and _is_linear(g, n):\n",
            "                    if True:\n",
            shape_property,
        ),
        # X is read at its frame indices and restricted to P: the corpus
        # and the biconditional instances reach X on L^perp on the whole
        # chart only, so only the split-Dirac reference sees this
        "split-dirac-x-unrestricted": (
            "courant",
            "P.restrict(Q.x3.coefficient((i, j, k)))",
            "Q.x3.coefficient((i, j, k))",
            split_dirac_property,
        ),
        "paired-theorem-intertwines-n": (
            "paired",
            "residue = _block_product(A, n, p, p, m)",
            "residue = _block_product(A, n, p, p, n)",
            paired_property,
        ),
        # the twist term of vector-block-two-form read for N^2 = -Id only
        "paired-two-form-twist-assumes-square-minus-id": (
            "paired",
            "residue = residue - mat_apply(square, _phi_two_slot(phi, X, Y))",
            "residue = residue + _phi_two_slot(phi, X, Y)",
            torsion_equivalence_property,
        ),
        "paired-covector-equivalence-without-concomitant": (
            "paired",
            "C is None or cov_torsion.passed",
            "cov_torsion.passed",
            torsion_equivalence_property,
        ),
    }
)

PROPERTIES = {
    calculus_property: calculus,
    presentation_equality_property: calculus,
    dorfman_property: courant,
    dorfman_oracle_property: courant,
    residue_property: courant,
    d_star_property: pn,
    courant_axioms_property: courant,
    gcd_property: rational,
    heu_property: rational,
    paired_property: paired,
    torsion_equivalence_property: paired,
    sampler_property: calculus,
    product_property: courant,
    identity_graph_property: courant,
    split_dirac_property: courant,
    shape_property: rational,
    deferred_sum_property: rational,
}


@pytest.mark.parametrize("prop", list(PROPERTIES), ids=lambda p: p.__name__)
def test_property_holds_unmutated(prop):
    assert prop(PROPERTIES[prop]) == []


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_killed(name):
    module, old, new, prop = MUTANTS[name]
    assert prop(compile_mutant(module, old, new)), f"mutant {name} survives {prop.__name__}"
