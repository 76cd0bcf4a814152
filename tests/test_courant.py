import pathlib
import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_forge import cli, courant
from algebroid_forge.algfile import parse
from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    _partial,
    differential,
    null_presentation,
    random_poly,
    retag,
    tangent_algebroid,
    wedge,
)
from algebroid_forge.courant import (
    CourantDouble,
    CourantSection,
    GeneralizedDirac,
    SectionFamily,
    Submanifold,
    _frame_tables,
    build_morphism_graph,
    check_generalized_dirac,
    anchor_field,
    check_split_dirac,
    conjugate,
    dorfman,
    pairing_sections,
    product,
    product_with_renaming,
    qlb_double,
    rho_apply_section,
    skew_bracket,
    standard_double,
    tangent_conormal_dirac,
    twisted_double,
    verify_courant_axioms,
)
from algebroid_forge.errors import DegreeMismatch, ForgeError, ParentMismatch, VarianceMismatch
from algebroid_forge.pn import (
    QuasiLieBialgebroid,
    build_qlb_from_pqn,
    d_star,
    deformed_presentation,
    dual_bracket,
    nstar_pullback,
    qlb_from_closed3form,
    qlb_from_twisted_poisson,
)
from oracles import flip, flip_section, identity_morphism, split_dirac_conditions_reference
from test_pn import an_presentation, diag, e6_conformal, std_pi, tr4_twisted

TR2 = tangent_algebroid(2)
TR3 = tangent_algebroid(3)
TR4 = tangent_algebroid(4)
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# every qLB the corpus builds, (file, name) -> the D1-D3 instances of its identity graph
CORPUS_QLBS = {
    ("e3_pqn", "Qtgt"): 76,
    ("e3_pqn", "Qsrc"): 76,
    ("heisenberg_pn", "Q"): 58,
    ("split_dirac_tr3", "Q"): 76,
    ("tr2_conformal", "Q"): 35,
    ("twisted_poisson_r4", "Q"): 133,
}
QLB_FILES = sorted({name for name, _ in CORPUS_QLBS})


def corpus_qlbs(name):
    """The qLBs that corpus/<name>.alg builds, by the name each binds."""
    bound = cli.bind(parse((CORPUS / f"{name}.alg").read_text(encoding="utf-8")))
    return {t.binds: t.call(cli.RunConfig(), *t.values) for t in bound if t.binds}


def top_form(A):
    return A.section(FORM, 3, {(0, 1, 2): A.one_rf()})


class TestDorfman:
    def test_standard_mixed(self):
        E = standard_double(TR2)
        e1 = E.frame_section(0)
        e2 = E.coframe_section(1).scale(TR2.coord_rf("x1"))
        got = dorfman(E, e1, e2)
        assert got.vec.is_zero()
        assert got.cov == TR2.coframe(1)

    def test_standard_covectors_commute(self):
        E = standard_double(TR2)
        assert dorfman(E, E.coframe_section(0), E.coframe_section(1)).is_zero()

    def test_twisted_vector_pair(self):
        phi = top_form(TR3)
        E = twisted_double(TR3, phi)
        got = dorfman(E, E.frame_section(0), E.frame_section(1))
        assert got.vec.is_zero()
        assert got.cov == TR3.coframe(2)

    def test_qlb_double_of_closed3form_matches_twisted(self):
        phi = top_form(TR3)
        E_twisted = twisted_double(TR3, phi)
        Q = qlb_from_closed3form(TR3, phi)
        E_qlb = qlb_double(Q)
        assert flip(E_qlb) == E_twisted
        # Dorfman commutes with the flip on a sample of sections
        rng = random.Random(5)
        fam = SectionFamily(E_qlb, seed=1, samples=4, max_degree=1)
        for (l1, e1), (l2, e2) in fam.tuples(2)[:40]:
            lhs = flip_section(E_qlb, dorfman(E_qlb, e1, e2))
            rhs = dorfman(E_twisted, flip_section(E_qlb, e1), flip_section(E_qlb, e2))
            assert lhs == rhs

    def test_twisted_zero_is_standard(self):
        assert twisted_double(TR2, TR2.zero_section(FORM, 3)) == standard_double(TR2)

    def test_qlb_covector_pair_produces_three_section_term(self):
        # in the double of (A*, d_A, phi), two covector-side sections (the
        # d_i of the original chart) bracket to phi(d1, d2, -)
        phi = top_form(TR3)
        Q = qlb_from_closed3form(TR3, phi)
        E = qlb_double(Q)
        got = dorfman(E, E.coframe_section(0), E.coframe_section(1))
        assert got.cov.is_zero()
        assert retag(got.vec, TR3, FORM) == TR3.coframe(2)  # phi(d1,d2,-) = dx3


@pytest.fixture
def no_calculus_composition(monkeypatch):
    def refuse(*args):
        raise AssertionError("dorfman composed a calculus operation")

    # raising=False: a name courant no longer imports must stay unused
    for name in ("schouten", "insert", "wedge", "lie_derivative", "dual_bracket"):
        monkeypatch.setattr(courant, name, refuse, raising=False)


def degree_one(A, variance, texts):
    return A.section(variance, 1, {(i,): A.scalar(t) for i, t in texts.items()})


class TestDorfmanKernel:
    # fresh doubles, so every bracket is computed; values frozen from the
    # composition of the calculus operations (oracles.dorfman_by_calculus)

    def test_qlb_double_with_x3(self, no_calculus_composition):
        pi, phi = tr4_twisted()
        E = qlb_double(qlb_from_twisted_poisson(pi.parent, pi, phi))
        A = E.base
        assert not E.x3.is_zero()
        e1 = CourantSection(degree_one(A, MULTIVECTOR, {0: "x2", 2: "1"}), degree_one(A, FORM, {1: "x3", 3: "1"}))
        e2 = CourantSection(degree_one(A, MULTIVECTOR, {1: "x1*x4", 3: "2"}), degree_one(A, FORM, {0: "1", 2: "x1"}))
        got = dorfman(E, e1, e2)
        assert got.vec == degree_one(A, MULTIVECTOR, {
            0: "(x1 - 1)/x1",
            1: "x1^2 + x1 + 1",
            2: "(x1^3*x4 + x1^2*x4 + x1*x4 - x1 - 1)/x1^2",
        })
        assert got.cov == degree_one(A, FORM, {0: "1", 1: "(x1^2 - x1 + 1)/x1", 3: "(-x1^3*x4 - x1*x4 + 1)/x1"})

    def test_twisted_double_with_psi(self, no_calculus_composition):
        E = twisted_double(TR3, TR3.section(FORM, 3, {(0, 1, 2): TR3.scalar("x1 + 1")}))
        e1 = CourantSection(degree_one(TR3, MULTIVECTOR, {0: "x2", 1: "1"}), degree_one(TR3, FORM, {2: "x1"}))
        e2 = CourantSection(degree_one(TR3, MULTIVECTOR, {1: "x3", 2: "x1^2"}), degree_one(TR3, FORM, {0: "x2*x3"}))
        got = dorfman(E, e1, e2)
        assert got.vec == degree_one(TR3, MULTIVECTOR, {0: "-x3", 2: "2*x1*x2"})
        assert got.cov == degree_one(TR3, FORM, {
            0: "x1^3 + 2*x1^2 + x3",
            1: "-x1^3*x2 - x1^2*x2 + x2*x3",
            2: "x1*x2*x3 + x2*x3",
        })

    @pytest.mark.parametrize(
        "shape, error",
        [
            ("x3 a form", VarianceMismatch),
            ("psi a multivector", VarianceMismatch),
            ("x3 of degree 2", DegreeMismatch),
            ("dual of rank 2", ParentMismatch),
            ("covector half a multivector", VarianceMismatch),
            ("vector half a 2-vector", DegreeMismatch),
        ],
    )
    def test_malformed_doubles_and_halves_are_refused(self, shape, error):
        # the errors the composed calculus operations raised on these shapes
        one, zero3 = TR3.one_rf(), TR3.zero_section(FORM, 3)
        top, pair = {(0, 1, 2): one}, {(0, 1): one}
        E = {
            "x3 a form": CourantDouble(TR3, TR3, TR3.section(FORM, 3, top), zero3),
            "psi a multivector": CourantDouble(
                TR3, TR3, TR3.zero_section(MULTIVECTOR, 3), TR3.section(MULTIVECTOR, 3, top)
            ),
            "x3 of degree 2": CourantDouble(TR3, TR3, TR3.section(MULTIVECTOR, 2, pair), zero3),
            "dual of rank 2": CourantDouble(TR3, TR2, TR3.zero_section(MULTIVECTOR, 3), zero3),
        }.get(shape, standard_double(TR3))
        e1 = CourantSection(TR3.frame(0), TR3.coframe(1).scale(TR3.coord_rf("x1")))
        if shape == "covector half a multivector":
            e1 = CourantSection(TR3.frame(0), TR3.frame(1))
        if shape == "vector half a 2-vector":
            e1 = CourantSection(TR3.section(MULTIVECTOR, 2, pair), TR3.coframe(1))
        e2 = CourantSection(TR3.frame(1).scale(TR3.coord_rf("x2")), TR3.coframe(0))
        with pytest.raises(error):
            dorfman(E, e1, e2)


class TestSkew:
    def test_standard_example(self):
        E = standard_double(TR2)
        e1 = E.frame_section(0)
        e2 = E.coframe_section(1).scale(TR2.coord_rf("x1"))
        got = skew_bracket(E, e1, e2)
        assert got.cov == TR2.coframe(1)

    def test_restriction_to_vectors_is_bracket(self):
        E = standard_double(TR3)
        rng = random.Random(7)
        fam = SectionFamily(E, seed=2, samples=3, max_degree=1)
        from algebroid_forge.calculus import schouten

        for (l1, e1), (l2, e2) in fam.tuples(2)[:30]:
            pure1 = CourantSection(e1.vec, TR3.zero_section(FORM, 1))
            pure2 = CourantSection(e2.vec, TR3.zero_section(FORM, 1))
            got = skew_bracket(E, pure1, pure2)
            assert got.vec == schouten(e1.vec, e2.vec)

    def test_triangular_dual_bracket(self):
        Q = build_qlb_from_pqn(e6_conformal())
        E = qlb_double(Q)
        # covector side of this double is the deformed A-structure; vectors
        # are sections of A*_pi: their skew bracket is the Poisson bracket
        got = skew_bracket(E, E.frame_section(0), E.frame_section(1))
        from algebroid_forge.pn import poisson_bracket

        want = poisson_bracket(std_pi(TR2), TR2.coframe(0), TR2.coframe(1))
        assert retag(got.vec, TR2, FORM) == want

    def test_skewness(self):
        E = twisted_double(TR3, top_form(TR3))
        fam = SectionFamily(E, seed=3, samples=4, max_degree=1)
        for (l1, e1), (l2, e2) in fam.tuples(2)[:30]:
            assert (skew_bracket(E, e1, e2) + skew_bracket(E, e2, e1)).is_zero()


class TestCourantAxioms:
    def test_standard_tr2_passes_with_half(self):
        E = standard_double(TR2)
        report = verify_courant_axioms(E, kappa=Fraction(1, 2), samples=6)
        assert report.passed

    def test_standard_tr2_kappa_one_fails_c2(self):
        E = standard_double(TR2)
        report = verify_courant_axioms(E, kappa=Fraction(1), samples=6)
        assert not report.passed
        assert [c.name for c in report.failing_clauses()] == ["C2-squares"]

    def test_twisted_nonclosed_fails_c1(self):
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.coord_rf("x4")})
        E = twisted_double(TR4, phi)
        report = verify_courant_axioms(E, samples=2, max_degree=1)
        assert not report.passed
        assert "C1-leibniz-jacobi" in [c.name for c in report.failing_clauses()]

    def test_twisted_closed_passes(self):
        E = twisted_double(TR3, top_form(TR3))
        report = verify_courant_axioms(E, samples=4, max_degree=1)
        assert report.passed

    def test_qlb_double_rank4_rational(self):
        pi, phi = tr4_twisted()
        Q = qlb_from_twisted_poisson(TR4, pi, phi)
        E = qlb_double(Q)
        report = verify_courant_axioms(E, samples=2, max_degree=1)
        assert report.passed

    def test_so3_standard_double(self):
        from test_calculus import so3

        E = standard_double(so3())
        report = verify_courant_axioms(E, samples=4)
        assert report.passed

    def test_conjugate_passes(self):
        E = conjugate(standard_double(TR2))
        report = verify_courant_axioms(E, samples=4)
        assert report.passed


class TestConjugateProduct:
    def test_conjugate_negates_pairing(self):
        # eps_j of E is -eps_j of its conjugate
        E = standard_double(TR2)
        Ec = conjugate(E)
        for i in range(2):
            for j in range(2):
                lhs = pairing_sections(Ec, Ec.frame_section(i), -Ec.coframe_section(j))
                rhs = pairing_sections(E, E.frame_section(i), E.coframe_section(j))
                assert lhs == -rhs

    def test_conjugate_involution(self):
        E = twisted_double(TR3, top_form(TR3))
        assert conjugate(conjugate(E)) == E

    def test_conjugate_of_standard_is_standard(self):
        assert conjugate(standard_double(TR3)) == standard_double(TR3)

    def test_conjugate_of_twisted_negates_the_twist(self):
        phi = top_form(TR3)
        assert conjugate(twisted_double(TR3, phi)) == twisted_double(TR3, -phi)

    def test_equality_ignores_the_memo_cache(self):
        E, F = twisted_double(TR3, top_form(TR3)), twisted_double(TR3, top_form(TR3))
        dorfman(E, E.frame_section(0), E.coframe_section(1))
        assert E._cache and not F._cache
        assert E == F and E != conjugate(F)

    def test_product_of_standards_is_standard_of_product(self):
        E1 = standard_double(TR2)
        E2 = standard_double(tangent_algebroid(2, prefix="y"))
        got = product(E1, E2)
        combined = got.base
        want = standard_double(combined)
        assert got.dual == want.dual
        assert got.x3 == want.x3 and got.psi == want.psi

    def test_product_renames_colliding_coordinates(self):
        E1 = standard_double(TR2)
        E2 = standard_double(TR2)
        got, renames = product_with_renaming(E1, conjugate(E2))
        assert got.base.coords == ("x1", "x2", "x1_b", "x2_b")
        assert renames == {"x1": "x1_b", "x2": "x2_b"}

    def test_product_with_conjugate_is_courant(self):
        # the mixed product must itself satisfy the axioms: this pins the
        # transported-conjugation construction
        E1 = standard_double(TR2)
        E2 = standard_double(tangent_algebroid(2, prefix="y"))
        E = product(E1, conjugate(E2))
        report = verify_courant_axioms(E, samples=2, max_degree=1)
        assert report.passed


class TestGeneralizedDirac:
    def test_tangent_conormal_passes_when_phi_pulls_back_to_zero(self):
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        E = twisted_double(TR4, phi)
        F = tangent_conormal_dirac(E, ["x3"])
        report = check_generalized_dirac(F)
        assert report.passed

    def test_tangent_conormal_fails_when_phi_survives(self):
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        E = twisted_double(TR4, phi)
        F = tangent_conormal_dirac(E, ["x4"])
        report = check_generalized_dirac(F)
        assert not report.passed
        assert "D3-bracket-closure" in [c.name for c in report.failing_clauses()]

    def test_poisson_graph_is_dirac(self):
        # graph of pi = d1^d2: spanned by (e_i + pi#(eps_i)) wait: by
        # (pi#(eps_i) + eps_i); supported on all of M
        E = standard_double(TR2)
        P = Submanifold.coordinate_subspace(TR2.coords, ())
        from algebroid_forge.pn import pi_sharp

        pi = std_pi(TR2)
        gens = []
        for i in range(2):
            gens.append(
                (
                    f"g{i+1}",
                    CourantSection(pi_sharp(pi, TR2.coframe(i)), TR2.coframe(i)),
                )
            )
        report = check_generalized_dirac(GeneralizedDirac(E, P, gens))
        assert report.passed

    def test_nonisotropic_fails_d1(self):
        E = standard_double(TR2)
        P = Submanifold.coordinate_subspace(TR2.coords, ())
        gens = [
            ("g1", E.frame_section(0) + E.coframe_section(0)),
            ("g2", E.frame_section(1)),
        ]
        report = check_generalized_dirac(GeneralizedDirac(E, P, gens))
        assert not report.passed
        assert "D1-maximal-isotropy" in [c.name for c in report.failing_clauses()]


class TestSplitDirac:
    def instances(self):
        # The underlying algebroid of a closed-3-form QLB is the null dual,
        # so its frame corresponds to the coframe dx_i of the original chart:
        # F = L + Lperp below realizes TP + nu*P style subbundles.
        out = []
        # (a) L = span{dx3} over P = {x3=0}: Lperp = span{d1, d2}, which is
        # tangent to P and misses the phi slot: everything passes
        Q1 = qlb_from_closed3form(TR3, top_form(TR3))
        L1 = (2,)
        P1 = Submanifold.coordinate_subspace(TR3.coords, ("x3",))
        out.append(("conormal-x3", Q1, L1, P1, True))
        # (b) X = 0 Lie bialgebroid case (conformal triangular structure)
        Q2 = build_qlb_from_pqn(e6_conformal())
        L2 = (0,)
        P2 = Submanifold.coordinate_subspace(TR2.coords, ())
        out.append(("bialgebroid-P=M", Q2, L2, P2, True))
        # (c) L = span{dx1} over {x3=0}: Lperp contains d3, transverse to P
        L3 = (0,)
        out.append(("anchor-violated", Q1, L3, P1, False))
        # (d) P = M on TR4 with phi hitting all three Lperp directions
        phi4 = TR4.section(FORM, 3, {(1, 2, 3): TR4.one_rf()})
        Q4 = qlb_from_closed3form(TR4, phi4)
        L4 = (0,)
        P4 = Submanifold.coordinate_subspace(TR4.coords, ())
        out.append(("X-on-Lperp", Q4, L4, P4, False))
        # (e) same split with phi moved off the Lperp directions: passes
        phi5 = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        Q5 = qlb_from_closed3form(TR4, phi5)
        out.append(("X-off-Lperp", Q5, L4, P4, True))
        # (f) nonabelian side: so3 closed 3-form, L = span{eps3} over a point
        from test_calculus import so3

        A3 = so3()
        chi = A3.section(FORM, 3, {(0, 1, 2): A3.one_rf()})
        Q6 = qlb_from_closed3form(A3, chi)
        P6 = Submanifold.coordinate_subspace(A3.coords, ())
        out.append(("so3-conormal", Q6, L1, P6, False))
        return out

    def test_biconditional_on_all_instances(self):
        for name, Q, L, P, expected in self.instances():
            report = check_split_dirac(Q, L, P)
            bic = [c for c in report.clauses if c.name == "biconditional"][0]
            assert bic.passed, f"{name}: biconditional violated"
            four = all(
                c.passed
                for c in report.clauses
                if c.name.startswith(("1-", "2-", "3-", "4-"))
            )
            assert four == expected, f"{name}: expected {expected}, got {four}"


def split_dirac_cases():
    """(label, Q, span, P): every sorted span of every qLB the corpus builds,
    on the whole chart and on each coordinate hyperplane, each file parsed
    anew; on twisted_poisson_r4, whose X = phi is nonzero, the spans of at
    most one frame, which leave at least three frames to L^perp."""
    for name in QLB_FILES:
        for q, Q in corpus_qlbs(name).items():
            coords, rank = Q.base.coords, Q.base.rank
            for size in range(2 if name == "twisted_poisson_r4" else rank + 1):
                for span in combinations(range(rank), size):
                    for vanishing in [()] + [(c,) for c in coords]:
                        P = Submanifold.coordinate_subspace(coords, vanishing)
                        yield f"{name} {q} span {span} at {vanishing}", Q, span, P


def split_dirac_outcome(check, Q, span, P):
    """(name, checked, failures) of the four condition clauses of
    ``check(Q, span, P)``, or the error it raised, by type and message."""
    try:
        report = check(Q, span, P)
    except ForgeError as err:
        return type(err).__name__, str(err)
    return [(c.name, c.checked, c.failures) for c in report.clauses[:4]]


def split_dirac_mismatches(mod) -> list[str]:
    """The cases of ``split_dirac_cases`` where ``mod.check_split_dirac``
    and the row-reduction reference disagree."""
    return [
        label
        for label, Q, span, P in split_dirac_cases()
        if split_dirac_outcome(mod.check_split_dirac, Q, span, P)
        != split_dirac_outcome(split_dirac_conditions_reference, Q, span, P)
    ]


def test_split_dirac_conditions_match_the_row_reduction():
    # the conditions read frame data; the reference builds the brackets as
    # sections and reduces them against the spans of L and L^perp
    assert split_dirac_mismatches(courant) == []


def test_split_dirac_cases_reach_every_outcome():
    # a nonzero X on L^perp, a pole on P, and a failure of each condition
    outcomes = [split_dirac_outcome(split_dirac_conditions_reference, *case[1:]) for case in split_dirac_cases()]
    errors = [o for o in outcomes if isinstance(o, tuple)]
    reports = [o for o in outcomes if isinstance(o, list)]
    assert errors and all(o[0] == "DivisionByZero" for o in errors)
    for k, name in enumerate(("1-L-subalgebroid", "2-Lperp-closed", "3-Lperp-anchor-tangency")):
        assert any(r[k][2] for r in reports), name
    assert any(label.startswith("X(") for r in reports for label, _ in r[3][2])


class TestMorphismGraph:
    def test_identity_graph(self):
        Q = qlb_from_closed3form(TR3, top_form(TR3))
        F = build_morphism_graph(identity_morphism(Q.base), Q, Q)
        report = check_generalized_dirac(F)
        assert report.passed

    @pytest.mark.parametrize("name", QLB_FILES)
    def test_identity_graph_of_every_corpus_qlb(self, name):
        # each of these qLBs has a nonzero dual side, which the conjugate
        # factor of Q x conj(Q) must carry negated for the graph to be Dirac
        instances = {}
        for q, Q in corpus_qlbs(name).items():
            assert Q.dual.anchored or Q.dual.structure
            report = check_generalized_dirac(build_morphism_graph(identity_morphism(Q.base), Q, Q))
            assert report.passed, report.to_text()
            instances[(name, q)] = sum(c.checked for c in report.clauses)
        assert instances == {key: n for key, n in CORPUS_QLBS.items() if key[0] == name}

    def _e3_morphism(self, corrupt=False):
        AN = an_presentation()
        n = diag(AN, ["x1", "x2", "x3"])
        psi = AN.section(FORM, 3, {(0, 1, 2): AN.one_rf()})
        source = qlb_from_closed3form(AN, psi)
        base = null_presentation(AN)
        target_x = psi if corrupt else nstar_pullback(AN, n, psi)
        target = QuasiLieBialgebroid(
            base, deformed_presentation(AN, n, None, None), retag(target_x, base, MULTIVECTOR)
        )
        matrix = tuple(tuple(n[i][j] for i in range(3)) for j in range(3))
        phi = BundleMorphism(
            source.base, target.base, tuple(AN.coord_rf(c) for c in AN.coords), matrix
        )
        return phi, source, target

    def test_e3_nstar_graph_passes(self):
        phi, source, target = self._e3_morphism()
        F = build_morphism_graph(phi, source, target)
        report = check_generalized_dirac(F)
        assert report.passed

    def test_corrupted_target_fails_d3(self):
        phi, source, target = self._e3_morphism(corrupt=True)
        F = build_morphism_graph(phi, source, target)
        report = check_generalized_dirac(F)
        assert not report.passed
        assert "D3-bracket-closure" in [c.name for c in report.failing_clauses()]


# -- the calculus memo is transparent -----------------------------------------

MEMO_SOURCE = """
algebroid TR2 { base = [x1, x2]; rank = 2; anchor[1,x1] = 1; anchor[2,x2] = 1; }
algebroid TR3 {
  base = [x1, x2, x3]; rank = 3;
  anchor[1,x1] = 1; anchor[2,x2] = 1; anchor[3,x3] = 1;
}
tensor psi on TR3 form degree 3 { (1,2,3) = x1 + 1; }
tensor pi on TR2 multivector degree 2 { (1,2) = x1; }
tensor phi on TR2 form degree 3 { }
"""


MEMO_CASES = ("standard-TR2", "standard-TR3", "twisted-TR3", "qlb-TR2")


def memo_double(structure, case):
    """A double whose caches are all empty when ``structure`` is a fresh
    parse; the qlb double has a nonzero d_* (its dual side is TR2 itself)."""
    A2, A3 = structure.algebroids["TR2"], structure.algebroids["TR3"]
    t = structure.tensors
    if case == "standard-TR2":
        return standard_double(A2)
    if case == "standard-TR3":
        return standard_double(A3)
    if case == "twisted-TR3":
        return twisted_double(A3, t["psi"])
    return qlb_double(qlb_from_twisted_poisson(A2, t["pi"], t["phi"]))


WARM_SOURCE = parse(MEMO_SOURCE)  # shared by every example, so its caches fill
WARM = {case: memo_double(WARM_SOURCE, case) for case in MEMO_CASES}


def seeded_inputs(A, seed, halves):
    """Coefficients of two vector and two covector halves (zero unless their
    variance is in ``halves``) and a function, seeded."""
    rng = random.Random(seed)

    def coeffs(variance):
        if variance not in halves:
            return {}
        return {(i,): random_poly(A, rng, 2) for i in range(A.rank)}

    return coeffs(MULTIVECTOR), coeffs(FORM), coeffs(MULTIVECTOR), coeffs(FORM), random_poly(A, rng, 2)


def memoized_calls(E, inputs):
    """Calls of every memoized operation on sections of E built from
    ``inputs``, and of ``d_star``, which reads the memoized ``differential``
    and ``d_function`` of E.dual.  Halves are shared and swapped between
    calls, so a key that left out any part of an input would serve one call
    another's result."""
    A = E.base
    X, a, Y, b, f = (
        A.section(MULTIVECTOR, 1, inputs[0]),
        A.section(FORM, 1, inputs[1]),
        A.section(MULTIVECTOR, 1, inputs[2]),
        A.section(FORM, 1, inputs[3]),
        inputs[4],
    )
    # (X, a) shares a half with (X, b) and with (Y, a); the last section has
    # the coefficients of (X, a) with its halves swapped
    swapped = CourantSection(A.section(MULTIVECTOR, 1, inputs[1]), A.section(FORM, 1, inputs[0]))
    sections = [CourantSection(X, a), CourantSection(X, b), CourantSection(Y, a), swapped]
    calls = [partial(dorfman, E, e1, e2) for e1 in sections for e2 in sections]
    calls += [partial(pairing_sections, E, e1, e2) for e1 in sections for e2 in sections]
    calls += [partial(anchor_field, E, e) for e in sections]
    calls += [partial(rho_apply_section, E, e, g) for e in sections for g in (f, f * f)]
    calls += [partial(A.rho_apply, i, g) for i in range(A.rank) for g in (f, f * f)]
    calls += [partial(_partial, A, g, x) for x in A.coords for g in (f, f * f)]
    calls += [partial(d_star, E, s) for s in (f, X, Y, wedge(X, Y), A.zero_section(MULTIVECTOR, 2))]
    calls += [partial(differential, s) for s in (a, b, wedge(a, b), A.zero_section(FORM, 2))]
    calls += [partial(_frame_tables, E)]
    return calls


def exact(result):
    """A result as exact data: sections by their (variance, degree, coefficients) key."""
    if isinstance(result, CourantSection):
        return result.vec.key, result.cov.key
    return getattr(result, "key", result)


@settings(max_examples=8, deadline=None)
@given(
    case=st.sampled_from(MEMO_CASES),
    seed=st.integers(0, 2**16),
    halves=st.sampled_from([(MULTIVECTOR, FORM), (MULTIVECTOR,), (FORM,)]),
)
def test_memo_is_transparent(case, seed, halves):
    # each call on its own cold double (fresh parse, empty caches) against
    # all calls in turn on the warm double shared by every example
    inputs = seeded_inputs(WARM[case].base, seed, halves)
    expected = []
    for k in range(len(memoized_calls(WARM[case], inputs))):
        cold = memo_double(parse(MEMO_SOURCE), case)
        assert not (cold._cache or cold.base._cache or cold.dual._cache)
        expected.append(exact(memoized_calls(cold, inputs)[k]()))
    calls = memoized_calls(WARM[case], inputs)
    first = [call() for call in calls]
    assert [exact(r) for r in first] == expected
    again = [call() for call in memoized_calls(WARM[case], inputs)]
    # every repeat is a cache hit, but d_star's: it retags a cached result anew
    assert all(x is y for x, y, call in zip(again, first, calls) if call.func is not d_star)


class TestMemoKeys:
    def test_zero_sections_of_different_degrees(self):
        a, b = TR2.zero_section(MULTIVECTOR, 1), TR2.zero_section(MULTIVECTOR, 2)
        assert a == b and hash(a) == hash(b)
        assert a.key != b.key

    def test_differential_of_zero_keeps_its_degree(self):
        A = tangent_algebroid(3)
        for degree in (0, 1, 2, 3, 1, 0, 2):  # the repeats are cache hits
            got = differential(A.zero_section(FORM, degree))
            assert got.is_zero() and got.degree == degree + 1

    def test_d_star_of_zero_keeps_its_degree(self):
        E = WARM["qlb-TR2"]
        for degree in (0, 1, 2, 1, 0):
            got = d_star(E, E.base.zero_section(MULTIVECTOR, degree))
            assert got.is_zero() and got.degree == degree + 1

    def test_courant_keys_tell_halves_apart(self):
        A = TR2
        f, g = A.coord_rf("x1"), A.coord_rf("x2") + 1
        X, Y = A.section(MULTIVECTOR, 1, {(0,): f}), A.section(MULTIVECTOR, 1, {(1,): g})
        a, b = A.section(FORM, 1, {(1,): g}), A.section(FORM, 1, {(0,): f})
        zero_vec, zero_cov = A.zero_section(MULTIVECTOR, 1), A.zero_section(FORM, 1)
        # shared halves, each half alone, and (X, a) with its halves swapped: (Y, b)
        sections = [
            CourantSection(X, a), CourantSection(X, b), CourantSection(Y, a), CourantSection(Y, b),
            CourantSection(X, zero_cov), CourantSection(zero_vec, a), CourantSection(zero_vec, b),
            CourantSection(zero_vec, zero_cov),
        ]
        keys = [e.key for e in sections]
        assert len(set(keys)) == len(keys)
        e = sections[0]
        assert e.key is e.key  # built once
        assert CourantSection(X, a).key == e.key == (X.key, a.key)

    def test_dorfman_rejects_a_half_from_another_presentation(self):
        E = standard_double(tangent_algebroid(2))
        stranger = tangent_algebroid(2, prefix="y")
        e = CourantSection(E.base.frame(0), stranger.coframe(0))
        with pytest.raises(ParentMismatch):
            dorfman(E, E.frame_section(0), e)

    def test_section_of_another_double_misses_the_cache(self):
        # B has TR2's chart and brackets but a swapped anchor: its frame
        # sections have the keys of TR2's, so only the parent check keeps a
        # warm entry of E from serving them
        E = standard_double(tangent_algebroid(2))
        A = E.base
        B = AlgebroidPresentation(A.coords, A.rank, A.anchor[::-1], A.structure)
        mine, theirs = E.frame_section(0), standard_double(B).frame_section(0)
        assert (mine.vec.key, mine.cov.key) == (theirs.vec.key, theirs.cov.key)
        f = A.coord_rf("x1")
        for call in (
            lambda e: anchor_field(E, e),
            lambda e: pairing_sections(E, e, mine),
            lambda e: pairing_sections(E, mine, e),
            lambda e: rho_apply_section(E, e, f),
            lambda e: dorfman(E, e, mine),
            lambda e: dorfman(E, mine, e),
        ):
            call(mine)
            with pytest.raises(ParentMismatch):
                call(theirs)


# -- residues are summed in components, not as sections -----------------------

TR2_FILE = CORPUS / "courant_tr2.alg"
TR2_REPORTS = {
    "1/2": """[PASS] verify-courant  (kappa=1/2 max_degree=2 samples=10 seed=0)
  ok   C1-leibniz-jacobi (EVIDENCE_SAMPLED, 74 instances)
  ok   C2-squares (EVIDENCE_SAMPLED, 22 instances)
  ok   C3-pairing-invariance (EVIDENCE_SAMPLED, 74 instances)
  ok   C4-anchor-morphism (EVIDENCE_SAMPLED, 52 instances)
  ok   C5-leibniz-anchor (EVIDENCE_SAMPLED, 78 instances)""",
    "1": """[FAIL] verify-courant  (kappa=1 max_degree=2 samples=10 seed=0)
  ok   C1-leibniz-jacobi (EVIDENCE_SAMPLED, 74 instances)
  FAIL C2-squares (EVIDENCE_SAMPLED, 22 instances)
       residue[rnd0] = 0 | (4*x2 - 4)*eps1 + (4*x1 + 2)*eps2
       residue[rnd1] = 0 | (8*x1*x2 - 8*x1)*eps1 + (4*x1^2 + 8*x2 - 2)*eps2
       residue[rnd3] = 0 | (8*x1^3 - 4*x1)*eps1 + (-1)*eps2
       residue[rnd4] = 0 | (6*x1^2 + 2)*eps1
       ... 5 more
  ok   C3-pairing-invariance (EVIDENCE_SAMPLED, 74 instances)
  ok   C4-anchor-morphism (EVIDENCE_SAMPLED, 52 instances)
  ok   C5-leibniz-anchor (EVIDENCE_SAMPLED, 78 instances)""",
}


def test_residues_take_no_section_arithmetic(monkeypatch):
    # with section sums and differences made to raise, courant_tr2.alg's
    # double at seed 0 still gives its report, the kappa-1 residues included
    def forbidden(*args):
        raise AssertionError("a Courant residue was summed as sections")

    A = parse(TR2_FILE.read_text(encoding="utf-8")).algebroids["TR2"]
    monkeypatch.setattr(CourantSection, "__add__", forbidden)
    monkeypatch.setattr(CourantSection, "__sub__", forbidden)
    monkeypatch.setattr(GradedSection, "_plus", forbidden)
    for kappa, expected in TR2_REPORTS.items():
        assert verify_courant_axioms(standard_double(A), kappa=kappa, seed=0).to_text() == expected


def test_cancelling_general_denominator_residue_is_the_zero_pair():
    # the residue's terms stay unreduced until the halves are built, and
    # the halves are normalized then: a sum that cancels only over a common
    # denominator is the pair of zero halves
    E = standard_double(tangent_algebroid(2))
    A = E.base
    L = A.scalar("2 + 3*x1")
    s = CourantSection(
        A.section(MULTIVECTOR, 1, {(0,): 1 / L**2, (1,): A.scalar("x2") / L}),
        A.section(FORM, 1, {(1,): A.scalar("x1") / (L * A.scalar("1 + x2"))}),
    )
    w, v = A.scalar("x2") / L, 1 / (L * A.scalar("1 + x2"))
    twice = s.scale(A.scalar(2) / L)
    for terms in (
        ((1, None, s), (-1, None, s)),
        ((1, w, s), (-1, w, s)),
        ((1, w, s), (1, v, s), (-1, w + v, s)),
        ((1, None, twice), (-1, 1 / L, s), (-1, 1 / L, s)),
    ):
        assert courant._residue(E, terms).is_zero()
    assert courant._residue(E, ((1, w, s), (-1, v, s))).key == s.scale(w - v).key
