import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    check_axioms,
    d_function,
    differential,
    null_presentation,
    pairing,
    retag,
    schouten,
    tangent_algebroid,
    wedge,
)
from algebroid_forge.errors import HypothesisNotSatisfied
from algebroid_forge.pn import (
    Matrix,
    PqnStructure,
    QuasiLieBialgebroid,
    build_qlb_from_pqn,
    check_compatible,
    check_pqn,
    check_qlb,
    check_qlb_morphism,
    check_twisted_poisson,
    contraction_matrix,
    d_n,
    d_star,
    deformed_bracket,
    deformed_presentation,
    dual_presentation,
    insert_endomorphism,
    magri_morosi,
    matrix_compose,
    nijenhuis_torsion,
    nstar_matrix,
    nstar_pullback,
    pi_sharp,
    poisson_bracket,
    qlb_from_closed3form,
    qlb_from_twisted_poisson,
    twisted_bracket,
    twisted_differential,
    verify_lemma_tnstar,
)

from oracles import (
    insert_endomorphism_oracle,
    lie_algebra_presentation,
    nstar_pullback_oracle,
    pi_sharp_oracle,
    push_oracle,
    sharp_intertwining_oracle,
)

TR2 = tangent_algebroid(2)
TR3 = tangent_algebroid(3)
TR4 = tangent_algebroid(4)


def eye(A):
    return tuple(
        tuple(A.one_rf() if i == j else A.zero_rf() for i in range(A.rank))
        for j in range(A.rank)
    )


def zeros(A):
    return tuple(tuple(A.zero_rf() for _ in range(A.rank)) for _ in range(A.rank))


def diag(A, entries):
    return tuple(
        tuple(A.scalar(entries[j]) if i == j else A.zero_rf() for i in range(A.rank))
        for j in range(A.rank)
    )


def std_pi(A):
    return wedge(A.frame(0), A.frame(1))


def aff1():
    return lie_algebra_presentation(2, {(0, 1): {1: Fraction(1)}}, name="aff1")


def an_presentation():
    """TR3 deformed by N = diag(x1,x2,x3): abelian brackets, anchor diag(x)."""
    xs = [TR3.coord_rf(c) for c in TR3.coords]
    zero = TR3.zero_rf()
    anchor = tuple(tuple(xs[i] if a == i else zero for a in range(3)) for i in range(3))
    structure = tuple((zero, zero, zero) for _ in range(3))
    return AlgebroidPresentation(TR3.coords, 3, anchor, structure, name="AN")


def e3_structure():
    AN = an_presentation()
    n = diag(AN, ["x1", "x2", "x3"])
    phi = AN.section(FORM, 3, {(0, 1, 2): AN.scalar("x1*x2*x3")})
    pi0 = AN.zero_section(MULTIVECTOR, 2)
    return PqnStructure(AN, pi0, n, phi)


def e6_conformal():
    """TR2, pi = d1^d2, N = x1*Id: the compatible conformal pair."""
    n = diag(TR2, ["x1", "x1"])
    return PqnStructure(TR2, std_pi(TR2), n, TR2.zero_section(FORM, 3))


def tr4_twisted():
    """Genuine twisted Poisson with pi and phi both nonzero and pi#(phi) != 0."""
    pi = wedge(TR4.frame(0), TR4.frame(1)) + wedge(TR4.frame(2), TR4.frame(3)).scale(
        TR4.coord_rf("x1")
    )
    phi = TR4.section(FORM, 3, {(0, 2, 3): TR4.scalar("-1/x1^2")})
    return pi, phi


class TestPiSharp:
    def test_frame_images(self):
        pi = std_pi(TR2)
        assert pi_sharp(pi, TR2.coframe(0)) == TR2.frame(1)
        assert pi_sharp(pi, TR2.coframe(1)) == TR2.frame(0).scale(-1)

    def test_degree_zero_identity(self):
        pi = std_pi(TR2)
        f = TR2.function(TR2.coord_rf("x1"), FORM)
        assert pi_sharp(pi, f) == TR2.function(TR2.coord_rf("x1"))

    def test_zero_bivector(self):
        z = TR2.zero_section(MULTIVECTOR, 2)
        assert pi_sharp(z, TR2.coframe(0)).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(3)
        for _ in range(6):
            coeffs = {}
            for idx in ((0, 1), (0, 2), (1, 2)):
                coeffs[idx] = TR3.scalar(rng.randrange(-2, 3)) + TR3.coord_rf(
                    rng.choice(TR3.coords)
                ) * rng.randrange(-1, 2)
            pi = TR3.section(MULTIVECTOR, 2, coeffs)
            for i in range(3):
                for j in range(3):
                    lhs = pairing(TR3.coframe(j), pi_sharp(pi, TR3.coframe(i)))
                    rhs = pairing(TR3.coframe(i), pi_sharp(pi, TR3.coframe(j)))
                    assert (lhs + rhs).is_zero()

    def test_multiplicative_on_forms(self):
        # <pi# mu, a_1^...^a_k> = (-1)^k mu(pi#a_1, ..., pi#a_k) makes pi#
        # multiplicative; used as an independent oracle for the k-form path.
        rng = random.Random(5)
        pi = wedge(TR3.frame(0), TR3.frame(1)) + wedge(TR3.frame(1), TR3.frame(2)).scale(
            TR3.coord_rf("x3")
        )
        a = TR3.coframe(0).scale(TR3.coord_rf("x2")) + TR3.coframe(2)
        b = TR3.coframe(1) - TR3.coframe(0).scale(2)
        assert pi_sharp(pi, wedge(a, b)) == wedge(pi_sharp(pi, a), pi_sharp(pi, b))


class TestDeformedBracket:
    def test_identity_endomorphism(self):
        rng = random.Random(7)
        A = TR2
        X = A.frame(0).scale(A.coord_rf("x1")) + A.frame(1)
        Y = A.frame(1).scale(A.coord_rf("x2"))
        assert deformed_bracket(eye(A), X, Y) == schouten(X, Y)

    def test_aff1_nilpotent(self):
        A = aff1()
        n = ((A.zero_rf(), A.zero_rf()), (A.one_rf(), A.zero_rf()))  # Ne1=e2, Ne2=0
        assert deformed_bracket(n, A.frame(0), A.frame(1)).is_zero()

    def test_zero_endomorphism(self):
        A = TR2
        X, Y = A.frame(0), A.frame(1).scale(A.coord_rf("x1"))
        assert deformed_bracket(zeros(A), X, Y).is_zero()


class TestNijenhuisTorsion:
    def test_identity_torsion_free(self):
        for A in (TR2, TR3, aff1()):
            for i in range(A.rank):
                for j in range(A.rank):
                    assert nijenhuis_torsion(eye(A), A.frame(i), A.frame(j)).is_zero()

    def test_aff1_nilpotent(self):
        A = aff1()
        n = ((A.zero_rf(), A.zero_rf()), (A.one_rf(), A.zero_rf()))
        assert nijenhuis_torsion(n, A.frame(0), A.frame(1)).is_zero()

    def test_diagonal_on_tangent(self):
        n = diag(TR3, ["x1", "x2", "x3"])
        for i in range(3):
            for j in range(3):
                assert nijenhuis_torsion(n, TR3.frame(i), TR3.frame(j)).is_zero()

    def test_tensoriality(self):
        A = TR2
        n = diag(A, ["x2", "x1"])
        f = A.coord_rf("x1") * A.coord_rf("x2")
        lhs = nijenhuis_torsion(n, A.frame(0).scale(f), A.frame(1))
        rhs = nijenhuis_torsion(n, A.frame(0), A.frame(1)).scale(f)
        assert lhs == rhs


class TestPoissonBracket:
    def test_constant_data(self):
        assert poisson_bracket(std_pi(TR2), TR2.coframe(0), TR2.coframe(1)).is_zero()

    def test_zero_bivector(self):
        z = TR2.zero_section(MULTIVECTOR, 2)
        assert poisson_bracket(z, TR2.coframe(0), TR2.coframe(1)).is_zero()

    def test_df_dg_identity(self):
        # [df, dg]_pi = d(pi(df, dg)), by expansion
        rng = random.Random(11)
        pi = std_pi(TR2)
        for _ in range(6):
            f = TR2.coord_rf("x1") ** rng.randrange(1, 3) * rng.randrange(1, 3) + TR2.coord_rf("x2")
            g = TR2.coord_rf("x2") ** rng.randrange(1, 3) - TR2.coord_rf("x1") * rng.randrange(1, 3)
            df, dg = d_function(TR2, f), d_function(TR2, g)
            fg = pairing(wedge(df, dg), pi)
            assert poisson_bracket(pi, df, dg) == d_function(TR2, fg)


class TestTwistedOps:
    def test_phi_zero_reduces_to_poisson(self):
        pi = std_pi(TR3)
        z = TR3.zero_section(FORM, 3)
        for i in range(3):
            for j in range(3):
                a, b = TR3.coframe(i), TR3.coframe(j)
                assert twisted_bracket(pi, z, a, b) == poisson_bracket(pi, a, b)

    def test_pi_zero_dprime_is_d(self):
        z2 = TR3.zero_section(MULTIVECTOR, 2)
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        mu = TR3.coframe(0).scale(TR3.coord_rf("x3"))
        # d' is d_* of the qLB (A*_{pi,phi}, d', phi), read back on forms of A
        Q = qlb_from_twisted_poisson(TR3, z2, phi)
        dprime = retag(d_star(Q, retag(mu, Q.base, MULTIVECTOR)), TR3, FORM)
        assert dprime == differential(mu)

    def test_twisted_differential_on_function(self):
        pi = std_pi(TR2)
        f = TR2.function(TR2.coord_rf("x1"))
        got = twisted_differential(pi, None, f)
        # engine Schouten convention: [pi, x1] = -pi#(dx1) = -d2; the dual
        # Cartan differential of A*_pi agrees (see the generator test below)
        assert got == TR2.frame(1).scale(-1)

    def test_twisted_differential_matches_dual_cartan(self):
        # the displayed formula equals the Cartan differential of the Lie
        # algebroid A*_{pi,phi} itself (acting on multivectors of A, which
        # are forms on the dual presentation)
        cases = []
        pi3 = std_pi(TR3)
        phi3 = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        cases.append((TR3, pi3, phi3))
        pi4, phi4 = tr4_twisted()
        cases.append((TR4, pi4, phi4))
        for A, pi, phi in cases:
            dual = dual_presentation(A, pi, phi)
            for name in A.coords:
                f = A.function(A.coord_rf(name))
                lhs = twisted_differential(pi, phi, f)
                rhs = retag(d_function(dual, A.coord_rf(name)), A, MULTIVECTOR)
                assert lhs == rhs
            for i in range(A.rank):
                lhs = twisted_differential(pi, phi, A.frame(i))
                rhs = retag(differential(retag(A.frame(i), dual, FORM)), A, MULTIVECTOR)
                assert lhs == rhs


class TestTwistedPoisson:
    def test_constant_symplectic_inverse(self):
        assert check_twisted_poisson(std_pi(TR2), TR2.zero_section(FORM, 3)).passed

    def test_degenerate_pi_with_top_form_passes(self):
        # pi = d1^d2 on TR3 kills any 3-form through pi#, so the identity holds
        pi = std_pi(TR3)
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        report = check_twisted_poisson(pi, phi)
        assert report.passed

    def test_nondegenerate_pi_fails(self):
        pi = wedge(TR4.frame(0), TR4.frame(1)) + wedge(TR4.frame(2), TR4.frame(3))
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        report = check_twisted_poisson(pi, phi)
        assert not report.passed
        assert report.failing_clauses()[0].name == "twisted-poisson-identity"

    def test_zero_pi_closed_phi(self):
        z2 = TR3.zero_section(MULTIVECTOR, 2)
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.coord_rf("x1")})
        assert check_twisted_poisson(z2, phi).passed

    def test_rank4_rational_instance(self):
        pi, phi = tr4_twisted()
        report = check_twisted_poisson(pi, phi)
        assert report.passed


class TestDN:
    def test_identity_gives_d(self):
        mu = TR3.coframe(0).scale(TR3.coord_rf("x3"))
        assert d_n(TR3, eye(TR3), mu) == differential(mu)

    def test_diag_on_coordinate(self):
        n = diag(TR3, ["x1", "x2", "x3"])
        f = TR3.function(TR3.coord_rf("x1"), FORM)
        assert d_n(TR3, n, f) == TR3.coframe(0).scale(TR3.coord_rf("x1"))

    def test_zero(self):
        mu = TR3.coframe(1)
        assert d_n(TR3, zeros(TR3), mu).is_zero()

    def test_matches_deformed_cartan(self):
        # d_N = i_N d - d i_N equals the Cartan differential of (A, [.,.]_N, rho N)
        n = diag(TR3, ["x1", "x2", "x3"])
        AN = deformed_presentation(TR3, n, None, None)
        rng = random.Random(13)
        for k in (0, 1, 2):
            for _ in range(4):
                coeffs = {}
                from itertools import combinations

                for idx in combinations(range(3), k):
                    coeffs[idx] = TR3.scalar(rng.randrange(-2, 3)) + TR3.coord_rf(
                        rng.choice(TR3.coords)
                    ) * rng.randrange(-1, 2)
                mu = TR3.section(FORM, k, coeffs)
                got = d_n(TR3, n, mu)
                want = retag(differential(retag(mu, AN, FORM)), TR3, FORM)
                assert got == want


class TestNStar:
    def test_diag_multiplicative_and_derivation(self):
        n = diag(TR3, ["x1", "x2", "x3"])
        psi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        mult = nstar_pullback(TR3, n, psi)
        assert mult == psi.scale(TR3.scalar("x1*x2*x3"))
        deriv = insert_endomorphism(TR3, n, psi)
        assert deriv == psi.scale(TR3.scalar("x1+x2+x3"))

    def test_identity(self):
        psi = wedge(TR3.coframe(0), TR3.coframe(1))
        assert nstar_pullback(TR3, eye(TR3), psi) == psi
        assert insert_endomorphism(TR3, eye(TR3), psi) == psi.scale(2)

    def test_zero(self):
        psi = wedge(TR3.coframe(0), TR3.coframe(1))
        assert nstar_pullback(TR3, zeros(TR3), psi).is_zero()


class TestCompatibility:
    def test_identity_compatible(self):
        assert check_compatible(TR2, std_pi(TR2), eye(TR2)).passed

    def test_conformal_compatible(self):
        # N = f Id: C(pi, f Id) = 0 by the conformal identity
        n = diag(TR2, ["x1", "x1"])
        report = check_compatible(TR2, std_pi(TR2), n)
        assert report.passed

    def test_diag_fails_intertwining(self):
        n = diag(TR2, ["x1", "x2"])
        report = check_compatible(TR2, std_pi(TR2), n)
        assert not report.passed
        clause = [c for c in report.failing_clauses() if c.name == "sharp-intertwines"][0]
        # N pi# dx1 = x2 d2 while pi# N* dx1 = x1 d2: the [2,1] residue is x2 - x1
        failures = dict(clause.failures)
        assert failures["(Npi# - pi#N*)[2,1]"] == "-x1 + x2"
        sharp = contraction_matrix(std_pi(TR2))
        nsharp = matrix_compose(TR2, n, sharp)
        assert nsharp[1][0] == TR2.coord_rf("x2")
        other = matrix_compose(TR2, sharp, nstar_matrix(TR2, n))
        assert other[1][0] == TR2.coord_rf("x1")

    def test_rotation_not_compatible(self):
        # the rotation block satisfies N pi# = -pi# N* on the symplectic
        # TR2, never +, so it can never form a Poisson-Nijenhuis pair
        n = (
            (TR2.zero_rf(), TR2.one_rf()),
            (-TR2.one_rf(), TR2.zero_rf()),
        )
        report = check_compatible(TR2, std_pi(TR2), n)
        assert not report.passed
        names = [c.name for c in report.failing_clauses()]
        assert "np-bivector" in names or "sharp-intertwines" in names

    def test_magri_morosi_identity_operator(self):
        c = magri_morosi(TR2, std_pi(TR2), eye(TR2), TR2.coframe(0), TR2.coframe(1))
        assert c.is_zero()


# small rationals, zero half the time, so that scalar operators come up often
_entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3))


@settings(max_examples=30, deadline=None)
@given(lam=_entry, gap=_entry, upper=_entry, lower=_entry)
@example(lam=Fraction(0), gap=Fraction(0), upper=Fraction(1), lower=Fraction(-1))  # rotation
@example(lam=Fraction(2), gap=Fraction(0), upper=Fraction(0), lower=Fraction(0))
def test_constant_operator_intertwines_iff_scalar(lam, gap, upper, lower):
    # N = [[lam, upper], [lower, lam + gap]] on TR2 with pi = d1^d2: pi# is an
    # invertible antisymmetric J, and N J = J N^T forces N J = cJ, so
    # sharp-intertwines must pass exactly when N is scalar, and its residues
    # must be the oracle's, entry for entry
    fracs = [[lam, upper], [lower, lam + gap]]
    n = tuple(tuple(TR2.scalar(x) for x in row) for row in fracs)
    report = check_compatible(TR2, std_pi(TR2), n)
    clause = next(cl for cl in report.clauses if cl.name == "sharp-intertwines")
    assert clause.checked == 4
    assert clause.passed == (gap == upper == lower == 0)
    expected = sharp_intertwining_oracle({(0, 1): Fraction(1)}, fracs)
    assert {label: Fraction(text) for label, text in clause.failures} == expected


class TestCheckPqn:
    def test_e3_passes(self):
        S = e3_structure()
        assert check_axioms(S.A).passed
        report = check_pqn(S.A, S.pi, S.n_matrix, S.phi)
        assert report.passed

    def test_e6_conformal_passes(self):
        S = e6_conformal()
        assert check_pqn(S.A, S.pi, S.n_matrix, S.phi).passed

    def test_diag_fails_compatibility(self):
        n = diag(TR2, ["x1", "x2"])
        report = check_pqn(TR2, std_pi(TR2), n, TR2.zero_section(FORM, 3))
        assert not report.passed
        names = [c.name for c in report.failing_clauses()]
        assert "sharp-intertwines" in names


class TestQlb:
    def test_closed3form_tr3(self):
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        Q = qlb_from_closed3form(TR3, phi)
        assert check_qlb(Q).passed

    def test_closed3form_rejects_nonclosed(self):
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.coord_rf("x4")})
        with pytest.raises(HypothesisNotSatisfied):
            qlb_from_closed3form(TR4, phi)

    def test_corrupted_three_section_detected(self):
        # rank 4 so that the corruption is not closed: dstar-closes-X must flag it
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        Q = qlb_from_closed3form(TR4, phi)
        assert check_qlb(Q).passed
        bad = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf(), (0, 2, 3): TR4.coord_rf("x2")})
        corrupted = QuasiLieBialgebroid(Q.base, Q.dual, retag(bad, Q.base, MULTIVECTOR))
        report = check_qlb(corrupted)
        assert not report.passed
        assert "dstar-closes-X" in [c.name for c in report.failing_clauses()]

    def test_twisted_poisson_qlb_tr3(self):
        pi = std_pi(TR3)
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        Q = qlb_from_twisted_poisson(TR3, pi, phi)
        report = check_qlb(Q, samples=6)
        assert report.passed

    def test_twisted_poisson_qlb_rank4_rational(self):
        pi, phi = tr4_twisted()
        Q = qlb_from_twisted_poisson(TR4, pi, phi)
        report = check_qlb(Q, samples=4, max_degree=1)
        assert report.passed

    def test_triangular_from_conformal(self):
        S = e6_conformal()
        Q = build_qlb_from_pqn(S)
        assert Q.x3.is_zero()  # Lie bialgebroid
        assert check_qlb(Q).passed

    def test_e3_qlb(self):
        S = e3_structure()
        Q = build_qlb_from_pqn(S)
        report = check_qlb(Q, samples=20)
        assert report.passed

    def test_build_rejects_non_pqn(self):
        n = diag(TR2, ["x1", "x2"])
        S = PqnStructure(TR2, std_pi(TR2), n, TR2.zero_section(FORM, 3))
        with pytest.raises(HypothesisNotSatisfied):
            build_qlb_from_pqn(S)

    def test_twisted_poisson_phi_zero_gives_bialgebroid(self):
        Q = qlb_from_twisted_poisson(TR2, std_pi(TR2), TR2.zero_section(FORM, 3))
        assert Q.x3.is_zero()
        assert check_qlb(Q, samples=4).passed

    def test_heisenberg_poisson_nijenhuis(self):
        # nonabelian carrier with a non-scalar Nijenhuis operator:
        # on h3 ([e1,e2] = e3) with pi = e1^e3, every N = diag(a,b,a) is
        # compatible, while diag(1,1,2) breaks the intertwining
        h3 = lie_algebra_presentation(3, {(0, 1): {2: Fraction(1)}}, name="h3")
        pi = wedge(h3.frame(0), h3.frame(2))
        good = diag(h3, [1, 2, 1])
        phi0 = h3.zero_section(FORM, 3)
        assert check_compatible(h3, pi, good).passed
        assert check_pqn(h3, pi, good, phi0).passed
        S = PqnStructure(h3, pi, good, phi0)
        Q = build_qlb_from_pqn(S)
        assert Q.x3.is_zero()
        assert check_qlb(Q, samples=6).passed
        assert verify_lemma_tnstar(S).passed
        bad = diag(h3, [1, 1, 2])
        assert not check_compatible(h3, pi, bad).passed

    def test_twisted_poisson_pi_zero_is_closed3form_qlb(self):
        phi = TR3.section(FORM, 3, {(0, 1, 2): TR3.coord_rf("x2")})
        z2 = TR3.zero_section(MULTIVECTOR, 2)
        via_twisted = qlb_from_twisted_poisson(TR3, z2, phi)
        via_3form = qlb_from_closed3form(TR3, phi)
        assert via_twisted.base == via_3form.base
        assert via_twisted.dual == via_3form.dual
        assert via_twisted.x3 == via_3form.x3


class TestLemmaTnstar:
    def test_e6_conformal(self):
        report = verify_lemma_tnstar(e6_conformal())
        assert report.passed

    def test_e3(self):
        report = verify_lemma_tnstar(e3_structure())
        assert report.passed

    def test_rejects_non_pqn(self):
        n = diag(TR2, ["x1", "x2"])
        S = PqnStructure(TR2, std_pi(TR2), n, TR2.zero_section(FORM, 3))
        with pytest.raises(HypothesisNotSatisfied):
            verify_lemma_tnstar(S)


class TestQlbMorphism:
    def _remark_instance(self, corrupt=False):
        # N*: (A*, d, psi) -> (A*, d_N, N*psi) over TR3 with N = diag(x)
        n = diag(TR3, ["x1", "x2", "x3"])
        psi = TR3.section(FORM, 3, {(0, 1, 2): TR3.one_rf()})
        source = qlb_from_closed3form(TR3, psi)
        base = null_presentation(TR3)
        target_x = psi if corrupt else nstar_pullback(TR3, n, psi)
        target = QuasiLieBialgebroid(
            base, deformed_presentation(TR3, n, None, None), retag(target_x, base, MULTIVECTOR)
        )
        matrix = tuple(tuple(n[i][j] for i in range(3)) for j in range(3))
        phi = BundleMorphism(
            source.base, target.base, tuple(TR3.coord_rf(c) for c in TR3.coords), matrix
        )
        return phi, source, target

    def test_identity_morphism(self):
        phi3 = TR3.section(FORM, 3, {(0, 1, 2): TR3.coord_rf("x1")})
        # x1 eps123 is closed on TR3 (top degree)
        Q = qlb_from_closed3form(TR3, phi3)
        from algebroid_forge.calculus import identity_morphism

        report = check_qlb_morphism(identity_morphism(Q.base), Q, Q)
        assert report.passed

    def test_remark_nstar_morphism(self):
        phi, source, target = self._remark_instance()
        assert check_qlb(target).passed
        report = check_qlb_morphism(phi, source, target)
        assert report.passed

    def test_corrupted_target_three_section(self):
        phi, source, target = self._remark_instance(corrupt=True)
        report = check_qlb_morphism(phi, source, target)
        assert not report.passed
        assert "three-section-pushes" in [c.name for c in report.failing_clauses()]


class TestDualPresentation:
    def test_triangular_dual_is_lie_algebroid(self):
        dual = dual_presentation(TR2, std_pi(TR2))
        assert check_axioms(dual).passed

    def test_twisted_dual_is_lie_algebroid(self):
        pi, phi = tr4_twisted()
        dual = dual_presentation(TR4, pi, phi)
        assert check_axioms(dual).passed

    def test_insert_endomorphism_function(self):
        n = diag(TR3, ["x1", "x2", "x3"])
        f = TR3.function(TR3.coord_rf("x2"), FORM)
        assert insert_endomorphism(TR3, n, f).is_zero()


# -- the single bundle-map paths against the Fraction oracles ---------------
# constant coefficients over a point, rank <= 4, forms and multivectors of
# degree <= 3; the oracles evaluate by determinants, nothing from pn or calculus


@st.composite
def _tensor(draw, rank, k):
    """{increasing k-tuple: Fraction}, nonzero entries only."""
    coeffs = {idx: draw(_entry) for idx in combinations(range(rank), k)}
    return {idx: c for idx, c in coeffs.items() if c}


@st.composite
def _matrix(draw, rows, cols):
    return [[draw(_entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _rank_and_degree(draw):
    rank = draw(st.integers(1, 4))
    return rank, draw(st.integers(0, min(3, rank)))


def _point(rank):
    return lie_algebra_presentation(rank, {})


def _section(A, variance, degree, coeffs):
    return A.section(variance, degree, {idx: A.scalar(c) for idx, c in coeffs.items()})


def _engine_matrix(A, fracs):
    return tuple(tuple(A.scalar(x) for x in row) for row in fracs)


def _fractions(section):
    return {idx: c.constant_value() for idx, c in section.coeffs.items()}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=_rank_and_degree())
def test_pi_sharp_matches_oracle(data, shape):
    rank, k = shape
    pi, mu = data.draw(_tensor(rank, 2)), data.draw(_tensor(rank, k))
    A = _point(rank)
    got = pi_sharp(_section(A, MULTIVECTOR, 2, pi), _section(A, FORM, k, mu))
    assert (got.variance, got.degree) == (MULTIVECTOR, k)
    assert _fractions(got) == pi_sharp_oracle(pi, mu, rank, k)


@pytest.mark.parametrize(
    "engine, oracle",
    [(nstar_pullback, nstar_pullback_oracle), (insert_endomorphism, insert_endomorphism_oracle)],
    ids=["nstar_pullback", "insert_endomorphism"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=_rank_and_degree())
def test_endomorphism_on_forms_matches_oracle(engine, oracle, data, shape):
    rank, k = shape
    n, mu = data.draw(_matrix(rank, rank)), data.draw(_tensor(rank, k))
    A = _point(rank)
    got = engine(A, _engine_matrix(A, n), _section(A, FORM, k, mu))
    assert (got.variance, got.degree) == (FORM, k)
    assert _fractions(got) == oracle(n, mu, k)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), ranks=st.tuples(st.integers(3, 4), st.integers(3, 4)))
def test_three_section_pushes_match_minors(data, ranks):
    # with X_B = 0 the clause's residues are (wedge^3 Phi)(X_A), entry by entry
    source_rank, target_rank = ranks
    fracs, x = data.draw(_matrix(target_rank, source_rank)), data.draw(_tensor(source_rank, 3))
    A, B = _point(source_rank), _point(target_rank)
    QA = QuasiLieBialgebroid(A, null_presentation(A), _section(A, MULTIVECTOR, 3, x))
    QB = QuasiLieBialgebroid(B, null_presentation(B), B.zero_section(MULTIVECTOR, 3))
    phi = BundleMorphism(A, B, (), _engine_matrix(A, fracs))
    report = check_qlb_morphism(phi, QA, QB)
    clause = next(c for c in report.clauses if c.name == "three-section-pushes")
    expected = {"e" + "^e".join(str(j + 1) for j in J): v for J, v in push_oracle(fracs, x, 3).items()}
    assert {label: Fraction(text) for label, text in clause.failures} == expected
