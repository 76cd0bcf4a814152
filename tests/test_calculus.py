import random
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    check_axioms,
    check_d_squared,
    d_function,
    differential,
    evaluate,
    identity_morphism,
    insert,
    is_lie_algebroid_morphism,
    lie_derivative,
    null_presentation,
    pairing,
    pullback,
    schouten,
    tangent_algebroid,
    wedge,
)
from algebroid_forge.errors import DegreeMismatch, MalformedPresentation, VarianceMismatch
from oracles import cartan_d_value, compose, lie_algebra_presentation, pairing_oracle

TR2 = tangent_algebroid(2)
TR3 = tangent_algebroid(3)


def so3():
    return lie_algebra_presentation(
        3,
        {(0, 1): {2: Fraction(1)}, (1, 2): {0: Fraction(1)}, (0, 2): {1: Fraction(-1)}},
        name="so3",
    )


def corrupted_so3():
    # [e3, e1] = e1 instead of e2
    return lie_algebra_presentation(
        3,
        {(0, 1): {2: Fraction(1)}, (1, 2): {0: Fraction(1)}, (0, 2): {0: Fraction(-1)}},
        name="so3corrupt",
    )


def aff1():
    return lie_algebra_presentation(2, {(0, 1): {1: Fraction(1)}}, name="aff1")


def random_one_section(A, rng, variance=MULTIVECTOR, max_degree=1):
    coeffs = {}
    for i in range(A.rank):
        c = {}
        for mono_try in range(rng.randrange(1, 3)):
            name = rng.choice(A.coords) if A.coords else None
            if name is None:
                coeffs[(i,)] = A.scalar(rng.randrange(-2, 3))
                continue
            poly = A.coord_rf(name) * rng.randrange(-2, 3) + rng.randrange(-1, 2)
            coeffs[(i,)] = coeffs.get((i,), A.zero_rf()) + poly
    return A.section(variance, 1, coeffs)


def random_section(A, rng, variance, degree):
    coeffs = {}
    for idx in combinations(range(A.rank), degree):
        if rng.random() < 0.7:
            f = A.scalar(rng.randrange(-2, 3))
            if A.coords and rng.random() < 0.6:
                f = f + A.coord_rf(rng.choice(A.coords)) * rng.randrange(-2, 3)
            coeffs[idx] = f
    return A.section(variance, degree, coeffs)


class TestCheckAxioms:
    def test_so3_passes(self):
        assert check_axioms(so3()).passed

    def test_corrupted_so3_fails_with_e3_jacobiator(self):
        report = check_axioms(corrupted_so3())
        assert not report.passed
        failing = report.failing_clauses()
        assert failing[0].name == "jacobi"
        labels = [label for label, _ in failing[0].failures]
        # the Jacobiator of (e1, e2, e3) is e3: direct expansion gives
        # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 + e3
        assert any("e3" in lab.split(".")[-1] for lab in labels)
        assert failing[0].failures[0][1] == "1"

    def test_tangent_passes(self):
        for n in (1, 2, 3, 4):
            assert check_axioms(tangent_algebroid(n)).passed

    def test_aff1_passes(self):
        assert check_axioms(aff1()).passed

    def test_shape_validation(self):
        with pytest.raises(MalformedPresentation):
            AlgebroidPresentation(("x1",), 2, ((TR2.zero_rf(),),), ())


class TestWedge:
    def test_coordinate_two_form(self):
        assert wedge(TR2.coframe(0), TR2.coframe(1)) == TR2.section(
            FORM, 2, {(0, 1): TR2.one_rf()}
        )

    def test_square_zero(self):
        assert wedge(TR2.frame(0), TR2.frame(0)).is_zero()

    def test_function_coefficient(self):
        x1 = TR2.coord_rf("x1")
        got = wedge(TR2.frame(0).scale(x1), TR2.frame(1))
        assert got == TR2.section(MULTIVECTOR, 2, {(0, 1): x1})

    def test_graded_commutativity(self):
        rng = random.Random(3)
        for _ in range(15):
            p = rng.randrange(0, 3)
            q = rng.randrange(0, 3)
            a = random_section(TR3, rng, FORM, p)
            b = random_section(TR3, rng, FORM, q)
            sign = -1 if (p * q) % 2 else 1
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_degree_overflow_returns_zero(self):
        top = TR2.section(MULTIVECTOR, 2, {(0, 1): TR2.one_rf()})
        assert wedge(top, TR2.frame(0)).is_zero()

    def test_variance_mismatch(self):
        with pytest.raises(VarianceMismatch):
            wedge(TR2.frame(0), TR2.coframe(0))


class TestPairing:
    def test_identity_determinant(self):
        mu = wedge(TR2.coframe(0), TR2.coframe(1))
        w = wedge(TR2.frame(0), TR2.frame(1))
        assert pairing(mu, w) == TR2.one_rf()

    def test_transposition_sign(self):
        mu = wedge(TR2.coframe(0), TR2.coframe(1))
        w = wedge(TR2.frame(1), TR2.frame(0))
        assert pairing(mu, w) == TR2.scalar(-1)

    def test_off_index_vanishes(self):
        x1 = TR2.coord_rf("x1")
        assert pairing(TR2.coframe(0).scale(x1), TR2.frame(1)).is_zero()

    def test_frame_matrix_is_identity(self):
        for A in (TR2, TR3, so3()):
            for i in range(A.rank):
                for j in range(A.rank):
                    expected = A.one_rf() if i == j else A.zero_rf()
                    assert pairing(A.coframe(i), A.frame(j)) == expected

    def test_matches_determinant_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            k = rng.randrange(1, 4)
            alphas = [random_one_section(TR3, rng, FORM) for _ in range(k)]
            alphas = [a._like(a.coeffs) for a in alphas]
            alphas = [TR3.section(FORM, 1, a.coeffs) for a in alphas]
            xs = [random_one_section(TR3, rng, MULTIVECTOR) for _ in range(k)]
            mu = TR3.function(1, FORM)
            for a in alphas:
                mu = wedge(mu, a)
            w = TR3.function(1, MULTIVECTOR)
            for x in xs:
                w = wedge(w, x)
            assert pairing(mu, w) == pairing_oracle(alphas, xs)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            pairing(TR2.coframe(0), wedge(TR2.frame(0), TR2.frame(1)))


class TestContract:
    def test_single(self):
        mu = wedge(TR2.coframe(0), TR2.coframe(1))
        assert insert(mu, TR2.frame(0)) == TR2.coframe(1)

    def test_composed_two_into_three(self):
        mu = wedge(wedge(TR3.coframe(0), TR3.coframe(1)), TR3.coframe(2))
        xy = wedge(TR3.frame(0), TR3.frame(1))
        # i_{X^Y} = i_Y o i_X: expansion leaves eps3
        assert insert(mu, xy) == TR3.coframe(2)

    def test_missing_index(self):
        mu = wedge(TR3.coframe(0), TR3.coframe(1))
        assert insert(mu, TR3.frame(2)).is_zero()

    def test_adjoint_to_wedge(self):
        rng = random.Random(9)
        for _ in range(15):
            k = rng.randrange(1, 4)
            mu = random_section(TR3, rng, FORM, k)
            x = random_one_section(TR3, rng, MULTIVECTOR)
            w = random_section(TR3, rng, MULTIVECTOR, k - 1)
            assert pairing(insert(mu, x), w) == pairing(mu, wedge(x, w))

    def test_graded_derivation_degree_one(self):
        def ix(mu, x):
            # i_X vanishes on functions; insert itself rejects the underflow
            if mu.degree == 0:
                return mu.parent.zero_section(mu.variance, 0)
            return insert(mu, x)

        rng = random.Random(11)
        for _ in range(10):
            p = rng.randrange(0, 3)
            q = rng.randrange(0, 3)
            a = random_section(TR3, rng, FORM, p)
            b = random_section(TR3, rng, FORM, q)
            x = random_one_section(TR3, rng, MULTIVECTOR)
            lhs = ix(wedge(a, b), x) if p + q > 0 else None
            if lhs is None:
                continue
            rhs = wedge(ix(a, x), b) + wedge(a, ix(b, x)).scale(-1 if p % 2 else 1)
            assert lhs == rhs


class TestDifferential:
    def test_d_coordinate(self):
        assert d_function(TR2, TR2.coord_rf("x1")) == TR2.coframe(0)

    def test_d_scaled_two_form(self):
        x3 = TR3.coord_rf("x3")
        mu = wedge(TR3.coframe(0), TR3.coframe(1)).scale(x3)
        expected = wedge(wedge(TR3.coframe(2), TR3.coframe(0)), TR3.coframe(1))
        assert differential(mu) == expected

    def test_chevalley_eilenberg_sign_so3(self):
        A = so3()
        # d eps^3 = -eps^1 ^ eps^2 because c_{12}^3 = 1
        assert differential(A.coframe(2)) == wedge(A.coframe(0), A.coframe(1)).scale(-1)

    def test_leibniz(self):
        rng = random.Random(13)
        for A in (TR3, so3()):
            for _ in range(8):
                p = rng.randrange(0, 2)
                a = random_section(A, rng, FORM, p)
                b = random_section(A, rng, FORM, rng.randrange(0, 2))
                lhs = differential(wedge(a, b))
                rhs = wedge(differential(a), b) + wedge(a, differential(b)).scale(
                    -1 if p % 2 else 1
                )
                assert lhs == rhs

    def test_d_squared_generators(self):
        for A in (TR2, TR3, so3(), aff1(), tangent_algebroid(4)):
            assert check_d_squared(A).passed

    def test_matches_cartan_oracle(self):
        rng = random.Random(17)
        for A in (TR3, so3()):
            for _ in range(6):
                k = rng.randrange(0, 3)
                mu = random_section(A, rng, FORM, k)
                dmu = differential(mu)
                for idx in combinations(range(A.rank), k + 1):
                    frames = [A.frame(i) for i in idx]
                    got = evaluate(dmu, frames)
                    want = cartan_d_value(
                        mu, frames, lambda u, v: schouten(u, v)
                    )
                    assert got == want


class TestSchouten:
    def test_vector_field_bracket(self):
        x1 = TR2.coord_rf("x1")
        got = schouten(TR2.frame(0), TR2.frame(1).scale(x1))
        assert got == TR2.frame(1)

    def test_constant_bivector_self_bracket(self):
        pi = wedge(TR2.frame(0), TR2.frame(1))
        assert schouten(pi, pi).is_zero()

    def test_so3_structure(self):
        A = so3()
        assert schouten(A.frame(0), A.frame(1)) == A.frame(2)

    def test_so3_bivector_self_bracket(self):
        # [e1^e2, e1^e2] = 2 e1^e2^e3, by hand via the Leibniz rules
        A = so3()
        pi = wedge(A.frame(0), A.frame(1))
        top = wedge(wedge(A.frame(0), A.frame(1)), A.frame(2))
        assert schouten(pi, pi) == top.scale(2)

    def test_action_on_functions(self):
        f = TR2.function(TR2.coord_rf("x1"))
        assert schouten(TR2.frame(0), f) == TR2.function(1)

    def test_graded_antisymmetry(self):
        rng = random.Random(19)
        for A in (TR3, so3()):
            for _ in range(10):
                p = rng.randrange(0, 3)
                q = rng.randrange(0, 3)
                P = random_section(A, rng, MULTIVECTOR, p)
                Q = random_section(A, rng, MULTIVECTOR, q)
                sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
                assert schouten(P, Q) == schouten(Q, P).scale(sign)

    def test_graded_jacobi(self):
        rng = random.Random(23)
        for A in (TR2, so3()):
            for _ in range(8):
                degs = [rng.randrange(1, 3) for _ in range(3)]
                P, Q, R = (
                    random_section(A, rng, MULTIVECTOR, d) for d in degs
                )
                p, q, r = degs
                lhs = schouten(P, schouten(Q, R))
                mid = schouten(schouten(P, Q), R)
                rhs = schouten(Q, schouten(P, R)).scale(-1 if ((p - 1) * (q - 1)) % 2 else 1)
                assert lhs == mid + rhs

    def test_leibniz_rule(self):
        rng = random.Random(29)
        for A in (TR3, so3()):
            for _ in range(8):
                p = rng.randrange(1, 3)
                q = rng.randrange(0, 2)
                r = rng.randrange(0, 2)
                P = random_section(A, rng, MULTIVECTOR, p)
                Q = random_section(A, rng, MULTIVECTOR, q)
                R = random_section(A, rng, MULTIVECTOR, r)
                lhs = schouten(P, wedge(Q, R))
                rhs = wedge(schouten(P, Q), R) + wedge(Q, schouten(P, R)).scale(
                    -1 if ((p - 1) * q) % 2 else 1
                )
                assert lhs == rhs


class TestLieDerivative:
    def test_on_scaled_coframe(self):
        x1 = TR2.coord_rf("x1")
        assert lie_derivative(TR2.frame(0), TR2.coframe(1).scale(x1)) == TR2.coframe(1)

    def test_kills_constant_coframe(self):
        assert lie_derivative(TR2.frame(1), TR2.coframe(0)).is_zero()

    def test_so3_dual_frame(self):
        A = so3()
        # L_{e1} eps^2 = eps^3: (L_{e1}eps^2)(e3) = -eps^2([e1,e3]) = 1
        assert lie_derivative(A.frame(0), A.coframe(1)) == A.coframe(2)

    def test_commutes_with_d(self):
        rng = random.Random(31)
        for A in (TR3, so3()):
            for _ in range(8):
                X = random_one_section(A, rng, MULTIVECTOR)
                mu = random_section(A, rng, FORM, rng.randrange(0, 3))
                assert lie_derivative(X, differential(mu)) == differential(
                    lie_derivative(X, mu)
                )

    def test_derivation_of_wedge(self):
        rng = random.Random(37)
        for _ in range(8):
            X = random_one_section(TR3, rng, MULTIVECTOR)
            a = random_section(TR3, rng, FORM, 1)
            b = random_section(TR3, rng, FORM, 1)
            lhs = lie_derivative(X, wedge(a, b))
            rhs = wedge(lie_derivative(X, a), b) + wedge(a, lie_derivative(X, b))
            assert lhs == rhs


class TestValueSemantics:
    def test_presentation_equality_reads_the_data_only(self):
        A = tangent_algebroid(2)
        B = AlgebroidPresentation(A.coords, A.rank, A.anchor, A.structure, name="other")
        assert A == B and hash(A) == hash(B)
        before = hash(A)
        d_function(A, A.coord_rf("x1"))  # fills A's memo cache, not B's
        assert A._cache and not B._cache
        assert A == B and hash(A) == before == hash(B)
        assert A != null_presentation(A, name=A.name)

    def test_morphism_equality_ignores_name(self):
        phi = identity_morphism(TR2)
        psi = BundleMorphism(TR2, TR2, phi.base_map, phi.matrix, name="other")
        assert phi == psi
        assert phi != BundleMorphism(TR2, TR2, phi.base_map, phi.matrix[::-1])

    def test_trusted_constructor_matches_the_public_one(self):
        # _make skips the index checks but still drops zero coefficients
        one, zero = TR3.one_rf(), TR3.zero_rf()
        made = GradedSection._make(TR3, FORM, 2, {(0, 1): one, (1, 2): zero})
        public = TR3.section(FORM, 2, {(0, 1): one, (1, 2): zero})
        assert made.coeffs == public.coeffs == {(0, 1): one}
        assert made.key == public.key and made == public and hash(made) == hash(public)
        empty = GradedSection._make(TR3, FORM, 2, {(1, 2): zero})
        assert empty.is_zero() and empty.key == TR3.zero_section(FORM, 2).key


class TestMorphisms:
    def test_identity_pullback(self):
        phi = identity_morphism(TR3)
        rng = random.Random(41)
        for _ in range(5):
            mu = random_section(TR3, rng, FORM, rng.randrange(0, 3))
            assert pullback(phi, mu) == mu

    def test_projection(self):
        TR1 = tangent_algebroid(1)
        one, zero = TR2.one_rf(), TR2.zero_rf()
        phi = BundleMorphism(TR2, TR1, (TR2.coord_rf("x1"),), ((one, zero),))
        assert pullback(phi, TR1.coframe(0)) == TR2.coframe(0)

    def test_diagonal_determinant(self):
        xs = [TR3.coord_rf(c) for c in TR3.coords]
        zero = TR3.zero_rf()
        matrix = tuple(
            tuple(xs[j] if i == j else zero for i in range(3)) for j in range(3)
        )
        phi = BundleMorphism(TR3, TR3, tuple(xs), matrix)
        mu = wedge(wedge(TR3.coframe(0), TR3.coframe(1)), TR3.coframe(2))
        assert pullback(phi, mu) == mu.scale(xs[0] * xs[1] * xs[2])

    def test_functoriality(self):
        rng = random.Random(43)
        one, zero = TR2.one_rf(), TR2.zero_rf()
        x1, x2 = TR2.coord_rf("x1"), TR2.coord_rf("x2")
        psi = BundleMorphism(TR2, TR2, (x1 + x2, x2), ((one, x1), (zero, one)))
        phi = BundleMorphism(TR2, TR2, (x1 * x2, x1), ((x2, zero), (one, one)))
        comp = compose(phi, psi)
        for mu in (TR2.coframe(0), TR2.coframe(1), TR2.function(x1 * x2, FORM)):
            assert pullback(comp, mu) == pullback(psi, pullback(phi, mu))

    def test_identity_is_morphism(self):
        assert is_lie_algebroid_morphism(identity_morphism(TR2)).passed

    def test_swap_on_so3_fails(self):
        A = so3()
        one, zero = A.one_rf(), A.zero_rf()
        matrix = ((zero, one, zero), (one, zero, zero), (zero, zero, one))
        phi = BundleMorphism(A, A, (), matrix)
        report = is_lie_algebroid_morphism(phi)
        assert not report.passed

    def test_diag_nijenhuis_morphism_to_tangent(self):
        # N = diag(x1,x2,x3) as a morphism A_N -> TR3 (torsion-free diagonal)
        xs = [TR3.coord_rf(c) for c in TR3.coords]
        zero = TR3.zero_rf()
        anchor = tuple(
            tuple(xs[i] if a == i else zero for a in range(3)) for i in range(3)
        )
        structure = tuple((zero, zero, zero) for _ in range(3))
        AN = AlgebroidPresentation(TR3.coords, 3, anchor, structure, name="AN")
        assert check_axioms(AN).passed
        matrix = tuple(
            tuple(xs[j] if i == j else zero for i in range(3)) for j in range(3)
        )
        phi = BundleMorphism(AN, TR3, tuple(xs), matrix)
        assert is_lie_algebroid_morphism(phi).passed
