from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_forge.calculus import (
    FORM,
    MULTIVECTOR,
    mat_apply,
    retag,
    tangent_algebroid,
    wedge,
)
from algebroid_forge.courant import CourantSection, standard_double, twisted_double
from algebroid_forge.errors import HypothesisNotSatisfied
from algebroid_forge.paired import (
    PairedOperator,
    apply_operator,
    build_deformed_double,
    check_generalized_complex,
    check_paired,
    check_theorem_pqn_from_paired,
    check_torsion_blocks,
    courant_nijenhuis_torsion,
    deformed_courant_bracket,
)
from algebroid_forge.pn import check_qlb, poisson_bracket
from test_pn import diag, eye, std_pi, zeros

TR2 = tangent_algebroid(2)
TR3 = tangent_algebroid(3)


def e5_operator():
    """TR2, N = 0, pi = d1^d2, sigma = dx1^dx2: the worked example."""
    sigma = wedge(TR2.coframe(0), TR2.coframe(1))
    return PairedOperator(TR2, zeros(TR2), std_pi(TR2), sigma, name="E5")


def e5_rational():
    """sigma = (1+x1) dx1^dx2 against pi = (1/(1+x1)) d1^d2."""
    f = TR2.scalar("1+x1")
    sigma = wedge(TR2.coframe(0), TR2.coframe(1)).scale(f)
    pi = std_pi(TR2).scale(TR2.scalar("1/(1+x1)"))
    return PairedOperator(TR2, zeros(TR2), pi, sigma, name="E5r")


def complex_structure_operator():
    """N = rotation, pi = sigma = 0: a generalized complex structure from J."""
    n = (
        (TR2.zero_rf(), -TR2.one_rf()),
        (TR2.one_rf(), TR2.zero_rf()),
    )
    return PairedOperator(
        TR2, n, TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2), name="J"
    )


class TestApply:
    def test_e5_block_action(self):
        op = e5_operator()
        E = standard_double(TR2)
        got = apply_operator(op, E.frame_section(0))
        # sigma_flat(d1) = dx2
        assert got.vec.is_zero()
        assert got.cov == TR2.coframe(1)
        got = apply_operator(op, E.coframe_section(1))
        # pi#(dx2) = -d1
        assert got.vec == TR2.frame(0).scale(-1)
        assert got.cov.is_zero()

    def test_zero_operator(self):
        op = PairedOperator(
            TR2, zeros(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        E = standard_double(TR2)
        e = E.frame_section(0) + E.coframe_section(1)
        assert apply_operator(op, e).is_zero()

    def test_identity_block(self):
        op = PairedOperator(
            TR2, eye(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        E = standard_double(TR2)
        e = E.frame_section(0) + E.coframe_section(0)
        got = apply_operator(op, e)
        assert got.vec == TR2.frame(0)
        assert got.cov == TR2.coframe(0).scale(-1)


def block_formula(op, e):
    """The operator as its block matrices [[N, pi#], [sigma_flat, -N*]],
    each applied to a retagged half and retagged back."""
    n, p, s, m = op.blocks()
    A = e.vec.parent
    vec = mat_apply(n, e.vec) + retag(mat_apply(p, retag(e.cov, A, MULTIVECTOR)), A, MULTIVECTOR)
    cov = retag(mat_apply(s, retag(e.vec, A, FORM)), A, FORM) + retag(
        mat_apply(m, retag(e.cov, A, MULTIVECTOR)), A, FORM
    )
    return CourantSection(vec, cov)


@st.composite
def operators_and_sections(draw):
    """A paired operator with polynomial N, pi and sigma on TR2 or TR3, and a
    section X + alpha with polynomial coefficients."""
    A = draw(st.sampled_from((TR2, TR3)))

    def poly():
        out = A.scalar(draw(st.integers(-3, 3)))
        for name in A.coords:
            if draw(st.booleans()):
                out = out + A.coord_rf(name) ** draw(st.integers(1, 2)) * draw(st.integers(-3, 3))
        return out

    def section(variance, degree):
        return A.section(variance, degree, {idx: poly() for idx in combinations(range(A.rank), degree)})

    n = tuple(tuple(poly() for _ in range(A.rank)) for _ in range(A.rank))
    op = PairedOperator(A, n, section(MULTIVECTOR, 2), section(FORM, 2))
    return op, CourantSection(section(MULTIVECTOR, 1), section(FORM, 1))


@settings(max_examples=40, deadline=None)
@given(operators_and_sections())
def test_operator_matches_block_formula(case):
    # a sign slip in either path, or a transposed block, shows on some section
    op, e = case
    got, want = apply_operator(op, e), block_formula(op, e)
    assert got.vec == want.vec
    assert got.cov == want.cov


class TestPairedness:
    def test_equality_ignores_name(self):
        op = e5_operator()
        assert op == PairedOperator(op.A, op.n_matrix, op.pi, op.sigma, name="other")
        assert op != PairedOperator(op.A, op.n_matrix, op.pi, op.sigma.scale(2), name=op.name)

    def test_constructed_operator_is_paired(self):
        op = e5_operator()
        assert check_paired(TR2, op.blocks()).passed

    def test_violating_upper_block(self):
        # a symmetric upper-right block is not a bivector
        one, zero = TR2.one_rf(), TR2.zero_rf()
        sym = ((one, zero), (zero, one))
        blocks = (zeros(TR2), sym, zeros(TR2), zeros(TR2))
        assert not check_paired(TR2, blocks).passed

    def test_violating_diagonal_block(self):
        one, zero = TR2.one_rf(), TR2.zero_rf()
        n = ((one, zero), (zero, zero))
        # lower-right must be -N^T = diag(-1, 0); supply zero instead
        blocks = (n, zeros(TR2), zeros(TR2), zeros(TR2))
        assert not check_paired(TR2, blocks).passed


class TestDeformedBracket:
    def test_covectors_give_poisson_bracket(self):
        op = e5_operator()
        E = standard_double(TR2)
        for i in range(2):
            for j in range(2):
                got = deformed_courant_bracket(
                    E, op, E.coframe_section(i), E.coframe_section(j)
                )
                want = poisson_bracket(op.pi, TR2.coframe(i), TR2.coframe(j))
                assert got.vec.is_zero()
                assert got.cov == want

    def test_covectors_give_poisson_bracket_rational(self):
        op = e5_rational()
        E = standard_double(TR2)
        got = deformed_courant_bracket(E, op, E.coframe_section(0), E.coframe_section(1))
        want = poisson_bracket(op.pi, TR2.coframe(0), TR2.coframe(1))
        assert got.vec.is_zero()
        assert got.cov == want

    def test_identity_block_deformation(self):
        op = PairedOperator(
            TR2, eye(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        E = standard_double(TR2)
        x1 = TR2.coord_rf("x1")
        e1 = E.frame_section(0).scale(x1) + E.coframe_section(1)
        e2 = E.frame_section(1)
        got = deformed_courant_bracket(E, op, e1, e2)
        # for the (Id, -Id) block the vector half reproduces the skew bracket
        # and the covector half flips sign
        from algebroid_forge.courant import skew_bracket

        base = skew_bracket(E, e1, e2)
        assert got.vec == base.vec
        assert got.cov == -base.cov

    def test_vectors_constant_data(self):
        op = e5_operator()
        E = standard_double(TR2)
        got = deformed_courant_bracket(E, op, E.frame_section(0), E.frame_section(1))
        assert got.is_zero()


class TestTorsion:
    def test_e5_torsion_vanishes(self):
        op = e5_operator()
        E = standard_double(TR2)
        pairs = [
            (E.coframe_section(0), E.coframe_section(1)),
            (E.frame_section(0), E.frame_section(1)),
            (E.frame_section(0), E.coframe_section(1)),
        ]
        for e1, e2 in pairs:
            assert courant_nijenhuis_torsion(E, op, e1, e2).is_zero()

    def test_identity_block_torsion_free(self):
        op = PairedOperator(
            TR2, eye(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        E = standard_double(TR2)
        x1 = TR2.coord_rf("x1")
        e1 = E.frame_section(0).scale(x1) + E.coframe_section(1).scale(x1 * x1)
        e2 = E.frame_section(1) + E.coframe_section(0)
        assert courant_nijenhuis_torsion(E, op, e1, e2).is_zero()

    def test_blocks_report_e5(self):
        op = e5_operator()
        E = standard_double(TR2)
        report = check_torsion_blocks(E, op)
        assert report.passed

    def test_blocks_report_e5_rational(self):
        op = e5_rational()
        E = standard_double(TR2)
        report = check_torsion_blocks(E, op)
        assert report.passed

    def test_blocks_twist_zero_matches_untwisted(self):
        op = e5_operator()
        E0 = standard_double(TR2)
        Et = twisted_double(TR2, TR2.zero_section(FORM, 3))
        r0 = check_torsion_blocks(E0, op)
        rt = check_torsion_blocks(Et, op)
        assert r0.verdict == rt.verdict
        assert [c.passed for c in r0.clauses] == [c.passed for c in rt.clauses]

    def test_incompatible_diag_fails_dual_block(self):
        n = diag(TR2, ["x1", "x2"])
        op = PairedOperator(TR2, n, std_pi(TR2), TR2.zero_section(FORM, 2))
        E = standard_double(TR2)
        report = check_torsion_blocks(E, op)
        assert not report.passed
        names = [c.name for c in report.failing_clauses()]
        assert "torsion-on-covectors" in names or "dual-block-system" in names
        consistency = [c for c in report.clauses if c.name == "equivalence-consistency"]
        assert consistency[0].passed


    @pytest.mark.parametrize(
        "columns",
        [
            # N e1 = e1 + e2, N e2 = e2: sigma(N e1, e1) = -1 on the diagonal,
            # while sigma(N e1, e2) = -sigma(N e2, e1) off it
            ((1, 1), (0, 1)),
            # N = diag(1, 2): constant data, both torsion blocks vanish
            ((1, 0), (0, 2)),
        ],
        ids=["shear", "diag-1-2"],
    )
    def test_sigma_n_not_a_two_form(self, columns):
        # sigma(N., .) is no 2-form: the vector-block system is undefined,
        # its flag fails as sigma-N-symmetric does, and the equivalence
        # with the torsion is not asserted
        n = tuple(tuple(TR2.scalar(columns[j][i]) for j in range(2)) for i in range(2))
        sigma = wedge(TR2.coframe(0), TR2.coframe(1))
        op = PairedOperator(TR2, n, TR2.zero_section(MULTIVECTOR, 2), sigma)
        clauses = {c.name: c for c in check_torsion_blocks(standard_double(TR2), op).clauses}
        assert clauses["torsion-on-vectors"].passed and clauses["vector-block-torsion"].passed
        assert clauses["vector-block-two-form"].failures == [
            ("Nsigma-two-form", "sigma(N.,.)-not-antisymmetric")
        ]
        assert clauses["equivalence-consistency"].passed
        theorem = check_theorem_pqn_from_paired(TR2, op)
        assert "sigma-N-symmetric" in [c.name for c in theorem.failing_clauses()]


class TestTheorem:
    def test_e5_yields_pqn(self):
        report = check_theorem_pqn_from_paired(TR2, e5_operator())
        assert report.passed

    def test_e5_rational_yields_pqn(self):
        report = check_theorem_pqn_from_paired(TR2, e5_rational())
        assert report.passed

    def test_violated_sigma_symmetry(self):
        one, zero = TR2.one_rf(), TR2.zero_rf()
        n = ((zero, one), (zero, zero))  # Ne2 = e1 (column convention)
        sigma = wedge(TR2.coframe(0), TR2.coframe(1))
        op = PairedOperator(TR2, n, TR2.zero_section(MULTIVECTOR, 2), sigma)
        report = check_theorem_pqn_from_paired(TR2, op)
        assert not report.passed
        names = [c.name for c in report.failing_clauses()]
        assert "sigma-N-symmetric" in names
        conclusion = [c for c in report.clauses if c.name == "conclusion-pqn"][0]
        assert conclusion.failures[0][1] == "hypotheses-not-satisfied"


class TestGeneralizedComplex:
    def test_e5_passes(self):
        report = check_generalized_complex(e5_operator())
        assert report.passed

    def test_rotation_passes(self):
        report = check_generalized_complex(complex_structure_operator())
        assert report.passed

    def test_identity_block_fails(self):
        op = PairedOperator(
            TR2, eye(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        report = check_generalized_complex(op)
        assert not report.passed

    def test_scaled_sigma_fails(self):
        sigma = wedge(TR2.coframe(0), TR2.coframe(1)).scale(2)
        op = PairedOperator(TR2, zeros(TR2), std_pi(TR2), sigma)
        report = check_generalized_complex(op)
        assert not report.passed
        assert "Nsquare-plus-pi-sigma" in [c.name for c in report.failing_clauses()]


class TestDeformedDouble:
    def test_e5_identification(self):
        op = e5_operator()
        E = standard_double(TR2)
        Q, report = build_deformed_double(E, op)
        assert report.passed
        assert check_qlb(Q, samples=4).passed

    def test_e5_twist_zero_same_verdict(self):
        op = e5_operator()
        Et = twisted_double(TR2, TR2.zero_section(FORM, 3))
        Q, report = build_deformed_double(Et, op)
        assert report.passed

    def test_rotation_identification(self):
        op = complex_structure_operator()
        E = standard_double(TR2)
        Q, report = build_deformed_double(E, op)
        assert report.passed
        assert check_qlb(Q, samples=4).passed

    def test_e5_rational_identification(self):
        op = e5_rational()
        E = standard_double(TR2)
        Q, report = build_deformed_double(E, op, samples=3)
        assert report.passed

    def test_hypothesis_violation_rejected(self):
        op = PairedOperator(
            TR2, eye(TR2), TR2.zero_section(MULTIVECTOR, 2), TR2.zero_section(FORM, 2)
        )
        E = standard_double(TR2)
        with pytest.raises(HypothesisNotSatisfied):
            build_deformed_double(E, op)


def block_complex_tr4():
    """N = J + J (rotations in the (12) and (34) planes) on TR4: a complex
    structure, pairing with pi = sigma = 0 into a generalized complex
    operator whose twisted torsion blocks vanish for phi = dx1^dx2^dx3."""
    TR4 = tangent_algebroid(4)
    zero, one = TR4.zero_rf(), TR4.one_rf()
    n = (
        (zero, -one, zero, zero),
        (one, zero, zero, zero),
        (zero, zero, zero, -one),
        (zero, zero, one, zero),
    )
    return TR4, PairedOperator(
        TR4, n, TR4.zero_section(MULTIVECTOR, 2), TR4.zero_section(FORM, 2), name="JJ"
    )


class TestTwistedDeformedDouble:
    def test_rank4_twisted_identification(self):
        TR4, op = block_complex_tr4()
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        E = twisted_double(TR4, phi)
        assert check_generalized_complex(op).passed
        blocks = check_torsion_blocks(E, op)
        assert blocks.passed
        Q, report = build_deformed_double(E, op, samples=2, max_degree=1)
        assert report.passed
        # the deformed double carries the genuinely twisted three-section
        # i_N phi = -dx1^dx2^dx4
        from algebroid_forge.calculus import retag

        x = retag(Q.x3, TR4, FORM)
        assert x == TR4.section(FORM, 3, {(0, 1, 3): -TR4.one_rf()})
        assert check_qlb(Q, samples=4).passed

    def test_rank4_untwisted_also_identifies(self):
        TR4, op = block_complex_tr4()
        E = standard_double(TR4)
        Q, report = build_deformed_double(E, op, samples=2, max_degree=1)
        assert report.passed
        assert Q.x3.is_zero()
