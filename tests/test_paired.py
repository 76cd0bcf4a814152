from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebroid_forge.calculus import FORM, MULTIVECTOR, differential, tangent_algebroid, wedge
from algebroid_forge.courant import CourantSection, qlb_double, standard_double, twisted_double
from algebroid_forge.errors import (
    DegreeMismatch,
    HypothesisNotSatisfied,
    ParentMismatch,
    VarianceMismatch,
)
from algebroid_forge.paired import (
    PairedOperator,
    _block_product,
    apply_operator,
    build_deformed_double,
    check_generalized_complex,
    check_paired,
    check_theorem_pqn_from_paired,
    check_torsion_blocks,
    courant_nijenhuis_torsion,
    deformed_courant_bracket,
)
from algebroid_forge.pn import check_qlb, intertwining, poisson_bracket
from oracles import apply_by_contraction
from test_courant import corpus_qlbs
from test_pn import diag, eye, std_pi, zeros

TR1 = tangent_algebroid(1)
TR2 = tangent_algebroid(2)
TR3 = tangent_algebroid(3)
TR4 = tangent_algebroid(4)


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


@st.composite
def operators_and_sections(draw):
    """A paired operator with polynomial N, pi and sigma on TR1, TR2 or TR3,
    and a section X + alpha with polynomial coefficients."""
    A = draw(st.sampled_from((TR1, TR2, TR3)))

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


@settings(max_examples=150, deadline=None)
@given(operators_and_sections())
def test_block_action_matches_contraction_reference(case):
    # a sign slip in a block, a transposed or swapped block shows on some
    # section; the blocks' N pi# - pi# N* is pn's intertwining residue
    op, e = case
    got, want = apply_operator(op, e), apply_by_contraction(op, e)
    assert got.vec == want.vec
    assert got.cov == want.cov
    n, p, _, m = op.blocks
    assert _block_product(op.A, n, p, p, m) == intertwining(op.A, op.pi, op.n_matrix)


class TestParts:
    """The constructor checks each part against A and names the one that fails."""

    @pytest.mark.parametrize(
        "parts, error, message",
        [
            # pi and sigma swapped
            (
                lambda: (zeros(TR2), TR2.zero_section(FORM, 2), TR2.zero_section(MULTIVECTOR, 2)),
                VarianceMismatch,
                "pi must be a multivector, got a form",
            ),
            (
                lambda: (zeros(TR2), std_pi(TR2), std_pi(TR2)),
                VarianceMismatch,
                "sigma must be a form, got a multivector",
            ),
            (lambda: (zeros(TR2), std_pi(TR3), TR2.zero_section(FORM, 2)), ParentMismatch, "pi lives on"),
            (lambda: (zeros(TR2), std_pi(TR2), TR3.zero_section(FORM, 2)), ParentMismatch, "sigma lives on"),
            (
                lambda: (zeros(TR2), TR2.frame(0), TR2.zero_section(FORM, 2)),
                DegreeMismatch,
                "pi must have degree 2, got 1",
            ),
            (
                lambda: (zeros(TR2), std_pi(TR2), TR2.zero_section(FORM, 3)),
                DegreeMismatch,
                "sigma must have degree 2, got 3",
            ),
            (lambda: (zeros(TR3), std_pi(TR2), TR2.zero_section(FORM, 2)), ParentMismatch, "N must be a 2 x 2"),
            (
                lambda: (zeros(TR2)[:1], std_pi(TR2), TR2.zero_section(FORM, 2)),
                ParentMismatch,
                "N must be a 2 x 2 matrix on the chart x1, x2",
            ),
            # the right shape on another chart
            (
                lambda: (((TR3.one_rf(),) * 2,) * 2, std_pi(TR2), TR2.zero_section(FORM, 2)),
                ParentMismatch,
                "N must be a 2 x 2",
            ),
        ],
        ids=[
            "pi-a-form", "sigma-a-multivector", "pi-off-A", "sigma-off-A", "pi-degree-1",
            "sigma-degree-3", "N-rank-3", "N-one-row", "N-other-chart",
        ],
    )
    def test_rejected(self, parts, error, message):
        with pytest.raises(error, match=message):
            PairedOperator(TR2, *parts())


class TestPairedness:
    def test_equality_ignores_name(self):
        op = e5_operator()
        assert op == PairedOperator(op.A, op.n_matrix, op.pi, op.sigma, name="other")
        assert op != PairedOperator(op.A, op.n_matrix, op.pi, op.sigma.scale(2), name=op.name)

    def test_constructed_operator_is_paired(self):
        op = e5_operator()
        assert check_paired(TR2, op.blocks).passed

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


def paired_parts(pick):
    """(A, N, pi, sigma, phi) from ``pick``, which returns one item of a
    sequence: A is TR2 or TR3; the entries of N, of pi and of sigma are each
    all zero, all constant or all linear in the coordinates, with integer
    coefficients in [-2, 2]; phi is zero (a standard double) or d beta for
    such a 2-form beta."""
    A = pick((TR2, TR3))

    def coefficient(kind):
        if kind == "zero":
            return A.zero_rf()
        out = A.scalar(pick(range(-2, 3)))
        if kind == "linear":
            for name in A.coords:
                out = out + A.coord_rf(name) * pick(range(-2, 3))
        return out

    def section(variance, degree):
        kind = pick(("zero", "constant", "linear"))
        return A.section(variance, degree, {idx: coefficient(kind) for idx in combinations(range(A.rank), degree)})

    kind = pick(("zero", "constant", "linear"))
    n = tuple(tuple(coefficient(kind) for _ in range(A.rank)) for _ in range(A.rank))
    pi, sigma = section(MULTIVECTOR, 2), section(FORM, 2)
    phi = differential(section(FORM, 2)) if pick((False, True)) else A.zero_section(FORM, 3)
    return A, n, pi, sigma, phi


def equivalence_failures(paired, case) -> list:
    """The failures of check-torsion-blocks's equivalence-consistency clause
    for ``case`` from ``paired_parts``, run by the module ``paired``."""
    A, n, pi, sigma, phi = case
    report = paired.check_torsion_blocks(twisted_double(A, phi), paired.PairedOperator(A, n, pi, sigma))
    return [f for c in report.clauses if c.name == "equivalence-consistency" for f in c.failures]


@st.composite
def drawn_parts(draw):
    return paired_parts(lambda items: draw(st.sampled_from(items)))


@settings(max_examples=200, deadline=None)
@given(drawn_parts())
def test_torsion_blocks_equivalence_is_consistent(case):
    # each block's torsion vanishes iff its displayed system holds, wherever
    # that system is defined: covectors where N pi is a bivector, vectors
    # where sigma(N., .) is a 2-form, twisted or not
    import algebroid_forge.paired as paired

    assert equivalence_failures(paired, case) == []


@st.composite
def scaled_poisson(draw):
    """pi = f e1^e2 on TR2, TR3 or TR4, f a nonzero polynomial of degree <= 2."""
    A = draw(st.sampled_from((TR2, TR3, TR4)))
    f = A.scalar(draw(st.integers(-2, 2)))
    for name in A.coords:
        f = f + A.coord_rf(name) ** draw(st.integers(1, 2)) * draw(st.integers(-2, 2))
    assume(not f.is_zero())
    return A, std_pi(A).scale(f)


@settings(max_examples=30, deadline=None)
@given(scaled_poisson())
def test_scaled_poisson_with_zero_n_and_sigma_is_a_true_instance(case):
    # any f e1^e2 is Poisson, and with N = 0 and sigma = 0 the operator
    # squares to 0, so both torsion blocks vanish and the theorem applies
    A, pi = case
    op = PairedOperator(A, zeros(A), pi, A.zero_section(FORM, 2))
    assert check_torsion_blocks(standard_double(A), op).passed
    assert check_theorem_pqn_from_paired(A, op).passed


@st.composite
def conjugated_rotations(draw):
    """M N0 M^-1 on TR4, N0 the block rotation of corpus/gc_twisted_r4.alg
    and M a constant invertible integer matrix."""
    M = sympy.Matrix(4, 4, [draw(st.integers(-2, 2)) for _ in range(16)])
    assume(M.det() != 0)
    N0 = sympy.Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    N = M * N0 * M.inv()
    return tuple(tuple(TR4.scalar(Fraction(int(c.p), int(c.q))) for c in N.row(k)) for k in range(4))


@settings(max_examples=30, deadline=None)
@given(conjugated_rotations())
def test_conjugated_rotation_is_a_true_instance(n):
    # a constant N with N^2 = -Id, paired with pi = sigma = 0, is generalized
    # complex with vanishing torsion, and its deformed double is identified
    op = PairedOperator(TR4, n, TR4.zero_section(MULTIVECTOR, 2), TR4.zero_section(FORM, 2))
    E = standard_double(TR4)
    assert check_generalized_complex(op).passed
    assert check_torsion_blocks(E, op).passed
    _, report = build_deformed_double(E, op, samples=2)
    assert report.passed


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


@pytest.mark.parametrize(
    "call",
    [
        lambda E, op: deformed_courant_bracket(E, op, E.frame_section(0), E.coframe_section(1)),
        lambda E, op: courant_nijenhuis_torsion(E, op, E.frame_section(0), E.coframe_section(1)),
        check_torsion_blocks,
        build_deformed_double,
    ],
    ids=["deformed_courant_bracket", "courant_nijenhuis_torsion", "check_torsion_blocks", "build_deformed_double"],
)
def test_deformations_reject_a_qlb_double_with_a_dual_side(call):
    # tr2_conformal's qLB has X = 0 but a dual side anchored on both frames:
    # its double is neither standard nor twisted
    Q = corpus_qlbs("tr2_conformal")["Q"]
    E = qlb_double(Q)
    assert E.x3.is_zero() and E.dual.anchored == (0, 1)
    op = PairedOperator(E.base, zeros(E.base), E.base.zero_section(MULTIVECTOR, 2), E.base.zero_section(FORM, 2))
    with pytest.raises(ParentMismatch, match="deformations act on standard or twisted doubles"):
        call(E, op)


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
