"""Paired operators on a split double: deformed brackets, Courant-Nijenhuis
torsion, the Poisson-quasi-Nijenhuis sufficiency theorem, the generalized
complex condition, and the deformed-double identification theorems.
"""

from __future__ import annotations

from .calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    GradedSection,
    differential,
    insert,
    mat_apply,
    retag,
    schouten,
    vector_field,
    wedge,
)
from .courant import (
    CourantDouble,
    CourantSection,
    SectionFamily,
    anchor_field,
    pairing_sections,
    qlb_double,
    skew_bracket,
    standard_double,
)
from .errors import HypothesisNotSatisfied, ParentMismatch
from .pn import (
    Matrix,
    QuasiLieBialgebroid,
    check_pqn,
    concomitant,
    contraction_matrix,
    deformed_presentation,
    dual_presentation,
    insert_endomorphism,
    intertwining,
    matrix_compose,
    nijenhuis_torsion,
    nstar_matrix,
    pi_sharp,
)
from .reporting import PROOF_TENSORIAL, EVIDENCE_SAMPLED, Report


class PairedOperator:
    """The block operator [[N, pi], [sigma, -N*]]; paired by construction
    because pi and sigma enter as honest (anti-symmetric) graded sections.
    Equality ignores ``name``."""

    __slots__ = ("A", "n_matrix", "pi", "sigma", "name")

    def __init__(self, A: AlgebroidPresentation, n_matrix: Matrix, pi: GradedSection, sigma, name=""):
        self.A, self.n_matrix, self.pi, self.sigma, self.name = A, n_matrix, pi, sigma, name

    def __eq__(self, other):
        if not isinstance(other, PairedOperator):
            return NotImplemented
        return (self.A, self.n_matrix, self.pi, self.sigma) == (
            other.A, other.n_matrix, other.pi, other.sigma
        )

    def blocks(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        A = self.A
        nstar = nstar_matrix(A, self.n_matrix)
        neg_nstar = tuple(tuple(-c for c in row) for row in nstar)
        return (
            self.n_matrix,
            contraction_matrix(self.pi),
            contraction_matrix(self.sigma),
            neg_nstar,
        )


def apply_operator(op: PairedOperator, e: CourantSection) -> CourantSection:
    """N(X + alpha) = (N X + pi# alpha) + (sigma_flat X - N* alpha)."""
    X, alpha = e.vec, e.cov
    return CourantSection(
        mat_apply(op.n_matrix, X) + insert(op.pi, alpha),
        insert(op.sigma, X) - mat_apply(nstar_matrix(op.A, op.n_matrix), alpha),
    )


def check_paired(
    A: AlgebroidPresentation, blocks: tuple[Matrix, Matrix, Matrix, Matrix]
) -> Report:
    """Pairing antisymmetry <e1, N e2> + <N e1, e2> = 0 on the double frame.

    Equivalent to: the upper-right block is a bivector, the lower-left block
    a 2-form, and the lower-right block minus the transpose of the upper
    left; each residue is reported blockwise.
    """
    n, p, s, m = blocks
    report = Report("check-paired")
    clause = report.clause("pairing-antisymmetry", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(A.rank):
            clause.record(f"upper-right[{i+1},{j+1}]", p[i][j] + p[j][i])
            clause.record(f"lower-left[{i+1},{j+1}]", s[i][j] + s[j][i])
            clause.record(f"diagonal[{i+1},{j+1}]", m[i][j] + n[j][i])
    return report


def _check_double(E: CourantDouble, op: PairedOperator) -> None:
    if E.base != op.A:
        raise ParentMismatch("the operator lives on a different double")
    if not E.x3.is_zero() or E.conjugated:
        raise ParentMismatch("deformations act on standard or twisted doubles")


def deformed_courant_bracket(
    E: CourantDouble, op: PairedOperator, e1: CourantSection, e2: CourantSection
) -> CourantSection:
    """[[e1, e2]]_N = [[N e1, e2]] + [[e1, N e2]] - N [[e1, e2]]."""
    _check_double(E, op)
    return (
        skew_bracket(E, apply_operator(op, e1), e2)
        + skew_bracket(E, e1, apply_operator(op, e2))
        - apply_operator(op, skew_bracket(E, e1, e2))
    )


def courant_nijenhuis_torsion(
    E: CourantDouble, op: PairedOperator, e1: CourantSection, e2: CourantSection
) -> CourantSection:
    """T_N(e1, e2) = [[N e1, N e2]] - N [[e1, e2]]_N."""
    _check_double(E, op)
    return skew_bracket(
        E, apply_operator(op, e1), apply_operator(op, e2)
    ) - apply_operator(op, deformed_courant_bracket(E, op, e1, e2))


def _block_product(A: AlgebroidPresentation, a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """a b + c d, one block of the product of two block operators.  With the
    blocks (n, p, s, m) of [[N, pi#], [sigma_flat, -N*]], (s, n, m, s) gives
    sigma_flat N - N* sigma_flat, whose entry [j][i] is
    sigma(N e_i, e_j) - sigma(e_i, N e_j)."""
    ab, cd = matrix_compose(A, a, b), matrix_compose(A, c, d)
    return tuple(tuple(x + y for x, y in zip(r, q)) for r, q in zip(ab, cd))


def _phi_two_slot(phi: GradedSection, X: GradedSection, Y: GradedSection) -> GradedSection:
    return insert(phi, wedge(X, Y))


def check_torsion_blocks(E: CourantDouble, op: PairedOperator) -> Report:
    """Torsion residues on both frame blocks plus the displayed block systems
    they are equivalent to; the equivalence itself is asserted per instance."""
    _check_double(E, op)
    A = op.A
    phi = E.psi
    twisted = not phi.is_zero()
    report = Report("check-torsion-blocks")

    cov_torsion = report.clause("torsion-on-covectors", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            t = courant_nijenhuis_torsion(
                E, op, E.coframe_section(i), E.coframe_section(j)
            )
            cov_torsion.record(f"T(eps{i+1},eps{j+1})", t)

    vec_torsion = report.clause("torsion-on-vectors", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            t = courant_nijenhuis_torsion(E, op, E.frame_section(i), E.frame_section(j))
            vec_torsion.record(f"T(e{i+1},e{j+1})", t)

    poisson = report.clause("pi-poisson", PROOF_TENSORIAL)
    poisson.record("[pi,pi]", schouten(op.pi, op.pi))

    dual_system = report.clause("dual-block-system", PROOF_TENSORIAL)
    C = concomitant(A, op.pi, op.n_matrix)
    if C is None:
        dual_system.record_flag("Npi-bivector", False, "Npi-not-antisymmetric")
    else:
        for i in range(A.rank):
            for j in range(i + 1, A.rank):
                a, b = A.coframe(i), A.coframe(j)
                lhs = C(a, b)
                if twisted:
                    lhs = lhs - _phi_two_slot(phi, pi_sharp(op.pi, a), pi_sharp(op.pi, b))
                dual_system.record(f"eps{i+1},eps{j+1}", lhs)

    # sigma(N., .) is a 2-form iff sigma(NX, Y) = sigma(X, NY), that is iff
    # sigma_flat N - N* sigma_flat vanishes, its diagonal included
    n, _, s, m = op.blocks()
    symmetric = all(c.is_zero() for row in _block_product(A, s, n, m, s) for c in row)
    dsigma = differential(op.sigma)
    i_n_dsigma = insert_endomorphism(A, op.n_matrix, dsigma)
    nstar = nstar_matrix(A, op.n_matrix)

    system1 = report.clause("vector-block-torsion", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            X, Y = A.frame(i), A.frame(j)
            residue = nijenhuis_torsion(op.n_matrix, X, Y)
            corr = dsigma
            if twisted:
                corr = corr + insert_endomorphism(A, op.n_matrix, phi)
            residue = residue - pi_sharp(op.pi, _phi_two_slot(corr, X, Y))
            if twisted:
                residue = residue + mat_apply(
                    op.n_matrix, pi_sharp(op.pi, _phi_two_slot(phi, X, Y))
                )
            system1.record(f"e{i+1},e{j+1}", residue)

    system2 = report.clause("vector-block-two-form", PROOF_TENSORIAL)
    system2.record_flag("Nsigma-two-form", symmetric, "sigma(N.,.)-not-antisymmetric")
    if symmetric:  # then i_N sigma = sigma(N., .) + sigma(., N.) is twice it
        dnsigma = differential(insert_endomorphism(A, op.n_matrix, op.sigma)).scale(A.one_rf() / 2)
        for i in range(A.rank):
            for j in range(i + 1, A.rank):
                X, Y = A.frame(i), A.frame(j)
                nx, ny = mat_apply(op.n_matrix, X), mat_apply(op.n_matrix, Y)
                residue = _phi_two_slot(dnsigma, X, Y) - _phi_two_slot(i_n_dsigma, X, Y)
                if twisted:
                    residue = residue + _phi_two_slot(phi, X, Y)
                    residue = residue - _phi_two_slot(phi, nx, ny)
                    residue = residue - mat_apply(nstar, _phi_two_slot(phi, nx, Y))
                    residue = residue - mat_apply(nstar, _phi_two_slot(phi, X, ny))
                system2.record(f"e{i+1},e{j+1}", residue)

    consistency = report.clause(
        "equivalence-consistency",
        PROOF_TENSORIAL,
        note="torsion vanishing iff the displayed block systems; mismatch is a library bug",
    )
    consistency.record_flag(
        f"covector block: torsion={cov_torsion.passed} system={poisson.passed and dual_system.passed}",
        cov_torsion.passed == (poisson.passed and dual_system.passed),
        "COVECTOR-EQUIVALENCE-VIOLATED",
    )
    # the vector-block system is defined only when sigma(N., .) is a 2-form
    consistency.record_flag(
        f"vector block: torsion={vec_torsion.passed} system={system1.passed and system2.passed}",
        not symmetric or vec_torsion.passed == (system1.passed and system2.passed),
        "VECTOR-EQUIVALENCE-VIOLATED",
    )
    return report


def check_theorem_pqn_from_paired(A: AlgebroidPresentation, op: PairedOperator) -> Report:
    """Hypotheses of the paired-operator theorem, and on success the PqN
    conclusion for (A, pi, N, d sigma); a hypotheses-pass/conclusion-fail
    combination is flagged as a library bug."""
    report = Report("check-theorem-pqn")
    n, p, s, m = op.blocks()
    report.clause("pairedness", PROOF_TENSORIAL).absorb(check_paired(A, (n, p, s, m)))

    residue = intertwining(A, op.pi, op.n_matrix)
    intertwine = report.clause("sharp-intertwines", PROOF_TENSORIAL)
    for k in range(A.rank):
        for i in range(A.rank):
            intertwine.record(f"[{k+1},{i+1}]", residue[k][i])

    flat = _block_product(A, s, n, m, s)
    symmetry = report.clause("sigma-N-symmetric", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(A.rank):
            symmetry.record(f"sigma(Ne{i+1},e{j+1})-sigma(e{i+1},Ne{j+1})", flat[j][i])

    E = standard_double(A)
    torsion = report.clause("torsion-blocks-vanish", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            torsion.record(
                f"T(eps{i+1},eps{j+1})",
                courant_nijenhuis_torsion(E, op, E.coframe_section(i), E.coframe_section(j)),
            )
            torsion.record(
                f"T(e{i+1},e{j+1})",
                courant_nijenhuis_torsion(E, op, E.frame_section(i), E.frame_section(j)),
            )

    hypotheses = all(c.passed for c in report.clauses)
    if not hypotheses:
        report.clause(
            "conclusion-pqn", PROOF_TENSORIAL, note="not attempted: hypotheses failed"
        ).record_flag("hypotheses", False, "hypotheses-not-satisfied")
        return report

    conclusion = check_pqn(A, op.pi, op.n_matrix, differential(op.sigma))
    report.clause("conclusion-pqn", PROOF_TENSORIAL).absorb(conclusion, prefixed=True)
    report.clause(
        "theorem-consistency",
        PROOF_TENSORIAL,
        note="hypotheses imply the PqN conclusion; a failure here is a library bug",
    ).record_flag(
        f"hypotheses=True conclusion={conclusion.passed}",
        conclusion.passed,
        "THEOREM-VIOLATED",
    )
    return report


def check_generalized_complex(op: PairedOperator) -> Report:
    """N^2 = -Id blockwise plus pairing preservation on frame pairs."""
    A = op.A
    report = Report("check-gc")
    n, p, s, m = op.blocks()
    one = A.one_rf()
    # residue (a b + c d)[i][j], plus Id on the diagonal of the two squares
    for name, a, b, c, d, square in (
        ("Nsquare-plus-pi-sigma", n, n, p, s, True),
        ("sharp-intertwines", n, p, p, m, False),
        ("flat-intertwines", s, n, m, s, False),
        ("lower-right-square", s, p, m, m, True),
    ):
        clause = report.clause(name, PROOF_TENSORIAL)
        product = _block_product(A, a, b, c, d)
        for i in range(A.rank):
            for j in range(A.rank):
                residue = product[i][j]
                clause.record(f"[{i+1},{j+1}]", residue + one if square and i == j else residue)

    E = standard_double(A)
    preserved = report.clause("pairing-preserved", PROOF_TENSORIAL)
    frames = [E.frame_section(i) for i in range(A.rank)] + [
        E.coframe_section(i) for i in range(A.rank)
    ]
    labels = [f"e{i+1}" for i in range(A.rank)] + [f"eps{i+1}" for i in range(A.rank)]
    for i, (l1, u) in enumerate(zip(labels, frames)):
        for l2, v in zip(labels[i:], frames[i:]):
            lhs = pairing_sections(E, apply_operator(op, u), apply_operator(op, v))
            rhs = pairing_sections(E, u, v)
            preserved.record(f"<{l1},{l2}>", lhs - rhs)
    return report


def build_deformed_double(
    E: CourantDouble,
    op: PairedOperator,
    seed: int = 0,
    samples: int = 6,
    max_degree: int = 1,
) -> tuple[QuasiLieBialgebroid, Report]:
    """Construct (A + A*)_N and, independently, the double of the quasi-Lie
    bialgebroid (A*_pi, d_N or d', d sigma (+ i_N phi)); compare bracket,
    anchor and pairing extensionally on the documented family."""
    _check_double(E, op)
    A = op.A
    phi = E.psi
    twisted = not phi.is_zero()

    gc = check_generalized_complex(op)
    blocks = check_torsion_blocks(E, op)
    # every generalized-complex clause, and the torsion on both frame blocks
    blocking = [c.name for c in (*gc.clauses, *blocks.clauses[:2]) if not c.passed]
    if blocking:
        raise HypothesisNotSatisfied(
            f"deformed double hypotheses fail: {', '.join(sorted(blocking))}", blocks
        )

    base = dual_presentation(A, op.pi)
    dual = deformed_presentation(A, op.n_matrix, op.pi, phi)
    x = differential(op.sigma)
    if twisted:
        x = x + insert_endomorphism(A, op.n_matrix, phi)
    Q = QuasiLieBialgebroid(base, dual, retag(x, base, MULTIVECTOR), name="deformed")
    Eq = qlb_double(Q)

    def flipped(e: CourantSection) -> CourantSection:
        return CourantSection(retag(e.cov, base, MULTIVECTOR), retag(e.vec, base, FORM))

    report = Report(
        "build-deformed-double", params={"seed": seed, "samples": samples, "max_degree": max_degree}
    )
    family = SectionFamily(E, seed, samples, max_degree)

    bracket_clause = report.clause("bracket-agrees", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2) in family.tuples(2):
        lhs = skew_bracket(Eq, flipped(e1), flipped(e2))
        rhs = flipped(deformed_courant_bracket(E, op, e1, e2))
        bracket_clause.record(f"{l1},{l2}", lhs - rhs)

    anchor_clause = report.clause("anchor-agrees", EVIDENCE_SAMPLED)
    for label, e in family.singles():
        lhs = anchor_field(Eq, flipped(e))
        deformed_vec = mat_apply(op.n_matrix, e.vec) + pi_sharp(op.pi, e.cov)
        rhs = vector_field(deformed_vec)
        for a, name in enumerate(A.coords):
            anchor_clause.record(f"{label}.{name}", lhs[a] - rhs[a])

    pairing_clause = report.clause("pairing-agrees", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2) in family.tuples(2):
        lhs = pairing_sections(Eq, flipped(e1), flipped(e2))
        rhs = pairing_sections(E, apply_operator(op, e1), apply_operator(op, e2))
        pairing_clause.record(f"{l1},{l2}", lhs - rhs)
    return Q, report
