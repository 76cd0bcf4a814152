"""Paired operators on a split double: deformed brackets, Courant-Nijenhuis
torsion, the Poisson-quasi-Nijenhuis sufficiency theorem, the generalized
complex condition, and the deformed-double identification theorems.
"""

from __future__ import annotations

from itertools import combinations

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
from .errors import DegreeMismatch, HypothesisNotSatisfied, ParentMismatch, VarianceMismatch
from .pn import (
    Matrix,
    QuasiLieBialgebroid,
    check_pqn,
    concomitant,
    contraction_matrix,
    deformed_presentation,
    dual_presentation,
    insert_endomorphism,
    matrix_compose,
    nijenhuis_torsion,
    nstar_matrix,
    pi_sharp,
)
from .reporting import PROOF_TENSORIAL, EVIDENCE_SAMPLED, Report


class PairedOperator:
    """The block operator [[N, pi#], [sigma_flat, -N*]]; paired by construction
    because pi and sigma enter as honest (anti-symmetric) graded sections.
    ``blocks`` is its one representation, the four block matrices
    (n, p, s, m), built here once: column i of ``contraction_matrix(t)`` is
    i_{e_i or eps^i} t.  pi must be a bivector and sigma a 2-form on A, and N
    a rank x rank matrix on A's chart; an error names the part that is not.
    Equality ignores ``name``."""

    __slots__ = ("A", "n_matrix", "pi", "sigma", "name", "blocks")

    def __init__(self, A: AlgebroidPresentation, n_matrix: Matrix, pi: GradedSection, sigma, name=""):
        for part, t, variance in (("pi", pi, MULTIVECTOR), ("sigma", sigma, FORM)):
            if t.parent != A:
                raise ParentMismatch(f"{part} lives on a different algebroid")
            if t.variance != variance:
                raise VarianceMismatch(f"{part} must be a {variance}, got a {t.variance}")
            if t.degree != 2:
                raise DegreeMismatch(f"{part} must have degree 2, got {t.degree}")
        rows = (len(row) == A.rank and all(c.vars == A.coords for c in row) for row in n_matrix)
        if len(n_matrix) != A.rank or not all(rows):
            raise ParentMismatch(f"N must be a {A.rank} x {A.rank} matrix on the chart {', '.join(A.coords)}")
        self.A, self.n_matrix, self.pi, self.sigma, self.name = A, n_matrix, pi, sigma, name
        neg_nstar = tuple(tuple(-c for c in row) for row in nstar_matrix(A, n_matrix))
        self.blocks = (n_matrix, contraction_matrix(pi), contraction_matrix(sigma), neg_nstar)

    def __eq__(self, other):
        if not isinstance(other, PairedOperator):
            return NotImplemented
        return (self.A, self.n_matrix, self.pi, self.sigma) == (
            other.A, other.n_matrix, other.pi, other.sigma
        )


def apply_operator(op: PairedOperator, e: CourantSection) -> CourantSection:
    """N(X + alpha) = (n X + p alpha) + (s X + m alpha): the blocks act on the
    components, the off-diagonal ones across the two halves."""
    n, p, s, m = op.blocks
    X, alpha = e.vec, e.cov
    return CourantSection(
        mat_apply(n, X) + retag(mat_apply(p, alpha), op.A, MULTIVECTOR),
        retag(mat_apply(s, X), op.A, FORM) + mat_apply(m, alpha),
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
    if not E.x3.is_zero() or E.dual.anchored or E.dual.structure:
        raise ParentMismatch("deformations act on standard or twisted doubles")


def deformed_courant_bracket(
    E: CourantDouble, op: PairedOperator, e1: CourantSection, e2: CourantSection
) -> CourantSection:
    """[[e1, e2]]_N = [[N e1, e2]] + [[e1, N e2]] - N [[e1, e2]]."""
    _check_double(E, op)
    return _deformed(E, op, e1, e2, apply_operator(op, e1), apply_operator(op, e2))


def _deformed(E: CourantDouble, op: PairedOperator, e1, e2, n1, n2) -> CourantSection:
    """[[e1, e2]]_N = [[n1, e2]] + [[e1, n2]] - N [[e1, e2]], given the images
    n1 = N e1 and n2 = N e2, so that a caller applies N to each section once."""
    return skew_bracket(E, n1, e2) + skew_bracket(E, e1, n2) - apply_operator(op, skew_bracket(E, e1, e2))


def courant_nijenhuis_torsion(
    E: CourantDouble, op: PairedOperator, e1: CourantSection, e2: CourantSection
) -> CourantSection:
    """T_N(e1, e2) = [[N e1, N e2]] - N [[e1, e2]]_N."""
    _check_double(E, op)
    n1, n2 = apply_operator(op, e1), apply_operator(op, e2)
    return skew_bracket(E, n1, n2) - apply_operator(op, _deformed(E, op, e1, e2, n1, n2))


def _block_product(A: AlgebroidPresentation, a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """a b + c d, one block of the product of two block operators.  With the
    blocks (n, p, s, m) of [[N, pi#], [sigma_flat, -N*]], (n, p, p, m) gives
    N pi# - pi# N*, equal entry by entry to ``pn.intertwining`` since pi# is
    antisymmetric, and (s, n, m, s) gives sigma_flat N - N* sigma_flat, whose
    entry [j][i] is sigma(N e_i, e_j) - sigma(e_i, N e_j)."""
    ab, cd = matrix_compose(A, a, b), matrix_compose(A, c, d)
    return tuple(tuple(x + y for x, y in zip(r, q)) for r, q in zip(ab, cd))


def _phi_two_slot(phi: GradedSection, X: GradedSection, Y: GradedSection) -> GradedSection:
    return insert(phi, wedge(X, Y))


def _record_torsions(E: CourantDouble, op: PairedOperator, cov, vec) -> None:
    """For each frame pair i < j, record T_N(eps^i, eps^j) on the clause
    ``cov``, then T_N(e_i, e_j) on ``vec``; one clause may be both."""
    for i, j in combinations(range(op.A.rank), 2):
        for clause, section, name in ((cov, E.coframe_section, "eps"), (vec, E.frame_section, "e")):
            clause.record(f"T({name}{i+1},{name}{j+1})", courant_nijenhuis_torsion(E, op, section(i), section(j)))


def check_torsion_blocks(E: CourantDouble, op: PairedOperator) -> Report:
    """Torsion residues on both frame blocks plus the displayed block systems
    they are equivalent to; the equivalence itself is asserted per instance,
    on covectors where N pi is a bivector and on vectors where sigma(N., .)
    is a 2-form.  The twist phi = E.psi enters every system (a zero twist
    adds zero)."""
    _check_double(E, op)
    A, phi = op.A, E.psi
    report = Report("check-torsion-blocks")
    cov_torsion = report.clause("torsion-on-covectors", PROOF_TENSORIAL)
    vec_torsion = report.clause("torsion-on-vectors", PROOF_TENSORIAL)
    _record_torsions(E, op, cov_torsion, vec_torsion)

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
                lhs = C(a, b) - _phi_two_slot(phi, pi_sharp(op.pi, a), pi_sharp(op.pi, b))
                dual_system.record(f"eps{i+1},eps{j+1}", lhs)

    # sigma(N., .) is a 2-form iff sigma(NX, Y) = sigma(X, NY), that is iff
    # sigma_flat N - N* sigma_flat vanishes, its diagonal included
    n, p, s, m = op.blocks
    symmetric = all(c.is_zero() for row in _block_product(A, s, n, m, s) for c in row)
    dsigma = differential(op.sigma)
    i_n_dsigma = insert_endomorphism(A, op.n_matrix, dsigma)

    system1 = report.clause("vector-block-torsion", PROOF_TENSORIAL)
    corr = dsigma + insert_endomorphism(A, op.n_matrix, phi)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            X, Y = A.frame(i), A.frame(j)
            residue = nijenhuis_torsion(op.n_matrix, X, Y)
            residue = residue - pi_sharp(op.pi, _phi_two_slot(corr, X, Y))
            residue = residue + mat_apply(op.n_matrix, pi_sharp(op.pi, _phi_two_slot(phi, X, Y)))
            system1.record(f"e{i+1},e{j+1}", residue)

    system2 = report.clause("vector-block-two-form", PROOF_TENSORIAL)
    system2.record_flag("Nsigma-two-form", symmetric, "sigma(N.,.)-not-antisymmetric")
    if symmetric:  # then i_N sigma = sigma(N., .) + sigma(., N.) is twice it
        dnsigma = differential(insert_endomorphism(A, op.n_matrix, op.sigma)).scale(A.one_rf() / 2)
        square = _block_product(A, s, p, m, m)  # sigma_flat pi# + N*^2, the lower right of N^2
        for i in range(A.rank):
            for j in range(i + 1, A.rank):
                X, Y = A.frame(i), A.frame(j)
                nx, ny = mat_apply(op.n_matrix, X), mat_apply(op.n_matrix, Y)
                residue = _phi_two_slot(dnsigma, X, Y) - _phi_two_slot(i_n_dsigma, X, Y)
                residue = residue - mat_apply(square, _phi_two_slot(phi, X, Y))
                residue = residue - _phi_two_slot(phi, nx, ny)
                residue = residue + mat_apply(m, _phi_two_slot(phi, nx, Y))
                residue = residue + mat_apply(m, _phi_two_slot(phi, X, ny))
                system2.record(f"e{i+1},e{j+1}", residue)

    consistency = report.clause(
        "equivalence-consistency",
        PROOF_TENSORIAL,
        note="torsion vanishing iff the displayed block systems; mismatch is a library bug",
    )
    consistency.record_flag(
        f"covector block: torsion={cov_torsion.passed} system={poisson.passed and dual_system.passed}",
        C is None or cov_torsion.passed == (poisson.passed and dual_system.passed),
        "COVECTOR-EQUIVALENCE-VIOLATED",
    )
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
    n, p, s, m = op.blocks
    report.clause("pairedness", PROOF_TENSORIAL).absorb(check_paired(A, op.blocks))

    # N pi# - pi# N*, the block product check-gc reads as well
    residue = _block_product(A, n, p, p, m)
    intertwine = report.clause("sharp-intertwines", PROOF_TENSORIAL)
    for k in range(A.rank):
        for i in range(A.rank):
            intertwine.record(f"[{k+1},{i+1}]", residue[k][i])

    flat = _block_product(A, s, n, m, s)
    symmetry = report.clause("sigma-N-symmetric", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(A.rank):
            symmetry.record(f"sigma(Ne{i+1},e{j+1})-sigma(e{i+1},Ne{j+1})", flat[j][i])

    torsion = report.clause("torsion-blocks-vanish", PROOF_TENSORIAL)
    _record_torsions(standard_double(A), op, torsion, torsion)

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
    n, p, s, m = op.blocks
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
    images = [apply_operator(op, u) for u in frames]
    for i, (l1, u, ju) in enumerate(zip(labels, frames, images)):
        for l2, v, jv in zip(labels[i:], frames[i:], images[i:]):
            lhs = pairing_sections(E, ju, jv)
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
    bialgebroid (A*_pi, d_N or d', d sigma + i_N phi); compare bracket,
    anchor and pairing extensionally on the documented family."""
    _check_double(E, op)
    A, phi = op.A, E.psi

    # every generalized-complex clause, and the torsion on both frame blocks
    hypotheses = check_generalized_complex(op)
    on_covectors = hypotheses.clause("torsion-on-covectors", PROOF_TENSORIAL)
    _record_torsions(E, op, on_covectors, hypotheses.clause("torsion-on-vectors", PROOF_TENSORIAL))
    blocking = [c.name for c in hypotheses.failing_clauses()]
    if blocking:
        raise HypothesisNotSatisfied(f"deformed double hypotheses fail: {', '.join(sorted(blocking))}")

    base = dual_presentation(A, op.pi)
    dual = deformed_presentation(A, op.n_matrix, op.pi, phi)
    x = differential(op.sigma) + insert_endomorphism(A, op.n_matrix, phi)
    Q = QuasiLieBialgebroid(base, dual, retag(x, base, MULTIVECTOR))
    Eq = qlb_double(Q)

    def flipped(e: CourantSection) -> CourantSection:
        return CourantSection(retag(e.cov, base, MULTIVECTOR), retag(e.vec, base, FORM))

    report = Report(
        "build-deformed-double", params={"seed": seed, "samples": samples, "max_degree": max_degree}
    )
    family = SectionFamily(E, seed, samples, max_degree)
    images = {label: apply_operator(op, e) for label, e in family.singles()}

    bracket_clause = report.clause("bracket-agrees", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2) in family.tuples(2):
        lhs = skew_bracket(Eq, flipped(e1), flipped(e2))
        rhs = flipped(_deformed(E, op, e1, e2, images[l1], images[l2]))
        bracket_clause.record(f"{l1},{l2}", lhs - rhs)

    anchor_clause = report.clause("anchor-agrees", EVIDENCE_SAMPLED)
    for label, e in family.singles():
        lhs = anchor_field(Eq, flipped(e))
        rhs = vector_field(images[label].vec)
        for a, name in enumerate(A.coords):
            anchor_clause.record(f"{label}.{name}", lhs[a] - rhs[a])

    pairing_clause = report.clause("pairing-agrees", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2) in family.tuples(2):
        lhs = pairing_sections(Eq, flipped(e1), flipped(e2))
        rhs = pairing_sections(E, images[l1], images[l2])
        pairing_clause.record(f"{l1},{l2}", lhs - rhs)
    return Q, report
