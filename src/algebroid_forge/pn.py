"""Bivectors, endomorphisms and twists: sharp maps, deformed brackets,
Nijenhuis torsion, twisted Poisson structures, quasi-Lie bialgebroids,
Poisson quasi-Nijenhuis structures and their morphisms.

Derived presentations do the heavy lifting: the dual algebroid A*_{pi,phi}
(coframe as frame, anchor rho o pi#) and, from the one builder
``deformed_presentation``, the N-deformed structure (A, [.,.]_N, rho o N),
the prime structure (A, [.,.]', rho) and their twisted-deformed join are
ordinary presentations, so the generic differential and Schouten machinery applies to
both sides of every duality; ``d_star``, ``dual_bracket`` and ``dual_anchor``
read it on the dual side of a quasi-Lie bialgebroid or a split double.
"""

from __future__ import annotations

from itertools import combinations

from .calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    apply_field,
    check_axioms,
    d_function,
    derived_presentation,
    differential,
    evaluate,
    exterior_power,
    identity_matrix,
    insert,
    is_lie_algebroid_morphism,
    lie_derivative,
    mat_apply,
    null_presentation,
    pairing,
    pullback,
    random_sections,
    retag,
    schouten,
    vector_field,
    wedge,
)
from .errors import (
    DegreeMismatch,
    HypothesisNotSatisfied,
    MalformedMorphism,
    ParentMismatch,
    VarianceMismatch,
)
from .rational import RationalFunction
from .reporting import EVIDENCE_SAMPLED, PROOF_GENERATORS, PROOF_TENSORIAL, Report

Matrix = tuple[tuple[RationalFunction, ...], ...]


# ---------------------------------------------------------------------------
# sharp maps and matrices
# ---------------------------------------------------------------------------


def contraction_matrix(t: GradedSection) -> Matrix:
    """Matrix of u -> i_u t for a degree-2 section t: column i lists the
    components of the contraction with the i-th coframe element when t is a
    bivector (the matrix of pi#) or the i-th frame element when t is a 2-form
    (the matrix of sigma_flat)."""
    A = t.parent
    unit = A.coframe if t.variance == MULTIVECTOR else A.frame
    rows = [[A.zero_rf() for _ in range(A.rank)] for _ in range(A.rank)]
    for i in range(A.rank):
        for (k,), c in insert(t, unit(i)).coeffs.items():
            rows[k][i] = c
    return tuple(tuple(r) for r in rows)


def nstar_matrix(A: AlgebroidPresentation, n_matrix: Matrix) -> Matrix:
    """Matrix of N* on the coframe: N*(eps^i) = sum_j N[i][j] eps^j."""
    return tuple(tuple(n_matrix[i][j] for i in range(A.rank)) for j in range(A.rank))


def matrix_compose(A: AlgebroidPresentation, left: Matrix, right: Matrix) -> Matrix:
    rank = A.rank
    out = []
    for k in range(rank):
        row = []
        for i in range(rank):
            acc = A.zero_rf()
            for m in range(rank):
                if not left[k][m].is_zero() and not right[m][i].is_zero():
                    acc = acc + left[k][m] * right[m][i]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def pi_sharp(pi: GradedSection, mu: GradedSection) -> GradedSection:
    """Extension of pi# to k-forms: <pi# mu, a_1 ^...^ a_k> = (-1)^k mu(pi# a_1, ...).

    pi# is antisymmetric, so the sign cancels against the transpose: pi# mu
    is mu with every slot sent through pi#."""
    if pi.variance != MULTIVECTOR or pi.degree != 2:
        raise DegreeMismatch("pi must be a degree-2 multivector")
    if mu.variance != FORM:
        raise VarianceMismatch("pi_sharp acts on forms")
    A = pi.parent
    if mu.parent != A:
        raise ParentMismatch("sections live on different presentations")
    images = [insert(pi, A.coframe(i)) for i in range(A.rank)]
    return exterior_power(A, MULTIVECTOR, mu.degree, mu.coeffs, images)


def bivector_from_sharp(A: AlgebroidPresentation, sharp: Matrix) -> GradedSection:
    """Reconstruct the bivector with a given sharp matrix; requires antisymmetry."""
    coeffs = {}
    for j in range(A.rank):
        for k in range(j + 1, A.rank):
            coeffs[(j, k)] = sharp[k][j]
    return A.section(MULTIVECTOR, 2, coeffs)


def intertwining(A: AlgebroidPresentation, pi: GradedSection, n_matrix: Matrix) -> Matrix:
    """N pi# - pi# N*, read from N o pi#; see ``_plus_transpose``."""
    return _plus_transpose(matrix_compose(A, n_matrix, contraction_matrix(pi)))


def _plus_transpose(nsharp: Matrix) -> Matrix:
    """nsharp + nsharp^T.  For nsharp = N o pi#, since pi# is antisymmetric,
    it is N pi# - pi# N*: it vanishes iff N pi is a bivector."""
    rank = len(nsharp)
    return tuple(tuple(nsharp[k][j] + nsharp[j][k] for j in range(rank)) for k in range(rank))


# ---------------------------------------------------------------------------
# deformed brackets and torsion
# ---------------------------------------------------------------------------


def deformed_bracket(n_matrix: Matrix, X: GradedSection, Y: GradedSection) -> GradedSection:
    """[X, Y]_N = [NX, Y] + [X, NY] - N[X, Y]."""
    nx, ny = mat_apply(n_matrix, X), mat_apply(n_matrix, Y)
    return schouten(nx, Y) + schouten(X, ny) - mat_apply(n_matrix, schouten(X, Y))


def nijenhuis_torsion(n_matrix: Matrix, X: GradedSection, Y: GradedSection) -> GradedSection:
    """T_N(X, Y) = [NX, NY] - N [X, Y]_N."""
    nx, ny = mat_apply(n_matrix, X), mat_apply(n_matrix, Y)
    return schouten(nx, ny) - mat_apply(n_matrix, deformed_bracket(n_matrix, X, Y))


def deformed_presentation(
    A: AlgebroidPresentation,
    n_matrix: Matrix,
    pi: GradedSection | None,
    phi: GradedSection | None,
) -> AlgebroidPresentation:
    """(A, [.,.]_N - pi#(phi(.,.,-)), rho o N) as presentation data (axioms not
    implied): A_N when phi is None or zero, and with N = Id the prime
    structure (A, [.,.]', rho) whose differential is d'."""
    def bracket(i: int, j: int) -> GradedSection:
        X, Y = A.frame(i), A.frame(j)
        br = deformed_bracket(n_matrix, X, Y)
        if phi is not None:
            br = br - pi_sharp(pi, insert(phi, wedge(X, Y)))
        return br

    return derived_presentation(A, n_matrix, bracket)


# ---------------------------------------------------------------------------
# i_N, d_N, N* pullbacks
# ---------------------------------------------------------------------------


def _nstar_images(A: AlgebroidPresentation, n_matrix: Matrix) -> list[GradedSection]:
    """N* eps^j for every coframe element."""
    nstar = nstar_matrix(A, n_matrix)
    return [mat_apply(nstar, A.coframe(j)) for j in range(A.rank)]


def insert_endomorphism(A: AlgebroidPresentation, n_matrix: Matrix, mu: GradedSection) -> GradedSection:
    """i_N mu, the degree-0 derivation (i_N mu)(X_1..X_k) = sum_j mu(.., N X_j, ..),
    written as sum_j N* eps^j ^ i_{e_j} mu (0 on functions): both sides are
    degree-0 derivations that agree on 1-forms."""
    if mu.variance != FORM:
        raise VarianceMismatch("i_N acts on forms")
    out = A.zero_section(FORM, mu.degree)
    if mu.degree:
        for j, image in enumerate(_nstar_images(A, n_matrix)):
            out = out + wedge(image, insert(mu, A.frame(j)))
    return out


def nstar_pullback(A: AlgebroidPresentation, n_matrix: Matrix, psi: GradedSection) -> GradedSection:
    """N* on forms, every slot through N: (N* psi)(X_1..X_k) = psi(N X_1, .., N X_k)."""
    return exterior_power(A, FORM, psi.degree, psi.coeffs, _nstar_images(A, n_matrix))


def d_n(A: AlgebroidPresentation, n_matrix: Matrix, mu: GradedSection) -> GradedSection:
    """d_N = i_N o d - d o i_N (equals the Cartan differential of (A,[.,.]_N, rho N))."""
    return insert_endomorphism(A, n_matrix, differential(mu)) - differential(
        insert_endomorphism(A, n_matrix, mu)
    )


# ---------------------------------------------------------------------------
# Poisson / twisted Poisson brackets and duals
# ---------------------------------------------------------------------------


def twisted_bracket(
    pi: GradedSection, phi: GradedSection, alpha: GradedSection, beta: GradedSection
) -> GradedSection:
    """[a, b]^phi_pi = L_{pi#a} b - L_{pi#b} a - d(pi(a,b)) + phi(pi#a, pi#b, -)."""
    A = pi.parent
    sa, sb = pi_sharp(pi, alpha), pi_sharp(pi, beta)
    out = lie_derivative(sa, beta) - lie_derivative(sb, alpha)
    out = out - d_function(A, pairing(wedge(alpha, beta), pi))
    if phi is not None:
        out = out + insert(phi, wedge(sa, sb))
    return out


def poisson_bracket(pi: GradedSection, alpha: GradedSection, beta: GradedSection) -> GradedSection:
    """The phi = 0 specialization of the twisted bracket."""
    return twisted_bracket(pi, None, alpha, beta)


def twisted_differential(pi: GradedSection, phi: GradedSection, X: GradedSection) -> GradedSection:
    """d^phi_pi X = [pi, X] - pi#(i_X phi) on functions and degree-1 sections."""
    if X.degree > 1:
        raise DegreeMismatch("the displayed formula covers degrees 0 and 1")
    out = schouten(pi, X)
    if X.degree == 1 and phi is not None:
        out = out - pi_sharp(pi, insert(phi, X))
    return out


def dual_presentation(
    A: AlgebroidPresentation,
    pi: GradedSection,
    phi: GradedSection | None = None,
) -> AlgebroidPresentation:
    """A*_{pi,phi}: coframe as frame, bracket [.,.]^phi_pi, anchor rho o pi#."""
    return derived_presentation(
        A,
        contraction_matrix(pi),
        lambda i, j: twisted_bracket(pi, phi, A.coframe(i), A.coframe(j)),
    )


# ---------------------------------------------------------------------------
# compatibility checks
# ---------------------------------------------------------------------------


def concomitant(A: AlgebroidPresentation, pi: GradedSection, n_matrix: Matrix):
    """The Magri-Morosi concomitant C(pi, N) as a function of two 1-forms,
    or None when N o pi# is not antisymmetric, so that N pi is no bivector.
    N pi, N* and A*_pi are built once, for every pair the caller evaluates;
    N o pi# is composed once, for the antisymmetry test and for N pi."""
    nsharp = matrix_compose(A, n_matrix, contraction_matrix(pi))
    if any(not c.is_zero() for row in _plus_transpose(nsharp) for c in row):
        return None
    npi = bivector_from_sharp(A, nsharp)
    nstar = nstar_matrix(A, n_matrix)
    dual = dual_presentation(A, pi)

    def C(alpha: GradedSection, beta: GradedSection) -> GradedSection:
        first = poisson_bracket(npi, alpha, beta)
        second = deformed_bracket(
            nstar, retag(alpha, dual, MULTIVECTOR), retag(beta, dual, MULTIVECTOR)
        )
        return first - retag(second, A, FORM)

    return C


def magri_morosi(
    A: AlgebroidPresentation,
    pi: GradedSection,
    n_matrix: Matrix,
    alpha: GradedSection,
    beta: GradedSection,
) -> GradedSection:
    """C(pi, N)(a, b) = [a, b]_{N pi} - [a, b]^{N*}_pi; requires N pi antisymmetric."""
    C = concomitant(A, pi, n_matrix)
    if C is None:
        raise HypothesisNotSatisfied("N pi is not a bivector (N o pi# not antisymmetric)")
    return C(alpha, beta)


def check_compatible(A: AlgebroidPresentation, pi: GradedSection, n_matrix: Matrix) -> Report:
    """N pi# = pi# N* and vanishing Magri-Morosi concomitant, on frames."""
    report = Report("check-compatible")
    residue = intertwining(A, pi, n_matrix)
    anti = report.clause("np-bivector", PROOF_TENSORIAL, note="precondition: N pi antisymmetric")
    for j in range(A.rank):
        for k in range(j, A.rank):
            anti.record(f"(Npi)[{j+1},{k+1}]+(Npi)[{k+1},{j+1}]", residue[k][j])
    intertwine = report.clause("sharp-intertwines", PROOF_TENSORIAL)
    for k in range(A.rank):
        for i in range(A.rank):
            intertwine.record(f"(Npi# - pi#N*)[{k+1},{i+1}]", residue[k][i])
    mm = report.clause("magri-morosi", PROOF_TENSORIAL)
    C = concomitant(A, pi, n_matrix)
    if C is None:
        mm.record_flag("precondition", False, "Npi-not-a-bivector")
    else:
        for i in range(A.rank):
            for j in range(i + 1, A.rank):
                mm.record(f"C(eps{i+1},eps{j+1})", C(A.coframe(i), A.coframe(j)))
    return report


def check_twisted_poisson(pi: GradedSection, phi: GradedSection) -> Report:
    """d phi = 0 and [pi, pi] = 2 pi#(phi), exactly."""
    report = Report("check-twisted-poisson")
    closed = report.clause("closed-3form", PROOF_TENSORIAL)
    closed.record("dphi", differential(phi))
    identity = report.clause("twisted-poisson-identity", PROOF_TENSORIAL)
    residue = schouten(pi, pi) - pi_sharp(pi, phi).scale(2)
    identity.record("[pi,pi]-2pi#(phi)", residue)
    return report


class PqnStructure:
    __slots__ = ("A", "pi", "n_matrix", "phi")

    def __init__(self, A: AlgebroidPresentation, pi: GradedSection, n_matrix: Matrix, phi):
        self.A, self.pi, self.n_matrix, self.phi = A, pi, n_matrix, phi


def check_pqn(
    A: AlgebroidPresentation,
    pi: GradedSection,
    n_matrix: Matrix,
    phi: GradedSection,
) -> Report:
    """All Poisson quasi-Nijenhuis clauses, each an exact residue."""
    report = Report("check-pqn")
    poisson = report.clause("pi-poisson", PROOF_TENSORIAL)
    poisson.record("[pi,pi]", schouten(pi, pi))
    compat = check_compatible(A, pi, n_matrix)
    report.clauses.extend(compat.clauses)
    closed = report.clause("closed-3form", PROOF_TENSORIAL)
    closed.record("dphi", differential(phi))
    closed_in = report.clause("closed-iNphi", PROOF_TENSORIAL)
    closed_in.record("d(iNphi)", differential(insert_endomorphism(A, n_matrix, phi)))
    torsion = report.clause("torsion-matches-phi", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            t = nijenhuis_torsion(n_matrix, A.frame(i), A.frame(j))
            corr = pi_sharp(pi, insert(phi, wedge(A.frame(i), A.frame(j))))
            torsion.record(f"T_N(e{i+1},e{j+1})+pi#(i phi)", t + corr)
    return report


# ---------------------------------------------------------------------------
# quasi-Lie bialgebroids
# ---------------------------------------------------------------------------


class QuasiLieBialgebroid:
    """(base, d_*, X): base carries the Lie algebroid; ``dual`` is the anchored
    bracket data on base^* whose Cartan formula defines d_* on multivectors of
    base; ``x3`` is the degree-3 multivector."""

    __slots__ = ("base", "dual", "x3")

    def __init__(self, base: AlgebroidPresentation, dual: AlgebroidPresentation, x3):
        self.base, self.dual, self.x3 = base, dual, x3


# The dual side of a quasi-Lie bialgebroid or of a split double: D is anything
# with ``.base`` and ``.dual``; forms on D.base are sections of D.dual.


def d_star(D, s) -> GradedSection:
    """d_* on a function or a multivector of D.base: the Cartan differential
    of D.dual read back on D.base.  Not cached: ``differential`` and
    ``d_function`` cache on D.dual."""
    if isinstance(s, RationalFunction):
        return retag(d_function(D.dual, s), D.base, MULTIVECTOR)
    if s.variance != MULTIVECTOR:
        raise VarianceMismatch("d_star acts on multivectors of the base algebroid")
    return retag(differential(retag(s, D.dual, FORM)), D.base, MULTIVECTOR)


def dual_bracket(D, a: GradedSection, b: GradedSection) -> GradedSection:
    """[a, b]_* on forms of D.base: the Schouten bracket of D.dual."""
    return retag(
        schouten(retag(a, D.dual, MULTIVECTOR), retag(b, D.dual, MULTIVECTOR)), D.base, FORM
    )


def dual_anchor(D, a: GradedSection) -> tuple[RationalFunction, ...]:
    """rho_*(a): base components of the anchor of D.dual on a 1-form of D.base."""
    return vector_field(retag(a, D.dual, MULTIVECTOR))


def qlb_from_closed3form(A: AlgebroidPresentation, phi: GradedSection) -> QuasiLieBialgebroid:
    """(A*, d_A, phi) with the null structure on A*; requires d phi = 0."""
    if not differential(phi).is_zero():
        raise HypothesisNotSatisfied("phi is not closed")
    base = null_presentation(A)
    return QuasiLieBialgebroid(base, A, retag(phi, base, MULTIVECTOR))


def qlb_from_twisted_poisson(
    A: AlgebroidPresentation, pi: GradedSection, phi: GradedSection
) -> QuasiLieBialgebroid:
    """(A*_{pi,phi}, d', phi); requires the twisted Poisson identity."""
    pre = check_twisted_poisson(pi, phi)
    if not pre.passed:
        raise HypothesisNotSatisfied("not a twisted Poisson structure")
    base = dual_presentation(A, pi, phi)
    prime = deformed_presentation(A, identity_matrix(A), pi, phi)
    return QuasiLieBialgebroid(base, prime, retag(phi, base, MULTIVECTOR))


def _require_pqn(S: PqnStructure) -> None:
    pre = check_pqn(S.A, S.pi, S.n_matrix, S.phi)
    if not pre.passed:
        failing = ", ".join(c.name for c in pre.failing_clauses())
        raise HypothesisNotSatisfied(f"not a PqN structure (failing: {failing})")


def build_qlb_from_pqn(S: PqnStructure) -> QuasiLieBialgebroid:
    """The section-2 theorem: (A*_pi, d_N, phi) from a PqN structure."""
    _require_pqn(S)
    base = dual_presentation(S.A, S.pi)
    dual = deformed_presentation(S.A, S.n_matrix, None, None)
    return QuasiLieBialgebroid(base, dual, retag(S.phi, base, MULTIVECTOR))


def check_qlb(
    Q: QuasiLieBialgebroid,
    seed: int = 0,
    samples: int = 10,
    max_degree: int = 2,
) -> Report:
    """d_* X = 0, d_*^2 = [X, -] on generators, and the bracket-derivation property."""
    report = Report("check-qlb", params={"seed": seed, "samples": samples, "max_degree": max_degree})
    report.clause("base-axioms", PROOF_TENSORIAL).absorb(check_axioms(Q.base))
    closes = report.clause("dstar-closes-X", PROOF_TENSORIAL, note="coefficient identity")
    closes.record("dstar(X)", d_star(Q, Q.x3))
    squared = report.clause(
        "dstar-squared-is-bracket-with-X",
        PROOF_GENERATORS,
        note="complete: both sides are degree-2 derivations",
    )
    for name in Q.base.coords:
        f = Q.base.coord_rf(name)
        residue = d_star(Q, d_star(Q, f)) - schouten(Q.x3, Q.base.function(f))
        squared.record(f"generator {name}", residue)
    for i in range(Q.base.rank):
        u = Q.base.frame(i)
        residue = d_star(Q, d_star(Q, u)) - schouten(Q.x3, u)
        squared.record(f"generator e{i+1}", residue)
    derivation = report.clause("dstar-derives-bracket", EVIDENCE_SAMPLED)

    def derivation_residue(u: GradedSection, v: GradedSection) -> GradedSection:
        # d_*[u, v] = [d_*u, v] + (-1)^{p-1} [u, d_*v], p = deg u
        sign = -1 if (u.degree - 1) % 2 else 1
        return (
            d_star(Q, schouten(u, v))
            - schouten(d_star(Q, u), v)
            - schouten(u, d_star(Q, v)).scale(sign)
        )

    for i in range(Q.base.rank):
        for j in range(i + 1, Q.base.rank):
            derivation.record(
                f"frames e{i+1},e{j+1}", derivation_residue(Q.base.frame(i), Q.base.frame(j))
            )
        for name in Q.base.coords:
            derivation.record(
                f"e{i+1},{name}",
                derivation_residue(Q.base.frame(i), Q.base.function(Q.base.coord_rf(name))),
            )
    for s, (u, v) in enumerate(random_sections(Q.base, seed, samples, max_degree)):
        u, v = Q.base.section(MULTIVECTOR, 1, u), Q.base.section(MULTIVECTOR, 1, v)
        derivation.record(f"sample {s}", derivation_residue(u, v))
    return report


def verify_lemma_tnstar(S: PqnStructure) -> Report:
    """<T_{N*}(a, b), X> = phi(pi# a, pi# b, X) on all frame triples."""
    _require_pqn(S)
    A = S.A
    dual = dual_presentation(A, S.pi)
    nstar = nstar_matrix(A, S.n_matrix)
    report = Report("verify-lemma-tnstar")
    clause = report.clause("tnstar-identity", PROOF_TENSORIAL)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            torsion = nijenhuis_torsion(nstar, dual.frame(i), dual.frame(j))
            torsion_form = retag(torsion, A, FORM)
            si = pi_sharp(S.pi, A.coframe(i))
            sj = pi_sharp(S.pi, A.coframe(j))
            for k in range(A.rank):
                lhs = pairing(torsion_form, A.frame(k))
                rhs = evaluate(S.phi, [si, sj, A.frame(k)])
                clause.record(f"(eps{i+1},eps{j+1},e{k+1})", lhs - rhs)
    return report


# ---------------------------------------------------------------------------
# quasi-Lie bialgebroid morphisms
# ---------------------------------------------------------------------------


def check_qlb_morphism(
    phi: BundleMorphism,
    QA: QuasiLieBialgebroid,
    QB: QuasiLieBialgebroid,
) -> Report:
    """The four clauses of a quasi-Lie bialgebroid morphism, exactly."""
    if phi.source != QA.base or phi.target != QB.base:
        raise MalformedMorphism("morphism must map between the underlying algebroids")
    report = Report("check-qlb-morphism")
    report.clause("lie-algebroid-morphism", PROOF_GENERATORS).absorb(is_lie_algebroid_morphism(phi))

    brackets = report.clause("dual-brackets-compatible", PROOF_TENSORIAL)
    for i in range(QB.base.rank):
        for j in range(i + 1, QB.base.rank):
            a, b = QB.base.coframe(i), QB.base.coframe(j)
            lhs = dual_bracket(QA, pullback(phi, a), pullback(phi, b))
            brackets.record(f"eps{i+1},eps{j+1}", lhs - pullback(phi, dual_bracket(QB, a, b)))

    anchors = report.clause("dual-anchors-related", PROOF_TENSORIAL)
    for j in range(QB.base.rank):
        v = dual_anchor(QA, pullback(phi, QB.base.coframe(j)))
        w = dual_anchor(QB, QB.base.coframe(j))
        for b, name in enumerate(phi.target.coords):
            push = apply_field(phi.source, v, phi.base_map[b])
            anchors.record(f"eps{j+1}.{name}", push - phi.base_subs(w[b]))

    # (wedge^3 Phi)(X_A)[J] = <Phi^* eps_B^J, X_A>
    threesec = report.clause("three-section-pushes", PROOF_TENSORIAL)
    for jdx in combinations(range(QB.base.rank), 3):
        pushed = pairing(pullback(phi, QB.base.section(FORM, 3, {jdx: QB.base.one_rf()})), QA.x3)
        label = "e" + "^e".join(str(j + 1) for j in jdx)
        threesec.record(label, pushed - phi.base_subs(QB.x3.coefficient(jdx)))
    return report
