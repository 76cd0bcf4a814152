"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is exact: a criterion passes only when the relevant residues
normalize to zero.  Criterion 3 is asserted twice: once for the requested
rotation-block instance, which cannot be a Poisson-Nijenhuis pair and which
the engine must reject (pi# of the symplectic bivector on TR2 is an
invertible antisymmetric matrix J, and N J = J N^T forces N J antisymmetric,
so N J = cJ and N = c*Id; a rotation is not scalar), with residues checked
against an independent oracle; and once for the conformal Poisson-Nijenhuis
pair that exercises the full intended pipeline.
"""

import pathlib
import subprocess
import sys
import time
from fractions import Fraction

from algebroid_forge.calculus import (
    FORM,
    check_axioms,
    check_d_squared,
    tangent_algebroid,
)
from algebroid_forge.courant import (
    check_generalized_dirac,
    check_split_dirac,
    build_morphism_graph,
    standard_double,
    tangent_conormal_dirac,
    twisted_double,
    verify_courant_axioms,
)
from algebroid_forge.paired import (
    build_deformed_double,
    check_generalized_complex,
    check_paired,
    check_torsion_blocks,
)
from algebroid_forge.pn import (
    build_qlb_from_pqn,
    check_compatible,
    check_pqn,
    check_qlb,
    check_qlb_morphism,
    verify_lemma_tnstar,
)

from oracles import sharp_intertwining_oracle
from test_calculus import corrupted_so3, so3, aff1
from test_courant import TestSplitDirac
from test_paired import e5_operator
from test_pn import e3_structure, e6_conformal, std_pi

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
TR2 = tangent_algebroid(2)
TR4 = tangent_algebroid(4)


def forge(*args):
    return subprocess.run(
        [sys.executable, "-m", "algebroid_forge.cli", *args],
        capture_output=True,
        text=True,
    )


def verdict(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestCriterion1Foundations:
    def test_foundations(self):
        start = time.monotonic()
        ok = True
        for A in (so3(), aff1(), *(tangent_algebroid(n) for n in (1, 2, 3, 4))):
            ok = ok and check_axioms(A).passed and check_d_squared(A).passed
        bad = check_axioms(corrupted_so3())
        ok = ok and not bad.passed
        jac = [c for c in bad.clauses if c.name == "jacobi"][0]
        labels = [lab for lab, _ in jac.failures]
        ok = ok and any(lab.endswith(".e3") for lab in labels)
        ok = ok and forge("check", str(CORPUS / "so3.alg")).returncode == 0
        ok = ok and forge("check", str(CORPUS / "aff1.alg")).returncode == 0
        elapsed = time.monotonic() - start
        verdict(1, ok and elapsed < 5, f"{elapsed:.2f}s < 5s")


class TestCriterion2PqnTheorem:
    def test_e3_pipeline(self):
        start = time.monotonic()
        S = e3_structure()
        pqn = check_pqn(S.A, S.pi, S.n_matrix, S.phi)
        Q = build_qlb_from_pqn(S)
        qlb = check_qlb(Q, seed=0, samples=20, max_degree=2)
        names = {c.name: c for c in qlb.clauses}
        ok = (
            pqn.passed
            and qlb.passed
            and names["dstar-closes-X"].passed
            and names["dstar-squared-is-bracket-with-X"].passed
            and names["dstar-derives-bracket"].checked >= 20
        )
        ok = ok and forge(
            "check", str(CORPUS / "e3_pqn.alg"), "--samples", "20"
        ).returncode == 0
        elapsed = time.monotonic() - start
        verdict(2, ok and elapsed < 60, f"{elapsed:.2f}s < 60s")


class TestCriterion3PoissonNijenhuis:
    def test_rotation_block_e6(self):
        # the requested instance: pi = d1^d2 with the rotation block.  Only a
        # scalar N satisfies N pi# = pi# N* against this pi (see the module
        # docstring), so the engine must reject the rotation, and its
        # N pi# - pi# N* residues must be those of the independent oracle.
        start = time.monotonic()
        n = ((TR2.zero_rf(), TR2.one_rf()), (-TR2.one_rf(), TR2.zero_rf()))
        report = check_compatible(TR2, std_pi(TR2), n)
        elapsed = time.monotonic() - start
        failing = {c.name for c in report.failing_clauses()}
        intertwine = next(c for c in report.clauses if c.name == "sharp-intertwines")
        residues = {label: Fraction(text) for label, text in intertwine.failures}
        expected = sharp_intertwining_oracle(
            {(0, 1): Fraction(1)}, [[entry.constant_value() for entry in row] for row in n]
        )
        verdict(
            "3 (rotation block E6)",
            not report.passed
            and {"np-bivector", "sharp-intertwines"} <= failing
            and residues == expected
            and elapsed < 10,
            "a rotation is not scalar, so N pi# = pi# N* cannot hold; rejected",
        )

    def test_conformal_pipeline(self):
        start = time.monotonic()
        S = e6_conformal()
        compat = check_compatible(S.A, S.pi, S.n_matrix)
        pqn = check_pqn(S.A, S.pi, S.n_matrix, S.phi)
        lemma = verify_lemma_tnstar(S)
        lemma_clause = lemma.clauses[0]
        Q = build_qlb_from_pqn(S)
        qlb = check_qlb(Q)
        ok = (
            compat.passed
            and pqn.passed
            and lemma.passed
            and lemma_clause.checked > 0
            and Q.x3.is_zero()
            and qlb.passed
        )
        ok = ok and forge("check", str(CORPUS / "tr2_conformal.alg")).returncode == 0
        elapsed = time.monotonic() - start
        verdict("3 (conformal variant)", ok and elapsed < 10, f"{elapsed:.2f}s < 10s")


class TestCriterion4CourantAxioms:
    def test_axioms_and_kappa(self):
        start = time.monotonic()
        E = standard_double(TR2)
        good = verify_courant_axioms(E, kappa=Fraction(1, 2))
        bad = verify_courant_axioms(E, kappa=Fraction(1))
        ok = good.passed and not bad.passed
        ok = ok and [c.name for c in bad.failing_clauses()] == ["C2-squares"]
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.coord_rf("x4")})
        nonclosed = verify_courant_axioms(
            twisted_double(TR4, phi), samples=2, max_degree=1
        )
        ok = ok and not nonclosed.passed
        ok = ok and "C1-leibniz-jacobi" in [c.name for c in nonclosed.failing_clauses()]
        ok = ok and forge("check", str(CORPUS / "courant_tr2.alg")).returncode == 0
        ok = (
            ok
            and forge("check", str(CORPUS / "courant_tr2.alg"), "--kappa", "1").returncode
            == 1
        )
        elapsed = time.monotonic() - start
        verdict(4, ok and elapsed < 60, f"{elapsed:.2f}s < 60s")


class TestCriterion5GeneralizedDirac:
    def test_conormal_corollary(self):
        start = time.monotonic()
        phi = TR4.section(FORM, 3, {(0, 1, 2): TR4.one_rf()})
        E = twisted_double(TR4, phi)
        good = check_generalized_dirac(tangent_conormal_dirac(E, ["x3"]))
        bad = check_generalized_dirac(tangent_conormal_dirac(E, ["x4"]))
        ok = good.passed and not bad.passed
        ok = ok and "D3-bracket-closure" in [c.name for c in bad.failing_clauses()]
        ok = ok and forge("check", str(CORPUS / "twisted_dirac_r4.alg")).returncode == 0
        ok = ok and forge("check", str(CORPUS / "twisted_dirac_r4_bad.alg")).returncode == 1
        elapsed = time.monotonic() - start
        verdict(5, ok and elapsed < 30, f"{elapsed:.2f}s < 30s")


class TestCriterion6SplitDirac:
    def test_biconditional(self):
        instances = TestSplitDirac().instances()
        assert len(instances) >= 4
        ok = True
        has_zero_x = False
        for name, Q, L, P, expected in instances:
            report = check_split_dirac(Q, L, P)
            bic = [c for c in report.clauses if c.name == "biconditional"][0]
            ok = ok and bic.passed
            has_zero_x = has_zero_x or Q.x3.is_zero()
        verdict(6, ok and has_zero_x, f"{len(instances)} instances, X=0 included")


class TestCriterion7Morphisms:
    def test_morphism_theorems(self):
        from test_courant import TestMorphismGraph

        helper = TestMorphismGraph()
        phi, source, target = helper._e3_morphism()
        graph = check_generalized_dirac(build_morphism_graph(phi, source, target))
        morph = check_qlb_morphism(phi, source, target)
        phi_c, source_c, target_c = helper._e3_morphism(corrupt=True)
        corrupted = check_qlb_morphism(phi_c, source_c, target_c)
        ok = graph.passed and morph.passed and not corrupted.passed
        ok = ok and "three-section-pushes" in [
            c.name for c in corrupted.failing_clauses()
        ]
        ok = ok and forge("check", str(CORPUS / "e3_pqn.alg")).returncode == 0
        verdict(7, ok)


class TestCriterion8PairedOperators:
    def test_e5_pipeline(self):
        start = time.monotonic()
        op = e5_operator()
        E = standard_double(TR2)
        paired = check_paired(TR2, op.blocks)
        gc = check_generalized_complex(op)
        blocks = check_torsion_blocks(E, op)
        ok = paired.passed and gc.passed and blocks.passed
        ok = ok and all(not c.failures for c in blocks.clauses)
        Q, ident = build_deformed_double(E, op)
        ok = ok and ident.passed
        names = {c.name for c in ident.clauses}
        ok = ok and {"bracket-agrees", "anchor-agrees", "pairing-agrees"} <= names
        # phi-twisted run with phi = 0: identical verdicts clause by clause
        Et = twisted_double(TR2, TR2.zero_section(FORM, 3))
        blocks_t = check_torsion_blocks(Et, op)
        _, ident_t = build_deformed_double(Et, op)
        ok = ok and [c.passed for c in blocks_t.clauses] == [
            c.passed for c in blocks.clauses
        ]
        ok = ok and ident_t.passed == ident.passed
        ok = ok and forge("check", str(CORPUS / "e5_gc.alg")).returncode == 0
        elapsed = time.monotonic() - start
        verdict(8, ok and elapsed < 60, f"{elapsed:.2f}s < 60s")


class TestCriterion9Determinism:
    def test_records_and_exit_codes(self):
        runs = [
            forge("check", str(CORPUS / "e3_pqn.alg"), "--format", "records", "--seed", "5")
            for _ in range(2)
        ]
        ok = runs[0].stdout == runs[1].stdout and runs[0].stdout.strip()
        ok = ok and forge("check", str(CORPUS / "so3.alg")).returncode == 0
        ok = ok and forge("check", str(CORPUS / "corrupted_so3.alg")).returncode == 1
        ok = ok and forge("check", str(CORPUS / "parse_error.alg")).returncode == 2
        verdict(9, bool(ok))


class TestCriterion10FullSuite:
    def test_shipped_corpus_under_five_minutes(self):
        start = time.monotonic()
        for path in sorted(CORPUS.glob("*.alg")):
            forge("check", str(path))
        elapsed = time.monotonic() - start
        verdict(10, elapsed < 300, f"{elapsed:.2f}s < 300s")
