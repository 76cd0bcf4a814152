"""Hand-written expected outcome of every benchmark input.

label -> (exit code, per-task verdicts in file order).  The corpus entries
come from the README (exit 0 iff every task passes, 1 if any task fails,
2 on parse errors) and from the exit codes asserted in
tests/test_acceptance.py and tests/test_cli.py, and from each file's own
header comment; none is copied from engine output.  The rational-chart
entries are the a-priori verdicts argued in ratchart.py.
"""

PASS, FAIL = "pass", "fail"

EXPECTED = {
    # courant-poly
    "twisted_poisson_r4": (0, (PASS, PASS, PASS, PASS)),  # header: a genuine twisted Poisson structure
    "twisted_dirac_r4": (0, (PASS, PASS)),  # test_acceptance criterion 5
    "twisted_nonclosed_r4": (1, (FAIL,)),  # header: non-closed twist breaks C1
    "courant_tr2": (0, (PASS,)),  # criterion 4, --kappa 1/2
    "courant_tr2-kappa1": (1, (FAIL,)),  # criterion 4 and test_cli: C2 fails for kappa 1
    # cli-corpus
    "aff1": (0, (PASS,)),  # criterion 1
    "corrupted_so3": (1, (FAIL,)),  # criterion 9
    "e3_pqn": (0, (PASS,) * 7),  # criteria 2 and 7
    "e5_gc": (0, (PASS,) * 7),  # criterion 8
    "gc_twisted_r4": (0, (PASS,) * 4),  # header: both torsion blocks vanish, double identified
    "heisenberg_pn": (0, (PASS,) * 6),  # header: Poisson-Nijenhuis, a Lie bialgebroid
    "parse_error": (2, ()),  # criterion 9
    "so3": (0, (PASS,)),  # criteria 1 and 9
    "split_dirac_tr3": (0, (PASS, PASS)),  # test_cli pass corpus
    "tr2_conformal": (0, (PASS,) * 6),  # criterion 3 (conformal variant)
    "tr2_triangular": (1, (FAIL,)),  # test_cli fail corpus; README: rotation block rejected
    "twisted_dirac_r4_bad": (1, (FAIL,)),  # criterion 5
    # rational-chart
    "rational_r2": (0, (PASS, PASS)),  # injective anchor: Lie algebroid, Courant double
    "rational_r3": (0, (PASS, PASS)),
    "rational_r3_broken": (1, (FAIL, FAIL)),  # anchor compatibility and C4 fail
}
