import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from algebroid_forge.cli import main
from algebroid_forge.rational import MAX_DEGREE

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"
# (fingerprint key, forge arguments): every corpus file, and courant_tr2 at kappa 1
FINGERPRINT_RUNS = [(path.stem, (str(path),)) for path in sorted(CORPUS.glob("*.alg"))] + [
    ("courant_tr2-kappa1", (str(CORPUS / "courant_tr2.alg"), "--kappa", "1"))
]
# the sampled Courant checks, where a wrong memo key would show, also at seeds 3 and 7
SAMPLED_RUNS = (
    "twisted_poisson_r4",
    "twisted_dirac_r4",
    "twisted_nonclosed_r4",
    "courant_tr2",
    "courant_tr2-kappa1",
)
# the benchmark's generator of rational-chart inputs, loaded from its file
_spec = importlib.util.spec_from_file_location("ratchart", ROOT / "perfbench" / "ratchart.py")
ratchart = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ratchart)
# (test id, fingerprint key, forge arguments, seed); arguments None stand for
# the rational-chart input of that key and seed, generated as the benchmark does
SEEDED_RUNS = (
    [(key, key, args, 0) for key, args in FINGERPRINT_RUNS]
    + [
        (f"{key}@{seed}", key, args, seed)
        for seed in (3, 7)
        for key, args in FINGERPRINT_RUNS
        if key in SAMPLED_RUNS
    ]
    + [(f"{label}@{seed}", label, None, seed) for seed in (0, 3, 7) for label, *_ in ratchart.SPECS]
)


def forge(*args):
    return subprocess.run(
        [sys.executable, "-m", "algebroid_forge.cli", *args],
        capture_output=True,
        text=True,
    )


class TestExitCodes:
    def test_pass_corpus(self):
        for name in ("so3.alg", "aff1.alg", "tr2_conformal.alg", "split_dirac_tr3.alg"):
            result = forge("check", str(CORPUS / name))
            assert result.returncode == 0, result.stdout + result.stderr

    def test_fail_corpus(self):
        for name in ("corrupted_so3.alg", "twisted_dirac_r4_bad.alg", "tr2_triangular.alg"):
            result = forge("check", str(CORPUS / name))
            assert result.returncode == 1, result.stdout + result.stderr

    def test_parse_error(self):
        result = forge("check", str(CORPUS / "parse_error.alg"))
        assert result.returncode == 2
        assert "expected" in result.stderr

    def test_missing_file(self):
        result = forge("check", str(CORPUS / "nope.alg"))
        assert result.returncode == 2

    def test_semantic_error_in_task(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebroid A { base = []; rank = 1; }\ntask check-axioms B;\n")
        result = forge("check", str(bad))
        assert result.returncode == 2


class TestRecords:
    def test_record_shape(self):
        result = forge("check", str(CORPUS / "so3.alg"), "--format", "records")
        lines = result.stdout.strip().splitlines()
        assert lines
        for line in lines:
            fields = dict(part.split("=", 1) for part in line.split(" "))
            assert set(fields) == {"task", "clause", "class", "residue", "verdict"}
            assert fields["verdict"] in ("pass", "fail")

    def test_failing_record_carries_residue(self):
        result = forge("check", str(CORPUS / "corrupted_so3.alg"), "--format", "records")
        failing = [l for l in result.stdout.splitlines() if "verdict=fail" in l]
        assert failing
        assert any("residue=1" in l for l in failing)

    def test_determinism(self):
        for name in ("e3_pqn.alg", "e5_gc.alg", "courant_tr2.alg"):
            first = forge("check", str(CORPUS / name), "--format", "records", "--seed", "3")
            second = forge("check", str(CORPUS / name), "--format", "records", "--seed", "3")
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode

    def test_seed_independent_verdicts(self):
        # exact arithmetic keeps sampled verdicts stable across seeds
        verdicts = []
        for seed in ("0", "7"):
            result = forge(
                "check", str(CORPUS / "e3_pqn.alg"), "--format", "records", "--seed", seed
            )
            verdicts.append(
                [l.split("verdict=")[1] for l in result.stdout.strip().splitlines()]
            )
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize(
        "key, args, seed",
        [run[1:] for run in SEEDED_RUNS],
        ids=[run[0] for run in SEEDED_RUNS],
    )
    def test_matches_benchmark_fingerprints(self, capsys, tmp_path, key, args, seed):
        # records stay byte-identical to those the benchmark verifies
        table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["records_sha256"]
        if args is None:
            args = (str(dict(ratchart.write_inputs(tmp_path, seed))[key]),)
        main(["check", *args, "--format", "records", "--seed", str(seed)])
        records = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(records).hexdigest() == table[f"{key}@{seed}"]


class TestKappa:
    def test_default_half_passes(self):
        result = forge("check", str(CORPUS / "courant_tr2.alg"))
        assert result.returncode == 0

    def test_kappa_one_fails_c2(self):
        result = forge("check", str(CORPUS / "courant_tr2.alg"), "--kappa", "1")
        assert result.returncode == 1
        assert "C2" in result.stdout


TR3_HEADER = """algebroid TR3 {
  base = [x1, x2, x3];
  rank = 3;
  anchor[1,x1] = 1;
  anchor[2,x2] = 1;
  anchor[3,x3] = 1;
}
tensor chi on TR3 form degree 3 { (1,2,3) = 1; }
task build-qlb from_3form TR3 chi as Q;
"""


def assert_input_error(result, path):
    # exit 2 with a message naming the file, never a traceback
    assert result.returncode == 2, result.stdout + result.stderr
    assert str(path) in result.stderr
    assert not any(line.startswith("Traceback") for line in result.stderr.splitlines())


class TestBadInput:
    @pytest.mark.parametrize(
        "task, argument",
        [
            ("task verify-courant;", "argument 1 must be standard, twisted or qlb"),
            ("task check-generalized-dirac standard TR3;", "argument 3 must be tp_conormal"),
            ("task check-split-dirac Q span [e3];", "argument 4 must be at"),
        ],
    )
    def test_missing_task_arguments(self, tmp_path, task, argument):
        bad = tmp_path / "bad.alg"
        bad.write_text(TR3_HEADER + task + "\n")
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        # the task line follows the nine header lines
        assert f"10:1: task {task.split()[1].rstrip(';')}: {argument}" in result.stderr

    def test_zero_to_negative_power(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebroid A { base = [x1]; rank = 1; anchor[1,x1] = (x1-x1)^-1; }\n")
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        assert "1:62: expected a nonzero base for a negative exponent" in result.stderr

    def test_invalid_utf8(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_bytes(b"algebroid A { base = []; rank = 1; }\n# \xff\xfe\n")
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        assert "utf-8" in result.stderr

    def test_deeply_nested_expression(self, tmp_path):
        # 3,000 parentheses would exhaust the parser's recursion: the depth
        # cap turns them into a parse error at the 101st
        bad = tmp_path / "bad.alg"
        prefix = "algebroid A { base = [x1]; rank = 1; anchor[1,x1] = "
        bad.write_text(prefix + "(" * 3000 + "x1" + ")" * 3000 + "; }\n")
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        column = len(prefix) + 101
        assert f"1:{column}: expected at most 100 nested parentheses or signs" in result.stderr

    def test_exponent_over_cap(self, tmp_path):
        # an exponent that packed monomials cannot hold is a parse error at
        # the '^', not a silently different monomial
        bad = tmp_path / "bad.alg"
        bad.write_text("algebroid A { base = [x1]; rank = 1; anchor[1,x1] = x1^5000000000; }\n")
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        assert f"1:55: expected an exponent of at most {MAX_DEGREE}, found '5000000000'" in result.stderr

    def test_degree_overflow_in_a_task_is_an_error(self, tmp_path, capsys):
        # x1^MAX_DEGREE parses; the first product of the check overflows
        path = tmp_path / "top.alg"
        path.write_text(
            f"algebroid A {{ base = [x1]; rank = 1; anchor[1,x1] = x1^{MAX_DEGREE}; }}\n"
            "task check-axioms A;\n"
        )
        assert main(["check", str(path), "--format", "records"]) == 1
        out = capsys.readouterr().out
        assert f"exceeds{MAX_DEGREE} verdict=error" in out

    def test_max_degree_over_cap(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(CORPUS / "so3.alg"), "--max-degree", str(MAX_DEGREE + 1)])
        assert exit_.value.code == 2
        assert f"expected at most {MAX_DEGREE}, got '{MAX_DEGREE + 1}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--samples", "--max-degree"])
    def test_negative_sampling_sizes(self, flag):
        result = forge("check", str(CORPUS / "so3.alg"), flag, "-3")
        assert result.returncode == 2
        assert "expected a non-negative integer, got '-3'" in result.stderr
        assert "Traceback" not in result.stderr
