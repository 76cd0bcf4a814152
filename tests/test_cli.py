import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_forge import algfile, cli, tangent_algebroid
from algebroid_forge.algfile import MAX_COORDS, MAX_RANK
from algebroid_forge.cli import MAX_SAMPLES, OPTIONS, SLOTS, TASKS, RunConfig, main
from algebroid_forge.errors import CLIP
from algebroid_forge.rational import MAX_DEGREE, MAX_DIGITS, MAX_TERMS, tokenize
from algebroid_forge.reporting import PROOF_TENSORIAL, Report

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


# stdlib modules that no check may load: each costs every run its import
UNLOADED = {
    *("dataclasses", "typing", "inspect", "ast", "dis"),
    *("fractions", "decimal", "numbers", "argparse", "gettext", "random", "os", "re"),
    *("enum", "functools", "collections", "shutil", "locale", "lzma", "bz2"),
}
# a -S child that imports the package, runs forge on each of its arguments
# (an argument list joined by unit separators), then prints the modules loaded
RUN_ALL = """
import sys
from algebroid_forge import cli
for argv in [arg.split("\\x1f") for arg in sys.argv[1:]]:
    try:
        cli.main(argv)
    except SystemExit:
        pass
print("@modules", " ".join(sorted(sys.modules)))
"""


def test_import_loads_no_introspection_modules():
    # every check pays the package's import in a fresh interpreter; pytest and
    # hypothesis load these modules here, so a -S child reports what the
    # package itself pulls in, also on the paths a run takes: every corpus
    # file, kappa 1, --help and a usage error
    runs = [["check", *args] for _, args in FINGERPRINT_RUNS]
    runs += [["--help"], ["check", str(CORPUS / "so3.alg"), "--kappa", "2"]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", RUN_ALL, *("\x1f".join(argv) for argv in runs)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = set(result.stdout.rsplit("@modules", 1)[1].split())
    assert "algebroid_forge.cli" in loaded
    assert "forge check: error: argument --kappa" in result.stderr
    assert "Traceback" not in result.stderr
    assert not loaded & UNLOADED, sorted(loaded & UNLOADED)


def test_run_config_defaults():
    # kappa is the --kappa text, read as a scalar by verify_courant_axioms
    config = RunConfig()
    assert (config.seed, config.samples, config.max_degree, config.kappa) == (0, 10, 2, "1/2")
    assert tangent_algebroid(1).scalar(config.kappa) == Fraction(1, 2)


def test_reports_and_clauses_start_empty_and_unshared():
    first, second = Report("a"), Report("b")
    assert first.clauses == [] and first.params == {} and first.verdict_override is None
    first.params["seed"] = 1
    one, two = first.clause("x", PROOF_TENSORIAL), second.clause("y", PROOF_TENSORIAL)
    one.record_flag("bad", False)
    assert (one.checked, one.failures, one.note) == (1, [("bad", "violated")], "")
    assert second.params == {} and second.clauses == [two]
    assert (two.checked, two.failures) == (0, [])


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

    @pytest.mark.parametrize(
        "declarations, shape",
        [
            ((CORPUS / "so3.alg").read_text(), "so3 has rank 3 on 0 coordinates"),
            ("algebroid B { base = [x1]; rank = 2; anchor[1,x1] = 1; }\n", "B has rank 2 on 1 coordinates"),
        ],
        ids=["point-base", "rank-2-on-1"],
    )
    def test_conormal_off_a_tangent_type_algebroid(self, tmp_path, declarations, shape):
        # TP + nu*P needs rank = base dimension: the chart decides it at bind
        # time, so no task runs
        bad = tmp_path / "bad.alg"
        task = f"task check-generalized-dirac standard {shape.split()[0]} tp_conormal [];\n"
        bad.write_text(declarations + task)
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        assert result.stdout == ""
        line = declarations.count("\n") + 1
        assert f"{line}:1: task check-generalized-dirac: tp_conormal needs rank = base dimension, {shape}" in (
            result.stderr
        )

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

    @pytest.mark.parametrize(
        "expression, operator, terms",
        [
            # C(60 + 3, 3) = 39,711 terms, but a product on the way, the 455
            # terms of p^12 by the 969 of p^16, is over the cap
            ("(x1+x2+x3+1)^60", "^", 455 * 969),
            # C(40 + 4, 4) = 135,751 terms, refused before any product
            ("(x1+x2+x3+x4+1)^40", "^", 135751),
            # C(12 + 3, 3) = 455 terms on each side
            ("(x1+x2+x3+1)^12 * (x1+x2+x3+2)^12", "*", 455 * 455),
        ],
        ids=["power", "power-bound", "product"],
    )
    def test_expression_over_term_cap(self, tmp_path, capsys, expression, operator, terms):
        # a parse error at the operator, before the expansion costs its time
        prefix = "algebroid A { base = [x1, x2, x3, x4]; rank = 1; anchor[1,x1] = "
        path = tmp_path / "big.alg"
        path.write_text(f"{prefix}{expression}; }}\n")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        column = len(prefix) + expression.index(operator) + 1
        expected = f"expected a polynomial of at most {MAX_TERMS} terms, found 'up to {terms} terms'"
        assert f"1:{column}: {expected}" in capsys.readouterr().err

    def test_term_overflow_in_a_task_is_an_error(self, tmp_path, capsys):
        # 455 terms parse; the check's first product of two such is over the cap
        path = tmp_path / "wide.alg"
        path.write_text(
            "algebroid A { base = [x1, x2, x3]; rank = 1; anchor[1,x1] = (x1+x2+x3+1)^12; }\n"
            "task check-axioms A;\n"
        )
        assert main(["check", str(path), "--format", "records"]) == 1
        assert f"termsexceeds{MAX_TERMS} verdict=error" in capsys.readouterr().out

    def test_degree_overflow_in_a_sum(self, tmp_path, capsys):
        # the sum's common denominator has degree 40,000: a parse error at
        # the '+', where it was an uncaught DegreeOverflow
        path = tmp_path / "sum.alg"
        path.write_text("algebroid A { base = [x1]; rank = 1; anchor[1,x1] = x1^20000 + 1/x1^20000; }\n")
        assert main(["check", str(path)]) == 2
        expected = f"1:62: expected a polynomial degree of at most {MAX_DEGREE}, found 'degree 40000'"
        assert expected in capsys.readouterr().err

    def test_max_degree_over_cap(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(CORPUS / "so3.alg"), "--max-degree", str(MAX_DEGREE + 1)])
        assert exit_.value.code == 2
        assert f"expected at most {MAX_DEGREE}, got '{MAX_DEGREE + 1}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [str(MAX_SAMPLES + 1), "7" * 5000])
    def test_samples_over_cap_start_no_check(self, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a check started"))
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(CORPUS / "so3.alg"), "--samples", value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        shown = value if len(value) <= CLIP else value[:CLIP] + "..."
        assert err.startswith("usage: forge check")
        assert f"forge check: error: argument --samples: expected at most {MAX_SAMPLES}, got '{shown}'" in err
        assert "Traceback" not in err
        assert cli.parse_args(["check", "f.alg", "--samples", str(MAX_SAMPLES)])[1]["--samples"] == MAX_SAMPLES

    @pytest.mark.parametrize("flag", ["--samples", "--max-degree"])
    def test_negative_sampling_sizes(self, flag):
        result = forge("check", str(CORPUS / "so3.alg"), flag, "-3")
        assert result.returncode == 2
        assert "expected a non-negative integer, got '-3'" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "text, column",
        [
            ("algebroid A { base = []; rank = " + "7" * 4400 + "; }\n", 33),
            ("algebroid A { base = [x1]; rank = 1; anchor[1,x1] = x1 + " + "7" * 4400 + "; }\n", 58),
        ],
        ids=["rank", "coefficient"],
    )
    def test_integer_literal_over_cap(self, tmp_path, capsys, text, column):
        # int() of a literal this long is refused by the interpreter; the
        # tokenizer's cap makes it a parse error at the literal
        path = tmp_path / "big.alg"
        path.write_text(text + "task check-axioms A;\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"1:{column}: expected an integer of at most {MAX_DIGITS} digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                f"algebroid A {{ base = []; rank = 2; bracket[1,2] = e{'7' * 5000}; }}\n",
                "1:51: expected a frame term",
            ),
            (
                TR3_HEADER + f"task check-split-dirac Q span [e{'7' * 5000}] at [x3];\n",
                "10:1: task check-split-dirac: span entries must be frame symbols",
            ),
        ],
        ids=["bracket", "span"],
    )
    def test_frame_symbol_over_cap(self, tmp_path, capsys, text, message):
        # e followed by 5,000 digits is no frame symbol, not an int() refused
        path = tmp_path / "frame.alg"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rank", [MAX_RANK + 1, 100000])
    def test_rank_over_cap(self, tmp_path, capsys, rank):
        # a parse error at the rank, before any structure entry is allocated
        path = tmp_path / "rank.alg"
        path.write_text(f"algebroid A {{ base = []; rank = {rank}; }}\ntask check-axioms A;\n")
        assert main(["check", str(path)]) == 2
        assert f"1:33: expected a rank of at most {MAX_RANK}, found '{rank}'" in capsys.readouterr().err

    def test_coordinates_over_cap(self, tmp_path, capsys):
        coords = [f"y{i}" for i in range(MAX_COORDS + 1)]
        path = tmp_path / "coords.alg"
        path.write_text(f"algebroid A {{ base = [{', '.join(coords)}]; rank = 1; }}\n")
        assert main(["check", str(path)]) == 2
        column = len("algebroid A { base = [") + len(", ".join(coords[:-1])) + 3
        expected = f"1:{column}: expected at most {MAX_COORDS} coordinates, found '{coords[-1]}'"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                f"algebroid {'A' * 5001} {{ base = []; rank = 1; }}\n" * 2,
                f"2:11: duplicate name '{'A' * CLIP}...'",
            ),
            (
                TR3_HEADER + f"task check-split-dirac Q span [{'x' * 5001}] at [x3];\n",
                f"10:1: task check-split-dirac: span entries must be frame symbols, got '{'x' * CLIP}...'",
            ),
            (
                f"algebroid A {{ base = []; rank = 2; bracket[{'7' * 1000},1] = e1; }}\n",
                f"1:44: index {'7' * CLIP}... outside 1..2",
            ),
            (
                "algebroid A { base = []; rank = 2; }\n"
                f"morphism Phi : A -> A {{ matrix[{'7' * 1000},1] = 1; }}\n",
                f"2:32: index {'7' * CLIP}... outside 1..2",
            ),
        ],
        ids=["duplicate-name", "span-entry", "bracket-index", "matrix-index"],
    )
    def test_long_names_are_clipped(self, tmp_path, capsys, text, message):
        # an echoed name shows its first CLIP characters, not all 5,001
        path = tmp_path / "long.alg"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert all(len(line) < 200 for line in err.splitlines())

    def test_repeated_chart_coordinate(self, tmp_path, capsys):
        # a second x1 would be a coordinate that no expression can name
        path = tmp_path / "chart.alg"
        path.write_text("algebroid A { base = [x1, x1]; rank = 1; }\ntask check-axioms A;\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert "1:27: duplicate coordinate 'x1'" in captured.err
        assert captured.out == ""

    def test_short_chart_is_listed(self, tmp_path, capsys):
        path = tmp_path / "chart.alg"
        path.write_text("algebroid A { base = [x1, x2]; rank = 1; anchor[1,x1] = w; }\n")
        assert main(["check", str(path)]) == 2
        assert "1:57: expected a coordinate in ['x1', 'x2'], found 'w'" in capsys.readouterr().err

    def test_long_chart_is_clipped(self, tmp_path, capsys):
        # 32 coordinates of 3,000 characters: the chart shows its first CLIP characters
        coords = [f"y{i:02d}" + "z" * 2997 for i in range(32)]
        path = tmp_path / "chart.alg"
        path.write_text(
            f"algebroid A {{ base = [{', '.join(coords)}]; rank = 1; anchor[1,{coords[0]}] = w; }}\n"
        )
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"expected a coordinate in {str(coords)[:CLIP]}..., found 'w'" in err
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize("task", ["check-qlb-morphism", "build-morphism-graph"])
    @pytest.mark.parametrize(
        "ends, why",
        [
            ("ANnull -> AN", "its target AN is not the base of Qtgt"),
            ("AN -> ANnull", "its source AN is not the base of Qsrc"),
        ],
        ids=["target", "source"],
    )
    def test_morphism_off_the_built_bases(self, tmp_path, task, ends, why):
        # AN has the chart and rank of both bases, but both builds give the
        # null structure on it (pi0 = 0 and from_3form), which AN is not.
        # This bound and ran the seven corpus tasks before an error (exit 1)
        text = corpus_with(
            "e3_pqn.alg",
            f"morphism M : {ends} {{ base[x1] = x1; base[x2] = x2; base[x3] = x3; }}",
            f"task {task} M Qsrc Qtgt;",
        )
        bad = tmp_path / "bad.alg"
        bad.write_text(text)
        result = forge("check", str(bad))
        assert_input_error(result, bad)
        wants = "argument 1 must be a morphism from the base of Qsrc to the base of Qtgt"
        assert f"{text.count(chr(10))}:1: task {task}: {wants}: {why}" in result.stderr
        assert result.stdout == ""


def corpus_with(name, *tasks):
    """A corpus file's declarations and tasks, then the given task lines."""
    return (CORPUS / name).read_text(encoding="utf-8") + "".join(t + "\n" for t in tasks)


def check_text(tmp_path, text, *flags):
    path = tmp_path / "tasks.alg"
    path.write_text(text, encoding="utf-8")
    return main(["check", str(path), *flags])


class TestTaskBinding:
    @pytest.mark.parametrize(
        "name, task, message",
        [
            ("so3.alg", "task check-axioms so3 extra;", "unexpected trailing task arguments ['extra']"),
            (
                "e5_gc.alg",
                "task check-gc P foo bar baz;",
                "unexpected trailing task arguments ['foo', 'bar', 'baz']",
            ),
            (
                "e5_gc.alg",
                "task check-torsion-blocks P twist;",
                "argument 3 must be a declared degree-3 form on TR2",
            ),
            ("e5_gc.alg", "task check-torsion-blocks P phi0;", "argument 2 must be twist"),
            ("e3_pqn.alg", "task build-qlb AN pi0 N phi as;", "unexpected trailing task arguments ['as']"),
            # a 3-form where the bivector goes was a ValueError traceback
            (
                "e3_pqn.alg",
                "task check-compatible AN phi N;",
                "argument 2 must be a declared degree-2 multivector on AN",
            ),
            ("e3_pqn.alg", "task check-qlb Q;", "argument 1 must be a declared built qlb"),
            # a repeated list entry ran with doubled instance counts
            (
                "split_dirac_tr3.alg",
                "task check-split-dirac Q span [e3, e3] at [x3];",
                "argument 3 repeats 'e3'",
            ),
            (
                "split_dirac_tr3.alg",
                "task check-split-dirac Q span [e3, e03] at [x3];",
                "argument 3 repeats 'e03'",
            ),
            (
                "split_dirac_tr3.alg",
                "task check-split-dirac Q span [e3] at [x3, x3];",
                "argument 5 repeats 'x3'",
            ),
            # an integer in a coordinate list was a TypeError traceback
            (
                "split_dirac_tr3.alg",
                "task check-split-dirac Q span [e3] at [3];",
                "unknown coordinate '3' in submanifold argument",
            ),
        ],
    )
    def test_misfit_is_an_error_at_the_task_line(self, tmp_path, capsys, name, task, message):
        text = corpus_with(name, task)
        assert check_text(tmp_path, text) == 2
        line = text.count("\n")
        captured = capsys.readouterr()
        assert f"{line}:1: task {task.split()[1]}: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("task", ["check-qlb-morphism", "build-morphism-graph"])
    @pytest.mark.parametrize(
        "ends",
        ["T2 -> T2 { base[y1] = y1; base[y2] = y2; }", "ANnull -> T2 { base[y1] = x1; base[y2] = x2; }"],
        ids=["source", "target"],
    )
    def test_morphism_off_the_qlb_charts_is_an_error(self, tmp_path, capsys, task, ends):
        # Qsrc and Qtgt have the chart and rank of AN; a morphism off them
        # was a task error after every earlier task had run
        text = corpus_with(
            "e3_pqn.alg",
            "algebroid T2 { base = [y1, y2]; rank = 2; }",
            f"morphism M : {ends}",
            f"task {task} M Qsrc Qtgt;",
        )
        assert check_text(tmp_path, text) == 2
        captured = capsys.readouterr()
        message = "argument 1 must be a morphism from the chart and rank of Qsrc to those of Qtgt"
        assert f"{text.count(chr(10))}:1: task {task}: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name",
        ["e3_pqn.alg", "heisenberg_pn.alg", "split_dirac_tr3.alg", "tr2_conformal.alg", "twisted_poisson_r4.alg"],
    )
    def test_bases_are_the_built_bases(self, name):
        # the bind-time check of a Phi reads cli.BASES: each must give the
        # base its build task builds
        assert set(cli.BASES) == {u for u in TASKS if u.endswith(" as Q")}
        builds = [t for t in cli.bind(algfile.parse((CORPUS / name).read_text())) if t.binds]
        assert builds
        for task in builds:
            usage = next(u for u, call in TASKS.items() if call is task.call)
            Q = task.call(RunConfig(), *task.values)
            assert cli.BASES[usage](*task.values) == Q.base

    def test_base_that_cannot_be_built_is_left_to_the_build(self, tmp_path, capsys):
        # the twisted base of pibig has degree 40000: its build task reports
        # the overflow, and the morphism check an unbuilt qLB (exit 1, as
        # before the bind-time check of bases)
        text = corpus_with(
            "e3_pqn.alg",
            "tensor pibig on AN multivector degree 2 { (1,2) = x1^20000; }",
            "task build-qlb from_twisted AN pibig psi as Qbig;",
            "task check-qlb-morphism Nstar Qsrc Qbig;",
        )
        assert check_text(tmp_path, text, "--format", "records") == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "task=build-qlb#8 clause=- class=- residue=polynomialdegree40000exceeds32767 verdict=error",
            "task=check-qlb-morphism#9 clause=- class=- residue=qlbQbigwasnotbuilt:itsbuildtaskfailed verdict=error",
        ]

    def test_bad_last_task_runs_no_task(self, tmp_path, capsys, monkeypatch):
        # every task is bound before the first runs, so a misspelled last
        # task costs no check
        def run_task(runner, task):
            raise AssertionError(f"ran {task.name}")

        monkeypatch.setattr(cli._TaskRunner, "run_task", run_task)
        text = corpus_with("twisted_poisson_r4.alg", "task check-axiom TR4;")
        assert check_text(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert f"{text.count(chr(10))}:1: unknown task 'check-axiom'" in captured.err
        assert captured.out == ""

    def test_task_naming_a_failed_build_is_an_error(self, tmp_path, capsys):
        # phibad is not closed: the build fails its hypothesis, and the
        # task that names its qLB reports an error; exit 1, not 2
        text = corpus_with(
            "twisted_nonclosed_r4.alg",
            "task build-qlb from_3form TR4 phibad as Q;",
            "task check-qlb Q;",
        ).replace("task verify-courant twisted TR4 phibad;\n", "")
        assert check_text(tmp_path, text, "--format", "records") == 1
        assert capsys.readouterr().out.splitlines() == [
            "task=build-qlb#1 clause=- class=- residue=phiisnotclosed verdict=hypothesis-not-satisfied",
            "task=check-qlb#2 clause=- class=- residue=qlbQwasnotbuilt:itsbuildtaskfailed verdict=error",
        ]

    def test_failed_rebuild_unbinds_the_name(self, tmp_path, capsys):
        text = corpus_with(
            "twisted_nonclosed_r4.alg",
            "tensor zero on TR4 form degree 3 { }",
            "task build-qlb from_3form TR4 zero as Q;",
            "task build-qlb from_3form TR4 phibad as Q;",
            "task check-qlb Q;",
        ).replace("task verify-courant twisted TR4 phibad;\n", "")
        assert check_text(tmp_path, text, "--format", "records", "--samples", "0") == 1
        verdicts = [line.rsplit("=", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert verdicts[0] == "pass"
        assert verdicts[-2:] == ["hypothesis-not-satisfied", "error"]


SO3 = str(CORPUS / "so3.alg")


class TestArguments:
    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["check", SO3, "-h"]])
    def test_help_lists_every_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in OPTIONS)
        assert "{1,1/2}" in out and "{text,records}" in out

    def test_flag_value_forms(self, capsys):
        # --seed=3 is --seed 3; a negative seed and a unique prefix are accepted
        runs = [
            ["--seed=3"],
            ["--seed", "3"],
            ["--seed", "-5"],
            ["--max-deg", "1"],
            ["--form", "records", "--kappa=1"],
        ]
        outputs = []
        for flags in runs:
            code = main(["check", str(CORPUS / "courant_tr2.alg"), "--samples", "2", *flags])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert "seed=3" in outputs[0][1]
        assert "seed=-5" in outputs[2][1] and "max_degree=1" in outputs[3][1]
        assert outputs[4][0] == 1 and outputs[4][1].startswith("task=verify-courant#1 clause=C1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", SO3, "--bogus"], "unrecognized arguments: --bogus"),
            (["check", SO3, "--s", "1"], "ambiguous option: --s could match --seed, --samples"),
            (["check"], "missing FILE"),
            (["check", SO3, "extra"], "unrecognized arguments: extra"),
            ([], "missing command 'check'"),
            (["verify", SO3], "invalid command 'verify', expected 'check'"),
            (["check", SO3, "--kappa", "2"], "argument --kappa: invalid choice: '2' (choose from '1', '1/2')"),
            (["check", SO3, "--format", "json"], "argument --format: invalid choice: 'json'"),
            (["check", SO3, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["check", SO3, "--seed", "7" * 5000], f"argument --seed: invalid int value: '{'7' * CLIP}...'"),
            (["check", SO3, "--seed"], "argument --seed: expected one argument"),
            (["check", SO3, "--samples", "--format"], "argument --samples: expected one argument"),
        ],
        ids=[
            "unknown-flag",
            "ambiguous-flag",
            "missing-file",
            "extra-positional",
            "missing-command",
            "unknown-command",
            "bad-kappa",
            "bad-format",
            "non-integer-seed",
            "5000-digit-seed",
            "missing-value",
            "flag-as-value",
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: forge check")
        assert f"forge check: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert all(len(line) < 200 for line in captured.err.splitlines())


# the README's task block, bound against these declarations; Qsrc and Qtgt
# are the qLBs the morphism usages name
README_DECLARATIONS = """
algebroid A { base = [x1, x2, x3]; rank = 3; anchor[1,x1] = 1; anchor[2,x2] = 1; anchor[3,x3] = 1; }
tensor pi on A multivector degree 2 { (1,2) = 1; }
tensor phi on A form degree 3 { }
tensor sigma on A form degree 2 { }
endo N on A { }
algebroid A0 { base = [x1, x2, x3]; rank = 3; }
morphism Phi : A0 -> A0 { }
paired P on A { N = N; pi = pi; sigma = sigma; }
task build-qlb from_3form A phi as Qsrc;
task build-qlb from_3form A phi as Qtgt;
"""


def test_readme_tasks_match_the_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Tasks", 1)[1].split("```")[1]
    lines = [line.split("#")[0].strip() for line in block.strip().splitlines()]
    assert all(line.startswith("task ") and line.endswith(";") for line in lines)
    # every usage of the table appears once, and nothing else
    assert sorted(line[len("task ") : -1] for line in lines) == sorted(TASKS)
    # and every line binds against the table
    bound = cli.bind(algfile.parse(README_DECLARATIONS + "\n".join(lines)))
    assert [task.name for task in bound[2:]] == [line.split()[1] for line in lines]


# corpus files whose tasks each run in well under 0.1 s at --samples 0
FUZZ_FILES = (
    "so3",
    "aff1",
    "tr2_conformal",
    "tr2_triangular",
    "corrupted_so3",
    "split_dirac_tr3",
    "heisenberg_pn",
    "e3_pqn",
    "courant_tr2",
    "e5_gc",
)
KEYWORDS = sorted({word for usage in TASKS for word in usage.split() if word not in SLOTS})


@st.composite
def mutated_tasks(draw):
    """A cheap corpus file whose task lines get 1-3 token edits: a drop, a
    duplicate, a swap of neighbours or an insert drawn from the file's own
    names and the task vocabulary."""
    lines = (CORPUS / (draw(st.sampled_from(FUZZ_FILES)) + ".alg")).read_text().splitlines()
    head = [line for line in lines if not line.startswith("task ")]
    tasks = [
        line[len("task ") :].split("#")[0].strip(" ;").split()
        for line in lines
        if line.startswith("task ")
    ]
    f = algfile.parse("\n".join(head))
    names = [*f.algebroids, *f.tensors, *f.endos, *f.morphisms, *f.paired]
    vocabulary = sorted(set(names + [word for task in tasks for word in task] + KEYWORDS))
    for _ in range(draw(st.integers(1, 3))):
        words = draw(st.sampled_from(tasks))
        k = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")))
        if edit == "insert":
            words.insert(k, draw(st.sampled_from(vocabulary)))
        elif edit == "drop" and k < len(words):
            del words[k]
        elif edit == "duplicate" and k < len(words):
            words.insert(k, words[k])
        elif edit == "swap" and k + 1 < len(words):
            words[k], words[k + 1] = words[k + 1], words[k]
    return "\n".join(head + [f"task {' '.join(words)};" for words in tasks]) + "\n"


@settings(max_examples=400, deadline=None)
@given(text=mutated_tasks())
def test_mutated_tasks_exit_cleanly(tmp_path_factory, text):
    # main never raises: it exits 0, 1 or 2, with a message exactly on 2
    path = tmp_path_factory.getbasetemp() / "mutated.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--samples", "0"])
    assert code in (0, 1, 2)
    assert (code == 2) == bool(err.getvalue()), err.getvalue()


# what an edit of a declaration line may insert, besides the file's own
# coordinates, frame symbols and names
DECLARATION_TOKENS = [
    *"{}[](),;=:",
    "->",
    *"algebroid tensor endo morphism paired on base rank anchor bracket".split(),
    *"multivector form degree matrix N pi sigma".split(),
    *"0 1 2 3 33".split(),
    "7" * MAX_DIGITS,
]


@st.composite
def mutated_declarations(draw):
    """A cheap corpus file whose declaration lines get 1-3 token edits: a
    drop, a duplicate, a swap of neighbours or an insert drawn from the
    declaration vocabulary and the file's own coordinates, frames and names."""
    lines = (CORPUS / (draw(st.sampled_from(FUZZ_FILES)) + ".alg")).read_text().splitlines()
    f = algfile.parse("\n".join(lines))
    rank = max(A.rank for A in f.algebroids.values())
    coords = {c for A in f.algebroids.values() for c in A.coords}
    names = [*f.algebroids, *f.tensors, *f.endos, *f.morphisms, *f.paired]
    vocabulary = sorted({*DECLARATION_TOKENS, *coords, *names, *(f"e{k}" for k in range(1, rank + 2))})
    words = [
        [tok.value for tok in tokenize(line)[:-1]] if not line.startswith("task ") else None
        for line in lines
    ]
    declarations = [k for k, line in enumerate(words) if line]
    for _ in range(draw(st.integers(1, 3))):
        line = words[draw(st.sampled_from(declarations))]
        k = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")))
        if edit == "insert":
            line.insert(k, draw(st.sampled_from(vocabulary)))
        elif edit == "drop" and k < len(line):
            del line[k]
        elif edit == "duplicate" and k < len(line):
            line.insert(k, line[k])
        elif edit == "swap" and k + 1 < len(line):
            line[k], line[k + 1] = line[k + 1], line[k]
    return "\n".join(text if line is None else " ".join(line) for text, line in zip(lines, words)) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=mutated_declarations())
def test_mutated_declarations_exit_cleanly(tmp_path_factory, text):
    # a malformed declaration is exit 2 with a short message, never a traceback
    path = tmp_path_factory.getbasetemp() / "declarations.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--samples", "0"])
    assert code in (0, 1, 2)
    assert (code == 2) == bool(err.getvalue()), err.getvalue()
    assert all(len(line) < 200 for line in err.getvalue().splitlines())
