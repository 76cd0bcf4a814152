import pytest

from algebroid_forge.algfile import TaskItem, parse
from algebroid_forge.errors import ParseError, SemanticError

MINIMAL = """
algebroid A {
  base = [x1, x2];
  rank = 2;
}
task check-axioms A;
"""

SO3 = """
algebroid so3 {
  base = [];
  rank = 3;
  bracket[1,2] = e3;
  bracket[2,3] = e1;
  bracket[3,1] = e2;
}
task check-axioms so3;
"""

FULL = """
# a file exercising every declaration kind
algebroid A {
  base = [x1, x2];
  rank = 2;
  anchor[1,x1] = 1;
  anchor[2,x2] = x1^2 + 1;
  bracket[1,2] = (x1 - 1)*e1 + 2*e2;
}
tensor pi on A multivector degree 2 {
  (1,2) = 1/(x1+1);
}
tensor sigma on A form degree 2 {
  (1,2) = x2;
}
endo N on A {
  [1,1] = x1;
  [2,1] = -1;
}
morphism phi : A -> A {
  base[x1] = x1;
  base[x2] = x2 + 1;
  matrix[1,1] = 1;
  matrix[2,2] = x1;
}
paired P on A {
  N = N;
  pi = pi;
  sigma = sigma;
}
task check-paired P;
task check-compatible A pi N;
"""


class TestParse:
    def test_minimal(self):
        f = parse(MINIMAL)
        assert "A" in f.algebroids
        assert f.algebroids["A"].rank == 2
        assert f.tasks[0].name == "check-axioms"
        assert f.tasks[0].args == ["A"]

    def test_task_equality_ignores_the_line(self):
        task = parse(MINIMAL).tasks[0]
        assert task.line > 1
        assert task == TaskItem("check-axioms", ["A"])
        assert task != TaskItem("check-axioms", ["B"], task.line)

    def test_so3_brackets_with_reversed_indices(self):
        f = parse(SO3)
        A = f.algebroids["so3"]
        # bracket[3,1] = e2 means c_{13}^2 = -1
        assert A.bracket_frame(2, 0).coefficient((1,)) == A.one_rf()
        assert A.bracket_frame(0, 2).coefficient((1,)) == -A.one_rf()

    def test_full_file(self):
        f = parse(FULL)
        assert set(f.tensors) == {"pi", "sigma"}
        assert "N" in f.endos and "phi" in f.morphisms and "P" in f.paired
        assert f.endos["N"][1][0] == -f.algebroids["A"].one_rf()

    def test_zero_lincomb(self):
        f = parse(
            "algebroid A { base = []; rank = 2; bracket[1,2] = 0; }\n"
        )
        assert f.algebroids["A"].bracket_frame(0, 1).is_zero()

    def test_omitted_entries_default_to_zero(self):
        f = parse("algebroid A { base = [x1]; rank = 2; }\n")
        A = f.algebroids["A"]
        assert A.anchor[0][0].is_zero() and A.bracket_frame(0, 1).is_zero()


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("algebroid A { base = [x1; rank = 1; }")
        assert err.value.line == 1

    def test_undeclared_tensor_reference(self):
        text = (
            "algebroid A { base = [x1]; rank = 2; }\n"
            "endo N on A { }\n"
            "paired P on A { N = N; pi = missing; sigma = missing; }\n"
        )
        with pytest.raises(SemanticError):
            parse(text)

    def test_bracket_index_out_of_range(self):
        with pytest.raises(SemanticError):
            parse("algebroid A { base = []; rank = 2; bracket[1,3] = e1; }")

    def test_tensor_index_out_of_range(self):
        text = (
            "algebroid A { base = [x1]; rank = 2; }\n"
            "tensor t on A form degree 1 { (3) = 1; }\n"
        )
        with pytest.raises(SemanticError):
            parse(text)

    def test_tensor_requires_increasing_indices(self):
        text = (
            "algebroid A { base = [x1]; rank = 2; }\n"
            "tensor t on A form degree 2 { (2,1) = 1; }\n"
        )
        with pytest.raises(SemanticError):
            parse(text)

    def test_duplicate_names_rejected(self):
        text = "algebroid A { base = []; rank = 1; }\nalgebroid A { base = []; rank = 1; }\n"
        with pytest.raises(SemanticError):
            parse(text)

    def test_unknown_coordinate_in_expression(self):
        with pytest.raises(ParseError):
            parse("algebroid A { base = [x1]; rank = 1; anchor[1,x1] = y; }")

    def test_high_degree_zero_tensor_allowed(self):
        f = parse(
            "algebroid A { base = [x1]; rank = 2; }\n"
            "tensor z on A form degree 3 { }\n"
        )
        assert f.tensors["z"].is_zero()

    def test_high_degree_nonzero_tensor_rejected(self):
        with pytest.raises(SemanticError):
            parse(
                "algebroid A { base = [x1]; rank = 2; }\n"
                "tensor z on A form degree 3 { (1,2,3) = 1; }\n"
            )


# declarations the entry cases below refer to: A on a 2-dimensional chart of
# rank 2, C on a 1-dimensional chart of rank 1
ENTRY_HEADER = """algebroid A { base = [x1, x2]; rank = 2; }
algebroid C { base = [y1]; rank = 1; }
tensor pi on A multivector degree 2 { }
tensor s on A form degree 2 { }
tensor t on A form degree 1 { }
endo M on A { }
endo MC on C { }
"""

# (id, declaration line with '@' before the offending token, error class,
# message); each form gets an out-of-range index, an unknown coordinate or
# name, and a repeated entry
ENTRY_ERRORS = [
    ("anchor-index", "algebroid B { base = [x1]; rank = 2; anchor[@3,x1] = 1; }", SemanticError,
     "index 3 outside 1..2"),
    ("anchor-coordinate", "algebroid B { base = [x1]; rank = 2; anchor[1,@y] = 1; }", SemanticError,
     "unknown coordinate 'y'"),
    ("anchor-repeat", "algebroid B { base = [x1]; rank = 1; anchor[1,x1] = 1; @anchor[1,x1] = 2; }",
     SemanticError, "anchor[1,x1] set twice"),
    ("bracket-index", "algebroid B { base = []; rank = 2; bracket[1,@3] = e1; }", SemanticError,
     "index 3 outside 1..2"),
    ("bracket-zero-index", "algebroid B { base = []; rank = 2; bracket[@0,1] = e1; }", SemanticError,
     "index 0 outside 1..2"),
    ("bracket-diagonal", "algebroid B { base = []; rank = 2; @bracket[2,2] = e1; }", SemanticError,
     "bracket[2,2] needs two different indices"),
    ("bracket-frame", "algebroid B { base = []; rank = 2; bracket[1,2] = @e3; }", SemanticError,
     "frame index e3 outside rank 2"),
    ("bracket-coordinate", "algebroid B { base = [x1]; rank = 2; bracket[1,2] = @y*e1; }", ParseError,
     "expected a coordinate in ['x1'], found 'y'"),
    ("bracket-repeat", "algebroid B { base = []; rank = 2; bracket[1,2] = e1; @bracket[2,1] = e2; }",
     SemanticError, "bracket[2,1] set twice"),
    ("tensor-index", "tensor u on A form degree 2 { (1,@3) = 1; }", SemanticError,
     "index 3 outside 1..2"),
    ("tensor-length", "tensor u on A form degree 2 { (1@) = 1; }", ParseError, "expected ','"),
    ("tensor-order", "tensor u on A form degree 2 { @(2,1) = 1; }", SemanticError,
     "index tuple (2, 1) must be strictly increasing"),
    ("tensor-algebroid", "tensor u on @Z form degree 2 { }", SemanticError, "unknown algebroid 'Z'"),
    ("tensor-coordinate", "tensor u on A form degree 1 { (1) = @y1; }", ParseError,
     "expected a coordinate in ['x1', 'x2'], found 'y1'"),
    ("tensor-repeat", "tensor u on A form degree 2 { (1,2) = 1; @(1,2) = x1; }", SemanticError,
     "(1,2) set twice"),
    ("endo-index", "endo N on A { [@3,1] = 1; }", SemanticError, "index 3 outside 1..2"),
    ("endo-algebroid", "endo N on @Z { }", SemanticError, "unknown algebroid 'Z'"),
    ("endo-repeat", "endo N on A { [1,1] = 1; @[1,1] = 2; }", SemanticError, "[1,1] set twice"),
    ("base-coordinate", "morphism F : C -> A { base[@y1] = y1; }", SemanticError,
     "unknown coordinate 'y1'"),
    ("base-source-coordinate", "morphism F : C -> A { base[x1] = @x1; }", ParseError,
     "expected a coordinate in ['y1'], found 'x1'"),
    ("base-repeat", "morphism F : A -> A { base[x1] = x1; @base[x1] = x1 + 1; }", SemanticError,
     "base[x1] set twice"),
    ("matrix-target-index", "morphism F : A -> C { matrix[@2,1] = 1; }", SemanticError,
     "index 2 outside 1..1"),
    ("matrix-source-index", "morphism F : C -> A { matrix[2,@2] = 1; }", SemanticError,
     "index 2 outside 1..1"),
    ("matrix-algebroid", "morphism F : A -> @Z { }", SemanticError, "unknown algebroid 'Z'"),
    ("matrix-repeat", "morphism F : A -> A { matrix[1,1] = 1; @matrix[1,1] = 2; }", SemanticError,
     "matrix[1,1] set twice"),
    ("paired-N", "paired P on A { N = @pi; pi = pi; sigma = s; }", SemanticError,
     "'pi' must be an endo on A"),
    ("paired-N-parent", "paired P on A { N = @MC; pi = pi; sigma = s; }", SemanticError,
     "'MC' must be an endo on A"),
    ("paired-pi", "paired P on A { N = M; pi = @nope; sigma = s; }", SemanticError,
     "'nope' must be a degree-2 multivector on A"),
    ("paired-sigma", "paired P on A { N = M; pi = pi; sigma = @t; }", SemanticError,
     "'t' must be a degree-2 form on A"),
    ("paired-repeat", "paired P on A { N = M; @N = M; pi = pi; sigma = s; }", ParseError,
     "expected 'pi', found 'N'"),
]


@pytest.mark.parametrize(
    "line, error, message", [case[1:] for case in ENTRY_ERRORS], ids=[case[0] for case in ENTRY_ERRORS]
)
def test_entry_errors(line, error, message):
    # the error names the offending token's line and column
    with pytest.raises(error) as err:
        parse(ENTRY_HEADER + line.replace("@", "") + "\n")
    where = (ENTRY_HEADER.count("\n") + 1, line.index("@") + 1)
    assert (err.value.line, err.value.column) == where
    assert f"{where[0]}:{where[1]}: {message}" in str(err.value)


def test_readme_structure_block_round_trips():
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Structure files", 1)[1].split("```")[1]
    parsed = parse(block)
    # the example declares one of every kind
    for table in ("algebroids", "tensors", "endos", "morphisms", "paired"):
        assert getattr(parsed, table), table
