"""A stdlib lint of the package source: every imported name is used by its
module, every local a function assigns is read, and every parameter of a
``def`` is read.  ``__init__.py`` is exempt from the import rule, since its
imports are the public API; names that start with an underscore are exempt
from the local and parameter rules, and lambdas from the parameter rule (a
task table's lambdas share one signature).

Every top-level function or class is read by some module of the package or
exported from ``__init__.py``, and every module and method that the
benchmark's tracer (``perfbench/tracer.py``) patches exists, so a refactor
that would break traced benchmark runs fails here first.  For the same
reason every gcd of two multi-term polynomials enters through
``rational.poly_gcd``, the span the tracer times and counts: no other
function reaches GCDHEU.
Likewise, the seeded generator and polynomial draw are read in
``calculus`` and ``courant.SectionFamily`` only, so every random section
comes from ``calculus.random_sections``, and the Dorfman kernel
(``courant._compute_dorfman`` and ``_side_into``) reads nothing from ``pn``
and neither ``differential`` nor ``d_function``, so it composes no other
calculus operation.  A value's factored denominator stays inside
``rational``: elsewhere only ``calculus._accumulate`` reads ``.factors``,
to tell a polynomial value from the rest, and no module reads the
``.mono`` of the old monomial part."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "algebroid_forge"
MODULES = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere under ``tree``, quoted annotations included."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for quoted in ast.walk(annotation) if annotation else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                expr = ast.parse(quoted.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = loaded_names(tree)
    return [f"line {line}: import {name}" for name, line in imported.items() if name not in used]


def own_stores(function: ast.AST):
    """Name targets a function assigns itself, not inside a nested function."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> list[str]:
    out = []
    for function in ast.walk(tree):
        if not isinstance(function, FUNCTIONS):
            continue
        declared = {
            name
            for node in ast.walk(function)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        read = loaded_names(function)
        for node in own_stores(function):
            if node.id not in read | declared and not node.id.startswith("_"):
                out.append(f"line {node.lineno}: {node.id} assigned, never read")
    return sorted(set(out))


def unread_parameters(tree: ast.Module) -> list[str]:
    out = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = function.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = loaded_names(function)
        for p in params:
            if p.arg not in read and not p.arg.startswith("_"):
                out.append(f"line {p.lineno}: parameter {p.arg} of {function.name} never read")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports_or_unread_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = unread_locals(tree) + unread_parameters(tree)
    if path.name != "__init__.py":
        problems += unused_imports(tree)
    assert not problems, f"{path.name}: " + "; ".join(problems)


def reads(nodes) -> set[str]:
    """Names and attributes loaded under ``nodes``; an import is not a read."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def parsed_modules() -> dict[str, ast.Module]:
    """File name -> parsed tree, for every module of the package."""
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


def unreached_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Top-level functions and classes that no module of ``trees`` reads
    outside the definition's own body and that ``__init__.py`` does not
    import: code only the tests reach belongs in the tests."""
    exported = {
        alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # what each top-level node reads, walked once
    top_reads = [(node, reads([node])) for tree in trees.values() for node in tree.body]
    out = []
    for definition, _ in top_reads:
        if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if definition.name in exported:
            continue
        if not any(definition.name in names for node, names in top_reads if node is not definition):
            out.append(definition.name)
    return sorted(out)


def test_every_definition_is_reached_or_exported():
    unreached = unreached_definitions(parsed_modules())
    assert not unreached, "read by no module and not exported: " + ", ".join(unreached)


def test_reachability_lint_flags_an_orphan():
    # a helper that nothing reads, planted in a copy of reporting.py
    trees = parsed_modules()
    text = (SRC / "reporting.py").read_text(encoding="utf-8")
    trees["reporting.py"] = ast.parse(text + "\n\ndef _orphan_probe():\n    return PASS\n")
    assert unreached_definitions(trees) == ["_orphan_probe"]


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module in tracer.MODULES:
        importlib.import_module(f"algebroid_forge.{module}")
    missing = []
    for module, cls, attr, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(f"algebroid_forge.{module}"), cls, None)
        if owner is None or attr not in vars(owner):  # the tracer reads the class __dict__
            missing.append(f"{module}.{cls}.{attr}")
    assert not missing, "the tracer patches missing methods: " + ", ".join(missing)


# gcd internal -> the only functions of rational.py that may read it: the
# entry point poly_gcd and the internal's own recursion
GCD_CALLERS = {
    "_heu_gcd": {"poly_gcd", "_heu_gcd"},
}


def owned_nodes(tree: ast.Module):
    """(node, owner) for every node under ``tree`` but a ``def`` or ``class``
    statement itself: owner is the innermost enclosing one, as
    ``Class.method`` or ``function.nested``, or None at module level."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if owner is None else f"{owner}.{child.name}")
            else:
                yield child, owner
                yield from visit(child, owner)

    return visit(tree, None)


def gcd_entries(tree: ast.Module) -> list[str]:
    """Reads of a gcd internal outside the functions GCD_CALLERS allows."""
    return [
        f"line {node.lineno}: {owner or 'module level'} reads {node.id}"
        for node, owner in owned_nodes(tree)
        if isinstance(node, ast.Name)
        and node.id in GCD_CALLERS
        and isinstance(node.ctx, ast.Load)
        and owner not in GCD_CALLERS[node.id]
    ]


def test_every_gcd_enters_through_poly_gcd():
    problems = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "rational.py":
            problems += gcd_entries(tree)
        else:
            problems += [f"{path.name} reads {name}" for name in sorted(GCD_CALLERS.keys() & reads([tree]))]
    assert not problems, "a gcd bypasses rational.poly_gcd: " + "; ".join(problems)


# attribute of a value's factored denominator -> where it may be read: a
# module (all of it) or module.function
FACTORED_READERS = {
    "factors": {"rational", "calculus._accumulate"},
    "mono": set(),
}


def factored_reads(tree: ast.Module, module: str) -> list[str]:
    """Reads of a FACTORED_READERS attribute in ``module`` where the table
    does not allow them."""
    return [
        f"line {node.lineno}: {owner or 'module level'} reads .{node.attr}"
        for node, owner in owned_nodes(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in FACTORED_READERS
        and isinstance(node.ctx, ast.Load)
        and not {module, f"{module}.{owner}"} & FACTORED_READERS[node.attr]
    ]


def test_factored_form_stays_in_rational():
    problems = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        problems += [f"{path.name} {p}" for p in factored_reads(tree, path.stem)]
    assert not problems, "a factored denominator is read outside rational: " + "; ".join(problems)


def test_factored_lint_flags_a_planted_read():
    # a courant helper that asks for a pole, and rational reading the monomial part again
    planted = "\n\ndef _has_pole(c):\n    return bool(c.factors)\n"
    courant = (SRC / "courant.py").read_text(encoding="utf-8") + planted
    assert [p.split(": ", 1)[1] for p in factored_reads(ast.parse(courant), "courant")] == [
        "_has_pole reads .factors"
    ]
    rational = (SRC / "rational.py").read_text(encoding="utf-8") + planted.replace("factors", "mono")
    assert [p.split(": ", 1)[1] for p in factored_reads(ast.parse(rational), "rational")] == [
        "_has_pole reads .mono"
    ]


# the sampler's generator and polynomial draw; besides calculus, which defines
# them and draws random_sections from them, only SectionFamily reads them,
# for its sampled tuple indices and its random function
SAMPLER_NAMES = {"SeededRng", "random_poly"}


def sampler_reads(tree: ast.Module, module: str) -> list[str]:
    """Reads of SAMPLER_NAMES in ``module`` outside calculus and SectionFamily."""
    if module == "calculus.py":
        return []
    return [
        f"line {node.lineno}: {owner or 'module level'} reads {node.id}"
        for node, owner in owned_nodes(tree)
        if isinstance(node, ast.Name)
        and node.id in SAMPLER_NAMES
        and isinstance(node.ctx, ast.Load)
        and not (module == "courant.py" and (owner or "").split(".")[0] == "SectionFamily")
    ]


def test_one_section_sampler():
    problems = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        problems += [f"{path.name} {p}" for p in sampler_reads(tree, path.name)]
    assert not problems, "a sampler bypasses calculus.random_sections: " + "; ".join(problems)


def test_sampler_lint_flags_a_third_sampler():
    # a pn helper that draws its own random vectors again
    text = (SRC / "pn.py").read_text(encoding="utf-8")
    copy = text + "\n\ndef _random_vector(A, rng):\n    return random_poly(A, rng, 2)\n"
    assert [p.split(": ", 1)[1] for p in sampler_reads(ast.parse(copy), "pn.py")] == [
        "_random_vector reads random_poly"
    ]


# the Dorfman kernel evaluates each side from its anchor and structure data:
# it reads nothing imported from pn and builds no d section
DORFMAN_KERNEL = ("_compute_dorfman", "_side_into")
KERNEL_EXCLUDED = {"differential", "d_function"}


def kernel_reads(tree: ast.Module) -> list[str]:
    """Reads, in the functions of DORFMAN_KERNEL, of a name that courant
    imports from pn or of KERNEL_EXCLUDED; each kernel function must exist."""
    excluded = KERNEL_EXCLUDED | {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "pn"
        for alias in node.names
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = [f"{name} is missing" for name in DORFMAN_KERNEL if name not in functions]
    for name in DORFMAN_KERNEL:
        if name in functions:
            out += [f"{name} reads {read}" for read in sorted(excluded & reads([functions[name]]))]
    return out


def test_dorfman_kernel_composes_no_calculus_operation():
    problems = kernel_reads(ast.parse((SRC / "courant.py").read_text(encoding="utf-8")))
    assert not problems, "the Dorfman kernel composes a calculus operation: " + "; ".join(problems)


def test_kernel_lint_flags_a_planted_call():
    # the d_* of a vector half, as the kernel once built it
    tree = ast.parse((SRC / "courant.py").read_text(encoding="utf-8"))
    kernel = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_compute_dorfman")
    kernel.body.insert(0, ast.parse("d_star(E, e2.vec)").body[0])
    assert kernel_reads(tree) == ["_compute_dorfman reads d_star"]
