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
reason every polynomial gcd enters through ``rational.poly_gcd``, the span
the tracer times and counts: no other function reaches GCDHEU or the PRS."""

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


def unreached_definitions() -> list[str]:
    """Top-level functions and classes that no module of the package reads
    outside the definition's own body and that ``__init__.py`` does not
    import: code only the tests reach belongs in the tests."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    exported = {
        alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    out = []
    for tree in trees.values():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if definition.name in exported:
                continue
            rest = [node for node in tree.body if node is not definition]
            if not any(
                definition.name in reads(other.body if other is not tree else rest)
                for other in trees.values()
            ):
                out.append(definition.name)
    return sorted(out)


def test_every_definition_is_reached_or_exported():
    unreached = unreached_definitions()
    assert not unreached, "read by no module and not exported: " + ", ".join(unreached)


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
# entry point poly_gcd, the internal's own recursion, and _content_in, the
# PRS's coefficient gcd, which only the PRS reads
GCD_CALLERS = {
    "_heu_gcd": {"poly_gcd", "_heu_gcd"},
    "_prs_gcd": {"poly_gcd", "_prs_gcd", "_content_in"},
    "_content_in": {"_prs_gcd"},
}


def gcd_entries(tree: ast.Module) -> list[str]:
    """Reads of a gcd internal outside the functions GCD_CALLERS allows,
    each attributed to its innermost enclosing ``def`` (``Class.method``)."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
            elif isinstance(child, ast.Name) and child.id in GCD_CALLERS:
                if owner not in GCD_CALLERS[child.id] and isinstance(child.ctx, ast.Load):
                    out.append(f"line {child.lineno}: {owner or 'module level'} reads {child.id}")
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def test_every_gcd_enters_through_poly_gcd():
    problems = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "rational.py":
            problems += gcd_entries(tree)
        else:
            problems += [f"{path.name} reads {name}" for name in sorted(GCD_CALLERS.keys() & reads([tree]))]
    assert not problems, "a gcd bypasses rational.poly_gcd: " + "; ".join(problems)
