"""The ``forge`` command line: run the verification tasks of a structure file.

``forge check <file> [--seed S] [--samples K] [--max-degree D]
                     [--kappa {1,1/2}] [--format {text,records}]``

Exit codes: 0 when every task passes, 1 when some task fails (including
hypothesis-not-satisfied and task-level errors), 2 on parse or semantic
errors and on an option out of range (``--max-degree`` is at most
``rational.MAX_DEGREE``).  The ``records`` format prints one
machine-readable line per clause and is byte-identical across runs with
identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import algfile
from .calculus import check_axioms, check_d_squared
from .courant import (
    SplitSubbundle,
    Submanifold,
    build_morphism_graph,
    check_generalized_dirac,
    check_split_dirac,
    qlb_double,
    standard_double,
    tangent_conormal_dirac,
    twisted_double,
    verify_courant_axioms,
)
from .errors import ForgeError, HypothesisNotSatisfied, ParseError, SemanticError
from .paired import (
    build_deformed_double,
    check_generalized_complex,
    check_paired,
    check_theorem_pqn_from_paired,
    check_torsion_blocks,
)
from .pn import (
    PqnStructure,
    build_qlb_from_pqn,
    check_compatible,
    check_pqn,
    check_qlb,
    check_qlb_morphism,
    check_twisted_poisson,
    qlb_from_closed3form,
    qlb_from_twisted_poisson,
    verify_lemma_tnstar,
)
from .rational import MAX_DEGREE
from .reporting import ERROR, HYPOTHESIS, Report


@dataclass
class RunConfig:
    seed: int = 0
    samples: int = 10
    max_degree: int = 2
    kappa: Fraction = Fraction(1, 2)


class _TaskRunner:
    def __init__(self, file: algfile.StructureFile, config: RunConfig):
        self.file = file
        self.config = config
        self.qlbs = {}
        self.task: algfile.TaskItem | None = None  # the task being run

    # -- argument helpers -----------------------------------------------------

    def _error(self, message):
        return SemanticError(f"task {self.task.name}: {message}", self.task.line, 1)

    def _arg(self, args, i, allowed, usage):
        """Task argument i: a [..] list when ``allowed`` is ``list``, else a
        name in ``allowed``.  A missing or different argument is a
        SemanticError at the task's line."""
        arg = args[i] if i < len(args) else None
        ok = isinstance(arg, list) if allowed is list else isinstance(arg, str) and arg in allowed
        if not ok:
            raise self._error(f"argument {i+1} must be {usage}")
        return arg

    def _named(self, table, kind, args, i):
        return table[self._arg(args, i, table, f"a declared {kind}")]

    def _vanishing(self, args, i, coords):
        names = self._arg(args, i, list, "a [list] of vanishing coordinates")
        for name in names:
            if name not in coords:
                raise self._error(f"unknown coordinate {name!r} in submanifold argument")
        return tuple(names)

    def algebroid(self, args, i):
        return self._named(self.file.algebroids, "algebroid", args, i)

    def tensor(self, args, i):
        return self._named(self.file.tensors, "tensor", args, i)

    def endo(self, args, i):
        return self._named(self.file.endos, "endo", args, i)

    def qlb(self, args, i):
        return self._named(self.qlbs, "built qlb", args, i)

    def _bind_result(self, args, tail_from, value):
        rest = args[tail_from:]
        if len(rest) == 2 and rest[0] == "as" and isinstance(rest[1], str):
            self.qlbs[rest[1]] = value
        elif rest:
            raise self._error(f"unexpected trailing task arguments {rest}")

    def _double(self, args, i):
        kind = self._arg(args, i, ("standard", "twisted", "qlb"), "standard, twisted or qlb")
        if kind == "standard":
            return standard_double(self.algebroid(args, i + 1)), i + 2
        if kind == "twisted":
            A = self.algebroid(args, i + 1)
            phi = self.tensor(args, i + 2)
            return twisted_double(A, phi), i + 3
        return qlb_double(self.qlb(args, i + 1)), i + 2

    # -- dispatch ---------------------------------------------------------------

    def run_task(self, task: algfile.TaskItem) -> Report:
        method = getattr(self, "task_" + task.name.replace("-", "_"), None)
        if method is None:
            raise SemanticError(f"unknown task {task.name!r}", task.line, 1)
        self.task = task
        return method(task.args)

    def task_check_axioms(self, args):
        A = self.algebroid(args, 0)
        report = check_axioms(A)
        report.clauses.extend(check_d_squared(A).clauses)
        return report

    def task_check_twisted_poisson(self, args):
        return check_twisted_poisson(
            self.algebroid(args, 0), self.tensor(args, 1), self.tensor(args, 2)
        )

    def task_check_compatible(self, args):
        return check_compatible(self.algebroid(args, 0), self.tensor(args, 1), self.endo(args, 2))

    def task_check_pqn(self, args):
        return check_pqn(
            self.algebroid(args, 0),
            self.tensor(args, 1),
            self.endo(args, 2),
            self.tensor(args, 3),
        )

    def task_build_qlb(self, args):
        mode = args[0] if args and args[0] in ("from_pqn", "from_3form", "from_twisted") else "from_pqn"
        i = 1 if args and args[0] == mode else 0
        report = Report("build-qlb")
        if mode == "from_pqn":
            S = PqnStructure(
                self.algebroid(args, i),
                self.tensor(args, i + 1),
                self.endo(args, i + 2),
                self.tensor(args, i + 3),
            )
            Q = build_qlb_from_pqn(S)
            self._bind_result(args, i + 4, Q)
        elif mode == "from_3form":
            Q = qlb_from_closed3form(self.algebroid(args, i), self.tensor(args, i + 1))
            self._bind_result(args, i + 2, Q)
        else:
            Q = qlb_from_twisted_poisson(
                self.algebroid(args, i), self.tensor(args, i + 1), self.tensor(args, i + 2)
            )
            self._bind_result(args, i + 3, Q)
        report.clause("construction", "PROOF_TENSORIAL").record_flag("hypotheses", True)
        return report

    def task_check_qlb(self, args):
        c = self.config
        return check_qlb(
            self.qlb(args, 0), seed=c.seed, samples=c.samples, max_degree=c.max_degree
        )

    def task_check_qlb_morphism(self, args):
        phi = self._named(self.file.morphisms, "morphism", args, 0)
        return check_qlb_morphism(phi, self.qlb(args, 1), self.qlb(args, 2))

    def task_verify_lemma_tnstar(self, args):
        S = PqnStructure(
            self.algebroid(args, 0),
            self.tensor(args, 1),
            self.endo(args, 2),
            self.tensor(args, 3),
        )
        return verify_lemma_tnstar(S)

    def task_verify_courant(self, args):
        E, _ = self._double(args, 0)
        c = self.config
        return verify_courant_axioms(
            E, kappa=c.kappa, seed=c.seed, samples=c.samples, max_degree=c.max_degree
        )

    def task_check_generalized_dirac(self, args):
        E, i = self._double(args, 0)
        self._arg(args, i, ("tp_conormal",), "tp_conormal")
        F = tangent_conormal_dirac(E, self._vanishing(args, i + 1, E.base.coords))
        return check_generalized_dirac(F)

    def task_check_split_dirac(self, args):
        Q = self.qlb(args, 0)
        self._arg(args, 1, ("span",), "span")
        vectors = []
        for entry in self._arg(args, 2, list, "a [list] of frame symbols"):
            m = algfile._FRAME_RE.match(str(entry))
            if not m or not 1 <= int(m.group(1)) <= Q.base.rank:
                raise self._error(f"span entries must be frame symbols, got {entry!r}")
            k = int(m.group(1)) - 1
            vectors.append([Fraction(1 if j == k else 0) for j in range(Q.base.rank)])
        self._arg(args, 3, ("at",), "at")
        P = Submanifold.coordinate_subspace(Q.base.coords, self._vanishing(args, 4, Q.base.coords))
        return check_split_dirac(Q, SplitSubbundle(vectors), P)

    def task_build_morphism_graph(self, args):
        phi = self._named(self.file.morphisms, "morphism", args, 0)
        F = build_morphism_graph(phi, self.qlb(args, 1), self.qlb(args, 2))
        return check_generalized_dirac(F)

    def task_check_paired(self, args):
        op = self._named(self.file.paired, "paired operator", args, 0)
        return check_paired(op.A, op.blocks())

    def _paired_with_twist(self, args):
        op = self._named(self.file.paired, "paired operator", args, 0)
        if len(args) >= 3 and args[1] == "twist":
            E = twisted_double(op.A, self.tensor(args, 2))
        else:
            E = standard_double(op.A)
        return op, E

    def task_check_torsion_blocks(self, args):
        op, E = self._paired_with_twist(args)
        return check_torsion_blocks(E, op)

    def task_check_gc(self, args):
        op = self._named(self.file.paired, "paired operator", args, 0)
        return check_generalized_complex(op)

    def task_check_theorem_pqn(self, args):
        op = self._named(self.file.paired, "paired operator", args, 0)
        return check_theorem_pqn_from_paired(op.A, op)

    def task_build_deformed_double(self, args):
        op, E = self._paired_with_twist(args)
        c = self.config
        Q, report = build_deformed_double(
            E, op, seed=c.seed, samples=c.samples, max_degree=c.max_degree
        )
        return report


def run(file: algfile.StructureFile, config: RunConfig) -> list[Report]:
    """Execute the file's tasks in order; task errors never abort the run."""
    runner = _TaskRunner(file, config)
    reports = []
    for index, task in enumerate(file.tasks):
        task_id = f"{task.name}#{index+1}"
        try:
            report = runner.run_task(task)
            report.task = task_id
        except HypothesisNotSatisfied as err:
            report = Report(task_id, verdict_override=HYPOTHESIS, detail=str(err))
        except (ParseError, SemanticError):
            # bad references in the file itself: a whole-file error, exit 2
            raise
        except ForgeError as err:
            report = Report(task_id, verdict_override=ERROR, detail=str(err))
        report.params.setdefault("seed", config.seed)
        report.params.setdefault("samples", config.samples)
        report.params.setdefault("max_degree", config.max_degree)
        reports.append(report)
    return reports


def _non_negative(text: str) -> int:
    """argparse type of the sampling sizes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _sample_degree(text: str) -> int:
    """argparse type of --max-degree: sampled powers must stay packable."""
    value = _non_negative(text)
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_DEGREE}, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the tasks of a structure file")
    check.add_argument("file")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--samples", type=_non_negative, default=10)
    check.add_argument("--max-degree", type=_sample_degree, default=2)
    check.add_argument("--kappa", choices=["1", "1/2"], default="1/2")
    check.add_argument("--format", choices=["text", "records"], default="text")
    args = parser.parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2
    try:
        structure = algfile.parse(text)
    except (ParseError, SemanticError) as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2

    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        max_degree=args.max_degree,
        kappa=Fraction(1, 2) if args.kappa == "1/2" else Fraction(1),
    )
    try:
        reports = run(structure, config)
    except (ParseError, SemanticError) as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2

    lines = []
    if args.format == "records":
        for report in reports:
            lines.extend(report.to_records())
    else:
        for report in reports:
            lines.append(report.to_text())
    print("\n".join(lines))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
