"""The ``forge`` command line: run the verification tasks of a structure file.

``forge check <file> [--seed S] [--samples K] [--max-degree D]
                     [--kappa {1,1/2}] [--format {text,records}]``

Every task is fitted to one of the usages in TASKS before the first runs.
Exit codes: 0 when every task passes, 1 when some task fails (including
hypothesis-not-satisfied and task-level errors), 2 on parse or semantic
errors (a task that fits no usage included) and on an option out of range
(``--samples`` is at most ``MAX_SAMPLES``, ``--max-degree`` at most
``rational.MAX_DEGREE``).  The ``records`` format prints one
machine-readable line per clause and is byte-identical across runs with
identical inputs and configuration.  The arguments are read by
``parse_args``, a small parser of this one usage.
"""

from __future__ import annotations

import sys

from . import algfile
from .calculus import FORM, MULTIVECTOR, check_axioms, check_d_squared, null_presentation
from .courant import (
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
from .errors import ForgeError, HypothesisNotSatisfied, ParseError, SemanticError, clip
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
    dual_presentation,
    qlb_from_closed3form,
    qlb_from_twisted_poisson,
    verify_lemma_tnstar,
)
from .rational import MAX_DEGREE
from .reporting import ERROR, HYPOTHESIS, Report

MAX_SAMPLES = 1000  # the largest --samples


class RunConfig:
    __slots__ = ("seed", "samples", "max_degree", "kappa")

    def __init__(self, seed=0, samples=10, max_degree=2, kappa="1/2"):
        self.seed, self.samples, self.max_degree, self.kappa = seed, samples, max_degree, kappa


def _sampling(c: RunConfig) -> dict:
    return {"seed": c.seed, "samples": c.samples, "max_degree": c.max_degree}


def _axioms(A):
    report = check_axioms(A)
    report.clauses.extend(check_d_squared(A).clauses)
    return report


def _courant(c: RunConfig, E):
    return verify_courant_axioms(E, kappa=c.kappa, **_sampling(c))


def _conormal(E, vanishing):
    return check_generalized_dirac(tangent_conormal_dirac(E, vanishing))


def _deformed(c: RunConfig, P, E):
    return build_deformed_double(E, P, **_sampling(c))[1]


# slot word -> (the StructureFile table its argument is a name in, what the
# argument must be).  A qLB slot (table None) names a qLB that an earlier
# build task binds with ``as NAME``.  The chart of a task is the algebroid of
# its last algebroid, qLB or paired-operator slot: a tensor or endo slot
# needs one declared on it, and a list slot is checked against it.
SLOTS = {
    "A": ("algebroids", "a declared algebroid"),
    "pi": ("tensors", "a declared degree-2 multivector"),
    "phi": ("tensors", "a declared degree-3 form"),
    "N": ("endos", "a declared endo"),
    "Phi": ("morphisms", "a declared morphism"),
    "P": ("paired", "a declared paired operator"),
    **dict.fromkeys(("Q", "Qsrc", "Qtgt"), (None, "a declared built qlb")),
    "[x3]": (list, "a [list] of vanishing coordinates"),
    "[e3]": (list, "a [list] of frame symbols"),
}
TENSOR_KINDS = {"pi": (MULTIVECTOR, 2), "phi": (FORM, 3)}  # what a tensor slot needs

# README usage line -> the library call it runs, given the run's
# configuration and the slot arguments in order.  Any other word is a literal
# keyword.  A usage ending in ``as Q`` builds a qLB; its ``as NAME`` is
# optional and binds the qLB for later tasks.
TASKS = {
    "check-axioms A": lambda c, A: _axioms(A),
    "check-twisted-poisson A pi phi": lambda c, A, pi, phi: check_twisted_poisson(pi, phi),
    "check-compatible A pi N": lambda c, A, pi, N: check_compatible(A, pi, N),
    "check-pqn A pi N phi": lambda c, A, pi, N, phi: check_pqn(A, pi, N, phi),
    "build-qlb from_pqn A pi N phi as Q": lambda c, *s: build_qlb_from_pqn(PqnStructure(*s)),
    "build-qlb A pi N phi as Q": lambda c, *s: build_qlb_from_pqn(PqnStructure(*s)),
    "build-qlb from_3form A phi as Q": lambda c, A, phi: qlb_from_closed3form(A, phi),
    "build-qlb from_twisted A pi phi as Q": lambda c, *s: qlb_from_twisted_poisson(*s),
    "check-qlb Q": lambda c, Q: check_qlb(Q, **_sampling(c)),
    "check-qlb-morphism Phi Qsrc Qtgt": lambda c, *s: check_qlb_morphism(*s),
    "verify-lemma-tnstar A pi N phi": lambda c, *s: verify_lemma_tnstar(PqnStructure(*s)),
    "verify-courant standard A": lambda c, A: _courant(c, standard_double(A)),
    "verify-courant twisted A phi": lambda c, A, phi: _courant(c, twisted_double(A, phi)),
    "verify-courant qlb Q": lambda c, Q: _courant(c, qlb_double(Q)),
    "check-generalized-dirac standard A tp_conormal [x3]": lambda c, A, x: _conormal(
        standard_double(A), x
    ),
    "check-generalized-dirac twisted A phi tp_conormal [x3]": lambda c, A, phi, x: _conormal(
        twisted_double(A, phi), x
    ),
    "check-generalized-dirac qlb Q tp_conormal [x3]": lambda c, Q, x: _conormal(qlb_double(Q), x),
    "check-split-dirac Q span [e3] at [x3]": lambda c, Q, span, x: check_split_dirac(
        Q, span, Submanifold.coordinate_subspace(Q.base.coords, x)
    ),
    "build-morphism-graph Phi Qsrc Qtgt": lambda c, *s: check_generalized_dirac(
        build_morphism_graph(*s)
    ),
    "check-paired P": lambda c, P: check_paired(P.A, P.blocks),
    "check-torsion-blocks P": lambda c, P: check_torsion_blocks(standard_double(P.A), P),
    "check-torsion-blocks P twist phi": lambda c, P, phi: check_torsion_blocks(
        twisted_double(P.A, phi), P
    ),
    "check-gc P": lambda c, P: check_generalized_complex(P),
    "check-theorem-pqn P": lambda c, P: check_theorem_pqn_from_paired(P.A, P),
    "build-deformed-double P": lambda c, P: _deformed(c, P, standard_double(P.A)),
    "build-deformed-double P twist phi": lambda c, P, phi: _deformed(c, P, twisted_double(P.A, phi)),
}

# build usage -> the base presentation of the qLB it builds, from the same
# slot values: what a Phi naming that qLB must map from or to.
BASES = {
    "build-qlb from_pqn A pi N phi as Q": lambda A, pi, N, phi: dual_presentation(A, pi),
    "build-qlb A pi N phi as Q": lambda A, pi, N, phi: dual_presentation(A, pi),
    "build-qlb from_3form A phi as Q": lambda A, phi: null_presentation(A),
    "build-qlb from_twisted A pi phi as Q": lambda A, pi, phi: dual_presentation(A, pi, phi),
}


class BoundTask:
    """A task fitted to its usage.  A qLB in ``values`` stays a name until the
    task runs; ``binds`` is None, or for a build its ``as NAME`` (or "")."""

    __slots__ = ("name", "call", "values", "binds")

    def __init__(self, name: str, call, values: list, binds: str | None):
        self.name, self.call, self.values, self.binds = name, call, values, binds


class _Built:
    """A qLB name that a build task binds: ``A`` has the chart and rank of
    its base, and ``base()`` is that base as presentation data, or None when
    building it raises (the build task then fails the same way)."""

    __slots__ = ("A", "_make", "_values")

    def __init__(self, A, make, values: list):
        self.A, self._make, self._values = A, make, values

    def base(self):
        try:
            return self._make(*self._values)
        except ForgeError:
            return None


class _Misfit(Exception):
    """(k, want): argument k must be ``want``; want None: it is one too many."""


def _error(task, message) -> SemanticError:
    return SemanticError(f"task {task.name}: {message}", task.line, 1)


def _list_value(task, word, entries, chart):
    if word == "[x3]":
        for name in entries:
            if name not in chart.coords:
                raise _error(task, f"unknown coordinate {clip(str(name))!r} in submanifold argument")
        return tuple(entries)
    indices = []
    for entry in entries:
        k = algfile._frame_index(str(entry))
        if k is None or not 1 <= k <= chart.rank:
            shown = repr(clip(entry)) if isinstance(entry, str) else clip(str(entry))
            raise _error(task, f"span entries must be frame symbols, got {shown}")
        indices.append(k - 1)
    return tuple(indices)


def _on_chart(file, word, name, chart) -> bool:
    if word == "N":
        return file.algebroids[file.parent[name]] is chart
    if word in TENSOR_KINDS:
        t = file.tensors[name]
        return t.parent is chart and (t.variance, t.degree) == TENSOR_KINDS[word]
    return True


def _fit(task, words, args, file, built):
    """Fit ``args`` to one usage's words: (slot values, the task's chart)."""
    values, chart = [], None
    for k, word in enumerate(words):
        arg = args[k] if k < len(args) else None
        if word not in SLOTS:
            if arg != word:
                raise _Misfit(k, word)
            if word == "tp_conormal" and chart.rank != chart.n:  # TP + nu*P matches e_i to x_i
                shape = f"{clip(chart.name)} has rank {chart.rank} on {chart.n} coordinates"
                raise _error(task, f"tp_conormal needs rank = base dimension, {shape}")
            continue
        table, want = SLOTS[word]
        if table in ("tensors", "endos"):
            want = f"{want} on {chart.name}"
        if table is list:
            if not isinstance(arg, list):
                raise _Misfit(k, want)
            value = _list_value(task, word, arg, chart)
            repeats = [arg[i] for i, v in enumerate(value) if v in value[:i]]
            if repeats:
                raise _error(task, f"argument {k+1} repeats {clip(str(repeats[0]))!r}")
            values.append(value)
            continue
        scope = built if table is None else getattr(file, table)
        if not isinstance(arg, str) or arg not in scope or not _on_chart(file, word, arg, chart):
            raise _Misfit(k, want)
        values.append(arg if table is None else scope[arg])
        if word == "A":
            chart = scope[arg]
        elif table is None or word == "P":
            chart = scope[arg].A
    if len(args) > len(words):
        raise _Misfit(len(words), None)
    if words[:1] == ["Phi"]:  # Phi Qsrc Qtgt: Phi maps the base of each qLB
        phi, src, tgt = values
        ends = ((phi.source, built[src]), (phi.target, built[tgt]))
        if any((m.coords, m.rank) != (q.A.coords, q.A.rank) for m, q in ends):
            wants = f"the chart and rank of {clip(src)} to those of {clip(tgt)}"
            raise _error(task, f"argument 1 must be a morphism from {wants}")
        for end, (m, q), name in zip(("source", "target"), ends, (src, tgt)):
            base = q.base()
            if base is not None and m != base:
                wants = f"the base of {clip(src)} to the base of {clip(tgt)}"
                why = f"its {end} {clip(m.name)} is not the base of {clip(name)}"
                raise _error(task, f"argument 1 must be a morphism from {wants}: {why}")
    return values, chart


def bind(file: algfile.StructureFile) -> list[BoundTask]:
    """Resolve every task of the file against TASKS before any task runs:
    arity (trailing arguments included), keywords, name kinds, the qLB
    names that builds bind, and a Phi against the bases of its qLBs.  A task
    that fits no usage is a SemanticError at its line, naming what its first
    misfitting argument must be."""
    built = {}  # qLB name -> _Built
    bound = []
    for task in file.tasks:
        usages = [(u, u.split()[1:], call) for u, call in TASKS.items() if u.split()[0] == task.name]
        if not usages:
            raise SemanticError(f"unknown task {clip(task.name)!r}", task.line, 1)
        args, binds = task.args, ""
        if args[-2:-1] == ["as"] and isinstance(args[-1], str):
            args, binds = args[:-2], args[-1]
        misfits = []
        for usage, words, call in usages:
            builds = words[-2:] == ["as", "Q"]
            fit_words, fit_args = (words[:-2], args) if builds else (words, task.args)
            try:
                values, chart = _fit(task, fit_words, fit_args, file, built)
            except _Misfit as misfit:
                misfits.append(misfit.args)
                continue
            if builds and binds:
                built[binds] = _Built(chart, BASES[usage], values)
            bound.append(BoundTask(task.name, call, values, binds if builds else None))
            break
        else:
            k = max(k for k, _ in misfits)
            wants = list(dict.fromkeys(want for j, want in misfits if j == k and want))
            if not wants:
                raise _error(task, f"unexpected trailing task arguments {clip(str(task.args[k:]))}")
            wants = ", ".join(wants[:-1]) + " or " + wants[-1] if len(wants) > 1 else wants[0]
            raise _error(task, f"argument {k+1} must be {wants}")
    return bound


class _TaskRunner:
    def __init__(self, config: RunConfig):
        self.config = config
        self.qlbs = {}  # name -> qLB, for the builds that succeeded

    def run_task(self, task: BoundTask) -> Report:
        missing = [v for v in task.values if isinstance(v, str) and v not in self.qlbs]
        if missing:
            raise ForgeError(f"qlb {clip(missing[0])} was not built: its build task failed")
        values = [self.qlbs[v] if isinstance(v, str) else v for v in task.values]
        if task.binds is None:
            return task.call(self.config, *values)
        self.qlbs.pop(task.binds, None)  # a failed build leaves its name unbuilt
        self.qlbs[task.binds] = task.call(self.config, *values)
        report = Report("build-qlb")
        report.clause("construction", "PROOF_TENSORIAL").record_flag("hypotheses", True)
        return report


def run(file: algfile.StructureFile, config: RunConfig) -> list[Report]:
    """Bind every task, then run them in order; a failing task never aborts the run."""
    runner = _TaskRunner(config)
    reports = []
    for index, task in enumerate(bind(file)):
        task_id = f"{task.name}#{index+1}"
        try:
            report = runner.run_task(task)
            report.task = task_id
        except HypothesisNotSatisfied as err:
            report = Report(task_id, verdict_override=HYPOTHESIS, detail=str(err))
        except ForgeError as err:
            report = Report(task_id, verdict_override=ERROR, detail=str(err))
        for key, value in _sampling(config).items():
            report.params.setdefault(key, value)
        reports.append(report)
    return reports


def _integer(text: str) -> int:
    """The value of --seed."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {clip(text)!r}") from None


def _non_negative(text: str) -> int:
    """The value of a sampling size."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {clip(text)!r}")
    return value


def _at_most(cap: int):
    """The reader of a sampling size of at most ``cap``.  A digit string is
    measured before it is read, so one too long for ``int`` is over the cap."""

    def read(text: str) -> int:
        if text.isascii() and text.isdigit():
            digits = text.lstrip("0")
            value = cap + 1 if len(digits) > len(str(cap)) else int(digits or "0")
        else:
            value = _non_negative(text)
        if value > cap:
            raise ValueError(f"expected at most {cap}, got {clip(text)!r}")
        return value

    return read


def _choice(*choices):
    """The reader of a value that must be one of ``choices``."""

    def read(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {clip(text)!r} (choose from {listed})")
        return text

    return read


# flag -> (the reader of its value, its default).  Sampled powers must stay
# packable (MAX_DEGREE); a sampled family, and the memo of the double it is
# checked on, grow with --samples.
OPTIONS = {
    "--seed": (_integer, 0),
    "--samples": (_at_most(MAX_SAMPLES), 10),
    "--max-degree": (_at_most(MAX_DEGREE), 2),
    "--kappa": (_choice("1", "1/2"), "1/2"),
    "--format": (_choice("text", "records"), "text"),
}
USAGE = """usage: forge check FILE [--seed S] [--samples K] [--max-degree D]
                        [--kappa {1,1/2}] [--format {text,records}]"""
HELP = f"""{USAGE}

Run the verification tasks of a structure file.

options:
  -h, --help               show this help and exit
  --seed S                 seed of the sampled section families (default 0)
  --samples K              random members per sampled family, at most {MAX_SAMPLES} (default 10)
  --max-degree D           degree of their random coefficients, at most {MAX_DEGREE} (default 2)
  --kappa {{1,1/2}}          the C2 normalization convention (default 1/2)
  --format {{text,records}}  a report per task, or one line per clause (default text)

exit status: 0 when every task passes, 1 when some task fails, 2 on a parse,
semantic or usage error"""


def _help():
    print(HELP)
    raise SystemExit(0)


def _usage_error(message: str):
    print(f"{USAGE}\nforge check: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """(FILE, {flag: value}) of ``forge check FILE [options]``.  A flag may be
    abbreviated to a unique prefix and may take its value as ``--flag=V``;
    ``-h`` or ``--help`` prints HELP and exits 0, a usage error exits 2."""
    if argv[:1] in (["-h"], ["--help"]):
        _help()
    if argv[:1] != ["check"]:
        if not argv:
            _usage_error("missing command 'check'")
        _usage_error(f"invalid command {clip(argv[0])!r}, expected 'check'")
    values = {flag: default for flag, (_, default) in OPTIONS.items()}
    files = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            files.extend(args)
        elif arg == "-" or not arg.startswith("-"):
            files.append(arg)
        elif arg == "-h":
            _help()
        else:
            name, eq, value = arg.partition("=")
            flags = [flag for flag in (*OPTIONS, "--help") if flag.startswith(name)]
            flag = name if name in flags else flags[0] if len(flags) == 1 else None
            if flag is None and flags:
                _usage_error(f"ambiguous option: {clip(name)} could match {', '.join(flags)}")
            if flag is None:
                _usage_error(f"unrecognized arguments: {clip(arg)}")
            if flag == "--help":
                _help()
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-") and not value[1:].isdigit():
                    _usage_error(f"argument {flag}: expected one argument")
            try:
                values[flag] = OPTIONS[flag][0](value)
            except ValueError as err:
                _usage_error(f"argument {flag}: {err}")
    if len(files) != 1:
        _usage_error(f"unrecognized arguments: {clip(' '.join(files[1:]))}" if files else "missing FILE")
    return files[0], values


def main(argv=None) -> int:
    path, options = parse_args(sys.argv[1:] if argv is None else list(argv))
    config = RunConfig(*(options[flag] for flag in ("--seed", "--samples", "--max-degree", "--kappa")))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        reports = run(algfile.parse(text), config)
    except (OSError, UnicodeDecodeError, ParseError, SemanticError) as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 2

    if options["--format"] == "records":
        lines = [line for report in reports for line in report.to_records()]
    else:
        lines = [report.to_text() for report in reports]
    print("\n".join(lines))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
