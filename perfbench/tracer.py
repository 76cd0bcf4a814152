"""Spans around the package's layers, recorded inside one benchmark child.

``Tracer.install`` wraps the public functions of every package module, and
a few hot methods, at every place they are bound: ``from .calculus import
schouten`` in ``courant`` is patched as well as ``calculus.schouten``.
Spans (name, start, end, parent) are kept in flat arrays and reduced once,
in ``summary``, to calls, self time and inclusive time per name.  Self time
is a span's duration minus its direct child spans, so a recursive
``poly_gcd`` is counted once.
"""

import inspect
import time
from array import array

MODULES = ("rational", "calculus", "pn", "courant", "paired", "reporting", "algfile", "cli")

# (module, class, attribute, span name): hot methods traced besides the
# public functions; aliases such as ``__radd__ = __add__`` are patched too
METHODS = (
    ("rational", "Polynomial", "__mul__", "rational.Polynomial.mul"),
    ("rational", "RationalFunction", "__add__", "rational.RationalFunction.add"),
    ("rational", "RationalFunction", "__mul__", "rational.RationalFunction.mul"),
    ("rational", "RationalFunction", "differentiate", "rational.RationalFunction.differentiate"),
    ("rational", "RationalFunction", "zero", "rational.RationalFunction.zero"),
    ("calculus", "AlgebroidPresentation", "rho_apply", "calculus.rho_apply"),
    ("reporting", "Report", "to_records", "reporting.to_records"),
    ("cli", "_TaskRunner", "run_task", None),
)

# span names whose arguments are kept to count distinct inputs at exit; the
# kept arguments also keep id() of a presentation or double from being reused
DISTINCT = {
    "calculus.rho_apply": lambda a: (id(a[0]), a[1], a[2]),
    "courant.dorfman": lambda a: (id(a[0]), a[1].vec, a[1].cov, a[2].vec, a[2].cov),
}


def _gcd_outcome(tracer, args, result):
    tracer.gcd_nontrivial += not result.is_constant()


def _parsed(tracer, args, result):
    tracer.parse_bytes += len(args[0].encode("utf-8"))


def _checked(tracer, args, result):
    tracer.instances += sum(c.checked for report in result for c in report.clauses)


# span name -> counter updated from the call's arguments and result
AFTER = {"rational.poly_gcd": _gcd_outcome, "algfile.parse": _parsed, "cli.run": _checked}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.kept: dict[str, list] = {name: [] for name in DISTINCT}
        self.gcd_nontrivial = 0
        self.parse_bytes = 0
        self.instances = 0

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        if name is None:  # _TaskRunner.run_task: one span name per task kind
            return self._wrap_task(fn)
        ident = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        kept = self.kept.get(name)
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            if kept is not None:
                kept.append(args)
            index = len(span_name)
            span_name.append(ident)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _wrap_task(self, fn):
        per_task = {}

        def run_task(runner, task):
            if task.name not in per_task:
                per_task[task.name] = self._wrap("cli.task." + task.name, fn)
            return per_task[task.name](runner, task)

        return run_task

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in MODULES]
        replace = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not value.__name__.startswith("_")
                    and value not in replace  # aliases share one span name
                ):
                    replace[value] = self._wrap(f"{short}.{value.__name__}", value)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, key, wrapped)
        for holder in (package, *modules):
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(holder, attr, replace[value])

    def summary(self) -> dict:
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += duration[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for i, ident in enumerate(self.span_name):
            calls[ident] += 1
            self_s[ident] += duration[i] - child[i]
            incl_s[ident] += duration[i]
        spans = {
            name: {"calls": calls[k], "self_s": self_s[k], "incl_s": incl_s[k]}
            for k, name in enumerate(self.names)
            if calls[k]
        }
        return {
            "spans": spans,
            "distinct": {
                name: len({DISTINCT[name](args) for args in kept})
                for name, kept in self.kept.items()
            },
            "gcd_nontrivial": self.gcd_nontrivial,
            "parse_bytes": self.parse_bytes,
            "instances": self.instances,
        }
