"""Verification reports: per-clause exact residues with completeness labels.

A clause collects residues (anything with ``is_zero`` and ``__str__``) for a
family of instances; the clause passes iff every residue is exactly zero.
Reports aggregate clauses per task and render deterministically, both
human-readable and as one machine-readable line per clause.
"""

from __future__ import annotations

PROOF_TENSORIAL = "PROOF_TENSORIAL"
PROOF_GENERATORS = "PROOF_GENERATORS"
EVIDENCE_SAMPLED = "EVIDENCE_SAMPLED"

PASS = "pass"
FAIL = "fail"
HYPOTHESIS = "hypothesis-not-satisfied"
ERROR = "error"


class Clause:
    __slots__ = ("name", "completeness", "checked", "failures", "note")

    def __init__(self, name: str, completeness: str, note: str = ""):
        self.name, self.completeness, self.note = name, completeness, note
        self.checked = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, label: str, residue) -> None:
        self.checked += 1
        zero = residue.is_zero() if hasattr(residue, "is_zero") else not residue
        if not zero:
            self.failures.append((label, str(residue)))

    def record_flag(self, label: str, ok: bool, detail: str = "violated") -> None:
        self.checked += 1
        if not ok:
            self.failures.append((label, detail))

    def absorb(self, report: "Report", prefixed: bool = False) -> None:
        """Merge every clause of a sub-report into this one: its instances
        count here and its failures become ours, labelled ``clause:label``
        when ``prefixed``."""
        for c in report.clauses:
            self.checked += c.checked
            self.failures.extend(
                (f"{c.name}:{label}", residue) if prefixed else (label, residue)
                for label, residue in c.failures
            )

    @property
    def passed(self) -> bool:
        return not self.failures

    def first_residue(self) -> str:
        return "0" if self.passed else self.failures[0][1]


class Report:
    __slots__ = ("task", "clauses", "verdict_override", "params", "detail")

    def __init__(self, task: str, verdict_override: str | None = None, params=None, detail: str = ""):
        self.task, self.verdict_override, self.detail = task, verdict_override, detail
        self.params = {} if params is None else params
        self.clauses: list[Clause] = []

    def clause(self, name: str, completeness: str, note: str = "") -> Clause:
        c = Clause(name, completeness, note=note)
        self.clauses.append(c)
        return c

    @property
    def verdict(self) -> str:
        if self.verdict_override is not None:
            return self.verdict_override
        return PASS if all(c.passed for c in self.clauses) else FAIL

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def failing_clauses(self) -> list[Clause]:
        return [c for c in self.clauses if not c.passed]

    def to_text(self) -> str:
        header = f"[{self.verdict.upper()}] {self.task}"
        if self.params:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            header += f"  ({rendered})"
        lines = [header]
        if self.detail:
            lines.append(f"  note: {self.detail}")
        for c in self.clauses:
            status = "ok  " if c.passed else "FAIL"
            lines.append(f"  {status} {c.name} ({c.completeness}, {c.checked} instances)")
            if c.note:
                lines.append(f"       note: {c.note}")
            for label, residue in c.failures[:4]:
                lines.append(f"       residue[{label}] = {residue}")
            if len(c.failures) > 4:
                lines.append(f"       ... {len(c.failures) - 4} more")
        return "\n".join(lines)

    def to_records(self) -> list[str]:
        out = []
        if not self.clauses or self.verdict_override is not None:
            residue = self.detail.replace(" ", "") or "none"
            out.append(
                f"task={self.task} clause=- class=- residue={residue} verdict={self.verdict}"
            )
        for c in self.clauses:
            verdict = PASS if c.passed else FAIL
            residue = c.first_residue().replace(" ", "")
            out.append(
                f"task={self.task} clause={c.name} class={c.completeness} "
                f"residue={residue} verdict={verdict}"
            )
        return out
