"""Benchmark of ``forge check``, one fresh child process per input.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it needs ``src/`` and ``corpus/``.
Each input is checked by its own child (``child.py``), equivalent to
``forge check FILE --format records --seed N``, spawned one at a time from
this single-threaded parent.  Fresh processes keep a module-level cache from
carrying warm state from one check into the next: users pay start-up on
every run.  Passes over the workload's inputs repeat for S seconds; pass k
checks every input at seed N + k, because the sampled families, and so the
work, differ by up to 1.7x between seeds, and a statistic over passes
should not rest on one of them.  The end-to-end metrics are, over the passes,

  setup_s      the median of the pass's summed time from spawning a child
               to the package being imported,
  wall_ref     the interquartile mean of the pass's summed spawn-to-exit
               time, each check's in units of the reference workload timed
               around it (``reference.py``),
  peak_rss_mb  the median of the largest child peak RSS of the pass.

The host's cores change speed by up to 3x within seconds, so raw wall time
spreads between runs of the same code by more than a change worth
catching; in reference units it does not.  The parent and every child
are pinned to one CPU, since a spell slows one core, not the host.  The
parent times the reference on that CPU between children, at least every
REF_EVERY_S seconds of checks and after the last check of a pass; a
check's unit is the mean of the reference times just before and just
after it.  (Sampled 1 ms at a time while a child ran, the reference
tracked the child worse, likely because it ran on the child's caches.)
The raw pass times are printed on the ``info`` line.  On
rational-chart the sampled work itself differs by up to 1.7x between
seeds; the mean of the middle half of the passes spreads less between runs
than their median does, and drops the passes that a spell caught between
two reference times.

Every check is verified: exit code and per-task verdicts against the
hand-written table in ``expected.py``; at seeds 0, 3 and 7 the sha256 of the
records, and in traced checks the number of instances checked, against
``fingerprints.json``; no traceback; the per-file time limit.  A failed check counts in ``failed`` of the result line, so the
failed share is ``failed / attempted``.

With ``--trace 1`` untraced and traced passes alternate, all at seed N so
that counts repeat exactly and compare exactly between commits.  The
per-layer metrics come from the traced passes (spans, see ``tracer.py``)
except ``cli.import_s`` and ``cli.file.*``, which come from the untraced
ones; ``trace.overhead_ratio`` is the traced over the untraced median pass
time.

Children get a pinned environment (PYTHONHASHSEED=0, UTF-8 I/O, no site
module, no bytecode writes) and read bytecode from a cache under
``.bench_build/`` that is compiled before anything is timed; without it,
every child would recompile the package wherever bytecode writes are off.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the parent leaves nothing beside its sources

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import ratchart  # noqa: E402
from child import MARK  # noqa: E402
from expected import EXPECTED  # noqa: E402
from reference import reference_s  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".bench_build" / "perfbench"
PYCACHE = WORK / "pycache"
FINGERPRINTS = HERE / "fingerprints.json"
FINGERPRINT_SEEDS = (0, 3, 7)
FILE_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0  # checks still running then fail, so a run ends in time
REF_EVERY_S = 0.5  # short checks share the reference times around them

# no site module: the package needs nothing outside the standard library,
# and .pth hooks in site-packages are the machine's start-up cost, not ours
PYTHON_FLAGS = ("-S",)
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONPYCACHEPREFIX": str(PYCACHE),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONIOENCODING": "utf-8",
    "LC_ALL": "C.UTF-8",
}

# label -> (corpus file, extra forge arguments)
COURANT_POLY = {
    "twisted_poisson_r4": ("twisted_poisson_r4.alg", ()),
    "twisted_dirac_r4": ("twisted_dirac_r4.alg", ()),
    "twisted_nonclosed_r4": ("twisted_nonclosed_r4.alg", ()),
    "courant_tr2": ("courant_tr2.alg", ()),
    "courant_tr2-kappa1": ("courant_tr2.alg", ("--kappa", "1")),
}
CLI_CORPUS = {
    stem: (stem + ".alg", ())
    for stem in (
        "aff1",
        "corrupted_so3",
        "e3_pqn",
        "e5_gc",
        "gc_twisted_r4",
        "heisenberg_pn",
        "parse_error",
        "so3",
        "split_dirac_tr3",
        "tr2_conformal",
        "tr2_triangular",
        "twisted_dirac_r4_bad",
    )
}
WORKLOADS = ("courant-poly", "rational-chart", "cli-corpus")

TASKS = (
    "check-axioms", "check-twisted-poisson", "check-compatible", "check-pqn",
    "build-qlb", "check-qlb", "check-qlb-morphism", "verify-lemma-tnstar",
    "verify-courant", "check-generalized-dirac", "check-split-dirac",
    "build-morphism-graph", "check-paired", "check-torsion-blocks", "check-gc",
    "check-theorem-pqn", "build-deformed-double",
)
# span -> the totals reported for it per pass
SPAN_METRICS = {
    "rational.poly_gcd": ("calls", "self_s"),
    "rational.exact_div": ("calls", "self_s"),
    "rational.Polynomial.mul": ("calls", "self_s"),
    "rational.RationalFunction.add": ("self_s",),
    "rational.RationalFunction.mul": ("self_s",),
    "rational.RationalFunction.differentiate": ("self_s",),
    "rational.RationalFunction.zero": ("calls",),
    "calculus.rho_apply": ("calls", "self_s"),
    "calculus.differential": ("calls", "self_s"),
    "calculus.d_function": ("calls", "self_s"),
    "calculus.schouten": ("calls", "self_s"),
    "calculus.insert": ("calls", "self_s"),
    "calculus.wedge": ("calls", "self_s"),
    "calculus.lie_derivative": ("calls", "self_s"),
    "courant.dorfman": ("calls", "self_s"),
    "courant.verify_courant_axioms": ("self_s",),
    "courant.check_generalized_dirac": ("self_s",),
    "pn.check_qlb": ("self_s",),
    "pn.check_pqn": ("self_s",),
    "pn.twisted_bracket": ("self_s",),
    "paired.build_deformed_double": ("self_s",),
    "paired.deformed_courant_bracket": ("self_s",),
    "algfile.parse": ("self_s",),
    "reporting.to_records": ("self_s",),
    **{f"cli.task.{task}": ("self_s",) for task in TASKS},
}
SHARES = ("rational.poly_gcd", "calculus.rho_apply", "courant.dorfman")
UNITS = {"calls": "count", "self_s": "s"}
NO_TRACE = Tracer().summary()  # stands in for a traced child that crashed


@dataclass
class Job:
    label: str
    path: Path
    args: tuple = ()


@dataclass
class Check:
    label: str
    seed: int
    wall_s: float
    setup_s: float = 0.0
    ref_s: float = 0.0  # the reference workload's time around the check
    import_s: float = 0.0
    rss_mb: float = 0.0
    trace: dict | None = None
    records_sha256: str = ""
    problems: list[str] = field(default_factory=list)


def workload_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "rational-chart":
        inputs = ratchart.write_inputs(WORK / "inputs" / f"seed{seed}", seed)
        return [Job(label, path) for label, path in inputs]
    table = COURANT_POLY if workload == "courant-poly" else CLI_CORPUS
    return [Job(label, CORPUS / name, args) for label, (name, args) in table.items()]


def all_labels() -> list[str]:
    return [*COURANT_POLY, *(label for label, _, _, _ in ratchart.SPECS), *CLI_CORPUS]


def task_verdicts(records: str) -> tuple[str, ...]:
    """Per-task verdict, in task order: the first non-pass clause verdict."""
    order: dict[str, str] = {}
    for line in filter(None, records.splitlines()):
        fields = dict(part.split("=", 1) for part in line.split(" "))
        task, verdict = fields["task"], fields["verdict"]
        if order.get(task, "pass") == "pass":
            order[task] = verdict
    return tuple(order.values())


def run_check(
    job: Job, seed: int, trace: bool, fingerprints: dict | None, limit_s: float = FILE_LIMIT_S
) -> Check:
    cmd = [sys.executable, *PYTHON_FLAGS, str(HERE / "child.py")]
    cmd += ["--trace"] if trace else []
    cmd += ["check", str(job.path), "--format", "records", "--seed", str(seed), *job.args]
    spawned = time.monotonic()
    timed_out = False
    with subprocess.Popen(
        cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            out, err = proc.communicate(timeout=limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        except BaseException:
            proc.kill()  # leaving the with-block waits for it
            raise
    check = Check(job.label, seed, time.monotonic() - spawned)
    problems = check.problems
    if timed_out:
        problems.append(f"exceeded its {limit_s:.1f} s limit")
    lines = err.decode("utf-8", "replace").splitlines()
    if lines and lines[-1].startswith(MARK):
        report = json.loads(lines.pop()[len(MARK):])
        check.setup_s = report["imported"] - spawned
        check.import_s = report["import_s"]
        check.rss_mb = report["maxrss_kb"] / 1024
        check.trace = report.get("trace")
    else:
        problems.append("child ended without its report")
        check.trace = NO_TRACE if trace else None
    if any(line.startswith("Traceback") for line in lines):
        problems.append("traceback on stderr")
    exit_code, verdicts = EXPECTED[job.label]
    if proc.returncode != exit_code:
        problems.append(f"exit {proc.returncode}, expected {exit_code}")
    try:
        got = task_verdicts(out.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, KeyError):
        got = ("<unparsable records>",)
    if got != verdicts:
        problems.append(f"task verdicts {got}, expected {verdicts}")
    check.records_sha256 = hashlib.sha256(out).hexdigest()
    if fingerprints is not None and seed in FINGERPRINT_SEEDS:
        key = f"{job.label}@{seed}"
        if check.records_sha256 != fingerprints["records_sha256"].get(key):
            problems.append(f"records fingerprint differs at seed {seed}")
        # records show one residue per clause, so fewer instances checked
        # would not change them; the traced count shows it
        if trace and check.trace["instances"] != fingerprints["instances_checked"].get(key):
            problems.append(f"{check.trace['instances']} instances checked at seed {seed}")
    return check


def warm_bytecode_cache() -> None:
    """One check with bytecode writes on fills the benchmark's cache with
    every module a child imports, the standard library's included: a cache
    prefix hides the interpreter's own caches."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONDONTWRITEBYTECODE"}
    # a file that fails to parse runs no task but every import
    cmd = [sys.executable, *PYTHON_FLAGS, str(HERE / "child.py"), "--trace", "check"]
    cmd.append(str(CORPUS / "parse_error.alg"))
    try:
        # its outcome is judged nowhere: the checks that follow judge the program
        subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=FILE_LIMIT_S)
    except subprocess.TimeoutExpired:
        pass


def referenced_pass(jobs: list[Job], seed: int, check) -> list[Check]:
    """Untraced checks of one pass, each given the reference time around it."""
    checks: list[Check] = []
    segment: list[Check] = []  # checks since the last reference time

    def close(before: float) -> tuple[float, float]:
        after = reference_s()
        for c in segment:
            c.ref_s = (before + after) / 2
        segment.clear()
        return after, time.monotonic()

    last_ref, last_at = reference_s(), time.monotonic()
    for job in jobs:
        if segment and time.monotonic() - last_at >= REF_EVERY_S:
            last_ref, last_at = close(last_ref)
        segment.append(check(job, seed, False))
        checks.append(segment[-1])
    close(last_ref)
    return checks


def pass_wall_ref(checks: list[Check]) -> float:
    return sum(c.wall_s / c.ref_s for c in checks)


def interquartile_mean(values):
    """Mean of the values left when the lowest and highest quarter are cut."""
    cut = len(values) // 4
    middle = sorted(values)[cut : len(values) - cut]
    return statistics.fmean(middle)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[list[Check]]) -> dict:
    return {
        "setup_s": (median([sum(c.setup_s for c in p) for p in passes]), "s"),
        "wall_ref": (interquartile_mean([pass_wall_ref(p) for p in passes]), "ref"),
        "peak_rss_mb": (median([max(c.rss_mb for c in p) for p in passes]), "MB"),
    }


def per_layer(plain: list[list[Check]], traced: list[list[Check]]) -> dict:
    def total(p, span, key):
        return sum(c.trace["spans"].get(span, {}).get(key, 0) for c in p)

    def extra(p, key):
        return sum(c.trace[key] for c in p)

    def distinct(p, span):
        return sum(c.trace["distinct"][span] for c in p)

    def ratio(num, den):
        return num / den if den else 0.0

    def over(fn):
        return median([fn(p) for p in traced])

    out = {}
    for span, keys in SPAN_METRICS.items():
        for key in keys:
            out[f"{span}.{key}"] = (over(lambda p: total(p, span, key)), UNITS[key])
    for span in SHARES:
        out[f"{span}.self_share"] = (
            over(lambda p: ratio(total(p, span, "self_s"), sum(c.wall_s for c in p))),
            "ratio",
        )
    out["rational.poly_gcd.nontrivial_ratio"] = (
        over(lambda p: ratio(extra(p, "gcd_nontrivial"), total(p, "rational.poly_gcd", "calls"))),
        "ratio",
    )
    for span in ("calculus.rho_apply", "courant.dorfman"):
        out[f"{span}.distinct_ratio"] = (
            over(lambda p: ratio(distinct(p, span), total(p, span, "calls"))),
            "ratio",
        )
    out["algfile.parse.bytes_per_s"] = (
        over(lambda p: ratio(extra(p, "parse_bytes"), total(p, "algfile.parse", "incl_s"))),
        "B/s",
    )
    out["reporting.instances_checked"] = (over(lambda p: extra(p, "instances")), "count")
    out["cli.import_s"] = (median([median([c.import_s for c in p]) for p in plain]), "s")
    ran = {c.label for c in plain[0]}
    for label in all_labels():
        per_file = [next(c.wall_s for c in p if c.label == label) for p in plain] if label in ran else []
        out[f"cli.file.{label}_s"] = (median(per_file), "s")
    out["trace.overhead_ratio"] = (
        ratio(median([sum(c.wall_s for c in p) for p in traced]),
              median([sum(c.wall_s for c in p) for p in plain])),
        "ratio",
    )
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "child_flags": PYTHON_FLAGS,
        "child_env": CHILD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "algebroid_forge" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"error: no algebroid_forge sources or corpus under {ROOT}", file=sys.stderr)
        return 2

    # children inherit the parent's CPU, so the reference times the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_started = time.monotonic()
    WORK.mkdir(parents=True, exist_ok=True)
    warm_bytecode_cache()
    reference_s()  # first call pays for allocations the others reuse
    fingerprints = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    jobs = workload_jobs(args.workload, args.seed)
    setup_once_s = time.monotonic() - setup_started

    plain: list[list[Check]] = []
    traced: list[list[Check]] = []
    started = time.monotonic()
    deadline = setup_started + RUN_LIMIT_S

    def check(job, seed, trace):
        limit_s = max(1.0, min(FILE_LIMIT_S, deadline - time.monotonic()))
        return run_check(job, seed, trace, fingerprints, limit_s)

    pass_s = 0.0
    # start a pass only if it should end within the measured time
    while not plain or time.monotonic() - started + pass_s <= args.seconds:
        began = time.monotonic()
        if args.trace:
            plain.append(referenced_pass(jobs, args.seed, check))
            traced.append([check(job, args.seed, True) for job in jobs])
        else:
            seed = args.seed + len(plain)
            plain.append(referenced_pass(workload_jobs(args.workload, seed), seed, check))
        pass_s = time.monotonic() - began

    checks = [c for p in plain + traced for c in p]
    if traced:
        # one more check: every traced pass checked exactly the same instances
        counts = {sum(c.trace["instances"] for c in p) for p in traced}
        repeat = Check("reporting.instances_checked", args.seed, 0.0)
        if len(counts) != 1:
            repeat.problems.append(f"instance counts {sorted(counts)} differ between passes")
        checks.append(repeat)
    failed = [c for c in checks if c.problems]
    for c in failed:
        print(f"check failed: {c.label} seed={c.seed}: {'; '.join(c.problems)}", file=sys.stderr)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": sorted({c.seed for p in plain for c in p}),
        "passes": len(plain),
        "pass_wall_s": [sum(c.wall_s for c in p) for p in plain],
        "pass_wall_ref": [pass_wall_ref(p) for p in plain],
        "pass_ref_s": [statistics.median(c.ref_s for c in p) for p in plain],
        "traced_passes": len(traced),
        "inputs": [job.label for job in jobs],
        "one_time_setup_s": setup_once_s,
        "failed_share": len(failed) / len(checks),
        "environment": environment(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
