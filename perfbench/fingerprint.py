"""Record the behaviour fingerprint the benchmark checks at seeds 0, 3, 7.

    python3 perfbench/fingerprint.py

Runs every input of every workload once per fingerprint seed, traced, and
writes the sha256 of its ``--format records`` output and the number of
instances its clauses checked to ``fingerprints.json``.  A run
whose exit code or verdicts differ from ``expected.py`` is not recorded:
the script stops instead.  Re-record only for an intended change of
behaviour, and say so where the change is described.
"""

import sys

sys.dont_write_bytecode = True  # leave nothing beside the sources

import json  # noqa: E402

from run import (  # noqa: E402
    FINGERPRINT_SEEDS,
    FINGERPRINTS,
    WORKLOADS,
    run_check,
    warm_bytecode_cache,
    workload_jobs,
)


def main() -> int:
    warm_bytecode_cache()
    table: dict[str, dict[str, object]] = {"records_sha256": {}, "instances_checked": {}}
    for workload in WORKLOADS:
        for seed in FINGERPRINT_SEEDS:
            for job in workload_jobs(workload, seed):
                check = run_check(job, seed, True, None)
                if check.problems:
                    print(f"{job.label} seed={seed}: {'; '.join(check.problems)}", file=sys.stderr)
                    return 1
                key = f"{job.label}@{seed}"
                table["records_sha256"][key] = check.records_sha256
                table["instances_checked"][key] = check.trace["instances"]
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
