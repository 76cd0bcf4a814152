"""One benchmark child: import the package, run ``forge`` once, report.

    python3 perfbench/child.py [--trace] check FILE --format records --seed S ...

Everything after the optional ``--trace`` goes to
``algebroid_forge.cli.main`` unchanged, so stdout and the exit code are
exactly those of ``forge``.  After ``main`` returns, the child appends one
line ``@perfbench {json}`` to stderr: the monotonic time at which the
package had been imported, the import time, the peak RSS and, with
``--trace``, the per-layer summary of the spans (see ``tracer.py``).
Nothing but ``sys`` is imported ahead of the package, so the time to the
import is the interpreter's start plus the package's own import.
"""

import sys
import time

MARK = "@perfbench "


def main() -> int:
    trace = len(sys.argv) > 1 and sys.argv[1] == "--trace"
    argv = sys.argv[2:] if trace else sys.argv[1:]
    if trace:
        from tracer import Tracer
    t_import = time.monotonic()
    import algebroid_forge
    from algebroid_forge import cli

    t_imported = time.monotonic()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(algebroid_forge)  # cli.main itself becomes the root span
    code = cli.main(argv)
    sys.stdout.flush()

    import json
    import resource

    report = {
        "imported": t_imported,
        "import_s": t_imported - t_import,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(MARK + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
