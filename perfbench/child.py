"""One fresh interpreter for one CLI invocation of the benchmark.

    python3 perfbench/child.py REPORT MODE [CLI ARGS...]

MODE is ``import`` (stop once ``import crflag`` returns), ``run`` (call
``crflag.cli.main`` with the CLI args) or ``trace`` (the same, with the
per-layer tracer installed first).  The CLI writes to this process's
stdout; REPORT receives a JSON object with the monotonic clock reading at
which ``import crflag`` returned, the exit code and, when traced, the raw
per-layer counters.  The package is found through PYTHONPATH.
"""

import json
import sys
import time

import crflag

IMPORTED_AT = time.monotonic()


def main() -> int:
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"imported_at": IMPORTED_AT}
    rc = 0
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.install()
        import crflag.cli

        rc = crflag.cli.main(cli_args)
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.snapshot()
    report["rc"] = rc
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
