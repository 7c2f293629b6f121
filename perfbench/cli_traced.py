"""Traced stand-in for ``python -m qed51.cli``, used by the traced
cli_session passes:

    cli_traced.py FD ARGV...

Installs the tracer, runs ``qed51.cli.main(ARGV)`` exactly as the module
entry point does, and writes the aggregated spans as JSON to file
descriptor FD.  Stdout, stderr and the exit code are the CLI's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracelib  # noqa: E402


def main() -> None:
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    import qed51.cli as cli
    tracer = tracelib.Tracer()
    tracer.install()
    try:
        sys.exit(cli.main(argv))
    finally:
        tracer.uninstall()
        with os.fdopen(fd, "w") as fh:
            json.dump(tracelib.aggregate(tracer, {}), fh)


if __name__ == "__main__":
    main()
