"""Run the solve service with the suite's tracer installed.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/suite/serve_traced.py SPAN_FILE

Behaves like ``python -m repro.cli serve --port 0``: it prints the
listening line, serves until SIGTERM, drains, and exits.  On the way out it
writes every span it recorded to ``SPAN_FILE``.  Each job the service
materializes is one root span.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(span_file: str) -> int:
    from repro.cli import main as cli_main

    from suite.trace import SERVER_ROOT, Tracer, dump_spans

    tracer = Tracer().install(extra=SERVER_ROOT)
    try:
        code = cli_main(["serve", "--port", "0"])
    finally:
        tracer.uninstall()
        dump_spans(span_file, tracer.spans, {"process": "solve service"})
    return code


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    # Import the suite as a package so its trace module never shadows the
    # standard library's.
    sys.path[0] = str(here.parent)
    sys.exit(main(sys.argv[1]))
