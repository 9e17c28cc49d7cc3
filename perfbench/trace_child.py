"""Traced stand-in for `python -m algebroids.cli`.

Usage: trace_child.py OUT.json ARGV...

Imports the CLI, installs the benchmark's tracer, runs `main(ARGV)` and
writes the tracer's counts, self times and spans to OUT.json, then exits with
main's code. An exception escaping main still prints its traceback and exits
1, exactly as under `python -m`. With no arguments it only imports, which
warms the bytecode cache.
"""

import json
import sys

import algebroids
import algebroids.cli

from tracing import Tracer


def main(argv):
    if not argv:
        return 0
    out, argv = argv[0], argv[1:]
    tracer = Tracer(algebroids)
    tracer.install()
    try:
        return algebroids.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
