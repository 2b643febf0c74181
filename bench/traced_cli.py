"""Run one bracekit CLI command with its layers traced.

Usage: python traced_cli.py SPANS_FILE OP_ID ARGS...

Behaves like ``python -m bracekit.cli ARGS...`` (same output and exit code)
and writes the spans of the run to SPANS_FILE.  bracekit must be importable,
for instance through PYTHONPATH.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    from bracekit import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
