"""Run one qlogic CLI command in this interpreter with the layer wrappers on.

usage: python3 perfbench/cli_shim.py SPANS_FILE -- ARGUMENTS...

The command runs exactly as ``python -m qlogic.cli ARGUMENTS`` would, inside
a ``cli.main`` span; counters and spans go to SPANS_FILE on exit.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--":
        raise SystemExit(__doc__)
    import qlogic.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", qlogic.cli.main, argv)
    finally:
        tracer.restore()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
