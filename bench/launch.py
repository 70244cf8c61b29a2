"""Run the ``patternlet`` CLI with the traced run's layer wrappers installed.

Usage: ``python3 bench/launch.py SPANS_OUT <patternlet arguments>``.  The
wrappers go in before the daemon binds; the spans it recorded are
written to ``SPANS_OUT`` (one JSON list) when the command returns, which
for ``serve`` is after the SIGTERM drain.
"""

import json
import sys

import tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer.install_serve()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.take_spans(), fh)


if __name__ == "__main__":
    sys.exit(main())
