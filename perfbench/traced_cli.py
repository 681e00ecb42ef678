"""Run one covgraph CLI command with spans recorded, for the traced
cli-process run: ``traced_cli.py SPANS_OUT ARGS...``.  Exits with the
command's exit code and writes the spans as a JSON list to SPANS_OUT."""

from __future__ import annotations

import json
import sys

import covgraph.cli
import spans


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return covgraph.cli.main(argv[1:])
    finally:
        tracer.uninstall()
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
