"""Run the isotypic CLI with the layer tracer installed.

Usage: python3 cli_shim.py SUMMARY_JSON [isotypic arguments...]

The tracer wraps the layer functions inside this child, the whole of
``isotypic.cli.main`` runs under one ``cli.main`` span, and the reduced
span summary is written to SUMMARY_JSON before the process exits with the
CLI's own exit code.  stdout and stderr are the CLI's, unchanged.
"""

import json
import sys

import isotypic.cli
import layertrace


def main():
    out_path = sys.argv[1]
    sys.argv = ["isotypic", *sys.argv[2:]]
    tracer = layertrace.Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main"):
            isotypic.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.stop()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
