"""One traced `qdeflect` command: `python -X importtime traced_cli.py SPANS -- ARGS`.

Imports the CLI, installs the tracer, runs `qdeflect.cli.main(ARGS)` and
writes the spans to SPANS as JSON.  Exits with main's code, like the
`qdeflect` entry point.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS -- ARGS")
    import qdeflect.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = qdeflect.cli.main(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)
