"""Run one CLI command with the package's public functions traced.

    python3 bench/cli_traced.py SRC_DIR SPANS_JSON -- ARGV...

Does what `python -m upconvspec ARGV...` does, with spans recorded around
the import, `cli.main` and every function in tracing.TARGETS.  The spans
and the size counts of any kernel built are written to SPANS_JSON when the
command returns; the exit code is the command's own.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main():
    src_dir, out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SRC_DIR SPANS_JSON -- ARGV...")
    sys.path.insert(0, src_dir)
    tracer = Tracer()
    with tracer.span("import.upconvspec_cli"):
        from upconvspec import cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        tracer.flush_kernels()
        json.dump({"spans": tracer.spans, "kernels": tracer.kernel_log}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
