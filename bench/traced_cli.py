"""`python -m msimg.cli` with the span recorder installed.

Usage: traced_cli.py TRACE_OUT RUN_ID <msimg cli arguments...>

Runs `msimg.cli.main` on the arguments, writes the recorded spans to
TRACE_OUT and exits with the command's exit code.
"""

import sys

from spans import Recorder


def main() -> int:
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder(run_id)
    with rec.span("process.import"):
        import msimg.cli as cli
    rec.install()
    try:
        with rec.span(f"process.{argv[0]}"):
            code = cli.main(argv)
    finally:
        rec.uninstall()
        rec.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
