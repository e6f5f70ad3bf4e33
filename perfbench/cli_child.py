"""A traced ``plueckerdec`` CLI process, for the traced run of cli-cold.

Usage: ``python3 perfbench/cli_child.py <plueckerdec argv...>``

Times the import of ``plueckerdec.cli``, wraps the call sites of
``spans.CALL_SITES``, runs ``cli.main(argv)`` with its stdout captured and
prints one JSON object ``{"rc", "stdout", "spans"}``.
"""

import contextlib
import io
import json
import sys

import spans as spanlib


def main() -> None:
    tracer = spanlib.Tracer()
    idx = tracer.begin("cli.import")
    import plueckerdec.cli as cli

    tracer.end(idx)
    tracer.install()
    out = io.StringIO()
    idx = tracer.begin("cli.main")
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    finally:
        tracer.end(idx)
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "spans": tracer.spans}))


if __name__ == "__main__":
    main()
