"""Traced stand-in for the `jacktop` console script.

Usage: python3 traced_cli.py SPANS_PATH [jacktop arguments...]

Imports jacktop.cli, installs the wrappers of tracing.py, runs
jacktop.cli.main on the remaining arguments, writes the spans to SPANS_PATH
and exits with main's exit code.  Stdout is exactly the command's stdout.
"""

import time

T0 = time.monotonic()
import jacktop.cli  # noqa: E402

IMPORT_S = time.monotonic() - T0

import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    tracing.install(rec)
    before = tracing.cache_sizes()
    try:
        code = jacktop.cli.main(argv)
    finally:
        sys.stdout.flush()
        growth = {k: v - before[k] for k, v in tracing.cache_sizes().items()}
        tracing.dump(rec, path, {"cache_growth": growth, "import_s": IMPORT_S})
    return code


if __name__ == "__main__":
    sys.exit(main())
