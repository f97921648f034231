"""Run one svrisk CLI command with spans recorded around the public functions.

Usage: python bench/traced_cli.py SPANS_OUT -- ARGS...

Installs the same wrappers as the traced library workloads, then calls
``svrisk.cli.main(ARGS)``.  Stdout and the exit code are the command's own;
the spans and the import time go to SPANS_OUT.  ``src`` must be on
PYTHONPATH.
"""

import sys
import time


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT -- ARGS...")
    t0 = time.perf_counter()
    import svrisk.cli
    import_ms = (time.perf_counter() - t0) * 1000.0

    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.op = "cli"
    code = svrisk.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out, {"import_ms": import_ms})
    return code


if __name__ == "__main__":
    sys.exit(main())
