"""Traced stand-in for ``python -m repro``: installs the layer wrappers,
imports ``repro.cli`` under a span and calls ``repro.cli.main``.

Usage: ``python bench/shim_cli.py <repro arguments>`` with
``BENCH_OP`` (the op id) and ``BENCH_SPANS`` (the JSONL path written at
exit) in the environment.
"""

import time

T_START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (the shim's own directory is sys.path[0])


def main() -> int:
    tracer = tracing.Tracer(op=os.environ["BENCH_OP"])
    tracing.install(tracer)
    with tracer.span("cli.import"):
        import repro.cli
    code = 1
    try:
        code = repro.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(
            os.environ["BENCH_SPANS"],
            {"t_start": T_START, "t_end": time.monotonic()},
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
