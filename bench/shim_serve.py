"""Traced stand-in for ``python -m repro serve``.

Runs ``repro serve`` (its CLI handler, which calls
``repro.serve.app.serve_main``) with the layer wrappers installed; SIGUSR2 removes them and SIGUSR1
puts them back, so one server can serve untraced and traced blocks and
the tracing overhead be measured.  Spans are written to ``BENCH_SPANS``
when the server exits.

Spawned attempt workers re-import this file as ``__mp_main__``; like
``python -m repro``, it then imports nothing from the program.
"""

import os
import signal
import sys


def main() -> int:
    import tracing

    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: installation.apply())
    signal.signal(signal.SIGUSR2, lambda signum, frame: installation.remove())
    import repro.cli

    # The command's own handler, not repro.cli.main, whose span would
    # last the server's whole lifetime.
    args = repro.cli.build_parser().parse_args(["serve"] + sys.argv[1:])
    try:
        return args.func(args)
    finally:
        tracer.dump(os.environ["BENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
