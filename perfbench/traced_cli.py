"""Run the complexchaos command line under the layer tracer.

    python3 perfbench/traced_cli.py TRACE_OUT CLI_ARGUMENT...

The tracer is installed before the CLI makes its first call, so cold caches
show up in ``chaos.expand.orbit_tables_built``.  The per-layer stats are
written to TRACE_OUT as JSON; the exit code is the CLI's.
"""

import json
import sys

from layertrace import Tracer


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    from complexchaos import cli

    tracer = Tracer()
    try:
        with tracer.active():
            code = cli.main(cli_args)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
