"""Run one gl11chain command with the tracer installed, in this process.

Usage: python3 perfbench/traced_cli.py TRACE_OUT CMD_ID CLI_ARG...

The exit code is the command's own; the trace is written to TRACE_OUT when
the command ends, whether it passed, failed or raised.
"""

import sys

from tracer import Tracer, install


def main() -> int:
    trace_out, cmd_id, *argv = sys.argv[1:]
    tracer = Tracer(int(cmd_id))
    install(tracer)
    from gl11chain import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
