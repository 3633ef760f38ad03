"""Run the structdr CLI with tracing installed.

Usage: PERFBENCH_SPANS=<file> PERFBENCH_OP=<op id> python3 traced_cli.py <verb> ...

Same argv as ``python3 -m structdr``. Spans are written to PERFBENCH_SPANS
when the command ends; every span carries op id PERFBENCH_OP.
"""

import os
import sys

import tracing


def main():
    tracer = tracing.Tracer(root_op=int(os.environ["PERFBENCH_OP"]))
    tracing.install(tracer)
    import structdr.cli

    try:
        return structdr.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
