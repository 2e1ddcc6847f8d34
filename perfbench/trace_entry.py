"""Entry script of a traced cli-demos op: install the span wrappers, then run
``pqsim.cli.main`` exactly as ``python -m pqsim.cli`` would.

Spans go to the file named by PERFBENCH_SPANS, tagged with the op id in
PERFBENCH_OP; nothing is added to standard output or standard error.
"""

import os
import sys

import pqsim.cli

import tracing


def main() -> int:
    tracer = tracing.install(tracing.Tracer())
    tracer.op = int(os.environ["PERFBENCH_OP"])
    try:
        return pqsim.cli.main(sys.argv[1:])
    finally:
        tracer.op = -1
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
