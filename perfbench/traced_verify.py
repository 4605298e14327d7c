"""Run the ``verify`` CLI under the outside-in tracer.

Usage: ``python perfbench/traced_verify.py run`` with the checkout's ``src`` on
``PYTHONPATH``.  The report goes to stdout exactly as ``verify`` prints it;
the tracer's counters go to stderr as one line starting with ``TRACE_MARK``.
"""

import json
import sys

sys.dont_write_bytecode = True

from tracer import Tracer  # noqa: E402  (after the bytecode switch)

TRACE_MARK = "perfbench-trace: "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["godeaux3.cli"].main(sys.argv[1:])
    finally:
        tracer.end_op()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
