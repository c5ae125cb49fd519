"""Set-up probe: start, import qint, parse a command's arguments and specs,
and stop where the command would take its first step.

    python3 bench/probe.py SRC_DIR QINT_ARGS...

Prints {"import_s": ..., "parse_s": ...} as one JSON line. The caller times
the whole child from spawn to exit; that is one sample of setup_s.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qint  # noqa: E402
import qint.cli  # noqa: E402

t1 = time.perf_counter()
args = qint.cli.build_parser().parse_args(sys.argv[2:])
if args.command == "integrate":
    qint.parse_function(json.loads(args.fn))
    qint.parse_path(json.loads(args.path))
else:
    qint.tolerances_from_env()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
