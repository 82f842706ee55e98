"""``levicav`` CLI entry with spans installed, for traced cli-cold requests.

    PERFBENCH_SPANS_OUT=FILE python3 perfbench/launch.py SUBCOMMAND ARGS...

Behaves like ``python -m levicav.cli``; on exit it writes the spans it
recorded (see spans.py) to FILE as JSON. The import of ``levicav.cli`` is
the ``cli.import`` span and the call to ``main`` the ``cli.main.<sub>`` span.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import levicav.cli  # noqa: E402
import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.add("cli.import", import_s)
try:
    code = tracer.wrap(f"cli.main.{sys.argv[1]}", levicav.cli.main)(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS_OUT"], "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
sys.exit(code)
