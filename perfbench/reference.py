"""Reference work that shares no code with levicav.

The benchmark was built on a shared host whose speed drifts by up to 1.5x
over seconds to minutes. Each workload runs its reference once after
every request, outside the request's timed region; dividing request time
by reference time, block by block, cancels most of that drift, since both
slow down together. Each reference does the same kind of work as the
requests it accompanies, with code the program does not own.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 96)
_NODES = np.linspace(-1.0, 1.0, 24)


def kernel() -> complex:
    """A Python loop over small numpy array expressions, like the
    program's quadrature loops; about 12 ms on a 2-core Xeon."""
    acc = 0j
    for i in range(120):
        s = (_X[:, None] * 0.01 * i + _NODES[None, :]).ravel()
        acc += np.sum(np.exp(-0.3 * s) * np.sinh((0.2 + 0.1j) * s) * np.exp(-s * s))
    return acc


def in_process_s() -> float:
    """Wall seconds of one run of ``kernel``."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def fresh_process_s() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits:
    process start and extension-module import, like a CLI call's start-up;
    about 0.16 s on a 2-core Xeon."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - t0
