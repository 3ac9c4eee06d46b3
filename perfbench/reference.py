"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU seconds a fixed piece of work takes change with
what other tenants run, in phases of seconds to minutes; on a shared 2-core
host they moved by up to 2x. Phases touch both processors alike, so
``run.py`` calls this kernel on the spare processor while a child process
runs the program, and divides the child's CPU seconds by the median kernel
reading, multiplied by ``REFERENCE_S``. Over 60 s of strong phases, with
the kernel read every 0.2 s next to repeated runs of the zonal series,
3-second medians of the two correlated at 0.97 and the spread of their
ratio was a quarter of that of the series alone. In calm stretches the
readings only add a little noise.

The kernel runs Python bytecode and many small numpy calls and allocates
no large arrays. It belongs to the benchmark and never calls the program.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel CPU time, in seconds: the time metrics read as CPU seconds
# on a host where one kernel call takes this long.
REFERENCE_S = 0.02

_SMALL = np.random.default_rng(20240917).uniform(0.5, 2.0, size=5)


def kernel() -> float:
    """CPU seconds for one call of the reference kernel."""
    t0 = time.process_time()
    acc = 0.0
    for j in range(120000):  # interpreter work
        acc += (j % 7) * 0.5
    for k in range(2400):  # small-array numpy calls
        acc += float(np.sum(_SMALL ** (k % 5)))
    elapsed = time.process_time() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return elapsed
