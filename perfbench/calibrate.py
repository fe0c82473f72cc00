"""The machine's momentary speed, from a fixed reference kernel.

On a shared virtual machine the speed of one vCPU drifts by tens of per
cent over phases of ten seconds to minutes (``perfbench/NOTES.md``), and
averaging over a whole run does not remove a drift that lasts as long as
the run.  The benchmark therefore times this kernel, which does not use
the program, between its timed calls, and scales every call's wall time
by ``REFERENCE_S / kernel time`` measured beside it: the time the call
would have taken while the machine ran the kernel in ``REFERENCE_S``.

The kernel does the kind of work the program does: small dense linear
algebra on 4x4 to 8x8 matrices, one small ``scipy.optimize.least_squares``
fit, and Python-level loops over tuples and dicts.  Its cost depends only
on the Python, numpy and scipy in use, never on the program, so a change
to the program moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import least_squares

# Median kernel time on the machine where the benchmark was defined (see
# NOTES.md); a constant, so scaled times of two runs compare directly.
REFERENCE_S = 1.7e-3
REPEATS = 5

_rng = np.random.default_rng(20171127)
_MATRICES = [_rng.standard_normal((n, n)) for n in (4, 6, 8) for _ in range(3)]
_X = np.linspace(0.0, 1.0, 12)
_Y = 1.5 * np.exp(-0.7 * _X) + 0.01 * _rng.standard_normal(12)


def _residual(p):
    return p[0] * np.exp(-p[1] * _X) - _Y


def kernel() -> float:
    """One fixed amount of work; returns a checksum."""
    acc = 0.0
    for m in _MATRICES:
        s = m @ m.T + np.eye(len(m))
        acc += float(np.linalg.eigvalsh(s)[0])
        acc += float(np.linalg.solve(s, m[:, 0])[0])
        acc += float(np.trace(s @ s) ** 0.5)
    acc += float(least_squares(_residual, (1.0, 1.0)).x[0])
    table = {}
    for i in range(300):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0.0) + i * 0.5
    return acc + sum(table.values())


def probe() -> float:
    """Median seconds of ``REPEATS`` kernel runs: the speed right now."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def warm() -> None:
    """Run the kernel until its first-call costs are paid."""
    for _ in range(3):
        kernel()
