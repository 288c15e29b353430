"""A fixed reference loop that tells how fast the host runs at the moment.

On a shared host the same single-threaded code runs up to twice as fast or as
slow from one minute to the next, as other tenants come and go.  A run of the
benchmark samples this loop between its calls and scales every time it
reports to the speed at which the loop takes ``NOMINAL_S``: a time T measured
while the loop took R seconds is reported as T * NOMINAL_S / R.  The loop does
the kind of work the program does (Python calls on tiny numpy arrays, plus a
little compiled linear algebra) and never calls the program, so a change to
``infocost`` cannot move it.  The raw times are kept in the detail line.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 5e-3  # about the loop's time on the 2-core VM the benchmark was written on

_P = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
_A = np.random.default_rng(0).random((40, 40)) + 40.0 * np.eye(40)
_B = np.random.default_rng(1).random(40)


def reference_loop() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(150):
        q = _P / _P.sum(axis=0)
        acc += float(np.max(np.sum(_P * np.log(_P / q), axis=1)))
        acc += sum(float(x) for x in q[0])
    for _ in range(40):
        acc += float(np.linalg.solve(_A, _B)[0]) + float(np.sort(_A.ravel())[7])
    dt = perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite sum")
    return dt
