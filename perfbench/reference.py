"""A fixed reference computation, timed alongside the requests.

The benchmark's host shares its physical cores with other tenants. Over
seconds to minutes the same request's CPU time drifts by up to 1.8x while
nothing in the program changes, and a run cannot tell that drift from a
regression. So a timed run also times this computation between every two
requests or set-up interpreters, and scales each of their timings by
``REFERENCE_MS`` over the mean of the two reference runs around it: a
timing is then reported at the speed the host had when ``REFERENCE_MS``
was taken.

The computation mixes the two kinds of work the workloads do: scalar
Python bisection with a predicate call per step (as ``solve_method1``) and
lockstep numpy bisection over a small batch of rows (as ``solve_method2``),
in about equal CPU time. It uses only Python and numpy, never the package,
so a change to the package cannot change it.
"""

from __future__ import annotations

import math
from time import process_time

import numpy as np

#: CPU ms of both halves together on the machine the bounds were tuned on
#: (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6); the median of
#: 200 runs.
REFERENCE_MS = 14.5

_GAINS = [0.61, 1.37, 0.94, 1.82, 0.73]
_ROWS = np.random.default_rng(20240702).uniform(0.2, 1.0, size=(2048, len(_GAINS)))
_ROW_GAINS = np.array(_GAINS)


def _power_sum(gains: list[float], tau: float) -> float:
    total = 0.0
    for g in gains:
        total += math.expm1(tau * 0.6931471805599453 / g) / g
    return total


def _scalar_part() -> float:
    acc = 0.0
    for k in range(200):
        budget = 20.0 + 0.125 * k
        lo, hi = 0.0, 16.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if _power_sum(_GAINS, mid) <= budget:
                lo = mid
            else:
                hi = mid
        acc += lo
    return acc


def _batch_part() -> float:
    lo = np.zeros(len(_ROWS))
    hi = np.full(len(_ROWS), 16.0)
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        power = np.sum(np.expm1(mid[:, None] * _ROWS * 0.6931471805599453) / _ROW_GAINS, axis=1)
        feasible = power <= 20.0
        lo = np.where(feasible, mid, lo)
        hi = np.where(feasible, hi, mid)
    return float(lo.sum())


def reference_cpu_ms() -> tuple[float, float]:
    """CPU ms of one run of the scalar half and one of the batch half."""
    t0 = process_time()
    _scalar_part()
    t1 = process_time()
    _batch_part()
    t2 = process_time()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3
