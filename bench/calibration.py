"""A fixed pure-Python workload that measures how fast this machine runs now.

Shared virtual machines change speed by tens of percent from one second to the
next. The kernel below does what dominates omegagj's time, exact rational
axpy over sorted sparse rows, but it is the benchmark's own frozen code, so a
change to the program never moves it. A command timed between two
calibrations is scaled by REFERENCE_S over their mean, which removes the
speed change the two share: on a 2-vCPU VM this cut the spread of per-run
medians from 15-27% to 1-6%.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Typical speed() on the machine the benchmark was written on (x86_64 VM with
# 2 vCPUs, Python 3.11.7). Calibrated seconds are seconds at that speed.
REFERENCE_S = 0.0055


def _axpy(lam, xs, ys):
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        cx, vx = xs[i]
        cy, vy = ys[j]
        if cx < cy:
            out.append((cx, lam * vx))
            i += 1
        elif cy < cx:
            out.append((cy, vy))
            j += 1
        else:
            v = vy + lam * vx
            if v:
                out.append((cx, v))
            i += 1
            j += 1
    out.extend((c, lam * v) for c, v in xs[i:])
    out.extend(ys[j:])
    return tuple(out)


def calibrate() -> float:
    """Seconds for one pass of the fixed kernel."""
    t0 = time.perf_counter()
    rows = [tuple((c, Fraction(1)) for c in range(k, k + 3)) for k in range(120)]
    kept = []
    acc = rows[0]
    for k, r in enumerate(rows[1:], 1):
        acc = _axpy(Fraction(-1 if k % 2 else 1), r, acc)
        kept.append(acc)
    for k in range(len(kept)):
        kept[k] = _axpy(Fraction(k % 3 + 1, 2), rows[k], kept[k])
    return time.perf_counter() - t0


def speed() -> float:
    """The fastest of three passes, so one interrupted pass does not count."""
    return min(calibrate() for _ in range(3))
