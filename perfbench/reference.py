"""A fixed reference computation that calibrates the machine's current speed.

On a shared machine the processor's speed swings by up to 2x, over minutes
and from one tenth of a second to the next, and process time swings with
it.  The benchmark therefore times this kernel right before and right after
each measured operation and reports the operation's time as
``operation / reference * REFERENCE_S``, with the mean of the two reference
times: seconds on a machine on which the reference takes ``REFERENCE_S``.
The kernel mixes what the program does, small-integer dictionaries and
``Fraction`` arithmetic as in the exact layer and elementwise ``numpy``
arrays as in the numeric one, and uses no code of the program, so a change
to the program leaves it unchanged.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# Median process time of ``reference()`` on the 2-vCPU Intel Xeon (x86_64,
# Python 3.11, numpy 2.4) on which the benchmark was defined.
REFERENCE_S = 0.0035


def reference():
    rng = random.Random(7)
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (rng.randrange(50), rng.randrange(50))
        table[key] = table.get(key, 0) + i * 7919 % 1000003
        if i % 10 == 0:
            acc += Fraction(i + 1, i + 3)
    ordered = sorted(table.items())
    a = np.arange(10000, dtype=float)
    for _ in range(5):
        a = np.sqrt(a * 1.0001 + 1.0)
    return len(ordered), acc, float(a.sum())


def reference_seconds():
    """Process time of one run of the reference kernel."""
    t0 = time.process_time()
    reference()
    return time.process_time() - t0
