"""Host-speed calibration: a fixed reference kernel timed next to the tasks.

The shared host the benchmark runs on changes speed by up to a factor of two
for spells of tens of seconds (other tenants on the same cores); process CPU
time slows down with wall time, so no clock inside the process sees past it.
The kernel below does the kind of work the program does (exact sparse
products over word-keyed dicts with ``Fraction`` coefficients) but uses no
code of the program, so a change to the program never changes its time. A
task's duration divided by the kernel time measured around it is a ratio the
host's speed largely cancels out of; multiplied by ``REFERENCE_S`` it reads
as seconds on a host where the kernel takes ``REFERENCE_S``.
"""

import itertools
import time
from fractions import Fraction

# Kernel time on an undisturbed 2-vCPU Intel Xeon guest with Python 3.11
# (the fastest observed there, rounded). A fixed constant: it only sets the
# scale of the normalised figures.
REFERENCE_S = 0.005
REPEATS = 3

_WORDS = [w for n in (1, 2, 3) for w in itertools.product(range(3), repeat=n)]
_COEFFS = [Fraction(i + 1, (i % 5) + 2) for i in range(len(_WORDS))]


def kernel():
    """Square a fixed sparse element of a free algebra over Q."""
    a = dict(zip(_WORDS, _COEFFS))
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in a.items():
            w = w1 + w2
            v = out.get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def kernel_seconds():
    """Mean time of REPEATS kernel runs: the host's current speed.

    The mean, not the minimum: a task's duration averages the host's speed
    over the task, fast moments and slow ones alike.
    """
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (time.perf_counter() - t0) / REPEATS
