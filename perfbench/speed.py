"""The machine's current speed, from a fixed reference kernel.

On a shared virtual machine the speed of the CPU changes by itself: the same
work takes up to 1.8x longer for seconds to minutes at a time, in CPU time as
much as in wall time.  The benchmark therefore times a short kernel, whose
work never changes and does not touch coevo, right before and after every
timed part and every `PERIOD_S` while it runs (from a SIGALRM handler), and
rescales each stretch of the part between two kernel passes to a fixed
machine speed:

    normalised = sum over stretches of length * REFERENCE_KERNEL_S / kernel time

where the kernel time of a stretch is the mean of the passes on either side.
Kernel passes inside a part are not counted in its time.  A change in coevo
moves the stretches and not the kernel, so it shows in full; a slow phase of
the machine moves both and cancels.  The kernel is a Python loop of small
numpy calls (compare and sum on 100-element arrays), the pattern of coevo's
per-generation level and target checks; of the kernels tried (this one, a
dict-and-argsort mix, a large random gather and a walk over 200k Python
objects) it followed coevo's slow phases most closely.  Set-up time is
rescaled by a second kernel, see `normalised_setup_s`.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The kernel's time on the machine the baseline was recorded on (2 vCPUs of
# an "Intel(R) Xeon(R) Processor" VM, Python 3.11, numpy 2.4), in its fast
# phases.  Any fixed value would do; this one keeps normalised times close to
# the wall times of an undisturbed run there.
REFERENCE_KERNEL_S = 0.0018
PERIOD_S = 0.1

_ARRAYS = list(np.random.default_rng(12345).random((4, 100)))
_inside_s = 0.0   # time spent in kernel passes run from the SIGALRM handler


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel (about 2 ms there)."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(200):
        for row in _ARRAYS:
            acc += int((row < 0.5).sum())
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the work observable
        raise AssertionError(acc)
    return elapsed


# Set-up (interpreter start, imports) slows less than coevo's numpy-call loops
# in a slow phase, about as much as this dict-and-argsort kernel does, which
# rescales it instead.  Its time in the fast phases, as above:
SETUP_REFERENCE_S = 0.007
_MATRIX = np.random.default_rng(12345).random((100, 100))


def setup_kernel_s() -> float:
    """Wall time of one pass of the set-up reference kernel (7-11 ms there)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for j in range(16000):
        key = (j * 7919) % 101
        table[key] = table.get(key, 0) + j
        acc ^= key
    for _ in range(60):
        order = np.argsort(_MATRIX, axis=1)
        acc += int((_MATRIX < 0.5).sum()) + int(order[:, 0].sum() & 1)
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the work observable
        raise AssertionError(acc)
    return elapsed


def normalised_setup_s(setup_s: float) -> float:
    """`setup_s` at the reference speed: rescaled by the median of three
    set-up kernel passes run right after it."""
    return setup_s * SETUP_REFERENCE_S / sorted(setup_kernel_s() for _ in range(3))[1]


def program_clock() -> float:
    """`time.perf_counter` minus the kernel passes run inside parts so far:
    the clock the span tracer reads, so that spans never contain a pass."""
    return time.perf_counter() - _inside_s


class Sampler:
    """Times one part with kernel passes around and inside it.

        with Sampler() as s:
            run_part()
        s.wall_s, s.normalised_s
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.passes = []          # (start, duration) of every kernel pass

    def _pass(self):
        start = time.perf_counter()
        self.passes.append((start, kernel_s()))

    def _on_alarm(self, signum, frame):
        global _inside_s
        self._pass()
        _inside_s += self.passes[-1][1]
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self):
        self._pass()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._pass()
        self.wall_s = t1 - self.t0 - sum(d for _, d in self.passes[1:-1])
        self.normalised_s = sum(
            (b_start - (a_start + a_dur)) * REFERENCE_KERNEL_S * 2 / (a_dur + b_dur)
            for (a_start, a_dur), (b_start, b_dur) in zip(self.passes, self.passes[1:]))
        return False
