"""Times operations in seconds of a reference host speed.

On a shared host the speed of one core drifts by up to about 1.8 times over
seconds to minutes, with CPU time equal to wall time: the whole machine runs
slower, not this process less often.  Run-to-run spread then measures the
host, not the simulator.  A fixed reference kernel slows down with it:
short numpy calls on small complex arrays and Python loop overhead, the
same kind of work as the simulator's frame loop and decoders (a BLAS matrix
product did not track the drift).  The kernel is timed between every two
operations; each operation's seconds are scaled by ``REF_NOMINAL_S`` over
the mean of the two timings around it, so they read as seconds on a host
where the kernel takes ``REF_NOMINAL_S``.  One timing is the median of
three passes, so that a single preemption does not set a scale.  The
kernel never calls stclab, so a change to the program moves the scaled
times as it moves the raw ones.
"""

import time

import numpy as np

REF_NOMINAL_S = 0.008
REF_LOOPS = 130
REF_PASSES = 3

_rng = np.random.default_rng(20050613)
_A = _rng.standard_normal((150, 2)) + 1j * _rng.standard_normal((150, 2))
_B = _rng.standard_normal((150, 2)) + 1j * _rng.standard_normal((150, 2))
_PTS = np.exp(1j * np.pi * (np.arange(4) / 2.0 + 0.25))


def _pass():
    bits = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        z = np.sum(np.conj(_A) * _B, axis=1)
        g = np.sum(np.abs(_A) ** 2, axis=1)
        d = np.abs(z[:, None] - g[:, None] * _PTS[None, :]) ** 2
        np.argmin(d, axis=1)
        bits.integers(0, 2, 300)
    return time.perf_counter() - t0


def reference_seconds():
    """Wall seconds of the fixed reference kernel: the median of its passes."""
    return sorted(_pass() for _ in range(REF_PASSES))[REF_PASSES // 2]


class HostClock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self):
        self.last_ref = reference_seconds()
        self.refs = [self.last_ref]

    def time(self, fn):
        """Run ``fn()``; return (scaled seconds, raw seconds, its result)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        ref = reference_seconds()
        scale = REF_NOMINAL_S / (0.5 * (self.last_ref + ref))
        self.last_ref = ref
        self.refs.append(ref)
        return raw * scale, raw, result
