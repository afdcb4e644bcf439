"""Host speed, sampled while a block of work runs.

On a shared virtual machine the same single-threaded work takes more or
less CPU time from one phase of tens of seconds to the next, as other
guests load the physical core and its caches: one scoring call took 39-64
ms in 10 s bins of one recording. A run of the benchmark
lasts about as long as one such phase, so the phase, not the program, would
set most of the spread between runs.

`HostSpeed` times a fixed reference kernel (about 4.5 ms) when the block
starts, when it ends, and every `INTERVAL_S` CPU seconds in between (from a
SIGPROF timer), and scales the block's own CPU time, interval by interval,
to what it would have been at `REFERENCE_S` per kernel:

    scaled = sum over intervals of  program CPU seconds in the interval
                                    * REFERENCE_S / (mean kernel time of
                                                     the two samples around it)

The kernel is what the program mostly does, written without the program:
RBF kernel rows of a fixed 10 000 x 6 matrix (numpy matrix-vector products,
`exp` and `argmax`, called from a Python loop, as in SMO), then one dense
500 x 500 RBF Gram block (as in the Gram cache, the kernel-width heuristic
and scoring). Across host phases, the rows alone followed scoring well but
not the large-n fits, which lean on memory more; the block alone the
reverse; the two together followed both (see README.md).

The block's time is process CPU time, so it counts every thread. While a
SIGPROF timer runs, Linux reads that clock only to the scheduler tick (4 ms
on the reference host), which is too coarse for the kernel; the kernel is timed on its own
thread's clock, which keeps full resolution.

The kernel's own time is left out of the block's time. The kernel never
touches the program's state or any random stream, so outputs are the same
with and without it; the benchmark checks this through the output digests.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# CPU seconds one kernel takes on the reference host, a 2-core Intel Xeon VM
# with Python 3.11.7 and numpy 2.4.6 (see README.md): scaled times are
# seconds on that host.
REFERENCE_S = 0.0045
INTERVAL_S = 0.3

_X = np.sin(np.arange(60_000, dtype=np.float64).reshape(10_000, 6) * 0.37)
_SQ = np.einsum("ij,ij->i", _X, _X)
_BLOCK = _X[:500]
# Preallocated work arrays: a kernel that allocated its temporaries would
# time the allocator's state (mmap and page faults, or reuse), which the
# program's own large arrays change, instead of the host.
_ROW = np.empty(10_000)
_EXP = np.empty(10_000)
_GRAM = np.empty((500, 500))


def _kernel() -> float:
    total = 0.0
    for i in range(0, len(_X), 500):
        np.dot(_X, _X[i], out=_ROW)
        np.multiply(_ROW, -2.0, out=_ROW)
        np.add(_ROW, _SQ, out=_ROW)
        np.add(_ROW, _SQ[i], out=_ROW)
        np.maximum(_ROW, 0.0, out=_ROW)
        np.multiply(_ROW, -0.5, out=_ROW)
        np.exp(_ROW, out=_EXP)
        np.subtract(_EXP, _EXP[i], out=_ROW)
        np.abs(_ROW, out=_ROW)
        total += int(np.argmax(_ROW))
    np.dot(_BLOCK, _BLOCK.T, out=_GRAM)
    np.multiply(_GRAM, -2.0, out=_GRAM)
    np.add(_GRAM, _SQ[:500, None], out=_GRAM)
    np.add(_GRAM, _SQ[None, :500], out=_GRAM)
    np.maximum(_GRAM, 0.0, out=_GRAM)
    np.multiply(_GRAM, -0.5, out=_GRAM)
    np.exp(_GRAM, out=_GRAM)
    return total + float(_GRAM.sum())


def _kernel_s() -> float:
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def speed_now() -> float:
    """Reference kernel time over this host's, from the median of 9 samples."""
    _kernel()
    return REFERENCE_S / statistics.median(_kernel_s() for _ in range(9))


class HostSpeed:
    """Context manager: `scaled_s`, `cpu_s` and `samples` once it exits."""

    def __enter__(self) -> HostSpeed:
        self.intervals: list[float] = []  # program CPU seconds before each sample
        self.kernel_s: list[float] = []
        self._last = time.process_time()
        self._sample()
        self._handler = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        self._sample()

    def _on_timer(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        start = time.process_time()
        _kernel()  # warm-up: refill the caches the program has just used
        self.kernel_s.append(_kernel_s())
        self.intervals.append(start - self._last)
        self._last = time.process_time()

    @property
    def samples(self) -> int:
        return len(self.kernel_s)

    @property
    def cpu_s(self) -> float:
        """The block's CPU seconds, without the kernels."""
        return sum(self.intervals)

    @property
    def scaled_s(self) -> float:
        """The block's CPU seconds at the reference host's speed."""
        return sum(
            interval * REFERENCE_S / ((before + after) / 2.0)
            for interval, before, after in zip(
                self.intervals[1:], self.kernel_s, self.kernel_s[1:]
            )
        )
