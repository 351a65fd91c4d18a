"""Reference kernels that measure how fast the machine runs at the moment.

On the shared 2-core machine the benchmark was written on, the speed of the
same single-threaded code drifts by about +-20 % over tens of seconds to
minutes, with CPU time tracking wall time, so the median of a longer run does
not average the drift away.  The harness therefore times one of these fixed
kernels every ``INTERVAL`` seconds, inside operations too, and rescales each
operation's time by ``nominal / measured`` of the kernel around it: times
are reported in seconds at the reference speed.  The kernels use only NumPy,
SciPy and Python, never ``swarmeq``, so a change to the package moves the
operation's time and not the scale.

Each workload has the kernel closest to its own work: ``dense`` for the
dense-path solves, ``fft`` for the FFT path, ``sample`` for Monte-Carlo
sampling.  In sizing runs that timed a kernel once before each operation,
``dense`` cut the spread of ``powerlaw-sweep`` operation times over 5-second
windows from 10 % to 2 % and ``fft`` that of ``fft-grid`` from 23 % to 8 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

_rng = np.random.default_rng(20240917)
_MATRIX = _rng.random((1024, 1024))
_VECTOR = _rng.random(1024)
_SIGNAL = _rng.random(8192)
_FILTER = _rng.random(16383)
_LONG_SIGNAL = _rng.random(16384)


def _python_loop(n: int) -> None:
    table = {}
    for i in range(n):
        table[i] = str(i * i)


def _dense() -> None:
    for _ in range(10):
        _MATRIX @ _VECTOR
    for _ in range(10):
        np.fft.irfft(np.fft.rfft(_LONG_SIGNAL))
    _python_loop(5_000)


def _fft() -> None:
    for _ in range(8):
        _MATRIX @ _VECTOR
    for _ in range(4):
        fftconvolve(_SIGNAL, _FILTER, mode="same")
    for _ in range(10):
        np.log(np.exp(-_SIGNAL) + 1.0).sum()
    _python_loop(5_000)


def _sample() -> None:
    rng = np.random.default_rng(7)
    points = rng.standard_normal((50_000, 3))
    points *= (rng.random(50_000) ** (1.0 / 3.0) / np.linalg.norm(points, axis=1))[:, None]
    np.count_nonzero(np.all(np.abs(points) < 0.5, axis=1))
    _python_loop(5_000)


# (kernel, its median time in seconds on the reference machine)
KERNELS = {"dense": (_dense, 0.0100), "fft": (_fft, 0.0110), "sample": (_sample, 0.0110)}
INTERVAL = 0.25  # seconds between samples while sampling; about 4 % of the time


class Reference:
    """One kernel, its nominal time and the timings of it taken so far.

    Inside ``with reference:`` a SIGALRM handler times the kernel every
    ``INTERVAL`` seconds.  Python runs the handler between bytecodes of the
    main thread, so samples fall inside long operations too, on the same core
    at the same moment; ``busy`` gives the seconds of an interval the samples
    took, for the caller to subtract.  ``sample`` times the kernel directly.
    """

    def __init__(self, kind: str):
        self.kernel, self.nominal = KERNELS[kind]
        self.kernel()  # warm-up: first-call allocations and imports
        self.samples: list[tuple[float, float]] = []  # perf_counter (start, end)
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # an alarm during a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter()))
        self._sampling = False

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in samples."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.samples)

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over the median kernel time of the samples that overlap
        [t0, t1] widened by INTERVAL on each side; seconds measured in
        [t0, t1] times this are seconds at the reference speed."""
        near = [b - a for a, b in self.samples if b >= t0 - INTERVAL and a <= t1 + INTERVAL]
        return self.nominal / statistics.median(near)
