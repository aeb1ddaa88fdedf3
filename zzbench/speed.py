"""Host-speed probe: a fixed micro-kernel timed every few tens of milliseconds.

The shared host this benchmark runs on changes speed by up to a factor of
two, in phases that last from well under a second to minutes, so raw wall
times of the same code spread by 20-40 % from run to run.  `SpeedProbe`
times a fixed kernel from a SIGALRM handler in the measured process itself,
every `PERIOD_S`, so the samples fall evenly in wall time throughout the
measured code.  The kernel is a miniature of the workload's hot path, built
on the same numpy/scipy calls but on none of zzkit: small complex mat-vecs
in a Python loop for the ODE workloads, dense and tridiagonal eigensolves
for the spectrum workloads (`KERNELS`).  Each sample runs the kernel once
to warm it, so that the cache state left by the interrupted code does not
enter, then times one run.  `corrected(start, end)` rescales a wall interval
to the speed at which the kernel takes its `REFERENCE_S`:

    corrected = (end - start) * REFERENCE_S / mean(kernel time in [start, end])

With samples evenly spaced in time, the mean kernel time is the interval's
average slowness, so a pass that spends part of its time in a slow phase is
corrected by that share.  Samples more than `OUTLIER` times the interval's
median (a garbage collection or a page fault landed in them) are clipped.
A change to zzkit moves the corrected time as it moves the wall time.  The
handler runs between bytecodes of the main thread and costs 1-2 % of the
wall time, which stays in the measured interval.  zzkit runs its work in
the main thread at the CLI defaults; a change that moved it to other
threads would share the interpreter with the handler.
"""

import signal
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

PERIOD_S = 0.025
MIN_SAMPLES = 8
OUTLIER = 3.0           # samples above this many times the interval's median are clipped

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_H = (_A + _A.conj().T) / 2                     # dynamics: small mat-vecs in a Python loop
_M = _rng.normal(size=(20, 20))
_M = _M + _M.T                                  # spectrum: a small dense eigensolve
_D = 8.0 * np.arange(-20.0, 21.0) ** 2          # circuit: lowest levels of a charge-basis
_E = np.full(40, -25.0)                         # transmon, tridiagonal

# Kernel mixes, as (mat-vec steps, dense eigensolves, tridiagonal eigensolves),
# each a miniature of the hot path of the workloads it corrects: the host's
# slow phases slow the interpreter-bound right-hand sides of the ODE solvers
# more than they slow the LAPACK-bound eigensolves.
KERNELS = {"spectral": (2, 1, 1), "dynamics": (20, 0, 0)}
# each mix's warm time in a fast phase of the reference host (2-core x86-64 VM)
REFERENCE_S = {"spectral": 1.3e-4, "dynamics": 5e-5}


def kernel(mix):
    steps, dense, tridiagonal = KERNELS[mix]
    y = np.zeros(9, complex)
    y[0] = 1.0
    acc = 0.0
    for k in range(steps):
        y = y - 1e-3j * (_H @ y)
        acc += float(abs(y[k % 9]))
    for _ in range(dense):
        acc += float(np.linalg.eigh(_M)[0][0])
    for _ in range(tridiagonal):
        acc += float(eigh_tridiagonal(_D, _E, eigvals_only=True, select="i",
                                      select_range=(0, 3))[0])
    return acc


def sample(mix):
    """Kernel seconds, warm: one untimed run first, so that the cache state left
    by the interrupted code does not enter."""
    kernel(mix)
    start = time.perf_counter()
    kernel(mix)
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self, mix):
        self.mix = mix
        self.samples = []       # (start, kernel seconds)

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), sample(self.mix)))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def corrected(self, start, end):
        """Wall seconds of [start, end] rescaled to the reference kernel speed."""
        times = np.array([t for t, _ in self.samples])
        kernel_s = np.array([dt for _, dt in self.samples])
        inside = kernel_s[(times >= start) & (times <= end)]
        if len(inside) < MIN_SAMPLES:
            # a short interval takes the samples nearest to it
            if len(kernel_s) < MIN_SAMPLES:
                raise RuntimeError(f"only {len(kernel_s)} speed samples were taken")
            nearest = np.argsort(np.abs(times - 0.5 * (start + end)))[:MIN_SAMPLES]
            inside = kernel_s[nearest]
        # a sample that a garbage collection or a page fault landed in says
        # nothing about the host's speed
        inside = np.minimum(inside, OUTLIER * np.median(inside))
        return (end - start) * REFERENCE_S[self.mix] / float(np.mean(inside))
