"""Machine-speed calibration for timings taken on a shared host.

On a few cores of a shared machine the same work can take 1.5 times longer
from one minute to the next, because other tenants contend for the physical
cores, caches and memory bandwidth. Such slowdowns do not show as steal time
inside the guest, so a timing alone cannot tell a slower program from a
busier host.

`measure()` times a fixed mix of work that resembles the program's own:
batched eigendecompositions of small Hermitian matrices (the propagation
kernel), a Python loop of small matrix products (single closed
trajectories, the optimizer), Philox normals and inverse real FFTs (noise
synthesis), and a pass over an array larger than the last-level cache (the
full-scale ensemble). The benchmark measures the mix before and after every
timed stage and scales the stage's time by `REFERENCE_S` over the mean of
the two, giving the time the stage would take on a host where the mix takes
`REFERENCE_S`. The mix is benchmark code, so a change to the program moves
the stage time and leaves the calibration alone.
"""

import time

import numpy as np

REFERENCE_S = 0.030


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((200, 3, 3)) + \
            1j * rng.standard_normal((200, 3, 3))
        self._h = h + h.conj().swapaxes(-1, -2)
        self._small = (rng.standard_normal((3, 3)) +
                       1j * rng.standard_normal((3, 3))) / 3.0
        self._spectrum = rng.standard_normal(6626) + \
            1j * rng.standard_normal(6626)
        self._big = rng.standard_normal(1 << 22)  # 32 MiB
        self._out = np.empty_like(self._big)
        self.measure()  # first touch of every buffer

    def measure(self):
        """Seconds taken by one round of the fixed mix."""
        start = time.perf_counter()
        for _ in range(24):
            evals, evecs = np.linalg.eigh(self._h)
            np.einsum("...ij,...j,...kj->...ik", evecs,
                      np.exp(-1j * evals), evecs.conj())
        m = self._small
        for _ in range(8000):
            m = (m @ self._small) * 0.5
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(40):
            rng.standard_normal(13249)
            np.fft.irfft(self._spectrum, n=13250)
        for _ in range(4):
            np.multiply(self._big, 1.0001, out=self._out)
        return time.perf_counter() - start


def scaled(seconds, cal_before, cal_after):
    """`seconds` at the reference speed, from the calibrations around it."""
    return seconds * REFERENCE_S / (0.5 * (cal_before + cal_after))
