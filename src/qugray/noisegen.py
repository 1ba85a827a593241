"""Stationary classical noise with target PSD S(f) = alpha1/f + alpha2*f.

Realizations are synthesized in the Fourier domain: independent complex
Gaussian coefficients with variance set by the PSD at each grid frequency,
Hermitian-symmetrized and inverse-transformed. This hits the target spectrum
exactly per bin and parallelizes trivially across realizations.

The 1/f divergence is regularized by clamping the PSD below f_min (default
1/T): a finite-duration run cannot resolve slower fluctuations anyway.

Streams are counter-based (Philox): each channel has its own key, and each
realization its own counter block under it (`streams`), so generation order
and worker count never change the samples, and any range of realizations can
be synthesized alone: `empirical_psd` walks the ensemble in chunks and never
holds all of it. Within a range, `synthesize` works on blocks of
realizations of a bounded size: one generator whose counter is set per row,
one spectrum and one batched inverse FFT.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import InvalidConfigError


@dataclass(frozen=True)
class NoiseSpec:
    """PSD coefficients and ensemble geometry.

    alpha1: 1/f coefficient, alpha2: proportional coefficient, f_min: low
    frequency cutoff in Hz (None -> 1/T), channels: independent processes,
    realizations: ensemble size K, steps: samples M, total_time: T seconds.
    """

    alpha1: float
    alpha2: float
    channels: int
    realizations: int
    steps: int
    total_time: float
    f_min: float = None

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "total_time", "f_min"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise InvalidConfigError("PSD coefficients must be non-negative")
        if self.realizations < 1:
            raise InvalidConfigError("need at least one realization")
        if self.steps % 2 != 0 or self.steps < 16:
            raise InvalidConfigError("steps must be even and >= 16")
        if self.total_time <= 0:
            raise InvalidConfigError("total_time must be positive")
        if self.f_min is not None and self.f_min <= 0:
            raise InvalidConfigError("f_min must be positive")

    @property
    def cutoff(self):
        return self.f_min if self.f_min is not None else 1.0 / self.total_time

    def psd(self, f):
        """Target PSD with the low-frequency clamp applied."""
        f = np.maximum(np.asarray(f, dtype=float), self.cutoff)
        out = np.zeros_like(f)
        if self.alpha1 > 0:
            out += self.alpha1 / f
        if self.alpha2 > 0:
            out += self.alpha2 * f
        return out

    def grid_frequencies(self):
        """Positive FFT grid f_m = m / T, m = 1 .. M/2."""
        return np.arange(1, self.steps // 2 + 1) / self.total_time


@dataclass(frozen=True)
class NoiseRealizationSet:
    """samples[channel, realization, step] over total_time seconds."""

    samples: np.ndarray
    total_time: float

    @property
    def channels(self):
        return self.samples.shape[0]

    @property
    def realizations(self):
        return self.samples.shape[1]

    @property
    def steps(self):
        return self.samples.shape[2]


# samples (rows x steps) per block of `synthesize`: a block's normals and
# spectrum take ~16 bytes of scratch per sample, ~2 MB whatever the range
_BLOCK_SAMPLES = 2 ** 17


def _block_rows(steps):
    """Realizations per synthesis block, at least one."""
    return max(1, _BLOCK_SAMPLES // steps)


def synthesize(spec, seed, start=0, stop=None):
    """Draw realizations [start, stop) of every channel (default: all of
    them) as a NoiseRealizationSet, deterministic per seed. Each realization
    is the same bits whatever range it is drawn in.

    Realization r of channel ch draws its M - 1 normals from
    Philox(SeedSequence(entropy=seed, spawn_key=(ch,))).jumped(r): the
    channel's key with counter word 2 set to r. A block of realizations is
    built at a time: one generator whose counter is set per row, one
    spectrum and one inverse FFT written straight into the samples."""
    stop = spec.realizations if stop is None else stop
    if not 0 <= start <= stop <= spec.realizations:
        raise ValueError(f"realization range [{start}, {stop}) outside "
                         f"[0, {spec.realizations})")
    M = spec.steps
    half = M // 2
    freqs = spec.grid_frequencies()
    target = spec.psd(freqs)
    df = 1.0 / spec.total_time
    # Coefficient scales chosen so Var(beta) = sum_m S(f_m) df (one-sided).
    amp = np.empty(half)
    amp[:-1] = (M / 2.0) * np.sqrt(target[:-1] * df)
    amp[-1] = M * np.sqrt(target[-1] * df)
    samples = np.zeros((spec.channels, stop - start, M))
    if spec.alpha1 == 0 and spec.alpha2 == 0:
        return NoiseRealizationSet(samples=samples, total_time=spec.total_time)
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    # a new Philox's state has its buffer empty, so setting it with a
    # channel's key and a row's counter starts that realization's block
    state = bitgen.state
    counter = state["state"]["counter"]
    rows = min(_block_rows(M), max(1, stop - start))
    z = np.empty((rows, M - 1))
    spectrum = np.zeros((rows, half + 1), dtype=complex)
    for ch in range(spec.channels):
        state["state"]["key"] = streams.noise_key(seed, ch)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            n = hi - lo
            for i in range(n):
                counter[2] = lo + i
                bitgen.state = state
                rng.standard_normal(out=z[i])
            # real and imaginary parts of bins 1 .. M/2 - 1, then the real
            # Nyquist coefficient; bin 0 stays zero
            np.multiply(z[:n, :half - 1], amp[:-1],
                        out=spectrum.real[:n, 1:half])
            np.multiply(z[:n, half - 1:-1], amp[:-1],
                        out=spectrum.imag[:n, 1:half])
            np.multiply(z[:n, -1], amp[-1], out=spectrum.real[:n, half])
            np.fft.irfft(spectrum[:n], n=M, axis=-1,
                         out=samples[ch, lo - start:hi - start])
    return NoiseRealizationSet(samples=samples, total_time=spec.total_time)


# samples (channels x rows x steps) per chunk of `empirical_psd`: 8 MB of
# float64, so its footprint does not grow with the ensemble size K
_CHUNK_SAMPLES = 2 ** 20


def _chunk_rows(spec):
    """Realizations per chunk of `empirical_psd`, at least one."""
    return max(1, _CHUNK_SAMPLES // (spec.channels * spec.steps))


def _add_periodograms(total, real_set):
    """Add each realization's periodogram row to its channel's row of
    `total`, in realization order."""
    T = real_set.total_time
    M = real_set.steps
    half = M // 2
    for ch, samples in enumerate(real_set.samples):
        coeffs = np.fft.rfft(samples, axis=-1)[:, 1:half + 1]
        periodogram = np.abs(coeffs) ** 2
        periodogram[:, :-1] *= 2.0 * T / (M * M)
        periodogram[:, -1] *= 1.0 * T / (M * M)
        for row in periodogram:
            total[ch] += row


def empirical_psd(spec, seed):
    """Averaged periodogram of the ensemble `synthesize(spec, seed)` draws,
    normalized so its expectation equals the synthesis target. Returns
    (frequencies, power[channel, bin]).

    The ensemble is synthesized and transformed one chunk of realizations
    at a time, so memory holds one chunk whatever K is. Rows are summed in
    realization order, the order `mean(axis=0)` over the whole (K, M/2)
    periodogram adds them, so the result is the same bits."""
    half = spec.steps // 2
    total = np.zeros((spec.channels, half))
    step = _chunk_rows(spec)
    for start in range(0, spec.realizations, step):
        stop = min(start + step, spec.realizations)
        # no reference to a chunk outlives its call, so two never coexist
        _add_periodograms(total, synthesize(spec, seed, start, stop))
    return spec.grid_frequencies(), total / spec.realizations
