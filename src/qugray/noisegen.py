"""Stationary classical noise with target PSD S(f) = alpha1/f + alpha2*f.

Realizations are synthesized in the Fourier domain: independent complex
Gaussian coefficients with variance set by the PSD at each grid frequency,
Hermitian-symmetrized and inverse-transformed. This hits the target spectrum
exactly per bin and parallelizes trivially across realizations.

The 1/f divergence is regularized by clamping the PSD below f_min (default
1/T): a finite-duration run cannot resolve slower fluctuations anyway.

Streams are counter-based (Philox) keyed by (seed, channel, realization), so
generation order and worker count never change the samples, and any range of
realizations can be synthesized alone: `empirical_psd` walks the ensemble in
chunks and never holds all of it.
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


def synthesize(spec, seed, start=0, stop=None):
    """Draw realizations [start, stop) of every channel (default: all of
    them) as a NoiseRealizationSet, deterministic per seed. Each realization
    is the same bits whatever range it is drawn in."""
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
    for ch in range(spec.channels):
        for r in range(start, stop):
            rng = streams.noise_generator(seed, ch, r)
            z = rng.standard_normal(2 * half - 1)
            spectrum = np.zeros(half + 1, dtype=complex)
            spectrum[1:half] = amp[:-1] * (z[0:half - 1] + 1j * z[half - 1:2 * half - 2])
            spectrum[half] = amp[-1] * z[-1]  # Nyquist coefficient is real
            samples[ch, r - start] = np.fft.irfft(spectrum, n=M)
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
