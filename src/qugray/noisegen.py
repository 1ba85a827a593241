"""Stationary classical noise with target PSD S(f) = alpha1/f + alpha2*f.

Realizations are synthesized in the Fourier domain: independent complex
Gaussian coefficients with variance set by the PSD at each grid frequency,
Hermitian-symmetrized and inverse-transformed. This hits the target spectrum
exactly per bin and parallelizes trivially across realizations.

The 1/f divergence is regularized by clamping the PSD below f_min (default
1/T): a finite-duration run cannot resolve slower fluctuations anyway.

Streams are counter-based (Philox) keyed by (seed, channel, realization), so
generation order and worker count never change the samples.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import fileio, streams
from .errors import DatasetIOError, InvalidConfigError

_DUMP_MAGIC = b"QGNOISE1"


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
    """samples[channel, realization, step]; seed reproduces the set."""

    samples: np.ndarray
    seed: int
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


def synthesize(spec, seed):
    """Draw a NoiseRealizationSet matching spec, deterministic per seed."""
    M = spec.steps
    half = M // 2
    freqs = spec.grid_frequencies()
    target = spec.psd(freqs)
    df = 1.0 / spec.total_time
    # Coefficient scales chosen so Var(beta) = sum_m S(f_m) df (one-sided).
    amp = np.empty(half)
    amp[:-1] = (M / 2.0) * np.sqrt(target[:-1] * df)
    amp[-1] = M * np.sqrt(target[-1] * df)
    samples = np.zeros((spec.channels, spec.realizations, M))
    if spec.alpha1 == 0 and spec.alpha2 == 0:
        return NoiseRealizationSet(samples=samples, seed=seed,
                                   total_time=spec.total_time)
    for ch in range(spec.channels):
        for r in range(spec.realizations):
            rng = streams.noise_generator(seed, ch, r)
            z = rng.standard_normal(2 * half - 1)
            spectrum = np.zeros(half + 1, dtype=complex)
            spectrum[1:half] = amp[:-1] * (z[0:half - 1] + 1j * z[half - 1:2 * half - 2])
            spectrum[half] = amp[-1] * z[-1]  # Nyquist coefficient is real
            samples[ch, r] = np.fft.irfft(spectrum, n=M)
    return NoiseRealizationSet(samples=samples, seed=seed,
                               total_time=spec.total_time)


def empirical_psd(real_set, total_time=None):
    """Averaged periodogram, normalized so its expectation equals the
    synthesis target. Returns (frequencies, power[channel, bin])."""
    T = total_time if total_time is not None else real_set.total_time
    M = real_set.steps
    half = M // 2
    freqs = np.arange(1, half + 1) / T
    # one channel at a time: the spectra of the whole ensemble would double
    # its footprint (954 MB of samples at full scale)
    power = np.empty((real_set.channels, half))
    for ch, samples in enumerate(real_set.samples):
        spec = np.fft.rfft(samples, axis=-1)[:, 1:half + 1]
        periodogram = np.abs(spec) ** 2
        periodogram[:, :-1] *= 2.0 * T / (M * M)
        periodogram[:, -1] *= 1.0 * T / (M * M)
        power[ch] = periodogram.mean(axis=0)
    return freqs, power


def dump_realizations(real_set, path):
    """Binary dump: magic, version, channels, K, M (uint32 LE), T (float64 LE),
    then float64 LE samples in channel-major order."""
    with fileio.atomic_write(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<III", real_set.channels,
                             real_set.realizations, real_set.steps))
        fh.write(struct.pack("<d", real_set.total_time))
        fh.write(np.ascontiguousarray(real_set.samples, dtype="<f8").tobytes())


def load_realizations(path, seed=-1):
    try:
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _DUMP_MAGIC:
                raise DatasetIOError(f"{path}: not a noise dump (bad magic)")
            channels, K, M = struct.unpack("<III", fh.read(12))
            (T,) = struct.unpack("<d", fh.read(8))
            payload = np.frombuffer(fh.read(), dtype="<f8")
    except OSError as exc:
        raise DatasetIOError(f"cannot read noise dump: {exc}") from exc
    if payload.size != channels * K * M:
        raise DatasetIOError(f"{path}: truncated noise dump")
    samples = payload.reshape(channels, K, M).astype(float)
    return NoiseRealizationSet(samples=samples, seed=seed, total_time=T)
