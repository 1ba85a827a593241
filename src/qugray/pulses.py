"""Hanning-window pulse parameterization and I/Q carrier modulation.

A control parameter vector holds the amplitudes A[n, i, c] of n_max Hanning
harmonics per transition i (one I and one Q envelope each). The flattened
layout is i-major, channel I before Q, harmonic ascending; the graybox input
encoding and every dataset file rely on that order.

All angular frequencies are rad/s. Configuration values quoted in Hz are
converted (x 2 pi) at config-load time, never here.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfigError

CHANNELS = ("I", "Q")


@dataclass(frozen=True)
class PulseParams:
    """Hanning amplitudes, shape (n_max, d - 1, 2); [:, i, 0] is the in-phase
    envelope of transition i, [:, i, 1] the quadrature one."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # contiguous layout keeps downstream reductions bit-reproducible
        # whether params were built directly or via unflatten
        amps = np.ascontiguousarray(self.amplitudes, dtype=float)
        if self.dim < 2:
            raise InvalidConfigError(f"dim must be >= 2, got {self.dim}")
        if amps.ndim != 3 or amps.shape[1] != self.dim - 1 or amps.shape[2] != 2:
            raise InvalidConfigError(
                f"amplitudes must have shape (n_max, {self.dim - 1}, 2), got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self):
        return self.amplitudes.shape[0]

    def flatten(self):
        """i-major, I before Q, n ascending."""
        # (n, i, c) -> (i, c, n) then ravel
        return self.amplitudes.transpose(1, 2, 0).reshape(-1).copy()

    @classmethod
    def unflatten(cls, theta, d, n_max):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2 * (d - 1) * n_max,):
            raise InvalidConfigError(
                f"theta must have length {2 * (d - 1) * n_max}, got {theta.shape}")
        amps = theta.reshape(d - 1, 2, n_max).transpose(2, 0, 1)
        return cls(dim=d, amplitudes=amps)

    def scaled(self, factor):
        return PulseParams(self.dim, factor * self.amplitudes)


@dataclass(frozen=True)
class CarrierSpec:
    """Carrier scales Omega_i, drive frequencies (rad/s), duration and grid."""

    scales: tuple
    drive_freqs: tuple
    total_time: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(x) for x in self.scales))
        object.__setattr__(self, "drive_freqs",
                           tuple(float(x) for x in self.drive_freqs))
        if len(self.scales) != len(self.drive_freqs):
            raise InvalidConfigError("scales and drive_freqs lengths differ")
        if not np.isfinite(self.scales + self.drive_freqs
                           + (self.total_time,)).all():
            raise InvalidConfigError(
                f"scales {self.scales}, drive_freqs {self.drive_freqs} and "
                f"total_time {self.total_time} must be finite")
        if any(w <= 0 for w in self.drive_freqs):
            raise InvalidConfigError("drive frequencies must be positive")
        if self.total_time <= 0:
            raise InvalidConfigError("total_time must be positive")
        if self.steps < 2:
            raise InvalidConfigError("need at least 2 time steps")

    @property
    def dt(self):
        return self.total_time / self.steps

    def times(self):
        """Left-endpoint sample times t_k = k T / M."""
        return np.arange(self.steps) * self.dt


def max_amplitude(total_time, n_max=1, mode="total-envelope"):
    """Amplitude bound for the Hanning family.

    'per-coefficient': 2 pi / (n_max T), all coefficients equal at this value
    give an exact pi pulse area. 'total-envelope': 2 pi / T, the envelope
    bound, also the dataset sampling range.
    """
    if total_time <= 0:
        raise InvalidConfigError("total_time must be positive")
    if n_max < 1:
        raise InvalidConfigError("n_max must be >= 1")
    if mode == "per-coefficient":
        return 2.0 * np.pi / (n_max * total_time)
    if mode == "total-envelope":
        return 2.0 * np.pi / total_time
    raise InvalidConfigError(f"unknown amplitude mode {mode!r}")


def envelope(params, i, channel, t, total_time):
    """sum_n (A_n/2)(1 - cos(2 pi n t / T)); zero exactly at t = 0 and t = T."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0) or np.any(t_arr > total_time):
        raise DomainError("t outside [0, T]")
    c = CHANNELS.index(channel) if channel in CHANNELS else channel
    amps = params.amplitudes[:, i, c]
    n = np.arange(1, params.n_max + 1)
    phases = 2.0 * np.pi * np.outer(n, t_arr) / total_time
    out = np.tensordot(amps / 2.0, 1.0 - np.cos(phases), axes=1)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def _window(carrier, n_max):
    """Hanning harmonics 1 - cos(2 pi n t_k / T), shape (M, n_max)."""
    n = np.arange(1, n_max + 1)
    return 1.0 - np.cos(2.0 * np.pi * np.outer(carrier.times(), n)
                        / carrier.total_time)


@functools.lru_cache(maxsize=8)
def _basis(carrier, n_max):
    """The waveform of each unit pulse vector: shape (2 (d-1) n_max, M), rows
    in the flattened layout. Row (i, c, n) is
    Omega_i (1 - cos(2 pi n t / T)) / 2 times cos(w_Di t) (c = I) or
    sin(w_Di t) (c = Q). Read-only: it is shared between calls."""
    phases = np.outer(carrier.drive_freqs, carrier.times())
    carriers = np.stack([np.cos(phases), np.sin(phases)], axis=1)
    basis = (np.array(carrier.scales)[:, None, None, None]
             * carriers[:, :, None, :]
             * (_window(carrier, n_max).T / 2.0)[None, None])
    basis = basis.reshape(-1, carrier.steps)
    basis.flags.writeable = False
    return basis


def waveforms(thetas, carrier, n_max):
    """Modulated drives of a (B, L) stack of flattened pulse vectors on the
    left-endpoint grid, shape (B, M). Each row sums its L basis terms in
    layout order, elementwise, so a row's waveform is the same bits whatever
    else is in the stack."""
    basis = _basis(carrier, n_max)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != basis.shape[0]:
        raise InvalidConfigError(
            f"pulse stack must have shape (B, {basis.shape[0]}) for "
            f"{len(carrier.scales)} transitions and n_max = {n_max}, got "
            f"{thetas.shape}")
    out = thetas[:, :1] * basis[0]
    for term in range(1, basis.shape[0]):
        out += thetas[:, term:term + 1] * basis[term]
    return out


def waveform(params, carrier):
    """Modulated drive f(t_k) = sum_i Omega_i (f_I cos(w_Di t) + f_Q sin(w_Di t))
    on the left-endpoint grid, shape (M,)."""
    if params.dim - 1 != len(carrier.scales):
        raise InvalidConfigError(
            f"pulse has {params.dim - 1} transitions, carrier {len(carrier.scales)}")
    return waveforms(params.flatten()[None], carrier, params.n_max)[0]


def waveform_transpose(g_wave, carrier, n_max):
    """Adjoint of the linear map theta -> waveform: dL/dtheta in the flattened
    layout from dL/df on the grid, shape (M,)."""
    return _basis(carrier, n_max) @ np.asarray(g_wave, dtype=float)


def sample_random_params(d, n_max, a_max, seed):
    """Amplitudes i.i.d. uniform on [-a_max, a_max]; deterministic per seed."""
    if a_max <= 0:
        raise InvalidConfigError("a_max must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    amps = rng.uniform(-a_max, a_max, size=(n_max, d - 1, 2))
    return PulseParams(dim=d, amplitudes=amps)
