"""Shared fixtures: small, fast system configs for module tests.

Acceptance tests (test_acceptance.py) build the full desk-scale artifacts;
everything here is deliberately smaller so module suites stay quick.
"""

import numpy as np
import pytest

from qugray import dynamics, noisegen, pulses, streams

# anharmonic ladder levels and drives; d = 2, 3 take the leading entries
LADDER_OMEGA = (0.0, 700.0, 1373.7, 2020.8)
LADDER_DRIVE = (705.25, 677.67, 650.5)
DESK_ALPHA = (3.8e-3, 7.8e-6)
STRONG_G3 = (0.0, 13.7, 14.9455)


def make_config(d=3, steps=240, realizations=16, g=None, seed=5, total_time=1.0,
                n_max=10, alpha=DESK_ALPHA):
    omega = LADDER_OMEGA[:d]
    drive = LADDER_DRIVE[:d - 1]
    if g is None:
        g = (0.0,) * d
    carrier = pulses.CarrierSpec(scales=(2.0,) * (d - 1), drive_freqs=drive,
                                 total_time=total_time, steps=steps)
    noise = noisegen.NoiseSpec(alpha1=alpha[0], alpha2=alpha[1], channels=d,
                               realizations=realizations, steps=steps,
                               total_time=total_time)
    return dynamics.SystemConfig(dim=d, omega=omega, carrier=carrier, g=g,
                                 noise=noise, seed=seed, n_max=n_max)


@pytest.fixture(scope="session")
def closed3():
    return make_config(d=3)


@pytest.fixture(scope="session")
def noisy3():
    return make_config(d=3, g=STRONG_G3)


@pytest.fixture(scope="session")
def noisy3_realizations(noisy3):
    return dynamics.synthesize_noise(noisy3)


@pytest.fixture(scope="session")
def random_params3(closed3):
    return pulses.sample_random_params(3, closed3.n_max, closed3.a_max(),
                                       seed=11)


@pytest.fixture(scope="session")
def basis3(closed3):
    return closed3.observable_basis()


def random_density(d, rng):
    """Random full-rank density matrix."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def gate_cost(model, theta, targets):
    """Sum of squared mismatches between the model's expectations for one
    pulse and `targets` (not averaged): the cost `cost_and_grad` returns."""
    pred = model.expectations(np.asarray(theta, dtype=float))
    return float(np.sum((pred - targets) ** 2))


def finite_difference_check(model, thetas, targets, sigmas, n_weights=20,
                            step=1e-5, seed=0):
    """Compare analytic gradients against central differences on a sample of
    weights; returns the worst relative error."""
    _, grads = model.loss_and_grad(thetas, targets, sigmas)
    rng = streams.generator(seed, streams.GRADIENT_CHECK)
    names = model.weight_names()
    worst = 0.0
    for _ in range(n_weights):
        name = names[rng.integers(len(names))]
        arr = model.weights[name]
        flat_idx = int(rng.integers(arr.size))
        idx = np.unravel_index(flat_idx, arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        up = model.loss(thetas, targets, sigmas)
        arr[idx] = orig - step
        down = model.loss(thetas, targets, sigmas)
        arr[idx] = orig
        fd = (up - down) / (2 * step)
        an = grads[name][idx]
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return float(worst)
