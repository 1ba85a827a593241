"""Shared fixtures: small, fast system configs for module tests.

Acceptance tests (test_acceptance.py) build the full desk-scale artifacts;
everything here is deliberately smaller so module suites stay quick.
"""

import numpy as np
import pytest

from qugray import algebra, dynamics, noisegen, pulses, streams
from qugray.errors import ContractViolationError

# anharmonic ladder levels and drives; d = 2, 3 take the leading entries
LADDER_OMEGA = (0.0, 700.0, 1373.7, 2020.8)
LADDER_DRIVE = (705.25, 677.67, 650.5)
DESK_ALPHA = (3.8e-3, 7.8e-6)
STRONG_G3 = (0.0, 13.7, 14.9455)
# domain of the finite-difference probe's stream, beside the package's own
# domains in `streams`
GRADIENT_CHECK = 5


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
    rng = streams.generator(seed, GRADIENT_CHECK)
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


# The Choi-matrix definition of the process fidelity: the oracle for
# control.evaluate_fidelity, which uses its closed form for unitary targets.

def choi_of_unitary(U):
    """Trace-1 Choi matrix (1/d) sum_ij U|i><j|U^H (x) |i><j| of a unitary
    channel; equals the rank-1 projector onto vec(U)/sqrt(d)."""
    U = algebra.check_unitary(U, name="U")
    v = U.reshape(-1)
    return np.outer(v, v.conj()) / U.shape[0]


def choi_of_propagators(u_stack):
    """Trace-1 Choi matrix of rho -> mean_r U_r rho U_r^H."""
    d = u_stack.shape[-1]
    vecs = u_stack.reshape(u_stack.shape[0], -1)
    return np.einsum("ra,rb->ab", vecs, vecs.conj()) / (d * u_stack.shape[0])


def _psd_sqrt(J, clip=-1e-10):
    evals, evecs = np.linalg.eigh(J)
    if evals.min() < clip:
        raise ContractViolationError(
            f"matrix has eigenvalue {evals.min():.3e} below PSD tolerance")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def process_fidelity(J_target, J_actual):
    """tr sqrt( sqrt(J_t) J_a sqrt(J_t) ) for trace-1 Choi matrices.

    No outer square; identical channels give exactly 1. Tiny negative
    eigenvalues (>= -1e-10) are clamped to zero before the square roots.
    """
    J_target = np.asarray(J_target, dtype=complex)
    J_actual = np.asarray(J_actual, dtype=complex)
    if J_target.shape != J_actual.shape:
        raise ContractViolationError("Choi matrices must share a dimension")
    for name, J in (("J_target", J_target), ("J_actual", J_actual)):
        if abs(np.trace(J) - 1.0) > 1e-6:
            raise ContractViolationError(
                f"{name} trace deviates from 1 by > 1e-6")
    # tr sqrt(sqrt(Jt) Ja sqrt(Jt)) equals the nuclear norm of
    # sqrt(Jt) sqrt(Ja); the SVD form avoids sqrt-amplified rounding noise
    # on rank-deficient inputs.
    prod = _psd_sqrt(J_target) @ _psd_sqrt(J_actual)
    return float(np.linalg.svd(prod, compute_uv=False).sum())
