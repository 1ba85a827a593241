"""Independent reference for the simulated datasets.

Built from the model definition alone, sharing no propagation code with
qugray: its own drive waveform (Hanning envelopes on I/Q carriers), its own
Hamiltonian assembly

    H_k = diag(omega_j + g_j beta_j(t_k)) + f(t_k) (a^dag + a),

`scipy.linalg.expm` for every step exponential and a sequential
chronological product U = E_{M-1} ... E_1 E_0. Expectations average
<psi_r| A_i |psi_r> over realizations, with psi_r = U_r v for every
eigenvector v of every basis element A_j, in the dataset's
(j, eigenvector, i) order.

It is slow (one expm per step and realization), so the benchmark runs it on
a subsample of examples, outside the timed region.
"""

import numpy as np
import scipy.linalg


def drive(theta, d, n_max, scales, drive_freqs, total_time, steps):
    """f(t_k) on the left-endpoint grid t_k = k T / M."""
    amps = np.asarray(theta, dtype=float).reshape(d - 1, 2, n_max)
    t = np.arange(steps) * (total_time / steps)
    f = np.zeros(steps)
    for i in range(d - 1):
        env = np.zeros((2, steps))
        for n in range(1, n_max + 1):
            window = 0.5 * (1.0 - np.cos(2.0 * np.pi * n * t / total_time))
            env += amps[i, :, n - 1, None] * window
        phase = drive_freqs[i] * t
        f += scales[i] * (env[0] * np.cos(phase) + env[1] * np.sin(phase))
    return f


def propagators(omega, g, wave, noise, dt):
    """U_r for noise[r] of shape (M, d) (beta values per level), or the
    closed propagator when noise is None. Returns (K, d, d)."""
    d = len(omega)
    ladder = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    coupling = ladder + ladder.conj().T
    if noise is None:
        noise = np.zeros((1, len(wave), d))
    K = noise.shape[0]
    u = np.broadcast_to(np.eye(d, dtype=complex), (K, d, d)).copy()
    levels = np.asarray(omega, dtype=float)
    for k, f_k in enumerate(wave):
        h = np.zeros((K, d, d), dtype=complex)
        h[:, range(d), range(d)] = levels + noise[:, k, :] * np.asarray(g)
        h += f_k * coupling
        u = scipy.linalg.expm(-1j * dt * h) @ u
    return u


def expectations(u_stack, elements, eigenvectors):
    """Realization-averaged expectation vector in dataset ordering."""
    out = []
    for vecs in eigenvectors:
        for k in range(vecs.shape[1]):
            psi = u_stack @ vecs[:, k]
            for A in elements:
                vals = np.einsum("ra,ab,rb->r", psi.conj(), A, psi).real
                out.append(vals.mean())
    return np.array(out)


def example_expectations(cfg, theta, noise_samples=None):
    """Reference expectations for one pulse under a qugray SystemConfig;
    noise_samples is the ensemble (channels, K, M) or None for closed."""
    carrier = cfg.carrier
    wave = drive(theta, cfg.dim, cfg.n_max, carrier.scales,
                 carrier.drive_freqs, carrier.total_time, carrier.steps)
    noise = None if noise_samples is None else \
        np.transpose(noise_samples, (1, 2, 0))
    u = propagators(cfg.omega, cfg.g, wave, noise,
                    carrier.total_time / carrier.steps)
    basis = cfg.observable_basis()
    return expectations(u, basis.elements, basis.eigenvectors)
