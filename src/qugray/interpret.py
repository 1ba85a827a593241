"""Local polynomial surrogates of the learned noise operators and the
physics-based control cost built from them.

The neighbourhood is amplitude scaling: the pulse theta is replaced by
eps * theta and the model's noise operators are sampled on an eps grid (no
propagation needed, the blackbox alone determines V). Each matrix element's
real and imaginary parts are fitted independently to a polynomial in eps and
reassembled into coefficient matrices; stored residuals bound the surrogate
error on the grid.

The cost J(eps) adds the closed-system gate infidelity at eps * theta to the
noise-sensitivity term N(eps) = sum_k ||V_k(eps) - I||_F, so J >= N >= 0 and
J = 0 exactly when noise is cancelled and the target is met.
"""

from dataclasses import dataclass

import numpy as np

from . import control, dynamics, fileio
from .errors import DomainError, InvalidConfigError

DEFAULT_GRID = np.linspace(-1.0, 1.0, 41)


@dataclass
class TaylorExpansion:
    observable_index: int
    order: int
    coefficients: list   # complex (d, d) arrays X_0 .. X_k
    residuals: np.ndarray  # (d, d) max abs fit error over the grid
    grid: np.ndarray

    def evaluate(self, eps):
        out = np.zeros_like(self.coefficients[0])
        for k, X in enumerate(self.coefficients):
            out = out + (eps ** k) * X
        return out

    def to_dict(self):
        return {
            "observable_index": self.observable_index,
            "order": self.order,
            "grid": [float(e) for e in self.grid],
            "residuals": self.residuals.tolist(),
            "coefficients": [
                [[[float(v.real), float(v.imag)] for v in row] for row in X]
                for X in self.coefficients
            ],
        }


def scan_epsilon(model, theta, grid=None):
    """Noise-operator samples V(eps) on the grid, shape (n_grid, n_obs, d, d).
    The scaled pulses eps * theta must stay inside the dataset sampling
    bound a_max (the model was trained there); DomainError otherwise."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    theta = np.asarray(theta, dtype=float)
    a_max = model.config.a_max()
    peak = np.abs(theta).max() * np.abs(grid).max()
    if peak > a_max * (1.0 + 1e-9):
        raise DomainError(
            f"scaled amplitudes reach {peak:.3g} > bound {a_max:.3g}")
    thetas = grid[:, None] * theta[None, :]
    return model.noise_operators(thetas)


def fit_taylor(samples, grid, order=2):
    """Least-squares polynomial fit per observable; returns TaylorExpansion
    objects in observable order."""
    grid = np.asarray(grid, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    if grid.ndim != 1 or samples.shape[0] != grid.size:
        raise InvalidConfigError("grid and samples disagree")
    if order < 0:
        raise InvalidConfigError("order must be >= 0")
    if grid.size < order + 2:
        raise DomainError(f"need at least {order + 2} grid points for order "
                          f"{order}")
    if np.unique(grid).size < order + 1:
        raise DomainError("repeated grid points make the fit rank-deficient")
    n_grid, n_obs, d, _ = samples.shape
    expansions = []
    for o in range(n_obs):
        flat = samples[:, o].reshape(n_grid, d * d)
        targets = np.concatenate([flat.real, flat.imag], axis=1)
        coef = np.polynomial.polynomial.polyfit(grid, targets, order)
        re, im = coef[:, :d * d], coef[:, d * d:]
        comp = (re + 1j * im).reshape(order + 1, d, d)
        fitted = np.polynomial.polynomial.polyval(grid, coef).T
        resid = np.abs((fitted[:, :d * d] + 1j * fitted[:, d * d:])
                       - flat).max(axis=0).reshape(d, d)
        expansions.append(TaylorExpansion(
            observable_index=o, order=order,
            coefficients=[comp[k] for k in range(order + 1)],
            residuals=resid, grid=grid.copy()))
    return expansions


def _sensitivity(vs):
    d = vs.shape[-1]
    eye = np.eye(d)
    return float(sum(np.linalg.norm(v - eye) for v in vs))


def gate_overlap_infidelity(config, theta, eps, gate_unitary):
    """1 - |tr(U^H G)|^2 / d^2 at the scaled pulse eps * theta, closed
    whitebox U. eps may be a 1-D array: the scaled pulses then propagate as
    one batch and the result is an array; each entry equals the scalar-eps
    value bit for bit."""
    eps_arr = np.asarray(eps, dtype=float)
    thetas = np.atleast_1d(eps_arr)[:, None] * np.asarray(theta, dtype=float)
    u = dynamics.propagate_closed_batch(config, thetas)
    overlaps = np.einsum("kab,ab->k", u.conj(), gate_unitary)
    infid = 1.0 - np.abs(overlaps) ** 2 / config.dim ** 2
    return infid if eps_arr.ndim else float(infid[0])


def noise_sensitivity_N(model_or_expansions, eps, theta=None):
    """sum_k ||V_k(eps) - I||_F from the model or fitted expansions."""
    if isinstance(model_or_expansions, list):
        vs = np.stack([e.evaluate(eps) for e in model_or_expansions])
    else:
        if theta is None:
            raise InvalidConfigError("theta required when sampling the model")
        vs = scan_epsilon(model_or_expansions, theta,
                          grid=np.array([eps]))[0]
    return _sensitivity(vs)


def control_cost_J(model_or_expansions, eps, theta, gate_unitary, config=None):
    """J(eps) = N(eps) + closed-gate infidelity term; mode records whether V
    came from raw model samples or fitted expansions."""
    if isinstance(model_or_expansions, list):
        n_term = noise_sensitivity_N(model_or_expansions, eps)
        mode = "expansion"
        if config is None:
            raise InvalidConfigError("config required with expansions")
    else:
        n_term = noise_sensitivity_N(model_or_expansions, eps, theta)
        mode = "model"
        config = model_or_expansions.config
    infid = gate_overlap_infidelity(config, theta, eps, gate_unitary)
    return {"J": n_term + infid, "N": n_term, "infidelity": infid,
            "mode": mode}


def landscape(model, thetas, gate, grid=None, pulse_ids=None,
              fid_epsilon=None, eval_config=None):
    """Sweep J and N over the grid for each pulse; the true process fidelity
    under eval_config (None: no fidelity) is evaluated at one designated grid
    point per pulse, all pulses in one call: the point nearest fid_epsilon,
    by default the grid argmin of J across the whole ensemble (mirroring how
    the sweep singles out a perturbation worth testing).

    Returns a list of row dicts: pulse_id, epsilon, J, N, fidelity (NaN off
    the designated eps).
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if isinstance(gate, str):
        gate = control.parse_gate(gate, model.d)
    thetas = np.asarray(thetas, dtype=float)
    pulse_ids = pulse_ids if pulse_ids is not None else list(range(len(thetas)))
    rows = []
    j_tables = []
    for pid, theta in zip(pulse_ids, thetas):
        vs = scan_epsilon(model, theta, grid=grid)
        n_vals = np.array([_sensitivity(v) for v in vs])
        j_vals = n_vals + gate_overlap_infidelity(model.config, theta, grid,
                                                  gate.unitary)
        j_tables.append(j_vals)
        for e, j, n in zip(grid, j_vals, n_vals):
            rows.append({"pulse_id": pid, "epsilon": float(e),
                         "J": float(j), "N": float(n),
                         "fidelity": float("nan")})
    if eval_config is not None:
        if fid_epsilon is None:
            flat_best = int(np.argmin([tab.min() for tab in j_tables]))
            eps_idx = int(np.argmin(j_tables[flat_best]))
        else:
            eps_idx = int(np.argmin(np.abs(grid - fid_epsilon)))
        fids = control.evaluate_fidelity(
            eval_config, grid[eps_idx] * thetas, gate)
        for row_block, fid in enumerate(fids):
            rows[row_block * grid.size + eps_idx]["fidelity"] = fid
    return rows


def rows_to_csv(rows, path):
    with fileio.atomic_write(path) as fh:
        fh.write("pulse_id,epsilon,J,N,fidelity\n")
        for row in rows:
            fh.write(f"{row['pulse_id']},{row['epsilon']!r},{row['J']!r},"
                     f"{row['N']!r},{row['fidelity']!r}\n")
