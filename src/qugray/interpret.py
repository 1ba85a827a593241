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
J = 0 exactly when noise is cancelled and the target is met. `cost_grid` is
the one place that computes it, on a whole pulse x eps grid at once.
"""

from dataclasses import dataclass

import numpy as np

from . import control, dynamics, fileio
from .algebra import trace_overlaps
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


def _scaled_pulses(config, thetas, grid):
    """The (P * G, L) stack of eps * theta, pulse-major. Each pulse's scaled
    amplitudes must stay inside the dataset sampling bound a_max (the model
    was trained there); DomainError otherwise."""
    a_max = config.a_max()
    for peak in np.abs(thetas).max(axis=1) * np.abs(grid).max():
        if peak > a_max * (1.0 + 1e-9):
            raise DomainError(
                f"scaled amplitudes reach {peak:.3g} > bound {a_max:.3g}")
    return (grid[None, :, None] * thetas[:, None, :]).reshape(
        -1, thetas.shape[1])


def scan_epsilon(model, theta, grid=None):
    """Noise-operator samples V(eps) of one pulse on the grid, shape
    (n_grid, n_obs, d, d); the amplitude bound as in _scaled_pulses."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    thetas = np.asarray(theta, dtype=float)[None]
    return model.noise_operators(_scaled_pulses(model.config, thetas, grid))


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


def gate_overlap_infidelity(config, scaled, gate_unitary):
    """1 - |tr(U^H G)|^2 / d^2 of the closed whitebox U for each row of a
    (B, L) stack of pulses, as one propagate_closed_batch call. A row's
    value is the same bits whatever else is in the stack."""
    u = dynamics.propagate_closed_batch(config, scaled)
    overlaps = trace_overlaps(u, gate_unitary)
    return 1.0 - np.abs(overlaps) ** 2 / config.dim ** 2


# Rows of one cost_grid block, rounded down to whole pulses (at least one):
# bounds the encoder's working set whatever the pulse count
_ROWS_PER_BLOCK = 256


def cost_grid(model, thetas, grid, gate_unitary):
    """J = N + infidelity on the whole pulse x eps grid, with N(eps) =
    sum_k ||V_k(eps) - I||_F from the model: dict of (P, G) arrays "J", "N"
    and "infidelity" for a (P, L) pulse stack. Each block of the scaled stack
    is one noise_operators and one gate_overlap_infidelity call."""
    grid = np.asarray(grid, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    scaled = _scaled_pulses(model.config, thetas, grid)
    rows = max(1, _ROWS_PER_BLOCK // grid.size) * grid.size
    n_vals, infid = np.empty((2, len(scaled)))
    eye = np.eye(model.d)
    for start in range(0, len(scaled), rows):
        block = scaled[start:start + rows]
        n_vals[start:start + rows] = np.linalg.norm(
            model.noise_operators(block) - eye, axis=(-2, -1)).sum(axis=-1)
        infid[start:start + rows] = gate_overlap_infidelity(
            model.config, block, gate_unitary)
    n_vals, infid = n_vals.reshape(-1, grid.size), infid.reshape(-1, grid.size)
    return {"J": n_vals + infid, "N": n_vals, "infidelity": infid}


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
    costs = cost_grid(model, thetas, grid, gate.unitary)
    j_table = costs["J"]
    rows = [{"pulse_id": pid, "epsilon": e, "J": j, "N": n,
             "fidelity": float("nan")}
            for pid, j_row, n_row in zip(pulse_ids, j_table.tolist(),
                                         costs["N"].tolist())
            for e, j, n in zip(grid.tolist(), j_row, n_row)]
    if eval_config is not None:
        if fid_epsilon is None:
            flat_best = int(np.argmin(j_table.min(axis=1)))
            eps_idx = int(np.argmin(j_table[flat_best]))
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
