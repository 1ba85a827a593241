"""Pulse optimization against target gates and process-fidelity evaluation.

The cost is the squared mismatch, summed over the informationally complete
state/observable grid, between the ideal expectations of the target gate and
the model's predictions. Optimization is multi-start projected gradient
descent with central finite-difference gradients and a backtracking line
search; each restart is deterministic in (seed, restart index) and the best
restart wins with lowest-index tie-breaking, so results do not depend on how
many workers run them.
"""

import dataclasses
import json
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, fileio, noisegen, pulses, streams
from .algebra import choi_of_unitary, clock_shift_basis, embed_two_level, \
    expm_skew, process_fidelity
from .errors import InvalidConfigError, OptimizationFailure

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI["H"] = (_PAULI["X"] + _PAULI["Z"]) / np.sqrt(2.0)
# R: rotation by pi/4 about X, exp(-i (pi/4) X / 2)
_PAULI["R"] = expm_skew(_PAULI["X"], np.pi / 8.0)


@dataclass(frozen=True)
class TargetGate:
    name: str
    unitary: np.ndarray
    family: str  # "clock-shift" or "subspace"


def gate_vocabulary(d):
    """All named targets for dimension d: sigma_j_k over the clock-shift
    family plus {X,Y,Z,H,R}<pq> on every two-level subspace; d = 2 adds the
    bare aliases I, X, Y, Z, H, R."""
    _, _, sigma, _ = clock_shift_basis(d)
    vocab = {}
    for j in range(d):
        for k in range(d):
            name = f"sigma_{j}_{k}"
            vocab[name] = TargetGate(name, sigma[j][k], "clock-shift")
    for p in range(d):
        for q in range(p + 1, d):
            for sym, mat in _PAULI.items():
                name = f"{sym}{p}{q}"
                vocab[name] = TargetGate(name, embed_two_level(mat, p, q, d),
                                         "subspace")
    if d == 2:
        vocab["I"] = TargetGate("I", np.eye(2, dtype=complex), "clock-shift")
        for sym in _PAULI:
            vocab[sym] = TargetGate(sym, _PAULI[sym].copy(), "subspace")
    return vocab


def parse_gate(name, d):
    vocab = gate_vocabulary(d)
    if name not in vocab:
        raise InvalidConfigError(
            f"unknown gate {name!r} for d={d}; valid names: "
            + ", ".join(sorted(vocab)))
    return vocab[name]


def target_expectations(model, gate_unitary):
    """Ideal expectation vector tr(G rho G^H O) over the dataset grid."""
    G = np.asarray(gate_unitary, dtype=complex)
    return dynamics.expectations_from_propagators(G[None], model.basis)


def gate_cost(model, theta, gate_unitary, targets=None):
    """Sum of squared expectation mismatches (not averaged)."""
    if targets is None:
        targets = target_expectations(model, gate_unitary)
    pred = model.expectations(np.asarray(theta, dtype=float))
    return float(np.sum((pred - targets) ** 2))


@dataclass
class OptimizationResult:
    gate: str
    theta_star: np.ndarray
    cost: float
    cost_trace: list
    fidelity_closed: float = float("nan")
    fidelities: dict = field(default_factory=dict)
    restarts_used: int = 0
    iterations: int = 0
    seed: int = 0

    def to_dict(self):
        return {
            "gate": self.gate,
            "theta_star": list(map(float, self.theta_star)),
            "cost": self.cost,
            "cost_trace": list(map(float, self.cost_trace)),
            "fidelity_closed": self.fidelity_closed,
            "fidelities": self.fidelities,
            "restarts_used": self.restarts_used,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _fd_gradient(fun, theta, h):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = fun(theta)
        theta[i] = orig - h
        down = fun(theta)
        theta[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _descend(fun, theta0, bound, max_iters, cost_tol):
    """Projected gradient descent with backtracking; returns trace."""
    theta = np.clip(np.array(theta0, dtype=float), -bound, bound)
    cost = fun(theta)
    trace = [cost]
    step = 1e-3 * bound
    for _ in range(max_iters):
        if cost < cost_tol:
            break
        grad = _fd_gradient(fun, theta, 1e-6 * bound)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-12:
            break
        improved = False
        alpha = step
        for _ in range(30):
            cand = np.clip(theta - alpha * grad, -bound, bound)
            cand_cost = fun(cand)
            if cand_cost < cost - 1e-4 * alpha * gnorm ** 2:
                theta, cost = cand, cand_cost
                step = alpha * 1.8
                improved = True
                break
            alpha *= 0.5
        trace.append(cost)
        if not improved:
            break
    return theta, cost, trace


def _restart_job(args):
    model, targets, bound, seed, restart, max_iters, cost_tol = args
    L = 2 * (model.d - 1) * model.n_max
    # the zero pulse is a stationary point of the cost for diagonal drifts,
    # so every restart starts from a seeded random interior point
    rng = streams.generator(seed, streams.OPTIMIZER_RESTART, restart)
    theta0 = rng.uniform(-0.6 * bound, 0.6 * bound, size=L)
    def fun(th):
        pred = model.expectations(th)
        return float(np.sum((pred - targets) ** 2))
    theta, cost, trace = _descend(fun, theta0, bound, max_iters, cost_tol)
    return restart, cost, theta, trace


def optimize_gate(model, gate, restarts=5, seed=0, max_iters=200,
                  cost_tol=1e-10, workers=1):
    """Best-of-restarts minimization of the gate cost within the amplitude
    box. Deterministic per seed; ties break toward the lowest restart index.
    """
    if isinstance(gate, str):
        gate = parse_gate(gate, model.d)
    bound = model.config.a_max()
    targets = target_expectations(model, gate.unitary)
    jobs = [(model, targets, bound, seed, r, max_iters, cost_tol)
            for r in range(restarts)]
    if workers <= 1:
        outcomes = [_restart_job(j) for j in jobs]
    else:
        with multiprocessing.Pool(workers) as pool:
            outcomes = list(pool.imap(_restart_job, jobs))
    outcomes.sort(key=lambda t: (t[1], t[0]))
    finite = [o for o in outcomes if np.isfinite(o[1])]
    if not finite:
        best = outcomes[0]
        raise OptimizationFailure("every restart diverged",
                                  best_theta=best[2], best_cost=best[1])
    _, cost, theta, trace = finite[0]
    return OptimizationResult(gate=gate.name, theta_star=theta, cost=cost,
                              cost_trace=trace, restarts_used=restarts,
                              iterations=len(trace) - 1, seed=seed)


def evaluate_fidelity(config, theta, gate, real_set=None, k_eval=None):
    """Process fidelity of the simulated channel against the target.

    Closed configs use the single unitary U_0; noisy configs build the Choi
    matrix of the Monte-Carlo-averaged channel over the realization ensemble
    (k_eval overrides the ensemble size).
    """
    if isinstance(gate, str):
        gate = parse_gate(gate, config.dim)
    params = pulses.PulseParams.unflatten(np.asarray(theta, dtype=float),
                                          config.dim, config.n_max)
    if config.closed:
        u_stack = dynamics.propagate_closed(config, params)[None]
    else:
        if real_set is None:
            spec = config.noise
            if k_eval is not None and k_eval != spec.realizations:
                spec = dataclasses.replace(spec, realizations=k_eval)
            real_set = noisegen.synthesize(spec, seed=config.seed)
        u_stack = dynamics.propagate_ensemble(config, params, real_set)
    j_actual = dynamics.choi_of_propagators(u_stack)
    j_target = choi_of_unitary(gate.unitary)
    return process_fidelity(j_target, j_actual)


def save_result(result, path):
    with fileio.atomic_write(path) as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
