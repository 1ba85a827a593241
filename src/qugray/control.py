"""Pulse optimization against target gates and process-fidelity evaluation.

The cost is the squared mismatch, summed over the informationally complete
state/observable grid, between the ideal expectations of the target gate and
the model's predictions. Its gradient is exact: the model's reverse mode
(`cost_and_grad`) runs through the blackbox and, by adjoint propagation,
through U_0 (GRAPE; Khaneja et al., J. Magn. Reson. 172, 296 (2005)). The
U_0 part makes no LAPACK call: each step's derivative is a complex step
through the propagation kernel's own cos/sin polynomials, and the adjoint
cotangents come from a reverse sweep down the kernel's product tree.
Optimization is multi-start scipy L-BFGS-B inside the amplitude box, in
coordinates u = theta / a_max; each restart is deterministic in (seed, restart
index) and the best restart wins with lowest-index tie-breaking, so results
do not depend on how many workers run them.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, fileio, streams
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


def _restart_job(args):
    # imported here: scipy.optimize takes ~0.1-0.5 s to import, which every
    # command that does not optimize would otherwise pay at start-up
    from scipy.optimize import minimize
    model, targets, bound, seed, restart, max_iters = args
    L = 2 * (model.d - 1) * model.n_max
    # the zero pulse is a stationary point of the cost for diagonal drifts,
    # so every restart starts from a seeded random interior point
    rng = streams.generator(seed, streams.OPTIMIZER_RESTART, restart)
    u = rng.uniform(-0.6, 0.6, size=L)
    # L-BFGS-B runs in u = theta / bound: theta-space gradients scale as
    # 1 / bound (~1e-7 at full scale) and would pass its projected-gradient
    # test at once
    costs = []  # every evaluation, the first at the start point
    def fun(x):
        cost, grad = model.cost_and_grad(bound * x, targets)
        costs.append(cost)
        if not (np.isfinite(cost) and np.isfinite(grad).all()):
            # +inf is never accepted: the restart stops at its last finite
            # iterate, or with a non-finite cost if the start is non-finite
            return np.inf, np.zeros_like(x)
        return cost, bound * grad
    # the last evaluation before each iteration's callback is at the
    # accepted iterate, so the trace costs nothing extra
    accepted = []
    if max_iters > 0:
        u = minimize(fun, u, jac=True, method="L-BFGS-B",
                     bounds=[(-1.0, 1.0)] * L,
                     callback=lambda _: accepted.append(costs[-1]),
                     options={"maxiter": max_iters}).x
    else:
        fun(u)
    trace = costs[:1] + accepted
    return restart, trace[-1], bound * u, trace


def optimize_gate(model, gate, restarts=5, seed=0, max_iters=200, workers=1):
    """Best-of-restarts minimization of the gate cost within the amplitude
    box. Deterministic per seed; ties break toward the lowest restart index.
    """
    if restarts < 1:
        raise InvalidConfigError(f"need at least one restart, got {restarts}")
    if isinstance(gate, str):
        gate = parse_gate(gate, model.d)
    bound = model.config.a_max()
    targets = target_expectations(model, gate.unitary)
    jobs = [(model, targets, bound, seed, r, max_iters)
            for r in range(restarts)]
    if workers <= 1:
        outcomes = [_restart_job(j) for j in jobs]
    else:
        import multiprocessing  # only a pool needs it
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


def evaluate_fidelity(config, thetas, gate):
    """Process fidelities (a list of B floats) against the target of the
    channels of a (B, L) pulse stack: Choi matrices of the averages over
    dynamics.channel_propagators."""
    if isinstance(gate, str):
        gate = parse_gate(gate, config.dim)
    j_target = choi_of_unitary(gate.unitary)
    return [process_fidelity(j_target, dynamics.choi_of_propagators(u_stack))
            for u_stack in dynamics.channel_propagators(config, thetas)]


def save_result(result, path):
    with fileio.atomic_write(path) as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
