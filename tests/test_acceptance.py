"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line each (run with -v -s to watch).

Heavy artifacts, the desk-scale qutrit datasets (1024 examples, M = 1000,
K = 200), the two trained models, and the optimized pulses, are built once
per session and shared. Budget the full suite roughly half an hour on two
cores.
"""

import time

import numpy as np
import pytest

from conftest import finite_difference_check
from qugray import (algebra, cli, config, control, dynamics, graybox,
                    interpret, noisegen, noiseop, pulses)

DESK_EXAMPLES = 1024
TRAIN_ITERS = 1000


def report(num, elapsed, detail):
    print(f"\n[criterion {num:>2}] PASS ({elapsed:6.1f} s): {detail}")


# ---------------------------------------------------------------------------
# shared desk-scale artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_closed_cfg():
    cfg, _ = config.load_config("qutrit_desk_closed")
    return cfg


@pytest.fixture(scope="session")
def desk_weak_cfg():
    cfg, _ = config.load_config("qutrit_desk_weak")
    return cfg


@pytest.fixture(scope="session")
def desk_strong_cfg():
    cfg, _ = config.load_config("qutrit_desk_strong")
    return cfg


@pytest.fixture(scope="session")
def closed_dataset(desk_closed_cfg):
    return dynamics.generate_dataset(desk_closed_cfg, DESK_EXAMPLES, seed=0,
                                     workers=2)


@pytest.fixture(scope="session")
def strong_dataset(desk_strong_cfg):
    return dynamics.generate_dataset(desk_strong_cfg, DESK_EXAMPLES, seed=0,
                                     workers=2)


@pytest.fixture(scope="session")
def closed_model(desk_closed_cfg, closed_dataset):
    examples, manifest = closed_dataset
    model = graybox.GrayboxModel(desk_closed_cfg, seed=0)
    hyper = graybox.TrainingHyper(iterations=TRAIN_ITERS, seed=0)
    record = model.train(examples, manifest, hyper)
    return model, record

@pytest.fixture(scope="session")
def strong_model(desk_strong_cfg, strong_dataset):
    examples, manifest = strong_dataset
    model = graybox.GrayboxModel(desk_strong_cfg, seed=0)
    hyper = graybox.TrainingHyper(iterations=TRAIN_ITERS, seed=0)
    record = model.train(examples, manifest, hyper)
    return model, record


@pytest.fixture(scope="session")
def optimized_gates(closed_model):
    model, _ = closed_model
    results = {}
    for gate in ("sigma_1_0", "X01"):
        results[gate] = control.optimize_gate(model, gate, restarts=3, seed=0,
                                              max_iters=220, workers=2)
    return results


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_operator_algebra():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        basis = algebra.gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for A in basis.elements:
            assert abs(np.trace(A)) <= 1e-12
        gram = np.array([[np.trace(A @ B) for B in basis.elements]
                         for A in basis.elements])
        assert np.abs(gram - 2.0 * np.eye(d * d - 1)).max() <= 1e-12
        shift, clock, _, _ = algebra.clock_shift_basis(d)
        omega = np.exp(2j * np.pi / d)
        assert np.abs(shift @ clock - omega * clock @ shift).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(shift, d) - np.eye(d)).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(clock, d) - np.eye(d)).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, "Gell-Mann + clock-shift relations exact for d=2..5")


def test_criterion_02_pulse_area():
    from scipy.integrate import quad
    start = time.perf_counter()
    T, n_max = 0.25e-6, 10
    amp = pulses.max_amplitude(T, n_max, mode="per-coefficient")
    params = pulses.PulseParams(2, np.full((n_max, 1, 2), amp))
    area, quad_err = quad(lambda t: pulses.envelope(params, 0, "I", t, T),
                          0.0, T, limit=500, epsabs=1e-13, epsrel=1e-13)
    assert quad_err < 1e-9
    assert abs(area - np.pi) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, elapsed, f"envelope area pi to {abs(area - np.pi):.2e}")


def test_criterion_03_noise_psd():
    start = time.perf_counter()
    spec = noisegen.NoiseSpec(alpha1=1e9, alpha2=1e-9, channels=3,
                              realizations=1000, steps=4096,
                              total_time=2.56e-7)
    freqs, power = noisegen.empirical_psd(spec, seed=0)
    mean_power = power.mean(axis=0)
    target = spec.psd(freqs)
    crossover = np.sqrt(spec.alpha1 / spec.alpha2)
    assert abs(crossover - 1e9) < 1.0
    band = (freqs >= crossover / np.sqrt(10)) & (freqs <= crossover * np.sqrt(10))
    rel = np.abs(mean_power[band] - target[band]) / target[band]
    assert rel.max() < 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, elapsed, f"{band.sum()} bins around 1 GHz within "
                       f"{rel.max() * 100:.1f}% (cap 10%)")


def test_criterion_04_oracle_suite(desk_closed_cfg, desk_strong_cfg):
    start = time.perf_counter()
    basis = desk_closed_cfg.observable_basis()
    shifts = [noiseop.shift_observable(A) for A in basis.elements]
    # closed system: V_O = I to 1e-10 for all 8 observables x 20 pulses
    worst_closed = 0.0
    for seed in range(20):
        params = pulses.sample_random_params(3, desk_closed_cfg.n_max,
                                             desk_closed_cfg.a_max(), seed)
        for sh in shifts:
            V = dynamics.oracle_noise_operator(desk_closed_cfg, params,
                                               sh.shifted)
            worst_closed = max(worst_closed,
                               np.linalg.norm(V - np.eye(3)))
    assert worst_closed < 1e-10
    # noisy: W Hermitian and the expectation identity to 1e-10
    real_set = dynamics.synthesize_noise(desk_strong_cfg)
    rng = np.random.default_rng(0)
    worst_herm = 0.0
    worst_identity = 0.0
    for seed in (3, 4):
        params = pulses.sample_random_params(3, desk_strong_cfg.n_max,
                                             desk_strong_cfg.a_max(), seed)
        u0 = dynamics.propagate_closed(desk_strong_cfg, params)
        u_stack = dynamics.propagate_ensemble(desk_strong_cfg, params,
                                              real_set)
        for sh in shifts:
            V = dynamics.oracle_noise_operator(desk_strong_cfg, params,
                                               sh.shifted)
            W = sh.shifted @ V
            worst_herm = max(worst_herm, np.abs(W - W.conj().T).max())
        for _ in range(10):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            O = A + A.conj().T + 4.0 * np.eye(3)
            rho_vec = rng.dirichlet(np.ones(3))
            rho = np.diag(rho_vec).astype(complex)
            V = dynamics.oracle_noise_operator(desk_strong_cfg, params, O)
            lhs = np.trace(V @ u0 @ rho @ u0.conj().T @ O).real
            rhs = np.mean([np.trace(O @ U @ rho @ U.conj().T).real
                           for U in u_stack])
            worst_identity = max(worst_identity, abs(lhs - rhs))
    assert worst_herm < 1e-10
    assert worst_identity < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, elapsed, f"closed |V-I| {worst_closed:.1e}; Hermiticity "
                       f"{worst_herm:.1e}; identity {worst_identity:.1e}")


def test_criterion_05_parameterization():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_eig, worst_tr = 0.0, 0.0
    for _ in range(100_000):
        d = int(rng.integers(2, 6))
        p = rng.uniform(0, 1, d)
        p /= p.sum()
        x = rng.uniform(-1, 1, d)
        evals = d * p * x  # spectrum of W by construction
        worst_eig = max(worst_eig, np.abs(evals).max() / d)
        worst_tr = max(worst_tr, abs(evals.sum()) / d)
    assert worst_eig <= 1.0 + 1e-12 and worst_tr <= 1.0 + 1e-12
    # explicit matrix check on a subsample plus the round-trip oracle
    worst_matrix = 0.0
    worst_rt = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 6))
        m = d * (d - 1) // 2
        prm = noiseop.NoiseOperatorParams(
            dim=d, r=rng.uniform(0, 1, m), theta=rng.uniform(0, 2 * np.pi, m),
            psi=rng.uniform(0, 2 * np.pi, m), x=rng.uniform(-1, 1, d),
            p=(lambda v: v / v.sum())(rng.uniform(0, 1, d)))
        W = noiseop.build_W(prm)
        evals = np.linalg.eigvalsh(W)
        worst_matrix = max(worst_matrix, np.abs(W - W.conj().T).max(),
                           np.abs(evals).max() - d, abs(evals.sum()) - d)
        back = noiseop.build_W(noiseop.extract_params(W))
        worst_rt = max(worst_rt, np.abs(back - W).max())
    assert worst_matrix <= 1e-9
    assert worst_rt < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, elapsed, f"1e5 draws within constraints; 1e3 round-trips "
                       f"max {worst_rt:.1e}")


def test_criterion_06_generalization_identity(desk_strong_cfg):
    start = time.perf_counter()
    basis = desk_strong_cfg.observable_basis()
    real_set = dynamics.synthesize_noise(desk_strong_cfg)
    params = pulses.sample_random_params(3, desk_strong_cfg.n_max,
                                         desk_strong_cfg.a_max(), 7)
    table = dynamics.monte_carlo_expectations(desk_strong_cfg, params)
    u_stack = dynamics.propagate_ensemble(desk_strong_cfg, params, real_set)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        O = A + A.conj().T
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = B @ B.conj().T
        rho /= np.trace(rho).real
        assembled = dynamics.assemble_expectation(table, basis, rho, O)
        direct = np.mean([np.trace(O @ U @ rho @ U.conj().T).real
                          for U in u_stack])
        worst = max(worst, abs(assembled - direct))
    assert worst < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, elapsed, f"50 assembled (rho, O) pairs match direct MC to "
                       f"{worst:.1e}")


def test_criterion_07_graybox_training(closed_model, strong_model,
                                       closed_dataset, desk_closed_cfg):
    start = time.perf_counter()
    cm, cr = closed_model
    sm, sr = strong_model
    assert cr.test_mse[-1] < 1e-3
    assert sr.test_mse[-1] < 1e-2
    # smoothed (window 50) training curve is non-increasing up to SGD jitter:
    # it ends at its low, never drifts above 3x its running minimum, and
    # decreases by orders of magnitude overall
    smooth = np.convolve(cr.train_mse, np.ones(50) / 50.0, mode="valid")
    running_min = np.minimum.accumulate(smooth)
    assert (smooth <= 3.0 * running_min + 1e-12).all()
    assert smooth[-1] <= 1.1 * smooth.min()
    assert smooth[-1] < 0.05 * smooth[0]
    # exact-gradient check against central differences at a generic weight
    # point (a converged model's gradients sit at the FD noise floor, which
    # would test round-off rather than the derivation)
    examples, manifest = closed_dataset
    probe = graybox.GrayboxModel(desk_closed_cfg, seed=1)
    thetas = np.stack([ex.theta for ex in examples[:4]])
    # O(1) residuals; at the identity-prior initialisation the saturated
    # head sigmoids still leave some derivatives near 1e-9, which the
    # extended-precision loss lets a 1e-5 central difference resolve
    rng = np.random.default_rng(0)
    targets = rng.uniform(-1.0, 1.0, size=(4, 192))
    sigmas = probe.precompute_states(thetas)
    fd_err = finite_difference_check(probe, thetas, targets, sigmas,
                                     n_weights=20, step=1e-5, seed=0)
    assert fd_err < 1e-4
    elapsed = time.perf_counter() - start
    report(7, elapsed, f"closed test MSE {cr.test_mse[-1]:.2e} (<1e-3), "
                       f"strong {sr.test_mse[-1]:.2e} (<1e-2), "
                       f"FD gradient err {fd_err:.1e}")


def test_criterion_08_gate_optimization(optimized_gates, desk_closed_cfg,
                                        desk_weak_cfg, desk_strong_cfg):
    start = time.perf_counter()
    details = []
    for gate, res in optimized_gates.items():
        infid = {}
        for label, cfg in (("closed", desk_closed_cfg),
                           ("weak", desk_weak_cfg),
                           ("strong", desk_strong_cfg)):
            (fid,) = control.evaluate_fidelity(cfg, [res.theta_star], gate)
            infid[label] = 1.0 - fid
        assert infid["closed"] < 1e-2, (gate, infid)
        assert infid["closed"] <= infid["weak"] + 1e-9, (gate, infid)
        assert infid["weak"] <= infid["strong"] + 1e-9, (gate, infid)
        details.append(f"{gate}: closed {infid['closed']:.1e}, "
                       f"weak {infid['weak']:.1e}, strong {infid['strong']:.1e}")
    elapsed = time.perf_counter() - start
    report(8, elapsed, "; ".join(details))


def test_criterion_09_interpretability(closed_model, strong_model,
                                       optimized_gates, desk_closed_cfg,
                                       strong_dataset):
    start = time.perf_counter()
    model, _ = closed_model
    # quadratic oracle recovery
    rng = np.random.default_rng(3)
    A, B, C = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(3))
    grid = np.linspace(-1, 1, 11)
    synth = np.stack([(A + e * B + e * e * C)[None] for e in grid])
    (exp_fit,) = interpret.fit_taylor(synth, grid, order=2)
    for X, ref in zip(exp_fit.coefficients, (A, B, C)):
        assert np.abs(X - ref).max() <= 1e-10
    # eps = 0 universality over 20 pulses, and closed-system coefficients
    examples, _ = strong_dataset
    grid = interpret.DEFAULT_GRID
    x0_stack = []
    bound = 0.0
    norms_high = []
    for ex in examples[:20]:
        samples = interpret.scan_epsilon(model, ex.theta, grid=grid)
        exps = interpret.fit_taylor(samples, grid, order=2)
        x0_stack.append(np.stack([e.coefficients[0] for e in exps]))
        bound = max(bound, max(float(e.residuals.max()) for e in exps))
        norms_high.extend([np.linalg.norm(e.coefficients[1]) for e in exps])
        norms_high.extend([np.linalg.norm(e.coefficients[2]) for e in exps])
        # X_0 within 0.05 of I; off-diagonals at the reported closed-system
        # scale (the listed coefficient tables reach ~0.026)
        off_diag = np.stack([e.coefficients[0] - np.diag(np.diag(
            e.coefficients[0])) for e in exps])
        assert np.abs(off_diag).max() < 0.03
        for e in exps:
            assert np.abs(e.coefficients[0] - np.eye(3)).max() < 0.05
    for other in x0_stack[1:]:
        assert np.abs(other - x0_stack[0]).max() <= 2 * bound + 1e-9
    assert max(norms_high) < 0.03  # ||X_1||, ||X_2|| for the closed system
    # J, N structure and the argmin location for the optimized pulse
    res = optimized_gates["sigma_1_0"]
    gate = control.parse_gate("sigma_1_0", 3)
    costs = interpret.cost_grid(model, [res.theta_star], grid, gate.unitary)
    j_vals, n_vals = costs["J"][0], costs["N"][0]
    for j, n in zip(j_vals, n_vals):
        assert j >= n >= 0.0
    argmin_eps = grid[int(np.argmin(j_vals))]
    step = grid[1] - grid[0]
    assert abs(argmin_eps - 1.0) <= step + 1e-12
    # under the noise-aware model the optimized pulse's best J dominates at
    # least 90% of random pulses' best J
    smodel, _ = strong_model
    rand = [examples[i].theta for i in range(20, 40)]
    rows = interpret.landscape(smodel, rand + [res.theta_star], gate,
                               grid=grid, pulse_ids=list(range(20)) + [-1])
    best_j = {}
    for row in rows:
        best_j[row["pulse_id"]] = min(best_j.get(row["pulse_id"], np.inf),
                                      row["J"])
    dominated = sum(best_j[-1] <= best_j[pid] for pid in range(20))
    assert dominated >= 18
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(9, elapsed, f"fit exact; X0 within 0.05 of I; max||X1||,||X2|| "
                       f"{max(norms_high):.3f} (<0.03); J argmin at eps="
                       f"{argmin_eps:+.2f}; optimized pulse dominates "
                       f"{dominated}/20 in J")


def test_reference_noise_operator_regime(strong_model, strong_dataset):
    """Regime check (not a numbered criterion): on a test-split pulse the
    strong-noise leading Taylor coefficient of the first observable has
    X_0(0,0) within 0.05 of the reference value 0.876."""
    start = time.perf_counter()
    model, _ = strong_model
    examples, manifest = strong_dataset
    pid = int(manifest["n_train"]) + 60
    samples = interpret.scan_epsilon(model, examples[pid].theta,
                                     grid=interpret.DEFAULT_GRID)
    exps = interpret.fit_taylor(samples, interpret.DEFAULT_GRID, order=2)
    x0 = exps[0].coefficients[0][0, 0]
    assert abs(x0.real - 0.876) < 0.05
    assert abs(x0.imag) < 0.05
    report("X", time.perf_counter() - start,
           f"strong-noise X_0(0,0) = {x0:.3f} vs reference 0.876 +- 0.05")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    cfg_path = str(tmp_path / "desk.cfg")
    # small but real runs through the CLI entry point
    import importlib.resources
    preset = importlib.resources.files("qugray") / "presets" / \
        "qutrit_desk_strong.cfg"
    with open(cfg_path, "w") as fh:
        fh.write(preset.read_text())
    datasets = []
    for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{run}.jsonl"
        rc = cli.main(["gen-dataset", "--config", cfg_path, "--out", str(out),
                       "--examples", "12", "--seed", "5",
                       "--workers", workers])
        assert rc == 0
        datasets.append((out.read_bytes(),
                         (tmp_path / f"{run}.jsonl.manifest.json").read_bytes()))
    assert datasets[0] == datasets[1] == datasets[2]
    models = []
    for run in ("ma", "mb"):
        out = tmp_path / f"{run}.qgm"
        rc = cli.main(["train", "--dataset", str(tmp_path / "a.jsonl"),
                       "--out", str(out), "--iters", "30", "--seed", "4",
                       "--batch", "8"])
        assert rc == 0
        models.append((out.read_bytes(),
                       (tmp_path / f"{run}.qgm.curves.csv").read_bytes()))
    assert models[0] == models[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(10, elapsed, "dataset and model bytes identical across runs and "
                        "worker counts {1,4}")
