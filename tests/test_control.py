import dataclasses
import json

import numpy as np
import pytest

from conftest import choi_of_propagators, choi_of_unitary, gate_cost, \
    make_config, process_fidelity
from qugray import algebra, config, control, dynamics, graybox, pulses
from qugray.errors import ContractViolationError, InvalidConfigError, \
    OptimizationFailure


@pytest.fixture(scope="module")
def closed_cfg():
    return make_config(d=3, steps=160, realizations=4)


@pytest.fixture(scope="module")
def exact_model(closed_cfg):
    return graybox.ExactClosedModel(closed_cfg)


class TestVocabulary:
    def test_qutrit_names(self):
        vocab = control.gate_vocabulary(3)
        for name in ("sigma_0_0", "sigma_1_0", "sigma_2_2", "X01", "Y01",
                     "Z01", "H01", "R01", "X12", "H02", "R02"):
            assert name in vocab
        assert vocab["sigma_0_0"].family == "clock-shift"
        np.testing.assert_allclose(vocab["sigma_0_0"].unitary, np.eye(3),
                                   atol=1e-15)

    def test_qubit_aliases(self):
        vocab = control.gate_vocabulary(2)
        for name in ("I", "X", "Y", "Z", "H", "R"):
            assert name in vocab
        np.testing.assert_allclose(vocab["X"].unitary, vocab["X01"].unitary,
                                   atol=1e-15)

    def test_all_unitary(self):
        for d in (2, 3):
            for gate in control.gate_vocabulary(d).values():
                U = gate.unitary
                assert np.linalg.norm(U.conj().T @ U - np.eye(d)) < 1e-12

    def test_sigma_matches_clock_shift(self):
        _, _, gates, _ = algebra.clock_shift_basis(3)
        vocab = control.gate_vocabulary(3)
        np.testing.assert_allclose(vocab["sigma_1_2"].unitary, gates[1][2],
                                   atol=1e-15)

    def test_subspace_block_structure(self):
        gate = control.parse_gate("X02", 3)
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        np.testing.assert_allclose(gate.unitary, expected, atol=1e-15)

    def test_unknown_gate_lists_names(self):
        with pytest.raises(InvalidConfigError) as err:
            control.parse_gate("NOPE", 3)
        assert "sigma_1_0" in str(err.value)


class TestGateCost:
    def test_zero_for_realized_target(self, closed_cfg, exact_model):
        # an exact model evaluated against the gate its own pulse implements
        params = pulses.sample_random_params(3, closed_cfg.n_max,
                                             closed_cfg.a_max(), 7)
        theta = params.flatten()
        G = dynamics.propagate_closed(closed_cfg, params)
        gate = control.TargetGate("self", G, "subspace")
        targets = control.target_expectations(exact_model, G)
        assert gate_cost(exact_model, theta, targets) < 1e-20
        (fid,) = control.evaluate_fidelity(closed_cfg, [theta], gate)
        assert 1.0 - 1e-15 <= fid <= 1.0

    def test_positive_away_from_target(self, closed_cfg, exact_model):
        gate = control.parse_gate("X01", 3)
        targets = control.target_expectations(exact_model, gate.unitary)
        cost = gate_cost(exact_model, np.zeros(40), targets)
        assert cost > 1.0

    def test_global_phase_invariance(self, closed_cfg, exact_model):
        params = pulses.sample_random_params(3, closed_cfg.n_max,
                                             closed_cfg.a_max(), 3)
        theta = params.flatten()
        G = control.parse_gate("H01", 3).unitary
        c1, c2 = (gate_cost(exact_model, theta,
                            control.target_expectations(exact_model, U))
                  for U in (G, np.exp(0.456j) * G))
        assert c1 == pytest.approx(c2, rel=1e-10)
        f1, f2 = (control.evaluate_fidelity(
            closed_cfg, [theta], control.TargetGate("H01", U, "subspace"))[0]
            for U in (G, np.exp(0.456j) * G))
        assert f1 == pytest.approx(f2, abs=1e-10)


class TestOptimize:
    def test_descends_and_is_deterministic(self, exact_model):
        res1 = control.optimize_gate(exact_model, "sigma_1_0", restarts=1,
                                     seed=4, max_iters=25)
        res2 = control.optimize_gate(exact_model, "sigma_1_0", restarts=1,
                                     seed=4, max_iters=25)
        np.testing.assert_array_equal(res1.theta_star, res2.theta_star)
        assert res1.cost_trace == res2.cost_trace
        # how far 25 descent steps get depends on the random start, so only
        # the descent itself is asserted: a non-increasing trace that ends
        # below its start
        trace = np.array(res1.cost_trace)
        assert (np.diff(trace) <= 0.0).all()
        assert res1.cost == trace[-1] < trace[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_to_reachable_target(self, closed_cfg, exact_model,
                                           seed):
        # the target is realized by 0.9 x the restart's own start point, so
        # it is reachable from every draw
        start = control.optimize_gate(exact_model, "X01", restarts=1,
                                      seed=seed, max_iters=0).theta_star
        params = pulses.PulseParams.unflatten(0.9 * start, 3,
                                              closed_cfg.n_max)
        target = dynamics.propagate_closed(closed_cfg, params)
        res = control.optimize_gate(
            exact_model, control.TargetGate("reachable", target, "subspace"),
            restarts=1, seed=seed, max_iters=40)
        assert res.cost < 1e-7

    def test_non_finite_model_fails(self, closed_cfg):
        model = graybox.GrayboxModel(closed_cfg, seed=0)
        model.weights["head.b"][:] = np.nan
        with pytest.raises(OptimizationFailure), np.errstate(invalid="ignore"):
            control.optimize_gate(model, "X01", restarts=2, max_iters=5)

    def test_worker_invariance(self, exact_model):
        kwargs = dict(restarts=2, seed=1, max_iters=6)
        a = control.optimize_gate(exact_model, "X01", workers=1, **kwargs)
        b = control.optimize_gate(exact_model, "X01", workers=2, **kwargs)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)
        assert a.cost == b.cost

    def test_bounds_respected(self, exact_model, closed_cfg):
        res = control.optimize_gate(exact_model, "Z01", restarts=1, seed=0,
                                    max_iters=10)
        assert np.abs(res.theta_star).max() <= closed_cfg.a_max() + 1e-12


class TestEvaluateFidelity:
    def test_noisy_channel_fidelity_below_closed(self, closed_cfg):
        noisy_cfg = make_config(d=3, steps=160, realizations=24,
                                g=(0.0, 16.0, 17.45))
        params = pulses.sample_random_params(3, closed_cfg.n_max,
                                             closed_cfg.a_max(), 5)
        theta = params.flatten()
        G = dynamics.propagate_closed(closed_cfg, params)
        gate = control.TargetGate("self", G, "subspace")
        (f_closed,) = control.evaluate_fidelity(closed_cfg, [theta], gate)
        (f_noisy,) = control.evaluate_fidelity(noisy_cfg, [theta], gate)
        assert 1.0 - 1e-15 <= f_closed <= 1.0
        assert f_noisy < f_closed

    @pytest.mark.parametrize("preset", ["qutrit_desk_closed",
                                        "qutrit_desk_weak",
                                        "qutrit_desk_strong",
                                        "qubit_desk_strong"])
    def test_closed_form_and_choi_oracle(self, preset):
        # for a unitary target the Choi-state fidelity is the trace overlap
        # sqrt(mean_r |tr(G^H U_r)|^2) / d; the Choi oracle's PSD square
        # roots lose ~5e-9 on the noisy ensembles
        cfg, _ = config.load_config(preset)
        d = cfg.dim
        thetas = np.stack([pulses.sample_random_params(
            d, cfg.n_max, cfg.a_max(), seed).flatten() for seed in (0, 1)])
        u = dynamics.channel_propagators(cfg, thetas)
        for name in ("X01", "H01", "sigma_1_0"):
            G = control.parse_gate(name, d).unitary
            fids = control.evaluate_fidelity(cfg, thetas, name)
            for fid, u_stack in zip(fids, u):
                closed_form = np.sqrt(np.mean(
                    [abs(np.trace(G.conj().T @ U)) ** 2 for U in u_stack])) / d
                assert abs(fid - closed_form) <= 1e-14 * closed_form
                oracle = process_fidelity(choi_of_unitary(G),
                                          choi_of_propagators(u_stack))
                assert abs(fid - oracle) <= 1e-8

    def test_non_unitary_target_rejected(self, closed_cfg):
        gate = control.TargetGate("leaky", 0.9 * np.eye(3), "subspace")
        with pytest.raises(ContractViolationError):
            control.evaluate_fidelity(closed_cfg, [np.zeros(40)], gate)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_rows_alone_equal_the_stack_without_lapack(self, noisy,
                                                       monkeypatch):
        cfg = make_config(d=3, steps=160, realizations=8,
                          g=(0.0, 16.0, 17.45) if noisy else None)
        thetas = np.random.default_rng(3).uniform(
            -cfg.a_max(), cfg.a_max(), size=(3, 40))
        stacked = control.evaluate_fidelity(cfg, thetas, "X01")

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK call in evaluate_fidelity")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, lapack)
        assert control.evaluate_fidelity(cfg, thetas, "X01") == stacked
        assert [control.evaluate_fidelity(cfg, [theta], "X01")[0]
                for theta in thetas] == stacked

    def test_k_eval_override(self):
        # a smaller evaluation ensemble is the config with K replaced
        cfg = make_config(d=2, steps=96, realizations=64, g=(0.0, 16.0))
        cfg = dataclasses.replace(
            cfg, noise=dataclasses.replace(cfg.noise, realizations=8))
        theta = np.zeros(2 * 1 * cfg.n_max)
        (f,) = control.evaluate_fidelity(cfg, [theta], "I")
        assert 0.0 <= f <= 1.0


class TestResultIO:
    def test_save(self, tmp_path, exact_model):
        res = control.optimize_gate(exact_model, "sigma_0_1", restarts=1,
                                    seed=0, max_iters=4)
        res.fidelity_closed = 0.5
        path = tmp_path / "res.json"
        control.save_result(res, path)
        data = json.loads(path.read_text())
        assert data["gate"] == "sigma_0_1"
        assert len(data["theta_star"]) == 40
        assert data["fidelity_closed"] == 0.5
