import dataclasses

import numpy as np
import pytest

from conftest import make_config
from qugray import control, dynamics, graybox, interpret, noisegen, pulses
from qugray.errors import DomainError


@pytest.fixture(scope="module")
def cfg():
    return make_config(d=3, steps=160, realizations=6, g=(0.0, 16.0, 17.45))


@pytest.fixture(scope="module")
def eval_cfg(cfg):
    """cfg with a 4-realization evaluation ensemble."""
    return dataclasses.replace(
        cfg, noise=dataclasses.replace(cfg.noise, realizations=4))


@pytest.fixture(scope="module")
def model(cfg):
    return graybox.GrayboxModel(cfg, seed=2)


class TestScan:
    def test_epsilon_zero_is_pulse_independent(self, model, cfg):
        grid = np.array([-0.5, 0.0, 0.5])
        a = interpret.scan_epsilon(model, np.full(40, 0.3), grid=grid)
        b = interpret.scan_epsilon(model, np.full(40, -1.1), grid=grid)
        np.testing.assert_array_equal(a[1], b[1])
        assert np.abs(a[0] - b[0]).max() > 0

    def test_default_grid(self):
        assert interpret.DEFAULT_GRID.size == 41
        assert interpret.DEFAULT_GRID[0] == -1.0
        assert interpret.DEFAULT_GRID[-1] == 1.0

    def test_bound_enforcement(self, model, cfg):
        big = np.full(40, 10 * cfg.a_max())
        with pytest.raises(DomainError, match="bound"):
            interpret.scan_epsilon(model, big)


class TestFitTaylor:
    def test_exact_quadratic_recovery(self):
        # polynomial oracle: V(eps) = A + eps B + eps^2 C recovered to 1e-10
        rng = np.random.default_rng(0)
        A, B, C = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(3))
        grid = np.linspace(-1, 1, 11)
        samples = np.stack([(A + e * B + e * e * C)[None] for e in grid])
        (exp,) = interpret.fit_taylor(samples, grid, order=2)
        np.testing.assert_allclose(exp.coefficients[0], A, atol=1e-10)
        np.testing.assert_allclose(exp.coefficients[1], B, atol=1e-10)
        np.testing.assert_allclose(exp.coefficients[2], C, atol=1e-10)
        assert exp.residuals.max() < 1e-10

    def test_residual_bound_holds_on_grid(self, model):
        grid = np.linspace(-1, 1, 15)
        samples = interpret.scan_epsilon(model, np.full(40, 0.5), grid=grid)
        for exp in interpret.fit_taylor(samples, grid, order=2):
            for gi, e in enumerate(grid):
                err = np.abs(exp.evaluate(e) -
                             samples[gi, exp.observable_index])
                assert (err <= exp.residuals + 1e-12).all()

    def test_higher_order_never_raises_residual(self, model):
        grid = np.linspace(-1, 1, 17)
        samples = interpret.scan_epsilon(model, np.full(40, 0.4), grid=grid)
        res2 = [e.residuals.max() for e in
                interpret.fit_taylor(samples, grid, order=2)]
        res3 = [e.residuals.max() for e in
                interpret.fit_taylor(samples, grid, order=3)]
        for lo, hi in zip(res3, res2):
            assert lo <= hi + 1e-12

    def test_grid_too_small(self):
        samples = np.zeros((3, 1, 2, 2))
        with pytest.raises(DomainError):
            interpret.fit_taylor(samples, np.linspace(0, 1, 3), order=2)

    def test_repeated_grid_points(self):
        samples = np.zeros((4, 1, 2, 2))
        with pytest.raises(DomainError):
            interpret.fit_taylor(samples, np.array([0.0, 0.0, 1.0, 1.0]),
                                 order=2)


class TestCostFunctions:
    def test_zero_at_perfect_control(self, cfg):
        # exact closed model: V = I everywhere; target = realized U0
        closed = make_config(d=3, steps=160, realizations=4)
        exact = graybox.ExactClosedModel(closed)
        params = pulses.sample_random_params(3, closed.n_max, closed.a_max(),
                                             3)
        theta = params.flatten()
        G = dynamics.propagate_closed(closed, params)
        out = interpret.control_cost_J(exact, 1.0, theta, G)
        assert out["J"] == pytest.approx(0.0, abs=1e-9)
        assert out["N"] == 0.0

    def test_n_bounded_by_j(self, model, cfg):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-cfg.a_max(), cfg.a_max(), size=40)
        G = control.parse_gate("sigma_1_0", 3).unitary
        for eps in (-1.0, -0.3, 0.2, 0.9):
            out = interpret.control_cost_J(model, eps, theta, G)
            assert out["J"] >= out["N"] >= 0.0
            assert 0.0 <= out["infidelity"] <= 1.0

    def test_expansion_mode_matches_model_mode(self, model, cfg):
        grid = np.linspace(-1, 1, 21)
        theta = np.full(40, 0.5)
        samples = interpret.scan_epsilon(model, theta, grid=grid)
        exps = interpret.fit_taylor(samples, grid, order=4)
        G = control.parse_gate("X01", 3).unitary
        eps = grid[7]
        from_model = interpret.control_cost_J(model, eps, theta, G)
        from_fit = interpret.control_cost_J(exps, eps, theta, G,
                                            config=model.config)
        assert from_fit["mode"] == "expansion"
        assert from_model["mode"] == "model"
        assert from_fit["N"] == pytest.approx(from_model["N"], abs=2e-2)
        assert from_fit["infidelity"] == from_model["infidelity"]


class TestLandscape:
    def test_rows_and_csv(self, model, cfg, eval_cfg, tmp_path):
        rng = np.random.default_rng(0)
        thetas = [rng.uniform(-cfg.a_max(), cfg.a_max(), size=40)
                  for _ in range(2)]
        grid = np.linspace(-1, 1, 5)
        rows = interpret.landscape(model, thetas, "sigma_1_0", grid=grid,
                                   eval_config=eval_cfg)
        assert len(rows) == 2 * 5
        fid_rows = [r for r in rows if not np.isnan(r["fidelity"])]
        assert len(fid_rows) == 2  # one designated epsilon per pulse
        path = tmp_path / "rows.csv"
        interpret.rows_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pulse_id,epsilon,J,N,fidelity"
        assert len(lines) == 11

    def test_infidelity_grid_matches_single_points(self, cfg):
        theta = np.random.default_rng(2).uniform(-cfg.a_max(), cfg.a_max(),
                                                 size=40)
        G = control.parse_gate("X01", 3).unitary
        grid = np.linspace(-1, 1, 11)
        swept = interpret.gate_overlap_infidelity(cfg, theta, grid, G)
        for e, value in zip(grid, swept):
            assert value == interpret.gate_overlap_infidelity(cfg, theta, e,
                                                              G)

    def test_off_grid_fid_epsilon_lands_on_its_row(self, model, cfg,
                                                   eval_cfg):
        # 0.33 is not on the grid: the fidelity is evaluated at the grid
        # point of the row it is written to (0.35)
        theta = np.random.default_rng(3).uniform(-cfg.a_max(), cfg.a_max(),
                                                 size=40)
        grid = np.linspace(-1, 1, 41)
        rows = interpret.landscape(model, [theta], "X01", grid=grid,
                                   fid_epsilon=0.33, eval_config=eval_cfg)
        (row,) = [r for r in rows if not np.isnan(r["fidelity"])]
        assert row["epsilon"] == pytest.approx(0.35)
        (expected,) = control.evaluate_fidelity(
            eval_cfg, [row["epsilon"] * theta], "X01")
        assert row["fidelity"] == expected

    def test_one_evaluation_ensemble_for_all_pulses(self, model, cfg,
                                                    eval_cfg, monkeypatch):
        rng = np.random.default_rng(4)
        thetas = [rng.uniform(-cfg.a_max(), cfg.a_max(), size=40)
                  for _ in range(3)]
        grid = np.linspace(-1, 1, 5)
        gate = control.parse_gate("X01", 3)
        rows = interpret.landscape(model, thetas, gate, grid=grid,
                                   fid_epsilon=0.5, eval_config=eval_cfg)
        # each pulse's fidelity as a per-pulse evaluation, with its own
        # ensemble, would give it
        for i, theta in enumerate(thetas):
            fid = rows[i * grid.size + 3]["fidelity"]
            assert fid == control.evaluate_fidelity(eval_cfg, [0.5 * theta],
                                                    gate)[0]
        calls = []
        synthesize = noisegen.synthesize

        def counting(*args, **kwargs):
            calls.append(args)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(noisegen, "synthesize", counting)
        again = interpret.landscape(model, thetas, gate, grid=grid,
                                    fid_epsilon=0.5, eval_config=eval_cfg)
        assert len(calls) == 1
        assert repr(again) == repr(rows)  # NaN-aware, bit-exact floats

    def test_epsilon_zero_rows_agree_within_residuals(self, model, cfg):
        # expansions of different pulses intersect at eps = 0
        rng = np.random.default_rng(1)
        grid = np.linspace(-1, 1, 9)
        thetas = [rng.uniform(-cfg.a_max(), cfg.a_max(), size=40)
                  for _ in range(3)]
        x0_list = []
        bound = 0.0
        for theta in thetas:
            samples = interpret.scan_epsilon(model, theta, grid=grid)
            exps = interpret.fit_taylor(samples, grid, order=2)
            x0_list.append(np.stack([e.coefficients[0] for e in exps]))
            bound = max(bound, max(e.residuals.max() for e in exps))
        for other in x0_list[1:]:
            assert np.abs(other - x0_list[0]).max() <= 2 * bound + 1e-9
