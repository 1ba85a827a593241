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


def expansion_n(expansions, eps):
    """N(eps) = sum_k ||V_k(eps) - I||_F from fitted expansions."""
    vs = np.stack([e.evaluate(eps) for e in expansions])
    d = vs.shape[-1]
    return float(sum(np.linalg.norm(v - np.eye(d)) for v in vs))


class TestCostFunctions:
    def test_zero_at_perfect_control(self, cfg):
        # exact closed model: V = I everywhere; target = realized U0
        closed = make_config(d=3, steps=160, realizations=4)
        exact = graybox.ExactClosedModel(closed)
        params = pulses.sample_random_params(3, closed.n_max, closed.a_max(),
                                             3)
        theta = params.flatten()
        G = dynamics.propagate_closed(closed, params)
        out = interpret.cost_grid(exact, [theta], [1.0], G)
        assert out["J"][0, 0] == pytest.approx(0.0, abs=1e-9)
        assert out["N"][0, 0] == 0.0

    def test_n_bounded_by_j(self, model, cfg):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-cfg.a_max(), cfg.a_max(), size=40)
        G = control.parse_gate("sigma_1_0", 3).unitary
        out = interpret.cost_grid(model, [theta], [-1.0, -0.3, 0.2, 0.9], G)
        assert out["J"].shape == (1, 4)
        assert (out["J"] >= out["N"]).all() and (out["N"] >= 0.0).all()
        assert ((0.0 <= out["infidelity"]) & (out["infidelity"] <= 1.0)).all()

    def test_expansion_mode_matches_model_mode(self, model, cfg):
        grid = np.linspace(-1, 1, 21)
        theta = np.full(40, 0.5)
        samples = interpret.scan_epsilon(model, theta, grid=grid)
        exps = interpret.fit_taylor(samples, grid, order=4)
        G = control.parse_gate("X01", 3).unitary
        from_model = interpret.cost_grid(model, [theta], grid, G)
        assert expansion_n(exps, grid[7]) == pytest.approx(
            from_model["N"][0, 7], abs=2e-2)
        (single,) = interpret.gate_overlap_infidelity(model.config,
                                                      [grid[7] * theta], G)
        assert from_model["infidelity"][0, 7] == single

    def test_pulse_rows_alone_equal_rows_in_a_stack(self, model, cfg,
                                                    eval_cfg, monkeypatch):
        rng = np.random.default_rng(6)
        thetas = rng.uniform(-cfg.a_max(), cfg.a_max(), size=(5, 40))
        grid = np.linspace(-1, 1, 21)
        gate = control.parse_gate("X01", 3)
        whole = interpret.cost_grid(model, thetas, grid, gate.unitary)
        for p, theta in enumerate(thetas):
            alone = interpret.cost_grid(model, [theta], grid, gate.unitary)
            np.testing.assert_array_equal(alone["infidelity"][0],
                                          whole["infidelity"][p])
            for key in ("J", "N"):
                np.testing.assert_allclose(alone[key][0], whole[key][p],
                                           rtol=0, atol=1e-14)
        rows = interpret.landscape(model, thetas, gate, grid=grid,
                                   fid_epsilon=0.3, eval_config=eval_cfg)
        for p, theta in enumerate(thetas):
            alone = interpret.landscape(model, [theta], gate, grid=grid,
                                        fid_epsilon=0.3, eval_config=eval_cfg)
            for got, want in zip(rows[p * grid.size:(p + 1) * grid.size],
                                 alone):
                assert repr(got["fidelity"]) == repr(want["fidelity"])
                assert got["epsilon"] == want["epsilon"]
                assert abs(got["J"] - want["J"]) <= 1e-14
                assert abs(got["N"] - want["N"]) <= 1e-14
        # 2 pulses of 21 rows per block: 5 pulses run as 3 blocks
        calls = []
        noise_operators = graybox.GrayboxModel.noise_operators

        def counting(self, scaled):
            calls.append(len(scaled))
            return noise_operators(self, scaled)

        monkeypatch.setattr(interpret, "_ROWS_PER_BLOCK", 50)
        monkeypatch.setattr(graybox.GrayboxModel, "noise_operators", counting)
        blocked = interpret.cost_grid(model, thetas, grid, gate.unitary)
        assert calls == [42, 42, 21]
        np.testing.assert_array_equal(blocked["infidelity"],
                                      whole["infidelity"])
        for key in ("J", "N"):
            np.testing.assert_allclose(blocked[key], whole[key], rtol=0,
                                       atol=1e-14)

    def test_bound_checked_for_every_pulse_before_any_work(self, model, cfg,
                                                           monkeypatch):
        thetas = np.stack([np.full(40, 0.5), np.full(40, 10 * cfg.a_max())])
        monkeypatch.setattr(graybox.GrayboxModel, "noise_operators", None)
        with pytest.raises(DomainError, match="bound"):
            interpret.cost_grid(model, thetas, [0.5, 1.0],
                                control.parse_gate("X01", 3).unitary)


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
        swept = interpret.gate_overlap_infidelity(cfg, grid[:, None] * theta,
                                                  G)
        for e, value in zip(grid, swept):
            assert value == interpret.gate_overlap_infidelity(
                cfg, [e * theta], G)[0]

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
