import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from qugray import dynamics, noiseop, pulses
from qugray.errors import DomainError, InvalidConfigError, InvertibilityError


def random_valid_params(d, rng):
    m = d * (d - 1) // 2
    p = rng.uniform(0.0, 1.0, d)
    return noiseop.NoiseOperatorParams(
        dim=d, r=rng.uniform(0, 1, m), theta=rng.uniform(0, 2 * np.pi, m),
        psi=rng.uniform(0, 2 * np.pi, m), x=rng.uniform(-1, 1, d),
        p=p / p.sum())


class TestBuildQ:
    def test_identity_params(self):
        d = 3
        m = 3
        params = noiseop.NoiseOperatorParams(
            dim=d, r=np.ones(m), theta=np.zeros(m), psi=np.zeros(m),
            x=np.zeros(d), p=np.full(d, 1 / 3))
        np.testing.assert_allclose(noiseop.build_Q(params), np.eye(3),
                                   atol=1e-15)

    def test_d2_pure_swap(self):
        params = noiseop.NoiseOperatorParams(
            dim=2, r=np.zeros(1), theta=np.zeros(1), psi=np.zeros(1),
            x=np.zeros(2), p=np.array([0.5, 0.5]))
        np.testing.assert_allclose(noiseop.build_Q(params),
                                   np.array([[0, 1], [-1, 0]]), atol=1e-15)

    def test_unitarity_random_d4(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            Q = noiseop.build_Q(random_valid_params(4, rng))
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(4)) < 1e-12

    def test_order_is_normative(self):
        # permuting the (p, q) product order must change Q
        rng = np.random.default_rng(5)
        params = random_valid_params(3, rng)
        Q = noiseop.build_Q(params)
        reversed_Q = np.eye(3, dtype=complex)
        for (p, q), r, th, ps in reversed(list(zip(
                noiseop.pair_order(3), params.r, params.theta, params.psi))):
            U = np.eye(3, dtype=complex)
            block = noiseop.subunitary(r, th, ps)
            U[p, p], U[p, q] = block[0, 0], block[0, 1]
            U[q, p], U[q, q] = block[1, 0], block[1, 1]
            reversed_Q = reversed_Q @ U
        assert np.abs(Q - reversed_Q).max() > 1e-3

    def test_count_mismatch(self):
        with pytest.raises(InvalidConfigError):
            noiseop.NoiseOperatorParams(
                dim=3, r=np.ones(2), theta=np.zeros(2), psi=np.zeros(2),
                x=np.zeros(3), p=np.full(3, 1 / 3))


class TestBuildD:
    def test_uniform_p_unit_x(self):
        D = noiseop.build_D(np.ones(3), np.full(3, 1 / 3), 3)
        np.testing.assert_allclose(D, np.eye(3), atol=1e-15)

    def test_extreme_point(self):
        D = noiseop.build_D(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]), 3)
        np.testing.assert_allclose(D, np.diag([-3.0, 0, 0]), atol=1e-15)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bounds_always_hold(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        x = rng.uniform(-1, 1, d)
        p = rng.uniform(0, 1, d)
        p = p / p.sum()
        D = np.diag(noiseop.build_D(x, p, d)).real
        assert np.abs(D).max() <= d + 1e-12
        assert abs(D.sum()) <= d + 1e-12

    def test_bound_violation(self):
        with pytest.raises(DomainError):
            noiseop.build_D(np.array([1.5, 0.0]), np.array([0.5, 0.5]), 2)


class TestBuildWV:
    def test_identity_case(self):
        rng = np.random.default_rng(0)
        params = noiseop.NoiseOperatorParams(
            dim=2, r=np.array([1.0]), theta=np.array([0.0]),
            psi=np.array([0.0]), x=np.ones(2), p=np.full(2, 0.5))
        W = noiseop.build_W(params)
        np.testing.assert_allclose(W, np.eye(2), atol=1e-15)
        V = noiseop.build_V(np.eye(2), W)
        np.testing.assert_allclose(V, np.eye(2), atol=1e-15)

    def test_spectrum_equals_d_entries(self):
        rng = np.random.default_rng(3)
        params = random_valid_params(4, rng)
        W = noiseop.build_W(params)
        expected = np.sort(4 * params.p * params.x)
        np.testing.assert_allclose(np.linalg.eigvalsh(W), expected, atol=1e-12)

    def test_three_constraints(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            W = noiseop.build_W(random_valid_params(d, rng))
            evals = np.linalg.eigvalsh(W)
            assert np.abs(W - W.conj().T).max() < 1e-12
            assert np.abs(evals).max() <= d + 1e-9
            assert abs(evals.sum()) <= d + 1e-9

    def test_singular_without_shift(self):
        W = np.eye(3, dtype=complex)
        with pytest.raises(InvertibilityError):
            noiseop.build_V(np.diag([1.0, -1.0, 0.0]), W)


class TestShift:
    def test_definite_shift_of_singular_diag(self):
        O = np.diag([1.0, -1.0, 0.0]).astype(complex)
        sh = noiseop.shift_observable(O)
        assert sh.a == 1.0 and sh.b == 2.0
        np.testing.assert_allclose(np.linalg.eigvalsh(sh.shifted),
                                   [1.0, 2.0, 3.0], atol=1e-12)

    def test_recover(self):
        assert noiseop.recover_expectation(2.7, 1.0, 2.0) == pytest.approx(0.7)

    def test_invertible_untouched(self):
        O = np.diag([1.0, 2.0, -1.0]).astype(complex)
        sh = noiseop.shift_observable(O)
        assert sh.is_noop
        np.testing.assert_array_equal(sh.shifted, O)
        assert noiseop.recover_expectation(1.23, sh.a, sh.b) == 1.23

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            noiseop.shift_observable(np.zeros((2, 2)))

    def test_interior_shift_stays_representable(self):
        # every (possibly shifted) basis observable keeps nuclear norm <= d,
        # the exact image of the bounded parameterization
        for d in (2, 3, 4, 5):
            basis = dynamics.gell_mann_basis(d)
            for A in basis.elements:
                sh = noiseop.shift_observable(A, style="interior")
                evals = np.linalg.eigvalsh(sh.shifted)
                assert np.abs(evals).min() > 0
                assert np.abs(evals).sum() <= d + 1e-12

    def test_shift_correctness_on_dynamics(self):
        # recovered shifted expectation == unshifted Monte-Carlo expectation
        cfg = make_config(d=3, steps=160, realizations=12,
                          g=(0.0, 16.0, 17.45))
        params = pulses.sample_random_params(3, cfg.n_max, cfg.a_max(), 4)
        real_set = dynamics.synthesize_noise(cfg)
        basis = cfg.observable_basis()
        u0 = dynamics.propagate_closed(cfg, params)
        u_stack = dynamics.propagate_ensemble(cfg, params, real_set)
        rng = np.random.default_rng(2)
        for j in (0, 5, 6):
            O = basis.elements[j]
            sh = noiseop.shift_observable(O, style="interior")
            V = dynamics.oracle_noise_operator(cfg, params, sh.shifted)
            rho = u0 @ np.diag([0.2, 0.5, 0.3]).astype(complex) @ u0.conj().T
            shifted_e = np.trace(V @ rho @ sh.shifted).real
            recovered = noiseop.recover_expectation(shifted_e, sh.a, sh.b)
            direct = np.mean([np.trace(O @ U @ np.diag([0.2, 0.5, 0.3]) @
                                       U.conj().T).real for U in u_stack])
            assert abs(recovered - direct) < 1e-9


class TestExtractParams:
    def test_identity_w(self):
        out = noiseop.extract_params(np.eye(3))
        np.testing.assert_allclose(out.p, np.full(3, 1 / 3), atol=1e-12)
        np.testing.assert_allclose(out.x, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(noiseop.build_W(out), np.eye(3), atol=1e-12)

    def test_rank_one_w(self):
        out = noiseop.extract_params(np.diag([3.0, 0.0, 0.0]))
        assert out.p[np.argmax(out.p)] == pytest.approx(1.0)
        W = noiseop.build_W(out)
        np.testing.assert_allclose(W, np.diag([3.0, 0.0, 0.0]), atol=1e-10)

    def test_zero_w(self):
        out = noiseop.extract_params(np.zeros((4, 4)))
        np.testing.assert_allclose(out.p, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(out.x, np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_roundtrip_random(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            W = noiseop.build_W(random_valid_params(d, rng))
            back = noiseop.build_W(noiseop.extract_params(W))
            assert np.abs(back - W).max() < 1e-8

    def test_unrepresentable_rejected(self):
        with pytest.raises(DomainError):
            noiseop.extract_params(np.diag([3.0, -3.0, 0.0]))

    def test_closed_oracle_w_roundtrips(self):
        cfg = make_config(d=3, steps=160, realizations=4)
        basis = cfg.observable_basis()
        params = pulses.sample_random_params(3, cfg.n_max, cfg.a_max(), 9)
        for j in (1, 6):
            sh = noiseop.shift_observable(basis.elements[j], style="interior")
            V = dynamics.oracle_noise_operator(cfg, params, sh.shifted)
            W = sh.shifted @ V
            W = (W + W.conj().T) / 2
            back = noiseop.build_W(noiseop.extract_params(W))
            assert np.abs(back - W).max() < 1e-8
