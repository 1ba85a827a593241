import numpy as np
import pytest
import scipy.linalg

from qugray import algebra, dynamics
from qugray._kernels import _prop_py, backend, propagate_piecewise, \
    propagate_piecewise_batch


def problem(d=3, M=37, K=5, seed=0):
    rng = np.random.default_rng(seed)
    drift = rng.normal(size=d) * 50.0
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    coupling = a + a.conj().T
    wave = rng.normal(size=M) * 5.0
    noise = rng.normal(size=(K, M, d))
    return drift, coupling, wave, noise


def sequential_oracle(drift, coupling, wave, noise_diag, dt):
    """Naive chronological product of per-step exponentials."""
    d = drift.size
    U = np.eye(d, dtype=complex)
    for k in range(wave.size):
        H = np.diag(drift + (noise_diag[k] if noise_diag is not None else 0.0)
                    ).astype(complex)
        H += wave[k] * coupling
        U = algebra.expm_skew(H, dt) @ U
    return U


class TestAgainstSequentialOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 7, 64, 515])
    def test_closed(self, d, M):
        drift, coupling, wave, _ = problem(d=d, M=M)
        dt = 1e-3
        oracle = sequential_oracle(drift, coupling, wave, None, dt)
        got = propagate_piecewise(drift, coupling, wave, dt)
        assert np.abs(got - oracle).max() < 1e-11

    def test_noisy_batch(self):
        drift, coupling, wave, noise = problem(M=33, K=4)
        dt = 2e-3
        got = propagate_piecewise_batch(drift, coupling, wave, noise, dt)
        for r in range(noise.shape[0]):
            oracle = sequential_oracle(drift, coupling, wave, noise[r], dt)
            assert np.abs(got[r] - oracle).max() < 1e-11

    def test_noisy_batch_long(self):
        # long enough for the elementwise tree levels, with odd level lengths
        drift, coupling, wave, noise = problem(M=333, K=5)
        dt = 2e-3
        got = propagate_piecewise_batch(drift, coupling, wave, noise, dt)
        for r in range(noise.shape[0]):
            oracle = sequential_oracle(drift, coupling, wave, noise[r], dt)
            assert np.abs(got[r] - oracle).max() < 1e-11


class TestPullback:
    """dL/df_k of L = 2 Re <G, U> against the product rule over per-step
    Frechet derivatives from scipy.linalg.expm_frechet."""

    @staticmethod
    def frechet_oracle(drift, coupling, wave, dt, G):
        steps, derivs = [], []
        for f in wave:
            H = np.diag(drift).astype(complex) + f * coupling
            S, F = scipy.linalg.expm_frechet(-1j * dt * H, -1j * dt * coupling)
            steps.append(S)
            derivs.append(F)
        d, M = len(drift), len(wave)
        # before[k] = S_{k-1} ... S_0, after[k] = S_{M-1} ... S_{k+1}
        before, after = [np.eye(d)], [np.eye(d)]
        for k in range(M - 1):
            before.append(steps[k] @ before[-1])
            after.append(after[-1] @ steps[M - 1 - k])
        after.reverse()
        return np.array([
            2.0 * np.real(np.sum(G.conj() * (after[k] @ derivs[k]
                                             @ before[k])))
            for k in range(M)])

    @staticmethod
    def case_problem(case, d):
        """(drift, coupling, wave, dt) for one case: `long` crosses odd
        nested and stacked tree levels; `norm-*` scales dt so the kernel's
        step-norm bound is 1.5 or 6, which take 1 or 3 double-angle steps;
        `diagonal-coupling` has tr C != 0, so the trace phases move."""
        drift, coupling, wave, _ = problem(d=d, M=519 if case == "long" else 6)
        dt = 1e-2
        if case == "degenerate":
            # zero drift and drive: H_k = 0, every eigenvalue coincides
            drift, wave = np.zeros(d), np.zeros(6)
        elif case == "diagonal-coupling":
            coupling = coupling + np.diag(np.linspace(0.5, 2.0, d))
        elif case.startswith("norm-"):
            h = np.diag(drift) + wave[:, None, None] * coupling.real
            x = h - np.eye(d) * np.trace(h, axis1=1, axis2=2)[:, None,
                                                              None] / d
            bound = np.abs(x).max(axis=0).sum(axis=1).max()
            dt = float(case[5:]) / bound
        return drift, coupling, wave, dt

    @pytest.mark.parametrize("case, d", [
        *[pytest.param("generic", d, id=f"False-{d}") for d in (2, 3, 4)],
        *[pytest.param("degenerate", d, id=f"True-{d}") for d in (2, 3, 4)],
        *[(case, d) for case in ("norm-1.5", "norm-6", "diagonal-coupling")
          for d in (2, 3, 4)],
        ("long", 3)])
    def test_matches_frechet_oracle(self, case, d):
        drift, coupling, wave, dt = self.case_problem(case, d)
        G = np.random.default_rng(d).normal(size=(d, d, 2)) @ [1.0, 1j]
        _, tape = propagate_piecewise(drift, coupling, wave, dt,
                                      return_tape=True)
        if case.startswith("norm-"):
            assert tape.order[1] == {"norm-1.5": 1, "norm-6": 3}[case]
        if case == "long":
            leftovers = [isinstance(nodes, np.ndarray)
                         for nodes, left in tape.levels if left is not None]
            assert set(leftovers) == {False, True}
        got = _prop_py.pullback_closed(G, tape)
        ref = self.frechet_oracle(drift, coupling, wave, dt, G)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_tape_needs_a_single_wave(self):
        drift, coupling, wave, _ = problem(d=3, M=6)
        u, _ = propagate_piecewise(drift, coupling, wave, 1e-2,
                                   return_tape=True)
        np.testing.assert_array_equal(
            u, propagate_piecewise(drift, coupling, wave, 1e-2))
        with pytest.raises(ValueError, match="single"):
            propagate_piecewise(drift, coupling, np.stack([wave, wave]), 1e-2,
                                return_tape=True)


class TestStepExponential:
    """Single steps against scipy.linalg.expm across step norms
    ||dt (H - tr(H)/d)||_1 from 0.1 to 50; beyond ~1 the kernel scales the
    generator down and recovers cos/sin by double-angle steps."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("norm", [0.1, 0.5, 1.0, 3.0, 12.0, 50.0])
    def test_matches_expm(self, d, norm):
        rng = np.random.default_rng(10 * d)
        a = dynamics.annihilation(d)
        coupling = a + a.conj().T
        for _ in range(3):
            drift = rng.normal(size=d) * 20.0
            wave = rng.normal(size=1) * 10.0
            noise = rng.normal(size=(4, 1, d)) * 5.0
            h = np.zeros((4, d, d))
            h += wave[0] * coupling.real
            h[:, range(d), range(d)] += drift + noise[:, 0]
            traceless = h - np.eye(d) * np.trace(h, axis1=1, axis2=2)[
                :, None, None] / d
            dt = norm / np.abs(traceless).sum(axis=1).max()
            got = propagate_piecewise_batch(drift, coupling, wave, noise, dt)
            ref = np.stack([scipy.linalg.expm(-1j * dt * hk) for hk in h])
            tol = 1e-13 if norm <= 1.0 else 1e-12
            assert np.abs(got - ref).max() <= tol


class TestCosNegSin:
    """_cos_neg_sin directly, on (rows, steps) stacks of traceless symmetric
    X against scipy.linalg.cosm and sinm. Each degree q is taken at its own
    norm bound ||X||_1 = theta_q, times 2^s with s squarings, so the
    truncation stays below the unit roundoff and any larger error is the
    evaluation's: the Cayley-Hamilton recurrence is checked on random and
    degenerate spectra, where a companion recurrence could lose accuracy."""

    @staticmethod
    def scaled(mats, degree, squarings):
        norm = np.abs(mats).sum(axis=-1).max()
        if norm == 0.0:
            return mats
        return mats * (_prop_py._THETA[degree] * 2.0 ** squarings / norm)

    @staticmethod
    def check(mats, degree, squarings):
        d = mats.shape[-1]
        x = [[np.ascontiguousarray(mats[..., i, j]) for j in range(d)]
             for i in range(d)]
        cos, neg_sin = _prop_py._cos_neg_sin(x, degree, squarings)
        flat = mats.reshape(-1, d, d)
        ref_cos = np.stack([scipy.linalg.cosm(m) for m in flat]).real
        ref_neg_sin = -np.stack([scipy.linalg.sinm(m) for m in flat]).real
        tol = 1e-15 * 4.0 ** squarings
        for i in range(d):
            for j in range(d):
                assert np.abs(cos[i][j].ravel() - ref_cos[:, i, j]).max() \
                    <= tol
                assert np.abs(neg_sin[i][j].ravel()
                              - ref_neg_sin[:, i, j]).max() <= tol

    @staticmethod
    def traceless(mats):
        d = mats.shape[-1]
        trace = np.trace(mats, axis1=-2, axis2=-1)[..., None, None]
        return mats - np.eye(d) * trace / d

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("squarings", [0, 1, 3])
    def test_every_degree(self, d, squarings):
        rng = np.random.default_rng(d)
        for degree in range(1, _prop_py._MAX_DEGREE + 1):
            a = rng.normal(size=(2, 3, d, d))
            mats = self.traceless(a + a.swapaxes(-1, -2))
            self.check(self.scaled(mats, degree, squarings), degree,
                       squarings)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("spectrum",
                             ["zero", "repeated", "diagonal", "rank-one"])
    def test_degenerate_spectra(self, d, spectrum):
        rng = np.random.default_rng(d)
        if spectrum == "zero":
            x = np.zeros((d, d))
        elif spectrum == "repeated":
            # one eigenvalue d - 1 times, in a random basis
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            x = q @ np.diag([1.0] * (d - 1) + [1.0 - d]) @ q.T
        elif spectrum == "diagonal":
            x = np.diag(np.linspace(-0.5, 0.4, d))
            x = self.traceless(x)
        else:
            # the traceless part of a rank-one matrix
            v = rng.normal(size=d)
            x = self.traceless(np.outer(v, v))
        for degree in (1, 4, _prop_py._MAX_DEGREE):
            for squarings in (0, 2):
                mats = np.broadcast_to(self.scaled(x, degree, squarings),
                                       (2, 3, d, d))
                self.check(mats, degree, squarings)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_trace_is_rounding_noise(self, d):
        # the kernel takes X = dt (H - tr H / d), whose trace is rounding
        # noise, while the recurrence assumes tr X = 0
        rng = np.random.default_rng(d)
        for _ in range(100):
            levels = rng.normal(size=d) * 0.2
            diag = levels - levels.sum() / d
            if diag.sum() != 0.0:
                break
        assert diag.sum() != 0.0
        mats = np.broadcast_to(np.diag(diag), (2, 3, d, d))
        for degree in range(1, _prop_py._MAX_DEGREE + 1):
            if np.abs(diag).max() <= _prop_py._THETA[degree]:
                self.check(mats, degree, 0)
        self.check(mats * 8.0, _prop_py._MAX_DEGREE, 3)


class TestBackendAgreement:
    def test_unitarity(self):
        drift, coupling, wave, noise = problem(d=5, M=300, K=3)
        us = propagate_piecewise_batch(drift, coupling, wave, noise, 1e-3)
        for u in us:
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-10

    def test_backend_reported(self):
        assert backend() == "python"

    def test_python_fallback_importable(self):
        # the numpy module is the kernel the package exports
        assert propagate_piecewise is _prop_py.propagate_piecewise
        drift, coupling, wave, _ = problem(M=8)
        u = _prop_py.propagate_piecewise(drift, coupling, wave, 1e-3)
        assert u.shape == (3, 3)


class TestCouplingValidation:
    def test_complex_coupling_rejected(self):
        drift, coupling, wave, noise = problem(M=4, K=2)
        bad = coupling + 1e-3j * np.eye(3)
        with pytest.raises(ValueError):
            propagate_piecewise(drift, bad, wave, 1e-3)
        with pytest.raises(ValueError):
            propagate_piecewise_batch(drift, bad, wave, noise, 1e-3)

    def test_complex_dtype_with_zero_imaginary_part_accepted(self):
        drift, coupling, wave, noise = problem(M=4, K=2)
        assert np.iscomplexobj(coupling)
        as_real = propagate_piecewise_batch(drift, coupling.real, wave, noise,
                                            1e-3)
        as_complex = propagate_piecewise_batch(drift, coupling, wave, noise,
                                               1e-3)
        assert np.array_equal(as_real, as_complex)


class TestRowInvariance:
    """A row's propagator is the same bits alone and inside any stack,
    including a row whose step norms need a higher Taylor degree and
    more squarings than its neighbours'."""

    @staticmethod
    def record_orders(monkeypatch):
        seen = []
        original = _prop_py._cos_neg_sin

        def recording(x, degree, squarings):
            seen.append((degree, squarings))
            return original(x, degree, squarings)

        monkeypatch.setattr(_prop_py, "_cos_neg_sin", recording)
        return seen

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_rows(self, d, monkeypatch):
        drift, coupling, _, _ = problem(d=d, M=300)
        rng = np.random.default_rng(d)
        waves = rng.normal(size=(16, 300)) * 5.0
        waves[5] *= 40.0
        dt = 1e-3
        alone = np.stack([propagate_piecewise(drift, coupling, w, dt)
                          for w in waves])
        for size in (1, 3, 8, 16):
            for start in range(0, 16, size):
                block = propagate_piecewise(drift, coupling,
                                            waves[start:start + size], dt)
                assert np.array_equal(block, alone[start:start + size])
        seen = self.record_orders(monkeypatch)
        propagate_piecewise(drift, coupling, waves, dt)
        assert len(set(seen)) > 1  # the x40 row crossed a threshold
        oracle = sequential_oracle(drift, coupling, waves[5], None, dt)
        assert np.abs(alone[5] - oracle).max() < 1e-11

    @pytest.mark.parametrize("d", [2, 3])
    def test_noisy_rows(self, d, monkeypatch):
        drift, coupling, wave, noise = problem(d=d, M=300, K=11)
        noise[4] *= 40.0
        dt = 1e-3
        alone = np.concatenate([
            propagate_piecewise_batch(drift, coupling, wave, n[None], dt)
            for n in noise])
        for size in (3, 8, 11):
            for start in range(0, len(noise), size):
                block = propagate_piecewise_batch(
                    drift, coupling, wave, noise[start:start + size], dt)
                assert np.array_equal(block, alone[start:start + size])
        seen = self.record_orders(monkeypatch)
        propagate_piecewise_batch(drift, coupling, wave, noise, dt)
        assert len(set(seen)) > 1
