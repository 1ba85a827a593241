import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from conftest import STRONG_G3, make_config, random_density
from qugray import cli, dynamics, noisegen, noiseop, pulses
from qugray._kernels import _prop_py, rows_per_call
from qugray.errors import ContractViolationError, DatasetIOError, \
    InvalidConfigError, InvertibilityError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestHamiltonian:
    def test_drift_only(self, closed3, random_params3):
        zero = pulses.PulseParams(3, np.zeros_like(random_params3.amplitudes))
        H = dynamics.hamiltonian_at(closed3, zero, np.zeros(3), 5)
        np.testing.assert_allclose(H, np.diag(closed3.omega), atol=1e-15)

    def test_truncated_ladder_entries(self, noisy3, random_params3):
        H = dynamics.hamiltonian_at(noisy3, random_params3, np.zeros(3), 0)
        wave = pulses.waveform(random_params3, noisy3.carrier)
        off = H - np.diag(np.diag(H))
        expected = wave[0] * np.array([[0, 1, 0], [1, 0, np.sqrt(2)],
                                       [0, np.sqrt(2), 0]])
        np.testing.assert_allclose(off, expected, atol=1e-12)

    def test_qubit_matches_two_level_form(self):
        # omega/2 Z + Omega f X + g beta Z realized with per-level couplings
        omega, g, beta = 700.0, 3.0, 0.37
        cfg = make_config(d=2, steps=64)
        cfg = dynamics.SystemConfig(
            dim=2, omega=(omega / 2, -omega / 2), carrier=cfg.carrier,
            g=(g, -g), noise=cfg.noise, seed=0, n_max=cfg.n_max)
        params = pulses.sample_random_params(2, cfg.n_max, cfg.a_max(), 3)
        wave = pulses.waveform(params, cfg.carrier)
        k = 7
        H = dynamics.hamiltonian_at(cfg, params, np.full(2, beta), k)
        expected = omega / 2 * PAULI_Z + wave[k] * PAULI_X + g * beta * PAULI_Z
        np.testing.assert_allclose(H, expected, atol=1e-12)

    def test_qubit_ascending_levels_differ_by_global_shift(self):
        omega, beta = 700.0, -0.8
        base = make_config(d=2, steps=64)
        cfg = dynamics.SystemConfig(
            dim=2, omega=(0.0, -omega), carrier=base.carrier, g=(1.5, -1.5),
            noise=base.noise, seed=0, n_max=base.n_max)
        params = pulses.sample_random_params(2, cfg.n_max, cfg.a_max(), 3)
        wave = pulses.waveform(params, cfg.carrier)
        H = dynamics.hamiltonian_at(cfg, params, np.full(2, beta), 0)
        two_level = omega / 2 * PAULI_Z + wave[0] * PAULI_X \
            + 1.5 * beta * PAULI_Z
        np.testing.assert_allclose(H - two_level, -omega / 2 * np.eye(2),
                                   atol=1e-12)

    def test_step_index_bounds(self, closed3, random_params3):
        with pytest.raises(IndexError):
            dynamics.hamiltonian_at(closed3, random_params3, np.zeros(3),
                                    closed3.carrier.steps)


class TestPropagation:
    def test_zero_pulse_closed(self, closed3):
        zero = pulses.PulseParams(3, np.zeros((closed3.n_max, 2, 2)))
        U = dynamics.propagate_closed(closed3, zero)
        T = closed3.carrier.total_time
        np.testing.assert_allclose(
            U, np.diag(np.exp(-1j * np.array(closed3.omega) * T)), atol=1e-11)

    def test_unitarity(self, closed3, random_params3):
        U = dynamics.propagate_closed(closed3, random_params3)
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-9

    def test_first_order_step_convergence(self, random_params3):
        # halving the step size roughly halves the distance to the next level
        diffs = []
        prev = None
        for steps in (200, 400, 800):
            cfg = make_config(d=3, steps=steps)
            U = dynamics.propagate_closed(cfg, random_params3)
            if prev is not None:
                diffs.append(np.linalg.norm(U - prev))
            prev = U
        ratio = diffs[1] / diffs[0]
        assert 0.35 < ratio < 0.65

    def test_noise_free_coupling_matches_closed(self, random_params3):
        cfg = make_config(d=3, g=(0.0, 0.0, 0.0), realizations=3)
        real_set = dynamics.synthesize_noise(cfg)
        closed = dynamics.propagate_closed(cfg, random_params3)
        noisy = dynamics.propagate_ensemble(cfg, random_params3, real_set)
        for u in noisy:
            np.testing.assert_array_equal(u, closed)

    def test_wrong_dimension_pulse_rejected_closed_and_noisy(self):
        # d = 2 with n_max = 20 flattens to the same length as d = 3 with
        # n_max = 10; the closed path must not read it in the d = 3 layout
        cfg = make_config(d=3, g=STRONG_G3, realizations=2)
        assert cfg.n_max == 10
        qubit = pulses.sample_random_params(2, 20, cfg.a_max(), 1)
        real_set = dynamics.synthesize_noise(cfg)
        for propagate in (
                lambda: dynamics.propagate_closed(cfg, qubit),
                lambda: dynamics.closed_forward(cfg, qubit),
                lambda: dynamics.propagate_ensemble(cfg, qubit, real_set),
                lambda: dynamics.monte_carlo_expectations(cfg, qubit)):
            with pytest.raises(InvalidConfigError, match="transitions"):
                propagate()

    def test_pulse_n_max_other_than_config(self, closed3):
        # a pulse with fewer harmonics is its zero-padded config-size pulse
        short = pulses.sample_random_params(3, 4, closed3.a_max(), 2)
        padded = pulses.PulseParams(3, np.concatenate(
            [short.amplitudes, np.zeros((closed3.n_max - 4, 2, 2))]))
        u, tape = dynamics.closed_forward(closed3, short)
        np.testing.assert_allclose(
            u, dynamics.propagate_closed(closed3, padded), rtol=0, atol=1e-13)
        g_u = np.random.default_rng(0).normal(size=(3, 3))
        grad = dynamics.pullback_propagate_closed(closed3, tape, g_u)
        _, padded_tape = dynamics.closed_forward(closed3, padded)
        padded_grad = pulses.PulseParams.unflatten(
            dynamics.pullback_propagate_closed(closed3, padded_tape, g_u),
            3, closed3.n_max)
        assert grad.shape == (2 * 2 * 4,)
        np.testing.assert_allclose(
            grad, padded_grad.amplitudes[:4].transpose(1, 2, 0).reshape(-1),
            rtol=1e-12, atol=1e-12 * np.abs(grad).max())

    @pytest.mark.parametrize("g", [None, STRONG_G3], ids=["closed", "noisy"])
    def test_channel_propagators_rows_are_single_pulses(self, g):
        cfg = make_config(d=3, steps=96, realizations=5, g=g)
        params = [pulses.sample_random_params(3, cfg.n_max, cfg.a_max(), s)
                  for s in range(3)]
        stacks = dynamics.channel_propagators(
            cfg, np.stack([p.flatten() for p in params]))
        assert stacks.shape == (3, 1 if cfg.closed else 5, 3, 3)
        real_set = dynamics.synthesize_noise(cfg)
        for p, u_stack in zip(params, stacks):
            want = dynamics.propagate_closed(cfg, p)[None] if cfg.closed \
                else dynamics.propagate_ensemble(cfg, p, real_set)
            assert u_stack.tobytes() == want.tobytes()
        if not cfg.closed:  # a given ensemble is used as it is
            two = noisegen.synthesize(cfg.noise, cfg.seed, stop=2)
            got = dynamics.channel_propagators(cfg, [params[1].flatten()], two)
            assert got.tobytes() == dynamics.propagate_ensemble(
                cfg, params[1], two)[None].tobytes()

    def test_pure_dephasing_stays_diagonal(self, noisy3):
        zero = pulses.PulseParams(3, np.zeros((noisy3.n_max, 2, 2)))
        real_set = dynamics.synthesize_noise(noisy3)
        U = dynamics.propagate_ensemble(noisy3, zero, real_set)[0]
        np.testing.assert_allclose(np.abs(np.diag(U)), np.ones(3), atol=1e-11)
        assert np.abs(U - np.diag(np.diag(U))).max() < 1e-11

    def test_noisy_unitarity(self, noisy3, noisy3_realizations, random_params3):
        U = dynamics.propagate_ensemble(noisy3, random_params3,
                                        noisy3_realizations)[2]
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-9


class TestExpectations:
    def test_population_preserved_by_diagonal_drift(self, closed3, basis3):
        zero = pulses.PulseParams(3, np.zeros((closed3.n_max, 2, 2)))
        E = dynamics.monte_carlo_expectations(closed3, zero)
        # initial state |0>: the first eigenvector of diag(1,-1,0) with
        # ascending eigenvalues is |1>, so locate diag observable l=1 and the
        # eigenvector equal to |0>
        table = E.reshape(8, 3, 8)
        j = 6  # diagonal lambda_1 = diag(1,-1,0)
        evals = basis3.eigenvalues[j]
        vecs = basis3.eigenvectors[j]
        k = int(np.argmax(np.abs(vecs[0]) > 0.99))
        assert abs(table[j, k, j] - evals[k]) < 1e-9

    def test_vector_lengths(self, closed3, random_params3):
        E = dynamics.monte_carlo_expectations(closed3, random_params3)
        assert E.shape == (192,)
        cfg2 = make_config(d=2, steps=120)
        params2 = pulses.sample_random_params(2, cfg2.n_max, cfg2.a_max(), 1)
        E2 = dynamics.monte_carlo_expectations(cfg2, params2)
        assert E2.shape == (18,)

    def test_entries_within_eigenvalue_range(self, noisy3, random_params3,
                                             basis3):
        E = dynamics.monte_carlo_expectations(noisy3, random_params3)
        table = E.reshape(8, 3, 8)
        for i in range(8):
            lo = basis3.eigenvalues[i].min() - 1e-9
            hi = basis3.eigenvalues[i].max() + 1e-9
            assert table[..., i].min() >= lo and table[..., i].max() <= hi

    def test_channel_trace_preserved(self, noisy3, noisy3_realizations,
                                     random_params3):
        u_stack = dynamics.propagate_ensemble(noisy3, random_params3,
                                              noisy3_realizations)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        evolved = np.einsum("rab,bc,rdc->ad", u_stack, rho,
                            u_stack.conj()) / len(u_stack)
        assert abs(np.trace(evolved) - 1.0) < 1e-10


class TestOracle:
    def test_closed_system_identity(self, closed3, basis3):
        for seed in (0, 1):
            params = pulses.sample_random_params(3, closed3.n_max,
                                                 closed3.a_max(), seed)
            for j in (0, 4, 7):
                sh = noiseop.shift_observable(basis3.elements[j])
                V = dynamics.oracle_noise_operator(closed3, params,
                                                   sh.shifted)
                assert np.linalg.norm(V - np.eye(3)) < 1e-10

    def test_w_hermitian_under_noise(self, noisy3, random_params3, basis3):
        for j in (0, 3, 7):
            sh = noiseop.shift_observable(basis3.elements[j])
            V = dynamics.oracle_noise_operator(noisy3, random_params3,
                                               sh.shifted)
            W = sh.shifted @ V
            assert np.abs(W - W.conj().T).max() < 1e-10

    def test_expectation_identity(self, noisy3, noisy3_realizations,
                                  random_params3, basis3):
        # tr(V_O U0 rho U0^H O) must reproduce the Monte-Carlo average
        rng = np.random.default_rng(8)
        u0 = dynamics.propagate_closed(noisy3, random_params3)
        u_stack = dynamics.propagate_ensemble(noisy3, random_params3,
                                              noisy3_realizations)
        for _ in range(20):
            rho = random_density(3, rng)
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            O = A + A.conj().T + 4.0 * np.eye(3)  # comfortably invertible
            V = dynamics.oracle_noise_operator(noisy3, random_params3, O)
            lhs = np.trace(V @ u0 @ rho @ u0.conj().T @ O).real
            rhs = np.mean([np.trace(O @ U @ rho @ U.conj().T).real
                           for U in u_stack])
            assert abs(lhs - rhs) < 1e-10

    def test_singular_observable_rejected(self, noisy3, random_params3,
                                          basis3):
        with pytest.raises(InvertibilityError):
            dynamics.oracle_noise_operator(noisy3, random_params3,
                                           basis3.elements[0])


class TestGeneralizationIdentity:
    def test_assembled_matches_direct(self, noisy3, noisy3_realizations,
                                      random_params3, basis3):
        E = dynamics.monte_carlo_expectations(noisy3, random_params3)
        u_stack = dynamics.propagate_ensemble(noisy3, random_params3,
                                              noisy3_realizations)
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = random_density(3, rng)
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            O = A + A.conj().T
            assembled = dynamics.assemble_expectation(E, basis3, rho, O)
            direct = np.mean([np.trace(O @ U @ rho @ U.conj().T).real
                              for U in u_stack])
            assert abs(assembled - direct) < 1e-8

    def test_identity_observable(self, noisy3, random_params3, basis3):
        E = dynamics.monte_carlo_expectations(noisy3, random_params3)
        rng = np.random.default_rng(4)
        rho = random_density(3, rng)
        out = dynamics.assemble_expectation(E, basis3, rho, np.eye(3))
        assert abs(out - 1.0) < 1e-12


class TestMonteCarloScaling:
    def test_standard_error_scales_inverse_sqrt_k(self):
        # SE of ensemble means follows K^{-1/2}: quadrupling K halves it
        # (within the +-30% statistical slack of the group-std estimates)
        cfg = make_config(d=2, steps=160, realizations=512, g=(0.0, 16.0))
        params = pulses.sample_random_params(2, cfg.n_max, cfg.a_max(), 2)
        real_set = dynamics.synthesize_noise(cfg)
        basis = cfg.observable_basis()
        u_stack = dynamics.propagate_ensemble(cfg, params, real_set)
        per_real = np.stack([
            dynamics.expectations_from_propagators(u_stack[r:r + 1], basis)
            for r in range(512)])
        entries = per_real[:, :10]
        se_16 = entries.reshape(32, 16, -1).mean(axis=1).std(axis=0)
        se_64 = entries.reshape(8, 64, -1).mean(axis=1).std(axis=0)
        ratio = se_64 / se_16
        assert 0.35 < np.median(ratio) < 0.65


class TestDataset:
    def test_determinism_and_worker_invariance(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=6, g=(0.0, 16.0))
        ex1, man1 = dynamics.generate_dataset(cfg, 6, seed=3, workers=1)
        ex2, man2 = dynamics.generate_dataset(cfg, 6, seed=3, workers=2)
        assert man1 == man2
        for a, b in zip(ex1, ex2):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.expectations, b.expectations)

    def test_closed_dataset_worker_invariance(self, monkeypatch):
        # 11 examples: one full propagation block and a partial one; the
        # closed path never synthesizes noise
        def no_noise(*args, **kwargs):
            raise AssertionError("closed datasets need no noise ensemble")

        monkeypatch.setattr(noisegen, "synthesize", no_noise)
        cfg = make_config(d=3, steps=96, realizations=4)
        ex1, man1 = dynamics.generate_dataset(cfg, 11, seed=2, workers=1)
        ex2, man2 = dynamics.generate_dataset(cfg, 11, seed=2, workers=2)
        assert man1 == man2
        for a, b in zip(ex1, ex2):
            assert a.theta.tobytes() == b.theta.tobytes()
            assert a.expectations.tobytes() == b.expectations.tobytes()

    def test_zero_noise_dataset_matches_closed_propagation(self):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, _ = dynamics.generate_dataset(cfg, 3, seed=1)
        basis = cfg.observable_basis()
        for ex in examples:
            params = pulses.PulseParams.unflatten(ex.theta, 2, cfg.n_max)
            u0 = dynamics.propagate_closed(cfg, params)
            direct = dynamics.expectations_from_propagators(u0[None], basis)
            np.testing.assert_array_equal(ex.expectations, direct)

    def test_save_load_roundtrip(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples, manifest)
        back, manifest2 = dynamics.load_dataset(path)
        assert manifest2 == manifest
        for a, b in zip(examples, back):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.expectations, b.expectations)

    def test_saved_lines_are_json_of_python_floats(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples, manifest)
        assert path.read_text().splitlines() == [json.dumps({
            "theta": [float(v) for v in ex.theta],
            "expectations": [float(v) for v in ex.expectations]})
            for ex in examples]

    def test_failed_save_keeps_previous_file(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples, manifest)
        before = path.read_bytes()
        # serialisation fails after two examples were written
        broken = examples[:2] + [dynamics.DatasetExample(
            theta=np.array([object()]), expectations=examples[2].expectations)]
        with pytest.raises(DatasetIOError):
            dynamics.save_dataset(path, broken, manifest)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["data.jsonl", "data.jsonl.manifest.json"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["theta", "expectations"])
    def test_non_finite_example_not_saved(self, tmp_path, field, value):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        getattr(examples[2], field)[1] = value
        with pytest.raises(ContractViolationError, match="example 2"):
            dynamics.save_dataset(tmp_path / "data.jsonl", examples, manifest)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["theta", "expectations"])
    def test_load_rejects_non_finite_example(self, tmp_path, field):
        # a NaN token written by another tool, with a matching digest
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples, manifest)
        lines = path.read_bytes().splitlines(keepends=True)
        obj = json.loads(lines[2])
        obj[field][1] = float("nan")
        lines[2] = (json.dumps(obj) + "\n").encode()
        path.write_bytes(b"".join(lines))
        manifest_file = dynamics.manifest_path(path)
        edited = json.loads(open(manifest_file).read())
        edited["examples_sha256"] = hashlib.sha256(b"".join(lines)).hexdigest()
        with open(manifest_file, "w") as fh:
            json.dump(edited, fh)
        with pytest.raises(DatasetIOError, match="example 2 holds a non-fin"):
            dynamics.load_dataset(path)
        out = tmp_path / "m.qgm"
        assert cli.main(["train", "--dataset", str(path), "--out", str(out),
                         "--iters", "1", "--batch", "2"]) == 3
        assert not out.exists()

    def test_load_rejects_config_hash_mismatch(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples, manifest)
        edited = json.loads(open(dynamics.manifest_path(path)).read())
        edited["config"]["realisations"] = 8
        with open(dynamics.manifest_path(path), "w") as fh:
            json.dump(edited, fh)
        with pytest.raises(DatasetIOError, match="config_hash"):
            dynamics.load_dataset(path)

    def test_load_rejects_split_mismatch(self, tmp_path):
        cfg = make_config(d=2, steps=96, realizations=4)
        examples, manifest = dynamics.generate_dataset(cfg, 4, seed=9)
        path = tmp_path / "data.jsonl"
        dynamics.save_dataset(path, examples[:3], manifest)
        with pytest.raises(DatasetIOError, match="split"):
            dynamics.load_dataset(path)

    def test_load_rejects_manifest_of_other_examples(self, tmp_path):
        # same config and split, other seed: only the digest tells them apart
        cfg = make_config(d=2, steps=96, realizations=4)
        for name, seed in (("a.jsonl", 9), ("b.jsonl", 10)):
            dynamics.save_dataset(tmp_path / name,
                                  *dynamics.generate_dataset(cfg, 4, seed=seed))
        os.replace(dynamics.manifest_path(tmp_path / "b.jsonl"),
                   dynamics.manifest_path(tmp_path / "a.jsonl"))
        with pytest.raises(DatasetIOError, match="examples_sha256"):
            dynamics.load_dataset(tmp_path / "a.jsonl")

    def test_manifest_contents(self):
        cfg = make_config(d=2, steps=96, realizations=4)
        _, manifest = dynamics.generate_dataset(cfg, 16, seed=2)
        assert manifest["seed"] == 2
        assert manifest["n_train"] + manifest["n_test"] == 16
        assert manifest["config_hash"] == dynamics.SystemConfig.from_dict(
            manifest["config"]).config_hash()

    def test_reference_split(self):
        # the reference run's split: 10032 examples -> 8192 train, 1840 test
        assert dynamics.dataset_split(10032) == (8192, 1840)
        n_train, n_test = dynamics.dataset_split(1024)
        assert n_train + n_test == 1024 and n_test == 188

    def test_serial_dataset_releases_worker_state(self):
        # the ensemble (954 MB at full scale) must not outlive the call
        cfg = make_config(d=2, steps=96, realizations=6, g=(0.0, 16.0))
        dynamics.generate_dataset(cfg, 2, seed=3, workers=1)
        assert dynamics._WORKER_STATE == {}

    def test_workers_receive_only_the_config(self, monkeypatch):
        # each worker synthesizes the ensemble itself; none is pickled
        initargs = []
        real_pool = multiprocessing.Pool

        def pool(*args, **kwargs):
            initargs.append(kwargs["initargs"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        cfg = make_config(d=2, steps=96, realizations=6, g=(0.0, 16.0))
        dynamics.generate_dataset(cfg, 2, seed=3, workers=2)
        assert [[type(a) for a in args] for args in initargs] == [[dict]]


class TestRowsPerCall:
    """Rows per kernel call follow from the grid, and no budget changes a
    bit: 1 row per call, 3 rows (11 = 3 + 3 + 3 + 2), 4 rows and all rows
    in one call."""

    ROWS = (1, 3, 4, None)

    @staticmethod
    def with_rows(monkeypatch, cfg, rows):
        entries = cfg.carrier.steps * cfg.dim ** 2
        monkeypatch.setattr(_prop_py, "_CALL_ENTRIES",
                            10 ** 9 if rows is None else rows * entries)

    def test_rule(self):
        # desk (1000 steps) and full-scale (13 250 steps) qutrit and qubit
        assert [rows_per_call(1000, 3), rows_per_call(1000, 2),
                rows_per_call(13250, 3), rows_per_call(13250, 2)] == \
            [16, 36, 1, 2]
        assert rows_per_call(10 ** 6, 4) == 1

    def test_ensemble_and_closed_batch(self, monkeypatch, random_params3):
        cfg = make_config(d=3, steps=96, realizations=11, g=STRONG_G3)
        real_set = dynamics.synthesize_noise(cfg)
        thetas = np.stack([pulses.sample_random_params(
            3, cfg.n_max, cfg.a_max(), seed).flatten() for seed in range(11)])
        want_noisy = dynamics.propagate_ensemble(cfg, random_params3,
                                                 real_set).tobytes()
        want_closed = dynamics.propagate_closed_batch(cfg, thetas).tobytes()
        for rows in self.ROWS:
            self.with_rows(monkeypatch, cfg, rows)
            assert dynamics.propagate_ensemble(
                cfg, random_params3, real_set).tobytes() == want_noisy
            assert dynamics.propagate_closed_batch(
                cfg, thetas).tobytes() == want_closed

    @pytest.mark.parametrize("g", [None, STRONG_G3], ids=["closed", "noisy"])
    def test_dataset(self, monkeypatch, g):
        cfg = make_config(d=3, steps=96, realizations=11, g=g)
        n = 11 if cfg.closed else 3

        def blob(workers):
            examples, manifest = dynamics.generate_dataset(
                cfg, n, seed=4, workers=workers)
            return [(ex.theta.tobytes(), ex.expectations.tobytes())
                    for ex in examples], manifest

        want = blob(1)
        for rows in self.ROWS:
            self.with_rows(monkeypatch, cfg, rows)
            assert blob(1) == want
        # the workers are forked, so they see the patched budget
        self.with_rows(monkeypatch, cfg, 3)
        assert blob(2) == want


class TestConfigValidation:
    def test_dimension_mismatches(self, closed3):
        with pytest.raises(InvalidConfigError):
            dynamics.SystemConfig(dim=3, omega=(0.0, 1.0), carrier=closed3.carrier,
                                  g=(0.0,) * 3, noise=closed3.noise)

    def test_basis_tag(self, closed3):
        with pytest.raises(InvalidConfigError):
            dynamics.SystemConfig(dim=3, omega=closed3.omega,
                                  carrier=closed3.carrier, g=closed3.g,
                                  noise=closed3.noise, basis="clock_shift")

    def test_roundtrip_dict(self, noisy3):
        # f_min=None canonicalizes to 1/T on the way through, so compare the
        # canonical dict form and the hash, not dataclass identity
        back = dynamics.SystemConfig.from_dict(noisy3.to_dict())
        assert back.to_dict() == noisy3.to_dict()
        assert back.config_hash() == noisy3.config_hash()
