import json
import struct

import numpy as np
import pytest

from conftest import finite_difference_check, gate_cost, make_config, \
    random_density
from qugray import cli, control, dynamics, graybox, noiseop, pulses
from qugray.errors import ContractViolationError, DatasetIOError, \
    TrainingDiverged


@pytest.fixture(scope="module")
def small_cfg():
    return make_config(d=3, steps=160, realizations=6, g=(0.0, 16.0, 17.45))


@pytest.fixture(scope="module")
def model(small_cfg):
    return graybox.GrayboxModel(small_cfg, seed=3)


def random_batch(model, n=5):
    rng = np.random.default_rng(0)
    a_max = model.config.a_max()
    L = 2 * (model.d - 1) * model.n_max
    thetas = rng.uniform(-a_max, a_max, size=(n, L))
    sigmas = model.precompute_states(thetas)
    targets = rng.uniform(-1, 1, size=(n, model.d * model.n_obs ** 2))
    return thetas, sigmas, targets


@pytest.fixture(scope="module")
def batch(model):
    return random_batch(model)


@pytest.fixture(scope="module", params=[2, 3, 4])
def model_and_batch(request, model, batch):
    if request.param == 3:
        return model, batch
    m = graybox.GrayboxModel(make_config(d=request.param, steps=160,
                                         realizations=6), seed=3)
    return m, random_batch(m)


def pulse_gradient_error(model, seed=0):
    """Relative error of cost_and_grad's pulse gradient against central
    differences of the gate cost at h = 1e-6 a_max; also checks that the
    cost equals gate_cost."""
    rng = np.random.default_rng(seed)
    a_max = model.config.a_max()
    L = 2 * (model.d - 1) * model.n_max
    theta = rng.uniform(-0.6 * a_max, 0.6 * a_max, size=L)
    targets = control.target_expectations(
        model, control.parse_gate("X01", model.d).unitary)
    cost, grad = model.cost_and_grad(theta, targets)
    assert cost == gate_cost(model, theta, targets)
    h = 1e-6 * a_max
    fd = np.array([(gate_cost(model, theta + h * e, targets)
                    - gate_cost(model, theta - h * e, targets))
                   / (2.0 * h) for e in np.eye(L)])
    return np.linalg.norm(grad - fd) / np.linalg.norm(fd)


def directional_errors(f, slope, h0, halvings=4):
    """|central difference of f along a direction at step h - slope| for
    h = h0, h0 / 2, ...; f(h) is the function at x + h v."""
    steps = h0 / 2.0 ** np.arange(halvings)
    return np.array([float(abs((f(h) - f(-h)) / (2.0 * h) - slope))
                     for h in steps])


def assert_second_order(errors, seed):
    """The errors of a correct gradient shrink ~4x as h halves; a wrong
    g . v leaves a floor that stops them shrinking (Farrell, Ham, Funke &
    Rognes, SIAM J. Sci. Comput. 35, C369 (2013))."""
    ratios = errors[:-1] / errors[1:]
    assert (ratios >= 3.0).all(), f"seed {seed}: errors {errors}"


def head_params(model, thetas):
    """NoiseOperatorParams of the heads' outputs, one per (pulse,
    observable) pair in that order."""
    heads = model._heads(model._encode(thetas)[0])
    return [noiseop.NoiseOperatorParams(model.d, *(
        heads[k][b, o] for k in ("r", "theta", "psi", "x", "p")))
        for b in range(len(thetas)) for o in range(model.n_obs)]


def randomize_weights(model, seed, scale):
    rng = np.random.Generator(np.random.Philox(seed))
    for name in model.weights:
        model.weights[name] = rng.normal(scale=scale,
                                         size=model.weights[name].shape)
    return rng


class TestArchitecture:
    def test_head_widths(self, model):
        assert model.head_width == 3 * 3 + 2 * 3
        assert model.weights["head.W"].shape == (model.n_obs, 15, 60)
        # stacked heads: 9 encoder + 4 cell + 2 dense tensors
        assert len(model.weights) == 15
        assert sum(w.size for w in model.weights.values()) == 77580

    def test_output_length(self, model, batch):
        thetas, sigmas, _ = batch
        pred, _ = model.forward_batch(thetas, sigmas)
        assert pred.shape == (5, 3 * 8 * 8)

    @pytest.mark.parametrize("wseed", [0, 1, 2, 17])
    def test_head_ranges_for_arbitrary_weights(self, small_cfg, wseed):
        # activation bounds are structural: any weights give valid params
        m = graybox.GrayboxModel(small_cfg, seed=wseed)
        rng = randomize_weights(m, wseed, scale=3.0)
        theta = rng.uniform(-7, 7, size=40)
        for P in head_params(m, theta[None]):
            assert P.r.min() >= 0.0 and P.r.max() <= 1.0
            assert P.theta.min() >= 0.0 and P.theta.max() <= 2 * np.pi
            assert np.abs(P.x).max() <= 1.0
            assert abs(P.p.sum() - 1.0) < 1e-7 and P.p.min() >= 0.0

    @pytest.mark.parametrize("wseed", [3, 11])
    def test_emitted_w_always_physical(self, small_cfg, wseed):
        m = graybox.GrayboxModel(small_cfg, seed=wseed)
        rng = randomize_weights(m, wseed + 100, scale=2.0)
        for P in head_params(m, rng.uniform(-5, 5, size=(1, 40))):
            W = noiseop.build_W(P)
            evals = np.linalg.eigvalsh(W)
            assert np.abs(W - W.conj().T).max() < 1e-12
            assert np.abs(evals).max() <= 3.0 + 1e-9
            assert abs(evals.sum()) <= 3.0 + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_noise_operators_match_reference_builder(self, d):
        # the batched heads against noiseop's single-matrix builder, for
        # every (pulse, observable) pair at generic weights
        m = graybox.GrayboxModel(make_config(d=d, steps=160, realizations=6),
                                 seed=5)
        rng = randomize_weights(m, d, scale=1.0)
        thetas = rng.uniform(-3, 3, size=(4, 2 * (d - 1) * m.n_max))
        V = m.noise_operators(thetas)
        assert V.shape == (4, d * d - 1, d, d)
        params = iter(head_params(m, thetas))
        for b in range(len(thetas)):
            for o in range(d * d - 1):
                ref = np.linalg.inv(m.shifts[o].shifted) @ \
                    noiseop.build_W(next(params))
                assert np.abs(V[b, o] - ref).max() <= 1e-12

    def test_sequence_shaping(self, model):
        theta = np.arange(40, dtype=float)
        seq = model._sequence(theta[None])
        params = pulses.PulseParams.unflatten(theta, 3, 10)
        for n in range(10):
            np.testing.assert_array_equal(
                seq[n, 0], params.amplitudes[n].reshape(-1))


class DenseHeadsModel(graybox.GrayboxModel):
    """The heads' dense formulation, kept as an oracle: every factor U_l
    embedded as a d x d matrix, prefixes by np.matmul, and G_U_l =
    P_{l-1}^H G_Q S_l^H with the suffix S_l carried by a matrix product."""

    def dense_factors(self, r, s, eth, eps_):
        d = self.d
        shape = (self.n_pairs,) + r.shape[:-1] + (d, d)
        factors = np.broadcast_to(np.eye(d, dtype=complex), shape).copy()
        for l, (p, q) in enumerate(noiseop.pair_order(d)):
            factors[l, ..., p, p] = r[..., l] * eth[..., l]
            factors[l, ..., p, q] = s[..., l] * eps_[..., l]
            factors[l, ..., q, p] = -s[..., l] * eps_[..., l].conj()
            factors[l, ..., q, q] = r[..., l] * eth[..., l].conj()
        return factors

    def _build_q(self, r, s, theta, psi):
        eth, eps_ = np.exp(1j * theta), np.exp(1j * psi)
        factors = self.dense_factors(r, s, eth, eps_)
        prefixes = np.empty_like(factors)
        prefixes[0] = factors[0]
        for l in range(1, self.n_pairs):
            np.matmul(prefixes[l - 1], factors[l], out=prefixes[l])
        return eth, eps_, prefixes

    def _q_back(self, cache, G_W):
        d = self.d
        pairs = noiseop.pair_order(d)
        Q, dd = cache["Q"], cache["dd"]
        r, s = cache["r"], cache["s"]
        factors = self.dense_factors(r, s, cache["eth"], cache["eps"])
        prefixes = cache["prefixes"]
        GQ = G_W @ Q
        g_dd = 2.0 * (Q.conj() * GQ).real.sum(axis=-2)
        G_Q = 2.0 * GQ * dd[..., None, :]
        g_sig = np.empty(cache["sig"].shape)
        suffix = np.broadcast_to(np.eye(d, dtype=complex), Q.shape)
        for l in range(len(pairs) - 1, -1, -1):
            G_U = G_Q @ suffix.conj().swapaxes(-1, -2)
            if l > 0:
                G_U = prefixes[l - 1].conj().swapaxes(-1, -2) @ G_U
            p_, q_ = pairs[l]
            g00, g01 = G_U[..., p_, p_], G_U[..., p_, q_]
            g10, g11 = G_U[..., q_, p_], G_U[..., q_, q_]
            eth, eps_ = cache["eth"][..., l], cache["eps"][..., l]
            rl, sl = r[..., l], s[..., l]
            s_safe = np.maximum(sl, 1e-150)
            g_sig[..., 3 * l] = 2.0 * (
                (g00.conj() * eth + g11.conj() * eth.conj()).real
                + (g01.conj() * eps_ - g10.conj() * eps_.conj()).real
                * (-rl / s_safe))
            g_sig[..., 3 * l + 1] = 2.0 * (
                g00.conj() * 1j * rl * eth
                - g11.conj() * 1j * rl * eth.conj()).real
            g_sig[..., 3 * l + 2] = 2.0 * (
                g01.conj() * 1j * sl * eps_
                + g10.conj() * 1j * sl * eps_.conj()).real
            suffix = factors[l] @ suffix
        return g_sig, g_dd


def assert_close_to_oracle(new, ref, name):
    scale = max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(new - ref).max())
    assert err <= 1e-12 * scale, f"{name}: {err:.3e} at scale {scale:.3e}"


class TestPlaneRotationHeads:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dense_oracle(self, d):
        cfg = make_config(d=d, steps=160, realizations=6)
        m = graybox.GrayboxModel(cfg, hidden=12, seed=7)
        rng = randomize_weights(m, 40 + d, scale=1.0)
        oracle = DenseHeadsModel(cfg, hidden=12, seed=7)
        oracle.weights = m.weights
        thetas = rng.uniform(-3, 3, size=(5, 2 * (d - 1) * m.n_max))
        h_enc = m._encode(thetas)[0]
        new, ref = m._heads(h_enc), oracle._heads(h_enc)
        assert m.n_pairs == d * (d - 1) // 2
        for key in ("Q", "prefixes"):
            assert_close_to_oracle(new[key], ref[key], key)
        Q, dd = ref["Q"], ref["dd"]
        assert_close_to_oracle(new["W"], (Q * dd[..., None, :])
                               @ Q.conj().swapaxes(-1, -2), "W")
        G = rng.normal(size=Q.shape) + 1j * rng.normal(size=Q.shape)
        G_W = G + G.conj().swapaxes(-1, -2)
        for got, want, name in zip(m._q_back(new, G_W),
                                   oracle._q_back(ref, G_W),
                                   ("g_sig", "g_dd")):
            assert_close_to_oracle(got, want, name)
        grads, grads_ref = {}, {}
        gh = m._heads_back(new, G_W, grads)
        gh_ref = oracle._heads_back(ref, G_W, grads_ref)
        assert_close_to_oracle(gh, gh_ref, "encoder-state cotangent")
        assert sorted(grads) == sorted(grads_ref)
        for name in grads:
            assert_close_to_oracle(grads[name], grads_ref[name], name)


class TestLossAndGrad:
    def test_zero_loss_at_targets(self, model, batch):
        thetas, sigmas, _ = batch
        pred, _ = model.forward_batch(thetas, sigmas)
        assert model.loss(thetas, pred, sigmas) == 0.0

    def test_constant_offset_loss(self, model, batch):
        thetas, sigmas, _ = batch
        pred, _ = model.forward_batch(thetas, sigmas)
        c = 0.37
        assert model.loss(thetas, pred - c, sigmas) == pytest.approx(c * c)

    def test_gradient_matches_finite_differences(self, model_and_batch):
        model, (thetas, sigmas, targets) = model_and_batch
        err = finite_difference_check(model, thetas, targets, sigmas,
                                      n_weights=20, step=1e-5, seed=0)
        assert err < 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pulse_gradient_matches_finite_differences(self, d):
        # a generic weight point, so the blackbox branch carries weight
        m = graybox.GrayboxModel(make_config(d=d, steps=160, realizations=6),
                                 seed=3)
        randomize_weights(m, d, scale=0.3)
        assert pulse_gradient_error(m) <= 1e-6

    @pytest.mark.parametrize("kind", ["graybox", "exact"])
    def test_pulse_gradient_makes_no_lapack_call(self, kind, monkeypatch):
        # 600 steps: the tree has nested-list levels as well as stacked ones
        cfg = make_config(d=3, steps=600, realizations=4)
        if kind == "exact":
            m = graybox.ExactClosedModel(cfg)
        else:
            m = graybox.GrayboxModel(cfg, seed=3)
        targets = control.target_expectations(
            m, control.parse_gate("X01", 3).unitary)
        theta = np.random.default_rng(0).uniform(-0.6, 0.6, size=40) \
            * cfg.a_max()
        cost, grad = m.cost_and_grad(theta, targets)

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK call in cost_and_grad")

        for name in ("eigh", "eig", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, lapack)
        patched_cost, patched_grad = m.cost_and_grad(theta, targets)
        assert patched_cost == cost
        np.testing.assert_array_equal(patched_grad, grad)

    def test_gradient_passes_directional_taylor_test(self, model_and_batch):
        # every weight moves at once along a random unit direction, so no
        # single weight needs a resolvable derivative: this passes at the
        # seeds where the single-weight check cannot resolve its sample
        model, (thetas, sigmas, targets) = model_and_batch
        _, grads = model.loss_and_grad(thetas, targets, sigmas)
        base = dict(model.weights)
        try:
            for seed in range(30):
                rng = np.random.default_rng(seed)
                v = {k: rng.standard_normal(w.shape) for k, w in base.items()}
                norm = np.sqrt(sum(np.sum(x * x) for x in v.values()))
                slope = sum(np.sum(grads[k] * v[k]) for k in base) / norm

                def loss_along(h):
                    for k, w in base.items():
                        model.weights[k] = w + (h / norm) * v[k]
                    return model.loss(thetas, targets, sigmas)

                assert_second_order(directional_errors(loss_along, slope,
                                                       h0=0.1), seed)
        finally:
            model.weights.update(base)

    @pytest.mark.parametrize("kind", ["prior-2", "prior-3", "prior-4",
                                      "generic-3", "exact-3"])
    def test_pulse_gradient_passes_directional_taylor_test(self, kind):
        init, d = kind.split("-")
        cfg = make_config(d=int(d), steps=160, realizations=6)
        if init == "exact":
            m = graybox.ExactClosedModel(cfg)
        else:
            m = graybox.GrayboxModel(cfg, seed=3)
            if init == "generic":
                randomize_weights(m, 3, scale=0.3)
        targets = control.target_expectations(
            m, control.parse_gate("X01", m.d).unitary)
        a_max = cfg.a_max()
        L = 2 * (m.d - 1) * m.n_max
        for seed in range(30):
            rng = np.random.default_rng(seed)
            theta = rng.uniform(-0.6 * a_max, 0.6 * a_max, size=L)
            v = rng.standard_normal(L)
            v /= np.linalg.norm(v)
            _, grad = m.cost_and_grad(theta, targets)
            errors = directional_errors(
                lambda h: m.cost_and_grad(theta + h * v, targets)[0],
                grad @ v, h0=1e-2 * a_max)
            assert_second_order(errors, seed)

    def test_loss_and_grad_consistent_with_loss(self, model, batch):
        thetas, sigmas, targets = batch
        loss1, _ = model.loss_and_grad(thetas, targets, sigmas)
        loss2 = model.loss(thetas, targets, sigmas)
        assert loss1 == pytest.approx(loss2, rel=1e-12)


class TestTraining:
    def make_dataset(self, cfg, n=24, seed=5):
        return dynamics.generate_dataset(cfg, n, seed=seed)

    def test_determinism(self, small_cfg):
        examples, manifest = self.make_dataset(small_cfg)
        hyper = graybox.TrainingHyper(iterations=8, batch_size=8, seed=2)
        records = []
        models = []
        for _ in range(2):
            m = graybox.GrayboxModel(small_cfg, seed=1)
            records.append(m.train(examples, manifest, hyper))
            models.append(m)
        assert records[0].train_mse == records[1].train_mse
        assert records[0].test_mse == records[1].test_mse
        for name in models[0].weights:
            np.testing.assert_array_equal(models[0].weights[name],
                                          models[1].weights[name])

    def test_loss_decreases(self, small_cfg):
        # identity-initialized heads start close; training must still improve
        examples, manifest = self.make_dataset(small_cfg)
        m = graybox.GrayboxModel(small_cfg, seed=1)
        hyper = graybox.TrainingHyper(iterations=60, batch_size=16, seed=2)
        record = m.train(examples, manifest, hyper)
        assert record.train_mse[-1] < record.train_mse[0]
        assert record.train_mse[-1] < 1e-2
        assert record.iterations == 60
        assert len(record.test_mse) == 60

    def test_divergence_aborts(self, small_cfg, monkeypatch):
        # the bounded heads keep the loss finite, so exercise the abort
        # machinery through its threshold: a sustained loss above
        # _ABORT_FACTOR * initial must raise after _ABORT_PATIENCE iterations
        monkeypatch.setattr(graybox, "_ABORT_FACTOR", 0.01)
        monkeypatch.setattr(graybox, "_ABORT_PATIENCE", 5)
        examples, manifest = self.make_dataset(small_cfg, n=12)
        m = graybox.GrayboxModel(small_cfg, seed=1)
        hyper = graybox.TrainingHyper(iterations=300, batch_size=8, seed=2)
        with pytest.raises(TrainingDiverged, match="for 5 iterations"):
            m.train(examples, manifest, hyper)

    def test_non_finite_loss_aborts(self, small_cfg):
        # NaN never exceeds the abort threshold, so it needs its own check
        examples, manifest = self.make_dataset(small_cfg, n=12)
        for ex in examples:
            ex.expectations = np.full_like(ex.expectations, np.nan)
        m = graybox.GrayboxModel(small_cfg, seed=1)
        before = {k: v.copy() for k, v in m.weights.items()}
        hyper = graybox.TrainingHyper(iterations=60, batch_size=8, seed=2)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            m.train(examples, manifest, hyper)
        for name, value in m.weights.items():
            np.testing.assert_array_equal(value, before[name])


class TestCheckpoint:
    def test_roundtrip(self, model, batch, tmp_path):
        thetas, sigmas, _ = batch
        path = tmp_path / "model.qg"
        model.dataset_hash = "abc123"
        model.save(path)
        back = graybox.GrayboxModel.load(path)
        assert back.d == model.d and back.n_max == model.n_max
        assert back.dataset_hash == "abc123"
        for name in model.weights:
            np.testing.assert_array_equal(back.weights[name],
                                          model.weights[name])
        pred_a, _ = model.forward_batch(thetas, sigmas)
        pred_b, _ = back.forward_batch(thetas, sigmas)
        np.testing.assert_array_equal(pred_a, pred_b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qg"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(DatasetIOError):
            graybox.GrayboxModel.load(path)

    @pytest.mark.parametrize("keep", [12, 40, -8],
                             ids=["length", "header", "payload"])
    def test_truncated_file_rejected(self, model, tmp_path, keep):
        path = tmp_path / "model.qgm"
        model.save(path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DatasetIOError):
            graybox.GrayboxModel.load(path)

    def test_undecodable_header_rejected(self, model, tmp_path):
        path = tmp_path / "model.qgm"
        model.save(path)
        data = bytearray(path.read_bytes())
        data[16] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetIOError, match="header"):
            graybox.GrayboxModel.load(path)

    @pytest.mark.parametrize("edit", ["shape", "name"])
    def test_foreign_block_rejected(self, model, tmp_path, edit):
        path = tmp_path / "model.qgm"
        model.save(path)
        header, payload = split_model_file(path.read_bytes())
        spec = next(b for b in header["blocks"]
                    if b["shape"] != b["shape"][::-1])
        if edit == "shape":
            spec["shape"] = spec["shape"][::-1]  # same size, wrong layout
        else:
            spec["name"] = "extra.W"
        write_model_file(path, header, payload)
        with pytest.raises(DatasetIOError):
            graybox.GrayboxModel.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, model, tmp_path, value):
        path = tmp_path / "model.qgm"
        model.save(path)
        header, payload = split_model_file(path.read_bytes())
        offset = 0
        for spec in header["blocks"]:
            if spec["name"] == "head.b":
                break
            offset += 8 * int(np.prod(spec["shape"]))
        payload = bytearray(payload)
        payload[offset + 8:offset + 16] = struct.pack("<d", value)
        write_model_file(path, header, bytes(payload))
        with pytest.raises(DatasetIOError, match="head.b"):
            graybox.GrayboxModel.load(path)

    def test_saved_model_predicts_the_same_bits(self, small_cfg, batch,
                                                tmp_path):
        # generic weights, through both prediction entry points; saving the
        # loaded model writes the same bytes
        m = graybox.GrayboxModel(small_cfg, seed=4)
        randomize_weights(m, 4, scale=0.5)
        path = tmp_path / "model.qgm"
        m.save(path)
        back = graybox.GrayboxModel.load(path)
        thetas, sigmas, _ = batch
        assert np.array_equal(back.forward_batch(thetas, sigmas)[0],
                              m.forward_batch(thetas, sigmas)[0])
        for theta in thetas:
            assert np.array_equal(back.expectations(theta),
                                  m.expectations(theta))
        back.save(tmp_path / "again.qgm")
        assert (tmp_path / "again.qgm").read_bytes() == path.read_bytes()

    def test_version1_file_rejected(self, model, tmp_path):
        # version 1 held one block set per observable, obs{o}.Wz, head{o}.W,
        # ..., plus cell blocks that only multiplied the zero state
        H = model.hidden
        blocks = {n: w for n, w in model.weights.items()
                  if n.startswith("enc.")}
        for o in range(model.n_obs):
            for name in ("obs.Wz", "obs.bz", "obs.Wh", "obs.bh", "head.W",
                         "head.b"):
                blocks[name.replace(".", f"{o}.")] = model.weights[name][o]
            for dead in ("Uz", "Ur", "Uh", "Wr"):
                blocks[f"obs{o}.{dead}"] = np.zeros((H, H))
            blocks[f"obs{o}.br"] = np.zeros(H)
        names = sorted(blocks)
        header = {"format": "qugray-model", "version": 1, "dim": model.d,
                  "n_max": model.n_max, "hidden": H, "n_obs": model.n_obs,
                  "seed": model.seed, "dataset_hash": "v1hash",
                  "config": model.config.to_dict(),
                  "blocks": [{"name": n, "shape": list(blocks[n].shape)}
                             for n in names]}
        payload = b"".join(np.ascontiguousarray(blocks[n], dtype="<f8")
                           .tobytes() for n in names)
        path = tmp_path / "v1.qgm"
        write_model_file(path, header, payload)
        with pytest.raises(DatasetIOError, match="version 1"):
            graybox.GrayboxModel.load(path)
        out = tmp_path / "result.json"
        assert cli.main(["optimize", "--model", str(path), "--gate", "X01",
                         "--out", str(out), "--restarts", "1", "--iters", "1",
                         "--workers", "1"]) == 3
        assert not out.exists()

    def test_failed_save_keeps_previous_file(self, small_cfg, tmp_path):
        path = tmp_path / "model.qgm"
        m = graybox.GrayboxModel(small_cfg, seed=3)
        m.save(path)
        before = path.read_bytes()
        # serialisation fails after the header and the first blocks
        m.weights["obs.bz"] = np.array(["not a number"])
        with pytest.raises(DatasetIOError):
            m.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.qgm"]


def split_model_file(data):
    (hlen,) = struct.unpack_from("<Q", data, 8)
    return json.loads(data[16:16 + hlen]), data[16 + hlen:]


def write_model_file(path, header, payload):
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"QGMODEL1" + struct.pack("<Q", len(blob)) + blob
                     + payload)


class TestPredictExpectation:
    def test_collapses_to_table_entry(self, model):
        rng = np.random.default_rng(1)
        theta = rng.uniform(-1, 1, size=40)
        table = model.expectations(theta).reshape(8, 3, 8)
        basis = model.basis
        j = 1
        k = 0
        rho = np.outer(basis.eigenvectors[j][:, k],
                       basis.eigenvectors[j][:, k].conj())
        O = basis.elements[j]
        expected = sum(basis.eigenvalues[j][kk] *
                       np.outer(basis.eigenvectors[j][:, kk],
                                basis.eigenvectors[j][:, kk].conj())
                       for kk in range(3))
        # sanity: observable reconstructs from its eigensystem
        np.testing.assert_allclose(expected, O, atol=1e-12)
        out = model.predict_expectation(theta, rho, O)
        # rho = I/3 + sum_j b_j A_j picks up the tabled entries linearly;
        # for an eigenvector projector the assembly reduces to table values
        direct = dynamics.assemble_expectation(table, basis, rho, O)
        assert out == pytest.approx(direct, abs=1e-12)

    def test_identity_observable_is_one(self, model):
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1, 1, size=40)
        rho = random_density(3, rng)
        assert model.predict_expectation(theta, rho, np.eye(3)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_linear_in_O_affine_in_rho(self, model):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1, 1, size=40)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        O1 = A + A.conj().T
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        O2 = B + B.conj().T
        rho1, rho2 = random_density(3, rng), random_density(3, rng)
        f = model.predict_expectation
        assert f(theta, rho1, 2.0 * O1 - 0.5 * O2) == pytest.approx(
            2.0 * f(theta, rho1, O1) - 0.5 * f(theta, rho1, O2), abs=1e-10)
        lam = 0.3
        mix = lam * rho1 + (1 - lam) * rho2
        assert f(theta, mix, O1) == pytest.approx(
            lam * f(theta, rho1, O1) + (1 - lam) * f(theta, rho2, O1),
            abs=1e-10)

    def test_rejects_non_density(self, model):
        with pytest.raises(ContractViolationError):
            model.predict_expectation(np.zeros(40), np.eye(3), np.eye(3))


class TestStateCache:
    def test_precomputed_rows_match_single_pulses(self):
        cfg = make_config(d=3, steps=160, realizations=4)
        model = graybox.GrayboxModel(cfg, hidden=4, seed=0)
        rng = np.random.default_rng(4)
        # 11 pulses: one full block of propagations and a partial one
        thetas = rng.uniform(-cfg.a_max(), cfg.a_max(), size=(11, 40))
        thetas[6] *= 30.0  # far outside the box: more squarings
        sigmas = model.precompute_states(thetas)
        for theta, sigma in zip(thetas, sigmas):
            assert np.array_equal(sigma,
                                  model.precompute_states(theta[None])[0])


class TestExactClosedModel:
    def test_matches_direct_simulation(self, small_cfg):
        cfg = make_config(d=3, steps=160, realizations=4)
        exact = graybox.ExactClosedModel(cfg)
        params = pulses.sample_random_params(3, cfg.n_max, cfg.a_max(), 8)
        theta = params.flatten()
        E = exact.expectations(theta)
        u0 = dynamics.propagate_closed(cfg, params)
        direct = dynamics.expectations_from_propagators(
            u0[None], cfg.observable_basis())
        np.testing.assert_array_equal(E, direct)

    def test_pulse_gradient_matches_finite_differences(self):
        exact = graybox.ExactClosedModel(make_config(d=3, steps=160,
                                                     realizations=4))
        assert pulse_gradient_error(exact) <= 1e-6

    def test_noise_operators_are_identity(self):
        cfg = make_config(d=3, steps=160, realizations=4)
        exact = graybox.ExactClosedModel(cfg)
        vs = exact.noise_operators(np.zeros((2, 40)))
        assert vs.shape == (2, 8, 3, 3)
        np.testing.assert_array_equal(vs[0, 0], np.eye(3))
