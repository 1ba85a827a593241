"""Hybrid model: exact closed-system propagation composed with a trainable
recurrent blackbox that emits bounded noise-operator parameters.

Blackbox: one encoder GRU consumes the pulse amplitudes as a sequence
(harmonic index is the time axis, 2(d-1) channels per step, so the input
width is independent of n_max); its final hidden state feeds d^2 - 1
per-observable GRU cells (single step from a zero state) topped by dense
heads whose activations enforce the parameter bounds structurally: sigmoids
for (r, Theta/2pi, Psi/2pi), tanh for x, softmax for p. Whatever the weights,
the emitted W = Q D Q^H is a valid bounded noise operator.

Whitebox: the noise operators combine with U_0(theta) through the
expectation identity <O> = tr(V_O U0 rho U0^H O~) - shift, evaluated over the
informationally complete state/observable grid in the dataset ordering.

Gradients are exact reverse-mode derivatives, hand-derived; U_0 carries no
trainable weights and is treated as a constant per example (cached before
training). Training is plain adaptive-moment SGD.

Singular observables use the "interior" shift b = ||O||/2: the exact shifted
noise operator then keeps sum_i |eig| <= d and |trace| <= d, so it stays
inside the image of the bounded parameterization (a b beyond the spectral
range would push the target trace to d*b > d, unreachable for any weights).
"""

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, noiseop
from .algebra import check_density
from .errors import DatasetIOError, InvalidConfigError, TrainingDiverged

_MODEL_MAGIC = b"QGMODEL1"
HIDDEN_UNITS = 60
_GATES = ("z", "r", "h")


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass
class TrainingHyper:
    """Adaptive-moment SGD settings. The step drops by decay_factor for the
    final (1 - decay_at) fraction of iterations; the cool-down settles the
    noise operators' off-data wiggle (visible as spurious curvature in the
    local Taylor surrogates) by roughly an order of magnitude."""

    step_size: float = 1e-3
    iterations: int = 1000
    batch_size: int = 256
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay_at: float = 0.7
    decay_factor: float = 0.1
    abort_factor: float = 10.0
    abort_patience: int = 50


@dataclass
class TrainingRecord:
    train_mse: list = field(default_factory=list)
    test_mse: list = field(default_factory=list)
    wall_time: float = 0.0
    seed: int = 0
    dataset_hash: str = ""

    @property
    def iterations(self):
        return len(self.train_mse)


@dataclass
class ForwardResult:
    params: list          # NoiseOperatorParams per observable
    noise_operators: list  # V_O per observable
    expectations: np.ndarray  # flat, dataset ordering


class GrayboxModel:
    """d^2 - 1 observable streams over a shared pulse encoder."""

    def __init__(self, config, hidden=HIDDEN_UNITS, seed=0):
        self.config = config
        self.d = config.dim
        self.n_max = config.n_max
        self.hidden = hidden
        self.seed = seed
        self.basis = config.observable_basis()
        self.n_obs = len(self.basis)
        self.n_pairs = self.d * (self.d - 1) // 2
        self.head_width = 3 * self.n_pairs + 2 * self.d
        self.in_width = 2 * (self.d - 1)
        self.dataset_hash = ""
        self._init_shift_table()
        self._init_weights(seed)
        self._kets = dynamics.initial_states(self.basis)  # (S, d)

    # -- construction -----------------------------------------------------

    def _init_shift_table(self):
        self.shifts = [noiseop.shift_observable(A, style="interior")
                       for A in self.basis.elements]
        self.obs_shifted = np.stack([s.shifted for s in self.shifts])
        self.obs_inv = np.stack([np.linalg.inv(s.shifted) for s in self.shifts])
        self.obs_b = np.array([s.b for s in self.shifts])

    def _init_weights(self, seed):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(7,))))
        def uni(*shape):
            return rng.uniform(-0.08, 0.08, size=shape)
        w = {}
        for gate in _GATES:
            w[f"enc.W{gate}"] = uni(self.hidden, self.in_width)
            w[f"enc.U{gate}"] = uni(self.hidden, self.hidden)
            w[f"enc.b{gate}"] = uni(self.hidden)
        for o in range(self.n_obs):
            for gate in _GATES:
                w[f"obs{o}.W{gate}"] = uni(self.hidden, self.hidden)
                w[f"obs{o}.U{gate}"] = uni(self.hidden, self.hidden)
                w[f"obs{o}.b{gate}"] = uni(self.hidden)
            w[f"head{o}.W"] = uni(self.head_width, self.hidden)
            w[f"head{o}.b"] = self._identity_bias(o)
        self.weights = w

    def _identity_bias(self, o):
        """Head biases placing the initial output at V_O = I (W = O~): the
        no-noise prior. Starting there instead of at a random noise operator
        removes most of the residual wiggle the blackbox otherwise carries
        through training."""
        target = noiseop.extract_params(self.obs_shifted[o])
        eps = 1e-4
        def logit(v):
            v = np.clip(v, eps, 1.0 - eps)
            return np.log(v / (1.0 - v))
        bias = np.empty(self.head_width)
        bias[0:3 * self.n_pairs:3] = logit(target.r)
        bias[1:3 * self.n_pairs:3] = logit(target.theta / (2 * np.pi))
        bias[2:3 * self.n_pairs:3] = logit(target.psi / (2 * np.pi))
        m3 = 3 * self.n_pairs
        bias[m3:m3 + self.d] = np.arctanh(np.clip(target.x, -1 + eps, 1 - eps))
        bias[m3 + self.d:] = np.log(np.clip(target.p, 1e-6, None))
        return bias

    def weight_names(self):
        return sorted(self.weights)

    # -- whitebox caches ---------------------------------------------------

    def state_stack(self, theta):
        """sigma_s = U0 |q_s><q_s| U0^H for one flattened pulse vector."""
        from . import pulses
        params = pulses.PulseParams.unflatten(np.asarray(theta, float),
                                              self.d, self.n_max)
        u0 = dynamics.propagate_closed(self.config, params)
        psi = self._kets @ u0.T  # (S, d)
        return np.einsum("sa,sb->sab", psi, psi.conj()), u0

    # -- blackbox forward --------------------------------------------------

    def _sequence(self, thetas):
        """(B, L) -> (n_max, B, 2(d-1)); harmonic index is the sequence axis."""
        B = thetas.shape[0]
        amps = thetas.reshape(B, self.d - 1, 2, self.n_max)
        return np.ascontiguousarray(amps.transpose(3, 0, 1, 2).reshape(
            self.n_max, B, self.in_width))

    def _gru_step(self, prefix, x, h):
        w = self.weights
        az = x @ w[f"{prefix}.Wz"].T + h @ w[f"{prefix}.Uz"].T + w[f"{prefix}.bz"]
        ar = x @ w[f"{prefix}.Wr"].T + h @ w[f"{prefix}.Ur"].T + w[f"{prefix}.br"]
        z = _sigmoid(az)
        r = _sigmoid(ar)
        ah = x @ w[f"{prefix}.Wh"].T + (r * h) @ w[f"{prefix}.Uh"].T + w[f"{prefix}.bh"]
        hbar = np.tanh(ah)
        h_new = (1.0 - z) * hbar + z * h
        return h_new, (x, h, z, r, hbar)

    def _gru_step_back(self, prefix, cache, gh, grads):
        w = self.weights
        x, h, z, r, hbar = cache
        ghbar = gh * (1.0 - z)
        gz = gh * (h - hbar)
        gah = ghbar * (1.0 - hbar ** 2)
        gaz = gz * z * (1.0 - z)
        grh = gah @ w[f"{prefix}.Uh"]
        gr = grh * h
        gar = gr * r * (1.0 - r)
        grads[f"{prefix}.Wh"] += gah.T @ x
        grads[f"{prefix}.Uh"] += gah.T @ (r * h)
        grads[f"{prefix}.bh"] += gah.sum(axis=0)
        grads[f"{prefix}.Wz"] += gaz.T @ x
        grads[f"{prefix}.Uz"] += gaz.T @ h
        grads[f"{prefix}.bz"] += gaz.sum(axis=0)
        grads[f"{prefix}.Wr"] += gar.T @ x
        grads[f"{prefix}.Ur"] += gar.T @ h
        grads[f"{prefix}.br"] += gar.sum(axis=0)
        gx = gaz @ w[f"{prefix}.Wz"] + gar @ w[f"{prefix}.Wr"] + gah @ w[f"{prefix}.Wh"]
        gh_prev = gh * z + grh * r + gaz @ w[f"{prefix}.Uz"] + gar @ w[f"{prefix}.Ur"]
        return gx, gh_prev

    def _encode(self, thetas):
        seq = self._sequence(thetas)
        B = thetas.shape[0]
        h = np.zeros((B, self.hidden))
        caches = []
        for step in range(self.n_max):
            h, cache = self._gru_step("enc", seq[step], h)
            caches.append(cache)
        return h, caches

    def _head(self, o, h_enc):
        """Observable stream o: gated cell + activations -> bounded params."""
        zero = np.zeros_like(h_enc)
        h_o, gru_cache = self._gru_step(f"obs{o}", h_enc, zero)
        w, b = self.weights[f"head{o}.W"], self.weights[f"head{o}.b"]
        y = h_o @ w.T + b
        m3 = 3 * self.n_pairs
        sig = _sigmoid(y[:, :m3])
        x = np.tanh(y[:, m3:m3 + self.d])
        p = _softmax(y[:, m3 + self.d:])
        r = sig[:, 0::3]
        theta = 2.0 * np.pi * sig[:, 1::3]
        psi = 2.0 * np.pi * sig[:, 2::3]
        cache = (gru_cache, h_o, y, sig, x, p)
        return (r, theta, psi, x, p), cache

    def _build_blocks(self, r, theta, psi):
        """(B, m) params -> (B, m, 2, 2) subunitaries plus s = sqrt(1-r^2)."""
        s = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
        eth = np.exp(1j * theta)
        eps_ = np.exp(1j * psi)
        blocks = np.empty(r.shape + (2, 2), dtype=complex)
        blocks[..., 0, 0] = r * eth
        blocks[..., 0, 1] = s * eps_
        blocks[..., 1, 0] = -s * eps_.conj()
        blocks[..., 1, 1] = r * eth.conj()
        return blocks, s

    def _build_q(self, blocks):
        """Ordered product of embedded blocks; returns per-factor matrices and
        the left-prefix products needed by the backward pass."""
        B = blocks.shape[0]
        d = self.d
        pairs = noiseop.pair_order(d)
        factors = np.tile(np.eye(d, dtype=complex), (B, len(pairs), 1, 1))
        for l, (p, q) in enumerate(pairs):
            factors[:, l, p, p] = blocks[:, l, 0, 0]
            factors[:, l, p, q] = blocks[:, l, 0, 1]
            factors[:, l, q, p] = blocks[:, l, 1, 0]
            factors[:, l, q, q] = blocks[:, l, 1, 1]
        prefixes = np.empty_like(factors)  # prefixes[:, l] = U_0 ... U_l
        acc = factors[:, 0]
        prefixes[:, 0] = acc
        for l in range(1, len(pairs)):
            acc = acc @ factors[:, l]
            prefixes[:, l] = acc
        return factors, prefixes

    def forward_batch(self, thetas, sigma_stacks, want_cache=False):
        """Batched expectations (B, S * n_obs) in the dataset ordering."""
        thetas = np.asarray(thetas, dtype=float)
        B = thetas.shape[0]
        h_enc, enc_caches = self._encode(thetas)
        S = self._kets.shape[0]
        out = np.empty((B, S, self.n_obs))
        caches = {"enc": enc_caches, "h_enc": h_enc, "obs": []}
        for o in range(self.n_obs):
            (r, theta, psi, x, p), head_cache = self._head(o, h_enc)
            blocks, s = self._build_blocks(r, theta, psi)
            factors, prefixes = self._build_q(blocks)
            Q = prefixes[:, -1]
            dd = self.d * (p * x)  # (B, d) diagonal of D
            W = np.einsum("bij,bj,bkj->bik", Q, dd, Q.conj())
            V = np.einsum("ij,bjk->bik", self.obs_inv[o], W)
            raw = np.einsum("bij,bsjk,ki->bs", V, sigma_stacks,
                            self.obs_shifted[o]).real
            out[:, :, o] = raw - self.obs_b[o]
            if want_cache:
                caches["obs"].append({
                    "head": head_cache, "r": r, "theta": theta, "psi": psi,
                    "x": x, "p": p, "s": s, "factors": factors,
                    "prefixes": prefixes, "Q": Q, "dd": dd,
                })
        return out.reshape(B, S * self.n_obs), caches

    # -- loss and exact gradients ------------------------------------------

    def loss(self, thetas, targets, sigma_stacks):
        pred, _ = self.forward_batch(thetas, sigma_stacks)
        return float(np.mean((pred - np.asarray(targets)) ** 2))

    def loss_and_grad(self, thetas, targets, sigma_stacks):
        """Exact reverse-mode gradient of the MSE over every weight.

        Complex intermediates use the conjugate-cotangent convention
        G_X = dL/d(conj X); for a real parameter t entering through X the
        chain rule is dL/dt = 2 Re sum(conj(G_X) * dX/dt).
        """
        thetas = np.asarray(thetas, dtype=float)
        targets = np.asarray(targets, dtype=float)
        B = thetas.shape[0]
        S = self._kets.shape[0]
        pred, caches = self.forward_batch(thetas, sigma_stacks, want_cache=True)
        resid = pred - targets
        loss = float(np.mean(resid ** 2))
        g_out = (2.0 / resid.size) * resid.reshape(B, S, self.n_obs)
        grads = {name: np.zeros_like(arr) for name, arr in self.weights.items()}
        gh_enc = np.zeros((B, self.hidden))
        pairs = noiseop.pair_order(self.d)
        m = len(pairs)
        for o in range(self.n_obs):
            cache = caches["obs"][o]
            gE = g_out[:, :, o]  # (B, S)
            # E = Re tr(O~^-1 W sigma O~) - b  =>  G_W = 1/2 sum_s gE sigma_s
            G_W = 0.5 * np.einsum("bs,bsjk->bjk", gE, sigma_stacks)
            Q, dd = cache["Q"], cache["dd"]
            # D diagonal: dL/d dd_i = 2 Re (Q^H G_W Q)_ii
            QhGQ = np.einsum("bji,bjk,bkl->bil", Q.conj(), G_W, Q)
            g_dd = 2.0 * np.einsum("bii->bi", QhGQ).real
            gx = g_dd * self.d * cache["p"]
            gp = g_dd * self.d * cache["x"]
            # G_Q = (G_W + G_W^H) Q D = 2 G_W Q D for Hermitian G_W
            G_Q = 2.0 * np.einsum("bij,bjk,bk->bik", G_W, Q, dd)
            # distribute over the ordered factors
            factors, prefixes = cache["factors"], cache["prefixes"]
            suffix = np.tile(np.eye(self.d, dtype=complex), (B, 1, 1))
            g_r = np.empty((B, m))
            g_th = np.empty((B, m))
            g_ps = np.empty((B, m))
            r, s = cache["r"], cache["s"]
            theta, psi = cache["theta"], cache["psi"]
            for l in range(m - 1, -1, -1):
                left = prefixes[:, l - 1] if l > 0 else None
                if left is None:
                    G_U = np.einsum("bij,bkj->bik", G_Q, suffix.conj())
                else:
                    G_U = np.einsum("bji,bjk,blk->bil", left.conj(), G_Q,
                                    suffix.conj())
                p_, q_ = pairs[l]
                g00 = G_U[:, p_, p_]
                g01 = G_U[:, p_, q_]
                g10 = G_U[:, q_, p_]
                g11 = G_U[:, q_, q_]
                eth = np.exp(1j * theta[:, l])
                eps_ = np.exp(1j * psi[:, l])
                rl, sl = r[:, l], s[:, l]
                s_safe = np.maximum(sl, 1e-150)
                # d block / d r has ds/dr = -r/s on the off-diagonal entries
                g_r[:, l] = 2.0 * (
                    (g00.conj() * eth + g11.conj() * eth.conj()).real
                    + (g01.conj() * eps_ - g10.conj() * eps_.conj()).real
                    * (-rl / s_safe))
                g_th[:, l] = 2.0 * (g00.conj() * 1j * rl * eth
                                    - g11.conj() * 1j * rl * eth.conj()).real
                g_ps[:, l] = 2.0 * (g01.conj() * 1j * sl * eps_
                                    + g10.conj() * 1j * sl * eps_.conj()).real
                suffix = factors[:, l] @ suffix
            # activations back to the head pre-activations
            head_cache = cache["head"]
            gru_cache, h_o, y, sig, x, p = head_cache
            gy = np.empty_like(y)
            m3 = 3 * m
            rs, ths, pss = sig[:, 0::3], sig[:, 1::3], sig[:, 2::3]
            gy[:, 0:m3:3] = g_r * rs * (1.0 - rs)
            gy[:, 1:m3:3] = g_th * 2.0 * np.pi * ths * (1.0 - ths)
            gy[:, 2:m3:3] = g_ps * 2.0 * np.pi * pss * (1.0 - pss)
            gy[:, m3:m3 + self.d] = gx * (1.0 - x ** 2)
            gp_dot = (gp * p).sum(axis=1, keepdims=True)
            gy[:, m3 + self.d:] = p * (gp - gp_dot)
            grads[f"head{o}.W"] += gy.T @ h_o
            grads[f"head{o}.b"] += gy.sum(axis=0)
            gh_o = gy @ self.weights[f"head{o}.W"]
            gx_in, _ = self._gru_step_back(f"obs{o}", gru_cache, gh_o, grads)
            gh_enc += gx_in
        # encoder BPTT
        gh = gh_enc
        for step in range(self.n_max - 1, -1, -1):
            _, gh = self._gru_step_back("enc", caches["enc"][step], gh, grads)
        return loss, grads

    # -- public single-pulse API -------------------------------------------

    def forward(self, theta):
        """Full result for one flattened pulse vector."""
        theta = np.asarray(theta, dtype=float)
        sigma, _ = self.state_stack(theta)
        pred, caches = self.forward_batch(theta[None, :], sigma[None, ...],
                                          want_cache=True)
        params = []
        v_list = []
        for o in range(self.n_obs):
            cache = caches["obs"][o]
            params.append(noiseop.NoiseOperatorParams(
                dim=self.d, r=cache["r"][0], theta=cache["theta"][0],
                psi=cache["psi"][0], x=cache["x"][0], p=cache["p"][0]))
            W = (cache["Q"][0] * cache["dd"][0]) @ cache["Q"][0].conj().T
            v_list.append(self.obs_inv[o] @ W)
        return ForwardResult(params=params, noise_operators=v_list,
                             expectations=pred[0])

    def expectations(self, theta):
        """Predicted expectation vector for one pulse (dataset ordering)."""
        theta = np.asarray(theta, dtype=float)
        sigma, _ = self.state_stack(theta)
        pred, _ = self.forward_batch(theta[None, :], sigma[None, ...])
        return pred[0]

    def noise_operators(self, thetas):
        """V_O samples without any propagation: (B, n_obs, d, d)."""
        thetas = np.asarray(thetas, dtype=float)
        h_enc, _ = self._encode(thetas)
        out = np.empty((thetas.shape[0], self.n_obs, self.d, self.d),
                       dtype=complex)
        for o in range(self.n_obs):
            (r, theta, psi, x, p), _ = self._head(o, h_enc)
            blocks, _ = self._build_blocks(r, theta, psi)
            _, prefixes = self._build_q(blocks)
            Q = prefixes[:, -1]
            dd = self.d * (p * x)
            W = np.einsum("bij,bj,bkj->bik", Q, dd, Q.conj())
            out[:, o] = np.einsum("ij,bjk->bik", self.obs_inv[o], W)
        return out

    def predict_expectation(self, theta, rho, O):
        """Expectation of an arbitrary observable from an arbitrary state via
        the generalization identity over the predicted basis table."""
        rho = check_density(np.asarray(rho, dtype=complex), atol=1e-9,
                            name="rho")
        table = self.expectations(theta).reshape(self.n_obs, self.d,
                                                 self.n_obs)
        return dynamics.assemble_expectation(table, self.basis, rho, O)

    # -- training ------------------------------------------------------------

    def precompute_states(self, thetas):
        """sigma stacks for many pulses; U_0 has no weights so this runs once."""
        sigmas = np.empty((len(thetas), self._kets.shape[0], self.d, self.d),
                          dtype=complex)
        for i, theta in enumerate(thetas):
            sigmas[i], _ = self.state_stack(theta)
        return sigmas

    def train(self, examples, manifest, hyper=None, log_every=None):
        hyper = hyper or TrainingHyper()
        n_train = int(manifest["n_train"])
        n_test = int(manifest["n_test"])
        if n_train + n_test > len(examples):
            raise InvalidConfigError("manifest split exceeds dataset size")
        thetas = np.stack([ex.theta for ex in examples])
        targets = np.stack([ex.expectations for ex in examples])
        sigmas = self.precompute_states(thetas)
        tr = slice(0, n_train)
        te = slice(n_train, n_train + n_test)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=hyper.seed, spawn_key=(11,))))
        mom = {k: np.zeros_like(v) for k, v in self.weights.items()}
        vel = {k: np.zeros_like(v) for k, v in self.weights.items()}
        record = TrainingRecord(seed=hyper.seed,
                                dataset_hash=manifest.get("config_hash", ""))
        self.dataset_hash = record.dataset_hash
        start = time.perf_counter()
        initial_loss = None
        bad_streak = 0
        batch = min(hyper.batch_size, n_train)
        for it in range(1, hyper.iterations + 1):
            idx = rng.choice(n_train, size=batch, replace=False)
            loss, grads = self.loss_and_grad(thetas[idx], targets[idx],
                                             sigmas[idx])
            # a NaN loss compares False against the abort threshold below
            if not (np.isfinite(loss) and
                    all(np.isfinite(g).all() for g in grads.values())):
                raise TrainingDiverged(
                    f"non-finite loss ({loss:.3e}) or gradient at "
                    f"iteration {it}")
            if initial_loss is None:
                initial_loss = loss
            if loss > hyper.abort_factor * initial_loss:
                bad_streak += 1
                if bad_streak >= hyper.abort_patience:
                    raise TrainingDiverged(
                        f"loss {loss:.3e} stayed above {hyper.abort_factor} x "
                        f"initial ({initial_loss:.3e}) for "
                        f"{hyper.abort_patience} iterations")
            else:
                bad_streak = 0
            b1c = 1.0 - hyper.beta1 ** it
            b2c = 1.0 - hyper.beta2 ** it
            step = hyper.step_size
            if it > hyper.decay_at * hyper.iterations:
                step *= hyper.decay_factor
            for name, g in grads.items():
                mom[name] = hyper.beta1 * mom[name] + (1 - hyper.beta1) * g
                vel[name] = hyper.beta2 * vel[name] + (1 - hyper.beta2) * g * g
                self.weights[name] -= step * (mom[name] / b1c) / (
                    np.sqrt(vel[name] / b2c) + hyper.eps)
            test_loss = (self.loss(thetas[te], targets[te], sigmas[te])
                         if n_test > 0 else float("nan"))
            record.train_mse.append(loss)
            record.test_mse.append(test_loss)
            if log_every and it % log_every == 0:
                print(f"iter {it:5d}  train {loss:.3e}  test {test_loss:.3e}")
        record.wall_time = time.perf_counter() - start
        return record

    # -- persistence ---------------------------------------------------------

    def save(self, path, extra_header=None):
        header = {
            "format": "qugray-model",
            "version": 1,
            "dim": self.d,
            "n_max": self.n_max,
            "hidden": self.hidden,
            "n_obs": self.n_obs,
            "seed": self.seed,
            "dataset_hash": self.dataset_hash,
            "config": self.config.to_dict(),
            "shift_b": [float(b) for b in self.obs_b],
            "blocks": [{"name": n, "shape": list(self.weights[n].shape)}
                       for n in self.weight_names()],
        }
        if extra_header:
            header.update(extra_header)
        blob = json.dumps(header, sort_keys=True).encode()
        try:
            with open(path, "wb") as fh:
                fh.write(_MODEL_MAGIC)
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
                for name in self.weight_names():
                    fh.write(np.ascontiguousarray(
                        self.weights[name], dtype="<f8").tobytes())
        except OSError as exc:
            raise DatasetIOError(f"cannot write model: {exc}") from exc

    @classmethod
    def load(cls, path):
        try:
            with open(path, "rb") as fh:
                magic = fh.read(8)
                if magic != _MODEL_MAGIC:
                    raise DatasetIOError(f"{path}: not a model file")
                (hlen,) = struct.unpack("<Q", fh.read(8))
                header = json.loads(fh.read(hlen).decode())
                payload = fh.read()
        except OSError as exc:
            raise DatasetIOError(f"cannot read model: {exc}") from exc
        if header.get("format") != "qugray-model" or header.get("version") != 1:
            raise DatasetIOError(f"{path}: unsupported model format")
        config = dynamics.SystemConfig.from_dict(header["config"])
        model = cls(config, hidden=header["hidden"], seed=header["seed"])
        offset = 0
        for spec in header["blocks"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape))
            arr = np.frombuffer(payload, dtype="<f8", count=count,
                                offset=offset).reshape(shape)
            model.weights[spec["name"]] = arr.astype(float)
            offset += count * 8
        if offset != len(payload):
            raise DatasetIOError(f"{path}: weight payload size mismatch")
        model.dataset_hash = header.get("dataset_hash", "")
        return model


class ExactClosedModel:
    """Analytic stand-in with V_O = I exactly; the model a perfect closed
    system would train to. Used for oracle-style tests and cost sanity."""

    def __init__(self, config):
        if not config.closed:
            raise InvalidConfigError("exact model only describes g = 0")
        self.config = config
        self.d = config.dim
        self.n_max = config.n_max
        self.basis = config.observable_basis()
        self.n_obs = len(self.basis)
        self._kets = dynamics.initial_states(self.basis)

    def expectations(self, theta):
        from . import pulses
        params = pulses.PulseParams.unflatten(np.asarray(theta, float),
                                              self.d, self.n_max)
        u0 = dynamics.propagate_closed(self.config, params)
        return dynamics.expectations_from_propagators(u0[None], self.basis)

    def noise_operators(self, thetas):
        B = np.asarray(thetas).shape[0]
        eye = np.eye(self.d, dtype=complex)
        return np.broadcast_to(eye, (B, self.n_obs, self.d, self.d)).copy()


def finite_difference_check(model, thetas, targets, sigmas, n_weights=20,
                            step=1e-5, seed=0):
    """Compare analytic gradients against central differences on a sample of
    weights; returns the worst relative error."""
    _, grads = model.loss_and_grad(thetas, targets, sigmas)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(13,))))
    names = model.weight_names()
    worst = 0.0
    for _ in range(n_weights):
        name = names[rng.integers(len(names))]
        arr = model.weights[name]
        flat_idx = int(rng.integers(arr.size))
        idx = np.unravel_index(flat_idx, arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        up = model.loss(thetas, targets, sigmas)
        arr[idx] = orig - step
        down = model.loss(thetas, targets, sigmas)
        arr[idx] = orig
        fd = (up - down) / (2 * step)
        an = grads[name][idx]
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst
