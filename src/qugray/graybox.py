"""Hybrid model: exact closed-system propagation composed with a trainable
recurrent blackbox that emits bounded noise-operator parameters.

Blackbox: one encoder GRU consumes the pulse amplitudes as a sequence
(harmonic index is the time axis, 2(d-1) channels per step, so the input
width is independent of n_max). Its final hidden state x feeds d^2 - 1
observable heads, evaluated together from weights stacked on a leading
observable axis: a gated cell h = (1 - sigmoid(W_z x + b_z)) tanh(W_h x + b_h)
(a GRU step from the zero state) under a dense layer whose activations
enforce the parameter bounds structurally: sigmoids for (r, Theta/2pi,
Psi/2pi), tanh for x, softmax for p. Whatever the weights, the emitted
W = Q D Q^H is a valid bounded noise operator.

Plane-rotation heads: Q = U_0 U_1 ... U_{m-1} is an ordered product of
two-level factors, one per level pair (p, q) (Reck, Zeilinger, Bernstein &
Bertani, PRL 73, 58 (1994); learned as in Youssry et al., npj Quantum Inf.
6, 95 (2020)). Right-multiplying by U_l changes only columns p and q, so
each prefix U_0 ... U_l is two column updates of the one before, on the
whole (batch, observable) stack at once; no d x d factor is formed. The
backward pass sweeps T = G_Q (U_{l+1} ... U_{m-1})^H from the last factor
down by the same two-column update, T <- T U_l^H, and forms only the (p, q)
block of each factor's cotangent, sum_c conj(prefix_{l-1}[c, a]) T[c, b].
The two remaining products, W = (Q D) Q^H and G_W Q, are d broadcast
multiply-adds over the leading axes (`_mm`): np.matmul would multiply the
stack one small matrix at a time.

Whitebox: with V_O = O~^-1 W_O, the expectation identity
<O> = tr(V_O U0 rho U0^H O~) - shift = Re tr(W_O U0 rho U0^H) - shift is
evaluated over the informationally complete state/observable grid in the
dataset ordering.

Gradients are exact reverse-mode derivatives, hand-derived; U_0 carries no
trainable weights and is treated as a constant per example (cached before
training). Training is plain adaptive-moment SGD. The same reverse mode gives
the gate cost's pulse gradient (`cost_and_grad`): through the encoder input,
and through U_0 by the propagation kernel's adjoint pullback, which takes
each step's derivative by a complex step through the kernel's own cos/sin
and the cotangents by a reverse sweep down the tree that built U_0.

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

from . import dynamics, fileio, noiseop, pulses, streams
from .algebra import check_density
from .errors import DatasetIOError, InvalidConfigError, QugrayError, \
    TrainingDiverged

_MODEL_MAGIC = b"QGMODEL1"
_MODEL_VERSION = 2
HIDDEN_UNITS = 60
_GATES = ("z", "r", "h")


def _sigmoid(x, out=None):
    # 0.5 (1 + tanh(x / 2)): branch-free, and no overflow for any x
    out = np.multiply(0.5, x, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _unflatten(config, theta):
    return pulses.PulseParams.unflatten(np.asarray(theta, dtype=float),
                                        config.dim, config.n_max)


def _mm(a, b):
    """a @ b for stacks of small matrices, as d broadcast products summed
    in order of the inner index: np.matmul multiplies such a stack one
    matrix at a time."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _states(kets, u0s):
    """The evolved states psi_s = U_0 q_s and sigma_s = psi_s psi_s^H for a
    (B, d, d) stack of U_0 -> (B, S, d), (B, S, d, d). Elementwise products
    summed in a fixed order, so a pulse's states are the same bits whatever
    else is in the stack."""
    psi = _mm(kets, u0s.swapaxes(-1, -2))
    return psi, psi[..., :, None] * psi.conj()[..., None, :]


def _state_pullback(config, tape, kets, psi, g, W):
    """dL/dtheta through U_0 alone, for predictions Re tr(W_o sigma_s) with
    sigma_s = psi_s psi_s^H, psi_s = U_0 q_s, and g[s, o] = dL/d prediction;
    `tape` is U_0's closed_forward tape.
    With W_h the Hermitian part of W, G_U = sum_so g_so W_h,o psi_s q_s^H."""
    W_h = 0.5 * (W + W.conj().swapaxes(-1, -2))
    G_U = np.einsum("so,oab,sb,sc->ac", g, W_h, psi, kets.conj())
    return dynamics.pullback_propagate_closed(config, tape, G_U)


def _real_view(a):
    """(..., d, d) complex -> (..., 2 d^2) float, real and imaginary parts
    interleaved, so Re sum_jk a_jk conj(b_jk) is one real dot product."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(a.shape[:-2] + (-1,))


# Adam's moment decays and guard; the step drops by _DECAY_FACTOR for the
# final (1 - _DECAY_AT) fraction of iterations, a cool-down that settles the
# noise operators' off-data wiggle (spurious curvature in the local Taylor
# surrogates) by roughly an order of magnitude
_BETA1, _BETA2, _ADAM_EPS, _DECAY_AT, _DECAY_FACTOR = 0.9, 0.999, 1e-8, 0.7, 0.1
# training aborts once the loss stays above _ABORT_FACTOR x its first value
# for _ABORT_PATIENCE iterations in a row
_ABORT_FACTOR, _ABORT_PATIENCE = 10.0, 50
# the test-set loss is evaluated every _EVAL_EVERY iterations (and at every
# logged and the final iteration): on the paper's split it costs about four
# training steps
_EVAL_EVERY = 10


@dataclass
class TrainingHyper:
    """Adaptive-moment SGD settings."""

    step_size: float = 1e-3
    iterations: int = 1000
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1:
            raise InvalidConfigError("training needs iterations >= 1 and "
                                     "batch_size >= 1")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise InvalidConfigError(f"step size {self.step_size}: needs a "
                                     "finite value > 0")


@dataclass
class TrainingRecord:
    """train_mse holds every iteration's batch loss; test_mse[j] is the
    test-set loss after iteration eval_iterations[j] (1-based)."""

    train_mse: list = field(default_factory=list)
    test_mse: list = field(default_factory=list)
    eval_iterations: list = field(default_factory=list)
    wall_time: float = 0.0
    seed: int = 0
    dataset_hash: str = ""

    @property
    def iterations(self):
        return len(self.train_mse)


class GrayboxModel:
    """d^2 - 1 observable heads over a shared pulse encoder."""

    def __init__(self, config, hidden=HIDDEN_UNITS, seed=0):
        self._init_layout(config, hidden, seed)
        self.weights = self._initial_weights(seed)

    # -- construction -----------------------------------------------------

    def _init_layout(self, config, hidden, seed):
        """Everything but the weights; `load` reads those from the file."""
        if hidden < 1:
            raise InvalidConfigError(f"hidden width {hidden}: needs >= 1")
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
        self._kets = dynamics.initial_states(self.basis)  # (S, d)

    def _init_shift_table(self):
        self.shifts = [noiseop.shift_observable(A, style="interior")
                       for A in self.basis.elements]
        self.obs_shifted = np.stack([s.shifted for s in self.shifts])
        self.obs_inv = np.stack([np.linalg.inv(s.shifted) for s in self.shifts])
        self.obs_b = np.array([s.b for s in self.shifts])

    def _weight_shapes(self):
        """Name -> shape of every weight block, in the order in which the
        initial weights are drawn."""
        H, O = self.hidden, self.n_obs
        shapes = {}
        for gate in _GATES:
            shapes[f"enc.W{gate}"] = (H, self.in_width)
            shapes[f"enc.U{gate}"] = (H, H)
            shapes[f"enc.b{gate}"] = (H,)
        for gate in ("z", "h"):
            shapes[f"obs.W{gate}"] = (O, H, H)
            shapes[f"obs.b{gate}"] = (O, H)
        shapes["head.W"] = (O, self.head_width, H)
        shapes["head.b"] = (O, self.head_width)
        return shapes

    def _initial_weights(self, seed):
        rng = streams.generator(seed, streams.WEIGHT_INIT)
        w = {name: rng.uniform(-0.08, 0.08, size=shape)
             for name, shape in self._weight_shapes().items()
             if name != "head.b"}
        w["head.b"] = np.stack([self._identity_bias(o)
                                for o in range(self.n_obs)])
        return w

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

    # -- blackbox forward --------------------------------------------------

    def _sequence(self, thetas):
        """(B, L) -> (n_max, B, 2(d-1)); harmonic index is the sequence axis."""
        amps = thetas.reshape(len(thetas), self.d - 1, 2, self.n_max)
        return np.ascontiguousarray(amps.transpose(3, 0, 1, 2).reshape(
            self.n_max, len(thetas), self.in_width))

    def _gru_step(self, x, h):
        """One encoder GRU step."""
        w = self.weights
        z = _sigmoid(x @ w["enc.Wz"].T + h @ w["enc.Uz"].T + w["enc.bz"])
        r = _sigmoid(x @ w["enc.Wr"].T + h @ w["enc.Ur"].T + w["enc.br"])
        hbar = np.tanh(x @ w["enc.Wh"].T + (r * h) @ w["enc.Uh"].T
                       + w["enc.bh"])
        return (1.0 - z) * hbar + z * h, (x, h, z, r, hbar)

    def _gru_step_back(self, cache, gh, grads):
        """Reverse of _gru_step: weight gradients into grads; returns the
        cotangents of the previous state and of the input."""
        w = self.weights
        x, h, z, r, hbar = cache
        gah = gh * (1.0 - z) * (1.0 - hbar ** 2)
        gaz = gh * (h - hbar) * z * (1.0 - z)
        grh = gah @ w["enc.Uh"]
        gar = grh * h * r * (1.0 - r)
        grads["enc.Wh"] += gah.T @ x
        grads["enc.Uh"] += gah.T @ (r * h)
        grads["enc.bh"] += gah.sum(axis=0)
        grads["enc.Wz"] += gaz.T @ x
        grads["enc.Uz"] += gaz.T @ h
        grads["enc.bz"] += gaz.sum(axis=0)
        grads["enc.Wr"] += gar.T @ x
        grads["enc.Ur"] += gar.T @ h
        grads["enc.br"] += gar.sum(axis=0)
        return (gh * z + grh * r + gaz @ w["enc.Uz"] + gar @ w["enc.Ur"],
                gah @ w["enc.Wh"] + gaz @ w["enc.Wz"] + gar @ w["enc.Wr"])

    def _encode(self, thetas):
        seq = self._sequence(thetas)
        h = np.zeros((len(thetas), self.hidden))
        caches = []
        for step in range(self.n_max):
            h, cache = self._gru_step(seq[step], h)
            caches.append(cache)
        return h, caches

    def _encode_back(self, caches, gh, grads):
        """Reverse of _encode (BPTT): encoder gradients into grads; returns
        the pulse cotangent (B, L) in the flattened layout."""
        B = len(gh)
        g_seq = np.empty((self.n_max, B, self.in_width))
        for step in range(self.n_max - 1, -1, -1):
            gh, g_seq[step] = self._gru_step_back(caches[step], gh, grads)
        # inverse of _sequence's (B, L) -> (n_max, B, 2(d-1)) reshaping
        return g_seq.reshape(self.n_max, B, self.d - 1, 2).transpose(
            1, 2, 3, 0).reshape(B, -1)

    def _heads(self, h_enc):
        """Every observable head at once: encoder state (B, hidden) -> W and
        what the backward pass reads, all on leading axes (B, n_obs)."""
        w = self.weights
        B, H, O, d = h_enc.shape[0], self.hidden, self.n_obs, self.d
        # (B, O, H) pre-activations, then activations in place
        z = (h_enc @ w["obs.Wz"].reshape(O * H, H).T).reshape(B, O, H)
        hbar = (h_enc @ w["obs.Wh"].reshape(O * H, H).T).reshape(B, O, H)
        z += w["obs.bz"]
        _sigmoid(z, out=z)
        hbar += w["obs.bh"]
        np.tanh(hbar, out=hbar)
        omz = 1.0 - z
        h_o = omz * hbar
        y = np.matmul(h_o.transpose(1, 0, 2), w["head.W"].transpose(0, 2, 1))
        y = y.transpose(1, 0, 2) + w["head.b"]  # (B, O, head_width)
        m3 = 3 * self.n_pairs
        sig = _sigmoid(y[..., :m3])
        x = np.tanh(y[..., m3:m3 + d])
        p = _softmax(y[..., m3 + d:])
        r, theta, psi = (sig[..., 0::3], 2.0 * np.pi * sig[..., 1::3],
                         2.0 * np.pi * sig[..., 2::3])
        # s = sqrt(1 - r^2) = sqrt(sigmoid(-y) (1 + r)): 1 - r^2 would cancel
        # near the identity prior, where r = 1 - 1e-4
        s = np.sqrt(np.exp(-np.logaddexp(0.0, y[..., 0:m3:3])) * (1.0 + r))
        eth, eps_, prefixes = self._build_q(r, s, theta, psi)
        Q = prefixes[-1]
        dd = d * (p * x)  # diagonal of D
        W = _mm(Q * dd[..., None, :], Q.conj().swapaxes(-1, -2))
        return {"h_enc": h_enc, "z": z, "omz": omz, "hbar": hbar, "h_o": h_o,
                "sig": sig,
                "r": r, "theta": theta, "psi": psi, "x": x, "p": p, "s": s,
                "eth": eth, "eps": eps_, "prefixes": prefixes, "Q": Q,
                "dd": dd, "W": W}

    def _build_q(self, r, s, theta, psi):
        """(..., m) params, s = sqrt(1 - r^2) -> the phases e^{i Theta},
        e^{i Psi} and the left-prefix products U_0 ... U_l of the embedded
        two-level factors, (m, ..., d, d). Right-multiplying by U_l, whose
        (p, q) block is [[r e^{i Theta}, s e^{i Psi}],
        [-s e^{-i Psi}, r e^{-i Theta}]], mixes columns p and q alone."""
        d = self.d
        eth = np.exp(1j * theta)
        eps_ = np.exp(1j * psi)
        prefixes = np.empty((self.n_pairs,) + r.shape[:-1] + (d, d),
                            dtype=complex)
        prev = np.broadcast_to(np.eye(d, dtype=complex), prefixes.shape[1:])
        for l, (p, q) in enumerate(noiseop.pair_order(d)):
            a, b = r[..., l, None] * eth[..., l, None], \
                s[..., l, None] * eps_[..., l, None]
            c, e = -s[..., l, None] * eps_[..., l, None].conj(), \
                r[..., l, None] * eth[..., l, None].conj()
            prefixes[l] = prev
            col_p, col_q = prev[..., :, p], prev[..., :, q]
            prefixes[l, ..., :, p] = col_p * a + col_q * c
            prefixes[l, ..., :, q] = col_p * b + col_q * e
            prev = prefixes[l]
        return eth, eps_, prefixes

    def forward_batch(self, thetas, sigma_stacks):
        """Batched expectations (B, S * n_obs) in the dataset ordering, and
        the cache the backward pass reads."""
        h_enc, enc_caches = self._encode(np.asarray(thetas, dtype=float))
        heads = self._heads(h_enc)
        # Re tr(O~^-1 W sigma O~) = Re tr(W sigma) = Re sum_jk W_jk
        # conj(sigma_jk), as sigma is Hermitian
        sigma = _real_view(sigma_stacks)  # (B, S, 2 d^2)
        pred = sigma @ _real_view(heads["W"]).transpose(0, 2, 1) - self.obs_b
        return pred.reshape(len(h_enc), -1), {"enc": enc_caches,
                                              "heads": heads, "sigma": sigma}

    # -- loss and exact gradients ------------------------------------------

    def loss(self, thetas, targets, sigma_stacks):
        """MSE accumulated and returned in extended precision (np.longdouble),
        so a central difference of two losses resolves derivatives below a
        double's rounding of the loss itself."""
        pred, _ = self.forward_batch(thetas, sigma_stacks)
        resid = (pred - np.asarray(targets)).astype(np.longdouble)
        return np.mean(resid * resid)

    def loss_and_grad(self, thetas, targets, sigma_stacks):
        """Exact reverse-mode gradient of the MSE over every weight.

        Complex intermediates use the conjugate-cotangent convention
        G_X = dL/d(conj X); for a real parameter t entering through X the
        chain rule is dL/dt = 2 Re sum(conj(G_X) * dX/dt).
        """
        targets = np.asarray(targets, dtype=float)
        B = len(targets)
        pred, caches = self.forward_batch(thetas, sigma_stacks)
        resid = pred - targets
        loss = float(np.mean(resid ** 2))
        grads, _ = self._backward(
            caches, (2.0 / resid.size) * resid.reshape(B, -1, self.n_obs))
        return loss, grads

    def cost_and_grad(self, theta, targets):
        """Gate cost sum (E(theta) - targets)^2 for one pulse and its exact
        gradient in theta: through the blackbox (W) and through U_0 (sigma)."""
        theta = np.asarray(theta, dtype=float)
        u0, tape = dynamics.closed_forward(self.config,
                                           _unflatten(self.config, theta))
        psi, sigma = _states(self._kets, u0[None])
        psi = psi[0]
        pred, caches = self.forward_batch(theta[None], sigma)
        resid = pred[0] - targets
        g = 2.0 * resid.reshape(-1, self.n_obs)
        _, g_theta = self._backward(caches, g[None])
        grad = g_theta[0] + _state_pullback(self.config, tape, self._kets,
                                            psi, g, caches["heads"]["W"][0])
        return float(np.sum(resid ** 2)), grad

    def _backward(self, caches, g_out):
        """Reverse of forward_batch at fixed sigma: prediction cotangents
        g_out (B, S, n_obs) -> (weight gradients, pulse cotangent (B, L))."""
        # E = Re tr(W sigma) - b  =>  G_W = 1/2 sum_s gE sigma_s
        G_W = (0.5 * g_out.transpose(0, 2, 1) @ caches["sigma"]).view(
            complex).reshape(len(g_out), self.n_obs, self.d, self.d)
        grads = {name: np.zeros_like(arr) for name, arr in self.weights.items()
                 if name.startswith("enc.")}
        gh = self._heads_back(caches["heads"], G_W, grads)
        return grads, self._encode_back(caches["enc"], gh, grads)

    def _heads_back(self, cache, G_W, grads):
        """Reverse of _heads: G_W (B, n_obs, d, d) -> the head and cell
        gradients, stored in grads; returns the encoder-state cotangent."""
        w = self.weights
        B, O, H = cache["h_o"].shape
        d = self.d
        g_sig, g_dd = self._q_back(cache, G_W)
        # activations back to the dense-layer pre-activations
        sig, x, p = cache["sig"], cache["x"], cache["p"]
        m3 = 3 * self.n_pairs
        gy = np.empty((B, O, self.head_width))
        gy[..., :m3] = g_sig * np.tile([1.0, 2.0 * np.pi, 2.0 * np.pi],
                                       self.n_pairs) * sig * (1.0 - sig)
        gy[..., m3:m3 + d] = g_dd * d * p * (1.0 - x ** 2)
        gp = g_dd * d * x
        gy[..., m3 + d:] = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        # dense layer, one product per observable on the stacked weights
        gy_o = gy.transpose(1, 0, 2)  # (O, B, head_width)
        grads["head.W"] = gy_o.transpose(0, 2, 1) @ cache["h_o"].transpose(
            1, 0, 2)
        grads["head.b"] = gy.sum(axis=0)
        gh_o = (gy_o @ w["head.W"]).transpose(1, 0, 2)  # (B, O, H)
        # gated cell h_o = (1 - z) * hbar, in place in the order of
        # gaz = -gh_o hbar z (1 - z) and gah = gh_o (1 - z) (1 - hbar^2)
        z, omz, hbar = cache["z"], cache["omz"], cache["hbar"]
        gaz = np.negative(gh_o, out=np.empty((B, O, H)))
        gaz *= hbar
        gaz *= z
        gaz *= omz
        gah = np.multiply(gh_o, omz, out=np.empty((B, O, H)))
        dtanh = np.square(hbar)
        gah *= np.subtract(1.0, dtanh, out=dtanh)
        gaz, gah = gaz.reshape(B, O * H), gah.reshape(B, O * H)
        h_enc = cache["h_enc"]
        grads["obs.Wz"] = (gaz.T @ h_enc).reshape(O, H, H)
        grads["obs.bz"] = gaz.sum(axis=0).reshape(O, H)
        grads["obs.Wh"] = (gah.T @ h_enc).reshape(O, H, H)
        grads["obs.bh"] = gah.sum(axis=0).reshape(O, H)
        return (gaz @ w["obs.Wz"].reshape(O * H, H)
                + gah @ w["obs.Wh"].reshape(O * H, H))

    def _q_back(self, cache, G_W):
        """Reverse of W = Q D Q^H for Hermitian G_W (B, n_obs, d, d) ->
        dL/d(r, Theta, Psi) per pair, (B, n_obs, 3 m), and dL/d diag(D)."""
        pairs = noiseop.pair_order(self.d)
        Q, dd = cache["Q"], cache["dd"]
        GQ = _mm(G_W, Q)
        # D diagonal: dL/d dd_i = 2 Re (Q^H G_W Q)_ii
        g_dd = 2.0 * (Q.conj() * GQ).real.sum(axis=-2)
        # G_Q = (G_W + G_W^H) Q D = 2 G_W Q D for Hermitian G_W. With
        # Q = P_{l-1} U_l S_l (prefix, factor, suffix), G_U_l =
        # P_{l-1}^H T_l for T_l = G_Q S_l^H; T is swept from the last factor
        # down by T_{l-1} = T_l U_l^H, which mixes columns p and q alone, and
        # only the (p, q) block of G_U_l is formed.
        T = 2.0 * GQ * dd[..., None, :]
        prefixes = cache["prefixes"]
        r, s = cache["r"], cache["s"]
        g_sig = np.empty(cache["sig"].shape)  # dL/d(r, Theta, Psi) per pair
        for l in range(len(pairs) - 1, -1, -1):
            p_, q_ = pairs[l]
            t_p, t_q = T[..., :, p_], T[..., :, q_]
            if l > 0:
                pc_p = prefixes[l - 1, ..., :, p_].conj()
                pc_q = prefixes[l - 1, ..., :, q_].conj()
                g00, g01 = (pc_p * t_p).sum(axis=-1), (pc_p * t_q).sum(axis=-1)
                g10, g11 = (pc_q * t_p).sum(axis=-1), (pc_q * t_q).sum(axis=-1)
            else:
                g00, g01 = t_p[..., p_], t_q[..., p_]
                g10, g11 = t_p[..., q_], t_q[..., q_]
            eth, eps_ = cache["eth"][..., l], cache["eps"][..., l]
            rl, sl = r[..., l], s[..., l]
            s_safe = np.maximum(sl, 1e-150)
            # d block / d r has ds/dr = -r/s on the off-diagonal entries
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
            if l > 0:
                # U_l^H's (p, q) block: [[conj a, conj c], [conj b, conj e]]
                # for U_l's [[a, b], [c, e]]
                a_c, b_c = (rl * eth.conj())[..., None], \
                    (sl * eps_.conj())[..., None]
                c_c, e_c = (-sl * eps_)[..., None], (rl * eth)[..., None]
                t_p, t_q = t_p * a_c + t_q * b_c, t_p * c_c + t_q * e_c
                T[..., :, p_], T[..., :, q_] = t_p, t_q
        return g_sig, g_dd

    # -- public single-pulse API -------------------------------------------

    def expectations(self, theta):
        """Predicted expectation vector for one pulse (dataset ordering):
        row 0 of forward_batch on a one-pulse stack."""
        thetas = np.asarray(theta, dtype=float)[None]
        return self.forward_batch(thetas, self.precompute_states(thetas))[0][0]

    def noise_operators(self, thetas):
        """V_O samples without any propagation: (B, n_obs, d, d)."""
        h_enc, _ = self._encode(np.asarray(thetas, dtype=float))
        return self.obs_inv @ self._heads(h_enc)["W"]

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
        """sigma stacks (B, S, d, d) for a (B, L) stack of pulses; U_0 has no
        weights, so this runs once per training set. A pulse's row is the
        same bits whatever else is in the stack."""
        u0s = dynamics.propagate_closed_batch(self.config, thetas)
        return _states(self._kets, u0s)[1]

    def train(self, examples, manifest, hyper=None, log_every=None):
        """Adam on random batches of the training split. The test-set loss
        is evaluated every _EVAL_EVERY iterations, at the last one and at
        every log_every-th, which is also printed."""
        hyper = hyper or TrainingHyper()
        n_train = int(manifest["n_train"])
        n_test = int(manifest["n_test"])
        if n_train + n_test > len(examples):
            raise InvalidConfigError("manifest split exceeds dataset size")
        if n_test == 0:
            raise InvalidConfigError(
                f"dataset of {len(examples)} examples has no test split; "
                "training needs at least one test example")
        thetas = np.stack([ex.theta for ex in examples])
        targets = np.stack([ex.expectations for ex in examples])
        sigmas = self.precompute_states(thetas)
        tr = slice(0, n_train)
        te = slice(n_train, n_train + n_test)
        rng = streams.generator(hyper.seed, streams.TRAINING_BATCHES)
        mom = {k: np.zeros_like(v) for k, v in self.weights.items()}
        vel = {k: np.zeros_like(v) for k, v in self.weights.items()}
        # scratch for the update terms, so each step allocates nothing
        work = {k: (np.empty_like(v), np.empty_like(v))
                for k, v in self.weights.items()}
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
            if loss > _ABORT_FACTOR * initial_loss:
                bad_streak += 1
                if bad_streak >= _ABORT_PATIENCE:
                    raise TrainingDiverged(
                        f"loss {loss:.3e} stayed above {_ABORT_FACTOR} x "
                        f"initial ({initial_loss:.3e}) for "
                        f"{_ABORT_PATIENCE} iterations")
            else:
                bad_streak = 0
            b1c = 1.0 - _BETA1 ** it
            b2c = 1.0 - _BETA2 ** it
            step = hyper.step_size
            if it > _DECAY_AT * hyper.iterations:
                step *= _DECAY_FACTOR
            for name, g in grads.items():
                # in place, in the order of m = beta1 m + (1 - beta1) g,
                # v = beta2 v + (1 - beta2) g g and
                # w -= step (m / b1c) / (sqrt(v / b2c) + eps)
                m, v, (a, b) = mom[name], vel[name], work[name]
                m *= _BETA1
                m += np.multiply(1 - _BETA1, g, out=a)
                v *= _BETA2
                np.multiply(1 - _BETA2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, b1c, out=a)
                a *= step
                np.divide(v, b2c, out=b)
                np.sqrt(b, out=b)
                b += _ADAM_EPS
                self.weights[name] -= np.divide(a, b, out=a)
            record.train_mse.append(loss)
            logged = bool(log_every) and it % log_every == 0
            if not (logged or it % _EVAL_EVERY == 0 or
                    it == hyper.iterations):
                continue
            test_loss = float(self.loss(thetas[te], targets[te], sigmas[te]))
            record.test_mse.append(test_loss)
            record.eval_iterations.append(it)
            if logged:
                print(f"iter {it:5d}  train {loss:.3e}  test {test_loss:.3e}")
        record.wall_time = time.perf_counter() - start
        return record

    # -- persistence ---------------------------------------------------------

    def save(self, path, extra_header=None):
        header = {
            "format": "qugray-model",
            "version": _MODEL_VERSION,
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
        with fileio.atomic_write(path, "wb") as fh:
            fh.write(_MODEL_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for name in self.weight_names():
                fh.write(np.ascontiguousarray(
                    self.weights[name], dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        """Read a model file written by `save` (version 2). A file of another
        version, one that does not fit the model its header describes, or one
        that holds a NaN or infinite weight raises DatasetIOError."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise DatasetIOError(f"cannot read model: {exc}") from exc
        if data[:8] != _MODEL_MAGIC:
            raise DatasetIOError(f"{path}: not a model file")
        try:
            (hlen,) = struct.unpack_from("<Q", data, 8)
            header = json.loads(data[16:16 + hlen])
            if header["format"] != "qugray-model" or \
                    header["version"] != _MODEL_VERSION:
                raise ValueError(
                    f"format {header['format']!r} version "
                    f"{header['version']!r}; only qugray-model version "
                    f"{_MODEL_VERSION} loads")
            model = cls.__new__(cls)
            model._init_layout(
                dynamics.SystemConfig.from_dict(header["config"]),
                hidden=int(header["hidden"]), seed=header["seed"])
            specs = [(str(b["name"]), tuple(b["shape"]))
                     for b in header["blocks"]]
        except (struct.error, KeyError, TypeError, ValueError,
                QugrayError) as exc:
            raise DatasetIOError(f"{path}: bad model header: {exc}") from exc
        layout = model._weight_shapes()
        if len(specs) != len(layout) or dict(specs) != layout:
            raise DatasetIOError(f"{path}: weight blocks do not fit a "
                                 f"d={model.d}, hidden={model.hidden} model")
        sizes = [int(np.prod(shape)) for _, shape in specs]
        offset = 16 + hlen
        if len(data) != offset + 8 * sum(sizes):
            raise DatasetIOError(f"{path}: {len(data) - offset} payload bytes,"
                                 f" blocks need {8 * sum(sizes)}")
        blocks = {}
        for (name, shape), count in zip(specs, sizes):
            blocks[name] = np.frombuffer(data, "<f8", count, offset).reshape(
                shape).astype(float)
            offset += 8 * count
            if not np.isfinite(blocks[name]).all():
                raise DatasetIOError(f"{path}: weight block {name} holds a "
                                     "non-finite value")
        model.weights = blocks
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
        u0 = dynamics.propagate_closed(self.config,
                                       _unflatten(self.config, theta))
        return dynamics.expectations_from_propagators(u0[None], self.basis)

    def cost_and_grad(self, theta, targets):
        """Gate cost and its exact gradient; here W = O, so only U_0 moves."""
        u0, tape = dynamics.closed_forward(self.config,
                                           _unflatten(self.config, theta))
        resid = dynamics.expectations_from_propagators(u0[None],
                                                       self.basis) - targets
        grad = _state_pullback(self.config, tape, self._kets,
                               self._kets @ u0.T,
                               2.0 * resid.reshape(-1, self.n_obs),
                               np.stack(self.basis.elements))
        return float(np.sum(resid ** 2)), grad

    def noise_operators(self, thetas):
        B = np.asarray(thetas).shape[0]
        eye = np.eye(self.d, dtype=complex)
        return np.broadcast_to(eye, (B, self.n_obs, self.d, self.d)).copy()
