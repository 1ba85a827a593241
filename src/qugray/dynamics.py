"""Qudit Hamiltonian assembly, propagation, Monte-Carlo averaging, the
ground-truth noise-operator oracle, and dataset generation.

The Hamiltonian is the truncated anharmonic ladder

    H(t) = sum_j omega_j |j><j| + f(t) (a^dag + a) + sum_j g_j beta_j(t) |j><j|

propagated as a first-order product of step exponentials on the left-endpoint
grid (no midpoint rule, no rotating-wave approximation). Expectation vectors
are ordered initial-basis-major: for each basis element A_j, each of its
eigenvectors, each measured element A_i, giving d(d^2-1)^2 entries.
"""

import hashlib
import json
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import fileio, noisegen, pulses, streams
from ._kernels import propagate_piecewise, propagate_piecewise_batch, \
    pullback_closed, rows_per_call
from .algebra import gell_mann_basis
from .errors import ContractViolationError, DatasetIOError, \
    InvalidConfigError, InvertibilityError, QugrayError

DATASET_ORDERING_VERSION = 3
# split ratio: 8192 train / 1840 test at the full 10032-example scale
TEST_FRACTION = 1840.0 / 10032.0


def dataset_split(n_examples):
    n_test = int(round(n_examples * TEST_FRACTION))
    return n_examples - n_test, n_test


def annihilation(d):
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    return a


@dataclass(frozen=True)
class SystemConfig:
    """Physical system + simulation grid. omega and g are per-level, rad/s."""

    dim: int
    omega: tuple
    carrier: pulses.CarrierSpec
    g: tuple
    noise: noisegen.NoiseSpec
    basis: str = "gell_mann"
    seed: int = 0
    n_max: int = 10

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(x) for x in self.omega))
        object.__setattr__(self, "g", tuple(float(x) for x in self.g))
        if self.dim < 2:
            raise InvalidConfigError("dim must be >= 2")
        if len(self.omega) != self.dim or len(self.g) != self.dim:
            raise InvalidConfigError("omega and g must have one entry per level")
        if not np.isfinite(self.omega + self.g).all():
            raise InvalidConfigError(f"omega {self.omega} and g {self.g} "
                                     "must be finite")
        if len(self.carrier.scales) != self.dim - 1:
            raise InvalidConfigError("carrier needs dim - 1 channels")
        if self.noise.channels != self.dim:
            raise InvalidConfigError("noise needs one channel per level")
        if self.basis != "gell_mann":
            raise InvalidConfigError(
                f"unsupported basis {self.basis!r}; only 'gell_mann' carries "
                "the informationally complete measurement layout")

    @property
    def coupling(self):
        a = annihilation(self.dim)
        return a + a.conj().T

    def observable_basis(self):
        return gell_mann_basis(self.dim)

    @property
    def closed(self):
        return all(gj == 0.0 for gj in self.g)

    def a_max(self):
        """Dataset sampling bound, 2 pi / T per coefficient."""
        return pulses.max_amplitude(self.carrier.total_time, self.n_max,
                                    mode="total-envelope")

    def to_dict(self):
        return {
            "dim": self.dim,
            "omega_rad_s": list(self.omega),
            "g_rad_s": list(self.g),
            "carrier_scales": list(self.carrier.scales),
            "drive_freqs_rad_s": list(self.carrier.drive_freqs),
            "evolution_time_s": self.carrier.total_time,
            "time_steps": self.carrier.steps,
            "n_max": self.n_max,
            "alpha_1": self.noise.alpha1,
            "alpha_2": self.noise.alpha2,
            "noise_f_min_hz": self.noise.cutoff,
            "realisations": self.noise.realizations,
            "basis": self.basis,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        d = int(data["dim"])
        carrier = pulses.CarrierSpec(
            scales=data["carrier_scales"],
            drive_freqs=data["drive_freqs_rad_s"],
            total_time=float(data["evolution_time_s"]),
            steps=int(data["time_steps"]),
        )
        noise = noisegen.NoiseSpec(
            alpha1=float(data["alpha_1"]),
            alpha2=float(data["alpha_2"]),
            channels=d,
            realizations=int(data["realisations"]),
            steps=int(data["time_steps"]),
            total_time=float(data["evolution_time_s"]),
            f_min=float(data["noise_f_min_hz"]),
        )
        return cls(dim=d, omega=data["omega_rad_s"], carrier=carrier,
                   g=data["g_rad_s"], noise=noise,
                   basis=data.get("basis", "gell_mann"),
                   seed=int(data.get("seed", 0)),
                   n_max=int(data["n_max"]))

    def config_hash(self):
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def hamiltonian_at(config, params, beta_values, k):
    """Dense H(t_k) for one noise sample vector; mainly a test/reference path,
    propagation goes through the vectorized kernels."""
    if not 0 <= k < config.carrier.steps:
        raise IndexError(f"step index {k} outside grid of {config.carrier.steps}")
    beta_values = np.asarray(beta_values, dtype=float)
    if beta_values.shape != (config.dim,):
        raise InvalidConfigError("beta_values must have one entry per level")
    wave = pulses.waveform(params, config.carrier)
    H = np.diag(np.array(config.omega) + np.array(config.g) * beta_values).astype(complex)
    H += wave[k] * config.coupling
    return H


def synthesize_noise(config):
    return noisegen.synthesize(config.noise, seed=config.seed)


def propagate_closed_batch(config, thetas):
    """U_0(T) for a (B, L) stack of flattened pulse vectors -> (B, d, d).

    The pulses run as rows of kernel calls of `rows_per_call` rows, so the
    waveform and step-unitary stacks stay bounded whatever B is. A row's
    propagator is the same bits whatever else is in the stack.
    """
    thetas = np.asarray(thetas, dtype=float)
    omega = np.array(config.omega)
    out = np.empty((len(thetas), config.dim, config.dim), dtype=complex)
    rows = rows_per_call(config.carrier.steps, config.dim)
    for start in range(0, len(thetas), rows):
        block = thetas[start:start + rows]
        waves = pulses.waveforms(block, config.carrier, config.n_max)
        out[start:start + len(block)] = propagate_piecewise(
            omega, config.coupling, waves, config.carrier.dt)
    return out


def closed_forward(config, params):
    """(U_0, tape): the closed propagator of one pulse, and what
    pullback_propagate_closed needs from this forward pass (the kernel's
    tape and the pulse's n_max). U_0 is the same bits as the pulse's row of
    `propagate_closed_batch`: both run one kernel row."""
    wave = pulses.waveform(params, config.carrier)
    u0, tape = propagate_piecewise(np.array(config.omega), config.coupling,
                                   wave, config.carrier.dt, return_tape=True)
    return u0, (tape, params.n_max)


def propagate_closed(config, params):
    """U_0(T): noise term omitted; chronological product, k = 0 applied first."""
    return closed_forward(config, params)[0]


def pullback_propagate_closed(config, tape, g_u):
    """dL/dtheta (flattened pulse layout) for a real function L of U_0, given
    the tape of its closed_forward pass and G = dL/d conj(U_0)."""
    kernel_tape, n_max = tape
    return pulses.waveform_transpose(pullback_closed(g_u, kernel_tape),
                                     config.carrier, n_max)


def propagate_ensemble(config, params, real_set):
    """All K noisy propagators, shape (K, d, d).

    The realizations run as rows of kernel calls of `rows_per_call` rows.
    Each call's (rows, M, d) noise is built from the ensemble's
    samples[channel, realization, step], so no (K, M, d) copy is made.
    """
    wave = pulses.waveform(params, config.carrier)
    omega, g = np.array(config.omega), np.array(config.g)
    out = np.empty((real_set.realizations, config.dim, config.dim),
                   dtype=complex)
    rows = rows_per_call(config.carrier.steps, config.dim)
    for start in range(0, real_set.realizations, rows):
        noise = real_set.samples[:, start:start + rows].transpose(1, 2, 0) * g
        out[start:start + len(noise)] = propagate_piecewise_batch(
            omega, config.coupling, wave, noise, config.carrier.dt)
    return out


def channel_propagators(config, thetas, real_set=None):
    """(B, K, d, d) propagators of the channels of a (B, L) pulse stack, the
    one place that picks U_0 (closed config, K = 1) or, for a noisy config,
    each pulse over one ensemble: real_set or one synthesize_noise(config).
    Row b is the same bits as propagate_closed/propagate_ensemble alone."""
    thetas = np.asarray(thetas, dtype=float)
    if config.closed:
        return propagate_closed_batch(config, thetas)[:, None]
    if real_set is None:
        real_set = synthesize_noise(config)
    out = np.empty((len(thetas), real_set.realizations, config.dim,
                    config.dim), dtype=complex)
    for b, theta in enumerate(thetas):
        params = pulses.PulseParams.unflatten(theta, config.dim, config.n_max)
        out[b] = propagate_ensemble(config, params, real_set)
    return out


def initial_states(basis):
    """Eigenvector kets of every basis element, shape (n_obs * d, d); row
    (j * d + k) is the k-th eigenvector of A_j."""
    return np.concatenate([vecs.T for vecs in basis.eigenvectors], axis=0)


def expectations_from_propagators(u_stack, basis):
    """Ensemble-averaged expectations, flat (j-major, k, then i) ordering."""
    kets = initial_states(basis)
    psi = np.einsum("rab,sb->rsa", u_stack, kets)
    obs = np.stack(basis.elements)
    values = np.einsum("rsa,iab,rsb->si", psi.conj(), obs, psi).real
    return (values / u_stack.shape[0]).reshape(-1)


def monte_carlo_expectations(config, params):
    """Expectation vector E of length d(d^2-1)^2 of the pulse's channel."""
    if params.dim != config.dim:
        raise InvalidConfigError(f"pulse has {params.dim - 1} transitions, "
                                 f"config {config.dim - 1}")
    u_stack = channel_propagators(config, params.flatten()[None])[0]
    return expectations_from_propagators(u_stack, config.observable_basis())


def choi_of_propagators(u_stack):
    """Trace-1 Choi matrix of rho -> mean_r U_r rho U_r^H."""
    d = u_stack.shape[-1]
    vecs = u_stack.reshape(u_stack.shape[0], -1)
    return np.einsum("ra,rb->ab", vecs, vecs.conj()) / (d * u_stack.shape[0])


def oracle_noise_operator(config, params, O):
    """Ground-truth V_O = O^-1 U_0 mean_r(U_r^H O U_r) U_0^H.

    Satisfies tr(V_O U_0 rho U_0^H O) = mean_r tr(O U_r rho U_r^H) for every
    rho. O must be invertible; shift it first if not.
    """
    O = np.asarray(O, dtype=complex)
    evals = np.linalg.eigvalsh(O)
    if np.abs(evals).min() < 1e-6 * np.abs(evals).max():
        raise InvertibilityError("observable is singular; shift it first")
    u0 = propagate_closed(config, params)
    u_stack = channel_propagators(config, params.flatten()[None])[0]
    avg = np.einsum("rba,bc,rcd->ad", u_stack.conj(), O,
                    u_stack) / u_stack.shape[0]
    return np.linalg.solve(O, u0 @ avg @ u0.conj().T)


def assemble_expectation(table, basis, rho, O):
    """Expectation of O from initial state rho using a (j, k, i) table of
    basis-eigenvector expectations (the generalization identity).

    table[j, k, i] is the expectation of A_i when starting from the k-th
    eigenvector of A_j. Identity components of O and rho are handled exactly
    (the evolution is trace preserving).
    """
    n_obs = len(basis)
    d = basis.dim
    table = np.asarray(table, dtype=float).reshape(n_obs, d, n_obs)
    a = basis.expand(O)
    b = basis.expand(rho)
    lam = np.stack(basis.eigenvalues)  # (j, k)
    traceless = np.einsum("j,jk,jki->i", b, lam, table)
    from_identity = table[0].mean(axis=0)  # I/d via A_0's eigenbasis
    expect_ai = traceless + from_identity
    return float(np.trace(O).real / d + a @ expect_ai)


@dataclass
class DatasetExample:
    theta: np.ndarray
    expectations: np.ndarray


_WORKER_STATE = {}


def _init_worker(config_dict):
    """Everything a dataset task needs, from the config dict alone: a noisy
    config's ensemble is synthesized here, the same bits in every process
    because its streams are counter-based."""
    cfg = SystemConfig.from_dict(config_dict)
    _WORKER_STATE["config"] = cfg
    _WORKER_STATE["basis"] = cfg.observable_basis()
    _WORKER_STATE["real_set"] = None if cfg.closed else synthesize_noise(cfg)
    _WORKER_STATE["a_max"] = cfg.a_max()


def _make_examples(indices):
    """(index, theta, E) for a block of example indices; a noisy config's
    examples share the worker's ensemble."""
    cfg = _WORKER_STATE["config"]
    basis = _WORKER_STATE["basis"]
    thetas = np.stack([_sample_example_params(cfg, _WORKER_STATE["a_max"],
                                              cfg.seed, i).flatten()
                       for i in indices])
    u_stacks = channel_propagators(cfg, thetas, _WORKER_STATE["real_set"])
    return [(i, theta, expectations_from_propagators(u, basis))
            for i, theta, u in zip(indices, thetas, u_stacks)]


def _sample_example_params(config, a_max, seed, index):
    rng = streams.generator(seed, streams.EXAMPLE_PULSE, index)
    amps = rng.uniform(-a_max, a_max, size=(config.n_max, config.dim - 1, 2))
    return pulses.PulseParams(dim=config.dim, amplitudes=amps)


def generate_dataset(config, n_examples, seed=None, workers=1):
    """Sample pulse/expectation pairs; one noise ensemble is synthesized per
    noisy dataset and process, and reused across examples (closed configs
    need none). A task is one kernel call's worth of closed examples, or one
    noisy example. Deterministic for fixed (config, seed) regardless of
    worker count.
    """
    if n_examples < 1:
        raise InvalidConfigError("need at least one example")
    seed = config.seed if seed is None else seed
    cfg_dict = dict(config.to_dict(), seed=seed)
    size = rows_per_call(config.carrier.steps, config.dim) \
        if config.closed else 1
    blocks = [range(start, min(start + size, n_examples))
              for start in range(0, n_examples, size)]
    if workers <= 1:
        _init_worker(cfg_dict)
        try:
            results = [_make_examples(b) for b in blocks]
        finally:
            _WORKER_STATE.clear()
    else:
        with multiprocessing.Pool(workers, initializer=_init_worker,
                                  initargs=(cfg_dict,)) as pool:
            results = list(pool.imap(_make_examples, blocks))
    examples = [DatasetExample(theta=theta, expectations=E)
                for block in results for _, theta, E in block]
    _, n_test = dataset_split(n_examples)
    manifest = {
        "format": "qugray-dataset",
        "ordering_version": DATASET_ORDERING_VERSION,
        "config": cfg_dict,
        "config_hash": SystemConfig.from_dict(cfg_dict).config_hash(),
        "seed": seed,
        "n_examples": n_examples,
        "n_train": n_examples - n_test,
        "n_test": n_test,
    }
    return examples, manifest


def manifest_path(dataset_path):
    return f"{dataset_path}.manifest.json"


def save_dataset(path, examples, manifest):
    """Write the examples (JSON lines) and then their manifest, which also
    records the SHA-256 of the examples file: a process stopped between the
    two writes leaves examples that load_dataset refuses. An example holding
    a NaN or infinite float raises ContractViolationError before anything is
    written; a value that is not a number fails in the writer, as an I/O
    error."""
    for i, ex in enumerate(examples):
        values = np.concatenate([ex.theta, ex.expectations])
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ContractViolationError(f"example {i} holds a non-finite "
                                         f"value; {path} not written")
    digest = hashlib.sha256()
    with fileio.atomic_write(path, "wb") as fh:
        for ex in examples:
            line = json.dumps({"theta": list(ex.theta),
                               "expectations": list(ex.expectations)})
            line = (line + "\n").encode()
            digest.update(line)
            fh.write(line)
    with fileio.atomic_write(manifest_path(path)) as fh:
        json.dump(dict(manifest, examples_sha256=digest.hexdigest()), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path):
    digest = hashlib.sha256()
    try:
        with open(manifest_path(path)) as fh:
            manifest = json.load(fh)
        examples = []
        with open(path, "rb") as fh:
            for line in fh:
                digest.update(line)
                if not line.strip():
                    continue
                obj = json.loads(line)
                examples.append(DatasetExample(
                    theta=np.array(obj["theta"], dtype=float),
                    expectations=np.array(obj["expectations"], dtype=float)))
    except OSError as exc:
        raise DatasetIOError(f"cannot read dataset: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise DatasetIOError(f"malformed dataset {path}: {exc}") from exc
    if manifest.get("format") != "qugray-dataset":
        raise DatasetIOError(f"{path}: missing or foreign manifest")
    if manifest.pop("examples_sha256", None) != digest.hexdigest():
        raise DatasetIOError(f"{path}: the examples do not match the "
                             "manifest's examples_sha256")
    try:
        config = SystemConfig.from_dict(manifest["config"])
        n_split = int(manifest["n_train"]) + int(manifest["n_test"])
    except (KeyError, TypeError, ValueError, QugrayError) as exc:
        raise DatasetIOError(f"{path}: malformed manifest: {exc}") from exc
    if manifest.get("config_hash") != config.config_hash():
        raise DatasetIOError(f"{path}: config_hash does not match the "
                             "manifest's config")
    if n_split != len(examples):
        raise DatasetIOError(f"{path}: manifest split n_train + n_test = "
                             f"{n_split} but the file holds {len(examples)} "
                             "examples")
    d = config.dim
    n_max = config.n_max
    for i, ex in enumerate(examples):
        if ex.theta.size != 2 * (d - 1) * n_max or \
                ex.expectations.size != d * (d * d - 1) ** 2:
            raise DatasetIOError(f"{path}: example {i} has wrong vector sizes"
                                 f" for d={d}, n_max={n_max}")
        if not (np.isfinite(ex.theta).all()
                and np.isfinite(ex.expectations).all()):
            raise DatasetIOError(f"{path}: example {i} holds a non-finite "
                                 "value")
    return examples, manifest
