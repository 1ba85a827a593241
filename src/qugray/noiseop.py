"""Bounded parameterization of per-observable noise operators.

W = Q D Q^H with Q a product of d(d-1)/2 embedded 2x2 special unitaries (one
per level pair, p-major order, each parameterized by (r, Theta, Psi)) and
D = d diag(p_i x_i) with x in [-1, 1]^d and p a probability vector. By
construction W is Hermitian with |eig(W)| <= d and |tr W| <= d, so a network
emitting (r, Theta, Psi, x, p) can never produce an unphysical operator.

The realized spectra are exactly {d p_i x_i}, so the image of the map is the
set of Hermitian W whose absolute eigenvalues sum to at most d. That is the
domain `extract_params` accepts; it inverts the construction by Givens-style
elimination in the same pair order.

Non-invertible observables are handled by shifting: O -> O + b I with the
expectation mapped back as e - b. The shift b = ||O||/2 is kept inside the
eigenvalue range, so the shifted observable's exact noise operator
V = (O + b I)^-1 W stays representable by the bounded W above.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import check_hermitian, eigh_fixed
from .errors import DomainError, InvalidConfigError

_BOUND_SLACK = 1e-12


def pair_order(d):
    """The canonical (p, q) sequence of the subunitary product."""
    return [(p, q) for p in range(d) for q in range(p + 1, d)]


@dataclass(frozen=True)
class NoiseOperatorParams:
    """(r, theta, psi) per level pair plus eigenvalue factors (x, p)."""

    dim: int
    r: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        d = self.dim
        m = d * (d - 1) // 2
        for name in ("r", "theta", "psi", "x", "p"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if self.r.shape != (m,) or self.theta.shape != (m,) or self.psi.shape != (m,):
            raise InvalidConfigError(f"need {m} subunitary triples for d={d}")
        if self.x.shape != (d,) or self.p.shape != (d,):
            raise InvalidConfigError(f"x and p must have length {d}")
        if np.any(self.r < -_BOUND_SLACK) or np.any(self.r > 1 + _BOUND_SLACK):
            raise InvalidConfigError("r out of [0, 1]")
        for ang in (self.theta, self.psi):
            if np.any(ang < -_BOUND_SLACK) or np.any(ang > 2 * np.pi + _BOUND_SLACK):
                raise InvalidConfigError("angles out of [0, 2 pi]")
        if np.any(np.abs(self.x) > 1 + _BOUND_SLACK):
            raise InvalidConfigError("x out of [-1, 1]")
        if np.any(self.p < -_BOUND_SLACK) or abs(self.p.sum() - 1.0) > 1e-9:
            raise InvalidConfigError("p must be a probability vector")
        object.__setattr__(self, "r", np.clip(self.r, 0.0, 1.0))
        object.__setattr__(self, "x", np.clip(self.x, -1.0, 1.0))
        object.__setattr__(self, "p", np.clip(self.p, 0.0, None))


def subunitary(r, theta, psi):
    """[[r e^{i Theta}, s e^{i Psi}], [-s e^{-i Psi}, r e^{-i Theta}]],
    s = sqrt(1 - r^2); covers all of SU(2)."""
    s = np.sqrt(max(0.0, 1.0 - r * r))
    return np.array([[r * np.exp(1j * theta), s * np.exp(1j * psi)],
                     [-s * np.exp(-1j * psi), r * np.exp(-1j * theta)]])


def build_Q(params, d=None):
    """Ordered product of embedded subunitaries; the order is normative."""
    d = params.dim if d is None else d
    if d != params.dim:
        raise InvalidConfigError("dimension mismatch")
    Q = np.eye(d, dtype=complex)
    for (p, q), r, th, ps in zip(pair_order(d), params.r, params.theta,
                                 params.psi):
        block = subunitary(r, th, ps)
        U = np.eye(d, dtype=complex)
        U[p, p], U[p, q] = block[0, 0], block[0, 1]
        U[q, p], U[q, q] = block[1, 0], block[1, 1]
        Q = Q @ U
    return Q


def build_D(x, p, d):
    """D = d diag(p_i x_i); entries bounded by d, trace bounded by d."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != (d,) or p.shape != (d,):
        raise InvalidConfigError(f"x and p must have length {d}")
    if np.any(np.abs(x) > 1 + _BOUND_SLACK):
        raise DomainError("x out of [-1, 1]")
    if np.any(p < -_BOUND_SLACK) or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("p must be a probability vector")
    return d * np.diag(p * x).astype(complex)


def build_W(params):
    """W = Q D Q^H."""
    Q = build_Q(params)
    D = build_D(params.x, params.p, params.dim)
    return Q @ D @ Q.conj().T


@dataclass(frozen=True)
class ShiftedObservable:
    """Invertible image O + b I of an observable."""

    b: float
    shifted: np.ndarray


def shift_observable(O):
    """Make an observable invertible via O -> O + b I.

    b = ||O|| / 2 stays within the original eigenvalue range (nudged if it
    happens to hit an eigenvalue), keeping the exact shifted noise operator
    inside the bounded-W image. Invertible inputs are returned unshifted.
    """
    O = check_hermitian(np.asarray(O, dtype=complex), name="observable")
    evals = np.linalg.eigvalsh(O)
    norm = np.abs(evals).max()
    if norm == 0.0:
        raise DomainError("cannot shift the zero observable")
    if np.abs(evals).min() >= 1e-6 * norm:
        return ShiftedObservable(b=0.0, shifted=O)
    b = norm / 2.0
    while np.abs(evals + b).min() < 1e-6 * norm:
        b *= 1.125
    if b > norm:
        raise DomainError("no interior shift found inside the spectrum")
    return ShiftedObservable(b=float(b), shifted=O + b * np.eye(O.shape[0]))


def extract_params(W, d=None):
    """Invert build_W: eigenvalues -> (x, p), eigenvectors -> subunitary
    triples by column-wise elimination in the canonical pair order.

    Accepts Hermitian W with sum_i |eig_i(W)| <= d (the exact image of the
    parameterization; note the looser printed constraints |eig| <= d,
    |tr| <= d admit matrices no parameter choice reaches).
    """
    W = check_hermitian(np.asarray(W, dtype=complex), name="W")
    d = W.shape[0] if d is None else d
    if W.shape != (d, d):
        raise InvalidConfigError("dimension mismatch")
    evals, evecs = eigh_fixed(W)
    total = np.abs(evals).sum()
    if total > d * (1.0 + 1e-9):
        raise DomainError(
            f"sum of |eigenvalues| = {total:.6g} exceeds d = {d}; "
            "not representable as d * p_i x_i")
    if total == 0.0:
        p = np.full(d, 1.0 / d)
        x = np.zeros(d)
    else:
        p = np.abs(evals) / total
        x = np.where(p > 0, np.sign(evals) * total / d, 0.0)
    r, theta, psi = _decompose_unitary(evecs, d)
    return NoiseOperatorParams(dim=d, r=r, theta=theta, psi=psi, x=x, p=p)


def _angles_of(alpha, beta):
    # build_Q reconstructs s = sqrt(1 - r^2), whose representable values near
    # r = 1 jump from 0 straight to ~2e-8; deriving r from |beta| when the
    # off-diagonal is small keeps the reconstructed block accurate.
    s = abs(beta)
    if s < 0.7:
        r = np.sqrt(max(0.0, 1.0 - s * s))
    else:
        r = min(1.0, abs(alpha))
    theta = float(np.angle(alpha)) if abs(alpha) > 0 else 0.0
    psi = float(np.angle(beta)) if abs(beta) > 0 else 0.0
    return r, theta % (2 * np.pi), psi % (2 * np.pi)


def _decompose_unitary(V, d):
    """Find subunitary triples with build_Q equal to V up to column phases.

    Stage p picks the chain U_{p,p+1} ... U_{p,d} whose action on e_p
    reproduces the leading column of the remaining block exactly: writing the
    blocks as [[alpha, beta], [-conj(beta), conj(alpha)]], the column entries
    are c_0 = prod_j alpha_j and c_q = -conj(beta_q) prod_{j>q} alpha_j, which
    solves bottom-up. Unit-determinant blocks leave a single residual phase;
    it is pushed onto V's last column beforehand (harmless: W = V D V^H is
    invariant under column phases).
    """
    m = d * (d - 1) // 2
    r = np.ones(m)
    theta = np.zeros(m)
    psi = np.zeros(m)
    V = np.array(V, dtype=complex)
    V[:, -1] /= np.linalg.det(V)
    idx = 0
    block = V
    for p in range(d - 1):
        n = d - p
        col = block[:, 0]
        alphas = np.ones(n - 1, dtype=complex)
        betas = np.zeros(n - 1, dtype=complex)
        # remaining[q] = sum_{j<q} |c_j|^2; using it for |alpha| avoids the
        # cancellation in sqrt(1 - |beta|^2) when |beta| is close to 1
        remaining = np.concatenate(([0.0], np.cumsum(np.abs(col) ** 2)))
        prod = 1.0 + 0.0j
        for q in range(n - 1, 0, -1):
            if abs(prod) < 1e-300:
                continue  # all remaining entries are forced to zero
            beta = -np.conj(col[q] / prod)
            if abs(beta) > 1.0:
                beta = beta / abs(beta)
            betas[q - 1] = beta
            if q > 1:
                alphas[q - 1] = min(1.0, np.sqrt(remaining[q]) / abs(prod))
                prod = prod * alphas[q - 1]
            else:
                alphas[0] = col[0] / prod  # carries the column's phase
        chain = np.eye(n, dtype=complex)
        for q in range(1, n):
            rr, th, ps = _angles_of(alphas[q - 1], betas[q - 1])
            r[idx], theta[idx], psi[idx] = rr, th, ps
            U = np.eye(n, dtype=complex)
            blockU = subunitary(rr, th, ps)
            U[0, 0], U[0, q] = blockU[0, 0], blockU[0, 1]
            U[q, 0], U[q, q] = blockU[1, 0], blockU[1, 1]
            chain = chain @ U
            idx += 1
        block = (chain.conj().T @ block)[1:, 1:]
    return r, theta, psi
