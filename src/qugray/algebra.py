"""Operator algebra: Hermitian bases, matrix exponentials, trace overlaps.

Operators are plain complex ndarrays of shape (d, d). Role checks
(`check_hermitian`, `check_unitary`, ...) raise ContractViolationError so
callers can validate inputs at module boundaries without wrapper types.

The generalized Gell-Mann family is ordered symmetric block, then
antisymmetric, then diagonal, each in lexicographic index order; dataset
columns depend on this ordering, so it must never change.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvalidDimensionError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-9


def check_hermitian(A, atol=HERMITIAN_ATOL, name="operator"):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolationError(f"{name} must be a square matrix")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.conj().T).max(initial=0.0) > atol * scale:
        raise ContractViolationError(f"{name} is not Hermitian within {atol}")
    return A


def check_unitary(U, atol=UNITARY_ATOL, name="operator"):
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ContractViolationError(f"{name} must be a square matrix")
    d = U.shape[0]
    defect = np.linalg.norm(U.conj().T @ U - np.eye(d))
    if defect > atol:
        raise ContractViolationError(
            f"{name} is not unitary: ||U^H U - I||_F = {defect:.3e}")
    return U


def check_density(rho, atol=HERMITIAN_ATOL, name="state"):
    rho = check_hermitian(rho, atol=atol, name=name)
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ContractViolationError(f"{name} trace differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-9:
        raise ContractViolationError(f"{name} has negative eigenvalue {evals.min():.3e}")
    return rho


def fix_eigenvector_phases(vectors, atol=1e-12):
    """Make the first nonzero component of each column real and positive.

    Reproducible eigenbases matter: dataset initial states and the Givens
    extraction both key off this convention.
    """
    vectors = np.array(vectors, dtype=complex)
    d, n = vectors.shape
    for j in range(n):
        col = vectors[:, j]
        idx = np.flatnonzero(np.abs(col) > atol)
        if idx.size == 0:
            continue
        phase = col[idx[0]] / abs(col[idx[0]])
        vectors[:, j] = col / phase
    return vectors


def eigh_fixed(A):
    """Hermitian eigendecomposition with the package phase convention,
    eigenvalues ascending."""
    evals, evecs = np.linalg.eigh(A)
    return evals, fix_eigenvector_phases(evecs)


@dataclass
class ObservableBasis:
    """Ordered Hermitian operator basis with precomputed eigensystems.

    eigenvalues[j][k] pairs with eigenvectors[j][:, k]; columns are the kets
    used as dataset initial states.
    """

    dim: int
    elements: list = field(repr=False)
    eigenvalues: list = field(init=False, repr=False)
    eigenvectors: list = field(init=False, repr=False)

    def __post_init__(self):
        systems = [eigh_fixed(A) for A in self.elements]
        self.eigenvalues = [s[0] for s in systems]
        self.eigenvectors = [s[1] for s in systems]

    def __len__(self):
        return len(self.elements)

    def expand(self, H):
        """Coefficients a_j with H = tr(H)/d * I + sum_j a_j A_j, for
        elements normalized as the Gell-Mann matrices, tr(A_i A_j) = 2
        delta_ij."""
        H = np.asarray(H, dtype=complex)
        return np.array([np.trace(A @ H).real / 2.0 for A in self.elements])


def gell_mann_basis(d):
    """All d^2 - 1 generalized Gell-Mann matrices for dimension d.

    Ordering: symmetric |j><k| + |k><j| for j < k lexicographic, then
    antisymmetric -i(|j><k| - |k><j|), then the d - 1 diagonal matrices
    sqrt(2/(l(l+1))) (sum_{m<=l} |m><m| - l |l+1><l+1|).
    """
    if d < 2:
        raise InvalidDimensionError(f"basis needs d >= 2, got {d}")
    sym, antisym, diag = [], [], []
    for j in range(d):
        for k in range(j + 1, d):
            S = np.zeros((d, d), dtype=complex)
            S[j, k] = S[k, j] = 1.0
            sym.append(S)
            A = np.zeros((d, d), dtype=complex)
            A[j, k] = -1.0j
            A[k, j] = 1.0j
            antisym.append(A)
    for l in range(1, d):
        D = np.zeros((d, d), dtype=complex)
        D[np.arange(l), np.arange(l)] = 1.0
        D[l, l] = -l
        diag.append(np.sqrt(2.0 / (l * (l + 1))) * D)
    return ObservableBasis(dim=d, elements=sym + antisym + diag)


def clock_shift_basis(d):
    """Clock and shift matrices, the sigma_{j,k} family, and its
    hermitianization.

    Returns (shift, clock, gates, hermitian_set) where gates[j][k] is
    shift^j clock^k and hermitian_set holds (sigma + sigma^H)/2 followed by
    (sigma - sigma^H)/(2i) for every (j, k), 2 d^2 operators total.
    """
    if d < 2:
        raise InvalidDimensionError(f"basis needs d >= 2, got {d}")
    omega = np.exp(2.0j * np.pi / d)
    # The cyclic shift satisfying shift @ clock = omega * clock @ shift
    # exactly (the subdiagonal variant obeys the inverse relation).
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j - 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    gates = [[np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
              for k in range(d)] for j in range(d)]
    hermitian_set = []
    for j in range(d):
        for k in range(d):
            s = gates[j][k]
            hermitian_set.append((s + s.conj().T) / 2.0)
            hermitian_set.append((s - s.conj().T) / 2.0j)
    return shift, clock, gates, hermitian_set


def expm_skew(H, dt):
    """exp(-i H dt) for Hermitian H, via eigendecomposition (exact for this
    input class; d is small so accuracy beats speed)."""
    H = check_hermitian(H, name="generator")
    evals, evecs = np.linalg.eigh(H)
    return (evecs * np.exp(-1.0j * evals * dt)) @ evecs.conj().T


def embed_two_level(gate2, p, q, d):
    """Embed a 2x2 unitary into levels (p, q) of a d-level identity."""
    if not (0 <= p < q < d):
        raise InvalidDimensionError(f"need 0 <= p < q < d, got p={p} q={q} d={d}")
    gate2 = check_unitary(np.asarray(gate2, dtype=complex), name="gate2")
    if gate2.shape != (2, 2):
        raise ContractViolationError("gate2 must be 2x2")
    U = np.eye(d, dtype=complex)
    U[p, p], U[p, q] = gate2[0, 0], gate2[0, 1]
    U[q, p], U[q, q] = gate2[1, 0], gate2[1, 1]
    return U


def trace_overlaps(u_stack, G):
    """tr(U^H G) for each U of a (..., d, d) stack, shape (...). An entry is
    the same bits whatever else is in the stack."""
    u_stack = np.asarray(u_stack)
    flat = u_stack.reshape(-1, *u_stack.shape[-2:])
    return np.einsum("kab,ab->k", flat.conj(), G).reshape(u_stack.shape[:-2])
