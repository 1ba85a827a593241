"""Piecewise-constant propagator for the real symmetric qudit Hamiltonian.

H_k = diag(drift + noise_k) + wave_k * coupling is real symmetric, so every
step exponential splits into real matrix functions,

    exp(-i H_k dt) = e^{-i mu_k dt} (cos X_k - i sin X_k),
    X_k = dt (H_k - mu_k I),   mu_k = tr H_k / d.

cos and sin are Taylor polynomials in Y = X^2, evaluated Paterson-Stockmeyer
style on shared powers of Y. The degree, and a power-of-two scaling undone by
double-angle steps, follow from a bound on max_k ||X_k||_1 so that the
truncation error stays below the unit roundoff (cf. Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 970 (2009)). No per-matrix LAPACK call is made. The
trace phases are scalars, so their product is applied once at the end.

Rows: one call propagates a stack of trajectories, one per row: noise
realizations under one waveform, or pulses (one waveform per row) without
noise. Each row's result depends on that row's inputs alone, bit for bit,
whatever else shares the call: the degree and scaling are chosen per row
(rows that share them are evaluated together), and every operation is
elementwise across rows, with a fixed summation order. How many rows share
a call therefore changes no bit; `rows_per_call` picks it from the grid so
that a call's working set stays near the L2 cache.

Layout: structure of arrays. A stack of d x d matrices is a d x d nested
list whose entry [i][j] holds that matrix element for the whole stack as one
(rows, steps) array, so a matrix product is d^3 elementwise vector
operations. Polynomials in X are symmetric and commute, so their products
compute the upper triangle only and share each entry with its mirror. The
time-ordered product is a pairwise tree over the step axis; once a level
holds few matrices the per-call overhead outweighs the vector length, and the
remaining levels run on one stacked array.
"""

import math

import numpy as np

# Taylor degree in Y = X^2: the largest needed for ||X||_1 <= 1 at unit
# roundoff; larger norms are scaled down by powers of two.
_MAX_DEGREE = 8
# Paterson-Stockmeyer block size: powers Y .. Y^3 are shared by cos and sin.
_BLOCK = 3
# ||X||_1 up to which degree q truncates below the unit roundoff, judged by
# the first omitted cos term theta^(2q+2) / (2q+2)!, which dominates the tail.
_THETA = [(2.0 ** -53 * math.factorial(2 * q + 2)) ** (1.0 / (2 * q + 2))
          for q in range(_MAX_DEGREE + 1)]
_COS = [(-1) ** n / math.factorial(2 * n) for n in range(_MAX_DEGREE + 1)]
# coefficients of -sin(X) / X, so that the polynomial times X is N = -sin X
_NEG_SINC = [-(-1) ** n / math.factorial(2 * n + 1)
             for n in range(_MAX_DEGREE + 1)]
# levels of the tree product holding fewer matrices than this run stacked
_STACK_BELOW = 256
# step-matrix entries (rows x steps x d^2) per kernel call. Timed on a
# 2 MiB-per-core L2: at 13 250 steps, 1 qutrit or 2 qubit rows per call run
# 2.1-2.3x faster per step than 32 rows; at 1000 steps, 16 noisy qutrit rows
# run ~17% faster than 32.
_CALL_ENTRIES = 144_000


def _upper(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


def _mirror(entries, d):
    """Nested d x d list from upper-triangle entries in `_upper` order."""
    out = [[None] * d for _ in range(d)]
    for (i, j), value in zip(_upper(d), entries):
        out[i][j] = out[j][i] = value
    return out


def _entry(a, b, i, j):
    """(a @ b)[i][j] for nested-list stacks, as d elementwise products."""
    acc = a[i][0] * b[0][j]
    for k in range(1, len(a)):
        acc += a[i][k] * b[k][j]
    return acc


def _sym_matmul(a, b):
    """a @ b for commuting symmetric stacks (the product is symmetric)."""
    d = len(a)
    return _mirror([_entry(a, b, i, j) for i, j in _upper(d)], d)


def _polynomial(coefs, powers):
    """sum_n coefs[n] Y^n with powers[m] = Y^m for m >= 1, by Horner's rule
    in Y^p over blocks of p terms (p = len(powers) - 1); the top block also
    takes the Y^p term."""
    p = len(powers) - 1
    d = len(powers[1])
    n_blocks = max(1, -(-(len(coefs) - 1) // p))
    acc = None
    for b in reversed(range(n_blocks)):
        block = coefs[b * p:] if b == n_blocks - 1 else coefs[b * p:(b + 1) * p]
        prod = None if acc is None else _sym_matmul(acc, powers[p])
        entries = []
        for i, j in _upper(d):
            if prod is None:
                value = block[1] * powers[1][i][j]
            else:
                value = prod[i][j]
                value += block[1] * powers[1][i][j]
            for m in range(2, len(block)):
                value += block[m] * powers[m][i][j]
            if i == j:
                value += block[0]
            entries.append(value)
        acc = _mirror(entries, d)
    return acc


def _row_orders(peak):
    """(degree, squarings) per row from peak[i][j], the row's max_k |X_ij|
    over its steps, via the bound theta = max_k ||X_k||_1 <= max_i sum_j
    peak[i][j]."""
    theta = np.max([sum(row) for row in peak], axis=0)
    orders = []
    for t in theta.tolist():
        degree = next((q for q in range(1, _MAX_DEGREE + 1) if t <= _THETA[q]),
                      _MAX_DEGREE)
        squarings = 0
        if t > _THETA[_MAX_DEGREE]:
            squarings = math.ceil(math.log2(t / _THETA[_MAX_DEGREE]))
        orders.append((degree, squarings))
    return orders


def _cos_neg_sin(x, degree, squarings):
    """(cos X, -sin X) for a symmetric stack X, both symmetric stacks, by the
    degree-`degree` polynomials at X / 2^squarings and double-angle steps."""
    d = len(x)
    if squarings:
        scale = 2.0 ** -squarings
        x = _mirror([x[i][j] * scale for i, j in _upper(d)], d)
    powers = [None, _sym_matmul(x, x)]
    while len(powers) <= min(degree, _BLOCK):
        powers.append(_sym_matmul(powers[-1], powers[1]))
    cos = _polynomial(_COS[:degree + 1], powers)
    neg_sin = _sym_matmul(x, _polynomial(_NEG_SINC[:degree + 1], powers))
    for _ in range(squarings):
        # cos 2X = 2 cos^2 X - I, sin 2X = 2 sin X cos X
        neg_sin = _sym_matmul(neg_sin, cos)
        cos = _sym_matmul(cos, cos)
        for i, j in _upper(d):
            neg_sin[i][j] *= 2.0
            cos[i][j] *= 2.0
            if i == j:
                cos[i][j] -= 1.0
    return cos, neg_sin


def _step_unitaries(drift_diag, coupling, waves, noise_diags, dt):
    """Traceless-part step unitaries cos X_k - i sin X_k as an (R, M) stack,
    and the trace shifts mu_k, shape (R, M).

    waves: (R, M), or (M,) shared by every row; noise_diags: (R, M, d) or
    None. R is the larger leading length of the two.
    """
    d = drift_diag.shape[0]
    waves = np.atleast_2d(waves)
    base = drift_diag if noise_diags is None else drift_diag + noise_diags
    diag = base + waves[..., None] * np.diag(coupling)
    R, M = diag.shape[:2]
    mu = diag.mean(axis=-1)
    x = [[None] * d for _ in range(d)]
    peak = [[None] * d for _ in range(d)]
    for i in range(d):
        x[i][i] = dt * (diag[..., i] - mu)
        peak[i][i] = np.abs(x[i][i]).max(axis=-1)
        for j in range(i + 1, d):
            # a shared wave's bound is taken once, before the rows copy it
            off = (dt * coupling[i, j]) * waves
            x[i][j] = x[j][i] = np.broadcast_to(off, (R, M)).copy()
            peak[i][j] = peak[j][i] = np.abs(off).max(axis=-1)
    orders = _row_orders(peak)
    groups = sorted(set(orders))
    entries = None
    for degree, squarings in groups:
        if len(groups) == 1:
            rows, xg = slice(None), x
        else:
            rows = np.flatnonzero([o == (degree, squarings) for o in orders])
            xg = _mirror([x[i][j][rows] for i, j in _upper(d)], d)
        cos, neg_sin = _cos_neg_sin(xg, degree, squarings)
        if entries is None:
            entries = [np.empty((R, M), dtype=complex) for _ in _upper(d)]
        for (i, j), u in zip(_upper(d), entries):
            u.real[rows] = cos[i][j]
            u.imag[rows] = neg_sin[i][j]
    return _mirror(entries, d), mu


def _product(a, b):
    """a @ b over the two leading (matrix) axes of (d, d, ...) arrays, each
    entry summed over k in ascending order as in `_entry`."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[0]):
        out += a[:, k, None] * b[None, k]
    return out


def _chain(u):
    """Ordered product U[M-1] @ ... @ U[0] along the step axis -> (R, d, d).

    A pairwise tree. Its levels run on the nested list while they hold many
    matrices, then on one (d, d, R, steps) array, where a level costs d
    calls instead of d^3. Both compute each entry by the same sum, so where
    the switch falls changes no bit of any row.
    """
    d = len(u)
    leftovers = []
    while u[0][0].size >= _STACK_BELOW and u[0][0].shape[1] > 1:
        if u[0][0].shape[1] % 2 == 1:
            leftovers.append(np.array([[e[:, -1] for e in row] for row in u]))
            u = [[e[:, :-1] for e in row] for row in u]
        later = [[e[:, 1::2] for e in row] for row in u]
        earlier = [[e[:, 0::2] for e in row] for row in u]
        u = [[_entry(later, earlier, i, j) for j in range(d)]
             for i in range(d)]
    stack = np.array(u)
    while stack.shape[-1] > 1:
        if stack.shape[-1] % 2 == 1:
            leftovers.append(stack[..., -1])
            stack = stack[..., :-1]
        stack = _product(stack[..., 1::2], stack[..., 0::2])
    out = stack[..., 0]
    for left in reversed(leftovers):
        out = _product(left, out)
    return np.moveaxis(out, -1, 0)


def _real_coupling(coupling):
    coupling = np.asarray(coupling)
    if np.iscomplexobj(coupling):
        if np.any(coupling.imag != 0.0):
            raise ValueError("coupling must be real symmetric; the kernel "
                             "evaluates cos/sin of real step generators")
        coupling = coupling.real
    return coupling.astype(float)


def _propagate(drift_diag, coupling, waves, noise_diags, dt,
               return_steps=False):
    u, mu = _step_unitaries(drift_diag, coupling, waves, noise_diags, dt)
    phase = dt * mu.sum(axis=-1)
    out = _chain(u) * np.exp(-1j * phase)[:, None, None]
    if not return_steps:
        return out
    # the one row's full step unitaries exp(-i dt H_k), (M, d, d)
    steps = np.array([[e[0] for e in row] for row in u]).transpose(2, 0, 1)
    return out, steps * np.exp(-1j * dt * mu[0])[:, None, None]


def rows_per_call(steps, dim):
    """Rows per kernel call for trajectories of `steps` steps of a qudit of
    dimension `dim`: one call holds about _CALL_ENTRIES step-matrix
    entries, and at least one row."""
    return max(1, _CALL_ENTRIES // (steps * dim * dim))


def propagate_piecewise(drift_diag, coupling, wave, dt, return_steps=False):
    """Closed (noise-free) time-ordered product for one pulse or pulse rows.

    drift_diag: (d,) float, coupling: (d, d) real symmetric (complex dtype
    with zero imaginary part accepted), wave: (M,) float, or (B, M) for B
    pulses propagated as rows of one call. Returns (d, d), or (B, d, d) for
    a (B, M) wave; each row equals its single-wave result bit for bit. With
    return_steps (a 1-D wave only), also the trajectory's step unitaries
    exp(-i dt H_k), shape (M, d, d), for `pullback_closed`.
    """
    drift_diag = np.asarray(drift_diag, dtype=float)
    wave = np.asarray(wave, dtype=float)
    if return_steps and wave.ndim != 1:
        raise ValueError("return_steps needs a single (M,) wave, got shape "
                         f"{wave.shape}")
    out = _propagate(drift_diag, _real_coupling(coupling), wave, None, dt,
                     return_steps)
    if return_steps:
        return out[0][0], out[1]
    return out if wave.ndim == 2 else out[0]


def _prefix_products(steps):
    """P_k = S_k ... S_0 for a (M, d, d) stack, by log2(M) stacked doubling
    passes (an inclusive Hillis-Steele scan)."""
    prefix = steps.copy()
    shift = 1
    while shift < len(prefix):
        prefix[shift:] = prefix[shift:] @ prefix[:-shift]
        shift *= 2
    return prefix


def pullback_closed(drift_diag, coupling, wave, dt, g_u, steps):
    """dL/dwave, shape (M,), for a real function L of the closed propagator
    U = propagate_piecewise(drift_diag, coupling, wave, dt), given the
    conjugate cotangent G = dL/d conj(U), (d, d), and `steps`, the step
    unitaries that forward call returns with return_steps=True.

    With steps S_k = exp(-i dt H_k) (the kernel's own step unitaries times
    their trace phases), prefixes P_k = S_k ... S_0 and U = P_{M-1},
    dU/df_k = A_k F_k B_k with A_k = U P_k^H, B_k = P_{k-1} and
    F_k = dS_k/df_k, so dL/df_k = 2 Re tr(B_k G^H A_k F_k). In the eigenbasis
    H_k = Q diag(lambda) Q^T, F_k = -i dt Q (Gamma o Q^T C Q) Q^T with the
    divided differences of exp in branch-free form,
    Gamma_ab = exp(-i dt (lambda_a + lambda_b) / 2)
               sinc(dt (lambda_a - lambda_b) / 2 pi),
    exact at degenerate eigenvalues.
    """
    drift_diag = np.asarray(drift_diag, dtype=float)
    coupling = _real_coupling(coupling)
    wave = np.asarray(wave, dtype=float)
    d = drift_diag.shape[0]
    h = np.diag(drift_diag) + wave[:, None, None] * coupling  # (M, d, d)
    prefix = _prefix_products(steps)
    before = np.empty_like(prefix)
    before[0] = np.eye(d)
    before[1:] = prefix[:-1]
    # B_k G^H A_k = P_{k-1} (G^H U) P_k^H
    m = before @ (np.asarray(g_u).conj().T @ prefix[-1]) \
        @ prefix.conj().swapaxes(-1, -2)
    lam, q = np.linalg.eigh(h)
    gamma = np.exp(-0.5j * dt * (lam[:, :, None] + lam[:, None, :])) \
        * np.sinc(dt * (lam[:, :, None] - lam[:, None, :]) / (2.0 * np.pi))
    qt = q.swapaxes(-1, -2)
    # tr(M F) = -i dt sum_ab (Q^T M Q)_ab Gamma_ab (Q^T C Q)_ab, both
    # Gamma and Q^T C Q being symmetric
    weighted = gamma * (qt @ coupling @ q)
    return 2.0 * dt * np.einsum("kab,kab->k", qt @ m @ q, weighted).imag


def propagate_piecewise_batch(drift_diag, coupling, wave, noise_diags, dt):
    """Propagators for a (K, M, d) stack of noise trajectories under one
    (M,) wave -> (K, d, d), the K realizations as rows of one call; size the
    stack with `rows_per_call`."""
    return _propagate(np.asarray(drift_diag, dtype=float),
                      _real_coupling(coupling), np.asarray(wave, dtype=float),
                      np.asarray(noise_diags, dtype=float), dt)
