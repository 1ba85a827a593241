"""Piecewise-constant propagator for the real symmetric qudit Hamiltonian.

H_k = diag(drift + noise_k) + wave_k * coupling is real symmetric, so every
step exponential splits into real matrix functions,

    exp(-i H_k dt) = e^{-i mu_k dt} (cos X_k - i sin X_k),
    X_k = dt (H_k - mu_k I),   mu_k = tr H_k / d.

cos and sin are Taylor polynomials in X. The degree, and a power-of-two
scaling undone by double-angle steps, follow from a bound on max_k ||X_k||_1
so that the truncation error stays below the unit roundoff (cf. Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)). No per-matrix LAPACK call
is made. The trace phases are scalars, so their product is applied once at
the end.

The polynomials are evaluated on d scalar coefficients per step, not on
d x d matrices. X is traceless, so Cayley-Hamilton gives
X^d = c_0 I + c_1 X + ... + c_{d-2} X^{d-2}, with the c_m from the power
sums tr X^k by Newton's identities. Horner's rule in X then runs on the
coefficient vector of I, X, ..., X^{d-1}: one step is a shift plus d - 1
multiply-adds. The only matrix products are X^2 .. X^{d-1}, and cos X and
-sin X are assembled once from them (cf. Moler & Van Loan, SIAM Rev. 45, 3
(2003)).

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

Pulse gradient (closed, one wave): the adjoint of the product above, built
from the same pieces, with no LAPACK call. Each step's derivative
dS_k/df_k comes from the complex step (Al-Mohy & Higham, Numer. Algorithms
53, 133 (2010)): `_cos_neg_sin` is dtype-generic, and evaluated at
X_k + i h E with E = dX_k/df_k and h ||E|| ~ 1e-20, the imaginary parts over
h are the derivatives of the kernel's own polynomials and double-angle
steps, to rounding and with no subtraction. The cotangents
Lambda_k = B_k G^H A_k (U = A_k S_k B_k) come from a reverse sweep down the
tree the forward built: a node N = L R passes Omega_N L to R and R Omega_N
to L, from Omega = G^H at the root (times the trace phase, a scalar) to
every step. No (M, d, d) stack is formed.
"""

import math
from typing import NamedTuple

import numpy as np

# Taylor degree in X^2: the largest needed for ||X||_1 <= 1 at unit
# roundoff; larger norms are scaled down by powers of two.
_MAX_DEGREE = 8
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
# 2.1-2.3x faster per step than 32 rows; at 1000 steps, 16 qutrit rows, noisy
# or closed, run 4-8% faster per row than 8 or 32, and desk qubit calls of
# 16, 18 or 36 rows tie within the timing noise.
_CALL_ENTRIES = 144_000


def _upper(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


def _mirror(entries, d):
    """Nested d x d list from upper-triangle entries in `_upper` order."""
    out = [[None] * d for _ in range(d)]
    for (i, j), value in zip(_upper(d), entries):
        out[i][j] = out[j][i] = value
    return out


def _entry(a, b, i, j, work, out=None):
    """(a @ b)[i][j] for nested-list stacks, as d elementwise products;
    `work` is a scratch array of an entry's shape, `out` the destination
    (a new array if None)."""
    acc = np.multiply(a[i][0], b[0][j], out=out)
    for k in range(1, len(a)):
        acc += np.multiply(a[i][k], b[k][j], out=work)
    return acc


def _upper_out(out, i, j):
    return None if out is None else out[i][j]


def _sym_matmul(a, b, work, out=None):
    """a @ b for commuting symmetric stacks (the product is symmetric),
    into the symmetric stack `out` if given."""
    d = len(a)
    return _mirror([_entry(a, b, i, j, work, _upper_out(out, i, j))
                    for i, j in _upper(d)], d)


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


def _sum(values):
    """values[0] + values[1] + ..., added in that order."""
    out = values[0]
    for value in values[1:]:
        out = out + value
    return out


def _trace_product(a, b):
    """tr(a @ b) for symmetric stacks, from the upper triangles."""
    d = len(a)
    diag = _sum([a[i][i] * b[i][i] for i in range(d)])
    off = _sum([a[i][j] * b[i][j] for i, j in _upper(d) if i < j])
    return diag + (off + off)


def _char_coefs(powers):
    """c_0 .. c_{d-2} with X^d = sum_m c_m X^m, for a traceless symmetric
    stack X with powers[k] = X^k (k = 1 .. d-1): Cayley-Hamilton with
    c_{d-1} = tr X = 0. With g_k = c_{d-k}, Newton's identities on the
    power sums p_k = tr X^k read k g_k = p_k - sum_{i=2}^{k-2} g_{k-i} p_i.
    """
    d = len(powers[1])
    p = [None, None] + [_sum([powers[k][i][i] for i in range(d)])
                         for k in range(2, d)]
    p.append(_trace_product(powers[d - 1], powers[1]))
    g = [None, None]
    for k in range(2, d + 1):
        acc = p[k]
        for i in range(2, k - 1):
            acc = acc - g[k - i] * p[i]
        g.append(acc / k)
    return [g[d - m] for m in range(d - 1)]


def _reduce(coefs, c, work):
    """r_0 .. r_{d-1} with sum_k coefs[k] X^k = sum_m r_m X^m, by Horner's
    rule in X on the coefficient vector. Multiplying by X shifts it, and
    X^d = sum_m c_m X^m folds the top coefficient back: d - 1
    multiply-adds. The top d coefficients need no step. The d coefficient
    arrays are updated in place and rotate one place per step."""
    d = len(c) + 1
    start = max(0, len(coefs) - d)
    r = list(coefs[start:]) + [0.0] * (d + start - len(coefs))
    if start:
        r = [np.full(work.shape, value, dtype=work.dtype) for value in r]
    for a in reversed(coefs[:start]):
        top = r[-1]
        # r_m <- r_{m-1} + top c_m, into r_{m-1}'s array; top's array,
        # read by each of these, is overwritten last by r_0 = top c_0
        for m in range(1, d - 1):
            r[m - 1] += np.multiply(top, c[m], out=work)
        top *= c[0]
        if a:
            top += a
        r = [top] + r[:-1]
    return r


def _combine(r, powers, work, out=None):
    """sum_m r_m X^m as a symmetric stack, with powers[m] = X^m, m >= 1,
    into the symmetric stack `out` if given."""
    d = len(r)
    entries = []
    for i, j in _upper(d):
        value = np.multiply(r[1], powers[1][i][j], out=_upper_out(out, i, j))
        for m in range(2, d):
            value += np.multiply(r[m], powers[m][i][j], out=work)
        if i == j:
            value += r[0]
        entries.append(value)
    return _mirror(entries, d)


def _cos_neg_sin(x, degree, squarings, out=(None, None)):
    """(cos X, -sin X) for a traceless symmetric stack X, both symmetric
    stacks, by the degree-`degree` polynomials at X / 2^squarings and
    double-angle steps. The last operation writes into the stacks `out`
    holds, where given. Every array follows X's dtype: a complex X (a complex
    step) runs the same operations as a real one."""
    d = len(x)
    if squarings:
        scale = 2.0 ** -squarings
        x = _mirror([x[i][j] * scale for i, j in _upper(d)], d)
    # one scratch array for every elementwise product below
    work = np.empty(x[0][0].shape, dtype=x[0][0].dtype)
    powers = [None, x]
    while len(powers) < d:
        powers.append(_sym_matmul(powers[-1], x, work))
    c = _char_coefs(powers)
    # the Taylor coefficients in X: cos is even, -sin X = X (-sin X / X) odd
    cos_x = [a for n in _COS[:degree + 1] for a in (n, 0.0)][:-1]
    neg_sin_x = [a for n in _NEG_SINC[:degree + 1] for a in (0.0, n)]
    final = out if not squarings else (None, None)
    cos = _combine(_reduce(cos_x, c, work), powers, work, final[0])
    neg_sin = _combine(_reduce(neg_sin_x, c, work), powers, work, final[1])
    for step in range(squarings):
        # cos 2X = 2 cos^2 X - I, sin 2X = 2 sin X cos X
        final = out if step == squarings - 1 else (None, None)
        neg_sin = _sym_matmul(neg_sin, cos, work, final[1])
        cos = _sym_matmul(cos, cos, work, final[0])
        for i, j in _upper(d):
            neg_sin[i][j] *= 2.0
            cos[i][j] *= 2.0
            if i == j:
                cos[i][j] -= 1.0
    return cos, neg_sin


def _generators(drift_diag, coupling, waves, noise_diags, dt):
    """The traceless step generators X_k as a symmetric (R, M) stack, the
    trace shifts mu_k, shape (R, M), and each row's (degree, squarings).

    waves: (R, M), or (M,) shared by every row; noise_diags: (R, M, d) or
    None. R is the larger leading length of the two.
    """
    d = drift_diag.shape[0]
    waves = np.atleast_2d(waves)
    # the diagonal of H_k, one (R, M) level per basis state
    levels = [drift_diag[i] + waves * coupling[i, i] for i in range(d)]
    if noise_diags is not None:
        levels = [level + noise_diags[..., i] for i, level in enumerate(levels)]
    R, M = levels[0].shape
    mu = _sum(levels) / d
    x = [[None] * d for _ in range(d)]
    peak = [[None] * d for _ in range(d)]
    for i in range(d):
        x[i][i] = dt * (levels.pop(0) - mu)  # each level freed once used
        peak[i][i] = np.abs(x[i][i]).max(axis=-1)
        for j in range(i + 1, d):
            # a shared wave's bound is taken once, before the rows copy it
            # (elementwise work runs slower on a stride-0 operand)
            off = (dt * coupling[i, j]) * waves
            x[i][j] = x[j][i] = np.ascontiguousarray(
                np.broadcast_to(off, (R, M)))
            peak[i][j] = peak[j][i] = np.abs(off).max(axis=-1)
    return x, mu, _row_orders(peak)


def _step_unitaries(x, orders):
    """Traceless-part step unitaries cos X_k - i sin X_k as an (R, M) stack,
    row r evaluated at the degree and squarings orders[r]."""
    d = len(x)
    R, M = x[0][0].shape
    groups = sorted(set(orders))
    u = _mirror([np.empty((R, M), dtype=complex) for _ in _upper(d)], d)
    if len(groups) == 1:
        # the last operation writes cos and -sin into the complex entries
        _cos_neg_sin(x, *groups[0], out=([[e.real for e in row] for row in u],
                                         [[e.imag for e in row] for row in u]))
        return u
    for degree, squarings in groups:
        rows = np.flatnonzero([o == (degree, squarings) for o in orders])
        xg = _mirror([x[i][j][rows] for i, j in _upper(d)], d)
        cos, neg_sin = _cos_neg_sin(xg, degree, squarings)
        for i, j in _upper(d):
            u[i][j].real[rows] = cos[i][j]
            u[i][j].imag[rows] = neg_sin[i][j]
    return u


def _product(a, b):
    """a @ b over the two leading (matrix) axes of (d, d, ...) arrays, each
    entry summed over k in ascending order as in `_entry`."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[0]):
        out += a[:, k, None] * b[None, k]
    return out


def _chain(u, record=False):
    """Ordered product U[M-1] @ ... @ U[0] along the step axis -> (R, d, d).

    A pairwise tree. Its levels run on the nested list while they hold many
    matrices, then on one (d, d, R, steps) array, where a level costs d
    calls instead of d^3. Both compute each entry by the same sum, so where
    the switch falls changes no bit of any row. An odd level sets its last
    matrix aside; the leftovers join the top node at the end, the last set
    aside first.

    With record, also returns the tree for `_sweep`: `levels`, one
    (nodes, leftover) pair per level (the matrices that pair up, as the
    level's nested list or stacked array, and the (d, d, R) leftover or
    None), and `joins`, one (leftover, partial) pair per leftover joined
    on, in that order, partial being the product it left-multiplies.
    """
    d = len(u)
    leftovers, levels, joins = [], [], []
    # one scratch buffer for every nested-list level's products
    rows, steps = u[0][0].shape
    buffer = np.empty(rows * (steps // 2), dtype=u[0][0].dtype)
    while u[0][0].size >= _STACK_BELOW and u[0][0].shape[1] > 1:
        left = None
        if u[0][0].shape[1] % 2 == 1:
            left = np.array([[e[:, -1] for e in row] for row in u])
            leftovers.append(left)
            u = [[e[:, :-1] for e in row] for row in u]
        if record:
            levels.append((u, left))
        later = [[e[:, 1::2] for e in row] for row in u]
        earlier = [[e[:, 0::2] for e in row] for row in u]
        shape = later[0][0].shape
        work = buffer[:shape[0] * shape[1]].reshape(shape)
        u = [[_entry(later, earlier, i, j, work) for j in range(d)]
             for i in range(d)]
    stack = np.array(u)
    while stack.shape[-1] > 1:
        left = None
        if stack.shape[-1] % 2 == 1:
            left = stack[..., -1]
            leftovers.append(left)
            stack = stack[..., :-1]
        if record:
            levels.append((stack, left))
        stack = _product(stack[..., 1::2], stack[..., 0::2])
    out = stack[..., 0]
    for left in reversed(leftovers):
        if record:
            joins.append((left, out))
        out = _product(left, out)
    out = np.moveaxis(out, -1, 0)
    return (out, levels, joins) if record else out


def _sweep(omega, levels, joins):
    """Omega_k = B_k Omega A_k for every step k of the tree `_chain`
    recorded (its product V = A_k u_k B_k), given the root's Omega, (d, d,
    R). The sweep runs the tree top down: a node N = L R (L the later half)
    passes Omega_N L to R and R Omega_N to L, and each leftover is such an
    L, joined to the partial product R. Returns the steps' Omega_k,
    indexable [i][j] -> (R, M)."""
    d = len(omega)
    left_omegas = []  # root first, which is the order of the levels
    for left, partial in reversed(joins):
        left_omegas.append(_product(partial, omega))
        omega = _product(omega, left)
    omega = omega[..., None]  # the top node's, (d, d, R, 1)
    for nodes, left in reversed(levels):
        # omega holds the nodes' parents, the level above
        rows, m = nodes[0][0].shape
        width = m + (left is not None)
        if isinstance(nodes, np.ndarray):
            full = np.empty((d, d, rows, width), dtype=complex)
            full[..., 0:m:2] = _product(omega, nodes[..., 1::2])
            full[..., 1:m:2] = _product(nodes[..., 0::2], omega)
        else:
            later = [[e[:, 1::2] for e in row] for row in nodes]
            earlier = [[e[:, 0::2] for e in row] for row in nodes]
            work = np.empty(later[0][0].shape, dtype=complex)
            full = [[np.empty((rows, width), dtype=complex)
                     for _ in range(d)] for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    _entry(omega, later, i, j, work, full[i][j][:, 0:m:2])
                    _entry(earlier, omega, i, j, work, full[i][j][:, 1:m:2])
        if left is not None:
            left_omega = left_omegas.pop()
            for i in range(d):
                for j in range(d):
                    full[i][j][:, m] = left_omega[i, j]
        omega = full
    return omega


def _real_coupling(coupling):
    coupling = np.asarray(coupling)
    if np.iscomplexobj(coupling):
        if np.any(coupling.imag != 0.0):
            raise ValueError("coupling must be real symmetric; the kernel "
                             "evaluates cos/sin of real step generators")
        coupling = coupling.real
    return coupling.astype(float)


class Tape(NamedTuple):
    """What `pullback_closed` needs from a one-wave forward pass."""

    coupling: np.ndarray  # C, (d, d) real symmetric
    dt: float
    x: list  # the step generators X_k, a symmetric (1, M) stack
    order: tuple  # the (degree, squarings) the forward evaluated them at
    phase: float  # phi = dt sum_k mu_k
    u: np.ndarray  # the propagator U, (d, d)
    levels: list  # the tree, as `_chain` records it
    joins: list


def _propagate(drift_diag, coupling, waves, noise_diags, dt,
               return_tape=False):
    x, mu, orders = _generators(drift_diag, coupling, waves, noise_diags, dt)
    u = _step_unitaries(x, orders)
    phase = dt * mu.sum(axis=-1)
    if not return_tape:
        return _chain(u) * np.exp(-1j * phase)[:, None, None]
    v, levels, joins = _chain(u, record=True)
    out = v * np.exp(-1j * phase)[:, None, None]
    return out, Tape(coupling, dt, x, orders[0], phase[0], out[0], levels,
                     joins)


def rows_per_call(steps, dim):
    """Rows per kernel call for trajectories of `steps` steps of a qudit of
    dimension `dim`: one call holds about _CALL_ENTRIES step-matrix
    entries, and at least one row."""
    return max(1, _CALL_ENTRIES // (steps * dim * dim))


def propagate_piecewise(drift_diag, coupling, wave, dt, return_tape=False):
    """Closed (noise-free) time-ordered product for one pulse or pulse rows.

    drift_diag: (d,) float, coupling: (d, d) real symmetric (complex dtype
    with zero imaginary part accepted), wave: (M,) float, or (B, M) for B
    pulses propagated as rows of one call. Returns (d, d), or (B, d, d) for
    a (B, M) wave; each row equals its single-wave result bit for bit. With
    return_tape (a 1-D wave only), also the `Tape` that `pullback_closed`
    takes.
    """
    drift_diag = np.asarray(drift_diag, dtype=float)
    wave = np.asarray(wave, dtype=float)
    if return_tape and wave.ndim != 1:
        raise ValueError("return_tape needs a single (M,) wave, got shape "
                         f"{wave.shape}")
    out = _propagate(drift_diag, _real_coupling(coupling), wave, None, dt,
                     return_tape)
    if return_tape:
        return out[0][0], out[1]
    return out if wave.ndim == 2 else out[0]


def pullback_closed(g_u, tape):
    """dL/dwave, shape (M,), for a real function L of the closed propagator
    U = propagate_piecewise(drift_diag, coupling, wave, dt), given the
    conjugate cotangent G = dL/d conj(U), (d, d), and the `tape` that
    forward call returns with return_tape=True.

    U = e^{-i phi} V, where V = u_{M-1} ... u_0 is the tree product of the
    traceless-part steps u_k = cos X_k - i sin X_k. With V = A_k u_k B_k,
    dL/df_k = 2 Re tr(G^H dU/df_k) has two parts:
    - the steps: 2 Re sum_ij (Lambda_k)_ij (D_k)_ji, with
      Lambda_k = B_k (e^{-i phi} G^H) A_k from `_sweep`, and
      D_k = du_k/df_k = L_cos + i L_neg_sin by the complex step: the
      imaginary parts over h of `_cos_neg_sin` at X_k + i h E, with
      E = dX_k/df_k = dt (C - tr C / d I) and h ||E||_1 = 1e-20, at the
      degree and squarings of the forward. E is traceless, so the
      Cayley-Hamilton recurrence holds at the complex point too;
    - the trace phase: dphi/df_k = dt tr C / d for every k, which adds
      2 dt (tr C / d) Im tr(G^H U).
    U is the forward's, never the real part of the complex evaluation.
    """
    d = len(tape.x)
    c = tape.coupling
    e = tape.dt * (c - np.trace(c) / d * np.eye(d))
    norm = np.abs(e).sum(axis=1).max()
    h = 1e-20 / norm if norm else 1.0
    z = _mirror([tape.x[i][j] + (1j * h * e[i, j]) for i, j in _upper(d)], d)
    cos, neg_sin = _cos_neg_sin(z, *tape.order)
    root = np.exp(-1j * tape.phase) * np.asarray(g_u).conj().T
    lam = _sweep(root[:, :, None], tape.levels, tape.joins)
    steps = _sum([lam[i][j].real * cos[j][i].imag
                  - lam[i][j].imag * neg_sin[j][i].imag
                  for i in range(d) for j in range(d)])
    trace = np.trace(c) / d * np.vdot(g_u, tape.u).imag
    return (2.0 / h) * steps[0] + 2.0 * tape.dt * trace


def propagate_piecewise_batch(drift_diag, coupling, wave, noise_diags, dt):
    """Propagators for a (K, M, d) stack of noise trajectories under one
    (M,) wave -> (K, d, d), the K realizations as rows of one call; size the
    stack with `rows_per_call`."""
    return _propagate(np.asarray(drift_diag, dtype=float),
                      _real_coupling(coupling), np.asarray(wave, dtype=float),
                      np.asarray(noise_diags, dtype=float), dt)
