"""Dense symmetric eigenvalue routines for compressed multiplier matrices.

A symmetric matrix is block diagonal over the connected components of its
nonzero pattern, and its spectral norm is the largest block norm: the split
is a permutation similarity, so it is exact.  ``edge_norms`` takes each
matrix as its nonzero entries, splits it once by min-label propagation over
them and answers 1x1 blocks by their |entry| and 2x2 blocks in closed form.
It gathers the blocks of 3 to JACOBI_MAX_N modes of many matrices by size
and solves every size as one stack with a batched round-robin Jacobi (Brent
& Luk, SIAM J. Sci. Stat. Comput. 6 (1985)): a sweep is n-1 steps, and
each step applies n/2 disjoint rotations to every matrix of the stack at
once; no LAPACK or BLAS routine is involved, and the sweeps stop at module
constants (JACOBI_TOL within JACOBI_MAX_SWEEPS), not at caller-chosen
tolerances.  Only blocks over JACOBI_MAX_N modes take LAPACK's ``eigvalsh``
instead, one call per matrix and block size: a backward-stable direct solver
that cannot fail to settle, but whose last bits can move between LAPACK
builds.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NumericalFailure

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 50
# edge_norms solves blocks up to this many modes by Jacobi, larger by eigvalsh
JACOBI_MAX_N = 512
# edge_norms solves its pending stacks once they hold this many entries
STACK_ENTRIES = 1 << 20


def _check_symmetric(A) -> np.ndarray:
    """A as a float array: one symmetric (n, n) matrix or a (B, n, n) stack
    of them."""
    M = np.array(A, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ConfigError(f"matrix must be square, got shape {M.shape}")
    if M.size:
        atol = 1e-12 * (1 + np.abs(M).max(axis=(-2, -1), keepdims=True))
        if not np.all(np.abs(M - M.swapaxes(-2, -1)) <= atol):
            raise ConfigError("matrix must be symmetric")
    return M


def _check_entries(n, rows, cols, values) -> None:
    """Refuse an entry list whose matrix is not symmetric: every nonzero
    entry needs its transpose, equal within _check_symmetric's tolerance."""
    if not values.all():
        nz = values != 0
        rows, cols, values = rows[nz], cols[nz], values[nz]
    key, tkey = rows * n + cols, cols * n + rows
    a, b = key.argsort(), tkey.argsort()
    atol = 1e-12 * (1 + np.abs(values).max(initial=0.0))
    if not (np.array_equal(key[a], tkey[b])
            and (np.abs(values[a] - values[b]) <= atol).all()):
        raise ConfigError("matrix must be symmetric")


@functools.lru_cache(maxsize=64)
def _round_robin(m: int) -> tuple[tuple, ...]:
    """The m-1 steps of one sweep for even m, each as (p, q) index arrays:
    step r rotates the pairs (p[i], q[i]), p < q, which cover every index
    once, and over the m-1 steps every pair meets once (the circle method
    with index 0 fixed)."""
    r = np.arange(m - 1)[:, None]
    ring = (np.arange(m - 1) - r) % (m - 1) + 1
    order = np.concatenate((np.zeros((m - 1, 1), dtype=np.int64), ring), axis=1)
    a, b = order[:, : m // 2], order[:, : m // 2 - 1 : -1]
    return tuple(zip(np.minimum(a, b), np.maximum(a, b)))


@functools.lru_cache(maxsize=64)
def _lower(m: int) -> np.ndarray:
    """Flat indices of the strictly lower triangle of an m x m matrix."""
    i, j = np.tril_indices(m, -1)
    return i * m + j


def _off(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix in the stack."""
    m = M.shape[-1]
    low = M.reshape(M.shape[0], m * m)[:, _lower(m)]
    return np.sqrt(np.sum(low * low, axis=1) * 2.0)


def _rotate(M: np.ndarray, step: tuple, thresh: np.ndarray) -> None:
    """One round-robin step in place: rotate each pair (p[i], q[i]) of each
    matrix whose pivot is above that matrix's threshold, shape (B, 1)."""
    p, q = step
    apq = M[:, p, q]
    rot = np.abs(apq) > thresh
    if not rot.any():
        return
    diff = M[:, q, q] - M[:, p, p]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = diff / (2.0 * apq)
        t = np.where(theta < 0, -1.0, 1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
        big = np.abs(diff) > np.abs(apq) * 1.0e150
        if big.any():  # asymptotic rotation, avoids overflow in theta
            t = np.where(big, apq / diff, t)
    t = np.where(rot, t, 0.0)  # t = 0: c = 1, s = 0 leave the pair as it is
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    # new p = c p - s q and new q = c q + s p, on columns and then on rows
    xp, xq = M[:, :, p], M[:, :, q]
    M[:, :, p] = c[:, None, :] * xp - s[:, None, :] * xq
    M[:, :, q] = c[:, None, :] * xq + s[:, None, :] * xp
    xp, xq = M[:, p, :], M[:, q, :]
    M[:, p, :] = c[:, :, None] * xp - s[:, :, None] * xq
    M[:, q, :] = c[:, :, None] * xq + s[:, :, None] * xp
    M[:, p, q] = np.where(rot, 0.0, M[:, p, q])
    M[:, q, p] = np.where(rot, 0.0, M[:, q, p])


def _padded(S: np.ndarray) -> np.ndarray:
    """A (B, n, n) stack padded with a zero index to even size when n is odd;
    the padding index never rotates, because its pivots are all zero."""
    B, n = S.shape[0], S.shape[-1]
    M = np.zeros((B, n + n % 2, n + n % 2))
    M[:, :n, :n] = S
    return M


def _jacobi(M: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Diagonal after convergence, shape (B, m), of a (B, m, m) stack of
    matrices of sizes n (B,) padded to the even size m; M is overwritten.

    Every matrix keeps its own threshold and convergence test and leaves the
    stack once converged, so its eigenvalues do not depend on its company.
    """
    B, m = M.shape[0], M.shape[-1]
    out = np.zeros((B, m))
    if not (B and m):
        return out
    scale = np.maximum(1.0, np.abs(M).reshape(B, -1).max(axis=1))
    nn = (n.astype(float) ** 2)[:, None]
    live = np.arange(B)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off = _off(M)
        done = off <= JACOBI_TOL * scale[live]
        if done.any():
            out[live[done]] = np.diagonal(M[done], axis1=1, axis2=2)
            M, live, off = M[~done], live[~done], off[~done]
            if not live.size:
                return out
        if sweep == JACOBI_MAX_SWEEPS:
            break
        # threshold skipping: ignore tiny pivots during the first sweeps
        thresh = np.zeros((live.size, 1))
        if sweep < 3:
            thresh = 0.2 * off[:, None] / nn[live]
        for step in _round_robin(m):
            _rotate(M, step, thresh)
    raise NumericalFailure(
        f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps "
        f"(residual {off.max():.3e})"
    )


def jacobi_eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, or of each in a (B, n, n) stack,
    by round-robin Jacobi rotations.

    Early sweeps skip pivots below a shrinking threshold so nearly diagonal
    matrices converge in O(1) sweeps.  Returns eigenvalues ascending, shape
    (n,) or (B, n).
    """
    S = _check_symmetric(A)
    stack = S if S.ndim == 3 else S[None]
    n = stack.shape[-1]
    diag = _jacobi(_padded(stack), np.full(len(stack), n))
    eigs = np.sort(diag[:, :n], axis=1)
    return eigs if S.ndim == 3 else eigs[0]


def _blocks(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The diagonal blocks of the n x n matrix with entries values at (rows,
    cols) over the connected components of that pattern, as (b, s, s) stacks
    of equal size s.  Components are ordered by their smallest index, with
    indices ascending inside each; entries outside the blocks are all zero.
    """
    label = np.arange(n)
    while True:  # min-label propagation with pointer jumping
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=n)
    for s in np.unique(sizes):
        idx = order[starts[sizes == s][:, None] + np.arange(s)]
        where = np.full(n, -1)  # b * s + slot of each index in these blocks
        where[idx.ravel()] = np.arange(idx.size)
        e = where[rows] >= 0
        B = np.zeros((len(idx), s, s))
        B[where[rows[e]] // s, where[rows[e]] % s, where[cols[e]] % s] = values[e]
        yield B


def edge_norms(matrices) -> np.ndarray:
    """max |eigenvalue| of each symmetric matrix in an iterable of
    (n, rows, cols, values): an n x n matrix given by its nonzero entries.

    Each matrix is checked for symmetry (ConfigError if it is not), then
    split into its blocks.  A 1x1 block's norm is its |entry|, bitwise what
    Jacobi returns for it.  A 2x2 block [[a, b], [b, d]] gets
    (|a+d| + sqrt((a-d)(a-d) + 4b*b)) / 2, bitwise max |xi| of the field
    layer's reaction_field._eig2x2_float(a, b, b, d), where Jacobi can be an
    ulp low.  Blocks of 3 to JACOBI_MAX_N modes of all matrices are stacked by
    size (odd sizes padded to the next even one, which sets the rotation
    schedule) and solved together, whenever the pending stacks reach
    STACK_ENTRIES entries and at the end, so an iterable that builds its
    matrices lazily keeps memory bounded.  Larger blocks take one LAPACK
    eigvalsh per matrix and block size.
    """
    pending: dict[int, list] = {}
    owners, values = [], []
    count = entries = 0

    def flush():
        for parts in pending.values():
            diag = _jacobi(
                np.concatenate([blocks for _, _, blocks in parts]),
                np.concatenate([np.full(len(blocks), s) for _, s, blocks in parts]))
            values.append(np.abs(diag).max(axis=1))
            owners.append(np.concatenate(
                [np.full(len(blocks), k) for k, _, blocks in parts]))
        pending.clear()

    for matrix in matrices:
        _check_entries(*matrix)
        for blocks in _blocks(*matrix):
            s = blocks.shape[-1]
            if 2 < s <= JACOBI_MAX_N:
                blocks = _padded(blocks)
                pending.setdefault(blocks.shape[-1], []).append((count, s, blocks))
                entries += blocks.size
                continue
            if s == 2:
                a, b, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
                disc = (a - d) * (a - d) + 4.0 * b * b
                values.append((np.abs(a + d) + np.sqrt(disc)) / 2.0)
            elif s == 1:
                values.append(np.abs(blocks[:, 0, 0]))
            else:
                eigs = np.linalg.eigvalsh(blocks)
                values.append(np.abs(eigs).max(axis=1))
            owners.append(np.full(len(blocks), count))
        count += 1
        if entries >= STACK_ENTRIES:
            flush()
            entries = 0
    flush()
    norms = np.zeros(count)
    if owners:
        np.maximum.at(norms, np.concatenate(owners), np.concatenate(values))
    return norms
