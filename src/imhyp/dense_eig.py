"""Spectral norms of compressed multiplier matrices, one deterministic path.

A symmetric matrix is block diagonal over the connected components of its
nonzero pattern, and its spectral norm is the largest block norm (the split
is a permutation similarity, so it is exact).  ``edge_norms`` takes each
matrix as its nonzero entries, and splits a batch of matrices at once as
one block-diagonal matrix.  1x1 blocks take their |entry| and 2x2 blocks
the closed form of ``exact_real._eig2x2``, written out here so that no
window runs that module.  Every larger block, of any size, takes one path:
the blocks of each size are reduced together to tridiagonal form by
Householder reflections, then one bisection on Sturm counts (Barth, Martin
& Wilkinson, Numer. Math. 9 (1967)) brackets the norms of all the
tridiagonals down to adjacent floats.  Every sum runs in index order and no
BLAS or LAPACK routine is called, so a norm has the same bits on every
platform and whatever blocks share its batch; there is no tolerance to set.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# edge_norms closes a batch once its matrices hold this many of n plus entries
STACK_ENTRIES = 1 << 20
# a Sturm pivot below this in magnitude counts as -_PIVMIN; on a scaled
# block e*e/_PIVMIN stays finite
_PIVMIN = 2.0 ** -900


def _check_entries(n, rows, cols, values) -> None:
    """Refuse an entry list whose matrix is not symmetric: every nonzero
    entry needs its transpose, equal within 1e-12 (1 + max |entry|)."""
    if not values.all():
        nz = values != 0
        rows, cols, values = rows[nz], cols[nz], values[nz]
    key, tkey = rows * n + cols, cols * n + rows
    a, b = key.argsort(), tkey.argsort()
    atol = 1e-12 * (1 + np.abs(values).max(initial=0.0))
    if not (np.array_equal(key[a], tkey[b])
            and (np.abs(values[a] - values[b]) <= atol).all()):
        raise ConfigError("matrix must be symmetric")


def _blocks(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The diagonal blocks of the n x n matrix with entries values at (rows,
    cols) over the connected components of its pattern, by size: for each s,
    ascending, the blocks' first indices and their (b, s, s) stack.  Indices
    ascend inside a block and blocks by their first index; an index no entry
    touches, a zero 1x1 block, is left out, and entries outside are zero."""
    touched = np.zeros(n, dtype=bool)
    touched[rows] = touched[cols] = True
    nodes = np.flatnonzero(touched)
    rows, cols = np.searchsorted(nodes, rows), np.searchsorted(nodes, cols)
    label = np.arange(len(nodes))
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
    sizes = np.diff(starts, append=len(nodes))
    for s in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        idx = order[starts[sizes == s][:, None] + np.arange(s)]
        where = np.full(len(nodes), -1)  # b * s + slot of each index in these blocks
        where[idx.ravel()] = np.arange(idx.size)
        e = where[rows] >= 0
        B = np.zeros((len(idx), s, s))
        B[where[rows[e]] // s, where[rows[e]] % s, where[cols[e]] % s] = values[e]
        yield nodes[idx[:, 0]], B


def _tridiagonal(A: np.ndarray):
    """(d, e), each (b, s): diagonal and subdiagonal (e[:, i] couples rows
    i-1 and i, e[:, 0] = 0) of a tridiagonal matrix orthogonally similar to
    each matrix of the (b, s, s) stack A, which is overwritten, by s-2
    Householder reflections I - u u^T, |u|^2 = 2.  The update S - (u w^T +
    w u^T) keeps each trailing block exactly symmetric.  A column whose
    squares all underflow (entries below 2**-537 of a scaled block) counts
    as zero.
    """
    b, s = A.shape[:2]
    e = np.zeros((b, s))
    for k in range(s - 2):
        x = A[:, k + 1:, k]
        flat = (x[:, 1:] == 0).all(axis=1)  # x = x_0 e_1 already: H = I
        if flat.all():
            e[:, k + 1] = x[:, 0]
            continue
        norm = np.sqrt(np.cumsum(x * x, axis=1)[:, -1])
        alpha = np.where(flat, x[:, 0], -np.copysign(norm, x[:, 0]))  # H x = alpha e_1
        root = np.where(flat, 0.0, np.sqrt(norm) * np.sqrt(norm + np.abs(x[:, 0])))[:, None]
        u = np.concatenate((x[:, :1] - alpha[:, None], x[:, 1:]), axis=1)
        u = np.divide(u, root, out=np.zeros_like(u), where=root > 0)
        S = A[:, k + 1:, k + 1:]
        p = np.cumsum(S * u[:, None, :], axis=2)[:, :, -1]
        w = p - np.cumsum(u * p, axis=1)[:, -1:] / 2.0 * u
        S -= u[:, :, None] * w[:, None, :] + w[:, :, None] * u[:, None, :]
        e[:, k + 1] = alpha
    e[:, s - 1] = A[:, s - 1, s - 2]
    return np.diagonal(A, axis1=1, axis2=2).copy(), e


def _bisect(tridiagonals) -> np.ndarray:
    """max |eigenvalue| of each tridiagonal (d, e) of a list in descending
    size: the upper end hi of a bracket with adjacent float ends, where the
    Sturm counts place every eigenvalue in [-hi, hi] and some outside (-lo,
    lo).  The tridiagonals with more than i rows are a prefix of the list,
    so row i of the recurrence q_i = d_i - x - e_i^2 / q_{i-1} runs on a
    prefix, and a bisection step makes max(s) numpy passes.
    """
    sizes = np.concatenate([np.full(len(d), d.shape[1]) for d, _ in tridiagonals])
    ds, e2s = zip(*((d, e * e) for d, e in tridiagonals))
    rows = [[np.concatenate([a[:, i] for a in arrays if a.shape[1] > i])[:, None]
             for arrays in (ds, e2s)] for i in range(sizes[0])]
    # Gershgorin puts every eigenvalue in [-g, g] for g = max|d| + 2 max|e|;
    # 2g leaves the Sturm counts a wide margin
    hi = np.concatenate([2.0 * (np.abs(d).max(axis=1) + 2.0 * np.abs(e).max(axis=1))
                         for d, e in tridiagonals])
    lo = np.zeros(len(sizes))
    while True:
        mid = (lo + hi) / 2.0
        if not ((lo < mid) & (mid < hi)).any():
            return hi
        x = np.stack((mid, -mid), axis=1)
        q, below = np.ones(x.shape), np.zeros(x.shape, dtype=np.int64)
        for d, e2 in rows:  # count the pivots q < 0 at x and at -x
            c = len(d)
            q = d - x[:c] - e2 / q[:c]
            q = np.where(np.abs(q) < _PIVMIN, -_PIVMIN, q)
            below[:c] += q < 0
        inside = (below[:, 0] == sizes) & (below[:, 1] == 0)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)


def _scaled(blocks: np.ndarray):
    """(blocks * 2**-e, e): each block of a (b, s, s) stack scaled to largest
    |entry| in [1/2, 1), which is exact and keeps squares from overflowing or
    underflowing (a zero block keeps e = 0)."""
    exp = np.frexp(np.abs(blocks).max(axis=(1, 2)))[1]
    return np.ldexp(blocks, -exp[:, None, None]), exp


def edge_norms(matrices) -> np.ndarray:
    """max |eigenvalue| of each symmetric matrix (ConfigError if one is not)
    in an iterable of (n, rows, cols, values), n x n with those nonzero
    entries.  Consecutive matrices are solved in batches that close at
    STACK_ENTRIES of n plus entries, so a lazy iterable keeps memory bounded."""
    norms, batch, held = [], [], 0
    for matrix in matrices:
        _check_entries(*matrix)
        batch.append(matrix)
        held += matrix[0] + len(matrix[3])
        if held >= STACK_ENTRIES:
            norms.append(_batch_norms(*zip(*batch)))
            batch, held = [], 0
    if batch:
        norms.append(_batch_norms(*zip(*batch)))
    return np.concatenate(norms) if norms else np.zeros(0)


def _batch_norms(ns, rows, cols, values) -> np.ndarray:
    """edge_norms of a batch, given as the tuples of its matrices' n, rows,
    cols and values, solved as one block-diagonal matrix whose blocks belong
    to the matrix holding their first index.  A 2x2 block [[a, b], [b, d]]
    gets (|a+d| + sqrt((a-d)(a-d) + 4b*b)) / 2, bitwise max |xi| of
    exact_real._eig2x2(((a, b), (b, d))) unless that over- or underflows."""
    starts = np.cumsum((0,) + ns[:-1])
    rows, cols = (np.concatenate([i + at for i, at in zip(idx, starts)])
                  for idx in (rows, cols))
    norms, stacks = np.zeros(len(ns)), []
    for first, blocks in _blocks(sum(ns), rows, cols, np.concatenate(values)):
        owner = np.searchsorted(starts, first, side="right") - 1
        blocks, exp = _scaled(blocks)
        s = blocks.shape[-1]
        if s > 2:
            stacks.insert(0, (owner, blocks, exp))  # _bisect takes sizes descending
            continue
        a, b, d = blocks[:, 0, 0], blocks[:, 0, -1], blocks[:, -1, -1]
        if s == 1:
            norm = np.abs(a)
        else:
            norm = (np.abs(a + d) + np.sqrt((a - d) * (a - d) + 4.0 * b * b)) / 2.0
        np.maximum.at(norms, owner, np.ldexp(norm, exp))
    if stacks:
        owners, blocks, exps = zip(*stacks)
        hi = _bisect([_tridiagonal(b) for b in blocks])
        np.maximum.at(norms, np.concatenate(owners), np.ldexp(hi, np.concatenate(exps)))
    return norms
