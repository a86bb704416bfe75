"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares no
code path with the implementations under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def brute_lattice_entries(domain, cutoff, periodic_scaling="paper"):
    """Nested-loop enumeration of box eigenvalues <= cutoff.

    Returns a dict value -> count using exact integer keys for pi-sided boxes
    and rounded keys (12 decimals) otherwise.  Intended for small cutoffs.
    """
    scales = domain.axis_scales
    step = 2.0 if (domain.bc == "periodic" and periodic_scaling == "standard") else 1.0
    pi_box = domain.is_pi_box

    ranges = []
    for a in scales:
        lmax = int(math.floor(a * math.sqrt(cutoff) / step)) + 1
        if domain.bc == "dirichlet":
            ranges.append(range(1, lmax + 1))
        elif domain.bc == "neumann":
            ranges.append(range(0, lmax + 1))
        else:  # periodic: signed frequencies
            ranges.append(range(-lmax, lmax + 1))

    counts: dict = {}
    for ls in itertools.product(*ranges):
        val = sum((step * l / a) ** 2 for l, a in zip(ls, scales))
        if val > cutoff + 1e-12:
            continue
        if pi_box:
            key = round(val)
        else:
            key = round(val, 12)
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_total_count(domain, cutoff, periodic_scaling="paper"):
    return sum(brute_lattice_entries(domain, cutoff, periodic_scaling).values())


def three_squares_by_enumeration(limit):
    """Set of n <= limit expressible as a sum of three integer squares."""
    rep = set()
    r = math.isqrt(limit)
    for i in range(r + 1):
        for j in range(i, r + 1):
            s2 = i * i + j * j
            if s2 > limit:
                break
            for k in range(j, r + 1):
                s3 = s2 + k * k
                if s3 > limit:
                    break
                rep.add(s3)
    return rep


def householder_tridiagonal(A):
    """Reduce a symmetric matrix to tridiagonal form by explicit Householder
    similarity transforms.  Returns (diag, offdiag)."""
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1 :, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(norm_x, x[0] if x[0] != 0 else 1.0)
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        H = np.eye(n)
        H[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v)
        A = H @ A @ H
    d = np.diag(A).copy()
    e = np.diag(A, 1).copy()
    return d, e


def _sturm_count_below(d, e, xs):
    """Number of eigenvalues of each tridiagonal (d[b], e[b]) strictly below
    each xs[b, j].

    Classic sign-agreement count on the shifted LDL^T recurrence, vectorized
    over the matrices of the stack and their query points.
    """
    count = np.zeros(xs.shape, dtype=np.int64)
    q = d[:, :1] - xs
    count += q < 0
    tiny = 1e-300
    for i in range(1, d.shape[1]):
        denom = np.where(np.abs(q) < tiny, np.where(q < 0, -tiny, tiny), q)
        q = d[:, i : i + 1] - xs - (e[:, i - 1 : i] ** 2) / denom
        count += q < 0
    return count


def sturm_eigenvalues(A, tol=1e-12):
    """All eigenvalues of a symmetric matrix, or of each in a (B, n, n) stack,
    by Householder tridiagonalization plus bisection on the Sturm eigenvalue
    counts, one bisection for the whole stack.  Returns them ascending, shape
    (n,) or (B, n)."""
    A = np.asarray(A, dtype=float)
    stack = A if A.ndim == 3 else A[None]
    n = stack.shape[-1]
    if n == 1:
        eigs = stack[:, 0, :]
    else:
        d, e = (np.array(t) for t in zip(*map(householder_tridiagonal, stack)))
        pad = np.zeros((len(stack), 1))
        radius = (np.abs(d) + np.concatenate((pad, np.abs(e)), axis=1)
                  + np.concatenate((np.abs(e), pad), axis=1))
        lo = np.repeat(np.min(d - radius, axis=1, keepdims=True) - 1.0, n, axis=1)
        hi = np.repeat(np.max(d + radius, axis=1, keepdims=True) + 1.0, n, axis=1)
        ks = np.arange(1, n + 1)
        # the widest bracket sets the count, so every matrix ends within tol
        span = float(np.max(hi - lo))
        iters = max(1, int(math.ceil(math.log2(span / tol))) + 2)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = _sturm_count_below(d, e, mid)
            take_hi = below >= ks  # k-th eigenvalue is below mid
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        eigs = 0.5 * (lo + hi)
    return eigs if A.ndim == 3 else eigs[0]


def window_modes_by_loops(domain, lam, k):
    """Index vectors of a Neumann (nonnegative) or periodic (signed) box with
    eigenvalue sum_j (l_j/a_j)^2 in (lam-k, lam+k], by nested loops, sorted
    by (eigenvalue, index vector).  Each eigenvalue sums the squares of the
    quotients l_j/a_j in axis order, so equal sums compare equal and the
    index vector breaks the tie."""
    lo, hi = lam - k, lam + k
    if hi < 0:
        return []
    scales = domain.axis_scales
    ranges = []
    for a in scales:
        top = int(math.floor(a * math.sqrt(hi))) + 1
        ranges.append(range(0 if domain.bc == "neumann" else -top, top + 1))
    found = []
    for ls in itertools.product(*ranges):
        val = 0.0
        for l, a in zip(ls, scales):
            q = l / a
            val += q * q
        if lo < val <= hi:
            found.append((val, ls))
    return [ls for _, ls in sorted(found)]


def dense(n, rows, cols, values):
    """The n x n array of a matrix given by its nonzero entries, the form
    imhyp builds window matrices in: the view to compare against
    quadrature_windowed_matrix and numpy."""
    E = np.zeros((n, n))
    E[rows, cols] = values
    return E


def entries(A):
    """(n, rows, cols, values) of a dense square array: the inverse of dense,
    and the form imhyp.dense_eig.edge_norms takes."""
    rows, cols = np.nonzero(A)
    return len(A), rows, cols, A[rows, cols]


def quadrature_windowed_matrix(h, lam, k):
    """Windowed multiplier compression by trapezoid/torus quadrature.

    Independent of the closed-form product-rule path: the integrals are
    quadratures on a tensor grid dense enough to integrate the band-limited
    integrands exactly, over the modes of window_modes_by_loops.  The
    Neumann rule is summed axis by axis, which for these separable
    integrands is the same finite sum as over the whole grid.
    """
    domain = h.domain
    dim = domain.dim
    scales = domain.axis_scales
    modes = window_modes_by_loops(domain, lam, k)
    if not modes:
        return np.zeros((0, 0))
    F = max([max(abs(i) for i in m) for m in h.coeffs], default=0)
    maxfreq = max(max(abs(i) for i in m) for m in modes)
    pts = 2 * (F + maxfreq) + 3  # comfortably beyond exactness threshold

    hbar = h.coeffs.get((0,) * dim, 0.0)

    if domain.bc == "neumann":
        # the trapezoid rule on a tensor grid factors over the axes for the
        # separable integrands cos(f.x/a) e_m e_n: per axis, a cosine table
        # (row l = cos(l x / a) on the nodes) and the weights give the
        # one-dimensional rule for every triple of frequencies at once
        rules = []
        for a in scales:
            L = math.pi * a
            x = np.linspace(0.0, L, pts)
            w = np.full(pts, L / (pts - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            T = np.cos(np.multiply.outer(np.arange(F + maxfreq + 1), x) / a)
            # rules[j][f][p, q] = sum_x w cos(f x/a) cos(p x/a) cos(q x/a)
            rules.append(np.einsum("fx,px,qx->fpq", T[: F + 1] * w, T, T))
        idx = np.array(modes).reshape(len(modes), dim)

        def integral(f):
            """The quadrature of cos(f.x/a) e_m e_n, unnormalized, for all
            mode pairs."""
            out = np.ones((len(modes), len(modes)))
            for j in range(dim):
                out *= rules[j][abs(f[j])][np.ix_(idx[:, j], idx[:, j])]
            return out

        A = -hbar * integral((0,) * dim)
        for f, c in h.coeffs.items():
            A += c * integral(f)
        # cos(m x / a) has squared L2 norm pi a (m = 0) or pi a / 2 on (0, pi a)
        norms = np.array([
            math.prod(
                math.sqrt((1.0 if mj == 0 else 2.0) / (math.pi * a))
                for mj, a in zip(m, scales)
            )
            for m in modes
        ])
        return norms[:, None] * A * norms[None, :]

    # periodic, "paper" scaling frequency set: uniform grid on the 2*pi*a torus
    axes_x, cellw = [], 1.0
    for a in scales:
        L = 2.0 * math.pi * a
        axes_x.append(np.arange(pts) * (L / pts))
        cellw *= L / pts

    grids = np.meshgrid(*axes_x, indexing="ij")
    flat = [g.ravel() for g in grids]
    hvals = np.zeros(flat[0].size)
    for m, c in h.coeffs.items():
        term = np.full(flat[0].size, c)
        for j in range(dim):
            term = term * np.cos(m[j] * flat[j] / scales[j])
        hvals += term
    hvals -= hbar

    vol = math.prod(2.0 * math.pi * a for a in scales)
    Phi = np.empty((len(modes), flat[0].size), dtype=complex)
    for i, l in enumerate(modes):
        phase = np.zeros(flat[0].size)
        for j in range(dim):
            phase = phase + l[j] * flat[j] / scales[j]
        Phi[i] = np.exp(1j * phase) / math.sqrt(vol)
    M = (np.conj(Phi) * (cellw * hvals)) @ Phi.T
    assert np.max(np.abs(M.imag)) < 1e-9
    return M.real
