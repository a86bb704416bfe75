"""Windowed compressions of multiplication operators in the box eigenbasis.

A band-limited real multiplier h acts on L2 of a box; compressing the
mean-free part of that action to the eigenmodes inside a spectral window
(lambda-k, lambda+k] gives a finite symmetric matrix.  Its spectral norm,
measured against the H2 norm of h, is the effective epsilon of the spatial
averaging inequality for that window.  The scan walks every wide-enough
spectral gap and reports the best window found: it enumerates the lattice
modes once and builds their matrix entries once, as an edge list (row, col,
value); each window is a slice of the sorted modes with the entries inside
it, and ``dense_eig.edge_norms`` splits every window into the blocks of its
pattern and solves equal-size blocks of all windows as one stack.  No
window becomes a dense n x n array.

Matrix entries are computed in closed form from the coefficient table via
the per-axis product rule for cosines, so the only floating-point error is
the final summation; a quadrature route exists in the test suite as an
independent oracle.  Multipliers are read from JSON dicts; rendering scan
reports and reading and writing files is the driver's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dense_eig import edge_norms
from .errors import ConfigError, PreconditionError
from .lattice_spectrum import (BoxDomain, _axis_frequencies, _within_budget,
                               enumerate_spectrum)

MULTIPLIER_BCS = ("neumann", "periodic")


def _normalize_coeffs(dim: int, coeffs) -> dict:
    if isinstance(coeffs, dict):
        items = list(coeffs.items())
    else:
        items = []
        for entry in coeffs:
            entry = tuple(entry)
            if len(entry) == 2 and isinstance(entry[0], (tuple, list)):
                items.append((tuple(entry[0]), entry[1]))
            elif len(entry) == dim + 1:
                items.append((tuple(entry[:dim]), entry[dim]))
            else:
                raise ConfigError(
                    f"coefficient row {entry!r} is neither (freq-tuple, value) "
                    f"nor {dim} frequencies plus a value"
                )
    table: dict = {}
    for freq, value in items:
        if len(freq) != dim:
            raise ConfigError(f"frequency {freq!r} does not have {dim} axes")
        f = []
        for x in freq:
            if int(x) != x or x < 0:
                raise ConfigError(f"frequencies must be nonnegative integers, got {x}")
            f.append(int(x))
        v = float(value)
        if not math.isfinite(v):
            raise ConfigError(f"coefficient at {tuple(f)} is not finite")
        key = tuple(f)
        table[key] = table.get(key, 0.0) + v
    return {f: v for f, v in table.items() if v != 0.0}


@dataclass(frozen=True)
class Multiplier:
    """Band-limited real multiplier given by a cosine coefficient table.

    h(x) = sum over table entries c_f * prod_j cos(f_j x_j / a_j).  The
    zero-frequency coefficient is the mean of h.  Only Neumann and periodic
    boxes carry the eigenbases this table interacts with cleanly.
    """

    domain: BoxDomain
    coeffs: dict

    def __post_init__(self):
        if self.domain.bc not in MULTIPLIER_BCS:
            raise ConfigError(
                f"multipliers need a neumann or periodic box, got {self.domain.bc}"
            )
        object.__setattr__(
            self, "coeffs", _normalize_coeffs(self.domain.dim, self.coeffs)
        )

    @property
    def max_frequency(self) -> int:
        return max((max(f) for f in self.coeffs), default=0)


def mean(h: Multiplier) -> float:
    """Domain average of h: its zero-frequency coefficient."""
    return h.coeffs.get((0,) * h.domain.dim, 0.0)


def _volume(domain: BoxDomain) -> float:
    side = 2.0 * math.pi if domain.bc == "periodic" else math.pi
    return math.prod(side * a for a in domain.axis_scales)


def h2_norm(h: Multiplier) -> float:
    """Spectral Sobolev norm (sum over modes of (1+lambda)^2 |c|^2)^(1/2).

    Computed exactly from the coefficient table: a frequency vector with
    nz nonzero axes carries L2 mass |c|^2 * vol / 2^nz.
    """
    vol = _volume(h.domain)
    total = 0.0
    # squares as products: Python-float ** raises instead of returning inf
    for f, c in h.coeffs.items():
        lam = sum((m / a) * (m / a) for m, a in zip(f, h.domain.axis_scales))
        nz = sum(1 for x in f if x != 0)
        total += (1.0 + lam) * (1.0 + lam) * c * c * vol * 0.5**nz
    return math.sqrt(total)


def _modes(domain: BoxDomain, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Mode index vectors with eigenvalue in (lo, hi] as an (N, dim) int
    array, with their eigenvalues, sorted by (eigenvalue, index vector)."""
    dim = domain.dim
    if hi < 0:
        return np.zeros((0, dim), dtype=np.int64), np.zeros(0)
    neumann = domain.bc == "neumann"
    tops = [_axis_frequencies(domain, ax, hi)[1] for ax in range(dim)]
    _within_budget(math.prod(t + 1 if neumann else 2 * t + 1 for t in tops),
                   "window enumeration needs {} lattice cells")
    axis_vals = [np.arange(0 if neumann else -t, t + 1) for t in tops]
    total = np.zeros((1,) * dim)
    for j, (vals, a) in enumerate(zip(axis_vals, domain.axis_scales)):
        shape = [1] * dim
        shape[j] = vals.size
        total = total + ((vals / a) ** 2).reshape(shape)
    mask = (total > lo) & (total <= hi)
    pos = np.argwhere(mask)
    eig = total[mask]
    modes = np.stack([axis_vals[j][pos[:, j]] for j in range(dim)], axis=1)
    order = np.lexsort(tuple(reversed(modes.T)) + (eig,))
    return modes[order].astype(np.int64), eig[order]


def window_modes(domain: BoxDomain, lam: float, k: float) -> list[tuple[int, ...]]:
    """Eigenmode index vectors with eigenvalue in (lam-k, lam+k].

    Neumann modes are nonnegative vectors; periodic modes carry signs.
    Sorted by (eigenvalue, index vector) so downstream matrices are
    reproducible.  A grid over the lattice budget is refused before it is
    allocated (ResourceBudgetError).
    """
    if k <= 0:
        raise ConfigError("window half-width k must be positive")
    if domain.bc not in MULTIPLIER_BCS:
        raise ConfigError(f"windows need a neumann or periodic box, got {domain.bc}")
    modes, _ = _modes(domain, lam - k, lam + k)
    return [tuple(m) for m in modes.tolist()]


def _edges(h: Multiplier, modes: np.ndarray):
    """Nonzero entries <e_m, (h - mean) e_n> for m, n over the (N, dim) mode
    array, as (rows, cols, values) sorted by (row, col).

    The product rule for cosines, axis by axis.  Neumann:
    cos(mt) cos(ft) cos(nt) = (1/4) sum over s1, s2 = +-1 of
    cos((m + s1 f + s2 n) t), so the integral over (0, pi a) is
    (pi a / 4) N(m) N(n) times the number of sign pairs with
    m + s1 f + s2 n = 0.  With N(0)^2 = 1/(pi a) and N(m)^2 = 2/(pi a) the
    side cancels, leaving sqrt(w_m w_n) / 4 per hit, w = 1 or 2, for the
    partners n_j in {m_j + f_j, |m_j - f_j|}.  Periodic: the Fourier
    coefficient (1/2)([m - n = f] + [m - n = -f]), partners n_j = m_j +- f_j.
    Partners are looked up by integer keys of the modes.  A term is c_f
    times its axis factors in axis order; terms add in coefficient order,
    and a sum that cancels to exactly 0 is no entry.  Every factor is
    symmetric, so the entries are too, bit for bit.
    """
    neumann = h.domain.bc == "neumann"
    M = np.asarray(modes, dtype=np.int64).reshape(len(modes), h.domain.dim)
    found = [(np.zeros(0, np.int64), np.zeros(0))]  # for a constant h or no modes
    lo, hi = M.min(axis=0, initial=0), M.max(axis=0, initial=0)
    stride = np.cumprod(np.concatenate(([1], hi[:-1] - lo[:-1] + 1)))
    order = np.argsort(M @ stride)
    keys = (M @ stride)[order]
    # each choice of partner on every axis: m_j + f_j, or the other one
    pick = np.array(list(itertools.product((False, True), repeat=M.shape[1])))[:, None]
    for f, c in h.coeffs.items():
        if not any(f):
            continue  # the subtracted mean
        f = np.array(f)
        plus, minus = M + f, (np.abs(M - f) if neumann else M - f)
        cand = np.where(pick, minus, plus)
        ok = (cand >= lo) & (cand <= hi) & ((plus != minus) | ~pick)
        s, m = np.nonzero(ok.all(axis=2))
        want = cand[s, m] @ stride
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = keys[at] == want
        mm, nn = M[m[hit]], M[order[at[hit]]]
        if neumann:  # sign-pair hits times sqrt(w_m w_n) / 4
            total, diff = mm + nn, mm - nn
            hits = (total == f).astype(float) + (diff == f) + (diff == -f)
            w = np.where(mm > 0, 2.0, 1.0) * np.where(nn > 0, 2.0, 1.0)
            factor = (hits + (total == -f)) * (np.sqrt(w) / 4.0)
        else:
            factor = 0.5 * ((mm - nn == f).astype(float) + (mm - nn == -f))
        term = np.full(len(mm), c)
        for t in factor.T:
            term *= t
        found.append((m[hit] * len(M) + order[at[hit]], term))
    pairs, slot = np.unique(np.concatenate([p for p, _ in found]), return_inverse=True)
    values, at = np.zeros(pairs.size), 0
    for _, term in found:  # in coefficient order; a coefficient meets a pair once
        values[slot[at:at + term.size]] += term
        at += term.size
    keep = values != 0.0
    return pairs[keep] // len(M), pairs[keep] % len(M), values[keep]


def _window(h: Multiplier, lam: float, k: float):
    """(n, rows, cols, values): the modes in (lam-k, lam+k] and _edges."""
    modes = window_modes(h.domain, lam, k)
    if not modes:
        raise PreconditionError(
            f"window ({lam - k:.6g}, {lam + k:.6g}] contains no modes"
        )
    return (len(modes), *_edges(h, modes))


def windowed_matrix(h: Multiplier, lam: float, k: float) -> np.ndarray:
    """Mean-free multiplier compressed to the modes in (lam-k, lam+k].

    Entries <e_m, (h - mean) e_n> for orthonormal eigenmodes, in closed form
    from the coefficient table (see _edges), scattered into a dense array.
    The result is symmetric exactly.  A diagonal entry (m, m) is zero unless
    some f != 0 has f_j in {0, 2 m_j} on every axis, which only a Neumann
    box allows.
    """
    n, rows, cols, values = _window(h, lam, k)
    E = np.zeros((n, n))
    E[rows, cols] = values
    return E


def windowed_norm(h: Multiplier, lam: float, k: float) -> float:
    """Operator norm of the windowed compression (the largest block norm)."""
    return float(edge_norms([_window(h, lam, k)])[0])


@dataclass(frozen=True)
class SAPWindowReport:
    lam: float
    k: float
    window_modes: int
    op_norm: float
    h2_norm: float
    eps_eff: float
    gap: float
    rho_ok: bool


def sap_scan(
    h: Multiplier, k: float, rho: float, lambda_max: float
) -> list[SAPWindowReport]:
    """Evaluate the windowed norm at the midpoint of every qualifying gap.

    Gaps [lambda_n, lambda_{n+1}) of width >= rho with lambda_n <= lambda_max
    qualify; reports come back sorted by (eps_eff, lambda), so the first
    entry is the scan's best window.  A window containing no modes yields an
    op_norm of 0 (the compression is the zero operator there).

    The modes of all windows are enumerated once and their entries built
    once; each window is a searchsorted slice of the modes, equal entry for
    entry to window_modes, and takes the entries with both ends inside it.
    All windows are solved together, so every row's op_norm equals
    windowed_norm at its lambda bit for bit.  The gaps' spectrum starts at
    cutoff lambda_max + 6, whatever k and rho, and doubles until it holds an
    eigenvalue above lambda_max.
    """
    if k <= 0 or rho <= 0:
        raise ConfigError("k and rho must be positive")
    if lambda_max <= 0:
        raise ConfigError("lambda_max must be positive")

    cutoff = lambda_max + 6.0
    while True:
        spec = enumerate_spectrum(h.domain, cutoff)
        if spec.total_count and spec.eigenvalues[-1] > lambda_max:
            break
        cutoff *= 2.0

    eig = spec.eigenvalues
    lo, hi = eig[:-1], eig[1:]
    keep = np.flatnonzero((lo <= lambda_max) & (hi - lo >= rho))
    mids = [0.5 * (float(lo[i]) + float(hi[i])) for i in keep]
    gaps = [float(hi[i]) - float(lo[i]) for i in keep]
    if not mids:
        return []
    # one enumeration serves every window: slice it on (mid-k, mid+k]
    modes, mode_eigs = _modes(h.domain, mids[0] - k, mids[-1] + k)
    bounds = list(zip(np.searchsorted(mode_eigs, np.subtract(mids, k), "right"),
                      np.searchsorted(mode_eigs, np.add(mids, k), "right")))
    rows, cols, values = _edges(h, modes)

    def window(a, b):
        lo, hi = np.searchsorted(rows, (a, b))
        inside = (cols[lo:hi] >= a) & (cols[lo:hi] < b)
        return (b - a, rows[lo:hi][inside] - a, cols[lo:hi][inside] - a,
                values[lo:hi][inside])

    norms = edge_norms(window(a, b) for a, b in bounds)
    hnorm = h2_norm(h)
    reports = [
        SAPWindowReport(lam=mid, k=k, window_modes=int(b - a), op_norm=op,
                        h2_norm=hnorm, eps_eff=op / hnorm if hnorm > 0.0 else 0.0,
                        gap=gap, rho_ok=gap >= rho)
        for mid, gap, (a, b), op in zip(mids, gaps, bounds, norms.tolist())
    ]
    return sorted(reports, key=lambda r: (r.eps_eff, r.lam))


# ---------------------------------------------------------------------------
# JSON dicts

def multiplier_from_json_dict(data: dict) -> Multiplier:
    try:
        dom = data["domain"]
        rows = data["coeffs"]
    except (KeyError, TypeError):
        raise ConfigError("multiplier JSON needs 'domain' and 'coeffs'") from None
    try:
        domain = BoxDomain(
            dim=int(dom["dim"]),
            sides=tuple(float(s) for s in dom.get("sides", ())) or None,
            bc=dom.get("bc", "neumann"),
        )
        return Multiplier(domain=domain, coeffs=rows)
    except KeyError as exc:
        raise ConfigError(f"multiplier domain needs the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed multiplier JSON: {exc}") from None
