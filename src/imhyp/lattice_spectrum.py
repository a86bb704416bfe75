"""Laplacian spectra of 1/2/3-dimensional boxes.

Enumeration of eigenvalues with multiplicities, gap statistics, the
spectral-jump ratio scan, the sums-of-three-squares gap audit, and a
log-log growth-exponent fit.  Eigenvalues of the (negative) Laplacian on
a box with side lengths pi*a_j are sum_j (l_j/a_j)^2; the admissible
integer frequencies l_j depend on the boundary condition.  On pi-sided
boxes these are integers, and one fold of per-axis (value, weight) tables
(`_fold`) yields both the exact multiplicities and, in bool over three
axes of squares, the audit's sums of three squares.  Every walk over a box
lattice, here or in spatial_averaging, is sized against one budget of
DEFAULT_BUDGET cells before it allocates.  Rendering reports and CSVs and
writing files is the driver's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NumericalFailure,
    PreconditionError,
    ResourceBudgetError,
)
from .lattice_params import BOUNDARY_CONDITIONS, PERIODIC_SCALINGS, JumpQuery

# memory budget: lattice cells one walk may materialize (an exact count table,
# a float candidate grid, the audit's table or a window-mode grid)
DEFAULT_BUDGET = 100_000_000

# two floating values merge when they differ by < MERGE_TOL*(1+|value|)
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class BoxDomain:
    """A box (0, s_1) x ... x (0, s_dim) with one boundary condition on all faces."""

    dim: int
    sides: tuple[float, ...] | None = None
    bc: str = "neumann"

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ConfigError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")
        sides = self.sides
        if sides is None:
            sides = (math.pi,) * self.dim
        sides = tuple(float(s) for s in sides)
        if len(sides) != self.dim:
            raise ConfigError(f"expected {self.dim} side lengths, got {len(sides)}")
        if not all(0 < s < math.inf for s in sides):  # NaN fails both
            raise ConfigError(f"side lengths must be positive and finite, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def axis_scales(self) -> tuple[float, ...]:
        """a_j such that side_j = pi*a_j."""
        return tuple(s / math.pi for s in self.sides)

    @property
    def is_pi_box(self) -> bool:
        """True when every side equals pi exactly (integer eigenvalues)."""
        return all(s == math.pi for s in self.sides)


@dataclass(frozen=True)
class Spectrum:
    """Ascending distinct eigenvalues with exact multiplicities, complete up to cutoff."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    cutoff: float
    exact: bool = False
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=float)
        mults = np.asarray(self.multiplicities, dtype=np.int64)
        if eigs.ndim != 1 or mults.shape != eigs.shape:
            raise ConfigError("eigenvalues and multiplicities must be 1-D of equal length")
        if eigs.size and np.any(np.diff(eigs) <= 0):
            raise ConfigError("eigenvalues must be strictly ascending")
        if np.any(mults < 1):
            raise ConfigError("multiplicities must be positive")
        eigs.setflags(write=False)
        mults.setflags(write=False)
        cum = np.cumsum(mults)
        cum.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "_cum", cum)

    def __len__(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def total_count(self) -> int:
        """Number of eigenvalues counted with multiplicity."""
        return int(self._cum[-1]) if len(self) else 0

    def entries(self) -> list[tuple[float, int]]:
        return list(zip(self.eigenvalues.tolist(), self.multiplicities.tolist()))

    def count_leq(self, x: float) -> int:
        """Counting function N(x): eigenvalues <= x with multiplicity."""
        i = int(np.searchsorted(self.eigenvalues, x, side="right"))
        return int(self._cum[i - 1]) if i else 0


def _within_budget(cells, what: str) -> None:
    """Refuse a walk over more than DEFAULT_BUDGET lattice cells (or NaN) before
    it allocates.  `what` names the walk, with {} for its count: 9 digits, so a
    count near the budget prints exactly (an int past 1e308 has no %g form)."""
    if not cells <= DEFAULT_BUDGET:
        count = "more than 1e308" if cells >= 1e308 else f"{cells:.9g}"
        raise ResourceBudgetError(
            f"{what.format(count)}, over the budget of {DEFAULT_BUDGET} lattice cells"
        )


def _axis_frequencies(domain: BoxDomain, axis: int, cutoff: float,
                      periodic_scaling: str = "paper") -> tuple[float, int]:
    """(step, lmax): the axis's frequencies l = 0..lmax (Dirichlet 1..lmax)
    give values (step*l/a)^2 <= cutoff.  An axis with more frequencies than
    the budget is refused, so none is ever allocated."""
    step = 1.0
    if domain.bc == "periodic" and periodic_scaling == "standard":
        step = 2.0
    top = domain.axis_scales[axis] * math.sqrt(cutoff) / step + 1e-12
    count = np.floor(top) + 1  # top may be inf
    _within_budget(count, f"enumeration visits {{}} frequencies on axis {axis + 1}")
    return step, int(count) - 1


def _axis_terms(domain: BoxDomain, axis: int, cutoff: float, step: float,
                lmax: int):
    """Values and weights of the single-axis frequency contributions <= cutoff.

    Returns (values, weights): values_i = (step*l_i/a)^2 ascending, weights_i
    the number of signed frequencies collapsing onto that value.
    """
    ls = np.arange(1 if domain.bc == "dirichlet" else 0, lmax + 1, dtype=np.int64)
    weights = np.ones_like(ls)
    if domain.bc == "periodic":  # +-l collapse onto one value
        weights[1:] = 2
    vals = (step * ls / domain.axis_scales[axis]) ** 2
    keep = vals <= cutoff
    return vals[keep], weights[keep]


def _fold(axes, cells: int, dtype) -> np.ndarray:
    """Table t[n], n < cells: the total weight of the lattice points whose
    axis values sum to n (for bool: whether any point does).

    `axes` holds integer (values, weights) per axis, values ascending and
    below `cells`.  The second axis is added to the first row by row of their
    outer sum (never built whole), each further axis by shifted slices.
    """
    (v0, w0), *rest = [(v, w.astype(dtype)) for v, w in axes]
    table = np.zeros(cells, dtype)
    if not rest:
        table[v0] = w0
    else:
        (v1, w1), *rest = rest
        ends = np.searchsorted(v1, cells - v0).tolist()  # v + v1[:k] < cells
        for v, w, k in zip(v0.tolist(), w0.tolist(), ends):
            # one row holds distinct sums, so += adds each weight once
            table[v + v1[:k]] += w * w1[:k]
    for values, weights in rest:
        folded = np.zeros_like(table)
        for v, w in zip(values.tolist(), weights.tolist()):
            # folded[n] += w * table[n - v] for all n >= v
            folded[v:] += table[: cells - v] if w == 1 else w * table[: cells - v]
        table = folded
    return table


def _merge_close(values: np.ndarray, weights: np.ndarray):
    """Sort ascending and merge neighbours differing by < MERGE_TOL*(1+|value|),
    keeping the lowest value of each group and summing weights."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    if v.size == 0:
        return v, w
    boundaries = np.flatnonzero(np.diff(v) >= MERGE_TOL * (1.0 + np.abs(v[:-1]))) + 1
    starts = np.concatenate(([0], boundaries))
    merged_v = v[starts]
    merged_w = np.add.reduceat(w, starts)
    return merged_v, merged_w.astype(np.int64)


def enumerate_spectrum(domain: BoxDomain, cutoff: float, *,
                       periodic_scaling: str = "paper") -> Spectrum:
    """All Laplacian eigenvalues of the box <= cutoff, with multiplicities.

    pi-sided boxes take an exact integer-arithmetic path (a counting table
    folded axis by axis); general sides are enumerated in floating point and
    merged at relative width 1e-9.  Requests that would materialize more than
    DEFAULT_BUDGET lattice cells raise ResourceBudgetError before allocating,
    instead of truncating.
    """
    if periodic_scaling not in PERIODIC_SCALINGS:
        raise ConfigError(f"periodic_scaling must be one of {PERIODIC_SCALINGS}")
    if not (cutoff >= 0) or not math.isfinite(cutoff):
        raise ConfigError(f"cutoff must be finite and >= 0, got {cutoff}")

    if domain.is_pi_box:
        limit = int(math.floor(cutoff + 1e-12))
        cells = limit + 1
        _within_budget(cells, "enumeration needs a table of {} cells")
        axes = [_axis_terms(domain, ax, float(limit), *_axis_frequencies(
                    domain, ax, float(limit), periodic_scaling))
                for ax in range(domain.dim)]
        counts = _fold([(np.rint(v).astype(np.int64), w) for v, w in axes],
                       cells, np.int64)
        eigs = np.flatnonzero(counts)
        return Spectrum(eigs.astype(float), counts[eigs], cutoff=float(cutoff), exact=True)

    # count the lattice before any axis is allocated
    freqs = [_axis_frequencies(domain, ax, cutoff, periodic_scaling)
             for ax in range(domain.dim)]
    total = math.prod(lmax + (domain.bc != "dirichlet") for _, lmax in freqs)
    _within_budget(total, "enumeration visits {} lattice points")
    axes = [_axis_terms(domain, ax, cutoff, *f) for ax, f in enumerate(freqs)]

    # fold the axes, last first, into one value/weight grid below the cutoff
    values, weights = axes[-1]
    for v, w in reversed(axes[:-1]):
        values = (v[:, None] + values[None, :]).ravel()
        weights = (w[:, None] * weights[None, :]).ravel()
        keep = values <= cutoff
        values, weights = values[keep], weights[keep]
    mv, mw = _merge_close(values, weights)
    return Spectrum(mv, mw, cutoff=float(cutoff))


@dataclass(frozen=True)
class GapReport:
    """Largest spacing of a spectrum plus gap histogram and running-max trend."""

    max_gap: float
    witness: tuple[float, float]
    gap_histogram: list[tuple[float, int]]
    sup_trend: list[tuple[float, float]]


def _running_max_trend(right: np.ndarray, values: np.ndarray, top: float):
    """(checkpoint, max of values[i] over right[i] <= checkpoint, or 0.0 when
    there is none) at checkpoints 1, 2, 4, ... below `top`, then `top`."""
    cps = []
    c = 1.0
    while c < top:
        cps.append(c)
        c *= 2.0
    cps.append(float(top))
    runmax = np.maximum.accumulate(values)
    ends = np.searchsorted(right, cps, side="right") - 1
    return [(cp, float(runmax[j]) if j >= 0 else 0.0)
            for cp, j in zip(cps, ends.tolist())]


def gap_stats(spectrum: Spectrum) -> GapReport:
    """Max gap between consecutive distinct eigenvalues, with witness and trend."""
    if len(spectrum) < 2:
        raise PreconditionError("gap statistics need a spectrum with >= 2 entries")
    eigs = spectrum.eigenvalues
    diffs = np.diff(eigs)
    i = int(np.argmax(diffs))  # first maximal gap
    witness = (float(eigs[i]), float(eigs[i + 1]))
    hist_keys = np.round(diffs, 9)
    uniq, counts = np.unique(hist_keys, return_counts=True)
    histogram = list(zip(uniq.tolist(), counts.tolist()))
    trend = _running_max_trend(eigs[1:], diffs, spectrum.cutoff)
    return GapReport(float(diffs[i]), witness, histogram, trend)


@dataclass(frozen=True)
class JumpScanResult:
    best_n: int
    best_ratio: float
    satisfied: bool
    best_pair: tuple[float, float]
    ratio_trend: list[tuple[float, float]]


def jump_condition_scan(spectrum: Spectrum, query: JumpQuery) -> JumpScanResult:
    """Maximize (mu_{n+1}-mu_n)/(mu_{n+1}^theta + mu_n^theta) over the spectrum.

    `best_n` is the 1-based position, counted with multiplicity, of the left
    endpoint of the winning gap (smallest such position on ties).  The
    condition is satisfied when the best ratio exceeds cconst*lip.
    """
    if len(spectrum) < 2:
        raise PreconditionError("jump scan needs a spectrum with >= 2 entries")
    mu = 1.0 + query.nu * spectrum.eigenvalues
    ratios = np.diff(mu) / (mu[1:] ** query.theta + mu[:-1] ** query.theta)
    j = int(np.argmax(ratios))
    return JumpScanResult(
        best_n=int(spectrum._cum[j]),
        best_ratio=float(ratios[j]),
        satisfied=bool(ratios[j] > query.cconst * query.lip),
        best_pair=(float(mu[j]), float(mu[j + 1])),
        ratio_trend=_running_max_trend(mu[1:], ratios, float(mu[-1])),
    )


def _excluded_closed_form(limit: int) -> np.ndarray:
    """Boolean table of the 4^a*(8b+7) integers <= limit."""
    excluded = np.zeros(limit + 1, dtype=bool)
    q = 1
    while 7 * q <= limit:
        excluded[7 * q :: 8 * q] = True  # q*(8b+7) for b = 0, 1, ...
        q *= 4
    return excluded


@dataclass(frozen=True)
class ThreeSquareAudit:
    excluded: np.ndarray
    max_gap: int
    gap_witness: tuple[int, int]
    max_excluded_run: int


def three_square_gap_audit(limit: int) -> ThreeSquareAudit:
    """Enumerate non-sums-of-three-squares <= limit and audit the induced gaps.

    The representable integers are the bool fold of three axes of squares
    0, 1, 4, ... (the Neumann pi-cube's lattice), cross-checked against the
    4^a(8b+7) closed form; any mismatch raises NumericalFailure.  max_gap is
    the largest spacing between consecutive representable integers,
    max_excluded_run the longest run of consecutive excluded integers.
    Limits whose tables exceed DEFAULT_BUDGET cells raise ResourceBudgetError.
    """
    if limit < 8:
        raise PreconditionError(f"audit needs limit >= 8, got {limit}")
    _within_budget(limit + 1, "audit needs a table of {} cells")
    squares = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    representable = _fold([(squares, np.ones_like(squares))] * 3, limit + 1, bool)
    closed = _excluded_closed_form(limit)
    bad = np.flatnonzero(representable == closed)  # the two must be complements
    if bad.size:
        raise NumericalFailure(
            "three-squares fold and 4^a(8b+7) closed form disagree", witness=int(bad[0])
        )
    excluded = np.flatnonzero(closed)  # holds 7, as limit >= 8
    # runs of consecutive excluded integers: their ends (as indices) and lengths
    ends = np.append(np.flatnonzero(np.diff(excluded) != 1), excluded.size - 1)
    runs = np.diff(ends, prepend=-1)
    last = excluded[ends]
    # 0 is representable, so each gap between consecutive representable
    # integers is one excluded run plus 1: the first longest run below limit
    i = int(np.argmax(np.where(last < limit, runs, 0)))
    return ThreeSquareAudit(
        excluded=excluded,
        max_gap=int(runs[i]) + 1,
        gap_witness=(int(last[i] - runs[i]), int(last[i]) + 1),
        max_excluded_run=int(runs.max()),
    )


@dataclass(frozen=True)
class WeylFit:
    exponent: float
    residual: float
    expected: float
    n_used: int


def weyl_fit(spectrum: Spectrum, dim: int) -> WeylFit:
    """Least-squares slope of log(lambda_n) against log(n) over the upper half.

    The ordered eigenvalue sequence (with multiplicity) of a dim-dimensional
    box grows like n^(2/dim); the fitted exponent should approach that.
    """
    lam = np.repeat(spectrum.eigenvalues, spectrum.multiplicities)
    total = lam.size
    if total < 100:
        raise PreconditionError(
            f"growth fit needs >= 100 eigenvalues with multiplicity, got {total}"
        )
    lo = total // 2
    lam_u, n_u = lam[lo:], np.arange(lo + 1, total + 1, dtype=float)
    if np.any(lam_u <= 0):
        raise PreconditionError("upper half of the spectrum must be positive for the log fit")
    # closed-form least squares in numpy reductions: no platform LAPACK or BLAS
    x, y = np.log(n_u), np.log(lam_u)
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    residual = float(np.sqrt(np.mean((dy - slope * dx) ** 2)))
    return WeylFit(
        exponent=float(slope), residual=residual, expected=2.0 / dim, n_used=int(n_u.size)
    )
