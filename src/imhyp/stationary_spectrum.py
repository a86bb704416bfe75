"""Spectra of reaction-diffusion linearizations at homogeneous equilibria.

At a spatially constant equilibrium p the linearized operator decomposes over
Laplacian modes: its spectrum is {xi_i(J) - nu*lambda_n} where J is the
reaction Jacobian at p and lambda_n runs over the box spectrum.  This module
computes those spectra up to a cutoff, unstable indices and their parities,
step profiles of the counting function gamma -> dim Y(p, gamma), and gap
certificates that obstruct normally hyperbolic / absolutely normally
hyperbolic inertial manifolds up to the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HypothesisNotMet, PreconditionError
from .lattice_spectrum import BoxDomain, enumerate_spectrum

ZERO_TOL_DEFAULT = 1e-9
GAP_MIN_DEFAULT = 1e-6
CAVEAT_TEXT = "valid up to cutoff"
_MERGE = 1e-9


def _coerce_jac(jac) -> tuple:
    arr = np.atleast_2d(np.asarray(jac, dtype=float))
    if arr.shape not in ((1, 1), (2, 2)):
        raise ConfigError(f"jac must be 1x1 or 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("jac entries must be finite")
    return tuple(tuple(float(x) for x in row) for row in arr)


def _jac_real_parts(jac: tuple) -> tuple[tuple[float, int], ...]:
    """Eigenvalue real parts of the reaction Jacobian with multiplicities."""
    if len(jac) == 1:
        return ((jac[0][0], 1),)
    (a, b), (c, d) = jac
    tr = a + d
    disc = (a - d) * (a - d) + 4.0 * b * c
    if disc < 0.0:
        return ((tr / 2.0, 2),)
    s = math.sqrt(disc)
    if s == 0.0:
        return ((tr / 2.0, 2),)
    return (((tr + s) / 2.0, 1), ((tr - s) / 2.0, 1))


@dataclass(frozen=True)
class Linearization:
    """Reaction Jacobian at one homogeneous equilibrium, with domain and nu."""

    domain: BoxDomain
    nu: float
    jac: tuple
    label: str = ""

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigError(f"nu must be positive, got {self.nu}")
        object.__setattr__(self, "jac", _coerce_jac(self.jac))

    @property
    def xi_parts(self) -> tuple[tuple[float, int], ...]:
        return _jac_real_parts(self.jac)

    @property
    def xi_max(self) -> float:
        return max(r for r, _ in self.xi_parts)

    def shifted(self, c: float) -> "Linearization":
        """Same linearization with c*I added to the Jacobian."""
        s = len(self.jac)
        jac = tuple(
            tuple(self.jac[i][j] + (c if i == j else 0.0) for j in range(s))
            for i in range(s)
        )
        return Linearization(domain=self.domain, nu=self.nu, jac=jac, label=self.label)


def _merge_descending(vals: np.ndarray, weights: np.ndarray):
    """Merge near-equal values (descending order), summing weights."""
    order = np.argsort(-vals, kind="stable")
    v = vals[order]
    w = weights[order]
    if v.size == 0:
        return v, w.astype(np.int64)
    tol = _MERGE * (1.0 + np.abs(v[1:]))
    new_group = (v[:-1] - v[1:]) >= tol
    idx = np.concatenate(([0], np.flatnonzero(new_group) + 1))
    merged_v = v[idx]
    merged_w = np.add.reduceat(w, idx)
    return merged_v, merged_w.astype(np.int64)


def operator_spectrum(lin: Linearization, cutoff: float) -> list[tuple[float, int]]:
    """Real parts of the linearized operator's spectrum, with multiplicities.

    Each Jacobian eigenvalue real part xi contributes xi - nu*lambda_n over
    every Laplacian eigenvalue lambda_n <= cutoff; a complex-conjugate pair
    contributes its common real part with doubled multiplicity.  Returned
    descending.
    """
    spec = enumerate_spectrum(lin.domain, cutoff)
    lam = spec.eigenvalues
    mult = spec.multiplicities
    parts = []
    weights = []
    for xi, w in lin.xi_parts:
        parts.append(xi - lin.nu * lam)
        weights.append(w * mult)
    vals, ws = _merge_descending(np.concatenate(parts), np.concatenate(weights))
    return [(float(v), int(w)) for v, w in zip(vals, ws)]


def _required_cutoff(lin: Linearization, zero_tol: float) -> float:
    return (lin.xi_max + zero_tol) / lin.nu


def unstable_index(
    lin: Linearization, cutoff: float, zero_tol: float = ZERO_TOL_DEFAULT
) -> tuple[int, bool]:
    """Number of spectrum real parts above zero_tol, plus hyperbolicity.

    Demands a cutoff high enough that no positive part can be truncated:
    xi_max - nu*cutoff < -zero_tol.
    """
    if zero_tol < 0:
        raise ConfigError("zero_tol must be nonnegative")
    need = _required_cutoff(lin, zero_tol)
    if cutoff <= need:
        raise PreconditionError(
            f"cutoff {cutoff} too small to certify the unstable index: "
            f"need cutoff > {need:.17g}"
        )
    l = 0
    hyperbolic = True
    for part, w in operator_spectrum(lin, cutoff):
        if part > zero_tol:
            l += w
        elif part >= -zero_tol:
            hyperbolic = False
    return l, hyperbolic


@dataclass(frozen=True)
class IndexEntry:
    label: str
    index: int
    hyperbolic: bool


@dataclass(frozen=True)
class PairEntry:
    label_a: str
    label_b: str
    difference: int
    even: bool


@dataclass(frozen=True)
class ParityReport:
    entries: tuple
    pairs: tuple
    excluded: tuple


def _shared_domain(lins) -> None:
    if not lins:
        raise ConfigError("need at least one linearization")
    d0, nu0 = lins[0].domain, lins[0].nu
    for lin in lins[1:]:
        if lin.domain != d0 or lin.nu != nu0:
            raise ConfigError("linearizations must share domain and nu")


def _require_certified_range(lins, cutoff: float) -> None:
    """Refuse a cutoff that certifies no part of (-inf, 0): an Empty scan
    over such a range would claim an obstruction it never checked."""
    xi_max = max(lin.xi_max for lin in lins)
    if xi_max - lins[0].nu * cutoff >= 0.0:
        raise PreconditionError(
            f"cutoff {cutoff} too small to certify any gap below zero: "
            f"need cutoff > {xi_max / lins[0].nu:.17g}"
        )


def _labels(lins) -> list[str]:
    return [lin.label or f"eq{i}" for i, lin in enumerate(lins)]


def parity_report(
    lins, cutoff: float, zero_tol: float = ZERO_TOL_DEFAULT
) -> ParityReport:
    """Unstable indices for a family of equilibria and their pairwise parity.

    Non-hyperbolic equilibria are flagged and left out of the pair table.
    Whether an equilibrium belongs to the comparison class is the caller's
    assertion; this is a report, not a classification.
    """
    _shared_domain(lins)
    labels = _labels(lins)
    entries = []
    for lin, label in zip(lins, labels):
        l, hyp = unstable_index(lin, cutoff, zero_tol)
        entries.append(IndexEntry(label=label, index=l, hyperbolic=hyp))
    usable = [e for e in entries if e.hyperbolic]
    pairs = [
        PairEntry(
            label_a=a.label,
            label_b=b.label,
            difference=a.index - b.index,
            even=(a.index - b.index) % 2 == 0,
        )
        for i, a in enumerate(usable)
        for b in usable[i + 1 :]
    ]
    excluded = tuple(e.label for e in entries if not e.hyperbolic)
    return ParityReport(entries=tuple(entries), pairs=tuple(pairs), excluded=excluded)


@dataclass(frozen=True)
class ModeCountProfile:
    """Step profile of gamma -> #{spectrum real parts >= gamma} up to cutoff.

    breakpoints are the distinct real parts in descending order; counts[i]
    is the cumulative multiplicity through breakpoints[i].  Counts are only
    certified for gamma >= valid_above = xi_max - nu*cutoff: truncated modes
    all lie strictly below that line.
    """

    breakpoints: np.ndarray
    counts: np.ndarray
    cutoff: float
    valid_above: float

    def dim_at(self, gamma: float) -> int:
        if gamma < self.valid_above:
            raise PreconditionError(
                f"gamma {gamma} below the certified range (>= {self.valid_above}); "
                f"raise the cutoff"
            )
        # descending breakpoints; count those >= gamma (closed cut)
        idx = int(np.searchsorted(-self.breakpoints, -gamma, side="right"))
        return 0 if idx == 0 else int(self.counts[idx - 1])

    def gaps_below_zero(self, gap_min: float):
        """Open spectral gaps intersected with (valid_above, 0), as
        (lo, hi, count-above) triples; includes the semi-infinite top gap."""
        out = []
        bp = self.breakpoints
        if bp.size == 0:
            return out
        if bp[0] < 0.0:
            out.append((float(bp[0]), 0.0, 0))
        for i in range(bp.size - 1):
            hi, lo = float(bp[i]), float(bp[i + 1])
            certified_lo = max(lo, self.valid_above)
            if hi - certified_lo < gap_min:
                continue
            cap = min(hi, 0.0)
            if cap > certified_lo:
                out.append((certified_lo, cap, int(self.counts[i])))
        return out


def count_profile(lin: Linearization, cutoff: float) -> ModeCountProfile:
    spectrum = operator_spectrum(lin, cutoff)
    bps = np.array([v for v, _ in spectrum], dtype=float)
    counts = np.cumsum([w for _, w in spectrum]).astype(np.int64)
    return ModeCountProfile(
        breakpoints=bps,
        counts=counts,
        cutoff=float(cutoff),
        valid_above=lin.xi_max - lin.nu * cutoff,
    )


@dataclass(frozen=True)
class FeasibleDims:
    """Set of manifold dimensions n admitting a gamma < 0 spectral-gap cut."""

    dims: frozenset
    cutoff: float
    gap_min: float
    truncation_bound: float

    def __contains__(self, n) -> bool:
        return n in self.dims

    def __iter__(self):
        return iter(sorted(self.dims))

    def __len__(self) -> int:
        return len(self.dims)


def nhim_feasible_dims(
    lin: Linearization, cutoff: float, gap_min: float = GAP_MIN_DEFAULT
) -> FeasibleDims:
    """Dimensions cut off by some gamma < 0 inside a gap of width >= gap_min.

    n = 0 enters through the semi-infinite gap above the top real part when
    that part is negative.  Truncated at the cutoff; the certified floor is
    reported as truncation_bound.
    """
    if gap_min <= 0:
        raise ConfigError("gap_min must be positive")
    _require_certified_range([lin], cutoff)
    profile = count_profile(lin, cutoff)
    dims = {n for lo, hi, n in profile.gaps_below_zero(gap_min)}
    return FeasibleDims(
        dims=frozenset(dims),
        cutoff=float(cutoff),
        gap_min=float(gap_min),
        truncation_bound=profile.valid_above,
    )


@dataclass(frozen=True)
class Witness:
    gamma_lo: float
    gamma_hi: float
    n: int

    @property
    def width(self) -> float:
        return self.gamma_hi - self.gamma_lo


@dataclass(frozen=True)
class ObstructionCertificate:
    """Outcome of a gap scan: a witness cut or Empty, always cutoff-scoped."""

    mode: str
    cutoff: float
    equilibria: tuple
    result: Witness | None
    witnesses: tuple = ()
    caveat: str = CAVEAT_TEXT

    @property
    def empty(self) -> bool:
        return self.result is None

    def to_json_dict(self) -> dict:
        if self.result is None:
            result = "empty"
        else:
            result = {
                "gamma_lo": self.result.gamma_lo,
                "gamma_hi": self.result.gamma_hi,
                "n": self.result.n,
            }
        return {
            "mode": self.mode,
            "cutoff": self.cutoff,
            "result": result,
            "equilibria": list(self.equilibria),
            "caveat": self.caveat,
        }


def anhim_common_gamma(lins, cutoff: float) -> ObstructionCertificate:
    """Scan for one gamma < 0 lying in a spectral gap of every equilibrium
    with identical counts above it (the absolutely normally hyperbolic cut).

    Candidates are midpoints of the cells of the merged breakpoint partition
    below zero; counts are constant on each cell, so the scan is exhaustive
    up to the cutoff.  All admissible cells are kept as witnesses; the
    headline result is the widest one (ties to the largest gamma).  An Empty
    result only ever means: no admissible cut up to this cutoff, and a
    cutoff that certifies nothing below zero raises PreconditionError.
    """
    _shared_domain(lins)
    if len(lins) < 2:
        raise ConfigError("common-gamma scan needs at least two equilibria")
    _require_certified_range(lins, cutoff)
    labels = tuple(_labels(lins))
    profiles = [count_profile(lin, cutoff) for lin in lins]
    floor = max(p.valid_above for p in profiles)

    merged = np.unique(np.concatenate([p.breakpoints for p in profiles]))  # ascending
    merged = merged[(merged > floor)]
    # cell edges covering (floor, 0): breakpoints plus both ends
    edges = np.concatenate(([floor], merged[merged < 0.0], [0.0]))
    witnesses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0:
            continue
        gamma = 0.5 * (lo + hi)
        counts = [p.dim_at(gamma) for p in profiles]
        if any(c != counts[0] for c in counts[1:]):
            continue
        # maximal interval around gamma where every profile keeps this count
        cell_lo, cell_hi = floor, 0.0
        for p in profiles:
            above = p.breakpoints[p.breakpoints > gamma]
            below = p.breakpoints[p.breakpoints < gamma]
            if above.size:
                cell_hi = min(cell_hi, float(above.min()))
            if below.size:
                cell_lo = max(cell_lo, float(below.max()))
        witnesses.append(Witness(gamma_lo=cell_lo, gamma_hi=cell_hi, n=counts[0]))

    witnesses.sort(key=lambda w: -w.gamma_hi)
    headline = None
    if witnesses:
        headline = max(witnesses, key=lambda w: (w.width, w.gamma_hi))
    return ObstructionCertificate(
        mode="ANHIM",
        cutoff=float(cutoff),
        equilibria=labels,
        result=headline,
        witnesses=tuple(witnesses),
    )


def nhim_certificate(
    lins, cutoff: float, gap_min: float = GAP_MIN_DEFAULT
) -> ObstructionCertificate:
    """Intersect per-equilibrium feasible dimensions (gamma may differ).

    Empty when no dimension is feasible for every equilibrium.  Otherwise
    the smallest common dimension is reported; its gamma interval is the
    intersection of the per-equilibrium gaps when they overlap, else the
    first equilibrium's gap (the cuts need not share a gamma).
    """
    _shared_domain(lins)
    _require_certified_range(lins, cutoff)
    labels = tuple(_labels(lins))
    profiles = [count_profile(lin, cutoff) for lin in lins]
    per_dim = []
    for p in profiles:
        per_dim.append({n: (lo, hi) for lo, hi, n in p.gaps_below_zero(gap_min)})
    common = set(per_dim[0])
    for d in per_dim[1:]:
        common &= set(d)
    if not common:
        return ObstructionCertificate(
            mode="NHIM", cutoff=float(cutoff), equilibria=labels, result=None
        )
    n = min(common)
    los = [d[n][0] for d in per_dim]
    his = [d[n][1] for d in per_dim]
    lo, hi = max(los), min(his)
    if not lo < hi:
        lo, hi = per_dim[0][n]
    witness = Witness(gamma_lo=lo, gamma_hi=hi, n=n)
    witnesses = []
    for m in sorted(common):
        mlo, mhi = max(d[m][0] for d in per_dim), min(d[m][1] for d in per_dim)
        if not mlo < mhi:
            mlo, mhi = per_dim[0][m]
        witnesses.append(Witness(gamma_lo=mlo, gamma_hi=mhi, n=m))
    return ObstructionCertificate(
        mode="NHIM",
        cutoff=float(cutoff),
        equilibria=labels,
        result=witness,
        witnesses=tuple(witnesses),
    )


def lemma41_threshold(jac0, jac1, gap_bound: float) -> float:
    """Diffusion threshold nu* = a / K from the slope drop a between two
    scalar equilibria; the obstruction mechanism applies for nu < nu*."""
    j0 = _coerce_jac(jac0)
    j1 = _coerce_jac(jac1)
    if len(j0) != 1 or len(j1) != 1:
        raise ConfigError("threshold applies to scalar equations only")
    if gap_bound <= 0:
        raise ConfigError("gap bound K must be positive")
    a = j0[0][0] - j1[0][0]
    if a <= 0:
        raise HypothesisNotMet(
            f"needs a positive slope drop between the equilibria, got a = {a}"
        )
    return a / gap_bound
