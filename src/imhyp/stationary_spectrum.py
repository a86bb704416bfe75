"""Spectra of reaction-diffusion linearizations at homogeneous equilibria.

At a spatially constant equilibrium p the linearized operator decomposes over
Laplacian modes: its spectrum is {xi_i(J) - nu*lambda_n} where J is the
reaction Jacobian at p and lambda_n runs over the box spectrum.  This module
computes those spectra up to a cutoff, unstable indices and their parities,
step profiles of the counting function gamma -> dim Y(p, gamma), and gap
certificates that obstruct normally hyperbolic / absolutely normally
hyperbolic inertial manifolds up to the cutoff.  Every gap below zero is a
Witness (gamma_lo, gamma_hi, n), computed by ModeCountProfile.gaps_below_zero.
The two thresholds, ZERO_TOL for a real part counted as zero and GAP_MIN for
the narrowest admitted gap, are module constants read at each call, not
parameters: no caller can loosen an index or a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense_eig import _eig2x2_float
from .errors import ConfigError, HypothesisNotMet, PreconditionError
from .lattice_spectrum import BoxDomain, Spectrum, _merge_close, enumerate_spectrum

ZERO_TOL = 1e-9
GAP_MIN = 1e-6
CAVEAT_TEXT = "valid up to cutoff"


def _coerce_jac(jac) -> tuple:
    arr = np.atleast_2d(np.asarray(jac, dtype=float))
    if arr.shape not in ((1, 1), (2, 2)):
        raise ConfigError(f"jac must be 1x1 or 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("jac entries must be finite")
    return tuple(tuple(float(x) for x in row) for row in arr)


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
        """Eigenvalue real parts of the reaction Jacobian with multiplicities."""
        if len(self.jac) == 1:
            return ((self.jac[0][0], 1),)
        (a, b), (c, d) = self.jac
        xi1, xi2, s = _eig2x2_float(a, b, c, d)
        if s == 0.0:  # a double eigenvalue or a complex-conjugate pair
            return (((a + d) / 2.0, 2),)
        return ((xi1, 1), (xi2, 1))

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


def _operator_parts(lin: Linearization, spec: Spectrum):
    """Distinct real parts xi - nu*lambda of lin's operator over the box
    spectrum spec, descending, with their multiplicities."""
    lam = spec.eigenvalues
    vals = np.concatenate([xi - lin.nu * lam for xi, _ in lin.xi_parts])
    weights = np.concatenate([w * spec.multiplicities for _, w in lin.xi_parts])
    # merge the descending parts as ascending negatives; negating back is
    # exact, so an exact 0 part stays +0 and never renders as -0 in a report
    neg, ws = _merge_close(-vals, weights)
    return -neg, ws


def operator_spectrum(lin: Linearization, cutoff: float) -> list[tuple[float, int]]:
    """Real parts of the linearized operator's spectrum, with multiplicities.

    Each Jacobian eigenvalue real part xi contributes xi - nu*lambda_n over
    every Laplacian eigenvalue lambda_n <= cutoff; a complex-conjugate pair
    contributes its common real part with doubled multiplicity.  Returned
    descending.
    """
    vals, ws = _operator_parts(lin, enumerate_spectrum(lin.domain, cutoff))
    return [(float(v), int(w)) for v, w in zip(vals, ws)]


def _require_index_cutoff(lin: Linearization, cutoff: float) -> None:
    need = (lin.xi_max + ZERO_TOL) / lin.nu
    if cutoff <= need:
        raise PreconditionError(
            f"cutoff {cutoff} too small to certify the unstable index: "
            f"need cutoff > {need:.17g}"
        )


def _index(lin: Linearization, spec: Spectrum) -> tuple[int, bool]:
    vals, ws = _operator_parts(lin, spec)
    index = int(ws[vals > ZERO_TOL].sum())
    hyperbolic = not np.any(np.abs(vals) <= ZERO_TOL)
    return index, hyperbolic


def unstable_index(lin: Linearization, cutoff: float) -> tuple[int, bool]:
    """Number of spectrum real parts above ZERO_TOL, plus hyperbolicity.

    Demands a cutoff high enough that no positive part can be truncated:
    xi_max - nu*cutoff < -ZERO_TOL.
    """
    _require_index_cutoff(lin, cutoff)
    return _index(lin, enumerate_spectrum(lin.domain, cutoff))


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


def parity_report(lins, cutoff: float) -> ParityReport:
    """Unstable indices for a family of equilibria and their pairwise parity.

    Non-hyperbolic equilibria are flagged and left out of the pair table.
    Whether an equilibrium belongs to the comparison class is the caller's
    assertion; this is a report, not a classification.
    """
    _shared_domain(lins)
    labels = _labels(lins)
    entries = []
    spec = None
    for lin, label in zip(lins, labels):
        _require_index_cutoff(lin, cutoff)
        if spec is None:  # after the first check: errors come as from unstable_index
            spec = enumerate_spectrum(lin.domain, cutoff)
        l, hyp = _index(lin, spec)
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
class Witness:
    """A gap (gamma_lo, gamma_hi) below zero with n spectrum parts above it."""

    gamma_lo: float
    gamma_hi: float
    n: int

    @property
    def width(self) -> float:
        return self.gamma_hi - self.gamma_lo


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
        return int(self._dims_at(gamma))

    def _dims_at(self, gammas):
        """Counts at each gamma, unchecked: breakpoints >= gamma (closed cut)."""
        idx = np.searchsorted(-self.breakpoints, -np.asarray(gammas), side="right")
        return np.concatenate(([0], self.counts))[idx]

    def gaps_below_zero(self) -> list[Witness]:
        """Open spectral gaps at least GAP_MIN wide intersected with
        (valid_above, 0), as Witness rows in ascending n; includes the
        semi-infinite top gap (n = 0) when the top part is negative."""
        bp = self.breakpoints
        out = [Witness(float(bp[0]), 0.0, 0)] if bp.size and bp[0] < 0.0 else []
        # gap i is (bp[i+1], bp[i]); np.where keeps max/min's pick of signed zeros
        lo = np.where(self.valid_above > bp[1:], self.valid_above, bp[1:])
        cap = np.where(bp[:-1] > 0.0, 0.0, bp[:-1])
        keep = ~(bp[:-1] - lo < GAP_MIN) & (cap > lo)
        rows = zip(lo[keep].tolist(), cap[keep].tolist(), self.counts[:-1][keep])
        return out + [Witness(l, c, int(n)) for l, c, n in rows]


def _profile(lin: Linearization, spec: Spectrum) -> ModeCountProfile:
    bps, ws = _operator_parts(lin, spec)
    return ModeCountProfile(
        breakpoints=bps,
        counts=np.cumsum(ws).astype(np.int64),
        cutoff=spec.cutoff,
        valid_above=lin.xi_max - lin.nu * spec.cutoff,
    )


def count_profile(lin: Linearization, cutoff: float) -> ModeCountProfile:
    return _profile(lin, enumerate_spectrum(lin.domain, cutoff))


@dataclass(frozen=True)
class ObstructionCertificate:
    """Outcome of a gap scan: a witness cut or Empty, always cutoff-scoped."""

    mode: str
    cutoff: float
    equilibria: tuple
    result: Witness | None
    witnesses: tuple = ()
    caveat: str = CAVEAT_TEXT
    # NHIM only: each equilibrium's count profile and its gaps below zero
    # (its Witness rows, ascending n), in order
    profiles: tuple = field(default=(), repr=False, compare=False)
    gaps: tuple = field(default=(), repr=False, compare=False)

    @property
    def empty(self) -> bool:
        return self.result is None


def anhim_common_gamma(lins, cutoff: float) -> ObstructionCertificate:
    """Scan for one gamma < 0 lying in a spectral gap of every equilibrium
    with identical counts above it (the absolutely normally hyperbolic cut).

    The box spectrum is enumerated once for the family.  The cells are the
    merged breakpoint partition of (floor, 0), floor the highest certified
    line; counts are constant on each cell, so evaluating them at the cell
    midpoints is exhaustive up to the cutoff.  Every cell with equal counts
    is a witness (lo, hi); the headline result is the widest one (ties to
    the largest gamma).  An Empty result only ever means: no admissible cut
    up to this cutoff, and a cutoff that certifies nothing below zero raises
    PreconditionError.
    """
    _shared_domain(lins)
    if len(lins) < 2:
        raise ConfigError("common-gamma scan needs at least two equilibria")
    _require_certified_range(lins, cutoff)
    labels = tuple(_labels(lins))
    spec = enumerate_spectrum(lins[0].domain, cutoff)
    profiles = [_profile(lin, spec) for lin in lins]
    floor = max(p.valid_above for p in profiles)

    merged = np.unique(np.concatenate([p.breakpoints for p in profiles]))  # ascending
    edges = np.concatenate(([floor], merged[(merged > floor) & (merged < 0.0)], [0.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    counts = np.array([p._dims_at(mids) for p in profiles])
    admitted = np.all(counts == counts[0], axis=0)
    witnesses = [
        Witness(gamma_lo=lo, gamma_hi=hi, n=n)
        for lo, hi, n, ok in zip(
            edges[:-1].tolist(), edges[1:].tolist(), counts[0].tolist(), admitted
        )
        if ok
    ]
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


def nhim_certificate(lins, cutoff: float) -> ObstructionCertificate:
    """Intersect the n of each equilibrium's gaps below zero (gamma may differ).

    The box spectrum is enumerated once for the family, and the
    certificate carries each equilibrium's ModeCountProfile as `profiles`
    and its gaps_below_zero rows as `gaps`.
    Empty when no n is common.  Otherwise the witnesses are the common n,
    ascending, the smallest is the result, and a witness's gamma interval is
    the intersection of the equilibria's gaps when they overlap, else the
    first equilibrium's gap (the cuts need not share a gamma).
    """
    _shared_domain(lins)
    _require_certified_range(lins, cutoff)
    labels = tuple(_labels(lins))
    spec = enumerate_spectrum(lins[0].domain, cutoff)
    profiles = tuple(_profile(lin, spec) for lin in lins)
    gaps = tuple(tuple(p.gaps_below_zero()) for p in profiles)
    by_n = [{w.n: w for w in g} for g in gaps]
    witnesses = []
    for n in sorted(set(by_n[0]).intersection(*by_n[1:])):
        lo = max(g[n].gamma_lo for g in by_n)
        hi = min(g[n].gamma_hi for g in by_n)
        witnesses.append(Witness(lo, hi, n) if lo < hi else by_n[0][n])
    return ObstructionCertificate(
        mode="NHIM",
        cutoff=float(cutoff),
        equilibria=labels,
        result=witnesses[0] if witnesses else None,
        witnesses=tuple(witnesses),
        profiles=profiles,
        gaps=gaps,
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
