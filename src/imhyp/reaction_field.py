"""Planar cubic reaction fields and their fixed-point eigenvalue ladders.

Two named cubic families (a coupled one and a componentwise one) plus general
polynomial fields up to total degree 5.  The central quantity is the
real-part gap delta(p) = |Re(xi_1 - xi_2)| of the Jacobian eigenvalues at a
fixed point p; a field carrying four fixed points with delta ladder 0,1,2,3
obstructs normal hyperbolicity of any inertial manifold of the associated
reaction-diffusion system.

Parameters of the named families may be floats or sympy expressions; with
symbolic parameters every fixed point, Jacobian and delta stays exact.
sympy is imported only by the exact paths (the exact Prop. 3.5 field and
field JSON with string values), so float work never loads it.  Fields are
read from JSON dicts; rendering reports and file I/O are the driver's.
The method's tolerances (DEDUPE_TOL, LADDER_TOL, PROP34_TOL on
PROP34_BRACKET, PROP35_LADDER_TOL) are module constants, not parameters, so
no caller can widen a ladder match or move the Prop. 3.4 bracket.

Exact values stay canonical by ``expand`` and ``sqrtdenest``, not
``simplify``; signs come from sympy, or from a float where it cannot tell.
Only the residual keeps one ``simplify`` per point: on fields mixing floats
with exact values an expanded |f(p)| keeps round-off that fails the
residual gate or turns complex.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .dense_eig import _eig2x2_float
from .errors import ConfigError, HypothesisNotMet, NumericalFailure

Region = tuple[tuple[float, float], tuple[float, float]]
DEFAULT_REGION: Region = ((-4.0, 4.0), (-4.0, 4.0))

# accepted residual for a point returned by fixed_points: 1e-10*(1+|p|^3)
RESIDUAL_SCALE = 1e-10
# delta_of refuses points with |f(p)| above this
DELTA_RESIDUAL_CAP = 1e-8
NEWTON_GRID = 33
NEWTON_MAX_ITER = 50
NEWTON_STEP_TOL = 1e-13
# fixed points closer than this are one point
DEDUPE_TOL = 1e-8
# lemma33_check matches a gap to its target i when |delta - i| <= LADDER_TOL
LADDER_TOL = 1e-6
# solve_prop34 bisects middle_gap - 2 on this bracket, whose ends have
# opposite signs, until |middle_gap - 2| <= PROP34_TOL
PROP34_BRACKET = (7.0, 20.0)
PROP34_TOL = 1e-10
# Prop35Report.ladder_ok holds when every |delta_i - i| <= PROP35_LADDER_TOL
PROP35_LADDER_TOL = 1e-12


def _symbolic(*vals) -> bool:
    sym = sys.modules.get("sympy")  # no sympy value exists before its import
    return sym is not None and any(isinstance(v, sym.Basic) for v in vals)

def _zero(*vals):
    """0 of the values' kind: sympy's exact 0 if any is symbolic, else 0.0."""
    if not _symbolic(*vals):
        return 0.0
    import sympy as sym
    return sym.Integer(0)

def _negative(x) -> bool:
    """Whether the real x is below 0: sympy decides an exact x, float(x) the rest."""
    negative = getattr(x, "is_negative", None)
    return float(x) < 0 if negative is None else bool(negative)

def _sqrt(x):
    if not _symbolic(x):
        return math.sqrt(x)
    import sympy as sym
    return sym.sqrt(x)

def _check_positive(name, value):
    if not 0 < float(value) < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CubicCoupled:
    """f1 = k*v1*(1 - a*v1^2 + v2^2), f2 = k*v2*(1 - b*v2^2 - v1^2)."""

    k: object
    a: object
    b: object

    def __post_init__(self):
        for name in ("k", "a", "b"):
            _check_positive(name, getattr(self, name))

    def f(self, v):
        v1, v2 = v
        return (
            self.k * v1 * (1 - self.a * v1**2 + v2**2),
            self.k * v2 * (1 - self.b * v2**2 - v1**2),
        )

    def jacobian(self, v):
        v1, v2 = v
        k = self.k
        return (
            (k * (1 - 3 * self.a * v1**2 + v2**2), k * 2 * v1 * v2),
            (k * (-2) * v1 * v2, k * (1 - v1**2 - 3 * self.b * v2**2)),
        )


@dataclass(frozen=True)
class CubicUncoupled:
    """f1 = v1*(a - v1)*(v1 - b), f2 = v2*(c - v2)*(v2 - d); componentwise."""

    a: object
    b: object
    c: object
    d: object

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            _check_positive(name, getattr(self, name))

    def f(self, v):
        v1, v2 = v
        return (
            v1 * (self.a - v1) * (v1 - self.b),
            v2 * (self.c - v2) * (v2 - self.d),
        )

    def jacobian(self, v):
        v1, v2 = v
        # d/dv of v*(r - v)*(v - s) = -3v^2 + 2(r+s)v - r*s
        zero = _zero(v1, v2, self.a)
        return (
            (-3 * v1**2 + 2 * (self.a + self.b) * v1 - self.a * self.b, zero),
            (zero, -3 * v2**2 + 2 * (self.c + self.d) * v2 - self.c * self.d),
        )


@dataclass(frozen=True)
class GeneralPoly:
    """Polynomial field from coefficient tables {(i, j): coef} meaning
    coef * v1^i * v2^j, total degree <= 5."""

    f1_coeffs: tuple
    f2_coeffs: tuple

    def __post_init__(self):
        for label, table in (("f1", self.f1_coeffs), ("f2", self.f2_coeffs)):
            norm = []
            for entry in table:
                i, j, c = entry
                i, j = int(i), int(j)
                if i < 0 or j < 0 or i + j > 5:
                    raise ConfigError(
                        f"{label} term v1^{i}*v2^{j} outside total degree 5"
                    )
                norm.append((i, j, float(c)))
            object.__setattr__(self, f"{label}_coeffs", tuple(norm))

    def f(self, v):
        v1, v2 = v
        return (
            sum(c * v1**i * v2**j for i, j, c in self.f1_coeffs),
            sum(c * v1**i * v2**j for i, j, c in self.f2_coeffs),
        )

    def jacobian(self, v):
        v1, v2 = v

        def dx(table):
            return sum(c * i * v1 ** (i - 1) * v2**j for i, j, c in table if i > 0)

        def dy(table):
            return sum(c * j * v1**i * v2 ** (j - 1) for i, j, c in table if j > 0)

        return (
            (dx(self.f1_coeffs) + 0.0, dy(self.f1_coeffs) + 0.0),
            (dx(self.f2_coeffs) + 0.0, dy(self.f2_coeffs) + 0.0),
        )


PlanarField = CubicCoupled | CubicUncoupled | GeneralPoly


def _eig2x2(J):
    """Eigenvalues of a 2x2 matrix by the quadratic formula, discriminant
    (a-d)^2 + 4bc in exact and in float arithmetic alike.

    Returns (xi1, xi2, delta) ordered by descending (Re, Im); delta is the
    real-part gap, identically 0 for a complex-conjugate pair.  An exact
    triangular matrix returns its diagonal entries, with no root.
    """
    (a, b), (c, d) = J
    if not _symbolic(a, b, c, d):
        return _eig2x2_float(a, b, c, d)
    import sympy as sym
    if b * c == 0:
        gap = sym.expand(a - d)
        return (d, a, -gap) if _negative(gap) else (a, d, gap)
    tr = a + d
    disc = sym.expand((a - d) ** 2 + 4 * b * c)
    if _negative(disc):
        im = sym.sqrt(-disc) / 2
        return (tr / 2 + sym.I * im, tr / 2 - sym.I * im, sym.Integer(0))
    root = sym.sqrtdenest(sym.sqrt(disc))
    return (sym.expand((tr + root) / 2), sym.expand((tr - root) / 2), root)


@dataclass(frozen=True)
class FixedPointAnalysis:
    """A fixed point with its Jacobian, eigenvalues, real-part gap, residual."""

    point: tuple
    jacobian: tuple
    eigenvalues: tuple
    delta: object
    residual: object

    @property
    def point_float(self) -> tuple[float, float]:
        return (float(self.point[0]), float(self.point[1]))

    @property
    def delta_float(self) -> float:
        return float(self.delta)

    @property
    def residual_float(self) -> float:
        return float(self.residual)


def _residual(field: PlanarField, p):
    """|f(p)|; inf when f(p) leaves the float range."""
    try:
        f1, f2 = field.f(p)
    except OverflowError:  # Python-float ** raises instead of returning inf
        return math.inf
    if _symbolic(f1, f2):
        import sympy as sym
        return sym.simplify(sym.sqrt(f1**2 + f2**2))
    return math.hypot(float(f1), float(f2))


def _analysis(field: PlanarField, p, residual) -> FixedPointAnalysis:
    J = field.jacobian(p)
    xi1, xi2, delta = _eig2x2(J)
    return FixedPointAnalysis(
        point=tuple(p), jacobian=J, eigenvalues=(xi1, xi2), delta=delta, residual=residual
    )


def analyze_point(field: PlanarField, p) -> FixedPointAnalysis:
    """Bundle Jacobian eigenvalue data at p without any residual gate."""
    return _analysis(field, p, _residual(field, p))


def delta_of(field: PlanarField, p) -> FixedPointAnalysis:
    """Eigenvalue real-part gap at a fixed point; refuses non-fixed points.

    The residual gate comes before the Jacobian, so a point far enough out
    that the Jacobian would overflow is refused like any other.
    """
    residual = _residual(field, p)
    if not float(residual) <= DELTA_RESIDUAL_CAP:  # also refuses a nan residual
        raise HypothesisNotMet(
            f"point {(float(p[0]), float(p[1]))} is not a fixed point: "
            f"|f(p)| = {float(residual):.3e} exceeds {DELTA_RESIDUAL_CAP:.0e}"
        )
    return _analysis(field, p, residual)


def _closed_form_candidates(field: PlanarField):
    if isinstance(field, CubicCoupled):
        k, a, b = field.k, field.a, field.b
        zero = _zero(k, a, b)
        c1 = 1 / _sqrt(a)
        c3 = 1 / _sqrt(b)
        cands = [
            (zero, zero),
            (c1, zero),
            (-c1, zero),
            (zero, c3),
            (zero, -c3),
        ]
        if not _negative(a - 1):
            x2 = _sqrt((b + 1) / (a * b + 1))
            y2 = _sqrt((a - 1) / (a * b + 1))
            cands += [(sx * x2, sy * y2) for sx in (1, -1) for sy in (1, -1)]
        return cands
    if isinstance(field, CubicUncoupled):
        zero = _zero(field.a, field.b, field.c, field.d)
        return [(x, y) for x in (zero, field.a, field.b)
                for y in (zero, field.c, field.d)]
    raise ConfigError(f"no closed forms for {type(field).__name__}")


def _newton_candidates(field: GeneralPoly, region: Region):
    (x0, x1), (y0, y1) = region
    xs = np.linspace(x0, x1, NEWTON_GRID)
    ys = np.linspace(y0, y1, NEWTON_GRID)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    px = X.ravel().copy()
    py = Y.ravel().copy()
    step = np.full(px.shape, np.inf)
    for _ in range(NEWTON_MAX_ITER):
        # a table without terms sums to the scalar 0: broadcast it
        f1, f2 = np.broadcast_arrays(*field.f((px, py)), px)[:2]
        (j00, j01), (j10, j11) = field.jacobian((px, py))
        det = j00 * j11 - j01 * j10
        with np.errstate(all="ignore"):
            dx = (j11 * f1 - j01 * f2) / det
            dy = (j00 * f2 - j10 * f1) / det
        bad = ~np.isfinite(dx) | ~np.isfinite(dy)
        dx[bad] = 0.0
        dy[bad] = 0.0
        px -= dx
        py -= dy
        step = np.hypot(dx, dy)
        step[bad] = np.inf

    norm = np.hypot(px, py)
    f1, f2 = field.f((px, py))
    resid = np.hypot(f1, f2)
    ok = (
        (step < NEWTON_STEP_TOL * (1.0 + norm))
        & (resid <= RESIDUAL_SCALE * (1.0 + norm**3))
    )
    return [(float(x), float(y)) for x, y in zip(px[ok], py[ok])]


def fixed_points(
    field: PlanarField, region: Region = DEFAULT_REGION
) -> list[FixedPointAnalysis]:
    """All fixed points of the field inside the region (with 1e-9 slack),
    analyzed and sorted.

    The named cubic families are solved in closed form (complete root sets);
    general polynomial fields run damped-free Newton from a uniform
    33x33 seed grid, silently dropping non-converged seeds.  Points closer
    than DEDUPE_TOL are merged.
    """
    (x0, x1), (y0, y1) = region
    # NaN fails the comparisons, and an infinite bound is refused before any search
    if not (x1 > x0 and y1 > y0 and all(map(math.isfinite, (x0, x1, y0, y1)))):
        raise ConfigError(
            "region must be a nondegenerate finite box ((x0,x1),(y0,y1))"
        )
    if isinstance(field, GeneralPoly):
        cands = _newton_candidates(field, region)
    else:
        cands = _closed_form_candidates(field)
    cands = [
        p
        for p in cands
        if x0 - 1e-9 <= float(p[0]) <= x1 + 1e-9
        and y0 - 1e-9 <= float(p[1]) <= y1 + 1e-9
    ]
    cands.sort(key=lambda p: (float(p[0]), float(p[1])))
    kept = []
    kept_f = []
    for p in cands:
        pf = (float(p[0]), float(p[1]))
        if any(math.hypot(pf[0] - q[0], pf[1] - q[1]) <= DEDUPE_TOL
               for q in kept_f):
            continue
        kept.append(p)
        kept_f.append(pf)
    analyses = [analyze_point(field, p) for p in kept]
    for an in analyses:
        norm = math.hypot(*an.point_float)
        if an.residual_float > RESIDUAL_SCALE * (1.0 + norm**3):
            raise NumericalFailure(
                f"fixed point candidate {an.point_float} has residual "
                f"{an.residual_float:.3e}", witness=an.point_float
            )
    return analyses


@dataclass(frozen=True)
class Lemma33Result:
    """verdict: a full ladder exists.  matches maps each target delta to a
    fixed point: the distinct assignment when verdict holds, else the first
    point hitting each target that any point hits."""

    verdict: bool
    matches: dict


def lemma33_check(
    field: PlanarField, region: Region = DEFAULT_REGION
) -> Lemma33Result:
    """Look for four distinct fixed points whose real-part gaps hit 0,1,2,3.

    Existence of such a ladder rules out a normally hyperbolic inertial
    manifold for the associated reaction-diffusion system.  Matching is by
    |delta(p) - i| <= LADDER_TOL with points distinct at distance >= 1e-6.
    """
    analyses = fixed_points(field, region)
    slots = []
    for i in range(4):
        slots.append([an for an in analyses
                      if abs(an.delta_float - i) <= LADDER_TOL])

    def assign(i, used):
        if i == 4:
            return {}
        for an in slots[i]:
            pf = an.point_float
            if any(math.hypot(pf[0] - q[0], pf[1] - q[1]) < 1e-6 for q in used):
                continue
            rest = assign(i + 1, used + [pf])
            if rest is not None:
                rest[i] = an
                return rest
        return None

    matches = assign(0, [])
    if matches is None:
        return Lemma33Result(False, {i: hits[0] for i, hits in enumerate(slots) if hits})
    return Lemma33Result(True, {i: matches[i] for i in range(4)})


def coupled_ladder_params(a: float) -> tuple[float, float]:
    """The (k, b) normalization making the first and third gap 1 and 3."""
    return a / (3.0 * a - 1.0), a / (6.0 * a - 3.0)


def middle_gap(a: float) -> float:
    """delta at the interior fixed point of the normalized coupled family."""
    k, b = coupled_ladder_params(a)
    return 2.0 * k * abs(a - b - 2.0) / (a * b + 1.0)


@dataclass(frozen=True)
class Prop34Checklist:
    delta1_is_1: bool
    delta3_is_3: bool
    ordering: bool
    r0sq_lt_12: bool
    points_in_Dc: bool
    points_norm_le_sqrt7: bool

    def all_pass(self) -> bool:
        return all(astuple(self))


@dataclass(frozen=True)
class Prop34Constants:
    a_star: float
    k: float
    b: float
    phi_residual: float
    checklist: Prop34Checklist
    points: tuple
    deltas: tuple


def solve_prop34() -> Prop34Constants:
    """Tune the coupled cubic family so its four gaps are exactly 0,1,2,3.

    With k = a/(3a-1) and b = a/(6a-3) the outer gaps are pinned at 1 and 3;
    bisection on PROP34_BRACKET drives the middle gap to 2 within
    PROP34_TOL.  Returns the solved constants plus the verification
    checklist (ordering, dissipativity radius, containment of the four
    points in [0,1]x[0,sqrt(6)] and in the sqrt(7) disk).
    """
    lo, hi = PROP34_BRACKET
    flo = middle_gap(lo) - 2.0
    for _ in range(200):
        a_star = 0.5 * (lo + hi)
        fmid = middle_gap(a_star) - 2.0
        if abs(fmid) <= PROP34_TOL:
            break
        if flo * fmid <= 0:
            hi = a_star
        else:
            lo, flo = a_star, fmid
    else:
        raise NumericalFailure("bisection failed to reach the requested tolerance")

    k, b = coupled_ladder_params(a_star)
    field = CubicCoupled(k=k, a=a_star, b=b)
    p0 = (0.0, 0.0)
    p1 = (1.0 / math.sqrt(a_star), 0.0)
    p2 = (
        math.sqrt((b + 1.0) / (a_star * b + 1.0)),
        math.sqrt((a_star - 1.0) / (a_star * b + 1.0)),
    )
    p3 = (0.0, 1.0 / math.sqrt(b))
    points = (p0, p1, p2, p3)
    deltas = tuple(delta_of(field, p).delta_float for p in points)
    c = math.sqrt(6.0)
    r0sq = 2.0 / min(a_star, b)
    checklist = Prop34Checklist(
        delta1_is_1=abs(deltas[1] - 1.0) <= 1e-9,
        delta3_is_3=abs(deltas[3] - 3.0) <= 1e-9,
        ordering=a_star >= 1.0 + 1.0 / b >= b,
        r0sq_lt_12=r0sq < 12.0,
        points_in_Dc=all(0.0 <= x <= 1.0 and 0.0 <= y <= c for x, y in points),
        points_norm_le_sqrt7=all(math.hypot(x, y) <= math.sqrt(7.0) for x, y in points),
    )
    return Prop34Constants(
        a_star=a_star,
        k=k,
        b=b,
        phi_residual=abs(middle_gap(a_star) - 2.0),
        checklist=checklist,
        points=points,
        deltas=deltas,
    )


def prop35_field(exact: bool = True) -> CubicUncoupled:
    """The componentwise cubic with the exact 0,1,2,3 gap ladder."""
    if exact:
        import sympy as sym
        return CubicUncoupled(sym.Integer(2), sym.sqrt(3), sym.sqrt(6), sym.sqrt(2))
    return CubicUncoupled(2.0, math.sqrt(3.0), math.sqrt(6.0), math.sqrt(2.0))


@dataclass(frozen=True)
class Prop35Report:
    exact: bool
    analyses: tuple
    deltas: tuple
    delta_errors: tuple

    def ladder_ok(self) -> bool:
        return all(err <= PROP35_LADDER_TOL for err in self.delta_errors)


def verify_prop35(exact: bool = True) -> Prop35Report:
    """Analyze the four ladder points of the exact componentwise field."""
    field = prop35_field(exact)
    a, b, c, d = field.a, field.b, field.c, field.d
    pts = ((_zero(a), _zero(a)), (b, d), (a, c), (b, c))
    analyses = tuple(delta_of(field, p) for p in pts)
    deltas = tuple(an.delta for an in analyses)
    errors = tuple(abs(an.delta_float - i) for i, an in enumerate(analyses))
    return Prop35Report(exact=exact, analyses=analyses, deltas=deltas, delta_errors=errors)


@dataclass(frozen=True)
class DissipativityReport:
    r0: float
    verified: bool
    component_radii: tuple | None = None


def dissipativity_radius(
    field: PlanarField, samples: int = 10_000, seed: int = 0
) -> DissipativityReport:
    """Radius beyond which the field points inward, verified by sampling.

    Coupled family: v.f(v) <= 0 outside the disk of squared radius
    2/min(a,b); componentwise family: sign condition per component outside
    max(a,b) and max(c,d).  Sampling runs on the annulus [r0, 2*r0]; any
    violation raises NumericalFailure carrying the witness point.
    """
    if samples < 1 or seed < 0:
        raise ConfigError("samples must be positive and seed nonnegative")
    rng = np.random.default_rng(seed)
    if isinstance(field, CubicCoupled):
        a, b, k = float(field.a), float(field.b), float(field.k)
        r0 = math.sqrt(2.0 / min(a, b))
        radii = r0 * (1.0 + rng.random(samples))
        angles = 2.0 * math.pi * rng.random(samples)
        v1 = radii * np.cos(angles)
        v2 = radii * np.sin(angles)
        dot = k * (v1**2 + v2**2 - a * v1**4 - b * v2**4)
        tol = 1e-10 * max(k, 1.0) * float(np.max(1.0 + radii**4))
        bad = np.flatnonzero(dot > tol)
        if bad.size:
            i = int(bad[0])
            raise NumericalFailure(
                f"inward-pointing check failed at {(float(v1[i]), float(v2[i]))}",
                witness=(float(v1[i]), float(v2[i])),
            )
        return DissipativityReport(r0=r0, verified=True)
    if isinstance(field, CubicUncoupled):
        a, b, c, d = (float(field.a), float(field.b), float(field.c), float(field.d))
        r1, r2 = max(a, b), max(c, d)
        for axis, (r, p, q) in enumerate(((r1, a, b), (r2, c, d))):
            # component sign: t*f_component(t) <= 0 for |t| >= r
            t = r * (1.0 + rng.random(samples)) * rng.choice((-1.0, 1.0), size=samples)
            g = t * (t * (p - t) * (t - q))
            bad = np.flatnonzero(g > 1e-10 * float(np.max(1.0 + np.abs(t) ** 4)))
            if bad.size:
                w = float(t[bad[0]])
                raise NumericalFailure(
                    f"componentwise sign check failed at v{axis + 1}={w}",
                    witness=(w, 0.0) if axis == 0 else (0.0, w),
                )
        return DissipativityReport(
            r0=max(r1, r2), verified=True, component_radii=(r1, r2)
        )
    raise ConfigError("dissipativity radius is defined for the named cubic families")


def invariant_region_check(field: CubicCoupled, c) -> bool:
    """Whether [0,1]x[0,c] is positively invariant: 1/b <= c^2 <= a - 1."""
    if not isinstance(field, CubicCoupled):
        raise ConfigError("the box invariance criterion applies to the coupled family")
    a, b = field.a, field.b
    csq = c * c
    if _symbolic(a, b, c):
        import sympy as sym
        return (not _negative(sym.expand(csq - 1 / b))
                and not _negative(sym.expand((a - 1) - csq)))
    return 1.0 / float(b) <= float(csq) <= float(a) - 1.0


# ---------------------------------------------------------------------------
# JSON dicts

def field_from_json_dict(data: dict) -> PlanarField:
    """A field from its JSON dict.  Cubic parameters given as strings are
    exact, but one JSON number among them makes the whole field a float
    field, its strings evaluated to floats."""
    def vals(*names):
        raw = [data[name] for name in names]
        strings = [isinstance(x, str) for x in raw]
        if any(strings):
            import sympy as sym
            raw = [sym.sympify(x) if s else x for x, s in zip(raw, strings)]
        return raw if all(strings) else [float(x) for x in raw]

    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ConfigError("field JSON needs a 'kind' key") from None
    try:
        if kind == "cubic_coupled":
            return CubicCoupled(*vals("k", "a", "b"))
        if kind == "cubic_uncoupled":
            return CubicUncoupled(*vals("a", "b", "c", "d"))
        if kind == "poly":
            return GeneralPoly(
                f1_coeffs=tuple(tuple(t) for t in data["f1"]),
                f2_coeffs=tuple(tuple(t) for t in data["f2"]),
            )
    except KeyError as exc:
        raise ConfigError(f"{kind} field JSON needs the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} field JSON: {exc}") from None
    raise ConfigError(f"unknown field kind {kind!r}")

