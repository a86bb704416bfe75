"""Planar cubic reaction fields and their fixed-point eigenvalue ladders.

Two named cubic families (a coupled one and a componentwise one) plus general
polynomial fields up to total degree 5.  The central quantity is the
real-part gap delta(p) = |Re(xi_1 - xi_2)| of the Jacobian eigenvalues at a
fixed point p; a field carrying four fixed points with delta ladder 0,1,2,3
obstructs normal hyperbolicity of any inertial manifold of the associated
reaction-diffusion system.

The parameters of a named family are all floats or all exact.  Exact ones
keep every fixed point, Jacobian and delta exact (a complex pair of
eigenvalues comes back as correctly rounded complex floats, with an exact
gap 0): two fixed points are one, and a gap hits the ladder, only by ``==``;
the tolerances below serve float fields.  Exact values (``_Real``), field
strings (``_parse``) and the one 2x2 eigen routine (``_eig2x2``) come from
exact_real.  Only the Newton search of a general polynomial field loads
numpy: the dissipativity radius and ``lemma41_threshold``, the diffusion
threshold between two scalar equilibria, need none.  Fields are read from
JSON dicts; rendering reports and file I/O are the driver's.  The method's
tolerances (DEDUPE_TOL, LADDER_TOL, PROP34_TOL on PROP34_BRACKET,
PROP35_LADDER_TOL) are module constants, not parameters, so no caller can
widen a ladder match or move the bracket.

The residual |f(p)| follows one rule for every number kind: an exact 0 when
both components are exactly 0, else the float hypot of the two components.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .errors import ConfigError, HypothesisNotMet, NumericalFailure, _int, _number
from .exact_real import _coerce, _eig2x2, _negative, _parse, _Real, _sqrt, _zero

Region = tuple[tuple[float, float], tuple[float, float]]
DEFAULT_REGION: Region = ((-4.0, 4.0), (-4.0, 4.0))

# accepted residual for a point returned by fixed_points: 1e-10*(1+|p|^3)
RESIDUAL_SCALE = 1e-10
# delta_of refuses points with |f(p)| above this
DELTA_RESIDUAL_CAP = 1e-8
NEWTON_GRID = 33
NEWTON_MAX_ITER = 50
NEWTON_STEP_TOL = 1e-13
# float fixed points this close are one point; exact ones only when equal
DEDUPE_TOL = 1e-8
# lemma33_check matches a float gap to its target i when |delta - i| <= LADDER_TOL
LADDER_TOL = 1e-6
# solve_prop34 bisects middle_gap - 2 on this bracket, whose ends have
# opposite signs, until |middle_gap - 2| <= PROP34_TOL
PROP34_BRACKET = (7.0, 20.0)
PROP34_TOL = 1e-10
# on float deltas, Prop35Report.ladder_ok holds when every |delta_i - i| <= this
PROP35_LADDER_TOL = 1e-12


def _hits(delta, target: int, tol: float) -> bool:
    """Whether a gap is the target: exactly for a _Real, within tol for a float."""
    return delta == target if isinstance(delta, _Real) else abs(float(delta) - target) <= tol

def _set_parameters(field, names):
    """Make the named parameters one kind, each positive and finite: floats
    when any is a float (a string then read exactly and rounded), else _Real.
    int, Fraction, float, str and _Real are taken."""
    raw = [getattr(field, name) for name in names]
    floats = any(isinstance(x, float) for x in raw)
    for name, given in zip(names, raw):
        x = given if isinstance(given, float) else (
            _parse(given, name) if isinstance(given, str) else _coerce(given))
        if x is NotImplemented:
            raise ConfigError(f"{name} must be an int, Fraction, float, string or "
                              f"exact real, got {type(given).__name__}")
        x = float(x) if floats else x
        if not (x._sign > 0 if isinstance(x, _Real) else 0 < x < math.inf):  # NaN fails
            raise ConfigError(f"{name} must be positive and finite, got {x}")
        object.__setattr__(field, name, x)


@dataclass(frozen=True)
class CubicCoupled:
    """f1 = k*v1*(1 - a*v1^2 + v2^2), f2 = k*v2*(1 - b*v2^2 - v1^2)."""

    k: object
    a: object
    b: object

    def __post_init__(self):
        _set_parameters(self, ("k", "a", "b"))

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
        _set_parameters(self, ("a", "b", "c", "d"))

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
                i, j = _int(i), _int(j)
                if i < 0 or j < 0 or i + j > 5:
                    raise ConfigError(
                        f"{label} term v1^{i}*v2^{j} outside total degree 5"
                    )
                c = _number(c)
                if not math.isfinite(c):
                    raise ConfigError(
                        f"{label} coefficient of v1^{i}*v2^{j} is not finite")
                norm.append((i, j, c))
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


@dataclass(frozen=True)
class FixedPointAnalysis:
    """A fixed point with its Jacobian, eigenvalues, real-part gap, residual."""

    point: tuple
    jacobian: tuple
    eigenvalues: tuple
    delta: object
    residual: object


def _residual(field: PlanarField, p):
    """|f(p)|: an exact 0 when both components are exactly 0, else a float,
    inf past the float range."""
    try:
        f1, f2 = field.f(p)
    except OverflowError:  # Python-float ** raises instead of returning inf
        return math.inf
    if f1 == 0 and f2 == 0:
        return _zero(f1, f2)
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


def _slope(jac) -> float:
    """The entry of a scalar equation's Jacobian: x, [x], [[x]] or an array."""
    x = jac.tolist() if hasattr(jac, "tolist") else jac
    while isinstance(x, (list, tuple)):
        if len(x) != 1:
            raise ConfigError("threshold applies to scalar equations only")
        x = x[0]
    x = float(x)
    if not math.isfinite(x):
        raise ConfigError("jac entries must be finite")
    return x


def lemma41_threshold(jac0, jac1, gap_bound: float) -> float:
    """Diffusion threshold nu* = a / K from the slope drop a between two
    scalar equilibria; the obstruction mechanism applies for nu < nu*."""
    a = _slope(jac0) - _slope(jac1)
    if gap_bound <= 0:
        raise ConfigError("gap bound K must be positive")
    if a <= 0:
        raise HypothesisNotMet(
            f"needs a positive slope drop between the equilibria, got a = {a}"
        )
    return a / gap_bound


def _closed_form_candidates(field: CubicCoupled | CubicUncoupled):
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
    zero = _zero(field.a, field.b, field.c, field.d)
    return [(x, y) for x in (zero, field.a, field.b) for y in (zero, field.c, field.d)]


def _newton_candidates(field: GeneralPoly, region: Region):
    import numpy as np
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
    33x33 seed grid, silently dropping non-converged seeds.  Exact points
    are one point when they are equal, float points when they lie within
    DEDUPE_TOL.
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
    kept = []
    for pf, p in sorted((((float(p[0]), float(p[1])), p) for p in cands),
                        key=lambda c: c[0]):
        if (x0 - 1e-9 <= pf[0] <= x1 + 1e-9 and y0 - 1e-9 <= pf[1] <= y1 + 1e-9
                and not any(p == q if isinstance(p[0], _Real) else
                            math.hypot(p[0] - q[0], p[1] - q[1]) <= DEDUPE_TOL
                            for q in kept)):
            kept.append(p)
    analyses = [analyze_point(field, p) for p in kept]
    for an in analyses:
        point, residual = tuple(map(float, an.point)), float(an.residual)
        if residual > RESIDUAL_SCALE * (1.0 + math.hypot(*point) ** 3):
            raise NumericalFailure(
                f"fixed point candidate {point} has residual {residual:.3e}",
                witness=point)
    return analyses


@dataclass(frozen=True)
class Lemma33Result:
    """matches maps each target delta that a fixed point hits to the first
    such point; verdict: all four targets are hit."""

    verdict: bool
    matches: dict


def lemma33_check(
    field: PlanarField, region: Region = DEFAULT_REGION
) -> Lemma33Result:
    """Look for four distinct fixed points whose real-part gaps hit 0,1,2,3.

    Existence of such a ladder rules out a normally hyperbolic inertial
    manifold for the associated reaction-diffusion system.  Matching is
    delta(p) == i on an exact field and |delta(p) - i| <= LADDER_TOL on a
    float one; the points of fixed_points are distinct (unequal when exact,
    over DEDUPE_TOL apart when float), and no point hits two targets, so
    the first hits are distinct.
    """
    analyses = fixed_points(field, region)
    slots = [[an for an in analyses if _hits(an.delta, i, LADDER_TOL)]
             for i in range(4)]
    matches = {i: hits[0] for i, hits in enumerate(slots) if hits}
    return Lemma33Result(len(matches) == 4, matches)


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
    # the origin, (1/sqrt a, 0), (0, 1/sqrt b) and the interior point
    p0, p1, _, p3, _, p2, *_ = _closed_form_candidates(field)
    points = (p0, p1, p2, p3)
    deltas = tuple(float(delta_of(field, p).delta) for p in points)
    c = math.sqrt(6.0)
    checklist = Prop34Checklist(
        delta1_is_1=abs(deltas[1] - 1.0) <= 1e-9,
        delta3_is_3=abs(deltas[3] - 3.0) <= 1e-9,
        ordering=a_star >= 1.0 + 1.0 / b >= b,
        r0sq_lt_12=dissipativity_radius(field).r0 ** 2 < 12.0,
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
        return CubicUncoupled(2, *(_sqrt(_coerce(n)) for n in (3, 6, 2)))
    return CubicUncoupled(2.0, math.sqrt(3.0), math.sqrt(6.0), math.sqrt(2.0))


@dataclass(frozen=True)
class Prop35Report:
    exact: bool
    analyses: tuple
    deltas: tuple
    delta_errors: tuple

    def ladder_ok(self) -> bool:
        return all(_hits(d, i, PROP35_LADDER_TOL) for i, d in enumerate(self.deltas))


def verify_prop35(exact: bool = True) -> Prop35Report:
    """Analyze the four ladder points of the exact componentwise field."""
    field = prop35_field(exact)
    a, b, c, d = field.a, field.b, field.c, field.d
    pts = ((_zero(a), _zero(a)), (b, d), (a, c), (b, c))
    analyses = tuple(delta_of(field, p) for p in pts)
    deltas = tuple(an.delta for an in analyses)
    errors = tuple(abs(float(an.delta) - i) for i, an in enumerate(analyses))
    return Prop35Report(exact=exact, analyses=analyses, deltas=deltas, delta_errors=errors)


@dataclass(frozen=True)
class DissipativityReport:
    r0: float
    verified: bool
    component_radii: tuple | None = None


def dissipativity_radius(field: PlanarField) -> DissipativityReport:
    """Radius beyond which the field points inward, by its family's inequality.

    Coupled family: the v1^2 v2^2 terms cancel, so v.f(v) = k(|v|^2 - a v1^4
    - b v2^4); with v1^4 + v2^4 >= |v|^4/2 this is at most
    k|v|^2 (1 - min(a,b)|v|^2/2), which is <= 0 for |v|^2 >= 2/min(a,b), sharp
    on the diagonal when a = b.  Componentwise family: t*f(t) =
    t^2 (p - t)(t - q) <= 0 for |t| >= max(p, q), on each component, with
    (p, q) = (a, b) and (c, d).  The radii are floats, each rounded once from
    its exact value on an exact field, so an a below the smallest float counts.
    """
    if isinstance(field, CubicCoupled):
        low = field.b if _negative(field.b - field.a) else field.a
        r0 = float(_sqrt(2 / low))
        return DissipativityReport(r0=r0, verified=True)
    if isinstance(field, CubicUncoupled):
        r1 = max(float(field.a), float(field.b))
        r2 = max(float(field.c), float(field.d))
        return DissipativityReport(r0=max(r1, r2), verified=True, component_radii=(r1, r2))
    raise ConfigError("dissipativity radius is defined for the named cubic families")


def invariant_region_check(field: CubicCoupled, c) -> bool:
    """Whether [0,1]x[0,c] is positively invariant: 1/b <= c^2 <= a - 1."""
    if not isinstance(field, CubicCoupled):
        raise ConfigError("the box invariance criterion applies to the coupled family")
    a, b = field.a, field.b
    csq = c * c
    # a NaN c is below no bound, yet neither difference is negative
    return not (math.isnan(float(csq)) or _negative(csq - 1 / b) or _negative(a - 1 - csq))


# ---------------------------------------------------------------------------
# JSON dicts

def field_from_json_dict(data: dict) -> PlanarField:
    """A field from its JSON dict.  Cubic parameters given as strings are
    exact, but one JSON number among them makes the whole field a float
    field, its strings read exactly and rounded.  A string outside the
    grammar of ``_parse`` is a ConfigError."""
    def vals(*names):
        raw = [data[name] for name in names]  # a missing key before a bad value
        return [x if isinstance(x, str) else _number(x) for x in raw]

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
