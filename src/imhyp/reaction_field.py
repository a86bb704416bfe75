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
gap 0), and the ladder is matched by ``==``; the tolerances below serve
float fields.  Exact values are ``_Real``, a DAG over rational leaves with
+ - * / and sqrt: signs come from refining rational enclosures, and an
enclosure of 0 inside the separation bound of C. Burnikel, R. Fleischer,
K. Mehlhorn and S. Schirra (Algorithmica 27 (2000) 87-99) proves a 0.
Field strings are read by a closed grammar (``_parse``); nothing in them
runs.  Only the Newton search of a general polynomial field and the sampled
dissipativity check load numpy; ``_eig2x2_float``, the closed-form 2x2
eigenvalues that the certificate layer also uses, needs none, nor does
``lemma41_threshold``, the diffusion threshold between two scalar
equilibria.  Fields are read from JSON dicts; rendering reports and file
I/O are the driver's.  The method's tolerances (DEDUPE_TOL, LADDER_TOL,
PROP34_TOL on PROP34_BRACKET, PROP35_LADDER_TOL) are module constants, not
parameters, so no caller can widen a ladder match or move the bracket.

The residual |f(p)| follows one rule for every number kind: an exact 0 when
both components are exactly 0, else the float hypot of the two components.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import astuple, dataclass
from functools import cached_property

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
# lemma33_check matches a float gap to its target i when |delta - i| <= LADDER_TOL
LADDER_TOL = 1e-6
# solve_prop34 bisects middle_gap - 2 on this bracket, whose ends have
# opposite signs, until |middle_gap - 2| <= PROP34_TOL
PROP34_BRACKET = (7.0, 20.0)
PROP34_TOL = 1e-10
# on float deltas, Prop35Report.ladder_ok holds when every |delta_i - i| <= this
PROP35_LADDER_TOL = 1e-12

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _coerce(x):
    """An int, Fraction or finite float as an exact _Real; a non-finite float
    stays a float, and any other type gives NotImplemented."""
    from fractions import Fraction  # only exact work loads it
    if isinstance(x, (int, Fraction)) or isinstance(x, float) and math.isfinite(x):
        return _Real("q", (Fraction(x),))
    return x if isinstance(x, (_Real, float)) else NotImplemented


def _ratio(n: int, d: int) -> float:
    """n/d (d > 0) correctly rounded, +-inf past the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _arith(op, reflected=False):
    """A binary operator method; with a non-finite float it does float arithmetic."""
    def method(self, other):
        o = _coerce(other)
        x, y = (o, self) if reflected else (self, o)
        if o is NotImplemented or isinstance(o, float):
            return o if o is NotImplemented else _FOLD[op](float(x), float(y))
        return x._binary(op, y)
    return method


class _Real:
    """An exact real: a rational leaf ("q", (Fraction,)); x + y, x - y, x * y
    or x / y as (op, (x, y)); -x as ("neg", (x,)); the root of an x > 0 as
    ("sqrt", (x,)).  Rational operands fold into a leaf, and a product takes
    signs out and turns sqrt(x)**2 into x.  Nodes are shared: one (op, args)
    is one node while it lives, so a radical read twice is one radical."""

    _nodes = weakref.WeakValueDictionary()

    def __new__(cls, op, args):
        key = (op, *(x if op == "q" else id(x) for x in args))
        if (node := cls._nodes.get(key)) is None:
            node = cls._nodes[key] = super().__new__(cls)
            node.op, node.args, node._memo = op, args, None
        return node

    __add__, __radd__ = _arith("+"), _arith("+", True)
    __sub__, __rsub__ = _arith("-"), _arith("-", True)
    __mul__, __rmul__ = _arith("*"), _arith("*", True)
    __truediv__, __rtruediv__ = _arith("/"), _arith("/", True)

    def _binary(self, op, y):
        x = self
        if x.op == y.op == "q":
            return _Real("q", (_FOLD[op](x.args[0], y.args[0]),))  # x/0 raises
        if op == "*":
            x, y = (y, x) if y.op == "q" else (x, y)  # a leaf goes first
            if x.op == "q" and abs(x.args[0]) in (0, 1):
                return x if x.args[0] == 0 else y if x.args[0] == 1 else -y
            if "neg" in (x.op, y.op):
                return -((-x) * y) if x.op == "neg" else -(x * -y)
            if x is y and x.op == "sqrt":
                return x.args[0]
        if op == "/" and y == 0:
            raise ZeroDivisionError("division by an exact 0")
        return _Real(op, (x, y))

    def __neg__(self):
        if self.op == "q":
            return _Real("q", (-self.args[0],))
        return self.args[0] if self.op == "neg" else _Real("neg", (self,))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        power = math.prod([self] * abs(k), start=_coerce(1))
        return power if k >= 0 else 1 / power

    def __eq__(self, other):  # never equal to a non-finite float
        o = _coerce(other)
        return self is o or (self - o)._sign == 0 if isinstance(o, _Real) else NotImplemented

    def __hash__(self):  # equal values round alike
        return hash(float(self))

    def _enclose(self, p: int):
        """Integers lo <= self * 2**p <= hi, or None while a divisor's
        enclosure holds 0; kept for the last p, so a node shared in the DAG
        is evaluated once per precision."""
        if self._memo is None or self._memo[0] != p:
            self._memo = (p, self._interval(p))
        return self._memo[1]

    def _interval(self, p: int):
        if self.op == "q":
            n, d = self.args[0].numerator << p, self.args[0].denominator
            return n // d, -(-n // d)
        ends = [x._enclose(p) for x in self.args]
        if None in ends:
            return None
        (a, b), (c, d) = ends[0], ends[-1]
        if self.op == "neg":
            return -b, -a
        if self.op == "sqrt":  # the radicand is positive, and so is b
            return math.isqrt(max(a, 0) << p), math.isqrt(b << p) + 1
        if self.op == "+":
            return a + c, b + d
        if self.op == "-":
            return a - d, b - c
        if self.op == "*":
            ends = (a * c, a * d, b * c, b * d)
            return min(ends) >> p, -(-max(ends) >> p)
        if c > 0 or d < 0:
            ends = [(e << p, f) for e in (a, b) for f in (c, d)]
            return min(e // f for e, f in ends), max(-(-e // f) for e, f in ends)
        return None

    @cached_property
    def _bfms(self):
        """(u, l, roots).  Self is N/M with N and M division-free in integers
        and square roots, sqrt(N1/M1) taken as sqrt(N1*M1)/|M1|; u and l are
        integers at or above the modulus of every conjugate of N and of M
        (BFMS's u and l), and roots holds the ids of the distinct sqrt nodes."""
        if self.op == "q":
            return abs(self.args[0].numerator), self.args[0].denominator, frozenset()
        (u1, l1, r1), (u2, l2, r2) = self.args[0]._bfms, self.args[-1]._bfms
        if self.op == "neg":
            return u1, l1, r1
        if self.op == "sqrt":
            return math.isqrt(u1 * l1) + 1, l1, r1 | {id(self)}
        if self.op == "*":
            return u1 * u2, l1 * l2, r1 | r2
        if self.op == "/":
            return u1 * l2, l1 * u2, r1 | r2
        return u1 * l2 + l1 * u2, l1 * l2, r1 | r2

    @cached_property
    def _sign(self) -> int:
        """-1, 0 or 1: a product's from its factors', a sum's from enclosures
        at 64, 128, ... bits until one leaves 0 or lies within BFMS's bound:
        a nonzero sum has |self| >= 1/(u**(D-1)*l), D the product of the root
        indices, here 2**len(roots)."""
        if self.op == "q":
            return (self.args[0] > 0) - (self.args[0] < 0)
        if self.op == "sqrt":  # its radicand is positive
            return 1
        if self.op in ("neg", "*", "/"):
            return math.prod(x._sign for x in self.args) * (-1 if self.op == "neg" else 1)
        u, l, roots = self._bfms
        zero_bits = (2 ** len(roots) - 1) * u.bit_length() + l.bit_length()
        for p in (64 << k for k in range(11)):
            if (r := self._enclose(p)) is not None:
                if r[0] > 0 or r[1] < 0:
                    return 1 if r[0] > 0 else -1
                if max(-r[0], r[1]).bit_length() <= p - zero_bits:
                    return 0
        raise NumericalFailure(f"an exact sign needs more than {p} bits")

    @property
    def is_negative(self) -> bool:
        return self._sign < 0

    def __float__(self) -> float:  # complex() takes it too
        return self._float

    @cached_property
    def _float(self) -> float:
        """Correctly rounded: once both ends of an enclosure round alike, so
        does the value; with one rounding boundary between them, the sign of
        self minus the boundary decides."""
        from fractions import Fraction
        if self._sign == 0:
            return 0.0
        if self.op == "q":
            return _ratio(self.args[0].numerator, self.args[0].denominator)
        for p in (64 << k for k in itertools.count()):
            if (r := self._enclose(p)) is None or r[0] <= 0 <= r[1]:
                continue
            a, b = _ratio(r[0], 1 << p), _ratio(r[1], 1 << p)
            if a == b:
                return a
            if math.nextafter(a, math.inf) == b:
                mid = (Fraction(a) + Fraction(math.ulp(a)) / 2 if a > 0
                       else Fraction(b) - Fraction(math.ulp(b)) / 2)
                side = (self - mid)._sign
                return a if side < 0 else b if side > 0 else _ratio(mid.numerator, mid.denominator)

    def __repr__(self) -> str:  # in the grammar of field strings
        op, args = self.op, self.args
        if op == "q":
            return str(args[0])
        if op == "sqrt":
            return f"sqrt({args[0]!r})"
        if op == "neg":
            return f"-{args[0]._operand()}"
        return f"{args[0]._operand()} {op} {args[1]._operand()}"

    def _operand(self) -> str:
        text = repr(self)
        return text if self.op == "sqrt" or text.isdigit() else f"({text})"


def _parse(text: str, name: str = "value") -> _Real:
    """The exact value of a field string in a closed grammar: integer and
    decimal literals (a decimal read as written, not as its double), + - * /,
    integer powers, unary minus and sqrt( ).  Anything else is a ConfigError;
    nothing in the text runs."""
    import ast
    from decimal import Decimal
    from fractions import Fraction
    ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = Decimal(ast.get_source_segment(text, node))
            if abs(literal.adjusted()) > 400:
                raise ValueError(text)
            return _coerce(Fraction(literal))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            x, y, op = value(node.left), value(node.right), ops[type(node.op)]
            if op != "**":
                return _FOLD[op](x, y)
            # an integer exponent, and a power of bounded size
            k = y.args[0] if y.op == "q" and y.args[0].denominator == 1 else math.inf
            if abs(k) * (x._bfms[0] * x._bfms[1]).bit_length() > 1 << 16:
                raise ValueError(text)
            return x ** int(k)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords):
            return _sqrt(value(node.args[0]))
        raise ValueError(text)

    try:
        text = text.strip()
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError):
        raise ConfigError(f"{name} is not an exact number: {text!r}") from None


def _zero(*vals):
    """0 of the values' kind: 0 times the first exact one, else 0.0."""
    return next((0 * v for v in vals if isinstance(v, _Real)), 0.0)

def _negative(x) -> bool:
    return x.is_negative if isinstance(x, _Real) else x < 0

def _sqrt(x):
    """The root of x >= 0, a leaf for a rational square; ValueError below 0."""
    if not isinstance(x, _Real):
        return math.sqrt(x)
    if x.is_negative:
        raise ValueError(f"sqrt of the negative {x!r}")
    if x.op == "q":
        q = x.args[0]
        n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if n * n == q.numerator and d * d == q.denominator:
            return _Real("q", (type(q)(n, d),))
    return x * 0 if x._sign == 0 else _Real("sqrt", (x,))

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
                i, j = int(i), int(j)
                if i < 0 or j < 0 or i + j > 5:
                    raise ConfigError(
                        f"{label} term v1^{i}*v2^{j} outside total degree 5"
                    )
                c = float(c)
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


def _eig2x2_float(a, b, c, d):
    """(xi1, xi2, real-part gap) of [[a, b], [c, d]], by descending (Re, Im).

    The discriminant is taken as (a-d)^2 + 4bc: tr^2 - 4det cancels when the
    two real eigenvalues are close, and can then turn a real pair complex.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    tr = a + d
    disc = (a - d) * (a - d) + 4.0 * b * c
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return (complex(tr / 2.0, im), complex(tr / 2.0, -im), 0.0)
    s = math.sqrt(disc)
    return ((tr + s) / 2.0, (tr - s) / 2.0, s)


def _eig2x2(J):
    """Eigenvalues of a 2x2 matrix by the quadratic formula, discriminant
    (a-d)^2 + 4bc in exact and in float arithmetic alike.

    Returns (xi1, xi2, delta) ordered by descending (Re, Im); delta is the
    real-part gap, identically 0 for a complex-conjugate pair, which an exact
    matrix gives as correctly rounded complex floats.  An exact triangular
    matrix returns its diagonal entries, with no root.
    """
    (a, b), (c, d) = J
    if not any(isinstance(v, _Real) for v in (a, b, c, d)):
        return _eig2x2_float(a, b, c, d)
    if b * c == 0:
        gap = a - d
        return (d, a, -gap) if _negative(gap) else (a, d, gap)
    tr = a + d
    disc = (a - d) ** 2 + 4 * b * c
    if _negative(disc):
        re, im = float(tr / 2), float(_sqrt(-disc) / 2)
        return (complex(re, im), complex(re, -im), _zero(disc))
    root = _sqrt(disc)
    return ((tr + root) / 2, (tr - root) / 2, root)


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
    kept, kept_f = [], []
    for pf, p in sorted((((float(p[0]), float(p[1])), p) for p in cands),
                        key=lambda c: c[0]):
        if (x0 - 1e-9 <= pf[0] <= x1 + 1e-9 and y0 - 1e-9 <= pf[1] <= y1 + 1e-9
                and all(math.hypot(pf[0] - q[0], pf[1] - q[1]) > DEDUPE_TOL
                        for q in kept_f)):
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
    float one; fixed_points keeps its points DEDUPE_TOL apart, and no point
    hits two targets, so the first hits are distinct.
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
    import numpy as np
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
        raw = [data[name] for name in names]
        if all(isinstance(x, str) for x in raw):
            return raw
        return [x if isinstance(x, str) else float(x) for x in raw]

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

