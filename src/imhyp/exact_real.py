"""The exact real type of planar fields, and the one 2x2 eigen routine.

``_Real`` is a DAG over rational leaves with + - * / and sqrt: signs come
from refining rational enclosures, an enclosure of 0 inside the separation
bound of Burnikel, Fleischer, Mehlhorn and Schirra (Algorithmica 27 (2000)
87-99) proves a 0, and floats are correctly rounded.  Field strings are
read by a closed grammar (``_parse``); nothing in them runs.  ``_eig2x2``
serves fixed points and 2x2 certificate Jacobians alike, without numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from functools import cached_property

from .errors import ConfigError, NumericalFailure

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


def _eig2x2(J):
    """Eigenvalues of a 2x2 matrix [[a, b], [c, d]] by the quadratic formula,
    in floats unless an entry is exact.  The discriminant is (a-d)^2 + 4bc:
    tr^2 - 4det cancels when the two real eigenvalues are close, and can then
    turn a real pair complex.

    Returns (xi1, xi2, delta) ordered by descending (Re, Im); delta is the
    real-part gap, identically 0 for a complex-conjugate pair, which an exact
    matrix gives as correctly rounded complex floats.  An exact triangular
    matrix returns its diagonal entries, with no root.
    """
    (a, b), (c, d) = J
    if not any(isinstance(v, _Real) for v in (a, b, c, d)):
        a, b, c, d = float(a), float(b), float(c), float(d)
    elif b * c == 0:
        gap = a - d
        return (d, a, -gap) if _negative(gap) else (a, d, gap)
    tr = a + d
    disc = (a - d) * (a - d) + 4 * b * c
    if _negative(disc):
        re, im = float(tr / 2), float(_sqrt(-disc) / 2)
        return (complex(re, im), complex(re, -im), _zero(disc))
    root = _sqrt(disc)
    return ((tr + root) / 2, (tr - root) / 2, root)
