"""Expressions in one complex variable: AST, parser, printer, calculus.

Grammar (whitespace insignificant; error offsets are byte positions):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" int)?
    primary := number | "z" | "i" | "pi"
             | ("exp" | "sin" | "cos") "(" expr ")"
             | "(" expr ")"
    number  := digits ["." digits] [("e" | "E") ["+" | "-"] digits]
    int     := ["-"] digits

"^" binds a single primary and sits above unary minus, so "-z^2" parses
as -(z^2) while "(-z)^2" needs the parentheses.  Chained powers
("z^2^3") and implicit multiplication ("2z") are syntax errors.  "z" is
the only variable; "i" and "pi" are the only named constants.  Pow
exponents are nonzero integers with magnitude at most 64.

Printing produces a fully parenthesized canonical form and
parse(format_expr(e)) returns a structurally equal tree.  To keep that
round trip exact the constructors fold arithmetic on pairs of constants
(and prune +0 / *1 / *0 identities); there is no other simplification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

# the most nodes compose and iterate_expr will build
NODE_CAP = 10**6

MAX_POW_EXPONENT = 64


class ParseError(ValueError):
    """Syntax problem in an expression string.

    offset is the byte position of the offending token; expected is a
    tuple of token descriptions that would have been legal there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ParseError):
    pass


class ExponentRangeError(ParseError):
    pass


class ExpressionTooLargeError(ValueError):
    pass


class Expr:
    """Base class for immutable expression nodes."""

    node_count: int
    var_count: int
    entire: bool

    def __post_init__(self):
        kids = self.children()
        object.__setattr__(self, "node_count", 1 + sum(k.node_count for k in kids))
        object.__setattr__(self, "var_count", sum(k.var_count for k in kids))
        entire = all(k.entire for k in kids)
        if isinstance(self, Div):
            entire = False
        if isinstance(self, Pow) and self.exponent < 0:
            entire = False
        object.__setattr__(self, "entire", entire)

    def children(self) -> tuple["Expr", ...]:
        return tuple(
            v for f in fields(self) if isinstance(v := getattr(self, f.name), Expr)
        )

    def __str__(self) -> str:
        return format_expr(self)

    # Operators build through the folding constructors below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_(self, n)


@dataclass(frozen=True)
class Var(Expr):
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "var_count", 1)


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("constant components must be finite")
        object.__setattr__(self, "value", v)
        super().__post_init__()


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        n = self.exponent
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("power exponent must be an integer")
        if n == 0 or abs(n) > MAX_POW_EXPONENT:
            raise ValueError(
                f"power exponent must be nonzero with magnitude <= {MAX_POW_EXPONENT}"
            )
        super().__post_init__()


@dataclass(frozen=True)
class Exp(Expr):
    a: Expr


@dataclass(frozen=True)
class Sin(Expr):
    a: Expr


@dataclass(frozen=True)
class Cos(Expr):
    a: Expr


Z = Var()


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _const(e: Expr) -> complex | None:
    return e.value if isinstance(e, Const) else None


def _try_const(value: complex) -> Expr | None:
    try:
        return Const(value)
    except ValueError:
        return None


def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        folded = _try_const(ca + cb)
        if folded is not None:
            return folded
    if ca == 0:
        return b
    if cb == 0:
        return a
    return Add(a, b)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        folded = _try_const(ca - cb)
        if folded is not None:
            return folded
    if cb == 0:
        return a
    if ca == 0:
        return neg(b)
    return Sub(a, b)


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        folded = _try_const(ca * cb)
        if folded is not None:
            return folded
    if ca == 0 or cb == 0:
        return Const(0)
    if ca == 1:
        return b
    if cb == 1:
        return a
    return Mul(a, b)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None and cb != 0:
        folded = _try_const(ca / cb)
        if folded is not None:
            return folded
    if cb == 1:
        return a
    return Div(a, b)


def neg(a) -> Expr:
    a = _coerce(a)
    ca = _const(a)
    if ca is not None:
        return Const(-ca)
    return Neg(a)


def pow_(base, n: int) -> Expr:
    base = _coerce(base)
    if n == 1:
        return base
    cb = _const(base)
    if cb is not None:
        try:
            folded = _try_const(cb**n)
        except (ZeroDivisionError, OverflowError):
            folded = None
        if folded is not None:
            return folded
    return Pow(base, n)


def exp_(a) -> Expr:
    return Exp(_coerce(a))


def sin_(a) -> Expr:
    return Sin(_coerce(a))


def cos_(a) -> Expr:
    return Cos(_coerce(a))


# ---------------------------------------------------------------------------
# Printing


def _fmt_signed(x: float) -> str:
    if math.copysign(1.0, x) < 0:
        return f"(-{x * -1!r})"
    return repr(x)


def _fmt_const(v: complex) -> str:
    if v.imag == 0:
        return _fmt_signed(v.real)
    if v.real == 0:
        return f"({_fmt_signed(v.imag)}*i)"
    return f"({_fmt_signed(v.real)}+({_fmt_signed(v.imag)}*i))"


def format_expr(e: Expr) -> str:
    """Render the canonical fully parenthesized form."""
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Add):
        return f"({format_expr(e.a)}+{format_expr(e.b)})"
    if isinstance(e, Sub):
        return f"({format_expr(e.a)}-{format_expr(e.b)})"
    if isinstance(e, Mul):
        return f"({format_expr(e.a)}*{format_expr(e.b)})"
    if isinstance(e, Div):
        return f"({format_expr(e.a)}/{format_expr(e.b)})"
    if isinstance(e, Neg):
        return f"(-{format_expr(e.a)})"
    if isinstance(e, Pow):
        return f"({format_expr(e.base)}^{e.exponent})"
    if isinstance(e, Exp):
        return f"exp({format_expr(e.a)})"
    if isinstance(e, Sin):
        return f"sin({format_expr(e.a)})"
    if isinstance(e, Cos):
        return f"cos({format_expr(e.a)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"exp": exp_, "sin": sin_, "cos": cos_}
_CONSTANTS = {"i": 1j, "pi": math.pi}

_PRIMARY_EXPECTED = ("number", "'('", "'z'", "'i'", "'pi'", "'exp'", "'sin'", "'cos'")


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[at]!r}", at)
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        listing = ", ".join(expected)
        raise ParseError(
            f"syntax error: expected one of {listing}, found {found}",
            tok.offset,
            expected,
        )

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return neg(self.factor())
        e = self.primary()
        if self.peek().kind == "^":
            self.advance()
            e = pow_(e, self.exponent())
        return e

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            self.fail(("integer",))
        if not tok.text.isdigit():
            raise ParseError(
                f"expected integer exponent, found {tok.text!r}", tok.offset
            )
        self.advance()
        n = sign * int(tok.text)
        if n == 0 or abs(n) > MAX_POW_EXPONENT:
            raise ExponentRangeError(
                f"power exponent {n} out of range (nonzero, magnitude <= "
                f"{MAX_POW_EXPONENT})",
                tok.offset,
            )
        return n

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} is out of range", tok.offset)
            return Const(complex(value))
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            return e
        if tok.kind == "name":
            self.advance()
            if tok.text == "z":
                return Z
            if tok.text in _CONSTANTS:
                return Const(complex(_CONSTANTS[tok.text]))
            if tok.text in _FUNCTIONS:
                if self.peek().kind != "(":
                    self.fail(("'('",))
                self.advance()
                arg = self.expr()
                if self.peek().kind != ")":
                    self.fail(("')'",))
                self.advance()
                return _FUNCTIONS[tok.text](arg)
            raise UnknownIdentifierError(
                f"unknown identifier {tok.text!r}", tok.offset
            )
        self.fail(_PRIMARY_EXPECTED)


def parse(source: str) -> Expr:
    """Parse an expression string, raising ParseError on bad input."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Calculus and composition


def _power_of(u: Expr, k: int) -> Expr:
    """u**k for any integer k, splitting exponents beyond the node limit."""
    if k == 0:
        return Const(1)
    if abs(k) <= MAX_POW_EXPONENT:
        return pow_(u, k)
    step = MAX_POW_EXPONENT if k > 0 else -MAX_POW_EXPONENT
    return mul(pow_(u, step), _power_of(u, k - step))


def derivative(e: Expr) -> Expr:
    """Symbolic derivative with respect to z."""
    if isinstance(e, Var):
        return Const(1)
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Add):
        return add(derivative(e.a), derivative(e.b))
    if isinstance(e, Sub):
        return sub(derivative(e.a), derivative(e.b))
    if isinstance(e, Mul):
        return add(mul(derivative(e.a), e.b), mul(e.a, derivative(e.b)))
    if isinstance(e, Div):
        num = sub(mul(derivative(e.a), e.b), mul(e.a, derivative(e.b)))
        return div(num, pow_(e.b, 2))
    if isinstance(e, Neg):
        return neg(derivative(e.a))
    if isinstance(e, Pow):
        chain = mul(Const(e.exponent), _power_of(e.base, e.exponent - 1))
        return mul(chain, derivative(e.base))
    if isinstance(e, Exp):
        return mul(exp_(e.a), derivative(e.a))
    if isinstance(e, Sin):
        return mul(cos_(e.a), derivative(e.a))
    if isinstance(e, Cos):
        return neg(mul(sin_(e.a), derivative(e.a)))
    raise TypeError(f"not an expression node: {e!r}")


def check_composition(f: Expr, g: Expr) -> None:
    """Raise ExpressionTooLargeError if f(g(z)) would exceed NODE_CAP nodes."""
    projected = f.node_count + f.var_count * (g.node_count - 1)
    if projected > NODE_CAP:
        raise ExpressionTooLargeError(
            f"composition would produce about {projected} nodes "
            f"(limit {NODE_CAP})"
        )


def compose(f: Expr, g: Expr) -> Expr:
    """f(g(z)): substitute g for every occurrence of z in f.

    Raises ExpressionTooLargeError, before building anything, when the
    result would exceed NODE_CAP nodes.
    """
    check_composition(f, g)

    def subst(e: Expr) -> Expr:
        if isinstance(e, Var):
            return g
        if isinstance(e, Const):
            return e
        if isinstance(e, Add):
            return add(subst(e.a), subst(e.b))
        if isinstance(e, Sub):
            return sub(subst(e.a), subst(e.b))
        if isinstance(e, Mul):
            return mul(subst(e.a), subst(e.b))
        if isinstance(e, Div):
            return div(subst(e.a), subst(e.b))
        if isinstance(e, Neg):
            return neg(subst(e.a))
        if isinstance(e, Pow):
            return pow_(subst(e.base), e.exponent)
        if isinstance(e, Exp):
            return exp_(subst(e.a))
        if isinstance(e, Sin):
            return sin_(subst(e.a))
        if isinstance(e, Cos):
            return cos_(subst(e.a))
        raise TypeError(f"not an expression node: {e!r}")

    return subst(f)


def iterate_expr(f: Expr, n: int) -> Expr:
    """The n-fold composition f(f(...f(z)...)) as an expression.

    Each composition step is held to NODE_CAP nodes, as in compose.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("iteration count must be a positive integer")
    result = f
    for _ in range(n - 1):
        result = compose(f, result)
    return result


def translate(f: Expr, c: complex) -> Expr:
    """f(z) + c."""
    return add(f, Const(complex(c)))


def constant_value(e: Expr) -> complex:
    """Evaluate a variable-free expression to a complex number.

    Used for CLI arguments like --C "2*pi*i".  The value comes from the
    same compiled plan as every map.  Raises ValueError if the
    expression mentions z or does not evaluate to a finite constant.
    """
    from .engine import evaluate  # engine imports this module

    if e.var_count:
        raise ValueError("expected a constant expression without z")
    result = evaluate(e, 0j)
    if result.kind != "finite":
        raise ValueError(f"value is not finite ({result.kind})")
    return result.value
