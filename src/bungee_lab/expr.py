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
from dataclasses import dataclass

# the most nodes compose and iterate_expr will build
NODE_CAP = 10**6

MAX_POW_EXPONENT = 64

# Expr.parity values; 0 means no parity
EVEN, ODD = 1, -1


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
    """Base class for immutable expression nodes.

    Each node carries facts about its subtree, computed once when it is
    built from those of its children:

        node_count         nodes in the subtree
        var_count          occurrences of z
        entire             no division and no negative power
        real_coefficients  every constant has imaginary part 0 (-0.0
                           counts as 0), so f(conj z) = conj(f(z)):
                           evaluation commutes with conjugation up to
                           the sign of a zero component
        parity             EVEN, ODD or 0 (none): f(-z) = parity * f(z)
                           up to the sign of a zero component.  z is
                           odd and every constant, complex ones too,
                           even; + and - keep a parity both operands
                           share; * and / multiply parities; negation
                           and sin keep their operand's parity; a power
                           of an odd base has its exponent's parity and
                           a power of an even base is even; exp of an
                           even argument and cos of an odd or even one
                           are even.  The rules hold in the engine
                           because +, -, *, numpy's complex division and
                           square-and-multiply round symmetrically, and
                           exp, sin and cos of a negated argument are
                           exact images of the unnegated ones

    classify_grid reads real_coefficients and parity: a map with real
    coefficients classifies half of a grid whose rows mirror exactly
    about the real axis, an odd or even map half of a grid whose pixels
    pair exactly under z -> -z, and a map with both facts a quarter of
    a grid with both properties (see the grid module).

    Equality, hashing and repr are those a frozen dataclass would
    generate, with no recursion: the hash is computed once, from the
    children's, and == walks both trees with a list.
    """

    node_count: int
    var_count: int
    entire: bool
    real_coefficients: bool
    parity: int

    def __post_init__(self):
        # __match_args__ lists a dataclass's fields in order, without the
        # per-call cost of dataclasses.fields
        fields = tuple([getattr(self, name) for name in self.__match_args__])
        children = tuple([v for v in fields if isinstance(v, Expr)])
        # a node's subtree fields come first, then its constant or exponent
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_label", fields[len(children):])
        # a child's hash is already stored, so this walks one level
        object.__setattr__(self, "_hash", hash(fields))
        node_count, var_count = 1, 0
        entire = real = True
        for k in children:
            node_count += k.node_count
            var_count += k.var_count
            entire = entire and k.entire
            real = real and k.real_coefficients
        if isinstance(self, Div):
            entire = False
        if isinstance(self, Pow) and self.exponent < 0:
            entire = False
        if isinstance(self, Const):
            real = self.value.imag == 0
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "entire", entire)
        object.__setattr__(self, "real_coefficients", real)
        object.__setattr__(self, "parity", self._parity())

    def _parity(self) -> int:
        return 0

    def children(self) -> tuple["Expr", ...]:
        return self._children

    def __str__(self) -> str:
        return format_expr(self)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash or a._label != b._label:
                return False
            todo += zip(a._children, b._children)
        return True

    def __repr__(self) -> str:
        def node(e: Expr, *parts: str) -> str:
            fields = zip(e.__match_args__, parts + tuple(map(repr, e._label)))
            return f"{type(e).__qualname__}({', '.join(f'{k}={v}' for k, v in fields)})"

        return fold(self, node)


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "var_count", 1)

    def _parity(self) -> int:
        return ODD


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("constant components must be finite")
        object.__setattr__(self, "value", v)
        super().__post_init__()

    def _parity(self) -> int:
        return EVEN


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    a: Expr
    b: Expr

    def _parity(self) -> int:
        p = self.a.parity
        return p if p == self.b.parity else 0


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    a: Expr
    b: Expr

    _parity = Add._parity


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    a: Expr
    b: Expr

    def _parity(self) -> int:
        return self.a.parity * self.b.parity


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    a: Expr
    b: Expr

    _parity = Mul._parity


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    a: Expr

    def _parity(self) -> int:
        return self.a.parity


@dataclass(frozen=True, eq=False, repr=False)
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

    def _parity(self) -> int:
        p = self.base.parity
        return p if self.exponent % 2 else p * p


@dataclass(frozen=True, eq=False, repr=False)
class Exp(Expr):
    a: Expr

    def _parity(self) -> int:
        return EVEN if self.a.parity == EVEN else 0


@dataclass(frozen=True, eq=False, repr=False)
class Sin(Expr):
    a: Expr

    _parity = Neg._parity


@dataclass(frozen=True, eq=False, repr=False)
class Cos(Expr):
    a: Expr

    def _parity(self) -> int:
        return EVEN if self.a.parity else 0


Z = Var()


def fold(e: Expr, leave):
    """Fold e bottom up: the value of each node is leave(node, *values of
    its children), children first, left to right.

    The walk keeps its own lists instead of recursing, so a tree of any
    depth folds.  A subtree that several parents share is folded once
    for each, as in a recursive walk.
    """
    # node, right subtree, left subtree: the reverse of the post-order
    order, todo = [], [e]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += node._children
    values = []
    for node in reversed(order):
        k = len(node._children)
        if k:
            values[-k:] = [leave(node, *values[-k:])]
        else:
            values.append(leave(node))
    return values[0]


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


# the canonical form of each node type around its children's forms (and
# a power's exponent)
_FORMS = {Var: "z", Add: "({}+{})", Sub: "({}-{})", Mul: "({}*{})", Div: "({}/{})",
          Neg: "(-{})", Pow: "({}^{})", Exp: "exp({})", Sin: "sin({})", Cos: "cos({})"}


def _format_node(e: Expr, *parts: str) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Pow):
        parts += (e.exponent,)
    return _FORMS[type(e)].format(*parts)


def format_expr(e: Expr) -> str:
    """Render the canonical fully parenthesized form."""
    return fold(e, _format_node)


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
        try:
            e = self.expr()
        except RecursionError:
            # the descent takes a few frames per level of nesting
            raise ParseError("expression nests too deeply", self.peek().offset) from None
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


# the folding constructor of each node type with children, but Pow
_BUILD = {Add: add, Sub: sub, Mul: mul, Div: div, Neg: neg, Exp: exp_, Sin: sin_, Cos: cos_}


def _derive(e: Expr, *d: Expr) -> Expr:
    """e's derivative from the derivatives d of its children."""
    if isinstance(e, Var):
        return Const(1)
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, (Add, Sub, Neg)):
        return _BUILD[type(e)](*d)
    if isinstance(e, Mul):
        return add(mul(d[0], e.b), mul(e.a, d[1]))
    if isinstance(e, Div):
        return div(sub(mul(d[0], e.b), mul(e.a, d[1])), pow_(e.b, 2))
    if isinstance(e, Pow):
        return mul(mul(Const(e.exponent), _power_of(e.base, e.exponent - 1)), *d)
    if isinstance(e, Exp):
        return mul(exp_(e.a), *d)
    if isinstance(e, Sin):
        return mul(cos_(e.a), *d)
    return neg(mul(sin_(e.a), *d))


def derivative(e: Expr) -> Expr:
    """Symbolic derivative with respect to z."""
    return fold(e, _derive)


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

    def subst(e: Expr, *parts: Expr) -> Expr:
        if isinstance(e, Var):
            return g
        if isinstance(e, Pow):
            return pow_(*parts, e.exponent)
        return _BUILD[type(e)](*parts) if parts else e

    return fold(f, subst)


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
