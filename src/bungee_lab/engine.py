"""Vectorized expression evaluation over IEEE complex doubles.

Every evaluation in the package goes through eval_array so that single
points and pixel grids see bit-identical arithmetic.  Each evaluation
returns a complex128 value array plus a uint8 status array:

    OK        value is finite
    OVERFLOW  value left the representable range
    POLE      a division consumed a vanishing divisor

The status of a node is its first non-OK child status, left operand
before right; a node whose own result is non-finite despite OK children
reports OVERFLOW, except division, which reports POLE: with a finite
numerator a non-finite quotient means the divisor was zero or
indistinguishable from zero at double precision.  One asymmetry keeps
reciprocals honest: a finite numerator over an OVERFLOW divisor
evaluates to 0 with OK status (the limiting value), rather than
propagating the divisor's failure.  Negative Pow exponents share the
division rules.

Plans.  An Expr is compiled once into a plan, cached on the node the
way node_count is.  The compiler emits Python source for two
straight-line functions, one for one-element input and one for every
other size, and eval_array picks one per call.  Each calls the same
numpy ufuncs in the same order as a node-by-node evaluation (Pow is
square-and-multiply with *, constants are full arrays), so values are
bit-identical to it.  The source holds only register numbers and names
from a fixed table: ufuncs and constants are bound through the
functions' globals, so no value is written as a literal (-0.0,
subnormals and 2*pi*i stay exact) and no input text reaches compile().
Trees of one shape, such as z+1 and z+2, therefore give the same
source, and the compiled code is cached on that text; each plan binds
its own constants to it.  The array function overwrites intermediates
in place when no other node reads them.  On one element numpy's
overlap check on an aliased out= costs more than a fresh array, so the
one-element function allocates instead, and each constant is one
read-only one-element array made at compile time.  Registers are
locals of one call, so threads can share a plan.

Floating-point errors.  eval_array runs each plan under
np.errstate(all="ignore"), since statuses, not warnings, report
overflow and poles.  Entering and leaving an errstate costs more than
a one-element evaluation, so a caller that evaluates in a loop opens
one ignoring_fp_errors() block around it, and eval_array inside the
block skips its own errstate.  The block lives in a context variable,
as np.errstate does, so other threads do not see it.

Status is tracked only where it can change.  Without division, a
non-finite value stays non-finite in every ancestor up to the nearest
exp (exp(-inf) is 0), so a division-free tree is OVERFLOW exactly
where some node value is non-finite, and it suffices to check
finiteness at

    the input of each exp (this also covers a non-finite seed below it)
    both operands of each division and negative power, which then
        apply the pole and rescue rules to full status arrays
    the left operand of a node whose right operand can report POLE,
        so that the left operand's failure still comes first
    the root

Finiteness checks between two division statuses are ANDed into one
mask; a status array is built only at a division and at the root.

On one element a numpy call costs more than the arithmetic, so there
masks are Python bools (cmath.isfinite) and statuses Python ints, under
the same rules, and the division rules run inline.  The root status is
then one of three shared read-only one-element uint8 arrays, so
statuses stay shaped like z.
"""

from __future__ import annotations

import cmath
import contextvars
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Callable

import numpy as np

from .expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var

OK = np.uint8(0)
OVERFLOW = np.uint8(1)  # == True viewed as uint8: a failed finiteness mask
POLE = np.uint8(2)

STATUS_NAMES = ("finite", "overflow", "pole")


@dataclass(frozen=True)
class _Plan:
    one: Callable  # for one-element input
    many: Callable  # for every other size


@dataclass
class _Operand:
    """A compiled subtree during compilation."""

    reg: int
    owned: bool  # no other node reads reg, so it may be overwritten
    pending: bool  # the value may be non-finite without a check so far
    terms: list  # ("ok", mask reg) or ("st", status reg), in status order


class _Compiler:
    """Emits the lines of both plan functions; register k is local rk."""

    def __init__(self):
        self.one: list[str] = []  # body of the one-element function
        self.many: list[str] = []  # body of the function for every other size
        self.consts: dict[str, object] = {}  # globals named after registers
        self.n_regs = 1

    def new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def emit(self, one: str, many: str | None = None) -> None:
        """Append a line to each body; many defaults to the one-element line."""
        self.one.append(one)
        self.many.append(one if many is None else many)

    # -- values ----------------------------------------------------------

    def ufunc(self, fn: str, *args: _Operand) -> int:
        """Emit fn(*args) into the first owned operand's register, else a new one."""
        out = next((a.reg for a in args if a.owned), None)
        call = f"{fn}({', '.join(f'r{a.reg}' for a in args)}"
        if out is None:
            out = self.new_reg()
            self.emit(f"r{out} = {call})")
        else:
            # one element allocates: numpy runs a one-element binary op
            # whose output overlaps an input through another loop, which
            # can round differently
            self.emit(f"r{out} = {call})", f"{call}, out=r{out})")
        return out

    def fill(self, value) -> int:
        """Emit a register holding value at every point."""
        dst = self.new_reg()
        self.consts[f"c{dst}"] = _read_only(np.full(1, value, np.complex128))
        self.consts[f"v{dst}"] = value
        # np.empty + fill: np.full costs about twice as much on the
        # few-element arrays of a thinning batch
        self.emit(f"r{dst} = c{dst}", f"r{dst} = empty(r0.shape, complex128)\nr{dst}.fill(v{dst})")
        return dst

    # -- statuses --------------------------------------------------------

    def check(self, x: _Operand) -> None:
        """Record where x's value is non-finite as an OVERFLOW term."""
        if not x.pending:
            return
        x.pending = False
        v = x.reg
        if x.terms and x.terms[-1][0] == "ok":
            m = x.terms[-1][1]
            self.emit(
                f"r{m} = r{m} and scalar_isfinite(r{v}.item())",
                f"logical_and(r{m}, isfinite(r{v}), out=r{m})",
            )
            return
        m = self.new_reg()
        self.emit(f"r{m} = scalar_isfinite(r{v}.item())", f"r{m} = isfinite(r{v})")
        x.terms.append(("ok", m))

    def status(self, x: _Operand) -> int | None:
        """Emit x's full status; return its register (None: all OK)."""
        self.check(x)
        groups = []  # the terms with each run of masks ANDed into its first
        for kind, reg in x.terms:
            if kind == "ok" and groups and groups[-1][0] == "ok":
                m = groups[-1][1]
                self.emit(f"r{m} = r{m} and r{reg}", f"logical_and(r{m}, r{reg}, out=r{m})")
            else:
                groups.append((kind, reg))
        if not groups:
            return None
        for kind, m in groups:
            if kind == "ok":
                # a failed mask is OVERFLOW, 1 == True in the uint8 view
                self.emit(f"r{m} = 0 if r{m} else 1", f"r{m} = logical_not(r{m}, out=r{m}).view(uint8)")
        acc = groups[0][1]
        for _, s in groups[1:]:
            self.emit(f"r{acc} = r{acc} or r{s}", f"r{acc} = where(r{acc} != OK, r{acc}, r{s})")
        return acc

    # -- nodes -----------------------------------------------------------

    def compile(self, e: Expr) -> _Operand:
        if isinstance(e, Var):
            return _Operand(0, owned=False, pending=True, terms=[])
        if isinstance(e, Const):
            return _Operand(self.fill(e.value), owned=True, pending=False, terms=[])
        if isinstance(e, (Add, Sub, Mul)):
            fn = "add" if isinstance(e, Add) else "subtract" if isinstance(e, Sub) else "multiply"
            a = self.compile(e.a)
            if not e.b.entire:
                self.check(a)
            b = self.compile(e.b)
            return _Operand(self.ufunc(fn, a, b), True, True, a.terms + b.terms)
        if isinstance(e, Div):
            a = self.compile(e.a)
            sa = self.status(a)
            b = self.compile(e.b)
            return self.divide(a, sa, b)
        if isinstance(e, Neg):
            a = self.compile(e.a)
            return _Operand(self.ufunc("negative", a), True, a.pending, a.terms)
        if isinstance(e, Pow):
            p = self.power(self.compile(e.base), abs(e.exponent))
            if e.exponent > 0:
                return p
            ones = _Operand(self.fill(1), True, False, [])
            return self.divide(ones, None, p)
        if isinstance(e, Exp):
            a = self.compile(e.a)
            self.check(a)
            return _Operand(self.ufunc("exp", a), True, True, a.terms)
        if isinstance(e, (Sin, Cos)):
            a = self.compile(e.a)
            fn = "sin" if isinstance(e, Sin) else "cos"
            return _Operand(self.ufunc(fn, a), True, True, a.terms)
        raise TypeError(f"not an expression node: {e!r}")

    def power(self, base: _Operand, n: int) -> _Operand:
        """base**n for n >= 1 by square-and-multiply on whole arrays."""
        acc = base
        res = None
        m = n
        while True:
            if m & 1:
                if res is None:
                    # res shares acc's register; only res may overwrite it
                    res = acc
                    acc = _Operand(acc.reg, False, acc.pending, [])
                else:
                    # acc is squared again unless this is the last bit
                    last = _Operand(acc.reg, acc.owned and m == 1, True, [])
                    res = _Operand(self.ufunc("multiply", res, last), True, True, res.terms)
            m >>= 1
            if not m:
                return _Operand(res.reg, res.owned, True, base.terms)
            acc = _Operand(self.ufunc("multiply", acc, acc), True, True, [])

    def divide(self, a: _Operand, sa: int | None, b: _Operand) -> _Operand:
        """a / b with the pole and rescue rules; sa is a's status register."""
        sb = self.status(b)
        q = self.ufunc("divide", a, b)
        s = self.new_reg()
        # the rules of _divide_status on int statuses: 1 is OVERFLOW, 2 POLE
        pole = f"0 if scalar_isfinite(r{q}.item()) else 2"
        if sb is None:
            one = f"r{s} = {pole}" if sa is None else f"r{s} = r{sa} or ({pole})"
        else:
            one = f"if r{sb} == 1:\n    r{q}[0] = 0\n    r{s} = 0\nelse:\n    r{s} = r{sb} or ({pole})"
            if sa is not None:
                one = f"if r{sa}:\n    r{s} = r{sa}\nel{one}"
        ra, rb = ("None" if r is None else f"r{r}" for r in (sa, sb))
        self.emit(one, f"r{s} = divide_status(r{q}, {ra}, {rb})")
        return _Operand(q, True, False, [("st", s)])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the root status of a one-element call, indexed by status
_STATUS_ARRAYS = tuple(_read_only(np.full(1, s, np.uint8)) for s in (OK, OVERFLOW, POLE))


def _divide_status(vq: np.ndarray, a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray:
    """Status of the quotient vq; rescued quotients become 0.

    a and b are the operand statuses, None where an operand is OK
    everywhere.  Where every operand is OK and every quotient finite,
    the status is all OK; an OK divisor leaves nothing to rescue.
    """
    finite = np.isfinite(vq)
    if finite.all() and (a is None or not a.any()) and (b is None or not b.any()):
        return b if b is not None else a if a is not None else np.zeros(vq.shape, np.uint8)
    if b is None:
        status = np.zeros(vq.shape, np.uint8) if a is None else a
        pole = ~finite
        if a is not None:
            pole &= a == OK
    else:
        status = b
        rescue = b == OVERFLOW
        pole = (b == OK) & ~finite
        if a is not None:
            a_ok = a == OK
            rescue &= a_ok
            pole &= a_ok
            status = np.where(a_ok, b, a)
        if rescue.any():
            status = np.where(rescue, OK, status)
            vq[rescue] = 0
    if pole.any():
        status = np.where(pole, POLE, status)
    return status


# every global name the emitted source may use besides the constants
_NAMES = {
    "__builtins__": {},
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": np.divide,
    "negative": np.negative,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "isfinite": np.isfinite,
    "logical_and": np.logical_and,
    "logical_not": np.logical_not,
    "where": np.where,
    "empty": np.empty,
    "zeros": np.zeros,
    "complex128": np.complex128,
    "uint8": np.uint8,
    "OK": OK,
    "STATUS": _STATUS_ARRAYS,
    "scalar_isfinite": cmath.isfinite,
    "divide_status": _divide_status,
}


@functools.lru_cache(maxsize=256)
def _function_code(source: str) -> CodeType:
    """The code of the one function that source defines."""
    module = compile(source, "<bungee_lab plan>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _function(name: str, body: list[str], names: dict) -> Callable:
    lines = "".join(f"    {line}\n" for step in body for line in step.split("\n"))
    return FunctionType(_function_code(f"def {name}(r0):\n{lines}"), names)


def _compile(e: Expr) -> _Plan:
    c = _Compiler()
    root = c.compile(e)
    status = c.status(root)
    if status is None:
        c.emit(f"return r{root.reg}, STATUS[0]", f"return r{root.reg}, zeros(r0.shape, uint8)")
    else:
        c.emit(f"return r{root.reg}, STATUS[r{status}]", f"return r{root.reg}, r{status}")
    # each function compiled on its own: compile() holds about 4 KB per
    # line until it returns
    names = {**_NAMES, **c.consts}
    return _Plan(_function("one", c.one, names), _function("many", c.many, names))


# True inside ignoring_fp_errors(), where eval_array skips its own errstate
_FP_ERRORS_IGNORED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "bungee_lab_fp_errors_ignored", default=False
)


@contextmanager
def ignoring_fp_errors():
    """Run the block under one np.errstate(all="ignore").

    eval_array called inside the block skips entering and leaving an
    errstate of its own, which costs more than a whole one-element
    evaluation.  Reentrant; like np.errstate, it is not seen by other
    threads.
    """
    if _FP_ERRORS_IGNORED.get():
        yield
        return
    token = _FP_ERRORS_IGNORED.set(True)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _FP_ERRORS_IGNORED.reset(token)


_COMPLEX128 = np.dtype(np.complex128)


def eval_array(e: Expr, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate e at every point of z.

    Returns (values, status), both shaped like z.  values entries are
    meaningful only where status == OK; elsewhere they are whatever the
    hardware produced.  For one-element input the returned arrays may be
    shared between calls and read-only: the status always, the values
    when e is a constant.
    """
    plan = e.__dict__.get("_plan")
    if plan is None:
        plan = _compile(e)
        object.__setattr__(e, "_plan", plan)
    flat = type(z) is np.ndarray and z.ndim == 1 and z.dtype is _COMPLEX128
    if not flat:
        z = np.asarray(z, dtype=np.complex128)
        shape = z.shape
        z = z.reshape(-1)
    run = plan.one if z.size == 1 else plan.many
    if _FP_ERRORS_IGNORED.get():
        vals, status = run(z)
    else:
        with np.errstate(all="ignore"):
            vals, status = run(z)
    if flat:
        return vals, status
    return vals.reshape(shape), status.reshape(shape)


@dataclass(frozen=True)
class EvalResult:
    kind: str  # "finite" | "overflow" | "pole"
    value: complex  # meaningful only when kind == "finite"


def evaluate(e: Expr, z: complex) -> EvalResult:
    """Evaluate at a single point with the same semantics as eval_array."""
    vals, status = eval_array(e, np.array([z], dtype=np.complex128))
    return EvalResult(STATUS_NAMES[int(status[0])], complex(vals[0]))
