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
way node_count is.  The compiler emits Python source for a
straight-line array function, which eval_array runs on every size but
one element, and the one-element lines of each step of the scalar
orbit loop that orbit_loop returns.  eval_array runs one step of that
loop on one element, so single points and orbits share one generated
function; it is built from the plan on first use, so plans that only
see longer arrays never compile it.  The array function calls the same
numpy ufuncs in the same order as a node-by-node evaluation (Pow is
square-and-multiply with *, constants are full arrays), so values are
bit-identical to it.  The compiler visits the tree once with expr.fold,
children first, so a node's lines, a check or status of its left
operand among them, follow both operands' lines; no operand's lines
write another's registers.  The source holds only register numbers and names
from a fixed table: ufuncs and constants are bound through the
functions' globals, so no value is written as a literal (-0.0,
subnormals and 2*pi*i stay exact) and no input text reaches compile().
Trees of one shape, such as z+1 and z+2, therefore give the same
source, and the compiled code is cached on that text; each plan binds
its own constants to it.  The array function overwrites intermediates
in place when no other node reads them.

One element.  A one-element ufunc call costs more than the arithmetic,
so the one-element lines run add, subtract and negate as Python complex
arithmetic.  IEEE rounds a sum, a difference and a negation exactly,
componentwise, so these match np.add, np.subtract and np.negative bit
for bit (for np.add on one element, up to the sign of a NaN made from
two NaNs, and a NaN is never an OK value).  Multiply, divide, exp, sin
and cos stay numpy calls: Python's complex * and / round differently
from numpy's, and cmath's exp, sin and cos differ for large arguments.
exp, sin and cos take a Python complex and give a numpy complex scalar,
which numpy computes with the loop it runs on arrays; multiply and
divide take one-element arrays, since numpy's scalar path is slower
there.  A value crosses between the two kinds once: .item() or
.__complex__() makes a Python complex, and a write into a one-element
buffer an array.  Each constant is bound twice, as a read-only
one-element array and as a Python complex taken from it with .item(),
never as a float: under C99 mixed-mode rules (Python 3.14) float +
complex keeps a -0.0 imaginary part where np.add gives +0.0.  Every
call returns fresh arrays.  Registers and buffers are locals of one
call, so threads can share a plan.

The orbit loop keeps each step's status a Python int and its value a
Python complex z: there is no eval_array call, no status array and
no .item() of a status per step.  Where the lines read the point as an
array, the loop carries the root's array, or writes z into a buffer of
its own when the root is a Python value.  It tests for an exact fixed
point against the previous point, appends each point to a list and
hands the list to a fold callback every k steps, which keeps the loop's
memory bounded by k rather than by the orbit length.

Floating-point errors.  eval_array runs each plan under
np.errstate(all="ignore"), since statuses, not warnings, report
overflow and poles.  Entering and leaving an errstate costs more than
a one-element evaluation, so the orbit loop runs no errstate of its
own: its caller opens one around the whole orbit.

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

On one element masks are Python bools, from cmath.isfinite on the
scalar values, and statuses Python ints, under the same rules, and the
division rules run inline.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Callable

import numpy as np

from .expr import Add, Const, Div, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var, fold

OK = np.uint8(0)
OVERFLOW = np.uint8(1)  # == True viewed as uint8: a failed finiteness mask
POLE = np.uint8(2)

STATUS_NAMES = ("finite", "overflow", "pole")


@dataclass
class _Plan:
    many: Callable  # for every size but one element
    body: str  # the one-element lines before the return
    value: str  # the one-element value as a Python complex, after body
    status: int | None  # register of the one-element status; None: always OK
    kept: bool  # an OK status means body left the value in z
    alloc: list  # lines that allocate the one-element buffers body writes
    carry: str | None  # after a step, makes r0 the new point; None: body never reads r0
    names: dict  # the globals of many and orbit
    orbit: Callable | None = None  # the scalar orbit loop, made on first use


@dataclass
class _Operand:
    """A compiled subtree during compilation.

    val, arr and raw name its value in the one-element body: as a Python
    complex, as a one-element array and as the numpy scalar that a
    ufunc gives on a Python complex.  Each is None until made.
    """

    reg: int
    owned: bool  # no other node reads reg, so it may be overwritten
    pending: bool  # the value may be non-finite without a check so far
    terms: list  # ("ok", mask reg) or ("st", status reg), in status order
    val: str | None = None
    arr: str | None = None
    raw: str | None = None


# the one-element lines of the operations Python complex arithmetic runs
_PYTHON_OPS = {"add": "{} + {}", "subtract": "{} - {}", "negative": "-{}"}


class _Compiler:
    """Emits the array function and the one-element lines; register k is local rk."""

    def __init__(self):
        self.one: list[str] = []  # the one-element lines of an orbit step
        self.many: list[str] = []  # body of the array function
        self.consts: dict[str, object] = {}  # globals named after registers
        self.n_regs = 1
        self.n_locals = 0  # locals of the one-element body only
        self.buffers: list[str] = []
        self.reads: set[str] = set()  # which of z and r0 the one-element body reads

    def new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def new_local(self, prefix: str) -> str:
        self.n_locals += 1
        return f"{prefix}{self.n_locals}"

    def emit(self, one: str, many: str | None = None) -> None:
        """Append a line to each body; many defaults to the one-element line."""
        self.one.append(one)
        self.many.append(one if many is None else many)

    # -- values ----------------------------------------------------------

    def value(self, x: _Operand) -> str:
        """x's value on one element as a Python complex, converted once."""
        if x.val is None:
            x.val = self.new_local("p")
            convert = f"{x.raw}.__complex__()" if x.raw else f"{x.arr}.item()"
            self.one.append(f"{x.val} = {convert}")
        if x.val == "z":
            self.reads.add("z")
        return x.val

    def scalar(self, x: _Operand) -> str:
        """x's value on one element as a Python or numpy complex scalar."""
        return x.raw or self.value(x)

    def array(self, x: _Operand) -> str:
        """x's value on one element in a one-element array, written once."""
        if x.arr is None:
            x.arr = self.new_local("b")
            self.buffers.append(x.arr)
            self.one.append(f"{x.arr}[0] = {x.raw or x.val}")
        if x.arr == "r0":
            self.reads.add("r0")
        return x.arr

    def ufunc(self, fn: str, args: tuple, terms: list, pending: bool = True) -> _Operand:
        """Emit fn(*args) into the first owned operand's register, else a new one.

        On one element add, subtract and negative are Python complex
        arithmetic, multiply and divide take one-element arrays, and exp,
        sin and cos take a scalar and give a numpy scalar.
        """
        if fn in _PYTHON_OPS:
            one, form = _PYTHON_OPS[fn].format(*map(self.value, args)), "val"
        elif fn in ("multiply", "divide"):
            one, form = f"{fn}({', '.join(map(self.array, args))})", "arr"
        else:
            one, form = f"{fn}({self.scalar(args[0])})", "raw"
        out = next((a.reg for a in args if a.owned), None)
        call = f"{fn}({', '.join(f'r{a.reg}' for a in args)}"
        if out is None:
            out = self.new_reg()
            self.many.append(f"r{out} = {call})")
        else:
            self.many.append(f"{call}, out=r{out})")
        self.one.append(f"r{out} = {one}")
        return _Operand(out, True, pending, terms, **{form: f"r{out}"})

    def fill(self, value) -> _Operand:
        """A register holding value at every point."""
        dst = self.new_reg()
        const = _read_only(np.full(1, value, np.complex128))
        self.consts[f"c{dst}"] = const
        # a Python complex, never a float: float + complex can round a
        # zero's sign differently from complex + complex
        self.consts[f"v{dst}"] = const.item()
        # np.empty + fill: np.full costs about twice as much on the
        # few-element arrays of a thinning batch
        self.many.append(f"r{dst} = empty(r0.shape, complex128)\nr{dst}.fill(v{dst})")
        return _Operand(dst, True, False, [], val=f"v{dst}", arr=f"c{dst}")

    # -- statuses --------------------------------------------------------

    def check(self, x: _Operand, keep: str = "") -> None:
        """Record where x's value is non-finite as an OVERFLOW term.

        On one element, keep="z := " also leaves the value in local z.
        """
        if not x.pending:
            return
        x.pending = False
        v = x.reg
        # z gets a Python complex; the check alone takes any scalar
        one = f"scalar_isfinite({keep}{self.value(x) if keep else self.scalar(x)})"
        if x.terms and x.terms[-1][0] == "ok":
            m = x.terms[-1][1]
            self.emit(f"r{m} = r{m} and {one}", f"logical_and(r{m}, isfinite(r{v}), out=r{m})")
            return
        m = self.new_reg()
        self.emit(f"r{m} = {one}", f"r{m} = isfinite(r{v})")
        x.terms.append(("ok", m))

    def status(self, x: _Operand, keep: str = "") -> int | None:
        """Emit x's full status; return its register (None: all OK)."""
        self.check(x, keep)
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

    def node(self, e: Expr, *ops: _Operand) -> _Operand:
        """Compile e from ops, its children compiled in turn (see fold)."""
        if isinstance(e, Var):
            return _Operand(0, owned=False, pending=True, terms=[], val="z", arr="r0")
        if isinstance(e, Const):
            return self.fill(e.value)
        if isinstance(e, (Add, Sub, Mul)):
            fn = "add" if isinstance(e, Add) else "subtract" if isinstance(e, Sub) else "multiply"
            a, b = ops
            if not e.b.entire:
                self.check(a)
            return self.ufunc(fn, ops, a.terms + b.terms)
        if isinstance(e, Div):
            a, b = ops
            return self.divide(a, self.status(a), b)
        (a,) = ops
        if isinstance(e, Neg):
            return self.ufunc("negative", ops, a.terms, a.pending)
        if isinstance(e, Pow):
            p = self.power(a, abs(e.exponent))
            if e.exponent > 0:
                return p
            return self.divide(self.fill(1), None, p)
        if isinstance(e, Exp):
            self.check(a)
            return self.ufunc("exp", ops, a.terms)
        return self.ufunc("sin" if isinstance(e, Sin) else "cos", ops, a.terms)

    def power(self, base: _Operand, n: int) -> _Operand:
        """base**n for n >= 1 by square-and-multiply on whole arrays."""
        if n > 1:
            self.array(base)  # once, for every operand that shares base's register
        acc = base
        res = None
        m = n
        while True:
            if m & 1:
                if res is None:
                    # res shares acc's register; only res may overwrite it
                    res = acc
                    acc = _Operand(acc.reg, False, acc.pending, [], arr=acc.arr)
                else:
                    # acc is squared again unless this is the last bit
                    last = _Operand(acc.reg, acc.owned and m == 1, True, [], arr=acc.arr)
                    res = self.ufunc("multiply", (res, last), res.terms)
            m >>= 1
            if not m:
                return _Operand(res.reg, res.owned, True, base.terms, res.val, res.arr, res.raw)
            acc = self.ufunc("multiply", (acc, acc), [])

    def divide(self, a: _Operand, sa: int | None, b: _Operand) -> _Operand:
        """a / b with the pole and rescue rules; sa is a's status register."""
        sb = self.status(b)
        q = self.ufunc("divide", (a, b), [], pending=False)
        s = self.new_reg()
        # the rules of _divide_status on int statuses: 1 is OVERFLOW, 2 POLE
        pole = f"0 if scalar_isfinite(r{q.reg}.item()) else 2"
        if sb is None:
            one = f"r{s} = {pole}" if sa is None else f"r{s} = r{sa} or ({pole})"
        else:
            one = f"if r{sb} == 1:\n    r{q.reg}[0] = 0\n    r{s} = 0\nelse:\n    r{s} = r{sb} or ({pole})"
            if sa is not None:
                one = f"if r{sa}:\n    r{s} = r{sa}\nel{one}"
        ra, rb = ("None" if r is None else f"r{r}" for r in (sa, sb))
        self.emit(one, f"r{s} = divide_status(r{q.reg}, {ra}, {rb})")
        q.terms.append(("st", s))
        return q


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    "scalar_isfinite": cmath.isfinite,
    "range": range,
    "divide_status": _divide_status,
}


@functools.lru_cache(maxsize=256)
def _function_code(source: str) -> CodeType:
    """The code of the one function that source defines."""
    module = compile(source, "<bungee_lab plan>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _indent(body: list[str]) -> list[str]:
    return ["    " + line for step in body for line in step.split("\n")]


def _function(signature: str, body: list[str], names: dict) -> Callable:
    lines = "".join(f"{line}\n" for line in _indent(body))
    return FunctionType(_function_code(f"def {signature}:\n{lines}"), names)


def _compile(e: Expr) -> _Plan:
    c = _Compiler()
    root = fold(e, c.node)
    # the root's finiteness check, when it has one, also leaves the value
    # in z as a Python complex; an OK status means the check ran
    kept = root.pending
    status = c.status(root, keep="z := ")
    body = "\n".join(c.one)
    # a root without a Python value (a quotient) has an array
    value = root.val or f"{root.arr}.item()"
    statuses = "zeros(r0.shape, uint8)" if status is None else f"r{status}"
    c.many.append(f"return r{root.reg}, {statuses}")
    carry = None
    if "r0" in c.reads:
        # a root array is fresh at every step, so the next step may read it
        carry = f"r0 = {root.arr}" if root.arr else "r0[0] = z"
    # the buffers, like the registers, are locals of one call
    alloc = [f"{b} = empty(1, complex128)" for b in c.buffers]
    names = {**_NAMES, **c.consts}
    many = _function("many(r0)", c.many, names)
    return _Plan(many, body, value, status, kept, alloc, carry, names)


def _plan(e: Expr) -> _Plan:
    plan = e.__dict__.get("_plan")
    if plan is None:
        plan = _compile(e)
        object.__setattr__(e, "_plan", plan)
    return plan


def orbit_loop(e: Expr) -> Callable:
    """The scalar orbit loop of e, compiled on first use.

    orbit(n_total, buf, fold, k) iterates e from the Python complex
    buf[0] for at most n_total steps.  It appends each new point to buf
    as a Python complex and calls fold(buf) after every k steps and
    after the last; a fold that empties buf bounds the loop's memory by
    k points.  A failed step appends nothing.  It returns (steps,
    status): the number of evaluations and the status of the last one
    as an int.  An exact fixed point ends the loop with status OK after
    fewer than n_total steps.  Run it under np.errstate(all="ignore"),
    as eval_array runs it.
    """
    plan = _plan(e)
    if plan.orbit is None:
        s = f"r{plan.status}"
        step = [plan.body] if plan.body else []
        if plan.status is not None:
            step.append(f"if {s}:\n    return n + 1, {s}")
        if not plan.kept:
            step.append(f"z = {plan.value}")
        step += ["append(z)", "if z == prev:\n    return n + 1, 0", "prev = z"]
        setup = list(plan.alloc)
        if plan.carry is not None:
            step.append(plan.carry)
            setup += ["r0 = empty(1, complex128)", "r0[0] = z"]
        # chunks of k steps, folded after each, without a per-step test
        chunk = [
            "for n in range(start, start + k if start + k < n_total else n_total):",
            *_indent(step),
            "fold(buf)",
        ]
        body = [
            "z = prev = buf[0]",
            *setup,
            "append = buf.append",
            "for start in range(0, n_total, k):",
            *_indent(chunk),
            "return n_total, 0",
        ]
        plan.orbit = _function("orbit(n_total, buf, fold, k)", body, plan.names)
    return plan.orbit


_COMPLEX128 = np.dtype(np.complex128)


def eval_array(e: Expr, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate e at every point of z.

    Returns (values, status), both shaped like z and fresh arrays of
    the caller's.  values entries are meaningful only where status ==
    OK; elsewhere they are whatever the hardware produced, or on one
    element the input.  One element runs one step of orbit_loop(e).
    """
    flat = type(z) is np.ndarray and z.ndim == 1 and z.dtype is _COMPLEX128
    if not flat:
        z = np.asarray(z, dtype=np.complex128)
        shape = z.shape
        z = z.reshape(-1)
    with np.errstate(all="ignore"):
        if z.size == 1:
            # len as the fold keeps the seed and the new point in buf
            buf = [z.item()]
            _, s = orbit_loop(e)(1, buf, len, 1)
            vals, status = np.array(buf[-1:], np.complex128), np.array([s], np.uint8)
        else:
            vals, status = _plan(e).many(z)
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
