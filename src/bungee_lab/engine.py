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

Plans.  An Expr is compiled once into a flat plan of numpy ufunc calls,
cached on the node the way node_count is.  The plan calls the same
ufuncs in the same order as a node-by-node evaluation (Pow is
square-and-multiply with *, constants are full arrays), so values are
bit-identical to it; intermediates are overwritten in place when no
other node reads them and the array has more than one element.  On one
element numpy's overlap check on an aliased out= costs more than a
fresh array, so a scalar orbit step allocates instead.  Buffers belong
to one call, so threads can share a plan.

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
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var

OK = np.uint8(0)
OVERFLOW = np.uint8(1)  # == True viewed as uint8: a failed finiteness mask
POLE = np.uint8(2)

STATUS_NAMES = ("finite", "overflow", "pole")

# a plan step reads and writes the call's register list; register 0 is z
Step = Callable[[list], None]


@dataclass(frozen=True)
class _Plan:
    steps: tuple[Step, ...]
    n_regs: int
    value: int  # register of the result value
    status: int  # register of the result status (uint8)

    def run(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        regs = [None] * self.n_regs
        regs[0] = z
        for step in self.steps:
            step(regs)
        return regs[self.value], regs[self.status]


@dataclass
class _Operand:
    """A compiled subtree during compilation."""

    reg: int
    owned: bool  # no other node reads reg, so it may be overwritten
    pending: bool  # the value may be non-finite without a check so far
    terms: list  # ("ok", mask reg) or ("st", status reg), in status order


class _Compiler:
    def __init__(self):
        self.steps: list[Step] = []
        self.n_regs = 1

    def new_reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    # -- values ----------------------------------------------------------

    def ufunc(self, fn, *args: _Operand) -> int:
        """Emit fn(*args) into the first owned operand's register, else a new one."""
        out = next((a.reg for a in args if a.owned), None)
        in_place = out is not None
        if not in_place:
            out = self.new_reg()
        if len(args) == 1:
            i = args[0].reg

            def step(r):
                x = r[i]
                if in_place and x.size > 1:
                    fn(x, out=r[out])
                else:
                    r[out] = fn(x)

        else:
            i, j = args[0].reg, args[1].reg

            def step(r):
                x, y = r[i], r[j]
                if in_place and x.size > 1:
                    fn(x, y, out=r[out])
                else:
                    # numpy runs a one-element binary op whose output
                    # overlaps an input through another loop, which can
                    # round differently
                    r[out] = fn(x, y)

        self.steps.append(step)
        return out

    def fill(self, value, dtype=np.complex128) -> int:
        """Emit a register holding value at every point."""
        dst = self.new_reg()

        def step(r):
            # np.empty + fill: np.full costs about six times as much on
            # one element
            a = np.empty(r[0].shape, dtype=dtype)
            a.fill(value)
            r[dst] = a

        self.steps.append(step)
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
            self.steps.append(lambda r: _and_into(r, m, np.isfinite(r[v])))
            return
        m = self.new_reg()

        def step(r):
            r[m] = np.isfinite(r[v])

        self.steps.append(step)
        x.terms.append(("ok", m))

    def status(self, x: _Operand) -> int | None:
        """Emit x's full status array; return its register (None: all OK)."""
        self.check(x)
        groups = []  # the terms with each run of masks ANDed into its first
        for kind, reg in x.terms:
            if kind == "ok" and groups and groups[-1][0] == "ok":
                m = groups[-1][1]
                self.steps.append(lambda r, m=m, reg=reg: _and_into(r, m, r[reg]))
            else:
                groups.append((kind, reg))
        if not groups:
            return None
        for kind, reg in groups:
            if kind == "ok":
                self.steps.append(lambda r, m=reg: _mask_to_status(r, m))
        acc = groups[0][1]
        for _, reg in groups[1:]:
            self.steps.append(lambda r, s=reg: _first_failure(r, acc, s))
        return acc

    # -- nodes -----------------------------------------------------------

    def compile(self, e: Expr) -> _Operand:
        if isinstance(e, Var):
            return _Operand(0, owned=False, pending=True, terms=[])
        if isinstance(e, Const):
            return _Operand(self.fill(e.value), owned=True, pending=False, terms=[])
        if isinstance(e, (Add, Sub, Mul)):
            fn = np.add if isinstance(e, Add) else np.subtract if isinstance(e, Sub) else np.multiply
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
            return _Operand(self.ufunc(np.negative, a), True, a.pending, a.terms)
        if isinstance(e, Pow):
            p = self.power(self.compile(e.base), abs(e.exponent))
            if e.exponent > 0:
                return p
            ones = _Operand(self.fill(1), True, False, [])
            return self.divide(ones, None, p)
        if isinstance(e, Exp):
            a = self.compile(e.a)
            self.check(a)
            return _Operand(self.ufunc(np.exp, a), True, True, a.terms)
        if isinstance(e, (Sin, Cos)):
            a = self.compile(e.a)
            fn = np.sin if isinstance(e, Sin) else np.cos
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
                    res = _Operand(self.ufunc(np.multiply, res, last), True, True, res.terms)
            m >>= 1
            if not m:
                return _Operand(res.reg, res.owned, True, base.terms)
            acc = _Operand(self.ufunc(np.multiply, acc, acc), True, True, [])

    def divide(self, a: _Operand, sa: int | None, b: _Operand) -> _Operand:
        """a / b with the pole and rescue rules; sa is a's status register."""
        sb = self.status(b)
        q = self.ufunc(np.divide, a, b)
        s = self.new_reg()
        self.steps.append(lambda r: _divide_status(r, q, sa, sb, s))
        return _Operand(q, True, False, [("st", s)])


def _and_into(r: list, m: int, other: np.ndarray) -> None:
    """AND the mask other into the mask in r[m]."""
    x = r[m]
    if x.size > 1:
        np.logical_and(x, other, out=x)
    else:
        r[m] = x & other


def _mask_to_status(r: list, m: int) -> None:
    x = r[m]
    if x.size > 1:
        np.logical_not(x, out=x)
    else:
        x = ~x
    r[m] = x.view(np.uint8)


def _first_failure(r: list, acc: int, s: int) -> None:
    r[acc] = np.where(r[acc] != OK, r[acc], r[s])


def _divide_status(r: list, q: int, sa: int | None, sb: int | None, s: int) -> None:
    """Status of the quotient in r[q]; rescued quotients become 0.

    sa and sb are the operand status registers, None where an operand
    is OK everywhere.  Where every operand is OK and every quotient
    finite, the status is all OK; an OK divisor leaves nothing to
    rescue.
    """
    vq = r[q]
    finite = np.isfinite(vq)
    a = None if sa is None else r[sa]
    b = None if sb is None else r[sb]
    # count_nonzero costs a third of ndarray.all/any on one element
    if (
        np.count_nonzero(finite) == finite.size
        and (a is None or not np.count_nonzero(a))
        and (b is None or not np.count_nonzero(b))
    ):
        r[s] = b if b is not None else a if a is not None else np.zeros(vq.shape, np.uint8)
        return
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
    r[s] = status


def _compile(e: Expr) -> _Plan:
    c = _Compiler()
    root = c.compile(e)
    status = c.status(root)
    if status is None:
        status = c.fill(OK, np.uint8)
    return _Plan(tuple(c.steps), c.n_regs, root.reg, status)


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
    hardware produced.
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
    if _FP_ERRORS_IGNORED.get():
        vals, status = plan.run(z)
    else:
        with np.errstate(all="ignore"):
            vals, status = plan.run(z)
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
