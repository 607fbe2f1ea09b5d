"""Reference evaluator for the engine's value and status semantics.

This is the recursive evaluator the package shipped before eval_array
ran compiled plans, kept verbatim so property tests can compare the
plan against it: every node allocates fresh value and status arrays,
and every node settles its own status.  Call oracle_eval(e, z).
"""

from __future__ import annotations

import numpy as np

from bungee_lab.engine import OK, OVERFLOW, POLE
from bungee_lab.expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var


def oracle_eval(e: Expr, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return _eval(e, z)


def _settle(values: np.ndarray, status: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Demote OK entries whose value turned non-finite to OVERFLOW."""
    blown = (status == OK) & ~np.isfinite(values)
    if blown.any():
        status = np.where(blown, OVERFLOW, status)
    return values, status


def _merge2(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    return np.where(sa != OK, sa, sb)


def _mul_combine(va, sa, vb, sb):
    return _settle(va * vb, _merge2(sa, sb))


def _div_combine(va, sa, vb, sb):
    q = va / vb
    status = _merge2(sa, sb)
    rescue = (sa == OK) & (sb == OVERFLOW)
    if rescue.any():
        status = np.where(rescue, OK, status)
        q = np.where(rescue, np.complex128(0), q)
    pole = (sa == OK) & (sb == OK) & ~np.isfinite(q)
    if pole.any():
        status = np.where(pole, POLE, status)
    return q, status


def _pow_combine(vals, status, n: int):
    """vals**n for n >= 1 by square-and-multiply on whole arrays."""
    acc_v, acc_s = vals, status
    res_v = None
    res_s = None
    m = n
    while True:
        if m & 1:
            if res_v is None:
                res_v, res_s = acc_v, acc_s
            else:
                res_v, res_s = _mul_combine(res_v, res_s, acc_v, acc_s)
        m >>= 1
        if not m:
            return res_v, res_s
        acc_v, acc_s = _mul_combine(acc_v, acc_s, acc_v, acc_s)


def _eval(e: Expr, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(e, Var):
        status = np.where(np.isfinite(z), OK, OVERFLOW)
        return z, status
    if isinstance(e, Const):
        return (
            np.full(z.shape, e.value, dtype=np.complex128),
            np.zeros(z.shape, dtype=np.uint8),
        )
    if isinstance(e, Add):
        va, sa = _eval(e.a, z)
        vb, sb = _eval(e.b, z)
        return _settle(va + vb, _merge2(sa, sb))
    if isinstance(e, Sub):
        va, sa = _eval(e.a, z)
        vb, sb = _eval(e.b, z)
        return _settle(va - vb, _merge2(sa, sb))
    if isinstance(e, Mul):
        va, sa = _eval(e.a, z)
        vb, sb = _eval(e.b, z)
        return _mul_combine(va, sa, vb, sb)
    if isinstance(e, Div):
        va, sa = _eval(e.a, z)
        vb, sb = _eval(e.b, z)
        return _div_combine(va, sa, vb, sb)
    if isinstance(e, Neg):
        va, sa = _eval(e.a, z)
        return -va, sa
    if isinstance(e, Pow):
        vb, sb = _eval(e.base, z)
        n = e.exponent
        if n > 0:
            return _pow_combine(vb, sb, n)
        pv, ps = _pow_combine(vb, sb, -n)
        ones = np.ones(z.shape, dtype=np.complex128)
        return _div_combine(ones, np.zeros(z.shape, dtype=np.uint8), pv, ps)
    if isinstance(e, Exp):
        va, sa = _eval(e.a, z)
        return _settle(np.exp(va), sa)
    if isinstance(e, Sin):
        va, sa = _eval(e.a, z)
        return _settle(np.sin(va), sa)
    if isinstance(e, Cos):
        va, sa = _eval(e.a, z)
        return _settle(np.cos(va), sa)
    raise TypeError(f"not an expression node: {e!r}")
