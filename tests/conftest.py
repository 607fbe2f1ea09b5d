"""Shared test helpers.

random_expr builds expression trees through the smart constructors, so
the trees are already in the folded canonical form that the parser
itself produces; parse(str(tree)) == tree is then a meaningful
round-trip check.  every_step switches off every certificate that
retires a seed early.  The acceptance tests register one-line results
that are echoed in the terminal summary.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np

from bungee_lab import orbit
from bungee_lab.expr import (
    Const,
    Expr,
    Var,
    add,
    cos_,
    div,
    exp_,
    mul,
    neg,
    pow_,
    sin_,
    sub,
)

_ACCEPTANCE_LINES: list[tuple[int, str, bool]] = []


def every_step():
    """A context in which classify_batch and classify_grid run every step
    of every seed: the list of retirement certificates is empty."""
    return mock.patch.object(orbit, "_certificates", lambda f, params: ())


def record_acceptance(number: int, description: str, passed: bool) -> None:
    _ACCEPTANCE_LINES.append((number, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE_LINES):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {word}  {description}")


def random_const(rng: random.Random, real: bool = False) -> Expr:
    kind = rng.randrange(2 if real else 3)
    if kind == 0:
        return Const(float(rng.randint(0, 9)))
    if kind == 1:
        return Const(round(rng.uniform(-4, 4), 3))
    return Const(complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)))


def random_expr(rng: random.Random, depth: int, real: bool = False, entire: bool = False) -> Expr:
    """Random tree of at most the given depth, in canonical folded form;
    with real, every constant it draws is real, and with entire, the
    tree has no division and no negative power (a product and a
    positive power take their place)."""
    if depth <= 0 or rng.random() < 0.25:
        return Var() if rng.random() < 0.7 else random_const(rng, real)
    op = rng.randrange(9)
    a = random_expr(rng, depth - 1, real, entire)
    if op == 0:
        return add(a, random_expr(rng, depth - 1, real, entire))
    if op == 1:
        return sub(a, random_expr(rng, depth - 1, real, entire))
    if op == 2 or (op == 3 and entire):
        return mul(a, random_expr(rng, depth - 1, real, entire))
    if op == 3:
        return div(a, random_expr(rng, depth - 1, real))
    if op == 4:
        return neg(a)
    if op == 5:
        n = rng.choice([-3, -2, -1, 2, 3, 4, 64, -64, 1])
        if entire:
            n = abs(n)
        try:
            return pow_(a, n)
        except ValueError:
            return a
    if op == 6:
        return exp_(a)
    if op == 7:
        return sin_(a)
    return cos_(a)


def random_parity_expr(rng: random.Random, depth: int, odd: bool) -> Expr:
    """Random tree built only from steps that keep a parity: odd in z
    when odd, else even; its constants are nonzero and may be complex."""
    if depth <= 0 or rng.random() < 0.2:
        if odd:
            return Var()
        if rng.random() < 0.5:
            return pow_(Var(), 2)
        # a zero constant would fold an odd product to the constant 0
        c = random_const(rng)
        return c if c.value != 0 else Const(1.0)
    op = rng.randrange(8)
    if op == 0:
        return add(random_parity_expr(rng, depth - 1, odd), random_parity_expr(rng, depth - 1, odd))
    if op == 1:
        return sub(random_parity_expr(rng, depth - 1, odd), random_parity_expr(rng, depth - 1, odd))
    if op in (2, 3):
        # odd * even is odd; odd * odd and even * even are even
        a_odd = rng.random() < 0.5
        b_odd = a_odd != odd
        a = random_parity_expr(rng, depth - 1, a_odd)
        b = random_parity_expr(rng, depth - 1, b_odd)
        return mul(a, b) if op == 2 else div(a, b)
    if op == 4:
        return neg(random_parity_expr(rng, depth - 1, odd))
    if op == 5:
        # a power of an odd base has its exponent's parity; of an even base, even
        base_odd = odd or rng.random() < 0.5
        if odd:
            n = rng.choice([-63, -3, -1, 3, 5])
        elif base_odd:
            n = rng.choice([-64, -2, 2, 4, 64])
        else:
            n = rng.choice([-3, -2, -1, 2, 3, 64])
        return pow_(random_parity_expr(rng, depth - 1, base_odd), n)
    if op == 6:
        return sin_(random_parity_expr(rng, depth - 1, odd))
    if odd:
        return mul(Var(), random_parity_expr(rng, depth - 1, False))
    if rng.random() < 0.5:
        return exp_(random_parity_expr(rng, depth - 1, False))
    return cos_(random_parity_expr(rng, depth - 1, rng.random() < 0.5))


def random_points(rng: random.Random, count: int, half_width: float = 2.0) -> np.ndarray:
    pts = [
        complex(rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))
        for _ in range(count)
    ]
    return np.array(pts, dtype=np.complex128)
