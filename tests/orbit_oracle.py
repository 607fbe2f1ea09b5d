"""Reference scalar orbit loop and trace-based classification.

oracle_iterate_orbit is iterate_orbit as the package shipped it before
the magnitudes were taken in one pass after the loop: every step
evaluates under its own errstate through eval_array and takes that
step's log10 magnitude from a one-element array.  It records every
point and magnitude of the orbit.  oracle_summary applies the verdict
rules to that full record with plain Python loops (count_oscillations,
tail_flags), so property tests can compare it with the streaming
summary of classify_point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from bungee_lab import engine
from bungee_lab.engine import eval_array
from bungee_lab.expr import Expr
from bungee_lab.orbit import (
    CONFIDENT,
    HEURISTIC,
    TERM_NAMES,
    OrbitParams,
    OrbitSummary,
    Termination,
    Verdict,
    _verdicts,
)


@dataclass(frozen=True)
class OrbitTrace:
    seed: complex
    magnitudes: tuple[float, ...]  # log10 |z_n|; -inf for 0; +inf on overflow
    termination: Termination
    oscillation_count: int
    points: tuple[complex, ...] = field(repr=False, default=())


def count_oscillations(magnitudes, params: OrbitParams) -> int:
    """Completed excursions: above escape_radius, then below bound_radius."""
    log_esc = params.log_escape
    log_bound = params.log_bound
    count = 0
    in_excursion = False
    for m in magnitudes:
        if not in_excursion:
            if m > log_esc:
                in_excursion = True
        elif m < log_bound:
            count += 1
            in_excursion = False
    return count


def tail_flags(magnitudes, params: OrbitParams) -> tuple[bool, bool]:
    """(all_below, tail_escape) of a magnitude list."""
    log_bound = params.log_bound
    log_esc = params.log_escape
    all_below = all(m <= log_bound for m in magnitudes)
    w = min(params.tail_window, len(magnitudes))
    tail = magnitudes[len(magnitudes) - w :]
    tail_escape = all(m > log_esc for m in tail) and all(
        tail[i + 1] >= tail[i] for i in range(len(tail) - 1)
    )
    return all_below, tail_escape


def oracle_iterate_orbit(f: Expr, z0: complex, params: OrbitParams) -> OrbitTrace:
    """Follow one orbit, recording points and log10 magnitudes."""
    z = np.array([z0], dtype=np.complex128)
    if not np.isfinite(z)[0]:
        return OrbitTrace(
            seed=complex(z0),
            magnitudes=(math.inf,),
            termination=Termination("overflow", 0),
            oscillation_count=0,
            points=(),
        )
    n_total = params.max_iter
    with np.errstate(divide="ignore"):
        mags = [float(np.log10(np.abs(z))[0])]
    points = [complex(z[0])]
    termination = Termination("completed", n_total)
    for n in range(n_total):
        vals, status = eval_array(f, z)
        st = int(status[0])
        if st == int(engine.POLE):
            termination = Termination("pole", n)
            break
        if st == int(engine.OVERFLOW):
            termination = Termination("overflow", n + 1)
            mags.append(math.inf)
            break
        with np.errstate(divide="ignore"):
            m = float(np.log10(np.abs(vals))[0])
        mags.append(m)
        points.append(complex(vals[0]))
        if vals[0] == z[0]:
            # exact fixed point: the rest of the orbit repeats this value
            mags.extend([m] * (n_total - n - 1))
            break
        z = vals
    osc = count_oscillations(mags, params)
    return OrbitTrace(
        seed=complex(z0),
        magnitudes=tuple(mags),
        termination=termination,
        oscillation_count=osc,
        points=tuple(points),
    )


def classify(trace: OrbitTrace, params: OrbitParams) -> OrbitSummary:
    """Apply the verdict rules to a recorded orbit."""
    term = trace.termination
    all_below, tail_escape = tail_flags(trace.magnitudes, params)
    verdict, confident = _verdicts(
        np.array([TERM_NAMES.index(term.kind)], dtype=np.uint8),
        np.array([trace.oscillation_count], dtype=np.int32),
        np.array([all_below]),
        np.array([tail_escape]),
        params,
    )
    # evaluations: one per recorded point after the seed, plus the one
    # that failed at a pole; an overflow's failed evaluation is its step
    if term.kind == "pole":
        steps = term.step + 1
    elif term.kind == "overflow":
        steps = term.step
    else:
        steps = len(trace.points) - 1
    return OrbitSummary(
        verdict=Verdict(int(verdict[0])),
        confidence=CONFIDENT if confident[0] else HEURISTIC,
        termination=term,
        oscillation_count=trace.oscillation_count,
        all_below=all_below,
        tail_escape=tail_escape,
        steps=steps,
        head=trace.magnitudes[:10],
        tail=trace.magnitudes[-10:],
    )


def oracle_summary(f: Expr, z0: complex, params: OrbitParams) -> OrbitSummary:
    return classify(oracle_iterate_orbit(f, z0, params), params)
