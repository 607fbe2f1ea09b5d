"""Reference scalar orbit loop for iterate_orbit.

This is iterate_orbit as the package shipped it before the magnitudes
were taken in one pass after the loop, kept verbatim so property tests
can compare the two: every step evaluates under its own errstate and
takes that step's log10 magnitude from a one-element array.  Call
oracle_iterate_orbit(f, z0, params).
"""

from __future__ import annotations

import math

import numpy as np

from bungee_lab import engine
from bungee_lab.engine import eval_array
from bungee_lab.expr import Expr
from bungee_lab.orbit import OrbitParams, OrbitTrace, Termination, count_oscillations


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
