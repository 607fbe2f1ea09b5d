"""Orbit iteration and finite-horizon classification.

An orbit z_0, z_1 = f(z_0), ... is followed for at most max_iter steps
and summarized by log10 magnitudes (with -inf standing for |z| = 0).
Iteration stops early when the map overflows, hits a pole, or lands
exactly on a fixed point (from there the tail is constant, so the
remaining magnitudes are filled in without further evaluation).
classify_batch also finishes a seed that drifts away under a map of
the form z + c + k exp(-z) by cheaper exact steps and retires one
certified to stay bounded to the end, as below.

Verdicts, in the order the rules are tried:

    bungee     oscillation_count >= min_oscillations, or the orbit
               ended abnormally after at least one full oscillation
    pole       iteration died at a pole
    escaping   the map overflowed, or the last tail_window magnitudes
               all exceed log10(escape_radius) and are nondecreasing
    bounded    the full orbit stayed at or below log10(bound_radius)
    undecided  anything else

An oscillation is one excursion above escape_radius followed by a
return below bound_radius (strict comparisons on both sides).  Bungee
and undecided verdicts are heuristic; pole, escaping, and bounded are
confident.  classify_point and classify_batch share one evaluation
engine and one rule table, so a single seed classifies identically no
matter which path ran it.

classify_point runs one seed in the scalar orbit loop that the engine
generates from the map's plan, the function a one-element eval_array
runs for one step.  It streams: the loop buffers at most CHUNK + 1
points, and every CHUNK steps one numpy pass takes their magnitudes
and folds them into the oscillation count, the all-below flag and the
length of the current run of magnitudes above log10(escape_radius)
that never decrease (the tail test is that run reaching tail_window).
Per orbit it keeps only these, the step count and the first and last
SUMMARY_MAGNITUDES magnitudes, so its memory does not grow with
max_iter.  classify_batch streams per seed as well.

Retirement.  For an entire map (no division, no negative power),
majorant walks the dominant series M, with |f(z)| <= M(|z|), each node
rounded outward by a relative SLACK and an absolute TINY.  That covers
the rounding of numpy's +, -, *, powers, exp, sin and cos (below 2^-40
relative per node, plus a few 2^-1074 under 2^-1022), so the walked
B(r) bounds |f(z)| as eval_array computes it for every |z| <= r.  From
B, _build_table chains radii r*(R), each verified by a forward
evaluation of B: a point at or below r*(R) stays at or below
bound_radius / 2 for R more steps.  After step n's bookkeeping, a live
seed with log10|z| <= log10 r*(max_iter - n - 1), less LOG10_MARGIN for
the rounding of np.log10(np.abs(z)), leaves on the frozen path, and its
outputs are what the remaining steps would give: those steps stay below
bound_radius, so the orbit completes at max_iter without overflow or
pole, its excursion flag (just cleared, since m < log_bound) stays
clear and its oscillation count stays, all_below keeps its value and
the tail test fails.  So every output array but the tails is
bit-identical to a run of every step.  A table covers at most
RETIRE_STEPS remaining steps and is built once per map, bound_radius
and length, on the first call that needs it.

Petals.  The radial table must allow for the repelling directions of a
parabolic fixed point, so a seed creeping into one along an attracting
direction reaches r*(R) only about halfway through its steps.  For a
map with f(0) = 0, f'(0) = lam in {1, -1, i, -i} and f(z) = lam z (1 +
a z^k + ...) with lam^k = 1, the Leau-Fatou flower theorem gives a
region that is invariant instead: with u = -1/(k a z^k), one step adds
about 1 to u.  _build_petal proves, from f's exact Taylor coefficients
at 0, the majorant's bounds on the rest and on the rounding, that one
step of f as eval_array computes it adds at least 1/2 to Re u wherever
Re u >= sigma and floor <= |z|; such a point has |z| <= radius <=
bound_radius / 2.  So its orbit stays in that region until it falls
below floor, which is at or below the table's last radius, and there
the table takes over.  A live seed in the petal takes the frozen path
with the same outputs as above, at the step where it enters the
petal.  A petal is built once per map and bound_radius, and read only
where the table is finite to its last entry, at steps the table
covers.

Drift.  A map whose tree is a sum of one z, constants and terms
exp(-z), such as 1+z+exp(-z), in a form _drift_form accepts, moves a
point with Re z >= DRIFT_X by a chain of float additions of its
constants alone: there each exp(-z) is below 2^-54 of the partial sum
it is added to, in both components, so adding it returns that sum bit
for bit, and Re z never decreases, so this holds to the end.  Once a
live seed also has Re z > bound_radius, it leaves the live set, and
classify_batch steps it on to max_iter by those additions alone, in
place, once the live steps are done, taking its magnitudes only for the
last tail_window steps.  Its outputs, tails included, are then those
of every step of f, by construction.

classify_point, which reports the last magnitudes, runs every step.
classify_batch with want_tail_values runs the same certificates and
writes each seed's tail points into its own output row as it goes; a
retired seed's later points are not held.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import eval_array
from .expr import Add, Const, Cos, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var, derivative, fold

TERM_COMPLETED = 0
TERM_OVERFLOW = 1
TERM_POLE = 2

TERM_NAMES = ("completed", "overflow", "pole")


class Verdict(enum.IntEnum):
    ESCAPING = 0
    BOUNDED = 1
    BUNGEE = 2
    UNDECIDED = 3
    POLE = 4

    @property
    def label(self) -> str:
        return self.name.lower()


CONFIDENT = "confident"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned sampling region."""

    center: complex
    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("rect width and height must be positive")


@dataclass(frozen=True)
class OrbitParams:
    max_iter: int = 1000
    escape_radius: float = 1e8
    bound_radius: float = 1e4
    min_oscillations: int = 3
    tail_window: int = 10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_iter > np.iinfo(np.int32).max:
            # termination steps are stored as int32
            raise ValueError(f"max_iter must be at most {np.iinfo(np.int32).max}")
        if not (math.isfinite(self.escape_radius) and math.isfinite(self.bound_radius)):
            # an infinite escape radius makes escape and oscillation unreachable
            raise ValueError("escape_radius and bound_radius must be finite")
        if not (self.escape_radius > self.bound_radius > 0):
            raise ValueError("need escape_radius > bound_radius > 0")
        if self.min_oscillations < 1:
            raise ValueError("min_oscillations must be at least 1")
        if self.tail_window < 1:
            raise ValueError("tail_window must be at least 1")
        if self.tail_window > self.max_iter:
            raise ValueError("tail_window cannot exceed max_iter")

    @property
    def log_escape(self) -> float:
        return math.log10(self.escape_radius)

    @property
    def log_bound(self) -> float:
        return math.log10(self.bound_radius)

    def to_dict(self) -> dict:
        return {
            "max_iter": self.max_iter,
            "escape_radius": self.escape_radius,
            "bound_radius": self.bound_radius,
            "min_oscillations": self.min_oscillations,
            "tail_window": self.tail_window,
        }


@dataclass(frozen=True)
class Termination:
    kind: str  # "completed" | "overflow" | "pole"
    step: int  # completed: max_iter; overflow: index of the bad point;
    #            pole: index of the point the map failed at


@dataclass(frozen=True)
class OrbitSummary:
    """What classify_point keeps of one orbit: its verdict and a few magnitudes."""

    verdict: Verdict
    confidence: str
    termination: Termination
    oscillation_count: int
    all_below: bool  # every magnitude at or below log10(bound_radius)
    tail_escape: bool  # the last tail_window magnitudes: above log10(escape_radius), nondecreasing
    steps: int  # evaluations of the map
    head: tuple[float, ...]  # the first SUMMARY_MAGNITUDES log10 magnitudes
    tail: tuple[float, ...]  # the last SUMMARY_MAGNITUDES log10 magnitudes


# points the scalar loop buffers between two folds; a module constant,
# not an option: about the default max_iter, so a longer orbit needs no
# more memory than a default one
CHUNK = 1024
SUMMARY_MAGNITUDES = 10


class _Fold:
    """The streaming state of one orbit's log10 magnitudes.

    Called with a list of orbit points, it takes their magnitudes in one
    numpy pass, folds them in and empties the list.  It carries what
    crosses a chunk boundary: the in-excursion flag, the last magnitude
    and the length of the run of magnitudes above log10(escape_radius)
    that never decrease.
    """

    def __init__(self, params: OrbitParams):
        self.log_esc = params.log_escape
        self.log_bound = params.log_bound
        self.length = 0  # magnitudes folded in
        self.oscillations = 0
        self.in_excursion = False
        self.all_below = True
        self.run = 0
        self.last = -math.inf
        self.head: list[float] = []
        self.tail: list[float] = []

    def __call__(self, points: list) -> None:
        if points:
            m = np.log10(np.abs(np.array(points, dtype=np.complex128)))
            points.clear()
            self.add(m)

    def add(self, m: np.ndarray) -> None:
        """Fold in the magnitudes m, which follow every magnitude so far."""
        log_esc = self.log_esc
        # an excursion goes above log_esc and ends below log_bound; keep
        # only those events, True for above, after the carried flag
        events = m[(m > log_esc) | (m < self.log_bound)] > log_esc
        events = np.concatenate(([self.in_excursion], events))
        self.oscillations += int(np.count_nonzero(events[:-1] > events[1:]))
        self.in_excursion = bool(events[-1])
        self.all_below = self.all_below and bool((m <= self.log_bound).all())
        above = m > log_esc
        grows = above & (m >= np.concatenate(([self.last], m[:-1])))
        breaks = np.flatnonzero(~grows)
        if breaks.size:
            # the run restarts after the last break, at 1 if that
            # magnitude is above (it decreased), at 0 if not
            j = breaks[-1]
            self.run = int(m.size - 1 - j + above[j])
        else:
            self.run += m.size
        self.last = float(m[-1])
        self._keep(m[:SUMMARY_MAGNITUDES].tolist(), m[-SUMMARY_MAGNITUDES:].tolist(), m.size)

    def repeat(self, count: int) -> None:
        """Fold in count more copies of the last magnitude (a frozen orbit)."""
        if count <= 0:
            return
        if self.last > self.log_esc:
            self.run += count
        k = min(count, SUMMARY_MAGNITUDES)
        self._keep([self.last] * k, [self.last] * k, count)

    def _keep(self, first: list, last: list, count: int) -> None:
        self.length += count
        if len(self.head) < SUMMARY_MAGNITUDES:
            self.head += first[: SUMMARY_MAGNITUDES - len(self.head)]
        self.tail = (self.tail + last)[-SUMMARY_MAGNITUDES:]


def _verdicts(term_kind, osc, all_below, tail_escape, params: OrbitParams):
    """Shared rule table; the arguments are numpy arrays of equal shape or
    numpy scalars, which give a 0-d verdict array and a bool scalar."""
    completed = term_kind == TERM_COMPLETED
    bungee = (osc >= params.min_oscillations) | (~completed & (osc >= 1))
    pole = ~bungee & (term_kind == TERM_POLE)
    escaping = (
        ~bungee & ~pole & ((term_kind == TERM_OVERFLOW) | (completed & tail_escape))
    )
    bounded = ~bungee & ~pole & ~escaping & completed & all_below
    verdict = np.full(term_kind.shape, int(Verdict.UNDECIDED), dtype=np.uint8)
    verdict[bungee] = int(Verdict.BUNGEE)
    verdict[pole] = int(Verdict.POLE)
    verdict[escaping] = int(Verdict.ESCAPING)
    verdict[bounded] = int(Verdict.BOUNDED)
    confident = pole | escaping | bounded
    return verdict, confident


def classify_point(f: Expr, z0: complex, params: OrbitParams) -> OrbitSummary:
    """Follow one orbit in f's generated scalar loop and classify it.

    The loop keeps at most CHUNK + 1 points (the seed rides with the
    first chunk); every CHUNK steps, and after the last one, their
    magnitudes are folded into a _Fold.  An exact fixed point ends the
    loop early, and the rest of the orbit, which repeats its value, is
    folded in without evaluating.  So memory does not grow with
    max_iter.  Everything runs under one errstate.
    """
    z0 = complex(z0)
    fold = _Fold(params)
    n_total = params.max_iter
    with np.errstate(all="ignore"):
        if cmath.isfinite(z0):
            points = [z0]
            loop = engine.orbit_loop(f)
            # the loop's statuses are engine's OK, OVERFLOW and POLE,
            # which are also TERM_COMPLETED, TERM_OVERFLOW and TERM_POLE
            steps, status = loop(n_total, points, fold, CHUNK)
        else:
            points, steps, status = [], 0, TERM_OVERFLOW
        if status == TERM_OVERFLOW:
            points.append(complex(math.inf))  # the magnitude of the bad point
        fold(points)
    if status == TERM_COMPLETED:
        fold.repeat(n_total - steps)
    # completed at max_iter, overflow at the bad point, pole at the
    # point the map failed at
    step = (n_total, steps, steps - 1)[status]
    termination = Termination(TERM_NAMES[status], step)
    # a tail shorter than tail_window is tested whole, like any other
    tail_escape = fold.run >= min(params.tail_window, fold.length)
    # numpy scalars: the rule table costs half as much as on arrays
    verdict, confident = _verdicts(
        np.uint8(status),
        np.int32(fold.oscillations),
        np.bool_(fold.all_below),
        np.bool_(tail_escape),
        params,
    )
    return OrbitSummary(
        verdict=Verdict(int(verdict)),
        confidence=CONFIDENT if confident else HEURISTIC,
        termination=termination,
        oscillation_count=fold.oscillations,
        all_below=fold.all_below,
        tail_escape=tail_escape,
        steps=steps,
        head=tuple(fold.head),
        tail=tuple(fold.tail),
    )


@dataclass
class BatchClassification:
    verdict: np.ndarray  # uint8, Verdict values
    confident: np.ndarray  # bool
    term_kind: np.ndarray  # uint8, TERM_* values
    term_step: np.ndarray  # int32
    oscillations: np.ndarray  # int32
    # complex, (n, tail_window): orbit point t of sample i, or NaN after it
    # retired, is in column t % tail_window if among the last up to tail_last
    tail_values: np.ndarray | None = None

    @property
    def tail_last(self) -> np.ndarray:
        """Index of each sample's last finite orbit point, as int32.

        max_iter for a completed orbit, the point the map failed at for
        a pole, the one before the bad point for an overflow, and -1 for
        a non-finite seed.
        """
        return self.term_step - (self.term_kind == TERM_OVERFLOW)

    def ordered_tails(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Last finite orbit points of the samples idx, in one gather.

        Returns (points, held), both (len(idx), tail_window): row j holds
        sample idx[j]'s points oldest first, ending at column
        tail_window - 1 with point tail_last; held marks the columns that
        hold a point: not the first ones of an orbit with fewer than
        tail_window points, nor the NaN ones after a seed retired.
        """
        if self.tail_values is None:
            raise ValueError("batch was classified without want_tail_values")
        idx = np.asarray(idx, dtype=np.intp)
        w = self.tail_values.shape[1]
        t = self.tail_last[idx, None] + np.arange(1 - w, 1)
        points = self.tail_values[idx[:, None], t % w]
        return points, (t >= 0) & ~np.isnan(points)


# ---------------------------------------------------------------------------
# Retiring bounded seeds

# the most remaining steps a retirement table covers; later steps have no
# certificate, so a table's size and build time do not grow with max_iter
RETIRE_STEPS = 2**16
# the outward rounding of each node of the majorant, relative and absolute
SLACK = 1e-9
TINY = 1e-300
# the majorant is tabulated at this many radii, log-spaced from TINY (below
# which it is flat, every node adding TINY) up to bound_radius / 2, to
# start the inverse chain
MAJORANT_GRID = 4096
# how far below its certified radius a table entry lies, in log10; far
# above the rounding of np.log10(np.abs(z)), about 1e-13
LOG10_MARGIN = 1e-9
# how far below its interpolated inverse each chain radius is put, in
# natural log; far above the rounding of the chain arithmetic
CHAIN_SHRINK = 1e-10

# each operation's dominant series as a function of its operands' (see majorant)
_DOMINANT = {Add: np.add, Sub: np.add, Mul: np.multiply, Exp: np.exp, Sin: np.sinh, Cos: np.cosh}
_NO_TABLE = np.empty(0)
_tables_lock = threading.Lock()


def majorant(e: Expr, r: np.ndarray, lower: bool = False) -> np.ndarray:
    """B(r): a bound on |f(z)| as eval_array computes it, for all |z| <= r.

    e must be entire (no division and no negative power).  The walk
    evaluates e's dominant series M: z becomes r, each constant its
    modulus, - and negation +, sin sinh and cos cosh, while *, integer
    powers and exp stay.  M is a power series with nonnegative
    coefficients, so it is nondecreasing, log M(e^x) is convex in x, and
    |f(z)| <= M(|z|), since |exp(w)| <= e^|w|, |sin(w)| <= sinh|w| and
    |cos(w)| <= cosh|w|.

    Each node's walked value is multiplied by 1 + SLACK and has TINY
    added (negation, which is exact, is left alone).  That covers two
    errors at every node: that of the node as eval_array computes it,
    and that of the walk's own float64 arithmetic.  For a finite result,
    numpy's complex + and - round each component (modulus error at most
    u |a + b|, u = 2^-53), * is within sqrt(5) u of the exact product,
    a power of at most 64 by square-and-multiply within 63 sqrt(5) u,
    exp, sin and cos within a few ulps per component of the exact
    function of their computed argument, and np.abs within one ulp; the
    walk's float64 +, *, ** (libm pow), exp, sinh and cosh are within a
    few ulps.  Per node that is a relative error below 2^-40, which
    SLACK exceeds a thousandfold, plus, below 2^-1022, a few 2^-1074 per
    component, which TINY covers.  By induction over the tree, then,
    every node's computed modulus is at most its walked value for every
    z with |z| <= r; the induction needs the exact operations to be
    monotone, not the float ones.  Where B(r) is finite, every node is,
    so the map neither overflows there nor, being entire, meets a pole.

    The same induction bounds the error of the computed map: with M_e
    the exact dominant series of a node e and e(z) its exact value,
    |computed e(z) - e(z)| <= B_e(r) - M_e(r).  At z and a constant the
    error is 0.  For +, - and *, the errors of the operands propagate to
    at most B_a + B_b - (M_a + M_b) and B_a B_b - M_a M_b, and for a
    power, exp, sin or cos, whose dominant series g has nonnegative
    coefficients, to at most g(M_a + d) - g(M_a) <= g(B_a) - g(M_a),
    where d <= B_a - M_a is the operand's error; the node's own
    rounding is within the SLACK and TINY that B_e adds.  With lower,
    the walk rounds every node inward instead, by 1 - SLACK and TINY,
    and gives L(r) <= M(r), so B(r) - L(r) bounds |computed f - f|.

    r is a float64 array; run under np.errstate(all="ignore").
    """
    def node(e: Expr, *parts: np.ndarray) -> np.ndarray:
        if isinstance(e, Var):
            v = r
        elif isinstance(e, Const):
            v = np.full(r.shape, abs(e.value))
        elif isinstance(e, Neg):
            return parts[0]
        elif isinstance(e, Pow):
            v = parts[0] ** e.exponent
        else:
            v = _DOMINANT[type(e)](*parts)
        if lower:
            return np.maximum(v * (1 - SLACK) - TINY, 0)
        return v * (1 + SLACK) + TINY

    return fold(e, node)


def _retire_table(f: Expr, params: OrbitParams) -> np.ndarray:
    """f's retirement table for params, built on first use and cached on f.

    Entry R, for R < min(max_iter, RETIRE_STEPS), is a log10 radius: a
    point at or below it stays at or below bound_radius / 2 for R more
    steps of f.  NaN means no certificate.  A map that is not entire
    has an empty table.  The lock builds each table once, however many
    grid threads ask for it together.
    """
    if not f.entire:
        return _NO_TABLE
    length = min(params.max_iter, RETIRE_STEPS)
    with _tables_lock:
        tables = f.__dict__.setdefault("_retire_tables", {})
        key = (params.bound_radius, length)
        if key not in tables:
            tables[key] = _build_table(f, params.bound_radius / 2, length)
        return tables[key]


def _build_table(f: Expr, top: float, length: int) -> np.ndarray:
    """Entries 0..length-1 of f's retirement table below the radius top.

    The chain starts at r_0 = top.  r_R is the largest radius whose B
    stays at or below r_(R-1) on the chord of log B between two
    neighbouring radii of the grid, less CHAIN_SHRINK.  log B is convex,
    so the chord lies above it and the chain errs low.  When that
    inverse reaches r_(R-1) itself, r_(R-1) is invariant (B(r) <= r) and
    stands for every later R.  One forward evaluation of B then checks
    every link B(r_R) <= r_(R-1), and the invariance; the table keeps
    the radii up to the first link that fails, and NaN from there on.
    A radius whose links all hold certifies R steps: |z| <= r_R gives
    |f(z)| <= B(r_R) <= r_(R-1), and so on down to top.
    """
    table = np.full(length, np.nan)
    if not top > TINY:
        return table
    with np.errstate(all="ignore"):
        radii = np.geomspace(TINY, top, MAJORANT_GRID)
        xs = np.log(radii).tolist()
        ys = np.log(np.maximum.accumulate(majorant(f, radii))).tolist()
        chain = np.empty(length)  # log radii
        x = chain[0] = math.log(top)
        invariant = False
        k = 1
        while k < length:
            j = bisect.bisect_right(ys, x) - 1  # the last grid radius with B <= e^x
            if j < 0:
                break
            step = xs[j]
            if j + 1 < len(ys):
                step += (x - ys[j]) / (ys[j + 1] - ys[j]) * (xs[j + 1] - xs[j]) - CHAIN_SHRINK
            if step >= x:
                invariant = True
                break
            chain[k] = x = step
            k += 1
        radius = np.exp(chain[:k])
        radius[0] = top
        bound = majorant(f, radius)
        links = bound[1:] <= radius[:-1]
        if invariant:
            links = np.append(links, bound[-1] <= radius[-1])
        failed = np.flatnonzero(~links)
        valid = length if invariant else k
        if failed.size:
            valid = failed[0] + 1
        table[:k] = np.log10(radius) - LOG10_MARGIN
        table[k:] = table[k - 1]
        table[valid:] = np.nan
    return table


# ---------------------------------------------------------------------------
# Parabolic petals

# the Taylor coefficients c_0..c_(PETAL_TERMS-1) a petal is computed from,
# and the radius of the circle on which the majorant bounds the rest
PETAL_TERMS = 10
PETAL_RHO = 1.0
# the log grid of cells on which the one-step bound is checked, from
# PETAL_LOW up to min(PETAL_RHO, bound_radius / 2)
PETAL_CELLS = 1024
PETAL_LOW = 1e-15
# the least lower bound of Re u' - Re u a petal needs; far above the
# rounding of the bound's own float arithmetic
PETAL_STEP = 0.5
# a bound on the relative error of w = k a z^k as classify_batch computes
# it, far above the few ulps of its k + 1 complex products
PETAL_ROUND = 1e-12
# f'(0) as quarter turns, for the units a petal accepts
_QUARTER_TURNS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


@dataclass(frozen=True)
class _Petal:
    """An attracting petal of a parabolic fixed point at 0; see _build_petal.

    f(z) = lam z (1 + a z^k + ...), with u = -1/w and w = k a z^k.  A
    point with Re u >= sigma and |z| >= floor has |z| <= radius, and so
    does every later point until one falls below floor.
    """

    lam: complex  # f'(0), a fourth root of unity with lam^k = 1
    k: int
    a: complex  # rounded to float
    ka: complex  # k a, rounded to float
    sigma: float
    floor: float
    radius: float
    # _in_petal's band on log10 |z|: floor raised by LOG10_MARGIN, and radius
    log_floor: float
    log_radius: float


class _Rational:
    """An exact complex rational: components are ints or Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = re, im

    def __add__(self, o):
        return _Rational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Rational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return _Rational(-self.re, -self.im)

    def __mul__(self, o):
        if not (self.im or o.im):  # most maps' coefficients are real
            return _Rational(self.re * o.re)
        return _Rational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, n: int):
        from fractions import Fraction  # loaded by the first exact petal

        return _Rational(Fraction(self.re, n), Fraction(self.im, n) if self.im else 0)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _series_mul(p: list, q: list) -> list:
    """The product of two truncated power series, skipping zero terms."""
    n = len(p)
    out = [p[0] - p[0]] * n
    for i, x in enumerate(p):
        if x:
            for j in range(n - i):
                if q[j]:
                    out[i + j] = out[i + j] + x * q[j]
    return out


def _taylor(e: Expr, n: int, number) -> list | None:
    """c_0..c_(n-1), the Taylor coefficients of e at 0, or None.

    number turns a constant's value into the coefficient type: complex
    for a float screen, _Rational for exact coefficients.  exp, sin and
    cos are summed from their power series, so e gets None unless every
    argument of one vanishes at 0; e must be entire.
    """
    zero, one = number(0j), number(1 + 0j)

    def node(e: Expr, *parts: list | None) -> list | None:
        if isinstance(e, Var):
            return [zero, one] + [zero] * (n - 2)
        if isinstance(e, Const):
            return [number(e.value)] + [zero] * (n - 1)
        if None in parts:
            return None
        if isinstance(e, Pow):
            (base,) = parts
            out, m = [one] + [zero] * (n - 1), e.exponent
            while True:  # square and multiply
                if m & 1:
                    out = _series_mul(out, base)
                m >>= 1
                if not m:
                    return out
                base = _series_mul(base, base)
        if isinstance(e, Neg):
            return [-x for x in parts[0]]
        if isinstance(e, Add):
            return [x + y for x, y in zip(*parts)]
        if isinstance(e, Sub):
            return [x - y for x, y in zip(*parts)]
        if isinstance(e, Mul):
            return _series_mul(*parts)
        (arg,) = parts
        if arg[0]:
            return None
        # the sign of arg^j / j! in exp, sin and cos, by j mod 4
        signs = {Exp: (1, 1, 1, 1), Sin: (0, 1, 0, -1), Cos: (1, 0, -1, 0)}[type(e)]
        out = [one if signs[0] else zero] + [zero] * (n - 1)
        power = [one] + [zero] * (n - 1)
        for j in range(1, n):
            power = [x / j if x else x for x in _series_mul(power, arg)]
            if not any(power):
                break
            if signs[j % 4]:
                out = [x + y if signs[j % 4] > 0 else x - y for x, y in zip(out, power)]
        return out

    return fold(e, node)


def _petal(f: Expr, params: OrbitParams) -> _Petal | None:
    """f's petal below bound_radius / 2, built on first use and cached on f."""
    with _tables_lock:
        petals = f.__dict__.setdefault("_petals", {})
        top = params.bound_radius / 2
        if top not in petals:
            petals[top] = _build_petal(f, top)
        return petals[top]


def _build_petal(f: Expr, top: float) -> _Petal | None:
    """A certified attracting petal of f at 0, within radius top, or None.

    The map must be entire, with exact Taylor coefficients c_j at 0
    (see _taylor) such that c_0 = 0, lam = c_1 is 1, -1, i or -i, and,
    with c_(k+1) the first nonzero c_j for j >= 2, lam^k = 1.  A float
    screen of c_0 and c_1 comes first, so other maps build no Fraction.
    Then f(z) = lam z (1 + a z^k + eta(z)), a = c_(k+1) / lam, where
    eta(z) lam z holds the terms from z^(k+2) on and the rounding of f
    as eval_array computes it: for |z| <= r,

        |eta| r <= sum_(j=k+2)^(N-1) |c_j| r^j
                   + B(rho) (r/rho)^N / (1 - r/rho) + B(r) - L(r),

    N = PETAL_TERMS and rho = PETAL_RHO: Cauchy's estimate, as B(rho)
    bounds |f| on |z| = rho, bounds the terms from z^N on, and B - L the
    rounding (see majorant).  With u = -1/(k a z^k) and lam^k = 1,
    u' = u (1 + t)^-k for z' = f(z), t = a z^k + eta, so

        u' - u = 1 + eta / (a z^k) + u [(1 + t)^-k - 1 + k t],

    and with e = |a| r^k + |eta| < 1 the bracket is at most
    g(e) = (1 - e)^-k - 1 - k e, whose series has nonnegative
    coefficients.  So Re u' - Re u >= D(r) = 1 - |eta| / (|a| r^k) -
    g(e) / (k |a| r^k).  On each cell [r0, r1] of a log grid, D is
    bounded below from monotone pieces: the bound on |eta| r at r1
    (B(r1) - L(r1) covers the whole disk |z| <= r1), the divisions by r
    at r0; below e = 1e-3, g(e) <= k (k + 1) / 2 e^2 (1 - e)^-(k+2)
    replaces the cancelling formula.  floor and radius span the first
    run of cells where that bound is at least PETAL_STEP.  Each of its
    two terms is then at most 1/2, and k |a| r^k at least 2e/3, so the
    float rounding of the bound is far below that margin.

    Take sigma0 = 1 / (k |a| radius^k), rounded up.  A point with Re u
    >= sigma0 has |z|^k = 1 / (k |a| |u|) <= radius^k.  If also |z| >=
    floor, Re u' >= Re u + 1/2 >= sigma0, and so |z'| <= radius, until
    a point falls below floor.  Since B(radius) is finite, no step
    overflows.  sigma adds PETAL_ROUND (k |a| floor^k)^-1, the most the
    rounding of w can move Re u, so that a float test -Re w >= sigma
    (1 + 1e-9) |w|^2 of classify_batch's w implies Re u >= sigma0.
    """
    if not (f.entire and top > PETAL_LOW):
        return None
    screen = _taylor(f, 2, complex)
    if screen is None or screen[0] != 0 or abs(screen[1]) != 1:
        return None

    from fractions import Fraction

    def number(v: complex) -> _Rational:
        # ints where they are exact, which keeps most products cheap
        return _Rational(*(int(x) if x.is_integer() else Fraction(x) for x in (v.real, v.imag)))

    c = _taylor(f, PETAL_TERMS, number)
    if c is None or c[0]:
        return None
    turns = _QUARTER_TURNS.get((c[1].re, c[1].im))
    nonzero = [j for j in range(2, PETAL_TERMS) if c[j]]
    if turns is None or not nonzero:
        return None
    k = nonzero[0] - 1
    if turns * k % 4:
        return None
    lam = complex(c[1])
    a = complex(c[k + 1] * _Rational(c[1].re, -c[1].im))
    alpha = abs(a)
    higher = [(j, abs(complex(c[j]))) for j in range(k + 2, PETAL_TERMS)]

    n = PETAL_TERMS
    radii = np.geomspace(PETAL_LOW, min(PETAL_RHO, top), PETAL_CELLS + 1)
    r0, r1 = radii[:-1], radii[1:]
    with np.errstate(all="ignore"):
        cauchy = majorant(f, np.array([PETAL_RHO]))[0] * (r1 / PETAL_RHO) ** n / (1 - r1 / PETAL_RHO)
        eta_r = cauchy + (majorant(f, r1) - majorant(f, r1, lower=True))
        for j, cj in higher:
            eta_r += cj * r1**j
        e = alpha * r1**k + eta_r / r0
        g = np.where(
            e < 1e-3,
            k * (k + 1) / 2 * e**2 * (1 - e) ** -(k + 2),
            (1 - e) ** -k - 1 - k * e,
        )
        step = 1 - eta_r / (alpha * r0 ** (k + 1)) - g / (k * alpha * r0**k)
        good = (e < 1) & (step >= PETAL_STEP)
    first = np.flatnonzero(good)
    if not first.size:
        return None
    j0 = first[0]
    ends = np.flatnonzero(~good[j0:])
    j1 = j0 + ends[0] if ends.size else good.size
    floor, radius = float(r0[j0]), float(r1[j1 - 1])
    sigma0 = (1 + 1e-12) / (k * alpha * radius**k)
    sigma = (sigma0 + PETAL_ROUND / (k * alpha * floor**k)) * (1 + 1e-12)
    return _Petal(lam, k, a, k * a, sigma, floor, radius,
                  math.log10(floor) + LOG10_MARGIN, math.log10(radius))


def _in_petal(petal: _Petal, z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Which points z, of log10 magnitudes m, petal certifies.

    A point passes with -Re w >= sigma (1 + 1e-9) |w|^2 for w = k a z^k
    as computed here, which the 1e-9 and PETAL_ROUND in sigma turn into
    Re u >= sigma0 for the exact w (see _build_petal), and with m at
    least LOG10_MARGIN above log10 floor, which absorbs the rounding of
    m.  Run on the live set only, after the table's test, under
    np.errstate(all="ignore").
    """
    w = z * petal.ka
    for _ in range(petal.k - 1):
        w *= z
    q = np.abs(w)
    q *= q
    q *= petal.sigma * (1 + 1e-9)
    # q + Re w has the sign of the exact sum: q <= -Re w, bit for bit
    q += w.real
    inside = q <= 0
    # the band holds every point of the petal at or above floor, and
    # keeps w far from overflow, where inf <= inf would pass
    inside &= m >= petal.log_floor
    inside &= m <= petal.log_radius
    return inside


# ---------------------------------------------------------------------------
# Finishing drifting seeds

# a drifting seed has Re z >= DRIFT_X, where |exp(-z)| <= e^-40 < 2^-54 DRIFT_X
DRIFT_X = 40.0
# a finished seed's components stay at or below this to the end, far
# below the largest double, so none of its remaining steps overflows
FINISH_MAX = 1e300
_EXP_MINUS_Z = Exp(Neg(Var()))
_PATH, _EXP = "path", "exp"


@dataclass(frozen=True)
class _Drift:
    """How z + c + k exp(-z) moves a point with Re z >= DRIFT_X; see _drift_form."""

    # the constants added to z in turn, complex128: a step is then
    # (z + steps[0]) + steps[1] + ..., bit for bit
    steps: tuple
    re: float  # the sum of |Re| over steps, which bounds a step's move of Re z
    im: float  # and of |Im|, for Im z


def _drift_form(f: Expr) -> _Drift | None:
    """The steps that finish f's drifting seeds, or None.

    f's root must be a chain of Add nodes, and Sub nodes a - K with K
    free of z, over exactly one z, terms exp(-z) and constants, such as
    1+z+exp(-z).  Every exp(-z) must be added to a partial sum that
    holds z and no constant with a nonzero imaginary part, and every
    other z-free part must be a constant whose value (-K for a - K) has
    Re >= 0.  The tree is walked with fold, so a long sum needs no
    recursion.

    Then, from a point z that f returned with Re z >= DRIFT_X,
    eval_array(f, z) equals z plus the steps in turn, each addition
    rounded as numpy rounds it: the exp terms vanish exactly.  A
    partial sum S that an exp(-z) is added to has Re S >= Re z >= 40,
    since the values added before it have Re >= 0, and Im S = y = Im z
    up to the sign of a zero.  numpy's exp of the exactly negated z is
    within a few ulps per component of e^-Re z (cos y, -sin y), so its
    real part is below e^-40 < 2^-54 Re S and, as |sin y| <= |y|, its
    imaginary part below 2^-54 |y|, or a zero of the sign of -y.  In
    round-to-nearest a + t returns a whenever |t| < 2^-54 |a|, a
    nonzero a + (+-0) returns a, and +0 + (+-0) returns +0.  With an exp
    term, y is never -0: a sum is -0 only when both addends are, and
    where y was -0 the exp term f added was +0.  Re z never decreases and the steps move
    Im z alike, so the same holds at every later step, and f's steps
    are finite exactly where these are, so overflow, too, comes at the
    same step.  Another tree order can add an exp term to a partial sum
    whose imaginary part passes 0, where the term does not vanish; it
    gets None, as does a map whose z-free parts overflow.
    """
    if not isinstance(f, (Add, Sub)):
        return None
    steps = []

    def node(e: Expr, *parts):
        # a subtree of the chain is _PATH (it holds z, with the steps so
        # far), _EXP or its constant value; any other subtree is None
        if isinstance(e, Var):
            return _PATH
        if isinstance(e, Const):
            return e.value
        if e == _EXP_MINUS_Z:
            return _EXP
        if not isinstance(e, (Add, Sub)) or None in parts:
            return None
        a, b = parts
        if isinstance(a, complex) and isinstance(b, complex):
            # Python complex + and - round each component as numpy does
            return a + b if isinstance(e, Add) else a - b
        if isinstance(e, Sub):
            if not (a is _PATH and isinstance(b, complex)):
                return None
            b = -b  # a - b is a + (-b), bit for bit
        elif b is _PATH:
            a, b = b, a  # numpy's + is commutative, bit for bit
        if a is not _PATH:
            return None
        if isinstance(b, complex):
            steps.append(b)
        elif b is not _EXP or any(v.imag for v in steps):
            return None
        return _PATH

    if fold(f, node) is None:
        return None
    if not all(cmath.isfinite(v) and v.real >= 0 for v in steps):
        return None
    return _Drift(
        tuple(np.complex128(v) for v in steps),
        sum(abs(v.real) for v in steps),
        sum(abs(v.imag) for v in steps),
    )


def _outputs(k: int, params: OrbitParams, want_tail_values: bool = False) -> tuple:
    """Output arrays for k seeds, as a seed that completes leaves them.

    term_kind, term_step, oscillations, all_below, tail_escape and, with
    want_tail_values, tail_values (else None); _BatchRun writes into them.
    """
    return (
        np.full(k, TERM_COMPLETED, dtype=np.uint8),
        np.full(k, params.max_iter, dtype=np.int32),
        np.zeros(k, dtype=np.int32),
        np.zeros(k, dtype=bool),
        np.zeros(k, dtype=bool),
        np.zeros((k, params.tail_window), dtype=np.complex128) if want_tail_values else None,
    )


class _BatchRun:
    """classify_batch's loop state for a set of live seeds, at the start of step n.

    Seeds are named by flat indices into output arrays the caller owns
    (see _outputs); a seed writes its outputs there as it finishes.  The
    state holds the live seeds: index, point z_n, excursion and
    all-below flags, oscillation count and, from step first_tail on,
    tail test and last magnitude.

    run steps the state on to a given step, or parks it once fewer than
    a given number of seeds are live; the drifting seeds that leave the
    live set on the way are finished before it returns, and the live
    seeds that reach max_iter write their outputs.  absorb merges another
    state that stands at the same step.  Seeds never interact, so states
    run apart and merged at common steps give every output bit for bit
    as one state over all their seeds would.
    """

    def __init__(
        self, f: Expr, params: OrbitParams, out: tuple, idx: np.ndarray, seeds: np.ndarray
    ):
        self.f, self.params, self.out = f, params, out
        term_kind, term_step, tail_values = out[0], out[1], out[5]
        retire = _retire_table(f, params)
        petal = None
        if retire.size and not math.isnan(retire[-1]):
            petal = _petal(f, params)
            if petal is not None and math.log10(petal.floor) > retire[-1]:
                petal = None  # a seed falling below floor would outrun the table
        self.retire, self.petal, self.drift = retire, petal, _drift_form(f)

        finite = np.isfinite(seeds)
        if not finite.all():
            bad = idx[~finite]
            term_kind[bad] = TERM_OVERFLOW
            term_step[bad] = 0
        self.alive = idx[finite]
        self.z = seeds[finite]
        with np.errstate(divide="ignore"):
            m = np.log10(np.abs(self.z))
        self.in_exc = m > params.log_escape
        self.below = m <= params.log_bound
        self.n_osc = np.zeros(self.alive.size, dtype=np.int32)
        # from step first_tail on: every magnitude so far above log_esc and
        # nondecreasing (m >= prev holds for inf >= inf); None before, and
        # for an empty live set
        self.tail_ok = self.prev = None
        if tail_values is not None:
            tail_values[self.alive, 0] = self.z
        self.n = 0

    def run(self, stop: int, park: int = 0) -> None:
        """Step on to n = stop, or park once fewer than park seeds are live.

        Every step works on locals, under one errstate, so a step costs
        the same in a state of any origin.  Seeds that start drifting
        leave the live set in one group per step, and _finish_drift
        carries the call's groups to max_iter before it returns.  At
        max_iter the live seeds, which completed, write their outputs.
        """
        params = self.params
        f, retire, petal, drift = self.f, self.retire, self.petal, self.drift
        term_kind, term_step, osc, all_below, tail_escape, tail_values = self.out
        w = params.tail_window
        n_total = params.max_iter
        log_esc = params.log_escape
        log_bound = params.log_bound
        first_tail = n_total - w
        alive, z, in_exc, below, n_osc = self.alive, self.z, self.in_exc, self.below, self.n_osc
        tail_ok, prev = self.tail_ok, self.prev
        if drift is not None:
            entry = max(DRIFT_X, params.bound_radius * (1 + 1e-9))
        groups = []

        n = self.n
        with np.errstate(all="ignore"):
            for n in range(self.n, stop):
                if alive.size < park or alive.size == 0:
                    break
                vals, status = eval_array(f, z)
                ok = status == engine.OK
                if not ok.all():
                    pole = status == engine.POLE
                    if pole.any():
                        idx = alive[pole]
                        term_kind[idx] = TERM_POLE
                        term_step[idx] = n
                    over = ~ok & ~pole
                    if over.any():
                        idx = alive[over]
                        term_kind[idx] = TERM_OVERFLOW
                        term_step[idx] = n + 1
                    failed = ~ok
                    osc[alive[failed]] = n_osc[failed]
                    all_below[alive[failed]] = below[failed]
                    alive, vals, z = alive[ok], vals[ok], z[ok]
                    in_exc, below, n_osc = in_exc[ok], below[ok], n_osc[ok]
                    if tail_ok is not None:
                        tail_ok, prev = tail_ok[ok], prev[ok]
                    if alive.size == 0:
                        continue
                if tail_values is not None:
                    tail_values[alive, (n + 1) % w] = vals
                m = np.abs(vals)
                np.log10(m, out=m)
                above = m > log_esc
                returned = in_exc & (m < log_bound)
                if returned.any():
                    n_osc += returned
                    in_exc &= ~returned
                in_exc |= above
                below &= m <= log_bound
                if n >= first_tail:
                    tail_ok = above if tail_ok is None else tail_ok & above & (m >= prev)
                    prev = m
                frozen = vals == z
                left = n_total - n - 1
                if left < retire.size and not math.isnan(limit := retire[left]):
                    # certified to stay at or below bound_radius / 2 to the end
                    frozen |= m <= limit
                    if petal is not None:
                        frozen |= _in_petal(petal, vals, m)
                going = None
                if drift is not None and left:
                    going = vals.real >= entry
                    if going.any():
                        x, y = vals.real[going], np.abs(vals.imag[going])
                        going[going] = (x + left * drift.re <= FINISH_MAX) & (
                            y + left * drift.im <= FINISH_MAX
                        )
                        frozen |= going
                if frozen.any():
                    idx = alive[frozen]
                    # later magnitudes repeat m or stay below log_bound, so no
                    # later step changes the tail test; a drifting seed's is
                    # written when it is finished
                    tail_escape[idx] = tail_ok[frozen] if n >= first_tail else m[frozen] > log_esc
                    osc[idx] = n_osc[frozen]
                    all_below[idx] = below[frozen]
                    if tail_values is not None:
                        # points up to n + 1 are written; a fixed point repeats, a
                        # retired seed is NaN (not held), a drifting one is rewritten
                        fill = np.where(vals == z, vals, np.nan)[frozen]
                        later = np.arange(max(n + 2, n_total + 1 - w), n_total + 1)
                        tail_values[np.ix_(alive[frozen], later % w)] = fill[:, None]
                    if going is not None and going.any():
                        # before first_tail the tail test is a placeholder,
                        # which step first_tail overwrites
                        carried = tail_ok if n >= first_tail else above
                        groups.append((n + 1, alive[going], vals[going], carried[going], m[going]))
                    live = ~frozen
                    alive, vals = alive[live], vals[live]
                    in_exc, below, n_osc = in_exc[live], below[live], n_osc[live]
                    if tail_ok is not None:
                        tail_ok, prev = tail_ok[live], prev[live]
                z = vals
            else:
                n = stop
            if groups:
                self._finish_drift(groups)
        if alive.size == 0:
            n = stop  # an empty state stands at every step
        elif n == n_total:
            osc[alive] = n_osc
            all_below[alive] = below
            tail_escape[alive] = tail_ok

        self.alive, self.z, self.in_exc, self.below, self.n_osc = alive, z, in_exc, below, n_osc
        self.tail_ok, self.prev, self.n = tail_ok, prev, n

    def _finish_drift(self, groups: list) -> None:
        """Carry drifting seeds to max_iter by the drift's constant additions.

        A group, one per step n at which seeds started drifting, holds
        their first step n + 1, indices, points, tail tests and last
        magnitudes; groups come in order of first step.  At each step the
        groups started by then are a prefix of the concatenated seeds,
        which the step moves in place.  From first_tail on it takes their
        magnitudes for the tail test, fresh at first_tail and carried
        after, and writes the points to the tails.  Run under
        np.errstate(all="ignore").
        """
        tail_escape, tail_values = self.out[4:]
        w = self.params.tail_window
        n_total = self.params.max_iter
        log_esc = self.params.log_escape
        first_tail = n_total - w
        ends = dict(zip((g[0] for g in groups), itertools.accumulate(g[1].size for g in groups)))
        idx, z, ok, prev = (np.concatenate(parts) for parts in list(zip(*groups))[1:])
        k = 0
        for n in range(groups[0][0], n_total):
            k = ends.get(n, k)
            zd = z[:k]
            for c in self.drift.steps:
                np.add(zd, c, out=zd)
            if n >= first_tail:
                md = np.abs(zd)
                np.log10(md, out=md)
                okd = ok[:k]
                if n == first_tail:
                    np.greater(md, log_esc, out=okd)
                else:
                    okd &= (md > log_esc) & (md >= prev[:k])
                prev[:k] = md
                if tail_values is not None:
                    tail_values[idx[:k], (n + 1) % w] = zd
        tail_escape[idx] = ok

    def absorb(self, other: _BatchRun) -> None:
        """Take over the seeds of other, which stands at the same step."""
        if other.n != self.n:
            raise ValueError(f"a state at step {other.n} cannot merge into one at step {self.n}")
        self.alive = np.concatenate((self.alive, other.alive))
        self.z = np.concatenate((self.z, other.z))
        self.in_exc = np.concatenate((self.in_exc, other.in_exc))
        self.below = np.concatenate((self.below, other.below))
        self.n_osc = np.concatenate((self.n_osc, other.n_osc))
        # past first_tail, only a state whose live set emptied has no tail test
        held = [s for s in (self, other) if s.tail_ok is not None]
        if held:
            self.tail_ok = np.concatenate([s.tail_ok for s in held])
            self.prev = np.concatenate([s.prev for s in held])


def classify_batch(
    f: Expr,
    seeds: np.ndarray,
    params: OrbitParams,
    want_tail_values: bool = False,
) -> BatchClassification:
    """Classify many seeds at once.

    Streaming counterpart of classify_point: per-seed state is updated
    step by step and finished seeds drop out of the working set.  The
    state of live seeds (excursion flag, all-below flag, oscillation
    count) is kept compact, in the order of the live set, and written
    to the outputs when a seed finishes.  The tail test runs only over
    the last tail_window magnitudes, since only completed orbits read it.
    That state is a _BatchRun, run here from step 0 to max_iter.
    classify_grid instead runs one per chunk and parks it once few seeds
    are live, then merges the parked states at common steps and runs
    them to the end as one; seeds never interact, so every output is the
    same bit for bit.

    A seed finishes early by overflow, pole, exact fixed point or, for
    an entire f, retirement: after step n, with R = max_iter - n - 1
    steps left, a seed with log10|z| at or below entry R of f's table
    is certified to stay at or below bound_radius / 2 to the end.  The
    certificate bounds numpy's rounding by the majorant's SLACK and
    TINY per node, and the table's entries sit LOG10_MARGIN below the
    certified radii to absorb the rounding of the magnitude itself (see
    majorant and the module docstring).  The seed takes the frozen path,
    which writes exactly what its remaining steps would: completed at
    max_iter, its oscillation count and all-below flag as they stand,
    and a failed tail test.  Entries for R >= RETIRE_STEPS, or without a
    certificate, are NaN, and such a step costs no array operation.

    Where f has a petal at 0 (see _build_petal) whose floor is at or
    below the last entry of a table finite to its end, a step the table
    covers also retires every live seed that _in_petal takes.  Such a
    seed stays within radius <= bound_radius / 2 for as long as it
    stays at or above floor, moving Re u up by 1/2 or more per step, so
    the petal holds it; once below floor, it has fewer steps left than
    the table has entries, and the table's last radius, at least floor,
    holds it to the end.  So it, too, takes the frozen path with
    bit-identical outputs.  Patching _retire_table to return _NO_TABLE
    turns both certificates off.

    A map of the form z + c + k exp(-z) (see _drift_form) also finishes
    a seed that reaches Re z >= DRIFT_X and Re z >= bound_radius (1 +
    1e-9), unless its remaining steps could move a component past
    FINISH_MAX.  From there the exp terms vanish exactly and Re z never
    decreases, so the seed's later points are those of adding the
    steps of _drift_form in turn.  The seed leaves the live set, and
    before _BatchRun.run returns, _finish_drift steps it from the next
    step on, in place, with the seeds that left before it.  Its points
    stay above bound_radius, beyond the rounding of the magnitude, so
    the oscillation count and the all-below flag (False) stand, and the
    orbit completes at max_iter.  Only from step first_tail on are
    magnitudes taken, for the tail test, and points written to the
    tails.  So every output, tails included, is bit-identical to a run
    of every step.  For other maps the step costs one is-None test.

    So the tail test of a frozen seed is m > log10(escape_radius) before
    the window starts and the test so far inside it: a fixed point
    repeats m and a retired bounded seed fails both.

    With want_tail_values each step writes the points of the seeds still
    live after it straight into their tail_values rows, as a finished
    drifting seed writes its window points.  A seed frozen at step n
    fills the columns of its points n + 2 .. max_iter with its value at
    an exact fixed point and, retired, with NaN, which ordered_tails
    reads as not held.  tail_last follows from the termination.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.complex128).ravel()
    out = _outputs(seeds.size, params, want_tail_values)
    state = _BatchRun(f, params, out, np.arange(seeds.size), seeds)
    state.run(params.max_iter)
    term_kind, term_step, osc, all_below, tail_escape, tail_values = out
    verdict, confident = _verdicts(term_kind, osc, all_below, tail_escape, params)
    return BatchClassification(
        verdict=verdict,
        confident=confident,
        term_kind=term_kind,
        term_step=term_step,
        oscillations=osc,
        tail_values=tail_values,
    )


# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True)
class FixedPointReport:
    location: complex
    multiplier: complex
    kind: str  # "attracting" | "repelling" | "rationally_indifferent" | "indifferent"
    root_of_unity_order: int | None
    residual: float  # |f(z) - z| at the reported location

    def to_dict(self) -> dict:
        return {
            "location": [self.location.real, self.location.imag],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "kind": self.kind,
            "root_of_unity_order": self.root_of_unity_order,
            "residual": self.residual,
        }


MULTIPLIER_BAND = 1e-6
UNITY_TOLERANCE = 1e-6
UNITY_MAX_ORDER = 64

# find_fixed_points: the side of its lattice of Newton starts, the Newton
# steps per start, the largest residual |f(z) - z| a root keeps, and the
# distance within which two roots count as one
DEFAULT_STARTS = 32
MAX_NEWTON_ITER = 256
NEWTON_TOL = 1e-10
DEDUP_TOL = 1e-6


def _classify_multiplier(lam: complex) -> tuple[str, int | None]:
    r = abs(lam)
    if r < 1 - MULTIPLIER_BAND:
        return "attracting", None
    if r > 1 + MULTIPLIER_BAND:
        return "repelling", None
    power = 1 + 0j
    for q in range(1, UNITY_MAX_ORDER + 1):
        power *= lam
        if abs(power - 1) < UNITY_TOLERANCE:
            return "rationally_indifferent", q
    return "indifferent", None


def find_fixed_points(
    f: Expr, region: Rect, starts: int = DEFAULT_STARTS
) -> list[FixedPointReport]:
    """Solve f(z) = z by damped-free Newton from a starts x starts lattice.

    Each start takes at most MAX_NEWTON_ITER steps.  Iteration runs
    until the step underflows (relative to |z|) rather than to a fixed
    step threshold, so multiple roots are polished as far as double
    precision allows.  Candidates keep only residuals at or below
    NEWTON_TOL inside the region, deduplicated to DEDUP_TOL with the
    smallest-residual representative winning.  starts must be at
    least 1.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    fprime = derivative(f)
    offs = (np.arange(starts) + 0.5) / starts - 0.5
    xs = region.center.real + offs * region.width
    ys = region.center.imag + offs * region.height
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    done = np.zeros(z.size, dtype=bool)
    dead = np.zeros(z.size, dtype=bool)

    with np.errstate(all="ignore"):
        for _ in range(MAX_NEWTON_ITER):
            act = np.nonzero(~done & ~dead)[0]
            if act.size == 0:
                break
            za = z[act]
            fv, fs = eval_array(f, za)
            dv, ds = eval_array(fprime, za)
            num = fv - za
            den = dv - 1.0
            bad = (
                (fs != engine.OK)
                | (ds != engine.OK)
                | ~np.isfinite(num)
                | ~np.isfinite(den)
                | (den == 0)
            )
            h = np.where(bad, 0, num / np.where(den == 0, 1, den))
            zn = za - h
            bad |= ~np.isfinite(zn)
            conv = ~bad & (np.abs(h) <= 1e-15 * (1 + np.abs(za)))
            dead[act[bad]] = True
            done[act[conv]] = True
            z[act] = np.where(bad, za, zn)

    candidates = z[done]
    if candidates.size == 0:
        return []
    fv, fs = eval_array(f, candidates)
    residual = np.abs(fv - candidates)
    keep = (fs == engine.OK) & (residual <= NEWTON_TOL)
    keep &= np.abs(candidates.real - region.center.real) <= region.width / 2
    keep &= np.abs(candidates.imag - region.center.imag) <= region.height / 2
    candidates = candidates[keep]
    residual = residual[keep]
    if candidates.size == 0:
        return []

    order = np.argsort(residual, kind="stable")
    reps: list[complex] = []
    rep_res: list[float] = []
    for i in order:
        c = complex(candidates[i])
        if all(abs(c - r) > DEDUP_TOL for r in reps):
            reps.append(c)
            rep_res.append(float(residual[i]))

    reports = []
    for c, res in zip(reps, rep_res):
        dv, ds = eval_array(fprime, np.array([c], dtype=np.complex128))
        if int(ds[0]) != int(engine.OK):
            continue
        lam = complex(dv[0])
        kind, unity = _classify_multiplier(lam)
        reports.append(
            FixedPointReport(
                location=c,
                multiplier=lam,
                kind=kind,
                root_of_unity_order=unity,
                residual=res,
            )
        )
    reports.sort(key=lambda r: (abs(r.location), r.location.real, r.location.imag))
    return reports
