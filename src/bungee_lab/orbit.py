"""Orbit iteration and finite-horizon classification.

An orbit z_0, z_1 = f(z_0), ... is followed for at most max_iter steps
and summarized by log10 magnitudes (with -inf standing for |z| = 0).
Iteration stops early when the map overflows, hits a pole, or lands
exactly on a fixed point (from there the tail is constant, so the
remaining magnitudes are filled in without further evaluation).

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
generates from the map's one-element plan.  It streams: the loop
buffers at most CHUNK + 1 points, and every CHUNK steps one numpy pass
takes their magnitudes and folds them into the oscillation count, the
all-below flag and the length of the current run of magnitudes above
log10(escape_radius) that never decrease (the tail test is that run
reaching tail_window).  Per orbit it keeps only these, the step count
and the first and last SUMMARY_MAGNITUDES magnitudes, so its memory
does not grow with max_iter.  classify_batch streams per seed as well.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import eval_array
from .expr import Expr, derivative

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
            steps, status = loop(np.array([z0], dtype=np.complex128), n_total, points, fold, CHUNK)
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
    tail_values: np.ndarray | None = None  # complex ring, (n, tail_window)
    tail_last: np.ndarray | None = None  # int32 index of last finite point

    def ordered_tail(self, i: int) -> np.ndarray:
        """Last finite orbit points of sample i, oldest first."""
        if self.tail_values is None:
            raise ValueError("batch was classified without want_tail_values")
        w = self.tail_values.shape[1]
        last = int(self.tail_last[i])
        start = max(0, last + 1 - w)
        cols = np.arange(start, last + 1) % w
        return self.tail_values[i, cols]


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
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.complex128).ravel()
    k = seeds.size
    w = params.tail_window
    n_total = params.max_iter
    log_esc = params.log_escape
    log_bound = params.log_bound

    term_kind = np.full(k, TERM_COMPLETED, dtype=np.uint8)
    term_step = np.full(k, n_total, dtype=np.int32)
    osc = np.zeros(k, dtype=np.int32)
    all_below = np.zeros(k, dtype=bool)
    tail_escape = np.zeros(k, dtype=bool)
    val_ring = np.zeros((k, w), dtype=np.complex128) if want_tail_values else None
    tail_last = np.zeros(k, dtype=np.int32) if want_tail_values else None

    finite0 = np.isfinite(seeds)
    bad0 = ~finite0
    if bad0.any():
        term_kind[bad0] = TERM_OVERFLOW
        term_step[bad0] = 0
    alive = np.nonzero(finite0)[0]
    z = seeds[alive]

    with np.errstate(divide="ignore"):
        m = np.log10(np.abs(z))
    # live-set state, aligned with alive
    in_exc = m > log_esc
    below = m <= log_bound
    n_osc = np.zeros(alive.size, dtype=np.int32)
    # from step first_tail on: every magnitude so far above log_esc and
    # nondecreasing (m >= prev holds for inf >= inf)
    first_tail = n_total - w
    tail_ok = prev = None
    if want_tail_values:
        val_ring[alive, 0] = z

    for n in range(n_total):
        if alive.size == 0:
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
            done = ~ok
            osc[alive[done]] = n_osc[done]
            all_below[alive[done]] = below[done]
            alive, vals, z = alive[ok], vals[ok], z[ok]
            in_exc, below, n_osc = in_exc[ok], below[ok], n_osc[ok]
            if tail_ok is not None:
                tail_ok, prev = tail_ok[ok], prev[ok]
            if alive.size == 0:
                break
        m = np.abs(vals)
        with np.errstate(divide="ignore"):
            np.log10(m, out=m)
        returned = in_exc & (m < log_bound)
        if returned.any():
            n_osc += returned
            in_exc &= ~returned
        in_exc |= m > log_esc
        below &= m <= log_bound
        if n >= first_tail:
            above = m > log_esc
            tail_ok = above if tail_ok is None else tail_ok & above & (m >= prev)
            prev = m
        if want_tail_values:
            col = (n + 1) % w
            val_ring[alive, col] = vals
            tail_last[alive] = n + 1
        frozen = vals == z
        if frozen.any():
            idx = alive[frozen]
            # constant tail: every later magnitude equals m, so the
            # window test reduces to a single comparison
            tail_escape[idx] = m[frozen] > log_esc
            osc[idx] = n_osc[frozen]
            all_below[idx] = below[frozen]
            if want_tail_values:
                val_ring[idx, :] = vals[frozen][:, None]
                tail_last[idx] = n_total
            live = ~frozen
            alive, vals = alive[live], vals[live]
            in_exc, below, n_osc = in_exc[live], below[live], n_osc[live]
            if tail_ok is not None:
                tail_ok, prev = tail_ok[live], prev[live]
        z = vals

    if alive.size:
        osc[alive] = n_osc
        all_below[alive] = below
        tail_escape[alive] = tail_ok

    verdict, confident = _verdicts(term_kind, osc, all_below, tail_escape, params)
    return BatchClassification(
        verdict=verdict,
        confident=confident,
        term_kind=term_kind,
        term_step=term_step,
        oscillations=osc,
        tail_values=val_ring,
        tail_last=tail_last,
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
