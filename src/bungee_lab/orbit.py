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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
class OrbitTrace:
    seed: complex
    magnitudes: tuple[float, ...]  # log10 |z_n|; -inf for 0; +inf on overflow
    termination: Termination
    oscillation_count: int
    points: tuple[complex, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    confidence: str
    oscillation_count: int
    termination: Termination


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


def iterate_orbit(f: Expr, z0: complex, params: OrbitParams) -> OrbitTrace:
    """Follow one orbit, recording points and log10 magnitudes.

    The loop calls eval_array once per step and keeps only the points;
    their log10 magnitudes are taken in one pass after the loop.  The
    whole loop runs under one engine.ignoring_fp_errors() block, so no
    step enters and leaves an errstate of its own.
    """
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
    points = [z.item()]  # Python complex: cheaper to compare than numpy scalars
    termination = Termination("completed", n_total)
    with engine.ignoring_fp_errors():
        for n in range(n_total):
            vals, status = eval_array(f, z)
            st = status.item()
            if st == engine.POLE:
                termination = Termination("pole", n)
                break
            if st == engine.OVERFLOW:
                termination = Termination("overflow", n + 1)
                break
            points.append(vals.item())
            if points[-1] == points[-2]:
                break  # exact fixed point, padded below
            z = vals
    orbit = np.array(points, dtype=np.complex128)
    with np.errstate(all="ignore"):
        mags = np.log10(np.abs(orbit)).tolist()
    if termination.kind == "overflow":
        mags.append(math.inf)
    elif termination.kind == "completed":
        # an exact fixed point ends the loop early; the rest of the orbit
        # repeats its value
        mags.extend([mags[-1]] * (n_total + 1 - len(mags)))
    return OrbitTrace(
        seed=complex(z0),
        magnitudes=tuple(mags),
        termination=termination,
        oscillation_count=count_oscillations(mags, params),
        points=tuple(orbit.tolist()),
    )


def _verdicts(term_kind, osc, all_below, tail_escape, params: OrbitParams):
    """Shared rule table; all arguments are numpy arrays of equal shape."""
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


def _tail_flags(magnitudes, params: OrbitParams) -> tuple[bool, bool]:
    """(all_below, tail_escape) summaries of a completed magnitude list."""
    log_bound = params.log_bound
    log_esc = params.log_escape
    all_below = all(m <= log_bound for m in magnitudes)
    w = min(params.tail_window, len(magnitudes))
    tail = magnitudes[len(magnitudes) - w :]
    tail_escape = all(m > log_esc for m in tail) and all(
        tail[i + 1] >= tail[i] for i in range(len(tail) - 1)
    )
    return all_below, tail_escape


def classify(trace: OrbitTrace, params: OrbitParams) -> Classification:
    """Apply the verdict rules to a recorded orbit."""
    kind = TERM_NAMES.index(trace.termination.kind)
    all_below, tail_escape = _tail_flags(trace.magnitudes, params)
    verdict_arr, confident_arr = _verdicts(
        np.array([kind], dtype=np.uint8),
        np.array([trace.oscillation_count], dtype=np.int32),
        np.array([all_below]),
        np.array([tail_escape]),
        params,
    )
    verdict = Verdict(int(verdict_arr[0]))
    confidence = CONFIDENT if bool(confident_arr[0]) else HEURISTIC
    return Classification(
        verdict=verdict,
        confidence=confidence,
        oscillation_count=trace.oscillation_count,
        termination=trace.termination,
    )


def classify_point(
    f: Expr, z0: complex, params: OrbitParams
) -> tuple[Classification, OrbitTrace]:
    trace = iterate_orbit(f, z0, params)
    return classify(trace, params), trace


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
    # nondecreasing, as in _tail_flags (m >= prev holds for inf >= inf)
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
    f: Expr,
    region: Rect,
    starts: int = 32,
    newton_tol: float = 1e-10,
    dedup_tol: float = 1e-6,
    max_newton_iter: int = 256,
) -> list[FixedPointReport]:
    """Solve f(z) = z by damped-free Newton from a starts x starts lattice.

    Iteration runs until the step underflows (relative to |z|) rather
    than to a fixed step threshold, so multiple roots are polished as
    far as double precision allows.  Candidates keep only residuals at
    or below newton_tol inside the region, deduplicated to dedup_tol
    with the smallest-residual representative winning.  starts must be
    at least 1.
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
        for _ in range(max_newton_iter):
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
    keep = (fs == engine.OK) & (residual <= newton_tol)
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
        if all(abs(c - r) > dedup_tol for r in reps):
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
