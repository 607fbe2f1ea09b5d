"""Sampling-based checks of orbit-set relations between maps.

Each check draws a fixed pseudorandom sample of seed points, classifies
them with the orbit classifier, and reports violations of the claimed
relation.  Inside one run (a shared_classifications() block, opened by
each preset run and each CLI verify command) a classification is reused
only for bit-identical samples, the same canonical map text and the same
params; classify_batch is deterministic in exactly those, so reuse never
changes a verdict.  Nothing is reused once the run ends.
Membership talks about three sets per map: escaping, bounded, bungee.
A sample is usable for a relation only when every involved verdict is
decisive, meaning escaping, bounded, or bungee; undecided and pole
verdicts drop the sample.  With strict=True the heuristic bungee
verdict is excluded as well, so usable means confident escaping or
bounded everywhere.

Reports serialize with a fixed key order, the RelationReport fields:

    relation, f, g, params, seed, samples_total, samples_confident,
    violations, violation_examples, runtime_ms, detail

where detail carries relation-specific diagnostics and ends with
inconclusive, the one rule every relation shares: samples_confident <
MIN_USABLE.  RelationReport.passes holds the pass rule built on it.
"""

from __future__ import annotations

import contextvars
import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import engine
from .engine import eval_array
from .expr import Expr, compose, derivative, format_expr, translate
from .grid import MAX_GRID_PIXELS
from .orbit import BatchClassification, OrbitParams, Rect, Verdict, classify_batch

MAX_VIOLATION_EXAMPLES = 20
# A check with fewer usable samples than this is inconclusive, never a pass.
MIN_USABLE = 10

DEFAULT_SAMPLES = 4096
DEFAULT_SEED = 42
# pointwise checks: the tolerance, and the iterates verify_translate compares
DEFAULT_TOL = 1e-9
DEFAULT_N_MAX = 20

KIND_VERDICT = {
    "escaping": Verdict.ESCAPING,
    "bounded": Verdict.BOUNDED,
    "bungee": Verdict.BUNGEE,
}


def pair(z: complex) -> list[float]:
    """JSON form of a complex number."""
    return [float(z.real), float(z.imag)]


def check_sampling(count: int, seed: int) -> None:
    """Raise ValueError unless count and seed make a valid SamplerSpec."""
    if count < 1:
        raise ValueError("sample count must be at least 1")
    if count > MAX_GRID_PIXELS:  # the grid pixel limit, 2^26
        raise ValueError(f"sample count must be at most {MAX_GRID_PIXELS}")
    if seed < 0:
        raise ValueError("sample seed must be non-negative")


@dataclass(frozen=True)
class SamplerSpec:
    rect: Rect
    count: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        check_sampling(self.count, self.seed)

    def points(self) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        u = rng.uniform(size=(self.count, 2))
        re = self.rect.center.real + (u[:, 0] - 0.5) * self.rect.width
        im = self.rect.center.imag + (u[:, 1] - 0.5) * self.rect.height
        return re + 1j * im


@dataclass
class RelationReport:
    relation: str
    f: str
    g: str | None
    params: dict
    seed: int
    samples_total: int
    samples_confident: int
    violations: int
    violation_examples: list
    runtime_ms: float
    detail: dict = field(default_factory=dict)

    def passes(self, expect_violations: bool = False) -> bool:
        """The pass rule: the check is conclusive and found violations
        exactly when they were expected."""
        inconclusive = self.detail.get("inconclusive", False)
        return not inconclusive and (self.violations > 0) == expect_violations

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _usable(verdict: np.ndarray, strict: bool) -> np.ndarray:
    mask = (verdict == int(Verdict.ESCAPING)) | (verdict == int(Verdict.BOUNDED))
    if not strict:
        mask |= verdict == int(Verdict.BUNGEE)
    return mask


def _label(code: int) -> str:
    return Verdict(int(code)).label


def _finish_report(
    t0: float,
    sampler: SamplerSpec,
    params: OrbitParams,
    relation: str,
    f: str,
    g: str | None,
    *,
    strict: bool | None = None,
    confident: int,
    violating: np.ndarray,
    witness: Callable[[int], dict],
    detail: dict,
) -> RelationReport:
    """Build a checker's report: params with the sampling rectangle (and
    strict, when given), witnesses for the first MAX_VIOLATION_EXAMPLES
    violating samples, the runtime since t0, and detail["inconclusive"]
    (fewer than MIN_USABLE confident samples) as the last detail key."""
    params_dict = params.to_dict()
    params_dict["rect"] = {
        "center": pair(sampler.rect.center),
        "width": sampler.rect.width,
        "height": sampler.rect.height,
    }
    if strict is not None:
        params_dict["strict"] = strict
    confident = int(confident)
    examples = [
        witness(int(i)) for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]
    ]
    detail["inconclusive"] = confident < MIN_USABLE
    return RelationReport(
        relation=relation,
        f=f,
        g=g,
        params=params_dict,
        seed=sampler.seed,
        samples_total=int(sampler.count),
        samples_confident=confident,
        violations=int(violating.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail=detail,
    )


# (canonical map text, sha256 of the complex128 samples, params) ->
# BatchClassification without tails; None outside
# shared_classifications().
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "bungee_lab_classifications", default=None
)


@contextmanager
def shared_classifications():
    """Classify each (map, samples, params) once inside the block.

    Reentrant: an inner block reuses the memo of the outer one.  The
    memo is dropped when the outermost block exits.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _classify(
    f: Expr, pts: np.ndarray, params: OrbitParams, want_tail_values: bool = False
) -> BatchClassification:
    """classify_batch, served from the open memo when it can be.

    Stored entries drop their tail_values and have read-only arrays, so
    a request for tail values is always classified afresh.
    """
    memo = _MEMO.get()
    if memo is None:
        return classify_batch(f, pts, params, want_tail_values=want_tail_values)
    samples = np.ascontiguousarray(pts, dtype=np.complex128)
    key = (format_expr(f), hashlib.sha256(samples.tobytes()).digest(), params)
    if not want_tail_values and key in memo:
        return memo[key]
    batch = classify_batch(f, pts, params, want_tail_values=want_tail_values)
    if key not in memo:
        entry = dataclasses.replace(batch, tail_values=None)
        for a in (entry.verdict, entry.confident, entry.term_kind,
                  entry.term_step, entry.oscillations):
            a.flags.writeable = False
        memo[key] = entry
    return batch


# ---------------------------------------------------------------------------
# Containment


def verify_containment(
    lhs: list[tuple[Expr, str]],
    rhs: list[tuple[Expr, str]],
    sampler: SamplerSpec,
    params: OrbitParams,
    *,
    strict: bool = False,
    lhs_mode: str = "all",
    rhs_mode: str = "any",
    relation: str = "containment",
    f_text: str | None = None,
    g_text: str | None = None,
) -> RelationReport:
    """Check that lhs membership implies rhs membership on every sample.

    lhs_mode "all" combines the left memberships by intersection, and
    "one" by symmetric restriction (exactly one holds); rhs_mode
    "any"/"all" combines the right by union or intersection.  An empty
    rhs never holds, turning the check into an emptiness test of the
    lhs.
    """
    if lhs_mode not in ("all", "one"):
        raise ValueError(f"bad lhs_mode {lhs_mode!r}")
    if rhs_mode not in ("any", "all"):
        raise ValueError(f"bad rhs_mode {rhs_mode!r}")
    for _, kind in lhs + rhs:
        if kind not in KIND_VERDICT:
            raise ValueError(f"unknown set kind {kind!r}")

    t0 = time.perf_counter()
    pts = sampler.points()
    batches: dict[str, BatchClassification] = {}
    for e, _ in lhs + rhs:
        text = format_expr(e)
        if text not in batches:
            batches[text] = _classify(e, pts, params)

    usable = np.ones(pts.size, dtype=bool)
    for e, _ in lhs + rhs:
        usable &= _usable(batches[format_expr(e)].verdict, strict)

    def members(terms, mode):
        masks = [
            batches[format_expr(e)].verdict == int(KIND_VERDICT[kind])
            for e, kind in terms
        ]
        if not masks:
            return np.zeros(pts.size, dtype=bool)
        stack = np.array(masks)
        if mode == "all":
            return stack.all(axis=0)
        if mode == "any":
            return stack.any(axis=0)
        return stack.sum(axis=0) == 1  # "one"

    in_lhs = members(lhs, lhs_mode)
    in_rhs = members(rhs, rhs_mode)
    violating = usable & in_lhs & ~in_rhs

    def verdicts(terms, i):
        return {
            f"{format_expr(e)}:{kind}": _label(batches[format_expr(e)].verdict[i])
            for e, kind in terms
        }

    return _finish_report(
        t0, sampler, params, relation,
        f_text if f_text is not None else format_expr(lhs[0][0]),
        g_text,
        strict=strict,
        confident=usable.sum(),
        violating=violating,
        witness=lambda i: {
            "z": pair(pts[i]), "lhs": verdicts(lhs, i), "rhs": verdicts(rhs, i)
        },
        detail={
            "lhs": [[format_expr(e), kind] for e, kind in lhs],
            "rhs": [[format_expr(e), kind] for e, kind in rhs],
            "lhs_mode": lhs_mode,
            "rhs_mode": rhs_mode,
            "lhs_members": int((usable & in_lhs).sum()),
            "rhs_members": int((usable & in_rhs).sum()),
        },
    )


def verify_composition_containments(
    f: Expr,
    g: Expr,
    sampler: SamplerSpec,
    params: OrbitParams,
    *,
    strict: bool = False,
    bu_mode: str = "any",
) -> list[RelationReport]:
    """The two composition containments for a pair of maps.

    K(f) & K(g) inside K(f.g) always; the bungee side of the composite
    lands in the union of the factors' bungee sets (bu_mode "any"), or
    in their intersection (bu_mode "all") for commuting entire pairs.
    """
    fg = compose(f, g)
    ft, gt = format_expr(f), format_expr(g)
    with shared_classifications():
        k_report = verify_containment(
            [(f, "bounded"), (g, "bounded")],
            [(fg, "bounded")],
            sampler,
            params,
            strict=strict,
            lhs_mode="all",
            rhs_mode="any",
            relation="bounded-intersection-inside-composition",
            f_text=ft,
            g_text=gt,
        )
        bu_report = verify_containment(
            [(fg, "bungee")],
            [(f, "bungee"), (g, "bungee")],
            sampler,
            params,
            strict=strict,
            lhs_mode="all",
            rhs_mode=bu_mode,
            relation=(
                "bungee-composition-inside-union"
                if bu_mode == "any"
                else "bungee-composition-inside-intersection"
            ),
            f_text=ft,
            g_text=gt,
        )
    return [k_report, bu_report]


# ---------------------------------------------------------------------------
# Invariance


def verify_invariance(
    f: Expr,
    g: Expr,
    kind: str,
    sampler: SamplerSpec,
    params: OrbitParams,
    *,
    strict: bool = False,
) -> RelationReport:
    """Forward invariance on samples: z in S(f) implies g(z) in S(f).

    Membership needs a decisive verdict on both ends, so a sample
    counts only when z and g(z) both classify as escaping, bounded, or
    bungee under f and g(z) itself stays finite.  The reverse-only
    count (g(z) in the set but z outside) is reported as a diagnostic
    without contributing violations.
    """
    if kind not in KIND_VERDICT:
        raise ValueError(f"unknown set kind {kind!r}")
    t0 = time.perf_counter()
    pts = sampler.points()
    want = int(KIND_VERDICT[kind])

    batch_z = _classify(f, pts, params)
    gz, gstatus = eval_array(g, pts)
    g_ok = gstatus == engine.OK
    batch_w = _classify(f, np.where(g_ok, gz, 0), params)

    usable = g_ok & _usable(batch_z.verdict, strict) & _usable(batch_w.verdict, strict)
    member_z = batch_z.verdict == want
    member_w = batch_w.verdict == want
    violating = usable & member_z & ~member_w

    return _finish_report(
        t0, sampler, params, f"{kind}-set-forward-invariant",
        format_expr(f), format_expr(g),
        strict=strict,
        confident=usable.sum(),
        violating=violating,
        witness=lambda i: {
            "z": pair(pts[i]),
            "gz": pair(gz[i]),
            "z_verdict": _label(batch_z.verdict[i]),
            "gz_verdict": _label(batch_w.verdict[i]),
        },
        detail={
            "kind": kind,
            "members_at_z": int((usable & member_z).sum()),
            "members_at_gz": int((usable & member_w).sum()),
            "reverse_only": int((usable & ~member_z & member_w).sum()),
            "g_defined": int(g_ok.sum()),
        },
    )


# ---------------------------------------------------------------------------
# Pointwise comparison: commutation and value identities


def check_pointwise(tol: float, n_max: int = 0) -> None:
    """Raise ValueError unless tol and n_max are valid pointwise options."""
    # a nan tolerance flags nothing and an infinite one passes everything,
    # so either would make a check pass without testing anything
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")


def _pointwise(pts, lhs, rhs, tol, names):
    """Compare two chains of maps, each applied in turn to every sample.

    The error is |l - r| / max(1, |l|, |r|).  A sample is usable when
    every evaluation in both chains stays finite, and violating when it
    is usable with error above tol.  Returns the usable and violating
    masks, the witness record for a sample index (the chain values under
    names), and the witness of the largest usable error, or None.
    """
    values, usable = [], np.ones(pts.shape, dtype=bool)
    for chain in (lhs, rhs):
        v, ok = pts, np.ones(pts.shape, dtype=bool)
        for m in chain:
            v, status = eval_array(m, np.where(ok, v, 0))
            ok &= status == engine.OK
        values.append(v)
        usable &= ok
    lv, rv = values
    denom = np.maximum(1.0, np.maximum(np.abs(lv), np.abs(rv)))
    with np.errstate(invalid="ignore"):
        rel = np.abs(lv - rv) / denom

    def witness(i: int) -> dict:
        return {
            "z": pair(pts[i]),
            names[0]: pair(lv[i]),
            names[1]: pair(rv[i]),
            "relative_error": float(rel[i]),
        }

    worst = witness(int(np.where(usable, rel, -1.0).argmax())) if usable.any() else None
    return usable, usable & (rel > tol), witness, worst


def verify_commute(
    f: Expr,
    g: Expr,
    sampler: SamplerSpec,
    params: OrbitParams | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> RelationReport:
    """Compare f(g(z)) with g(f(z)) pointwise.

    The error is |fg - gf| / max(1, |fg|, |gf|).  Samples where any of
    the four evaluations leaves the finite range are unusable; fewer
    than MIN_USABLE usable samples marks the whole check inconclusive.
    tol must be finite and non-negative.
    """
    check_pointwise(tol)
    t0 = time.perf_counter()
    params = params or OrbitParams()
    pts = sampler.points()
    usable, violating, witness, worst = _pointwise(
        pts, (g, f), (f, g), tol, ("f_of_g", "g_of_f")
    )
    return _finish_report(
        t0, sampler, params, "commute", format_expr(f), format_expr(g),
        confident=usable.sum(),
        violating=violating,
        witness=witness,
        detail={
            "tol": tol,
            "commutes": bool(not violating.any() and usable.sum() >= MIN_USABLE),
            "max_relative_error": worst["relative_error"] if worst else 0.0,
            "witness": worst,
        },
    )


# ---------------------------------------------------------------------------
# Translates


def verify_translate(
    f: Expr,
    c: complex,
    sampler: SamplerSpec,
    params: OrbitParams,
    *,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
) -> RelationReport:
    """Compare iterates of g = f + c against f.

    Checks the identity g^n(z) = f^n(z) + c for n up to n_max with an
    absolute tolerance, recording the first failing step.  A sample is
    compared only while the comparison stays numerically meaningful:
    both value orbits finite and within the window |w| <=
    min(bound_radius, 1000) (each step injects fresh rounding noise
    proportional to the orbit magnitude), and the accumulated
    derivative product along the orbit small enough that amplified
    double-precision noise, eps times that product, stays a
    comfortable factor under tol.  Past either limit even an exact
    identity drowns in float noise, and the set-level verdict
    agreement reported alongside carries the claim instead.  The
    alternative drift law g^n(z) = f^n(z) + n*c is tracked with a
    relative tolerance (the drift offset itself grows with n); a
    strict period satisfies the plain identity and a pseudo-period
    only the drift law.  tol must be finite and non-negative and n_max
    non-negative; n_max = 0 compares nothing and is inconclusive.
    """
    check_pointwise(tol, n_max)
    t0 = time.perf_counter()
    c = complex(c)
    g = translate(f, c)
    fp = derivative(f)
    pts = sampler.points()
    k = pts.size
    window = min(params.bound_radius, 1000.0)
    eps = float(np.finfo(np.float64).eps)
    noise_budget = tol / 20.0

    wf = pts.copy()
    wg = pts.copy()
    usable = np.abs(pts) <= window
    amp = np.ones(k)
    compared = np.zeros(k, dtype=bool)
    exact_bad = np.zeros(k, dtype=bool)
    drift_bad = np.zeros(k, dtype=bool)
    first_failure = None
    first_index = -1
    max_exact_err = 0.0
    max_drift_err = 0.0

    for n in range(1, n_max + 1):
        dv, sd = eval_array(fp, wf)
        vf, sf = eval_array(f, wf)
        vg, sg = eval_array(g, wg)
        with np.errstate(invalid="ignore", over="ignore"):
            amp = amp * np.abs(dv)
            usable &= (
                (sd == engine.OK)
                & (eps * amp <= noise_budget)
                & (sf == engine.OK)
                & (sg == engine.OK)
                & (np.abs(vf) <= window)
                & (np.abs(vg) <= window)
            )
        if not usable.any():
            break
        compared |= usable
        wf = np.where(usable, vf, 0)
        wg = np.where(usable, vg, 0)

        err_exact = np.abs(wg - wf - c)
        denom = np.maximum(1.0, np.maximum(np.abs(wf), np.abs(wg)))
        err_drift = np.abs(wg - wf - n * c) / denom
        bad_now = usable & (err_exact > tol)
        if bad_now.any():
            if first_failure is None:
                first_index = int(np.nonzero(bad_now)[0][0])
                first_failure = {
                    "n": n,
                    "z": pair(pts[first_index]),
                    "error": float(err_exact[first_index]),
                }
            exact_bad |= bad_now
        drift_bad |= usable & (err_drift > tol)
        max_exact_err = max(max_exact_err, float(err_exact[usable].max()))
        max_drift_err = max(max_drift_err, float(err_drift[usable].max()))

    batch_f = _classify(f, pts, params)
    batch_g = _classify(g, pts, params)
    both = _usable(batch_f.verdict, False) & _usable(batch_g.verdict, False)
    agree = both & (batch_f.verdict == batch_g.verdict)

    def witness(i: int) -> dict:
        record = {"z": pair(pts[i])}
        if i == first_index:
            record.update(n=first_failure["n"], error=first_failure["error"])
        return record

    n_compared = int(compared.sum())
    return _finish_report(
        t0, sampler, params, "translate-iterate-identity", format_expr(f), format_expr(g),
        confident=n_compared,
        violating=exact_bad,
        witness=witness,
        detail={
            "C": pair(c),
            "n_max": n_max,
            "tol": tol,
            "window_radius": window,
            "identity_holds": bool(not exact_bad.any() and n_compared > 0),
            "drift_identity_holds": bool(not drift_bad.any() and n_compared > 0),
            "drift_violations": int(drift_bad.sum()),
            "first_failure": first_failure,
            "max_error": max_exact_err,
            "max_drift_relative_error": max_drift_err,
            "set_agreement": {
                "comparable": int(both.sum()),
                "agreeing": int(agree.sum()),
                "disagreeing": int((both & ~agree).sum()),
            },
        },
    )


def verify_value_identity(
    a: Expr,
    b: Expr,
    sampler: SamplerSpec,
    params: OrbitParams | None = None,
    *,
    relation: str = "value-identity",
    f_text: str | None = None,
    g_text: str | None = None,
) -> RelationReport:
    """Compare two expressions pointwise with relative tolerance DEFAULT_TOL."""
    t0 = time.perf_counter()
    params = params or OrbitParams()
    pts = sampler.points()
    usable, violating, witness, worst = _pointwise(pts, (a,), (b,), DEFAULT_TOL, ("lhs", "rhs"))
    return _finish_report(
        t0, sampler, params, relation,
        f_text if f_text is not None else format_expr(a),
        g_text if g_text is not None else format_expr(b),
        confident=usable.sum(),
        violating=violating,
        witness=witness,
        detail={
            "tol": DEFAULT_TOL,
            "max_relative_error": worst["relative_error"] if worst else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# Escaping-orbit forwarding


def verify_property_a(
    f: Expr,
    g: Expr,
    sampler: SamplerSpec,
    params: OrbitParams,
) -> RelationReport:
    """Check that f pushes confidently escaping g-orbits beyond the
    escape radius: for each such sample, every recorded orbit-tail
    point that already sits beyond the radius must satisfy
    |f(w)| > escape_radius too.  An overflowing f(w) counts as beyond
    the radius; a pole of f on the tail is a violation.  Tail points
    still inside the radius are skipped: an orbit that overflows right
    out of the bounded region records pre-escape points in its tail,
    and the claim is about the far part of the orbit.

    Retired seeds are never escaping, so every row read holds exact
    points, those finished by drift too (see orbit._drift_form).
    """
    t0 = time.perf_counter()
    pts = sampler.points()
    batch = _classify(g, pts, params, want_tail_values=True)
    escaping = (batch.verdict == int(Verdict.ESCAPING)) & batch.confident
    idx = np.nonzero(escaping)[0]

    # row j: sample idx[j]'s tail; far marks its points beyond the radius
    tails, held = batch.ordered_tails(idx)
    far = held & (np.abs(tails) > params.escape_radius)
    fv = np.zeros(tails.shape, dtype=np.complex128)
    fs = np.zeros(tails.shape, dtype=np.uint8)
    fv[far], fs[far] = eval_array(f, tails[far])
    bad = far & (((fs == engine.OK) & (np.abs(fv) <= params.escape_radius))
                 | (fs == engine.POLE))
    violating = np.zeros(pts.size, dtype=bool)
    violating[idx[bad.any(axis=1)]] = True

    def witness(i: int) -> dict:
        j = int(np.searchsorted(idx, i))
        at = (j, int(np.argmax(bad[j])))  # the first bad tail point
        return {
            "z": pair(pts[i]),
            "tail_point": pair(tails[at]),
            "f_status": engine.STATUS_NAMES[int(fs[at])],
            "f_magnitude": float(abs(fv[at])) if int(fs[at]) == int(engine.OK) else None,
        }

    return _finish_report(
        t0, sampler, params, "escaping-orbits-forwarded", format_expr(f), format_expr(g),
        confident=idx.size,
        violating=violating,
        witness=witness,
        detail={"tail_window": params.tail_window},
    )


# ---------------------------------------------------------------------------
# Partition


def verify_partition(
    f: Expr,
    sampler: SamplerSpec,
    params: OrbitParams,
) -> RelationReport:
    """Every sample gets exactly one decisive verdict or an honest
    undecided; for a map without division, a pole verdict would break
    the three-way partition and counts as a violation.  Fewer than
    MIN_USABLE decisive samples mark the check inconclusive.
    """
    t0 = time.perf_counter()
    pts = sampler.points()
    batch = _classify(f, pts, params)
    counts = {
        v.label: int((batch.verdict == int(v)).sum()) for v in Verdict
    }
    decisive = _usable(batch.verdict, False)
    pole = batch.verdict == int(Verdict.POLE)
    violating = pole if f.entire else np.zeros(pts.size, dtype=bool)

    return _finish_report(
        t0, sampler, params, "partition", format_expr(f), None,
        confident=decisive.sum(),
        violating=violating,
        witness=lambda i: {"z": pair(pts[i]), "verdict": _label(batch.verdict[i])},
        detail={
            "counts": counts,
            "decisive_fraction": float(decisive.mean()),
            "entire": bool(f.entire),
        },
    )
