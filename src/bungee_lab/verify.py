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

Reports serialize with a fixed key order:

    relation, f, g, params, seed, samples_total, samples_confident,
    violations, violation_examples, runtime_ms, detail

where detail carries relation-specific diagnostics.
"""

from __future__ import annotations

import contextvars
import dataclasses
import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import eval_array
from .expr import Expr, compose, derivative, format_expr, translate
from .orbit import (
    BatchClassification,
    OrbitParams,
    Rect,
    Verdict,
    classify_batch,
)

MAX_VIOLATION_EXAMPLES = 20
# A check with fewer usable samples than this is inconclusive, never a pass.
MIN_USABLE = 10

KIND_VERDICT = {
    "escaping": Verdict.ESCAPING,
    "bounded": Verdict.BOUNDED,
    "bungee": Verdict.BUNGEE,
}


def pair(z: complex) -> list[float]:
    """JSON form of a complex number."""
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class SamplerSpec:
    rect: Rect
    count: int = 4096
    seed: int = 42

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be at least 1")

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

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "f": self.f,
            "g": self.g,
            "params": self.params,
            "seed": self.seed,
            "samples_total": self.samples_total,
            "samples_confident": self.samples_confident,
            "violations": self.violations,
            "violation_examples": self.violation_examples,
            "runtime_ms": self.runtime_ms,
            "detail": self.detail,
        }


def _params_dict(params: OrbitParams, sampler: SamplerSpec, strict: bool | None) -> dict:
    d = params.to_dict()
    d["rect"] = {
        "center": pair(sampler.rect.center),
        "width": sampler.rect.width,
        "height": sampler.rect.height,
    }
    if strict is not None:
        d["strict"] = strict
    return d


def _usable(verdict: np.ndarray, strict: bool) -> np.ndarray:
    mask = (verdict == int(Verdict.ESCAPING)) | (verdict == int(Verdict.BOUNDED))
    if not strict:
        mask |= verdict == int(Verdict.BUNGEE)
    return mask


def _label(code: int) -> str:
    return Verdict(int(code)).label


# (canonical map text, sha256 of the complex128 samples, params) ->
# BatchClassification without tails; None outside shared_classifications().
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

    Stored entries drop their tails and have read-only arrays, so a
    request for tail values is always classified afresh.
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
        entry = dataclasses.replace(batch, tail_values=None, tail_last=None)
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

    lhs_mode "all"/"any"/"one" combines the left memberships by
    intersection, union, or symmetric restriction (exactly one holds);
    rhs_mode "any"/"all" combines the right by union or intersection.
    An empty rhs never holds, turning the check into an emptiness test
    of the lhs.
    """
    if lhs_mode not in ("all", "any", "one"):
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
    n_usable = int(usable.sum())

    examples = []
    for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]:
        examples.append(
            {
                "z": pair(pts[i]),
                "lhs": {
                    f"{format_expr(e)}:{kind}": _label(
                        batches[format_expr(e)].verdict[i]
                    )
                    for e, kind in lhs
                },
                "rhs": {
                    f"{format_expr(e)}:{kind}": _label(
                        batches[format_expr(e)].verdict[i]
                    )
                    for e, kind in rhs
                },
            }
        )

    return RelationReport(
        relation=relation,
        f=f_text if f_text is not None else format_expr(lhs[0][0]),
        g=g_text,
        params=_params_dict(params, sampler, strict),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=n_usable,
        violations=int(violating.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "lhs": [[format_expr(e), kind] for e, kind in lhs],
            "rhs": [[format_expr(e), kind] for e, kind in rhs],
            "lhs_mode": lhs_mode,
            "rhs_mode": rhs_mode,
            "lhs_members": int((usable & in_lhs).sum()),
            "rhs_members": int((usable & in_rhs).sum()),
            "inconclusive": n_usable < MIN_USABLE,
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
    n_usable = int(usable.sum())

    examples = []
    for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]:
        examples.append(
            {
                "z": pair(pts[i]),
                "gz": pair(gz[i]),
                "z_verdict": _label(batch_z.verdict[i]),
                "gz_verdict": _label(batch_w.verdict[i]),
            }
        )

    return RelationReport(
        relation=f"{kind}-set-forward-invariant",
        f=format_expr(f),
        g=format_expr(g),
        params=_params_dict(params, sampler, strict),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=n_usable,
        violations=int(violating.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "kind": kind,
            "members_at_z": int((usable & member_z).sum()),
            "members_at_gz": int((usable & member_w).sum()),
            "reverse_only": int((usable & ~member_z & member_w).sum()),
            "g_defined": int(g_ok.sum()),
            "inconclusive": n_usable < MIN_USABLE,
        },
    )


# ---------------------------------------------------------------------------
# Commutation


def verify_commute(
    f: Expr,
    g: Expr,
    sampler: SamplerSpec,
    params: OrbitParams | None = None,
    *,
    tol: float = 1e-9,
) -> RelationReport:
    """Compare f(g(z)) with g(f(z)) pointwise.

    The error is |fg - gf| / max(1, |fg|, |gf|).  Samples where any of
    the four evaluations leaves the finite range are unusable; fewer
    than MIN_USABLE usable samples marks the whole check inconclusive.
    """
    t0 = time.perf_counter()
    params = params or OrbitParams()
    pts = sampler.points()

    gz, s1 = eval_array(g, pts)
    fgz, s2 = eval_array(f, np.where(s1 == engine.OK, gz, 0))
    fz, s3 = eval_array(f, pts)
    gfz, s4 = eval_array(g, np.where(s3 == engine.OK, fz, 0))
    usable = (s1 == engine.OK) & (s2 == engine.OK) & (s3 == engine.OK) & (s4 == engine.OK)

    denom = np.maximum(1.0, np.maximum(np.abs(fgz), np.abs(gfz)))
    with np.errstate(invalid="ignore"):
        rel = np.abs(fgz - gfz) / denom
    violating = usable & (rel > tol)

    examples = []
    for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]:
        examples.append(
            {
                "z": pair(pts[i]),
                "f_of_g": pair(fgz[i]),
                "g_of_f": pair(gfz[i]),
                "relative_error": float(rel[i]),
            }
        )

    n_usable = int(usable.sum())
    max_err = 0.0
    witness = None
    if n_usable:
        masked = np.where(usable, rel, -1.0)
        w = int(masked.argmax())
        max_err = float(rel[w])
        witness = {
            "z": pair(pts[w]),
            "f_of_g": pair(fgz[w]),
            "g_of_f": pair(gfz[w]),
            "relative_error": float(rel[w]),
        }
    n_viol = int(violating.sum())
    return RelationReport(
        relation="commute",
        f=format_expr(f),
        g=format_expr(g),
        params=_params_dict(params, sampler, None),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=n_usable,
        violations=n_viol,
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "tol": tol,
            "commutes": bool(n_viol == 0 and n_usable >= MIN_USABLE),
            "max_relative_error": max_err,
            "witness": witness,
            "inconclusive": n_usable < MIN_USABLE,
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
    n_max: int = 20,
    tol: float = 1e-9,
    window: float | None = None,
) -> RelationReport:
    """Compare iterates of g = f + c against f.

    Checks the identity g^n(z) = f^n(z) + c for n up to n_max with an
    absolute tolerance, recording the first failing step.  A sample is
    compared only while the comparison stays numerically meaningful:
    both value orbits finite and within the window (each step injects
    fresh rounding noise proportional to the orbit magnitude), and the
    accumulated derivative product along the orbit small enough that
    amplified double-precision noise, eps times that product, stays a
    comfortable factor under tol.  Past either limit even an exact
    identity drowns in float noise, and the set-level verdict
    agreement reported alongside carries the claim instead.  The
    alternative drift law g^n(z) = f^n(z) + n*c is tracked with a
    relative tolerance (the drift offset itself grows with n); a
    strict period satisfies the plain identity and a pseudo-period
    only the drift law.
    """
    t0 = time.perf_counter()
    c = complex(c)
    g = translate(f, c)
    fp = derivative(f)
    pts = sampler.points()
    k = pts.size
    if window is None:
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
                i = int(np.nonzero(bad_now)[0][0])
                first_failure = {
                    "n": n,
                    "z": pair(pts[i]),
                    "error": float(err_exact[i]),
                }
            exact_bad |= bad_now
        drift_bad |= usable & (err_drift > tol)
        max_exact_err = max(max_exact_err, float(err_exact[usable].max()))
        max_drift_err = max(max_drift_err, float(err_drift[usable].max()))

    batch_f = _classify(f, pts, params)
    batch_g = _classify(g, pts, params)
    both = _usable(batch_f.verdict, False) & _usable(batch_g.verdict, False)
    agree = both & (batch_f.verdict == batch_g.verdict)

    examples = []
    for i in np.nonzero(exact_bad)[0][:MAX_VIOLATION_EXAMPLES]:
        examples.append({"z": pair(pts[i])})
    if first_failure is not None and examples:
        examples[0] = dict(examples[0], **first_failure)

    n_compared = int(compared.sum())
    return RelationReport(
        relation="translate-iterate-identity",
        f=format_expr(f),
        g=format_expr(g),
        params=_params_dict(params, sampler, None),
        seed=sampler.seed,
        samples_total=int(k),
        samples_confident=n_compared,
        violations=int(exact_bad.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
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
            "inconclusive": n_compared < MIN_USABLE,
        },
    )


def verify_value_identity(
    a: Expr,
    b: Expr,
    sampler: SamplerSpec,
    params: OrbitParams | None = None,
    *,
    tol: float = 1e-9,
    relation: str = "value-identity",
    f_text: str | None = None,
    g_text: str | None = None,
) -> RelationReport:
    """Compare two expressions pointwise with relative tolerance."""
    t0 = time.perf_counter()
    params = params or OrbitParams()
    pts = sampler.points()
    va, sa = eval_array(a, pts)
    vb, sb = eval_array(b, pts)
    usable = (sa == engine.OK) & (sb == engine.OK)
    denom = np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb)))
    with np.errstate(invalid="ignore"):
        rel = np.abs(va - vb) / denom
    violating = usable & (rel > tol)

    examples = []
    for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]:
        examples.append(
            {
                "z": pair(pts[i]),
                "lhs": pair(va[i]),
                "rhs": pair(vb[i]),
                "relative_error": float(rel[i]),
            }
        )

    n_usable = int(usable.sum())
    return RelationReport(
        relation=relation,
        f=f_text if f_text is not None else format_expr(a),
        g=g_text if g_text is not None else format_expr(b),
        params=_params_dict(params, sampler, None),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=n_usable,
        violations=int(violating.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "tol": tol,
            "max_relative_error": float(rel[usable].max()) if n_usable else 0.0,
            "inconclusive": n_usable < MIN_USABLE,
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
    """
    t0 = time.perf_counter()
    pts = sampler.points()
    batch = _classify(g, pts, params, want_tail_values=True)
    escaping = (batch.verdict == int(Verdict.ESCAPING)) & batch.confident
    idx = np.nonzero(escaping)[0]

    tails = []
    for i in idx:
        tail = batch.ordered_tail(int(i))
        tails.append(tail[np.abs(tail) > params.escape_radius])
    offsets = np.cumsum([0] + [t.size for t in tails])
    violations = 0
    examples = []
    if tails:
        flat = np.concatenate(tails)
        fv, fs = eval_array(f, flat)
        small = (fs == engine.OK) & (np.abs(fv) <= params.escape_radius)
        bad_pt = small | (fs == engine.POLE)
        for j, i in enumerate(idx):
            seg = slice(offsets[j], offsets[j + 1])
            if bad_pt[seg].any():
                violations += 1
                if len(examples) < MAX_VIOLATION_EXAMPLES:
                    w_at = int(np.nonzero(bad_pt[seg])[0][0]) + offsets[j]
                    examples.append(
                        {
                            "z": pair(pts[i]),
                            "tail_point": pair(flat[w_at]),
                            "f_status": engine.STATUS_NAMES[int(fs[w_at])],
                            "f_magnitude": float(abs(fv[w_at]))
                            if int(fs[w_at]) == int(engine.OK)
                            else None,
                        }
                    )

    return RelationReport(
        relation="escaping-orbits-forwarded",
        f=format_expr(f),
        g=format_expr(g),
        params=_params_dict(params, sampler, None),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=int(idx.size),
        violations=violations,
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "tail_window": params.tail_window,
            "inconclusive": idx.size < MIN_USABLE,
        },
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

    examples = [
        {"z": pair(pts[i]), "verdict": _label(batch.verdict[i])}
        for i in np.nonzero(violating)[0][:MAX_VIOLATION_EXAMPLES]
    ]

    return RelationReport(
        relation="partition",
        f=format_expr(f),
        g=None,
        params=_params_dict(params, sampler, None),
        seed=sampler.seed,
        samples_total=int(pts.size),
        samples_confident=int(decisive.sum()),
        violations=int(violating.sum()),
        violation_examples=examples,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        detail={
            "counts": counts,
            "decisive_fraction": float(decisive.mean()),
            "entire": bool(f.entire),
            "inconclusive": int(decisive.sum()) < MIN_USABLE,
        },
    )
