"""End-to-end acceptance checks, one summary line per criterion.

Each test records a PASS/FAIL line through conftest.record_acceptance and
then asserts, so the terminal summary always lists all ten outcomes.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import numpy as np

from bungee_lab.engine import evaluate
from bungee_lab.expr import compose, derivative, iterate_expr, parse
from bungee_lab.grid import GridSpec, classify_grid, resolve_workers
from bungee_lab.orbit import (
    OrbitParams,
    Rect,
    Verdict,
    classify_batch,
    find_fixed_points,
)
from bungee_lab.presets import FATOU_PARAMS, PRESET_FUNCTIONS
from bungee_lab.render import render_ppm
from bungee_lab.verify import (
    SamplerSpec,
    verify_commute,
    verify_composition_containments,
    verify_invariance,
    verify_translate,
    verify_value_identity,
)

from conftest import record_acceptance, random_expr

GRID_512 = GridSpec(0j, 4.0, 4.0, 512, 512)
BIDISC = Rect(0, 2.0, 2.0)

GOLDEN_SHA256 = {
    "1/z^2": "df76e355086a42ca9b46bedd0f5d5319a5f3c557c80e69004d11ec292c346812",
    "z^2": "0149d0b679f72ad02dbb227f499e457d673800fcc1355ad68d9044492741b2d0",
}


def _check(number: int, description: str, ok: bool, message: str = "") -> None:
    record_acceptance(number, description, ok)
    assert ok, f"criterion {number} failed: {description} {message}".rstrip()


def _off_band_bungee_fraction(grid) -> float:
    pts = grid.spec.points()
    off_band = np.abs(np.abs(pts) - 1.0) > 0.05
    bungee = grid.verdict == int(Verdict.BUNGEE)
    return float(bungee[off_band].mean())


def test_criterion_01_unit_circle_reproduction():
    params = OrbitParams()
    results = {}
    for text in ("1/z^2", "1/z^4", "z^2"):
        start = time.monotonic()
        grid = classify_grid(parse(text), GRID_512, params)
        elapsed = time.monotonic() - start
        results[text] = (grid, elapsed)

    frac_g = _off_band_bungee_fraction(results["1/z^2"][0])
    frac_fg = _off_band_bungee_fraction(results["1/z^4"][0])
    squaring_bungee = int(
        (results["z^2"][0].verdict == int(Verdict.BUNGEE)).sum()
    )
    slowest = max(elapsed for _, elapsed in results.values())
    ok = (
        frac_g >= 0.99
        and frac_fg >= 0.99
        and squaring_bungee == 0
        and slowest < 10.0
    )
    _check(
        1,
        "unit-circle bungee band on 512x512 grids for 1/z^2 and 1/z^4",
        ok,
        f"(off-band fractions {frac_g:.6f}/{frac_fg:.6f}, "
        f"z^2 bungee count {squaring_bungee}, slowest {slowest:.2f}s)",
    )


def test_criterion_02_containment_suites():
    sampler = SamplerSpec(Rect(0, 4.0, 4.0), 10_000, 42)
    params = OrbitParams()
    pairs = [
        (parse("z^2"), parse("1/z^2")),
        (parse("z*exp(z^2)"), parse("-z*exp(z^2)")),
    ]
    start = time.monotonic()
    reports = []
    for f, g in pairs:
        reports.extend(verify_composition_containments(f, g, sampler, params))
    elapsed = time.monotonic() - start

    ok = (
        len(reports) == 4
        and all(r.violations == 0 for r in reports)
        and all(r.samples_total == 10_000 for r in reports)
        and elapsed < 60.0
    )
    worst = max(r.violations for r in reports)
    _check(
        2,
        "composition containments clean on both pairs at 10^4 samples",
        ok,
        f"(max violations {worst}, total {elapsed:.1f}s)",
    )


def test_criterion_03_invariance_suites():
    checks = []

    f = parse("z*exp(z^2)")
    g = parse("-z*exp(z^2)")
    sampler = SamplerSpec(Rect(0, 4.0, 4.0), 10_000, 42)
    params = OrbitParams()
    for kind in ("escaping", "bounded"):
        r = verify_invariance(f, g, kind, sampler, params)
        checks.append((r.violations, r.samples_confident))

    f2 = parse("1+z+exp(-z)")
    g2 = parse("1+z+exp(-z)+2*pi*i")
    sampler2 = SamplerSpec(Rect(0, 8.0, 8.0), 10_000, 42)
    for kind in ("escaping", "bounded"):
        r = verify_invariance(f2, g2, kind, sampler2, FATOU_PARAMS)
        checks.append((r.violations, r.samples_confident))

    ok = all(v == 0 for v, _ in checks) and all(c >= 1_000 for _, c in checks)
    _check(
        3,
        "forward invariance of escaping and bounded sets on both pairs",
        ok,
        f"(violations {[v for v, _ in checks]}, confident {[c for _, c in checks]})",
    )


def test_criterion_04_commutation_algebra():
    sampler = SamplerSpec(BIDISC, 4096, 42)

    unity = verify_commute(parse("z*exp(z^2)"), parse("-z*exp(z^2)"), sampler)
    power = verify_commute(parse("z^2"), parse("1/z^2"), sampler)
    scaled = verify_commute(parse("z*exp(z^2)"), parse("0.5*z*exp(z^2)"), sampler)

    f, g = parse("z*exp(z^2)"), parse("-z*exp(z^2)")
    lhs = iterate_expr(compose(f, g), 2)
    rhs = iterate_expr(f, 4)
    identity = verify_value_identity(lhs, rhs, SamplerSpec(BIDISC, 100, 42))

    ok = (
        unity.detail["commutes"] is True
        and power.detail["commutes"] is True
        and scaled.detail["commutes"] is False
        and identity.violations == 0
    )
    _check(
        4,
        "commutation holds for the unity pairs, fails at a=0.5, (f.g)^2 = f^4",
        ok,
        f"(max rel errors {unity.detail['max_relative_error']:.2e}/"
        f"{power.detail['max_relative_error']:.2e}, "
        f"scaled max {scaled.detail['max_relative_error']:.2e}, "
        f"identity max {identity.detail['max_relative_error']:.2e})",
    )


def test_criterion_05_translate_identity():
    sampler = SamplerSpec(BIDISC, 100, 42)

    sine = verify_translate(parse("sin(z)"), 2 * math.pi, sampler, OrbitParams(), n_max=20)
    fatou = verify_translate(
        parse("1+z+exp(-z)"), 2j * math.pi, sampler, OrbitParams(), n_max=20
    )
    ff = fatou.detail["first_failure"]

    ok = (
        sine.violations == 0
        and sine.detail["identity_holds"] is True
        and sine.detail["max_error"] < 1e-9
        and fatou.violations > 0
        and ff is not None
        and ff["n"] == 2
    )
    _check(
        5,
        "sin(z)+2pi iterate identity exact; pseudo-period counterexample at n=2",
        ok,
        f"(sine max error {sine.detail['max_error']:.2e}, "
        f"counterexample step {None if ff is None else ff['n']})",
    )


def test_criterion_06_indifferent_fixed_point():
    reports = find_fixed_points(parse("z*exp(-z^2)"), BIDISC, starts=32)
    origin = [r for r in reports if abs(r.location) <= 1e-8]
    ok = (
        len(origin) == 1
        and abs(origin[0].multiplier - 1) < 1e-8
        and "indifferent" in origin[0].kind
    )
    loc = origin[0].location if origin else None
    _check(
        6,
        "z*exp(-z^2) has an indifferent fixed point at the origin",
        ok,
        f"(location {loc}, kind {origin[0].kind if origin else 'missing'})",
    )


def test_criterion_07_derivative_numerics():
    rng = np.random.default_rng(42)
    worst = 0.0
    ok = True
    for text in PRESET_FUNCTIONS:
        f = parse(text)
        fp = derivative(f)
        checked = 0
        while checked < 100:
            u = rng.uniform(-2.0, 2.0, size=2)
            z = complex(u[0], u[1])
            if abs(z) < 0.3:
                continue
            h = 1e-6 * (1 + abs(z))
            lo, hi, sym = evaluate(f, z - h), evaluate(f, z + h), evaluate(fp, z)
            if "finite" != lo.kind or "finite" != hi.kind or "finite" != sym.kind:
                continue
            fd = (hi.value - lo.value) / (2 * h)
            rel = abs(sym.value - fd) / max(1.0, abs(sym.value))
            worst = max(worst, rel)
            if rel >= 1e-6:
                ok = False
            checked += 1
    _check(
        7,
        "symbolic derivatives match central differences on all preset maps",
        ok,
        f"(worst relative error {worst:.2e})",
    )


def _oracle_square_verdict(z0: complex, params: OrbitParams) -> str:
    """Independent pure-Python classifier for f(z) = z^2."""

    def log_abs(re: float, im: float) -> float:
        try:
            r = math.hypot(re, im)
        except OverflowError:
            return math.inf
        if r == 0.0:
            return -math.inf
        try:
            return math.log10(r)
        except OverflowError:  # pragma: no cover
            return math.inf

    re, im = z0.real, z0.imag
    if not (math.isfinite(re) and math.isfinite(im)):
        term, mags = "overflow", [math.inf]
    else:
        term = "completed"
        mags = [log_abs(re, im)]
        for n in range(params.max_iter):
            new_re = re * re - im * im
            new_im = 2 * (re * im)
            if not (math.isfinite(new_re) and math.isfinite(new_im)):
                term = "overflow"
                mags.append(math.inf)
                break
            m = log_abs(new_re, new_im)
            mags.append(m)
            if new_re == re and new_im == im:
                mags.extend([m] * (params.max_iter - n - 1))
                break
            re, im = new_re, new_im

    log_esc, log_bound = params.log_escape, params.log_bound
    osc = 0
    high = False
    for m in mags:
        if not high:
            if m > log_esc:
                high = True
        elif m < log_bound:
            osc += 1
            high = False

    completed = term == "completed"
    if osc >= params.min_oscillations or (not completed and osc >= 1):
        return "bungee"
    if term == "pole":
        return "pole"
    w = min(params.tail_window, len(mags))
    tail = mags[len(mags) - w :]
    tail_escape = all(m > log_esc for m in tail) and all(
        tail[i + 1] >= tail[i] for i in range(len(tail) - 1)
    )
    if term == "overflow" or (completed and tail_escape):
        return "escaping"
    if completed and all(m <= log_bound for m in mags):
        return "bounded"
    return "undecided"


def test_criterion_08_oracle_equivalence():
    params = OrbitParams()
    rng = random.Random(42)
    seeds = np.array(
        [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(1000)],
        dtype=np.complex128,
    )
    batch = classify_batch(parse("z^2"), seeds, params)
    labels = [Verdict(int(v)).label for v in batch.verdict]
    mismatches = [
        (complex(z), got, _oracle_square_verdict(complex(z), params))
        for z, got in zip(seeds, labels)
        if got != _oracle_square_verdict(complex(z), params)
    ]
    _check(
        8,
        "independent brute-force iterator matches all 1000 verdicts for z^2",
        not mismatches,
        f"(mismatches {mismatches[:3]})",
    )


def test_criterion_09_determinism_and_golden_images():
    params = OrbitParams()
    spec = GridSpec(0j, 4.0, 4.0, 256, 256)
    f = parse("1/z^2")
    base = classify_grid(f, spec, params, workers=1)
    worker_ok = True
    for w in (4, resolve_workers(None)):
        other = classify_grid(f, spec, params, workers=w)
        worker_ok = worker_ok and all(
            np.array_equal(getattr(base, name), getattr(other, name))
            for name in ("verdict", "confident", "term_kind", "term_step", "oscillations")
        )

    hash_ok = True
    observed = {}
    for text, want in GOLDEN_SHA256.items():
        digests = set()
        for _ in range(2):
            grid = classify_grid(parse(text), GRID_512, params)
            digests.add(hashlib.sha256(render_ppm(grid)).hexdigest())
        observed[text] = sorted(digests)
        hash_ok = hash_ok and digests == {want}

    _check(
        9,
        "grids bit-identical across worker counts; golden image hashes stable",
        worker_ok and hash_ok,
        f"(workers ok {worker_ok}, hashes {observed})",
    )


def test_criterion_10_parser_round_trips():
    rng = random.Random(42)
    bulk_ok = True
    for _ in range(1000):
        e = random_expr(rng, 8)
        if parse(str(e)) != e:
            bulk_ok = False
            break

    presets_ok = True
    for text in PRESET_FUNCTIONS:
        e = parse(text)
        if parse(str(e)) != e:
            presets_ok = False
            break

    _check(
        10,
        "1000 random expression round-trips exact; preset list lossless",
        bulk_ok and presets_ok,
        f"(random {bulk_ok}, presets {presets_ok})",
    )
