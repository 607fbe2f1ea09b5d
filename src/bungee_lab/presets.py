"""Canned verification suites for the package's worked example maps.

Each preset bundles a family of maps with the relation checks that are
expected to hold for it (or, for the negative examples, expected to
fail in a specific way).  A preset passes when every check's outcome
matches its stated expectation; reports are returned either way, so a
failing run shows exactly which relation broke and where.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

from .expr import compose, iterate_expr, parse
from .grid import resolve_workers
from .orbit import OrbitParams, Rect, find_fixed_points
from .verify import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    RelationReport,
    SamplerSpec,
    shared_classifications,
    verify_commute,
    verify_composition_containments,
    verify_containment,
    verify_invariance,
    verify_property_a,
    verify_translate,
    verify_value_identity,
)

# Every map text exercised by a preset, for parser and numerics sweeps.
PRESET_FUNCTIONS: tuple[str, ...] = (
    "z^2",
    "1/z^2",
    "z*exp(z^2)",
    "-z*exp(z^2)",
    "0.5*z*exp(z^2)",
    "z*exp(-z^2)",
    "1+z+exp(-z)",
    "1+z+exp(-z)+2*pi*i",
    "z+sin(z)",
    "z+sin(z)+2*pi",
    "sin(z)",
)


def _bidisc(samples: int, seed: int) -> SamplerSpec:
    """Commutation sampler: the unit bidisc |Re z| <= 1, |Im z| <= 1."""
    return SamplerSpec(Rect(0, 2.0, 2.0), samples, seed)


@dataclass
class CheckResult:
    name: str
    passed: bool
    expectation: str
    report: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _expect(
    name: str, report: RelationReport, extra: str = "", *, violations: bool = False
) -> CheckResult:
    expectation = "violations found" if violations else "no violations"
    expectation += f"; {extra}" if extra else ""
    return CheckResult(name, report.passes(violations), expectation, report.to_dict())


def _invariance_checks(f, g, sampler, params) -> list[CheckResult]:
    out = []
    for kind in ("escaping", "bounded"):
        rep = verify_invariance(f, g, kind, sampler, params)
        out.append(_expect(f"invariance-{kind}", rep))
    return out


def run_power_pair(samples: int, seed: int) -> list[CheckResult]:
    """z^2 against 1/z^2: a commuting pair where one map has poles."""
    f = parse("z^2")
    g = parse("1/z^2")
    params = OrbitParams()
    sampler = SamplerSpec(Rect(0, 4.0, 4.0), samples, seed)
    checks = [_expect("commute", verify_commute(f, g, _bidisc(samples, seed), params))]
    k_rep, bu_rep = verify_composition_containments(
        f, g, sampler, params, bu_mode="any"
    )
    checks.append(_expect("bounded-intersection", k_rep))
    checks.append(_expect("bungee-union", bu_rep))
    empty = verify_containment(
        [(f, "bungee")],
        [],
        sampler,
        params,
        relation="bungee-empty",
        f_text=str(f),
    )
    checks.append(
        _expect("bungee-of-square-empty", empty, "no sample oscillates under z^2")
    )
    return checks


def run_exp_family(samples: int, seed: int) -> list[CheckResult]:
    """z*exp(z^2) and its negation: commuting entire pair."""
    f = parse("z*exp(z^2)")
    g = parse("-z*exp(z^2)")
    params = OrbitParams()
    sampler = SamplerSpec(Rect(0, 4.0, 4.0), samples, seed)
    checks = [_expect("commute", verify_commute(f, g, _bidisc(samples, seed), params))]
    k_rep, bu_rep = verify_composition_containments(
        f, g, sampler, params, bu_mode="all"
    )
    checks.append(_expect("bounded-intersection", k_rep))
    checks.append(_expect("bungee-intersection", bu_rep))
    checks.extend(_invariance_checks(f, g, sampler, params))
    small = SamplerSpec(Rect(0, 1.0, 1.0), samples, seed)
    ident = verify_value_identity(
        iterate_expr(compose(f, g), 2),
        iterate_expr(f, 4),
        small,
        params,
        relation="composition-square-equals-fourth-iterate",
        f_text=str(f),
        g_text=str(g),
    )
    checks.append(_expect("compose-square-is-f4", ident))
    return checks


def run_scaled_family(samples: int, seed: int) -> list[CheckResult]:
    """z*exp(z^2) against its 0.5-multiple: these do not commute.

    Negating the map (the sec4-expfamily pair) commutes because -1
    squares to 1; a scale factor that is not a root of unity breaks
    the algebra, and the pointwise check must see that.
    """
    f = parse("z*exp(z^2)")
    g = parse("0.5*z*exp(z^2)")
    params = OrbitParams()
    rep = verify_commute(f, g, _bidisc(samples, seed), params)
    return [
        _expect(
            "commute-fails",
            rep,
            "scaling by 0.5 breaks commutation (only roots of unity work)",
            violations=True,
        )
    ]


def run_indifferent_fixed_point(samples: int, seed: int) -> list[CheckResult]:
    """z*exp(-z^2) has an indifferent fixed point at the origin."""
    f = parse("z*exp(-z^2)")
    reports = find_fixed_points(f, Rect(0, 2.0, 2.0))
    origin = [r for r in reports if abs(r.location) <= 1e-8]
    passed = bool(origin) and all(
        abs(r.multiplier - 1) <= 1e-8
        and r.kind in ("rationally_indifferent", "indifferent")
        for r in origin
    )
    payload = {"function": str(f), "fixed_points": [r.to_dict() for r in reports]}
    return [
        CheckResult(
            "origin-indifferent",
            passed,
            "fixed point within 1e-8 of 0 with multiplier within 1e-8 of 1",
            payload,
        )
    ]


# Orbits of 1+z+exp(-z) escape by unit drift, |z_n| roughly n, so the
# default radii would never trigger; its drift pair uses small radii and
# a longer horizon instead.
FATOU_PARAMS = OrbitParams(
    max_iter=2000,
    escape_radius=50.0,
    bound_radius=30.0,
    min_oscillations=3,
    tail_window=10,
)


def run_drift_pair(
    f_text: str,
    g_text: str,
    c: complex,
    params: OrbitParams,
    samples: int,
    seed: int,
) -> list[CheckResult]:
    """A map f and its translate g = f + c by a pseudo-period c.

    The pair commutes, each map forwards the other's escaping orbits and
    keeps its escaping and bounded sets invariant, and the iterates obey
    the drift law g^n = f^n + n*c rather than g^n = f^n + c.
    """
    f = parse(f_text)
    g = parse(g_text)
    sampler = SamplerSpec(Rect(0, 8.0, 8.0), samples, seed)
    checks = [_expect("commute", verify_commute(f, g, _bidisc(samples, seed), params))]
    checks.append(
        _expect("forward-escaping-f-g", verify_property_a(f, g, sampler, params))
    )
    checks.append(
        _expect("forward-escaping-g-f", verify_property_a(g, f, sampler, params))
    )
    checks.extend(_invariance_checks(f, g, sampler, params))
    trep = verify_translate(f, c, sampler, params)
    ff = trep.detail.get("first_failure")
    sig = (
        trep.passes(expect_violations=True)
        and trep.detail["drift_identity_holds"]
        and ff is not None
        and ff["n"] == 2
        and abs(ff["error"] - abs(c)) <= 1e-6
    )
    checks.append(
        CheckResult(
            "translate-drift-signature",
            sig,
            "g^n = f^n + C fails first at n=2 with error |C|; g^n = f^n + n*C holds",
            trep.to_dict(),
        )
    )
    return checks


def run_sine_periodic_translate(samples: int, seed: int) -> list[CheckResult]:
    """sin(z) translated by its period 2*pi: iterates shift exactly."""
    f = parse("sin(z)")
    c = 2 * math.pi
    params = OrbitParams()
    sampler = SamplerSpec(Rect(0, 2.0, 2.0), samples, seed)
    trep = verify_translate(f, c, sampler, params)
    return [
        CheckResult(
            "translate-identity-holds",
            trep.passes() and trep.detail["identity_holds"],
            "g^n = f^n + C for all n up to n_max (C is a period of f)",
            trep.to_dict(),
        )
    ]


def run_composition_question(samples: int, seed: int) -> list[CheckResult]:
    """Report-only probe: do points bounded under exactly one of f, g
    stay bounded under f o g?  For the power pair the answer observed
    here is no (points inside the unit disk are bounded under z^2 but
    oscillate under 1/z^4), so this check records the counts without
    asserting an expectation.
    """
    f = parse("z^2")
    g = parse("1/z^2")
    fg = compose(f, g)
    params = OrbitParams()
    sampler = SamplerSpec(Rect(0, 4.0, 4.0), samples, seed)
    rep = verify_containment(
        [(f, "bounded"), (g, "bounded")],
        [(fg, "bounded")],
        sampler,
        params,
        lhs_mode="one",
        rhs_mode="any",
        relation="bounded-symmetric-difference-inside-composition",
        f_text=str(f),
        g_text=str(g),
    )
    return [
        CheckResult(
            "symmetric-difference-probe",
            True,
            "conjectural: report only, violations recorded but not asserted",
            rep.to_dict(),
        )
    ]


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    run: Callable[[int, int], list[CheckResult]]


PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        Preset("sec4-power", "z^2 and 1/z^2: commutation and containments", run_power_pair),
        Preset(
            "sec4-expfamily",
            "z*exp(z^2) and -z*exp(z^2): entire commuting pair",
            run_exp_family,
        ),
        Preset(
            "scaled-family",
            "z*exp(z^2) and its 0.5-multiple: commutation fails",
            run_scaled_family,
        ),
        Preset(
            "indifferent-fixed-point",
            "z*exp(-z^2): indifferent fixed point at the origin",
            run_indifferent_fixed_point,
        ),
        Preset(
            "fatou-pair",
            "1+z+exp(-z) and its 2*pi*i translate (drift radii)",
            partial(
                run_drift_pair,
                "1+z+exp(-z)",
                "1+z+exp(-z)+2*pi*i",
                2j * math.pi,
                FATOU_PARAMS,
            ),
        ),
        Preset(
            "sine-drift-pair",
            "z+sin(z) and its 2*pi translate",
            partial(run_drift_pair, "z+sin(z)", "z+sin(z)+2*pi", 2 * math.pi, OrbitParams()),
        ),
        Preset(
            "sine-periodic-translate",
            "sin(z) shifted by its period: exact iterate identity",
            run_sine_periodic_translate,
        ),
        Preset(
            "composition-question",
            "report-only probe of the bounded symmetric difference",
            run_composition_question,
        ),
    )
}


def _run_prefixed(name: str, samples: int, seed: int) -> list[CheckResult]:
    """One preset's checks, renamed "<preset>:<check>" as all-paper lists them."""
    return [
        CheckResult(f"{name}:{check.name}", check.passed, check.expectation, check.report)
        for check in PRESETS[name].run(samples, seed)
    ]


def _run_in_worker(name: str, samples: int, seed: int) -> list[CheckResult]:
    with shared_classifications():
        return _run_prefixed(name, samples, seed)


# the order in which _run_all_paper starts the presets on its workers:
# the four slow ones first (serially at 4096 samples on a 2-vCPU VM,
# sine-periodic-translate about 0.23 s, sine-drift-pair 0.12,
# sec4-expfamily 0.10 and fatou-pair 0.08; the others under 0.02 s), so
# that no slow preset starts late and runs alone while the other
# workers idle
START_ORDER = (
    "sine-periodic-translate",
    "sec4-expfamily",
    "fatou-pair",
    "sine-drift-pair",
    "sec4-power",
    "scaled-family",
    "indifferent-fixed-point",
    "composition-question",
)


def _run_all_paper(samples: int, seed: int) -> list[CheckResult]:
    """Every preset, each in a forked worker process where that is safe.

    The workers take the presets in START_ORDER, and the checks come
    back in PRESETS order.  Workers share no memo, so an input that two
    presets classify is classified in each.  The run stays in this
    process with one memo when there is one CPU, no fork start method,
    or another live thread: a fork can copy a lock that thread holds and
    deadlock the child.  The pool modules are imported here, not at
    module level, to keep them out of every import of the package.
    """
    workers = min(resolve_workers(None), len(PRESETS))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                runs = dict(zip(START_ORDER, pool.map(
                    _run_in_worker, START_ORDER, repeat(samples), repeat(seed)
                )))
                return [check for name in PRESETS for check in runs[name]]
    with shared_classifications():
        return [check for name in PRESETS for check in _run_prefixed(name, samples, seed)]


def check_preset(name: str) -> None:
    """Raise KeyError unless name is a preset or "all-paper"."""
    if name != "all-paper" and name not in PRESETS:
        known = ", ".join([*PRESETS, "all-paper"])
        raise KeyError(f"unknown preset {name!r}; known presets: {known}")


def run_preset(
    name: str, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run one preset, or every preset for "all-paper".

    Every check draws samples points with sample seed seed; the preset
    functions in PRESETS take both from here and have no defaults.
    A single preset runs in this process and classifies each (map,
    samples, params) once.  "all-paper" runs each preset in a forked
    worker process, with a memo per preset, when there are two or more
    CPUs, and otherwise in this process with one memo for the run.
    Either way it returns the same checks in PRESETS order, named
    "<preset>:<check>".
    """
    check_preset(name)
    if name == "all-paper":
        return _run_all_paper(samples, seed)
    with shared_classifications():
        return PRESETS[name].run(samples, seed)
