"""Orbit iteration, verdict classification, and fixed points."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bungee_lab import orbit
from bungee_lab.engine import evaluate
from bungee_lab.expr import Z, derivative, parse
from bungee_lab.orbit import (
    CONFIDENT,
    HEURISTIC,
    OrbitParams,
    Rect,
    Verdict,
    classify_batch,
    classify_point,
    count_oscillations,
    find_fixed_points,
    iterate_orbit,
)
from bungee_lab.presets import PRESET_FUNCTIONS

import orbit_oracle
from conftest import random_expr, random_points
from orbit_oracle import oracle_iterate_orbit


class TestParams:
    def test_defaults(self):
        p = OrbitParams()
        assert p.max_iter == 1000
        assert p.escape_radius == 1e8
        assert p.bound_radius == 1e4
        assert p.min_oscillations == 3
        assert p.tail_window == 10
        assert p.log_escape == 8.0
        assert p.log_bound == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"escape_radius": 10.0, "bound_radius": 10.0},
            {"escape_radius": 5.0, "bound_radius": 50.0},
            {"bound_radius": 0.0},
            {"min_oscillations": 0},
            {"tail_window": 0},
            {"max_iter": 5, "tail_window": 6},
            {"max_iter": 2**31},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OrbitParams(**kwargs)

    def test_max_iter_up_to_int32_limit(self):
        # term_step is int32; the largest storable step is still allowed
        assert OrbitParams(max_iter=2**31 - 1).max_iter == 2**31 - 1


class TestOscillationCounting:
    def test_needs_completed_excursions(self):
        p = OrbitParams()  # thresholds at log10 8 and 4
        assert count_oscillations([0.0, 9.0, 3.0, 9.0, 1.0], p) == 2
        assert count_oscillations([0.0, 9.0, 5.0], p) == 0  # never returns below
        assert count_oscillations([0.0, 3.0, 2.0], p) == 0  # never leaves
        assert count_oscillations([], p) == 0

    def test_staying_high_is_one_excursion(self):
        p = OrbitParams()
        assert count_oscillations([9.0, 10.0, 11.0, 2.0], p) == 1

    def test_pole_magnitudes_count(self):
        # alternation through -inf (hitting 0) still completes excursions
        p = OrbitParams()
        assert count_oscillations([9.0, float("-inf"), 9.0, 0.0], p) == 2


class TestIterateOrbit:
    def test_reciprocal_square_trace(self):
        tr = iterate_orbit(parse("1/z^2"), 2.0, OrbitParams())
        assert tr.termination.kind == "pole"
        assert tr.termination.step == 9
        assert tr.oscillation_count == 2
        assert len(tr.magnitudes) == 10
        np.testing.assert_allclose(tr.magnitudes[:4], [0.301, -0.602, 1.204, -2.408], atol=5e-4)
        assert tr.points[0] == 2.0
        assert tr.points[1] == 0.25

    def test_seed_on_pole(self):
        tr = iterate_orbit(parse("1/z^2"), 0.0, OrbitParams())
        assert tr.termination == type(tr.termination)("pole", 0)
        assert tr.magnitudes == (float("-inf"),)

    def test_nonfinite_seed(self):
        tr = iterate_orbit(parse("z^2"), complex(float("nan"), 0), OrbitParams())
        assert tr.termination.kind == "overflow"
        assert tr.termination.step == 0

    def test_overflow_records_inf_magnitude(self):
        tr = iterate_orbit(parse("z^2"), 2.0, OrbitParams())
        assert tr.termination.kind == "overflow"
        assert tr.termination.step == 10
        assert tr.magnitudes[-1] == float("inf")

    def test_frozen_orbit_completes(self):
        tr = iterate_orbit(Z, 0.5, OrbitParams(max_iter=50))
        assert tr.termination.kind == "completed"
        assert tr.termination.step == 50
        assert len(tr.magnitudes) == 51
        assert len(set(tr.magnitudes)) == 1


# maps with poles (1/z at 0, 1/(z-1) at 1), overflow (z^64, 1e300*z) and
# exact fixed points (z everywhere, z^3 at 0 and 1, constant maps)
ORACLE_MAPS = PRESET_FUNCTIONS + (
    "1/z", "1/(z-1)", "z", "z^3", "2", "0*z", "exp(z)", "z^64", "z^-64", "1e300*z",
)
ORACLE_SEEDS = (
    0j, -0.0, 1.0, -1.0, 1j, 0.5, 2.0, 3.0, 5e-324, 1e-300, 1e300,
    complex(1e308, 1e308), math.inf, complex(0, -math.inf), math.nan,
)


def _bits(values) -> bytes:
    return np.array(values, dtype=np.complex128).tobytes()


def assert_same_trace(got, want):
    """Equal traces, magnitudes and points compared bit for bit."""
    assert got.termination == want.termination
    assert got.oscillation_count == want.oscillation_count
    assert _bits(got.seed) == _bits(want.seed)
    assert _bits(got.magnitudes) == _bits(want.magnitudes)
    assert _bits(got.points) == _bits(want.points)
    assert all(type(m) is float for m in got.magnitudes)
    assert all(type(p) is complex for p in got.points)


@st.composite
def orbit_params(draw):
    max_iter = draw(st.integers(1, 80))
    escape, bound = draw(st.sampled_from([(1e8, 1e4), (100.0, 10.0), (3.0, 2.0)]))
    return OrbitParams(
        max_iter=max_iter,
        escape_radius=escape,
        bound_radius=bound,
        min_oscillations=draw(st.integers(1, 4)),
        tail_window=draw(st.integers(1, max_iter)),
    )


class TestOracleAgreement:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(ORACLE_MAPS).map(parse),
            st.integers(0, 2**32 - 1).map(lambda s: random_expr(random.Random(s), 3)),
        ),
        st.one_of(
            st.sampled_from(ORACLE_SEEDS),
            st.complex_numbers(max_magnitude=4.0),
            st.complex_numbers(allow_nan=True, allow_infinity=True),
        ),
        orbit_params(),
    )
    def test_trace_matches_oracle(self, f, z0, params):
        assert_same_trace(iterate_orbit(f, z0, params), oracle_iterate_orbit(f, z0, params))

    @pytest.mark.parametrize("text", PRESET_FUNCTIONS)
    def test_full_length_orbits_match_oracle(self, text):
        f = parse(text)
        rng = random.Random(text)
        for _ in range(8):
            z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert_same_trace(
                iterate_orbit(f, z0, OrbitParams()), oracle_iterate_orbit(f, z0, OrbitParams())
            )


class TestOneEvaluationPerStep:
    @pytest.mark.parametrize(
        "text, z0, max_iter, steps",
        [
            ("sin(z)", 1.0, 60, 60),  # completed
            ("1/z^2", 0.0, 60, 1),  # pole at step 0
            ("1/z^2", 2.0, 60, 10),  # pole at step 9
            ("z^2", 2.0, 60, 10),  # overflow at step 10
            ("z^2", 1.0, 60, 1),  # exact fixed point at once
            ("z^2", 0.0, 60, 1),
            ("0.5*z", 1.0, 2000, 1076),  # underflows to the fixed point 0
            ("z^2", math.nan, 60, 0),  # non-finite seed: nothing to evaluate
            ("z^2", 0.5, 1, 1),
        ],
    )
    def test_eval_array_once_per_step(self, monkeypatch, text, z0, max_iter, steps):
        # bench/tracer.py counts orbit steps as calls of orbit.eval_array
        counts = {}

        def counting(module):
            real = module.eval_array

            def eval_array(e, z):
                counts[module] = counts.get(module, 0) + 1
                return real(e, z)

            monkeypatch.setattr(module, "eval_array", eval_array)

        counting(orbit)
        counting(orbit_oracle)
        f, params = parse(text), OrbitParams(max_iter=max_iter, tail_window=1)
        iterate_orbit(f, z0, params)
        oracle_iterate_orbit(f, z0, params)
        assert counts.get(orbit, 0) == counts.get(orbit_oracle, 0) == steps


class TestClassifyPoint:
    def test_reciprocal_square_is_bungee(self):
        c, tr = classify_point(parse("1/z^2"), 2.0, OrbitParams())
        assert c.verdict is Verdict.BUNGEE
        assert c.confidence == HEURISTIC
        assert c.oscillation_count == 2
        assert c.termination.kind == "pole"

    def test_squaring_map_inside_disc(self):
        c, _ = classify_point(parse("z^2"), 0.5, OrbitParams())
        assert c.verdict is Verdict.BOUNDED
        assert c.confidence == CONFIDENT
        assert c.termination.kind == "completed"

    def test_squaring_map_outside_disc(self):
        c, _ = classify_point(parse("z^2"), 2.0, OrbitParams())
        assert c.verdict is Verdict.ESCAPING
        assert c.confidence == CONFIDENT
        assert c.termination == type(c.termination)("overflow", 10)

    def test_pole_seed(self):
        c, _ = classify_point(parse("1/z^2"), 0.0, OrbitParams())
        assert c.verdict is Verdict.POLE
        assert c.confidence == CONFIDENT

    def test_escape_requires_sustained_tail(self):
        # sin keeps points near the real axis bounded
        c, _ = classify_point(parse("sin(z)"), 1.0, OrbitParams(max_iter=200, tail_window=10))
        assert c.verdict is Verdict.BOUNDED

    def test_undecided_on_straddling_tail(self):
        # orbit of |z|~2.5e3 under z+sin(z) drifts slowly; shrink radii to force
        # a tail that is neither all-above nor all-below
        p = OrbitParams(max_iter=8, escape_radius=3.0, bound_radius=2.0, tail_window=8)
        c, _ = classify_point(parse("z*1.05"), 2.5 / 1.05**4, p)
        assert c.verdict in (Verdict.UNDECIDED, Verdict.BUNGEE)
        assert c.confidence == HEURISTIC


class TestBatchAgreement:
    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 120)
        p = OrbitParams(max_iter=300)
        for text in ("z^2", "1/z^2", "z*exp(z^2)", "1+z+exp(-z)", "z+sin(z)"):
            f = parse(text)
            batch = classify_batch(f, pts, p)
            for i, z in enumerate(pts):
                c, _ = classify_point(f, complex(z), p)
                assert int(c.verdict) == int(batch.verdict[i]), (text, z)
                assert (c.confidence == CONFIDENT) == bool(batch.confident[i])
                assert c.oscillation_count == batch.oscillations[i]
                assert c.termination.step == batch.term_step[i]

    @pytest.mark.parametrize("text", ["10*z", "1e20/z", "-10*z"])
    def test_tail_rule_edges_match_scalar(self, text):
        # 10*z: log10|z_n| = log10|z_0| + n, so the seeds straddle the first
        # step of the tail window; 1e20/z alternates 10^a, 10^(20-a) above
        # the escape radius without ever being monotone
        p = OrbitParams(max_iter=20, tail_window=10)
        seeds = np.concatenate([10.0 ** np.linspace(-5, -1, 81), 10.0 ** np.linspace(8.5, 11.5, 13)])
        f = parse(text)
        batch = classify_batch(f, seeds, p)
        verdicts = set()
        for i, z in enumerate(seeds):
            c, _ = classify_point(f, complex(z), p)
            assert int(c.verdict) == int(batch.verdict[i]), (text, z)
            verdicts.add(c.verdict)
        assert Verdict.ESCAPING in verdicts
        assert verdicts - {Verdict.ESCAPING}

    def test_abs_overflow_seed_matches_scalar(self):
        # |z| overflows to inf although z is finite, so every tail magnitude
        # is inf; inf >= inf keeps the tail nondecreasing in both paths
        f, z, p = parse("-z"), 1.5e308 + 1.5e308j, OrbitParams()
        batch = classify_batch(f, np.array([z]), p)
        c, _ = classify_point(f, z, p)
        assert c.verdict == Verdict.ESCAPING and c.confidence == CONFIDENT
        assert int(batch.verdict[0]) == int(c.verdict)
        assert bool(batch.confident[0])

    def test_tail_values_window(self):
        b = classify_batch(parse("z^2"), np.array([0.5 + 0j]), OrbitParams(max_iter=20),
                           want_tail_values=True)
        tail = b.ordered_tail(0)
        assert tail.shape == (10,)
        # orbit of 0.5 under squaring collapses toward 0
        assert np.all(np.abs(tail) <= 0.5**2)

    def test_tail_values_opt_in(self):
        b = classify_batch(parse("z^2"), np.array([0.5 + 0j]), OrbitParams())
        assert b.tail_values is None
        with pytest.raises(ValueError):
            b.ordered_tail(0)


class TestMorePatienceKeepsConfidentVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_confident_verdicts_stable_under_longer_budget(self, seed):
        rng = np.random.default_rng(seed)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        short = OrbitParams(max_iter=150)
        long = OrbitParams(max_iter=600)
        f = parse("z^2")
        c1, _ = classify_point(f, z, short)
        c2, _ = classify_point(f, z, long)
        if c1.confidence == CONFIDENT:
            assert c1.verdict is c2.verdict


class TestFixedPoints:
    def test_squaring_map(self):
        reports = find_fixed_points(parse("z^2"), Rect(0, 2.0, 2.0))
        assert len(reports) == 2
        by_loc = sorted(reports, key=lambda r: abs(r.location))
        assert abs(by_loc[0].location) <= 1e-10
        assert by_loc[0].kind == "attracting"
        assert abs(by_loc[0].multiplier) <= 1e-10
        assert abs(by_loc[1].location - 1) <= 1e-10
        assert by_loc[1].kind == "repelling"
        assert abs(by_loc[1].multiplier - 2) <= 1e-9

    def test_sine_origin_is_indifferent(self):
        reports = find_fixed_points(parse("sin(z)"), Rect(0, 2.0, 2.0))
        assert len(reports) == 1
        r = reports[0]
        assert abs(r.location) <= 1e-8
        assert abs(r.multiplier - 1) <= 1e-8
        assert r.kind == "rationally_indifferent"
        assert r.root_of_unity_order == 1

    def test_multiplier_matches_derivative(self):
        f = parse("z*exp(-z^2)")
        fp = derivative(f)
        for r in find_fixed_points(f, Rect(0, 2.0, 2.0)):
            want = evaluate(fp, r.location)
            assert want.kind == "finite"
            assert abs(r.multiplier - want.value) <= 1e-9
            got = evaluate(f, r.location)
            assert abs(got.value - r.location) == r.residual

    def test_residual_small(self):
        for r in find_fixed_points(parse("z^2+0.1"), Rect(0, 2.0, 2.0)):
            assert r.residual <= 1e-8
