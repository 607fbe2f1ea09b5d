"""Orbit iteration, verdict classification, and fixed points."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import random
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bungee_lab import engine, orbit
from bungee_lab.engine import eval_array, evaluate
from bungee_lab.expr import (
    Add, Const, Cos, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Var, Z, add, derivative, parse,
)
from bungee_lab.orbit import (
    CONFIDENT,
    HEURISTIC,
    OrbitParams,
    Rect,
    Verdict,
    classify_batch,
    classify_point,
    find_fixed_points,
)
from bungee_lab.grid import GridSpec, classify_grid
from bungee_lab.presets import FATOU_PARAMS, PRESET_FUNCTIONS
from bungee_lab.verify import SamplerSpec

import orbit_oracle
from conftest import random_expr, random_points
from orbit_oracle import count_oscillations, oracle_iterate_orbit, oracle_summary, tail_flags


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
            {"escape_radius": float("inf")},
            {"escape_radius": float("nan")},
            {"escape_radius": float("inf"), "bound_radius": float("inf")},
            {"bound_radius": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OrbitParams(**kwargs)

    def test_max_iter_up_to_int32_limit(self):
        # term_step is int32; the largest storable step is still allowed
        assert OrbitParams(max_iter=2**31 - 1).max_iter == 2**31 - 1


def folded(magnitudes, params, chunk):
    """The streaming fold of magnitudes, fed chunk magnitudes at a time."""
    fold = orbit._Fold(params)
    for k in range(0, len(magnitudes), chunk):
        fold.add(np.array(magnitudes[k : k + chunk], dtype=np.float64))
    return fold


class TestOscillationCounting:
    # the oracle's count and the streaming fold, in chunks of every size

    @staticmethod
    def count(magnitudes, p):
        want = count_oscillations(magnitudes, p)
        for chunk in range(1, len(magnitudes) + 1):
            assert folded(magnitudes, p, chunk).oscillations == want, chunk
        return want

    def test_needs_completed_excursions(self):
        p = OrbitParams()  # thresholds at log10 8 and 4
        assert self.count([0.0, 9.0, 3.0, 9.0, 1.0], p) == 2
        assert self.count([0.0, 9.0, 5.0], p) == 0  # never returns below
        assert self.count([0.0, 3.0, 2.0], p) == 0  # never leaves
        assert count_oscillations([], p) == 0
        assert orbit._Fold(p).oscillations == 0

    def test_staying_high_is_one_excursion(self):
        p = OrbitParams()
        assert self.count([9.0, 10.0, 11.0, 2.0], p) == 1

    def test_pole_magnitudes_count(self):
        # alternation through -inf (hitting 0) still completes excursions
        p = OrbitParams()
        assert self.count([9.0, float("-inf"), 9.0, 0.0], p) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-math.inf, 0.0, 3.0, 4.0, 5.0, 8.0, 8.5, 9.0, 12.0, math.inf]),
                 max_size=24),
        st.integers(1, 8),
        st.integers(1, 24),
    )
    def test_fold_matches_the_oracle_flags(self, magnitudes, chunk, window):
        p = OrbitParams(max_iter=24, tail_window=window)
        fold = folded(magnitudes, p, chunk)
        all_below, tail_escape = tail_flags(magnitudes, p)
        assert fold.oscillations == count_oscillations(magnitudes, p)
        assert fold.all_below == all_below
        if magnitudes:
            assert (fold.run >= min(window, fold.length)) == tail_escape
        assert fold.length == len(magnitudes)
        assert fold.head == magnitudes[:10] and fold.tail == magnitudes[-10:]


class TestIterateOrbit:
    # what classify_point keeps of an orbit: its summary, and no points

    def test_reciprocal_square_trace(self):
        s = classify_point(parse("1/z^2"), 2.0, OrbitParams())
        assert s.termination.kind == "pole"
        assert s.termination.step == 9
        assert s.steps == 10
        assert s.oscillation_count == 2
        # ten magnitudes in all, so the head and the tail are the same ten
        assert len(s.head) == 10 and s.tail == s.head
        np.testing.assert_allclose(s.head[:4], [0.301, -0.602, 1.204, -2.408], atol=5e-4)
        tr = oracle_iterate_orbit(parse("1/z^2"), 2.0, OrbitParams())
        assert tr.points[0] == 2.0
        assert tr.points[1] == 0.25
        assert _bits(tr.magnitudes) == _bits(s.head)

    def test_seed_on_pole(self):
        s = classify_point(parse("1/z^2"), 0.0, OrbitParams())
        assert s.termination == type(s.termination)("pole", 0)
        assert s.steps == 1
        assert s.head == s.tail == (float("-inf"),)

    def test_nonfinite_seed(self):
        s = classify_point(parse("z^2"), complex(float("nan"), 0), OrbitParams())
        assert s.termination.kind == "overflow"
        assert s.termination.step == 0
        assert s.steps == 0
        assert s.head == s.tail == (float("inf"),)

    def test_overflow_records_inf_magnitude(self):
        s = classify_point(parse("z^2"), 2.0, OrbitParams())
        assert s.termination.kind == "overflow"
        assert s.termination.step == 10
        assert s.tail[-1] == float("inf")

    def test_frozen_orbit_completes(self):
        s = classify_point(Z, 0.5, OrbitParams(max_iter=50))
        assert s.termination.kind == "completed"
        assert s.termination.step == 50
        assert s.steps == 1
        assert len(s.head) == len(s.tail) == 10
        assert len(set(s.head + s.tail)) == 1


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


def assert_same_summary(got, want):
    """Equal summaries, magnitudes compared bit for bit."""
    assert got == want
    assert _bits(got.head) == _bits(want.head)
    assert _bits(got.tail) == _bits(want.tail)
    assert all(type(m) is float for m in got.head + got.tail)
    assert type(got.steps) is type(got.oscillation_count) is int
    assert type(got.all_below) is type(got.tail_escape) is bool


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


oracle_maps = st.one_of(
    st.sampled_from(ORACLE_MAPS).map(parse),
    st.integers(0, 2**32 - 1).map(lambda s: random_expr(random.Random(s), 3)),
)
oracle_seeds = st.one_of(
    st.sampled_from(ORACLE_SEEDS),
    st.complex_numbers(max_magnitude=4.0),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


class TestOracleAgreement:
    @settings(max_examples=400, deadline=None)
    @given(oracle_maps, oracle_seeds, orbit_params())
    def test_trace_matches_oracle(self, f, z0, params):
        assert_same_summary(classify_point(f, z0, params), oracle_summary(f, z0, params))

    @pytest.mark.parametrize("text", PRESET_FUNCTIONS)
    def test_full_length_orbits_match_oracle(self, text):
        f = parse(text)
        rng = random.Random(text)
        for _ in range(8):
            z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert_same_summary(
                classify_point(f, z0, OrbitParams()), oracle_summary(f, z0, OrbitParams())
            )


# maps and seeds whose orbits end after 16 consecutive step counts:
# "10*z" overflows, "0.5*z" underflows to the fixed point 0 and
# "(z+1e-300/z)-1" counts down to the pole at 0
EDGE_ORBITS = (
    [("10*z", 10.0 ** (300.5 - t)) for t in range(16)]
    + [("0.5*z", 2.0 ** (t - 1074)) for t in range(16)]
    + [("(z+1e-300/z)-1", float(t)) for t in range(16)]
    + [("1/z^2", 2.0), ("1/z", 1e9), ("z+sin(z)+2*pi", 0.5)]
)
EDGE_PARAMS = OrbitParams(max_iter=60, escape_radius=100.0, bound_radius=10.0, tail_window=4)


class TestChunkBoundaries:
    """The streaming summary does not depend on where the chunks end."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @settings(max_examples=150, deadline=None)
    @given(oracle_maps, oracle_seeds, orbit_params())
    def test_summary_matches_oracle(self, chunk, f, z0, params):
        with mock.patch.object(orbit, "CHUNK", chunk):
            got = classify_point(f, z0, params)
        assert_same_summary(got, oracle_summary(f, z0, params))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_orbits_ending_at_every_offset(self, monkeypatch, chunk):
        monkeypatch.setattr(orbit, "CHUNK", chunk)
        offsets = {}
        for text, z0 in EDGE_ORBITS:
            want = oracle_summary(parse(text), z0, EDGE_PARAMS)
            assert_same_summary(classify_point(parse(text), z0, EDGE_PARAMS), want)
            kind = want.termination.kind
            if kind == "completed" and want.steps < EDGE_PARAMS.max_iter:
                kind = "frozen"
            offsets.setdefault(kind, set()).add(want.steps % chunk)
        # each way of ending falls on the last step of a chunk, on the
        # first step of the next one, and everywhere between
        for kind in ("overflow", "frozen", "pole"):
            assert offsets[kind] == set(range(chunk)), kind


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
        # the summary counts the evaluations that the oracle makes through
        # eval_array, one per step
        calls = []
        real = orbit_oracle.eval_array

        def counting(e, z):
            calls.append(1)
            return real(e, z)

        monkeypatch.setattr(orbit_oracle, "eval_array", counting)
        f, params = parse(text), OrbitParams(max_iter=max_iter, tail_window=1)
        oracle_iterate_orbit(f, z0, params)
        assert classify_point(f, z0, params).steps == len(calls) == steps


class TestOneErrstatePerOrbit:
    # classify_point runs its loop and its folds under one np.errstate

    @pytest.mark.parametrize(
        "text, z0, kind",
        [("sin(z)", 1.0, "completed"), ("z^2", 2.0, "overflow"), ("1/z^2", 2.0, "pole")],
    )
    def test_restores_errstate(self, text, z0, kind):
        with np.errstate(over="raise", divide="warn", invalid="print", under="ignore"):
            before = np.geterr()
            s = classify_point(parse(text), z0, OrbitParams(max_iter=60))
            assert s.termination.kind == kind
            assert np.geterr() == before

    def test_restores_errstate_when_a_step_raises(self, monkeypatch):
        seen = []

        def failing(n_total, buf, fold, k):
            seen.append(np.geterr())
            raise RuntimeError("step failed")

        monkeypatch.setattr(engine, "orbit_loop", lambda e: failing)
        with np.errstate(over="raise", divide="warn", invalid="print", under="ignore"):
            before = np.geterr()
            with pytest.raises(RuntimeError, match="step failed"):
                classify_point(parse("z^2"), 0.5, OrbitParams())
            assert np.geterr() == before
        assert seen == [{"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}]
        # the block is closed: a bare eval_array opens its own errstate
        # again; two elements, since one would run the patched loop
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, status = eval_array(parse("z^2"), np.array([1e300, 1], dtype=np.complex128))
        assert status[0] == engine.OVERFLOW


class TestBoundedMemory:
    def test_peak_does_not_grow_with_max_iter(self):
        # the loop buffers one chunk of points and the summary keeps 20
        # magnitudes, so 100x the steps must not take 2x the memory
        f, z0 = parse("z*exp(-z^2)"), 0.5 + 0.1j
        classify_point(f, z0, OrbitParams(max_iter=10))  # compiles the loop

        def peak(max_iter):
            tracemalloc.start()
            try:
                s = classify_point(f, z0, OrbitParams(max_iter=max_iter))
                return tracemalloc.get_traced_memory()[1], s
            finally:
                tracemalloc.stop()

        small, _ = peak(10**3)
        big, s = peak(10**5)
        assert s.termination.kind == "completed" and s.steps == 10**5
        assert big <= 2 * small, (small, big)


class TestClassifyPoint:
    def test_reciprocal_square_is_bungee(self):
        c = classify_point(parse("1/z^2"), 2.0, OrbitParams())
        assert c.verdict is Verdict.BUNGEE
        assert c.confidence == HEURISTIC
        assert c.oscillation_count == 2
        assert c.termination.kind == "pole"

    def test_squaring_map_inside_disc(self):
        c = classify_point(parse("z^2"), 0.5, OrbitParams())
        assert c.verdict is Verdict.BOUNDED
        assert c.confidence == CONFIDENT
        assert c.termination.kind == "completed"

    def test_squaring_map_outside_disc(self):
        c = classify_point(parse("z^2"), 2.0, OrbitParams())
        assert c.verdict is Verdict.ESCAPING
        assert c.confidence == CONFIDENT
        assert c.termination == type(c.termination)("overflow", 10)

    def test_pole_seed(self):
        c = classify_point(parse("1/z^2"), 0.0, OrbitParams())
        assert c.verdict is Verdict.POLE
        assert c.confidence == CONFIDENT

    def test_escape_requires_sustained_tail(self):
        # sin keeps points near the real axis bounded
        c = classify_point(parse("sin(z)"), 1.0, OrbitParams(max_iter=200, tail_window=10))
        assert c.verdict is Verdict.BOUNDED

    def test_undecided_on_straddling_tail(self):
        # orbit of |z|~2.5e3 under z+sin(z) drifts slowly; shrink radii to force
        # a tail that is neither all-above nor all-below
        p = OrbitParams(max_iter=8, escape_radius=3.0, bound_radius=2.0, tail_window=8)
        c = classify_point(parse("z*1.05"), 2.5 / 1.05**4, p)
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
                c = classify_point(f, complex(z), p)
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
            c = classify_point(f, complex(z), p)
            assert int(c.verdict) == int(batch.verdict[i]), (text, z)
            verdicts.add(c.verdict)
        assert Verdict.ESCAPING in verdicts
        assert verdicts - {Verdict.ESCAPING}

    @pytest.mark.parametrize("ulps", [64, 256, 1024])
    def test_fixed_point_inside_the_tail_window(self, ulps):
        # the orbit halves its distance to 100 each step and lands on it
        # inside the last tail_window steps: the window holds decreasing
        # magnitudes above the escape radius, so its test fails
        f, z0 = parse("0.5*(z-100)+100"), 100 + ulps * math.ulp(100)
        p = OrbitParams(max_iter=11, escape_radius=50, bound_radius=30, tail_window=10)
        batch = classify_batch(f, np.array([z0]), p)
        c = classify_point(f, z0, p)
        assert c.verdict == oracle_summary(f, z0, p).verdict == Verdict.UNDECIDED
        assert int(batch.verdict[0]) == int(c.verdict)
        assert batch.term_step[0] == c.termination.step == p.max_iter

    def test_abs_overflow_seed_matches_scalar(self):
        # |z| overflows to inf although z is finite, so every tail magnitude
        # is inf; inf >= inf keeps the tail nondecreasing in both paths
        f, z, p = parse("-z"), 1.5e308 + 1.5e308j, OrbitParams()
        batch = classify_batch(f, np.array([z]), p)
        c = classify_point(f, z, p)
        assert c.verdict == Verdict.ESCAPING and c.confidence == CONFIDENT
        assert int(batch.verdict[0]) == int(c.verdict)
        assert bool(batch.confident[0])

    def test_failed_step_with_a_finite_value_is_no_orbit_point(self):
        # the seed lies above the escape radius and the map gives 0 there
        # with status POLE; counted as a point, that 0 would be a return
        # and make the verdict bungee
        f, z, p = parse("z*exp(-1/(z-1e9))"), 1e9 + 0j, OrbitParams()
        vals, status = eval_array(f, np.array([z, z]))
        assert status[0] == engine.POLE and vals[0] == 0
        c = classify_point(f, z, p)
        assert c.verdict == Verdict.POLE and c.oscillation_count == 0
        assert c.termination.step == 0
        for tails in (False, True):
            b = classify_batch(f, np.array([z]), p, want_tail_values=tails)
            assert int(b.verdict[0]) == int(Verdict.POLE), tails
            assert b.oscillations[0] == 0 and b.term_step[0] == 0, tails
        rows, held = b.ordered_tails([0])
        assert held[0].tolist() == [False] * (p.tail_window - 1) + [True]
        assert rows[0, held[0]].tolist() == [z]

    def test_nonfinite_seeds_hold_no_tail_point(self):
        b = classify_batch(parse("z^2"), np.array([np.inf, np.nan]), OrbitParams(),
                           want_tail_values=True)
        assert b.tail_last.tolist() == [-1, -1]
        _, held = b.ordered_tails([0, 1])
        assert not held.any()

    def test_tail_values_window(self):
        b = classify_batch(parse("z^2"), np.array([0.5 + 0j]), OrbitParams(max_iter=20),
                           want_tail_values=True)
        tail, held = b.ordered_tails([0])
        assert tail.shape == (1, 10) and held.all()
        # orbit of 0.5 under squaring collapses toward 0
        assert np.all(np.abs(tail) <= 0.5**2)

    # (map, seeds) at max_iter 400 and tail_window 10; each seed's orbit
    # overflows, hits a pole or freezes at the step noted, or completes.
    # A seed that ends fewer than 10 steps after an earlier one reads
    # tail points written before the live set shrank.
    TAIL_CASES = [
        # freeze at 0, overflow at 2 and 3, freeze at 11 and 20, overflow at 65
        ("z^2", [1, 1e100, 1e50, 0.5, 0.999, complex(math.cos(1), math.sin(1))]),
        ("10*z", [1 + 1j]),  # overflow at 309
        ("1/(10/z)", [1e-306, 1]),  # pole at 2 and at 308
        ("1/(z-1)", [2]),  # pole at 1
        ("1/z^2", [0.7 + 0.1j]),  # pole at 12
        ("z*exp(-z^2)", [0.3]),  # completes without freezing
        ("z+sin(z)", [2.0]),  # freeze at 4
    ]

    @pytest.mark.parametrize("text, seeds", TAIL_CASES)
    def test_ordered_tails_are_the_last_finite_points(self, text, seeds):
        self.assert_tails_match_oracle(text, seeds, OrbitParams(max_iter=400, tail_window=10))

    @pytest.mark.parametrize("max_iter", range(52, 66))
    def test_late_freeze_keeps_its_last_points(self, max_iter):
        # 0.5*z+1 freezes at 2 on step 54 from 0 and on step 50 from
        # 1.9, and not at all from 0.3i: over max_iter 52..65 the freezes
        # fall at every distance from the end of the orbit up to
        # tail_window, so a tail starts with up to tail_window - 1
        # points from before its freeze
        self.assert_tails_match_oracle(
            "0.5*z+1", [0, 0.3j, 1.9], OrbitParams(max_iter=max_iter, tail_window=10)
        )

    @staticmethod
    def assert_tails_match_oracle(text, seeds, p):
        f = parse(text)
        seeds = np.array(seeds, dtype=np.complex128)
        b = classify_batch(f, seeds, p, want_tail_values=True)
        rows, held = b.ordered_tails(np.arange(seeds.size))
        for i, z0 in enumerate(seeds):
            trace = oracle_iterate_orbit(f, z0, p)
            points = list(trace.points)
            if trace.termination.kind == "completed":
                # a frozen orbit repeats its last point up to max_iter
                points += [points[-1]] * (p.max_iter + 1 - len(points))
            want = np.array(points[-p.tail_window:], dtype=np.complex128).tobytes()
            assert rows[i, held[i]].tobytes() == want, (text, z0)
            # a short tail is missing its oldest points, not its newest
            assert held[i, -1] and np.all(np.diff(held[i].astype(int)) >= 0)

    def test_tail_values_opt_in(self):
        b = classify_batch(parse("z^2"), np.array([0.5 + 0j]), OrbitParams())
        assert b.tail_values is None
        with pytest.raises(ValueError):
            b.ordered_tails([0])


BATCH_FIELDS = ("verdict", "confident", "term_kind", "term_step", "oscillations")
# entire maps beyond the presets: a parabolic point off 0 (z^2+0.25),
# attracting cycles (z^2-0.75) and orbits through 0 that escape from
# there (z^2-4 from 2, 5*z-5 from 1), where a 0 or -inf in place of
# "no certificate" would retire the seed at z = 0; and parabolic points
# at 0 with petals of k = 2 (z-z^3, and z^3-z at multiplier -1), k = 1
# (z+z^2) and k = 4 (z*exp(z^4)), and none at i*z*exp(z^2), where
# f'(0)^2 = -1 (-z*exp(z^2) is a preset)
EXTRA_ENTIRE_MAPS = (
    "z^2-0.75", "z^2+0.25", "z^2-4", "5*z-5", "cos(z)-z", "z^3-z",
    "z-z^3", "z+z^2", "z*exp(z^4)", "i*z*exp(z^2)",
)
ENTIRE_MAPS = tuple(t for t in PRESET_FUNCTIONS if parse(t).entire) + EXTRA_ENTIRE_MAPS


def no_table(f, params):
    return orbit._NO_TABLE


def no_petal(f, params):
    return None


def seed_steps(f, seeds, params, patches) -> list[int]:
    """Seed-steps of classify_batch under each dict of orbit patches."""
    steps = []
    real = orbit.eval_array

    def counting(e, z):
        steps[-1] += z.size
        return real(e, z)

    with mock.patch.object(orbit, "eval_array", counting):
        for patch in patches:
            steps.append(0)
            with mock.patch.multiple(orbit, **patch) if patch else contextlib.nullcontext():
                classify_batch(f, seeds, params)
    return steps


def assert_retirement_changes_nothing(f, seeds, params):
    """classify_batch gives the same arrays with f's table and with none."""
    seeds = np.asarray(seeds, dtype=np.complex128)
    got = classify_batch(f, seeds, params)
    with mock.patch.object(orbit, "_retire_table", no_table):
        want = classify_batch(f, seeds, params)
    for name in BATCH_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (str(f), name)
    return got


def table_radii(f, params):
    """The certified radii r*(R) for R = 0..max_iter (one more than a run uses)."""
    longer = dataclasses.replace(params, max_iter=params.max_iter + 1)
    return 10.0 ** (orbit._retire_table(f, longer) + orbit.LOG10_MARGIN)


def adversarial_seeds(f, params) -> np.ndarray:
    """Seeds at the edges of f's table, of its petal and of the bound disk.

    Signed zeros and subnormals; radii just inside and outside r*(R) at
    R = 0, 1, 2, max_iter - 1 and max_iter (a seed at r*(max_iter) is
    retired, if at all, right after its first step) and around
    bound_radius / 2 and bound_radius; each on eight rays.  For a map
    with a petal, points on each of its k attracting axes at Re u just
    inside and outside sigma and at |z| just inside and outside floor.
    """
    r_star = table_radii(f, params)
    picks = sorted({0, 1, 2, params.max_iter - 1, params.max_iter} & set(range(r_star.size)))
    radii = [5e-324, 1e-310, 1e-300, params.bound_radius / 2, params.bound_radius]
    radii += [r for r in r_star[picks] if np.isfinite(r)]
    rays = np.exp(1j * np.pi * np.arange(8) / 4)
    ring = [r * s for r in radii for s in (1 - 1e-9, 1, 1 + 1e-9)]
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324j]
    return np.concatenate([zeros, (np.array(ring)[:, None] * rays).ravel(), petal_edges(f, params)])


def petal_edges(f, params) -> np.ndarray:
    """Points on the petal's attracting axes, at the edges of its certificate.

    On an axis, a z^k = -t for some t > 0, and there u = 1 / (k t).
    """
    petal = orbit._petal(f, params) if f.entire else None
    if petal is None:
        return np.empty(0, dtype=np.complex128)
    k, a = petal.k, petal.a
    ts = [1 / (k * petal.sigma * s) for s in (1 - 1e-9, 1 + 1e-9)]
    ts += [abs(a) * (petal.floor * s) ** k for s in (1 - 1e-9, 1 + 1e-9)]
    axes = (-1 / a) ** (1 / k) * np.exp(2j * np.pi * np.arange(k) / k)
    return (np.array(ts)[:, None] ** (1 / k) * axes).ravel()


class TestRetirement:
    """Retiring seeds on the majorant certificate changes no output."""

    @pytest.mark.parametrize("params", [OrbitParams(), FATOU_PARAMS], ids=["default", "fatou"])
    @pytest.mark.parametrize("text", PRESET_FUNCTIONS + EXTRA_ENTIRE_MAPS)
    def test_maps_at_their_params(self, text, params):
        f = parse(text)
        seeds = np.concatenate([adversarial_seeds(f, params) if f.entire else [],
                                random_points(random.Random(text), 40, 3.0)])
        assert_retirement_changes_nothing(f, seeds, params)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), orbit_params(), st.lists(oracle_seeds, max_size=6))
    def test_random_entire_maps(self, seed, params, drawn):
        f = random_expr(random.Random(seed), 3, entire=True)
        seeds = np.concatenate([adversarial_seeds(f, params), np.array(drawn, dtype=np.complex128)])
        assert_retirement_changes_nothing(f, seeds, params)

    @pytest.mark.parametrize("text, z0", [("z^2-4", 2.0), ("5*z-5", 1.0), ("z^2-4", -2.0)])
    def test_orbit_through_zero_still_escapes(self, text, z0):
        # the orbit reaches 0 after one step and escapes from there: the
        # table has no certificate that far back, so 0 must not retire
        b = assert_retirement_changes_nothing(parse(text), [z0], OrbitParams())
        assert b.verdict[0] == Verdict.ESCAPING

    def test_retirement_saves_steps(self):
        # the parabolic seeds of z*exp(z^2) retire on entering the petal,
        # and about halfway on the table alone
        f, p = parse("z*exp(z^2)"), OrbitParams()
        seeds = random_points(random.Random(3), 200, 0.3)
        steps = seed_steps(f, seeds, p, [{}, {"_retire_table": no_table}])
        assert steps[0] < 0.6 * steps[1], steps

    def test_petal_saves_steps(self):
        f, p = parse("z*exp(z^2)"), OrbitParams()
        seeds = random_points(random.Random(3), 200, 0.3)
        steps = seed_steps(f, seeds, p, [{}, {"_petal": no_petal}])
        assert steps[0] < 0.2 * steps[1], steps
        assert_retirement_changes_nothing(f, seeds, p)

    # the parabolic preset maps, two compositions of them, and maps with
    # other k and f'(0): text, f'(0), k, a
    PETALS = [
        ("z*exp(z^2)", 1, 2, 1),
        ("z*exp(-z^2)", 1, 2, -1),
        ("-z*exp(z^2)", -1, 2, 1),
        ("sin(z)", 1, 2, -1 / 6),
        ("sin(sin(z))", 1, 2, -1 / 3),
        ("(-z*exp(z^2))*exp((-z*exp(z^2))^2)", -1, 2, 2),
        ("z-z^3", 1, 2, -1),
        ("z^3-z", -1, 2, -1),
        ("z+z^2", 1, 1, 1),
        ("z*exp(z^4)", 1, 4, 1),
        ("-i*z*exp(i*z^4)", -1j, 4, 1j),
    ]

    @pytest.mark.parametrize("params", [OrbitParams(), FATOU_PARAMS], ids=["default", "fatou"])
    @pytest.mark.parametrize("text, lam, k, a", PETALS)
    def test_petal_parameters(self, text, lam, k, a, params):
        f = parse(text)
        petal = orbit._petal(f, params)
        assert (petal.lam, petal.k) == (lam, k)
        assert petal.a == pytest.approx(a, rel=1e-15)
        assert petal.ka == k * petal.a
        assert 1 < petal.sigma <= 50
        # the petal's edge on an axis lies just inside radius; sigma's
        # allowance for the rounding of w moves it by about 1e-5
        assert petal.radius == pytest.approx((k * abs(a) * petal.sigma) ** (-1 / k), rel=1e-4)
        assert 0.2 < petal.radius <= min(orbit.PETAL_RHO, params.bound_radius / 2)
        assert petal.floor <= table_radii(f, params)[params.max_iter - 1]

    @pytest.mark.parametrize("text", [case[0] for case in PETALS])
    def test_in_petal_edges(self, text):
        # classify_batch's float test takes what the certificate covers
        # and no more: Re u >= sigma and floor <= |z| <= radius
        petal = orbit._petal(parse(text), OrbitParams())
        k, a, sigma = petal.k, petal.a, petal.sigma
        s = np.concatenate([[0], np.geomspace(1e-2, 10 * sigma, 20)])
        u = np.concatenate([sigma * (1 + 1e-6) + 1j * s, sigma * (1 - 1e-6) - 1j * s])
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        z = (((-1 / (k * a * u)) ** (1 / k))[:, None] * roots).ravel()
        inside = np.repeat(u.real > sigma, k)
        # on an axis, around floor, and far out where w overflows
        for r, want in ((petal.floor * (1 + 1e-6), True), (petal.floor * (1 - 1e-6), False),
                         (1e200, False)):
            axis = (r * np.abs(a) ** (1 / k)) * (-1 / a) ** (1 / k) * roots
            z = np.concatenate([z, axis])
            inside = np.concatenate([inside, np.full(k, want)])
        with np.errstate(all="ignore"):
            got = orbit._in_petal(petal, z, np.log10(np.abs(z)))
        assert (got == inside).all(), z[got != inside]

    @pytest.mark.parametrize("text, sigma", [("z*exp(z^2)", 3.31), ("sin(z)", 10.11)])
    def test_petal_sizes(self, text, sigma):
        petal = orbit._petal(parse(text), OrbitParams())
        assert petal.sigma == pytest.approx(sigma, abs=0.01)
        assert 5e-5 < petal.floor < 5e-4

    @pytest.mark.parametrize("text", [
        "z^2", "z+sin(z)", "1+z+exp(-z)", "sin(z)+2*pi", "0.5*z*exp(z^2)", "i*z*exp(z^2)",
        "z", "-z", "z*exp(z^10)", "1/z^2", "z*exp(z^2)+1e-300", "z*exp(z^2+1e-300)",
        "z*exp(1e6*z^2)",
    ])
    def test_no_petal(self, text):
        # no parabolic point at 0 with lam^k = 1 and k + 1 < PETAL_TERMS,
        # an exp argument that is not exactly 0 at 0, or no bound below 1/2
        assert orbit._petal(parse(text), OrbitParams()) is None

    def test_petal_needs_room_below_the_bound(self):
        f = parse("z*exp(z^2)")
        assert orbit._petal(f, OrbitParams(escape_radius=1.0, bound_radius=0.5)).radius <= 0.25
        assert orbit._petal(f, OrbitParams(escape_radius=1e-20, bound_radius=1e-30)) is None

    def test_petals_build_once_across_threads(self):
        f, p = parse("z*exp(-z^2)"), OrbitParams()
        builds = []
        real = orbit._build_petal

        def counting(*args):
            builds.append(1)
            time.sleep(0.05)
            return real(*args)

        with mock.patch.object(orbit, "_build_petal", counting):
            with ThreadPoolExecutor(max_workers=2) as pool:
                petals = list(pool.map(lambda _: orbit._petal(f, p), range(4)))
        assert len(builds) == 1 and all(q is petals[0] for q in petals)
        assert petals[0] is not None

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, -1, 1j, -1j]),
        st.integers(1, 4),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any),
        orbit_params(),
        st.lists(oracle_seeds, max_size=6),
    )
    def test_random_parabolic_maps(self, lam, k, c, params, drawn):
        # lam z exp(c z^k), c off the binary grid: a petal exactly where
        # lam^k = 1, with a = c
        c = complex(*c) / 7
        z = Var()
        f = Mul(Const(lam), Mul(z, Exp(Mul(Const(c), Pow(z, k) if k > 1 else z))))
        petal = orbit._petal(f, params)
        if lam**k != 1:
            assert petal is None
        elif petal is not None:
            assert petal.a == pytest.approx(c, rel=1e-15)
        seeds = np.concatenate([adversarial_seeds(f, params), np.array(drawn, dtype=np.complex128)])
        assert_retirement_changes_nothing(f, seeds, params)

    def test_table_entries(self):
        f, p = parse("z*exp(z^2)"), OrbitParams()
        table = orbit._retire_table(f, p)
        assert table.size == p.max_iter
        # cached on f per bound radius and length
        assert orbit._retire_table(f, p) is table
        assert orbit._retire_table(f, OrbitParams(max_iter=10)).size == 10
        assert table[0] == math.log10(p.bound_radius / 2) - orbit.LOG10_MARGIN
        assert np.all(np.diff(table) <= 0)
        # r*(R) of r exp(r^2) falls like 1/sqrt(2R)
        assert 0.02 < 10 ** table[999] < 0.025
        escaping = orbit._retire_table(parse("z^2-4"), p)
        assert np.isfinite(escaping[:3]).all() and np.isnan(escaping[6:]).all()
        assert orbit._retire_table(parse("1/z^2"), p).size == 0

    def test_tables_build_once_across_threads(self):
        f, p = parse("z*exp(-z^2)"), OrbitParams()
        builds = []
        real = orbit._build_table

        def counting(*args):
            builds.append(1)
            time.sleep(0.05)
            return real(*args)

        with mock.patch.object(orbit, "_build_table", counting):
            with ThreadPoolExecutor(max_workers=2) as pool:
                tables = list(pool.map(lambda _: orbit._retire_table(f, p), range(4)))
        assert len(builds) == 1 and all(t is tables[0] for t in tables)

    @pytest.mark.parametrize("text", ["z*exp(-z^2)", "sin(z)", "z^2"])
    def test_tails_run_every_step(self, text):
        def refuse(f, params):
            raise AssertionError("a classification with tails read the table or the petal")

        f, p = parse(text), OrbitParams(max_iter=300)
        seeds = random_points(random.Random(text), 30, 1.0)
        with mock.patch.multiple(orbit, _retire_table=refuse, _petal=refuse):
            with_tails = classify_batch(f, seeds, p, want_tail_values=True)
        plain = classify_batch(f, seeds, p)
        for name in BATCH_FIELDS:
            assert getattr(with_tails, name).tobytes() == getattr(plain, name).tobytes()
        # with the table and the petal built, tails still hold the last points
        TestBatchAgreement.assert_tails_match_oracle(text, seeds[:6], p)

    def test_no_warnings_while_building(self):
        # tier-1 turns RuntimeWarning into an error; the tables overflow freely
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ENTIRE_MAPS + ("exp(exp(exp(z)))", "(1e200*z)^64", "1e-300*z"):
                for bound in (1e4, 30.0, 1e300, 3e-300):
                    p = OrbitParams(escape_radius=2 * bound, bound_radius=bound)
                    orbit._retire_table(parse(text), p)
                    orbit._petal(parse(text), p)


class TestRetirementMemory:
    def test_table_is_capped_at_retire_steps(self):
        # a table of max_iter entries would take 16 GiB here; capped, the
        # build holds a few float64 arrays of RETIRE_STEPS entries at
        # once, and the seeds overflow within a few steps
        seeds = np.array([3.0, -3.0, 5.0])
        for text in ("z^2", "z*exp(z^2)"):
            f, p = parse(text), OrbitParams(max_iter=2**31 - 1)
            t0 = time.perf_counter()
            tracemalloc.start()
            try:
                b = classify_batch(f, seeds, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            elapsed = time.perf_counter() - t0
            assert (b.term_kind == orbit.TERM_OVERFLOW).all()
            assert orbit._retire_table(f, p).size == orbit.RETIRE_STEPS
            assert peak < 96 * orbit.RETIRE_STEPS, (text, peak)
            assert elapsed < 10, (text, elapsed)

    def test_drift_finish_holds_no_path(self):
        # finished seeds of 1+z+exp(-z) step in place: a million steps
        # run in seconds, and memory is a few arrays of the seeds, not of
        # the steps left (2^16 of them take 1 MiB as complex128); with
        # tails, so that no retirement table is built.  tracemalloc slows
        # each step about twentyfold, so it watches the shorter run
        seeds = np.concatenate([np.linspace(40, 60, 48) + 1j, 1j * np.linspace(-3, 3, 16)])
        f = parse(FATOU_F)
        for max_iter, traced in ((2**20, False), (2**16, True)):
            p = dataclasses.replace(FATOU_PARAMS, max_iter=max_iter)
            t0 = time.perf_counter()
            if traced:
                tracemalloc.start()
            try:
                b = classify_batch(f, seeds, p, want_tail_values=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            elapsed = time.perf_counter() - t0
            assert (b.verdict == Verdict.ESCAPING).all()
            assert (b.tail_last == max_iter).all()
            assert peak < 64 * 1024, (max_iter, peak)
            assert traced or elapsed < 10, elapsed


FATOU_F, FATOU_G = "1+z+exp(-z)", "1+z+exp(-z)+2*pi*i"
FATOU_RUNS = [(FATOU_F, "samples"), (FATOU_F, "g"), (FATOU_G, "samples"), (FATOU_G, "f")]
PARAMS = {"fatou": FATOU_PARAMS, "default": OrbitParams()}


def no_drift(f):
    return None


@functools.lru_cache(maxsize=None)
def fatou_seeds(kind: str) -> np.ndarray:
    """The fatou-pair preset's 4096 samples, or their images under f or g
    as verify_invariance passes them on (0 where the image is not finite)."""
    pts = SamplerSpec(Rect(0, 8.0, 8.0), 4096, 42).points()
    if kind == "samples":
        return pts
    vals, status = eval_array(parse(FATOU_G if kind == "g" else FATOU_F), pts)
    return np.where(status == engine.OK, vals, 0)


TAIL_FIELDS = BATCH_FIELDS + ("tail_values", "tail_last")


def counted_runs(f, seeds, params, want_tail_values=False):
    """classify_batch with the drift finish and without it, and the
    seed-steps of f each evaluated; every output array must agree, bit
    for bit, the tails included."""
    seeds = np.asarray(seeds, dtype=np.complex128)
    steps = []
    real = orbit.eval_array

    def counting(e, z):
        steps[-1] += z.size
        return real(e, z)

    runs = []
    with mock.patch.object(orbit, "eval_array", counting):
        for form in (orbit._drift_form, no_drift):
            steps.append(0)
            with mock.patch.object(orbit, "_drift_form", form):
                runs.append(classify_batch(f, seeds, params, want_tail_values))
    for name in TAIL_FIELDS if want_tail_values else BATCH_FIELDS:
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), (str(f), name)
    return runs, steps


def drift_runs(f, seeds, params):
    """The run with the drift finish, without tails, and the seed-steps
    of both runs; the runs with tails must agree too."""
    counted_runs(f, seeds, params, want_tail_values=True)
    runs, steps = counted_runs(f, seeds, params)
    return runs[0], steps


@functools.lru_cache(maxsize=None)
def fatou_run(text: str, kind: str, params: str):
    return drift_runs(parse(text), fatou_seeds(kind), PARAMS[params])


@functools.lru_cache(maxsize=None)
def fatou_tails_run(text: str):
    """A fatou-pair property-a call: text with tails on the samples."""
    return counted_runs(parse(text), fatou_seeds("samples"), FATOU_PARAMS, want_tail_values=True)


def drift_map(c: complex, k: int, order: int) -> Expr:
    """z + c + k exp(-z), its terms in one of several orders and groupings."""
    terms = [Z, Const(c), *[Exp(Neg(Z))] * k]
    random.Random(order).shuffle(terms)
    if order % 2:
        return functools.reduce(add, terms)
    return functools.reduce(lambda acc, t: add(t, acc), terms)


def forced_runs(text, steps, seeds, params):
    """The tails of classify_batch on text with a drift finish by steps,
    whatever _drift_form says, and without one."""
    steps = [complex(c) for c in steps]
    form = orbit._Drift(
        tuple(map(np.complex128, steps)),
        sum(abs(c.real) for c in steps),
        sum(abs(c.imag) for c in steps),
    )
    runs = []
    for d in (form, None):
        with mock.patch.object(orbit, "_drift_form", lambda e: d):
            runs.append(classify_batch(parse(text), np.array(seeds, dtype=np.complex128), params, True))
    return runs


class TestDriftRetirement:
    """Finishing drifting seeds of z + c + k exp(-z) changes no output."""

    @pytest.mark.parametrize("params", sorted(PARAMS))
    @pytest.mark.parametrize("text, kind", FATOU_RUNS)
    def test_fatou_inputs(self, text, kind, params):
        fatou_run(text, kind, params)

    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_drift_map_grid(self, params):
        # the drift-map of the gallery, at 128x128 and two workers
        f, p = parse(FATOU_F), PARAMS[params]
        spec = GridSpec(0j, 12.0, 12.0, 128, 128)
        got = classify_grid(f, spec, p, workers=2)
        with mock.patch.object(orbit, "_drift_form", no_drift):
            want = classify_grid(f, spec, p, workers=2)
        for name in BATCH_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_saves_steps_on_f_over_g_samples(self):
        # the no-tail call of the fatou pair's invariance check
        _, (on, off) = fatou_run(FATOU_F, "g", "fatou")
        assert on <= 0.1 * off, (on, off)

    def test_huge_jump_stays_undecided(self):
        # exp(-z) throws g(sample 1900) far out in one step, where a unit
        # step is below the rounding of z and |z| no longer grows measurably
        z1 = evaluate(parse(FATOU_F), fatou_seeds("g")[1900]).value
        assert abs(z1 - (6.6e15 - 4.8e15j)) < 0.1e15
        b, _ = fatou_run(FATOU_F, "g", "fatou")
        assert b.verdict[1900] == Verdict.UNDECIDED

    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_g_far_below_the_real_axis(self, params):
        # g moves by 1 + 2 pi i: from Im z << 0, |z| falls although Re z
        # grows, and at fatou params the farthest seeds still fall at the end
        seeds = (np.array([40, 41, 60, 150])[:, None] - 1j * np.geomspace(10, 1e5, 40)).ravel()
        b, _ = drift_runs(parse(FATOU_G), seeds, PARAMS[params])
        if params == "fatou":
            assert (b.verdict == Verdict.UNDECIDED).sum() > 20
            assert (b.verdict == Verdict.ESCAPING).sum() > 20

    def test_retires_inside_the_window_after_a_dip(self):
        # from 100 - 170i the magnitude under g falls until about step 23,
        # inside the last tail_window steps, and grows from there on: the
        # seed is finished after its first step and fails the tail test
        p = OrbitParams(max_iter=30, escape_radius=50, bound_radius=30, tail_window=10)
        b, (on, off) = drift_runs(parse(FATOU_G), [100 - 170j], p)
        assert b.verdict[0] == Verdict.UNDECIDED
        assert on == 1 and off == p.max_iter

    @pytest.mark.parametrize("params", sorted(PARAMS))
    @pytest.mark.parametrize("text", [FATOU_F, FATOU_G, "z+1e299+exp(-z)", "z+1e306+exp(-z)", "z+1e-13"])
    def test_edge_seeds(self, text, params):
        # either side of Re z = DRIFT_X, with Im z = +-0, and near 1e300,
        # where z + 1e306 overflows within the run and z + 1 no longer moves
        x = orbit.DRIFT_X
        reals = [np.nextafter(x, 0), x, np.nextafter(x, 99), x - 1e-9, x + 1e-9, 1e300, 1e300 * (1 + 1e-9)]
        imags = np.array([0, -0.0, 1e-300, 60, -60, 3e3, 1e299])
        seeds = (np.array(reals)[:, None] + 1j * imags).ravel()
        seeds = np.concatenate([seeds, 1e300 * np.exp(1j * np.linspace(-1.5, 1.5, 7)), [1e299]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, _ = drift_runs(parse(text), seeds, PARAMS[params])
        if text == "z+1e306+exp(-z)":
            assert b.term_kind[-1] == orbit.TERM_OVERFLOW

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(complex, st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)),
        st.integers(0, 2),
        st.integers(0, 5),
        st.lists(st.builds(complex, st.floats(30, 1e6), st.floats(-1e6, 1e6)), max_size=8),
        orbit_params(),
    )
    def test_random_maps(self, c, k, order, seeds, params):
        # every order and grouping, finished or not
        f = drift_map(c, k, order)
        drift_runs(f, seeds + [complex(orbit.DRIFT_X, 0), complex(orbit.DRIFT_X, -0.0), 1e15 + 1e15j], params)

    @pytest.mark.parametrize("text", [FATOU_F, FATOU_G])
    def test_tails_calls_finish_drifting_seeds(self, text):
        # the fatou pair's two property-a calls give the arrays of a call
        # without tails, and tails bit for bit those of every step
        (on, off), _ = fatou_tails_run(text)
        plain, _ = fatou_run(text, "samples", "fatou")
        for name in BATCH_FIELDS:
            assert getattr(on, name).tobytes() == getattr(plain, name).tobytes(), name
        assert (on.tail_last == FATOU_PARAMS.max_iter).sum() > 3000

    @pytest.mark.parametrize("text", [FATOU_F, FATOU_G])
    def test_tails_calls_save_steps(self, text):
        _, (on, off) = fatou_tails_run(text)
        assert on <= 0.1 * off, (on, off)

    @pytest.mark.parametrize("max_iter", [44, 48, 52])
    def test_seeds_finished_inside_the_window(self, max_iter):
        # the fatou samples reach Re z = 40 after about 36 to 44 steps: at
        # these lengths many are finished inside the window, and their
        # tails hold points from before
        p = dataclasses.replace(FATOU_PARAMS, max_iter=max_iter)
        seeds = fatou_seeds("samples")[:1024]
        for text in (FATOU_F, FATOU_G):
            _, (on, off) = counted_runs(parse(text), seeds, p, want_tail_values=True)
            assert on < 0.95 * off, (on, off)

    def test_subtracted_constants(self):
        # a - K is a + (-K): z+1+exp(-z)-30*i is finished; in
        # z+1-30*i+exp(-z) the exp term is added to a sum that holds
        # -30i, so its seeds run every step
        seeds = fatou_seeds("samples")[:1024]
        assert orbit._drift_form(parse("z+1+exp(-z)-30*i")).steps == (1, -30j)
        assert orbit._drift_form(parse("z-(-1)+exp(-z)")).steps == (1,)
        assert orbit._drift_form(parse("z+1-30*i+exp(-z)")) is None
        for text in ("z+1+exp(-z)-30*i", "z+1-30*i+exp(-z)"):
            drift_runs(parse(text), seeds, FATOU_PARAMS)

    @pytest.mark.parametrize(
        "text, steps, seeds",
        [
            # the exp term is added to a sum whose imaginary part is 0 at
            # point 36, where it does not vanish
            ("z+(1+i)+exp(-z)", [1 + 1j], [40.5 - 36j, 41 - 35j]),
            ("z+(1-30*i)+exp(-z)", [1 - 30j], [40.5 + 930j, 40.5 + 960j]),
            # Re z falls to where the exp term no longer vanishes
            ("z-1+exp(-z)", [-1], [41 + 0.5j, 45 + 1j]),
        ],
    )
    def test_rejected_forms_need_every_step(self, text, steps, seeds):
        p = OrbitParams(max_iter=40, escape_radius=50, bound_radius=30, tail_window=10)
        assert orbit._drift_form(parse(text)) is None
        drift_runs(parse(text), seeds, p)
        forced, every = forced_runs(text, steps, seeds, p)
        assert forced.tail_values.tobytes() != every.tail_values.tobytes()

    def test_drift_form(self):
        for text in ("z+exp(z)", "z*exp(-z)", "z-1+exp(-z)", "2*z+exp(-z)", "z+exp(-z)-1",
                     "1+z+z+exp(-z)", "exp(-z)", "-1+z+exp(-z)", "z^2+1", "1-z+exp(-z)",
                     "exp(-z)+(z+(2+exp(-z)))", "z+exp(-z)+exp(-z)*2", "z"):
            assert orbit._drift_form(parse(text)) is None, text
        for text, steps in ((FATOU_F, (1,)), (FATOU_G, (1, 2j * math.pi)), ("z+1", (1,)),
                            ("exp(-z)+(z+2)+exp(-z)", (2,)), ("1+(z+exp(-z))", (1,)),
                            ("z+exp(-z)", ()), ("z+(1+2)+exp(-z)+i", (3, 1j))):
            assert orbit._drift_form(parse(text)).steps == steps, text
        # a long sum flattens without recursion
        long = functools.reduce(add, [Z] + [Const(0.5), Exp(Neg(Z))] * 600)
        assert orbit._drift_form(long).steps == (0.5,) * 600
        # the orders drift_map draws: an exp term added to a sum without
        # z or with an imaginary constant makes the map run every step
        forms = [orbit._drift_form(drift_map(1 + 1j, 2, order)) for order in range(6)]
        assert 0 < sum(d is None for d in forms) < 6


def mp_majorant(e, r):
    """The dominant series M(r) at 50 digits, with no slack."""
    if isinstance(e, Var):
        return r
    if isinstance(e, Const):
        return abs(mpmath.mpc(e.value))
    if isinstance(e, (Add, Sub)):
        return mp_majorant(e.a, r) + mp_majorant(e.b, r)
    if isinstance(e, Mul):
        return mp_majorant(e.a, r) * mp_majorant(e.b, r)
    if isinstance(e, Neg):
        return mp_majorant(e.a, r)
    if isinstance(e, Pow):
        return mp_majorant(e.base, r) ** e.exponent
    fn = {Exp: mpmath.exp, Sin: mpmath.sinh, Cos: mpmath.cosh}[type(e)]
    return fn(mp_majorant(e.a, r))


def oracle_radii(f, params) -> list[float]:
    """r*(R) at a few R, bound_radius / 2 and a spread of plain radii."""
    r_star = table_radii(f, params)
    picks = [R for R in (0, 1, 2, 10, 100, params.max_iter) if R < r_star.size]
    radii = [params.bound_radius / 2, 1e-300, 1e-5, 0.5, 1.0, 3.0, 30.0]
    return radii + [r for r in r_star[picks] if np.isfinite(r)]


class TestMajorantOracle:
    """The inequality the certificate rests on, checked independently.

    The float walk bounds the 50-digit dominant series from above, and
    bounds every computed |f(z)| on circles of the table's radii.
    """

    @staticmethod
    def check(f, params):
        radii = oracle_radii(f, params)
        with np.errstate(all="ignore"):
            walked = orbit.majorant(f, np.array(radii))
        with mpmath.workdps(50):
            for r, b in zip(radii, walked):
                if np.isfinite(b):
                    assert mpmath.mpf(float(b)) >= mp_majorant(f, mpmath.mpf(r)), (str(f), r)
        # 64 points on each circle, the axes among them
        z = (np.array(radii)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
        vals, status = eval_array(f, z)
        with np.errstate(all="ignore"):
            bound = orbit.majorant(f, np.nextafter(np.abs(z), np.inf))
        finite = np.isfinite(bound)
        assert (status[finite] == engine.OK).all(), str(f)
        assert (np.abs(vals[finite]) <= bound[finite]).all(), str(f)

    @pytest.mark.parametrize("params", [OrbitParams(), FATOU_PARAMS], ids=["default", "fatou"])
    @pytest.mark.parametrize("text", ENTIRE_MAPS)
    def test_maps(self, text, params):
        self.check(parse(text), params)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e4, 30.0, 2.0]))
    def test_random_entire_maps(self, seed, bound):
        f = random_expr(random.Random(seed), 4, entire=True)
        self.check(f, OrbitParams(max_iter=50, escape_radius=2 * bound, bound_radius=bound))


class TestPetalOracle:
    """The step the petal rests on, checked at 50 digits.

    On the edge Re u = sigma of the petal, from its axes out to where
    |z| = floor, f as eval_array computes it moves Re u up by more than
    1/2, with u = -1/(k a z^k) evaluated exactly from the float points.
    """

    @pytest.mark.parametrize("text", [case[0] for case in TestRetirement.PETALS])
    def test_edge_steps_inward(self, text):
        f = parse(text)
        petal = orbit._petal(f, OrbitParams())
        k, a, sigma = petal.k, petal.a, petal.sigma
        # u = sigma + i s up to |u| = 1 / (k |a| floor^k), on both sides
        top = math.sqrt((k * abs(a) * petal.floor**k) ** -2 - sigma**2)
        s = np.geomspace(1e-3, top, 200)
        u = sigma + 1j * np.concatenate([-s, [0], s])
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        z = (((-1 / (k * a * u)) ** (1 / k))[:, None] * roots).ravel()
        vals, status = eval_array(f, z)
        assert (status == engine.OK).all()
        with mpmath.workdps(50):
            ka = k * mpmath.mpc(a)

            def re_u(w):
                return (-1 / (ka * mpmath.mpc(w) ** k)).real

            for z0, z1 in zip(z.tolist(), vals.tolist()):
                assert abs(z0) >= petal.floor * (1 - 1e-6) and abs(z0) <= petal.radius
                assert re_u(z1) - re_u(z0) > 0.5, (text, z0)


class TestMorePatienceKeepsConfidentVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_confident_verdicts_stable_under_longer_budget(self, seed):
        rng = np.random.default_rng(seed)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        short = OrbitParams(max_iter=150)
        long = OrbitParams(max_iter=600)
        f = parse("z^2")
        c1 = classify_point(f, z, short)
        c2 = classify_point(f, z, long)
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

    @pytest.mark.parametrize("starts", [0, -3])
    def test_rejects_empty_lattice(self, starts):
        with pytest.raises(ValueError, match="starts"):
            find_fixed_points(parse("z^2"), Rect(0, 2.0, 2.0), starts=starts)

    def test_residual_small(self):
        for r in find_fixed_points(parse("z^2+0.1"), Rect(0, 2.0, 2.0)):
            assert r.residual <= 1e-8
