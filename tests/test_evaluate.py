"""Evaluation semantics: statuses, rescue rules, derivatives."""

from __future__ import annotations

import cmath
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bungee_lab import engine
from bungee_lab.engine import eval_array, evaluate
from bungee_lab.expr import Z, Div, Pow, compose, derivative, parse
from bungee_lab.presets import PRESET_FUNCTIONS

from conftest import random_expr, random_points
from eval_oracle import oracle_eval

# points where statuses change: underflowing reciprocals, overflowing
# squares, exp and trig blow-ups, and non-finite seeds
ADVERSARIAL = np.array(
    [0, 5e-324, 1e308, -1e308, 1000, -1000, 1000j, -1000j, complex("inf"), complex("nan")],
    dtype=np.complex128,
)


class TestScalarStatuses:
    def test_plain_finite(self):
        r = evaluate(parse("1/z^2"), 2.0)
        assert r.kind == "finite"
        assert r.value == 0.25

    def test_pole_at_zero(self):
        r = evaluate(parse("1/z^2"), 0.0)
        assert r.kind == "pole"

    def test_nonfinite_seed_is_overflow(self):
        assert evaluate(parse("z^2"), complex(float("nan"), 0)).kind == "overflow"
        assert evaluate(parse("z^2"), complex(float("inf"), 0)).kind == "overflow"

    def test_exp_overflow(self):
        r = evaluate(parse("exp(z)"), 1000.0)
        assert r.kind == "overflow"

    def test_division_rescues_overflowed_denominator(self):
        # numerator is fine, denominator blows up: the quotient is 0
        r = evaluate(parse("1/exp(z)"), 1000.0)
        assert r.kind == "finite"
        assert r.value == 0j

    def test_pole_propagates_through_division(self):
        assert evaluate(parse("1/(1/z)"), 0.0).kind == "pole"

    def test_finite_operands_infinite_quotient_is_pole(self):
        # 5e-324 is representable but its reciprocal is not
        assert evaluate(parse("1/z"), 5e-324).kind == "pole"

    def test_overflow_propagates_through_add(self):
        assert evaluate(parse("exp(z)+1"), 1000.0).kind == "overflow"

    def test_trig_overflow_on_large_imaginary(self):
        assert evaluate(parse("sin(z)"), 1000j).kind == "overflow"
        assert evaluate(parse("cos(z)"), 1000j).kind == "overflow"


class TestStatusOrder:
    """Status rules that hold however the evaluator is organised."""

    def test_overflow_survives_a_finite_value(self):
        # exp(-inf) is 0, yet the inner exp overflowed
        r = evaluate(parse("exp(-exp(z))"), 1000.0)
        assert r.kind == "overflow"

    def test_cancelled_overflow_stays_overflow(self):
        assert evaluate(parse("exp(z)-exp(z)"), 1000.0).kind == "overflow"

    def test_left_operand_status_wins(self):
        assert evaluate(parse("1/(z-1000)+exp(z)"), 1000.0).kind == "pole"
        assert evaluate(parse("exp(z)+1/(z-1000)"), 1000.0).kind == "overflow"

    def test_negative_power_rescue(self):
        r = evaluate(parse("z^-2"), 1e200)
        assert r.kind == "finite"
        assert r.value == 0j


class TestOracleAgreement:
    """eval_array against the recursive reference evaluator, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**63 - 1),
        st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=6),
    )
    def test_matches_oracle(self, seed, extra):
        e = random_expr(random.Random(seed), 6)
        pts = np.concatenate([ADVERSARIAL, np.array(extra, dtype=np.complex128)])
        pts = np.concatenate([pts, random_points(np.random.default_rng(seed), 8)])
        vals, stats = eval_array(e, pts)
        want_vals, want_stats = oracle_eval(e, pts)
        assert stats.dtype == np.uint8 and vals.dtype == np.complex128
        assert np.array_equal(stats, want_stats), str(e)
        ok = stats == engine.OK
        assert np.array_equal(vals[ok], want_vals[ok]), str(e)
        assert np.array_equal(vals[ok].view(np.uint64), want_vals[ok].view(np.uint64))
        # one-element arrays take other numpy loops than long ones, and
        # keep their statuses as Python scalars
        for k in range(pts.size):
            v1, s1 = eval_array(e, pts[k : k + 1])
            assert s1[0] == stats[k]
            if s1[0] == engine.OK:
                assert v1.tobytes() == vals[k : k + 1].tobytes()

    def test_preset_maps_match_oracle(self):
        pts = np.concatenate([ADVERSARIAL, random_points(np.random.default_rng(3), 500, 4.0)])
        for text in PRESET_FUNCTIONS:
            e = parse(text)
            vals, stats = eval_array(e, pts)
            want_vals, want_stats = oracle_eval(e, pts)
            assert np.array_equal(stats, want_stats), text
            ok = stats == engine.OK
            assert np.array_equal(vals[ok].view(np.uint64), want_vals[ok].view(np.uint64)), text
            # one-element arrays, as a scalar orbit step evaluates them
            for k in range(ADVERSARIAL.size + 64):
                v1, s1 = eval_array(e, pts[k : k + 1])
                assert s1[0] == want_stats[k], (text, pts[k])
                if s1[0] == engine.OK:
                    assert v1.tobytes() == want_vals[k : k + 1].tobytes(), (text, pts[k])

    @pytest.mark.parametrize(
        "text, z0, kind",
        [
            ("z/2", 1 + 1j, "finite"),  # every operand OK, every quotient finite
            ("1/exp(z)", 1000, "finite"),  # rescued: the divisor overflows
            ("(z+1)/exp(-z)", -1000, "finite"),  # rescued under a numerator status
            ("1/z", 0, "pole"),
            ("z/(z-1000)", 1000, "pole"),
            ("1/(1/z)", 0, "pole"),  # a POLE divisor is not rescued
            ("exp(z)/z", 1000, "overflow"),  # failing numerator
            ("exp(z)/2", 1000, "overflow"),  # failing numerator, OK divisor
            ("(1/z)/z", 0, "pole"),  # failing numerator: a pole
            ("z/2", complex("inf"), "overflow"),
        ],
    )
    def test_division_statuses_match_oracle(self, text, z0, kind):
        e = parse(text)
        assert evaluate(e, z0).kind == kind
        pts = np.concatenate(
            [ADVERSARIAL, np.array([z0], dtype=np.complex128),
             random_points(np.random.default_rng(5), 32, 4.0)]
        )
        vals, stats = eval_array(e, pts)
        want_vals, want_stats = oracle_eval(e, pts)
        assert np.array_equal(stats, want_stats)
        ok = stats == engine.OK
        assert np.array_equal(vals[ok].view(np.uint64), want_vals[ok].view(np.uint64))
        for k in range(pts.size):
            v1, s1 = eval_array(e, pts[k : k + 1])
            assert s1[0] == want_stats[k], pts[k]
            if s1[0] == engine.OK:
                assert v1.tobytes() == want_vals[k : k + 1].tobytes(), pts[k]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_division_free_overflow_iff_some_node_nonfinite(self, seed):
        # the claim that lets eval_array check finiteness only at a few
        # nodes: without division, a result is OVERFLOW exactly when some
        # node value in its tree is non-finite
        e = random_expr(random.Random(seed), 6)
        pts = np.concatenate([ADVERSARIAL, random_points(np.random.default_rng(seed), 8, 40.0)])
        nodes, stack = [], [e]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children())
        if any(isinstance(n, Div) or (isinstance(n, Pow) and n.exponent < 0) for n in nodes):
            return
        with np.errstate(all="ignore"):
            some_nonfinite = np.zeros(pts.shape, dtype=bool)
            for node in nodes:
                some_nonfinite |= ~np.isfinite(oracle_eval(node, pts)[0])
        _, stats = eval_array(e, pts)
        assert np.array_equal(stats == engine.OVERFLOW, some_nonfinite), str(e)
        assert not (stats == engine.POLE).any()


# constant-rooted and constant-heavy trees: one-element calls return
# constants made once at compile time
CONSTANT_TREES = ["2", "exp(1000)", "1/0", "0*exp(z)", "1+z+exp(-z)+2*pi*i", "z^-3"]


class TestOneElement:
    """One-element calls against whole arrays and the oracle."""

    @pytest.mark.parametrize("text", CONSTANT_TREES)
    def test_matches_array_and_oracle(self, text):
        e = parse(text)
        pts = np.concatenate([ADVERSARIAL, random_points(np.random.default_rng(13), 16, 4.0)])
        vals, stats = eval_array(e, pts)
        want_vals, want_stats = oracle_eval(e, pts)
        assert np.array_equal(stats, want_stats), text
        for k in range(pts.size):
            v1, s1 = eval_array(e, pts[k : k + 1])
            assert s1[0] == stats[k], (text, pts[k])
            if s1[0] == engine.OK:
                assert v1.tobytes() == vals[k : k + 1].tobytes() == want_vals[k : k + 1].tobytes()

    @pytest.mark.parametrize("text", CONSTANT_TREES + ["z", "z^2", "1/z", "1/exp(z)"])
    def test_status_is_uint8_shaped_like_z(self, text):
        for z0 in (0, 0.5, 1000, complex("inf")):
            vals, status = eval_array(parse(text), np.array([z0], dtype=np.complex128))
            assert status.dtype == np.uint8 and status.shape == (1,)
            assert vals.dtype == np.complex128 and vals.shape == (1,)

    @pytest.mark.parametrize("text", CONSTANT_TREES + ["z^2", "1/exp(z)"])
    def test_writes_into_results_cannot_reach_a_later_call(self, text):
        e = parse(text)
        for z0 in (0, 0.5, 1000):
            z = np.array([z0], dtype=np.complex128)
            want_vals, want_status = (a.copy() for a in eval_array(e, z))
            vals, status = eval_array(e, z)
            # shared results (every status, constant values) are
            # read-only; the rest belong to the caller
            with pytest.raises(ValueError):
                status[0] = engine.POLE
            if text == "2":
                with pytest.raises(ValueError):
                    vals[0] = 7
            elif vals.flags.writeable:
                vals[0] = 7
            again_vals, again_status = eval_array(e, z)
            assert again_status.tobytes() == want_status.tobytes(), (text, z0)
            assert again_vals.tobytes() == want_vals.tobytes(), (text, z0)


# the seeds of the shape tests: finite, pole, subnormal, exp overflow,
# non-finite
SHAPE_POINTS = np.array([0.5 + 0.1j, 0, 5e-324, 1000, complex("inf"), -1000j], dtype=np.complex128)


class TestSizeSplit:
    """One-element input and every other size take different plan bodies."""

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (1, 1), (2, 3)])
    @pytest.mark.parametrize("text", ["1/z", "z*exp(-z^2)", "2", "z+1"])
    def test_results_shaped_like_z(self, text, shape):
        e = parse(text)
        n = math.prod(shape)
        for k in range(SHAPE_POINTS.size - n + 1):
            z = SHAPE_POINTS[k : k + n].reshape(shape)
            vals, status = eval_array(e, z)
            assert vals.shape == status.shape == shape
            assert vals.dtype == np.complex128 and status.dtype == np.uint8
            want_vals, want_status = oracle_eval(e, z.reshape(-1))
            assert status.tobytes() == want_status.tobytes(), (text, z)
            ok = want_status == engine.OK
            assert vals.reshape(-1)[ok].tobytes() == want_vals[ok].tobytes(), (text, z)

    def test_constants_stay_per_plan(self):
        # z+1, z+2 and z+2*pi*i compile to one source and share its code;
        # each plan must still see its own constants
        exprs = [parse(t) for t in ("z+1", "z+2", "2*z+1e-300", "z+2*pi*i", "1/z+0.5")]
        pts = np.concatenate([SHAPE_POINTS, random_points(np.random.default_rng(17), 8)])
        want = [oracle_eval(e, pts) for e in exprs]
        for _ in range(3):
            for e, (want_vals, want_status) in zip(exprs, want):
                vals, status = eval_array(e, pts)
                assert status.tobytes() == want_status.tobytes(), str(e)
                ok = want_status == engine.OK
                assert vals[ok].tobytes() == want_vals[ok].tobytes(), str(e)
                for k in range(pts.size):
                    v1, s1 = eval_array(e, pts[k : k + 1])
                    assert s1[0] == want_status[k], (str(e), pts[k])
                    if s1[0] == engine.OK:
                        assert v1.tobytes() == want_vals[k : k + 1].tobytes(), (str(e), pts[k])
        plans = [e.__dict__["_plan"] for e in exprs]
        assert plans[0].one.__code__ is plans[1].one.__code__ is plans[3].one.__code__
        assert plans[0].many.__code__ is plans[1].many.__code__ is plans[3].many.__code__


class TestSharedPlan:
    def test_threads_share_one_plan(self):
        # grid workers evaluate one Expr at once: the first calls race to
        # compile its plan, and every call must use buffers of its own;
        # the one-element inputs run the plan's other body at the same time
        e = parse("z*exp(-z^2) + 1/(z-0.5)^2")
        inputs = [random_points(np.random.default_rng(k), 4000 + k) for k in range(8)]
        inputs += [np.array([z0], dtype=np.complex128) for z0 in (0.3 + 0.2j, 0.5, 1000j, 0)]
        want = [oracle_eval(e, z) for z in inputs]
        failures = []

        def work(k):
            try:
                for _ in range(20):
                    vals, stats = eval_array(e, inputs[k])
                    ok = stats == engine.OK
                    if not (np.array_equal(stats, want[k][1])
                            and vals[ok].tobytes() == want[k][0][ok].tobytes()):
                        failures.append(k)
            except Exception as exc:  # a thread's exception would be lost
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestNegativePowers:
    def test_matches_explicit_division(self):
        pts = np.array([0.0, 2.0, 1e200, 5e-162], dtype=np.complex128)
        va, sa = eval_array(parse("z^-2"), pts)
        vb, sb = eval_array(parse("1/z^2"), pts)
        assert np.array_equal(sa, sb)
        ok = sa == engine.OK
        assert np.array_equal(va[ok], vb[ok])
        # spot-check the interesting rows: pole at 0, rescue at 1e200
        assert list(sa) == [engine.POLE, engine.OK, engine.OK, engine.POLE]
        assert va[2] == 0j

    def test_positive_power_by_squaring(self):
        r = evaluate(parse("z^13"), 1.1 + 0.3j)
        assert r.kind == "finite"
        assert abs(r.value - (1.1 + 0.3j) ** 13) <= 1e-12 * abs(r.value)


class TestArrayAgreement:
    def test_array_matches_scalar(self):
        rng = random.Random(7)
        exprs = [random_expr(rng, 6) for _ in range(40)]
        pts = random_points(np.random.default_rng(7), 25)
        for e in exprs:
            vals, stats = eval_array(e, pts)
            for k, z in enumerate(pts):
                r = evaluate(e, complex(z))
                assert engine.STATUS_NAMES[stats[k]] == r.kind
                if r.kind == "finite":
                    assert vals[k] == r.value

    def test_nonfinite_input_rows_flagged(self):
        pts = np.array([1.0, complex(float("inf"), 0)], dtype=np.complex128)
        _, stats = eval_array(Z, pts)
        assert stats[0] == engine.OK
        assert stats[1] == engine.OVERFLOW


class TestComposition:
    def test_eval_of_composition_is_composition_of_evals(self):
        f, g = parse("z^2"), parse("1/z^2")
        r = evaluate(compose(f, g), 2.0)
        assert r.kind == "finite"
        assert r.value == 0.0625

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_composition_homomorphism(self, seed):
        rng = random.Random(seed)
        f = random_expr(rng, 5)
        g = random_expr(rng, 5)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        inner = evaluate(g, z)
        if inner.kind != "finite":
            return
        direct = evaluate(compose(f, g), z)
        stepped = evaluate(f, inner.value)
        assert direct.kind == stepped.kind
        if direct.kind == "finite":
            scale = max(1.0, abs(stepped.value))
            assert abs(direct.value - stepped.value) <= 1e-12 * scale

    def test_entire_expressions_never_report_pole(self):
        rng = random.Random(99)
        pts = random_points(np.random.default_rng(99), 50)
        found = 0
        while found < 40:
            e = random_expr(rng, 6)
            if not e.entire:
                continue
            found += 1
            _, stats = eval_array(e, pts)
            assert not (stats == engine.POLE).any()


class TestDerivative:
    def test_gaussian_closed_form(self):
        f = parse("z*exp(-z^2)")
        fp = derivative(f)
        for z in (0.3, -1.2 + 0.4j, 0.05j):
            want = cmath.exp(-z * z) * (1 - 2 * z * z)
            got = evaluate(fp, z)
            assert got.kind == "finite"
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want))

    def test_against_central_differences(self):
        rng = np.random.default_rng(11)
        texts = ["z^2", "1/z^2", "z*exp(z^2)", "1+z+exp(-z)", "z+sin(z)", "cos(z)"]
        for text in texts:
            f = parse(text)
            fp = derivative(f)
            checked = 0
            for z in random_points(rng, 400):
                z = complex(z)
                if abs(z) < 0.3:
                    continue
                h = 1e-6 * (1 + abs(z))
                lo, hi = evaluate(f, z - h), evaluate(f, z + h)
                sym = evaluate(fp, z)
                if "finite" != lo.kind or "finite" != hi.kind or "finite" != sym.kind:
                    continue
                fd = (hi.value - lo.value) / (2 * h)
                assert abs(sym.value - fd) <= 1e-6 * max(1.0, abs(sym.value)), text
                checked += 1
                if checked >= 100:
                    break
            assert checked >= 100, text

    def test_derivative_of_reciprocal(self):
        fp = derivative(parse("1/z"))
        r = evaluate(fp, 2.0)
        assert r.kind == "finite"
        assert abs(r.value - (-0.25)) <= 1e-15
