"""Sampled relation checks: containment, invariance, commutation, translates."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import threading
from unittest import mock

import numpy as np
import pytest

from bungee_lab import orbit, presets, verify
from bungee_lab.expr import parse
from bungee_lab.grid import MAX_GRID_PIXELS
from bungee_lab.orbit import OrbitParams, Rect
from bungee_lab.presets import FATOU_PARAMS
from bungee_lab.verify import (
    SamplerSpec,
    shared_classifications,
    verify_commute,
    verify_composition_containments,
    verify_containment,
    verify_invariance,
    verify_partition,
    verify_property_a,
    verify_translate,
    verify_value_identity,
)

BIDISC = Rect(0, 2.0, 2.0)
SQUARE4 = Rect(0, 4.0, 4.0)


def sampler(count=600, seed=42, rect=SQUARE4):
    return SamplerSpec(rect, count, seed)


class TestSampler:
    def test_deterministic(self):
        a = sampler().points()
        b = sampler().points()
        assert np.array_equal(a, b)

    def test_seed_changes_points(self):
        assert not np.array_equal(sampler(seed=1).points(), sampler(seed=2).points())

    def test_points_inside_rect(self):
        pts = sampler(rect=Rect(1 + 2j, 2.0, 4.0)).points()
        assert np.all(np.abs(pts.real - 1) <= 1.0)
        assert np.all(np.abs(pts.imag - 2) <= 2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SamplerSpec(BIDISC, 0)

    def test_rejects_more_samples_than_grid_pixels(self):
        with pytest.raises(ValueError, match="at most"):
            SamplerSpec(BIDISC, MAX_GRID_PIXELS + 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec(BIDISC, 10, -1)


class TestReportShape:
    def test_key_order(self):
        r = verify_partition(parse("z^2"), sampler(100), OrbitParams(max_iter=100))
        assert list(r.to_dict().keys()) == [
            "relation",
            "f",
            "g",
            "params",
            "seed",
            "samples_total",
            "samples_confident",
            "violations",
            "violation_examples",
            "runtime_ms",
            "detail",
        ]
        assert r.runtime_ms >= 0
        assert r.params["max_iter"] == 100


class TestContainment:
    def test_true_relation_has_no_violations(self):
        p = OrbitParams(max_iter=400)
        reports = verify_composition_containments(parse("z^2"), parse("1/z^2"), sampler(), p)
        assert len(reports) == 2
        for r in reports:
            assert r.violations == 0
            assert r.samples_confident > 0
            assert r.violation_examples == []

    def test_false_relation_reports_witnesses(self):
        p = OrbitParams(max_iter=400)
        r = verify_containment(
            [(parse("z^2"), "bounded")],
            [(parse("z^2"), "escaping")],
            sampler(),
            p,
            relation="bounded-in-escaping",
            f_text="z^2",
        )
        assert r.violations > 0
        assert 0 < len(r.violation_examples) <= 20
        ex = r.violation_examples[0]
        assert set(ex) == {"z", "lhs", "rhs"}
        z = complex(*ex["z"])
        assert abs(z) < 1  # interior of the disc stays bounded under z^2

    def test_union_of_the_left_side_is_rejected(self):
        with pytest.raises(ValueError, match="lhs_mode"):
            verify_containment(
                [(parse("z^2"), "bounded")], [], sampler(100), OrbitParams(),
                lhs_mode="any",
            )

    def test_exponential_pair_containments(self):
        p = OrbitParams(max_iter=400)
        reports = verify_composition_containments(
            parse("z*exp(z^2)"), parse("-z*exp(z^2)"), sampler(800), p
        )
        for r in reports:
            assert r.violations == 0
            assert r.samples_confident <= r.samples_total


class TestInvariance:
    def test_forward_invariance_clean_pairs(self):
        p = OrbitParams(max_iter=600)
        f = parse("z*exp(z^2)")
        for kind in ("escaping", "bounded"):
            r = verify_invariance(f, f, kind, sampler(800), p)
            assert r.relation == f"{kind}-set-forward-invariant"
            assert r.violations == 0
            assert r.detail["kind"] == kind
            assert r.detail["members_at_z"] >= 0

    def test_violations_detected_for_wrong_map(self):
        # push escaping points of z^2 through a contraction: membership breaks
        p = OrbitParams(max_iter=300)
        r = verify_invariance(parse("z^2"), parse("z*0.001"), "escaping", sampler(600), p)
        assert r.violations > 0
        assert len(r.violation_examples) <= 20
        assert r.detail["reverse_only"] >= 0

    def test_examples_have_orbit_context(self):
        p = OrbitParams(max_iter=300)
        r = verify_invariance(parse("z^2"), parse("z*0.001"), "escaping", sampler(600), p)
        ex = r.violation_examples[0]
        assert set(ex) == {"z", "gz", "z_verdict", "gz_verdict"}
        assert ex["z_verdict"] == "escaping"
        assert ex["gz_verdict"] != "escaping"


class TestCommute:
    def test_commuting_pair(self):
        r = verify_commute(parse("z^2"), parse("1/z^2"), sampler(rect=BIDISC))
        assert r.violations == 0
        assert r.detail["commutes"] is True
        assert r.detail["max_relative_error"] <= 1e-9
        assert not r.detail["inconclusive"]

    def test_sign_flipped_exponential_pair(self):
        r = verify_commute(parse("z*exp(z^2)"), parse("-z*exp(z^2)"), sampler(rect=BIDISC))
        assert r.detail["commutes"] is True

    def test_non_commuting_pair(self):
        r = verify_commute(parse("z*exp(z^2)"), parse("0.5*z*exp(z^2)"), sampler(rect=BIDISC))
        assert r.violations > 0
        assert r.detail["commutes"] is False
        w = r.detail["witness"]
        assert w["relative_error"] > 1e-9
        # the witness records both composite values at the worst point
        assert len(w["f_of_g"]) == 2 and len(w["g_of_f"]) == 2

    def test_inconclusive_when_no_usable_points(self):
        # exp(z)^k overflows everywhere on a far-out rectangle
        r = verify_commute(
            parse("exp(z)"), parse("exp(z)+1"),
            SamplerSpec(Rect(1e6, 1.0, 1.0), 50, 42),
        )
        assert r.detail["inconclusive"] is True
        assert r.detail["commutes"] is False

    def test_tolerance_respected(self):
        near = verify_commute(parse("z^2"), parse("1/z^2"), sampler(rect=BIDISC), tol=1e-20)
        assert near.violations > 0  # rounding noise exceeds an absurd tolerance

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_vacuous_tolerance(self, tol):
        # nan flags nothing, inf passes everything, a negative tol flags all
        with pytest.raises(ValueError, match="tolerance"):
            verify_commute(parse("z^2"), parse("z+1"), sampler(rect=BIDISC), tol=tol)


class TestValueIdentity:
    def test_composition_square_equals_fourth_iterate(self):
        from bungee_lab.expr import compose, iterate_expr

        f, g = parse("z*exp(z^2)"), parse("-z*exp(z^2)")
        lhs = iterate_expr(compose(f, g), 2)
        rhs = iterate_expr(f, 4)
        r = verify_value_identity(lhs, rhs, sampler(100, rect=BIDISC))
        assert r.violations == 0
        assert r.detail["max_relative_error"] <= 1e-9

    def test_detects_mismatch(self):
        r = verify_value_identity(parse("z^2"), parse("z^3"), sampler(100, rect=BIDISC))
        assert r.violations > 0


class TestTranslate:
    def test_exact_period_of_sine(self):
        r = verify_translate(parse("sin(z)"), 2 * math.pi,
                             sampler(100, rect=BIDISC), OrbitParams())
        assert r.violations == 0
        assert r.detail["identity_holds"] is True
        assert r.detail["max_error"] < 1e-9
        assert r.detail["set_agreement"]["disagreeing"] == 0
        assert r.samples_confident > 0

    def test_zero_translate_is_trivially_exact(self):
        r = verify_translate(parse("z^2"), 0.0, sampler(100, rect=BIDISC), OrbitParams())
        assert r.violations == 0
        assert r.detail["identity_holds"] is True

    def test_pseudo_period_counterexample(self):
        r = verify_translate(parse("1+z+exp(-z)"), 2j * math.pi,
                             sampler(100, rect=BIDISC), OrbitParams())
        assert r.violations > 0
        assert r.detail["identity_holds"] is False
        ff = r.detail["first_failure"]
        assert ff["n"] == 2
        # at n=2 the translated orbit has drifted by exactly one extra period
        assert abs(ff["error"] - 2 * math.pi) < 1e-6

    def test_first_failure_annotates_its_own_witness(self):
        # the first failure (n = 3) is not the lowest violating sample
        r = verify_translate(parse("z^2-1"), 1e-10, sampler(200, rect=BIDISC), OrbitParams())
        ff = r.detail["first_failure"]
        zs = [e["z"] for e in r.violation_examples]
        assert len(zs) == 20 and len({tuple(z) for z in zs}) == 20
        annotated = [e for e in r.violation_examples if "n" in e]
        assert annotated == [{"z": ff["z"], "n": ff["n"], "error": ff["error"]}]
        assert list(annotated[0]) == ["z", "n", "error"]
        assert r.violation_examples[0] == {"z": [0.5479120971119267, -0.12224312049589536]}

    def test_drift_law_for_displacement_map(self):
        r = verify_translate(parse("z+sin(z)"), 2 * math.pi,
                             sampler(100, rect=BIDISC), OrbitParams())
        assert r.detail["drift_identity_holds"] is True
        assert r.detail["max_drift_relative_error"] < 1e-9

    @pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": math.inf},
                                        {"tol": -1.0}, {"n_max": -5}])
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            verify_translate(parse("sin(z)"), 2 * math.pi,
                             sampler(100, rect=BIDISC), OrbitParams(), **kwargs)

    def test_exact_law_excludes_drift_map(self):
        r = verify_translate(parse("z+sin(z)"), 2 * math.pi,
                             sampler(100, rect=BIDISC), OrbitParams())
        assert r.detail["identity_holds"] is False

    @pytest.mark.parametrize("preset", ["fatou-pair", "sine-drift-pair"])
    def test_drift_signature_fails_when_inconclusive(self, preset):
        # 5 samples leave fewer usable ones than a conclusive report needs
        (check,) = [c for c in presets.run_preset(preset, samples=5)
                    if c.name == "translate-drift-signature"]
        assert check.report["detail"]["inconclusive"] is True
        assert check.passed is False


class TestPropertyAAndPartition:
    def test_escaping_orbits_forwarded(self):
        p = OrbitParams(max_iter=600)
        r = verify_property_a(parse("z*exp(z^2)"), parse("-z*exp(z^2)"), sampler(800), p)
        assert r.relation == "escaping-orbits-forwarded"
        assert r.violations == 0

    def test_tails_call_retires_bounded_seeds(self):
        # f reads only the tails of escaping g-orbits, so g's tails call
        # retires bounded seeds on the table and the petal like any other
        # call: it gives the report of a run of every step, in under a
        # tenth of its 2,180,510 seed-steps
        f, g = parse("z^2"), parse("z*exp(z^2)")
        s, p = SamplerSpec(Rect(0, 8, 8), 4096, 42), OrbitParams()
        steps, reports = [], []
        real = orbit.eval_array

        def counting(e, z):
            steps[-1] += z.size
            return real(e, z)

        with mock.patch.object(orbit, "eval_array", counting):
            for table in (orbit._retire_table, lambda e, params: orbit._NO_TABLE):
                steps.append(0)
                with mock.patch.object(orbit, "_retire_table", table):
                    reports.append(verify_property_a(f, g, s, p).to_dict())
        for r in reports:
            del r["runtime_ms"]
        assert reports[0] == reports[1]
        assert reports[0]["samples_confident"] > 800
        assert steps[0] < 0.1 * steps[1], steps

    def test_partition_counts_cover_all_samples(self):
        p = OrbitParams(max_iter=300)
        r = verify_partition(parse("1/z^2"), sampler(500), p)
        assert sum(r.detail["counts"].values()) == r.samples_total
        assert r.detail["entire"] is False
        assert 0.0 <= r.detail["decisive_fraction"] <= 1.0

    def test_partition_of_entire_map_has_no_poles(self):
        p = OrbitParams(max_iter=300)
        r = verify_partition(parse("z^2"), sampler(500), p)
        assert r.detail["counts"]["pole"] == 0
        assert r.detail["entire"] is True


FATOU_F, FATOU_G = parse("1+z+exp(-z)"), parse("1+z+exp(-z)+2*pi*i")
FATOU_RECT = Rect(0, 8.0, 8.0)
# f = g - 30i sends points near Im w = 30 just past the radius 50 back
# inside it: a g-orbit there violates until Re w passes about 49
STEER_G = parse("z+1+exp(-z)")
STEER_FS = [parse("z+1-30*i+exp(-z)"), parse("z+(1-30*i)+exp(-z)")]
SHORT = OrbitParams(max_iter=12, escape_radius=50, bound_radius=30, tail_window=10)


def property_a_both_ways(f, g, sampler, params):
    """verify_property_a with the drift finish and without it; the
    reports must agree in everything but their runtime."""
    got = verify_property_a(f, g, sampler, params).to_dict()
    with mock.patch.object(orbit, "_drift_form", lambda e: None):
        want = verify_property_a(f, g, sampler, params).to_dict()
    del got["runtime_ms"], want["runtime_ms"]
    assert got == want
    return got


class TestPropertyADriftedTails:
    """g-orbits that classify_batch finishes by drift give
    verify_property_a the report of an every-step run."""

    @pytest.mark.parametrize("seed, forward, backward", [(1, 1, 0), (13, 1, 1)])
    def test_fatou_pair_seeds_that_violate(self, seed, forward, backward):
        s = SamplerSpec(FATOU_RECT, 4096, seed)
        assert property_a_both_ways(FATOU_F, FATOU_G, s, FATOU_PARAMS)["violations"] == forward
        assert property_a_both_ways(FATOU_G, FATOU_F, s, FATOU_PARAMS)["violations"] == backward

    @pytest.mark.parametrize("text, violates", [("1/z", True), ("2*z", False)])
    def test_maps_without_a_drift_form_continue_the_orbit(self, text, violates):
        # f has no drift form; g's finished tails are tested as any other
        r = property_a_both_ways(parse(text), FATOU_F, SamplerSpec(FATOU_RECT, 512, 42), FATOU_PARAMS)
        assert (r["violations"] > 0) == violates

    @pytest.mark.parametrize("f", STEER_FS, ids=["difference", "sum"])
    @pytest.mark.parametrize("rect", [Rect(40 + 31j, 8.0, 8.0), Rect(44 + 30j, 16.0, 16.0)])
    def test_points_just_past_the_radius_that_violate(self, f, rect):
        # most seeds are finished at once, with 11 steps to go, and the
        # window's points with Re w below about 49 still violate
        r = property_a_both_ways(f, STEER_G, SamplerSpec(rect, 256, 42), SHORT)
        assert r["violations"] > 0

    @pytest.mark.parametrize("max_iter", [30, 40, 60])
    def test_seeds_that_retire_inside_the_window(self, max_iter):
        p = dataclasses.replace(FATOU_PARAMS, max_iter=max_iter)
        s = SamplerSpec(FATOU_RECT, 1024, 42)
        for f, g in ((FATOU_F, FATOU_G), (FATOU_G, FATOU_F), (STEER_FS[1], STEER_G)):
            property_a_both_ways(f, g, s, p)


@pytest.fixture
def counted_batches(monkeypatch):
    """Count the classify_batch calls that verify really makes."""
    calls = []

    def counting(f, seeds, params, want_tail_values=False):
        calls.append(want_tail_values)
        return orbit.classify_batch(f, seeds, params, want_tail_values)

    monkeypatch.setattr(verify, "classify_batch", counting)
    return calls


class TestSharedClassifications:
    F = parse("1/z^2")
    P = OrbitParams(max_iter=200)

    def test_hit_matches_fresh_classification(self, counted_batches):
        pts = sampler(300).points()
        with shared_classifications():
            verify._classify(self.F, pts, self.P)
            hit = verify._classify(self.F, pts.copy(), self.P)
        assert len(counted_batches) == 1
        fresh = orbit.classify_batch(self.F, pts, self.P)
        for name in ("verdict", "confident", "term_kind", "term_step", "oscillations"):
            assert np.array_equal(getattr(hit, name), getattr(fresh, name))

    def test_key_separates_samples_maps_and_params(self, counted_batches):
        pts = sampler(100).points()
        with shared_classifications():
            verify._classify(self.F, pts, self.P)
            verify._classify(self.F, pts[::-1], self.P)
            verify._classify(parse("z^2"), pts, self.P)
            verify._classify(self.F, pts, OrbitParams(max_iter=201))
        assert len(counted_batches) == 4

    def test_tail_request_is_never_served_from_memo(self, counted_batches):
        pts = sampler(100).points()
        with shared_classifications():
            verify._classify(self.F, pts, self.P)
            tails = verify._classify(self.F, pts, self.P, want_tail_values=True)
            verify._classify(self.F, pts, self.P)
        assert counted_batches == [False, True]
        assert tails.tail_values is not None
        assert tails.ordered_tails([0])[1].any()

    def test_cached_arrays_are_read_only(self):
        pts = sampler(100).points()
        with shared_classifications():
            verify._classify(self.F, pts, self.P)
            cached = verify._classify(self.F, pts, self.P)
        assert cached.tail_values is None
        with pytest.raises(ValueError):
            cached.verdict[0] = 0

    def test_entries_from_a_tails_call_hold_no_tails(self, counted_batches):
        pts = sampler(100).points()
        with shared_classifications():
            tails = verify._classify(FATOU_F, pts, FATOU_PARAMS, want_tail_values=True)
            cached = verify._classify(FATOU_F, pts, FATOU_PARAMS)
        assert counted_batches == [True]
        assert tails.tail_values is not None
        assert cached.tail_values is None
        assert cached.verdict.tobytes() == tails.verdict.tobytes()

    def test_nothing_is_reused_outside_a_scope(self, counted_batches):
        pts = sampler(100).points()
        with shared_classifications():
            with shared_classifications():
                verify._classify(self.F, pts, self.P)
            verify._classify(self.F, pts, self.P)
        verify._classify(self.F, pts, self.P)
        assert len(counted_batches) == 2

    def test_all_paper_classifies_each_input_once_per_run(self, monkeypatch, counted_batches):
        # the 38 classifications of an all-paper run cover 15 distinct
        # (map, samples, params) inputs whatever the sample count; one
        # CPU keeps the run in this process with one memo
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        presets.run_preset("all-paper", samples=512)
        assert len(counted_batches) == 15
        presets.run_preset("all-paper", samples=512)
        assert len(counted_batches) == 30


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


class TestAllPaperWorkers:
    """all-paper runs its presets in forked workers, else in this process."""

    def test_live_thread_runs_in_process(self, monkeypatch, counted_batches):
        # forking while another thread may hold a lock can deadlock the child
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            presets.run_preset("all-paper", samples=512)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert len(counted_batches) == 15

    @needs_fork
    def test_workers_classify_each_input_once_per_preset(self, monkeypatch):
        # each worker has its own memo, so the three inputs sec4-power
        # shares with composition-question are classified twice
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = multiprocessing.Value("i", 0)

        def counting(f, seeds, params, want_tail_values=False):
            with calls.get_lock():
                calls.value += 1
            return orbit.classify_batch(f, seeds, params, want_tail_values)

        monkeypatch.setattr(verify, "classify_batch", counting)
        results = presets.run_preset("all-paper", samples=512)
        assert len(results) == 26
        assert calls.value == 18

    def test_start_order_is_a_permutation_of_presets(self):
        assert sorted(presets.START_ORDER) == sorted(presets.PRESETS)
        assert len(presets.START_ORDER) == len(presets.PRESETS)

    @needs_fork
    def test_checks_come_back_in_presets_order(self, monkeypatch):
        # the workers start the heaviest presets first; the checks come
        # back in PRESETS order, the same whatever the start order
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        runs = []
        for order in (presets.START_ORDER, presets.START_ORDER[::-1]):
            monkeypatch.setattr(presets, "START_ORDER", order)
            checks = [c.to_dict() for c in presets.run_preset("all-paper", samples=128)]
            for c in checks:
                c["report"].pop("runtime_ms", None)
            runs.append(checks)
        names = [c["name"].split(":")[0] for c in runs[0]]
        assert list(dict.fromkeys(names)) == list(presets.PRESETS)
        assert runs[0] == runs[1]

    @needs_fork
    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def broken(samples, seed):
            raise ValueError(f"preset failed in process {os.getpid()}")

        monkeypatch.setitem(
            presets.PRESETS, "scaled-family", presets.Preset("scaled-family", "", broken)
        )
        with pytest.raises(ValueError, match=r"^preset failed in process \d+$") as err:
            presets.run_preset("all-paper", samples=64)
        assert str(err.value) != f"preset failed in process {os.getpid()}"
