"""Sampled relation checks: containment, invariance, commutation, translates."""

from __future__ import annotations

import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from bungee_lab import orbit, presets, verify
from bungee_lab.expr import parse
from bungee_lab.grid import MAX_GRID_PIXELS
from bungee_lab.orbit import OrbitParams, Rect
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


class TestPropertyAAndPartition:
    def test_escaping_orbits_forwarded(self):
        p = OrbitParams(max_iter=600)
        r = verify_property_a(parse("z*exp(z^2)"), parse("-z*exp(z^2)"), sampler(800), p)
        assert r.relation == "escaping-orbits-forwarded"
        assert r.violations == 0

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
        assert tails.ordered_tail(0).size > 0

    def test_cached_arrays_are_read_only(self):
        pts = sampler(100).points()
        with shared_classifications():
            verify._classify(self.F, pts, self.P)
            cached = verify._classify(self.F, pts, self.P)
        assert cached.tail_values is None and cached.tail_last is None
        with pytest.raises(ValueError):
            cached.verdict[0] = 0

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
