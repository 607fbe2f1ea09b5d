"""The benchmark's gates bite, and its tracer restores what it patches.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib.util
import json
import threading

import numpy as np
import pytest

import run
import tracer as tracing
import workloads
from bungee_lab import cli, grid, orbit, presets, verify
from bungee_lab.presets import CheckResult


def _main(monkeypatch, capsys, workload, name):
    monkeypatch.setattr(run, "measure_setup", lambda *a: 0.5)
    monkeypatch.setattr(workloads, "make", lambda *a: workload)
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0"])
    out = capsys.readouterr().out.splitlines()
    table = {line.split()[0]: float(line.split()[1]) for line in out if not line.startswith(("#", "{"))}
    return rc, json.loads(out[-1]), table


def test_wrong_digest_fails_the_run(monkeypatch, capsys):
    bad = [("squaring", "z^2", 4.0, workloads.DEFAULT_PARAMS, "short", "0" * 64)]
    w = workloads.Gallery(3, maps=bad, size=64)
    rc, result, table = _main(monkeypatch, capsys, w, "gallery")
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert table["fail_frac"] == 1.0


def test_failing_check_fails_the_run(monkeypatch, capsys):
    def fake_run_preset(name, samples, seed):
        return [CheckResult("holds", True, "", {}), CheckResult("broken", False, "", {})]

    w = workloads.AllPaper(3, run_preset=fake_run_preset)
    rc, result, table = _main(monkeypatch, capsys, w, "all-paper")
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert table["fail_frac"] == pytest.approx(0.5)


def test_nonzero_exit_fails_the_run(monkeypatch, capsys):
    w = workloads.PointClassify(3, main=lambda argv: 2)
    rc, result, table = _main(monkeypatch, capsys, w, "point-classify")
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert table["fail_frac"] == 1.0
    # refused calls return at once, yet must not read as fast ones
    assert result["metrics"]["call_p90_ms"]["value"] == float("inf")
    assert result["metrics"]["wall_s"]["value"] == float("inf")


@pytest.mark.xfail(strict=True, reason="known defect: the forward-escaping check of "
                   "fatou-pair fails on some sample seeds, so all-paper keeps seed 42")
def test_fatou_pair_passes_on_another_sample_seed():
    results = presets.run_preset("fatou-pair", samples=workloads.PRESET_SAMPLES, seed=0)
    assert [c.name for c in results if not c.passed] == []


def test_wrong_verdict_is_caught_by_the_cross_check():
    def lying_main(argv):
        print(json.dumps({"verdict": "bungee"}))
        return 0

    w = workloads.PointClassify(3, main=lying_main)
    p = w.run_pass([("z^2", 0.25, 0.25), ("z^2", 1.5, 1.5)])
    w.check(p)
    assert p.attempted == 2 and p.failed == 2 and p.call_s == []


def test_real_calls_pass_the_cross_check():
    w = workloads.PointClassify(5)
    p = w.run_pass(w.next_inputs()[:8])
    w.check(p)
    assert p.attempted == 8 and p.failed == 0 and len(p.call_s) == 8


def test_argv_uses_plain_floats_and_equals_forms():
    argv = workloads.classify_argv("-z*exp(z^2)", np.float64(-1.5), -0.25)
    assert argv == ["classify", "--f=-z*exp(z^2)", "--z0=-1.5,-0.25"]


def test_threads_variable_is_refused(monkeypatch):
    monkeypatch.setenv("BUNGEE_LAB_THREADS", "1")
    assert run.main(["--workload", "gallery", "--seconds", "0"]) == 2


def test_gallery_mirrors_the_gallery_script():
    path = workloads.ROOT / "scripts" / "render_gallery.py"
    spec = importlib.util.spec_from_file_location("render_gallery", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    want = {s: (t, c, w, p) for s, t, c, w, p in script.GALLERY if s != "drift-map"}
    assert {s: (t, 0j, w, p) for s, t, w, p, _, _ in workloads.GALLERY} == want


def test_spans_nest_per_thread():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer():
        inner()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap("outer", outer)()
    assert t.calls("inner", parent="outer") == 1
    assert t.calls("inner", parent=None) == 1
    assert t.self_seconds("outer") <= t.seconds("outer")


def test_install_restores_every_name():
    names = [
        (cli, "main"), (cli, "parse"), (grid, "classify_batch"), (orbit, "eval_array"),
        (verify, "classify_batch"), (verify, "verify_containment"), (presets, "verify_commute"),
        (verify.SamplerSpec, "points"),
    ]
    before = [getattr(owner, attr) for owner, attr in names]
    runs = {k: p.run for k, p in presets.PRESETS.items()}
    t = tracing.Tracer()
    tracing.install(t)
    assert all(getattr(o, a) is not b for (o, a), b in zip(names, before))
    t.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(names, before))
    assert {k: p.run for k, p in presets.PRESETS.items()} == runs
