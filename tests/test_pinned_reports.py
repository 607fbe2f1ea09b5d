"""Report JSON pinned by sha256, with every runtime_ms key removed.

The digests were recorded before the relation checkers, presets and CLI
shared one report pipeline; they pin every verdict, count, witness and
key order of those reports.  Never re-bless them: a changed digest means
a changed report.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from bungee_lab.cli import main
from bungee_lab.expr import parse
from bungee_lab.orbit import Rect
from bungee_lab.presets import PRESET_FUNCTIONS, run_preset
from bungee_lab.verify import SamplerSpec, verify_value_identity


def _strip_runtime(doc):
    if isinstance(doc, dict):
        return {k: _strip_runtime(v) for k, v in doc.items() if k != "runtime_ms"}
    if isinstance(doc, list):
        return [_strip_runtime(v) for v in doc]
    return doc


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(_strip_runtime(doc)).encode()).hexdigest()


@pytest.mark.parametrize("cpus", [2, 1], ids=["workers", "serial"])
def test_all_paper_reports(monkeypatch, cpus):
    # two CPUs run the presets in forked workers, one runs them in process
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    results = run_preset("all-paper", samples=256, seed=42)
    assert len(results) == 26
    assert _digest([c.to_dict() for c in results]) == (
        "dcdca6edd5ea577baa83a47a929d587b87977992747be733ac4c9733afe5f1bb"
    )


def test_value_identity_mismatch_report():
    r = verify_value_identity(
        parse("z^2"), parse("z^3"), SamplerSpec(Rect(0, 2.0, 2.0), 100, 42)
    )
    assert _digest(r.to_dict()) == (
        "69bd63b707fd003d8ce8b4d9724cc98a1048438d8d7a4d00070d6afea5892b51"
    )


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        pytest.param(
            ["verify", "containment", "--f", "z^2", "--g", "1/z^2"],
            0,
            "561983bfe248072e7ff1311a0e250c9626a10354f1aeb86f53ddf906b7300263",
            id="containment",
        ),
        pytest.param(
            ["verify", "invariance", "--f", "z*exp(z^2)", "--g=-z*exp(z^2)"],
            0,
            "fd84bedc1221f9576accc6010e5e6d1cf08d14ba9b56b64ca8c0b15da7f6d317",
            id="invariance",
        ),
        pytest.param(
            ["verify", "commute", "--f", "z*exp(z^2)", "--g", "0.5*z*exp(z^2)"],
            1,
            "45435e267ef2e1acab2aafbedfebbb082fe0b155943b1bdd8106895acdd52b54",
            id="commute",
        ),
        pytest.param(
            ["verify", "translate", "--f", "z+sin(z)", "--C", "2*pi"],
            1,
            "0eeeb56d8e42c05676ed6c7fbaa0415d8cfc28514f421f9ea6224c1e7f0c29d2",
            id="translate",
        ),
        pytest.param(
            ["verify", "property-a", "--f", "z+sin(z)", "--g", "z+sin(z)+2*pi",
             "--grid", "0,0,8,8"],
            0,
            "0307f052056923809300d9d88e0c82de4330b7a5baa6aa652dae58ac2a69ed3e",
            id="property-a",
        ),
        pytest.param(
            ["verify", "property-a", "--f", "1e-9*z", "--g", "z^2"],
            1,
            "faff069d60981d87a23a9b062d0f4ce2b30fdc98756e822046b4faf3780e2927",
            id="property-a-violations",
        ),
        pytest.param(
            ["verify", "partition", "--f", "1/z^2"],
            0,
            "377a9fcb189ec7fd5328bfa577250ec524a43757364a7538f2e6ed4f043f103f",
            id="partition",
        ),
    ],
)
def test_cli_verify_reports(capsys, argv, code, digest):
    assert main(argv + ["--samples", "256"]) == code
    assert _digest(json.loads(capsys.readouterr().out)) == digest


def test_cli_fixed_points_report(capsys):
    assert main(["fixed-points", "--f", "z*exp(-z^2)"]) == 0
    assert _digest(json.loads(capsys.readouterr().out)) == (
        "fee09f1bf3aedf3af27ddda2c5313667150358f3b81445dd8eb742c50032afbf"
    )


def _classify_argvs() -> list[list[str]]:
    """CLI classify runs over every preset map and the orbit's edge cases."""
    rng = random.Random(20240905)
    seeds = [
        f"{rng.uniform(-3, 3)!r},{rng.uniform(-3, 3)!r}"
        for _ in PRESET_FUNCTIONS
        for _ in range(6)
    ]
    argvs = [
        ["classify", f"--f={text}", f"--z0={seeds[6 * i + j]}"]
        for i, text in enumerate(PRESET_FUNCTIONS)
        for j in range(6)
    ]
    argvs += [argv + ["--max-iter", "37", "--tail-window", "5"] for argv in argvs]
    argvs += [
        ["classify", "--f", "1/z^2", "--z0", "0"],  # pole at step 0
        ["classify", "--f", "z*exp(z^2)", "--z0", "3"],  # overflow
        ["classify", "--f", "z^2", "--z0", "0"],  # exact fixed points
        ["classify", "--f", "z^2", "--z0", "1"],
        ["classify", "--f", "z", "--z0", "1"],
        ["classify", "--f", "z^2", "--z0", "0.5", "--max-iter", "1", "--tail-window", "1"],
        ["classify", "--f", "z^2", "--z0", "1", "--max-iter", "1", "--tail-window", "1"],
        ["classify", "--f", "1/z^2", "--z0", "2", "--max-iter", "1", "--tail-window", "1"],
        # the verdicts the random seeds miss: escaping by its tail,
        # undecided, and bungee on a completed orbit
        ["classify", "--f", "z+sin(z)+2*pi", "--z0", "0.5", "--escape-radius", "100",
         "--bound-radius", "10"],
        ["classify", "--f", "z+sin(z)+2*pi", "--z0", "0.5", "--max-iter", "2000"],
        ["classify", "--f", "1/z", "--z0", "1e9"],
    ]
    return argvs


def test_cli_classify_outputs(capsys):
    # (exit code, stdout, stderr) of every run, recorded before the scalar
    # orbit loop took its magnitudes in one pass after the loop
    h = hashlib.sha256()
    for argv in _classify_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        h.update(f"{code}\0{captured.out}\0{captured.err}\0".encode())
    assert h.hexdigest() == (
        "ba13b28a7d688f836193302e6f611621e312522cefd0bd8569247f835072f305"
    )
