"""The benchmark workloads: what one pass runs and how its output is checked.

Importing this module imports bungee_lab from the ``src`` tree next to
this directory, so the time to import it is part of the measured set-up.

Each workload turns the workload seed into its inputs and exposes

    next_inputs()       the inputs of the next pass
    run_pass(inputs)    one timed pass -> Pass, outputs kept in Pass.raw
    check(p)            the gates on a pass's outputs, run untimed and
                        untraced; fills in attempted, failed and call_s
    warm_up()           one call, part of set-up

A pass makes ``Pass.calls`` calls, each what a user waits for (a gallery
render, an all-paper run, a CLI invocation), and checks ``Pass.attempted``
outputs (maps, preset checks, CLI answers).  An output that fails a gate
counts in ``Pass.failed``, and its call leaves no entry in ``Pass.call_s``;
run.py counts such a call, and the wall time of its pass, as infinitely
slow, so a refused or broken call can never pass for a fast one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from bungee_lab import cli, grid, presets, render  # noqa: E402
from bungee_lab.expr import parse  # noqa: E402
from bungee_lab.orbit import OrbitParams, Verdict, classify_batch  # noqa: E402

DEFAULT_PARAMS = OrbitParams()
# presets.FATOU_PARAMS at the seed commit, spelled out so the gallery's
# inputs cannot drift with the program under test
DRIFT_PARAMS = OrbitParams(
    max_iter=2000, escape_radius=50.0, bound_radius=30.0, min_oscillations=3, tail_window=10
)

GALLERY_SIZE = 512
# scripts/render_gallery.py GALLERY without drift-map (1+z+exp(-z)), which
# alone would take most of a pass.  Every map is centred on 0 and spans
# four 65536-pixel chunks at 512x512, more than two workers, so the
# threaded path in grid runs.  The live-set size per step drives
# classify_batch, so the maps fall in two groups: "short" maps overflow,
# hit a pole or freeze within tens of steps (0.1 s a map); "long" maps keep
# most seeds alive for all steps (a parabolic point at 0; 6 s a map).
# Digests are sha256 of render_ppm at the seed commit; the two that
# tests/test_acceptance.py also pins agree with them.
GALLERY = (
    # slug, map, width, params, group, sha256
    ("squaring", "z^2", 4.0, DEFAULT_PARAMS, "short",
     "0149d0b679f72ad02dbb227f499e457d673800fcc1355ad68d9044492741b2d0"),
    ("reciprocal-square", "1/z^2", 4.0, DEFAULT_PARAMS, "short",
     "df76e355086a42ca9b46bedd0f5d5319a5f3c557c80e69004d11ec292c346812"),
    ("reciprocal-fourth", "1/z^4", 4.0, DEFAULT_PARAMS, "short",
     "df76e355086a42ca9b46bedd0f5d5319a5f3c557c80e69004d11ec292c346812"),
    ("sine-displacement", "z+sin(z)", 12.0, DRIFT_PARAMS, "short",
     "f82d270beea8bff8719f6af10efa25a9fec0d3c67ec488cb3a446ab85726f01f"),
    ("exp-cigar", "z*exp(z^2)", 4.0, DEFAULT_PARAMS, "long",
     "b24daba0b097959f7eaf1c643dfc46d327a7414666533ba3b83bc2caff53a779"),
    ("gaussian-spiral", "z*exp(-z^2)", 6.0, DEFAULT_PARAMS, "long",
     "fa6fab66eba0976cb0cec99c5f70c338f684cdbb13d87a50f62cb721335903a0"),
)

PRESET_SAMPLES = 4096
# the sample seed of run_preset and of scripts/run_verification.py by
# default.  all-paper keeps it whatever the workload seed: on other sample
# seeds fatou-pair's forward-escaping checks fail now and then (seeds 0, 1,
# 10, 13, 20, 23 and 28 of 0-39: a tail point just past the escape radius
# 50 maps to |f(w)| of 47-49), a defect of the program that test_gates.py
# keeps in view.  A fixed sample set also keeps the pass time from moving
# with the seed, by about 15%.
PRESET_SEED = 42
# point-classify seeds are uniform in [-2, 2]^2 but stratified: a pass puts
# one seed of every map in each cell of a 4x4 grid, so every pass has
# nearly the same mix of short and long orbits
SEED_BOX = 2.0
SEED_CELLS = 4


@dataclass
class Pass:
    wall_s: float
    calls: int = 0
    call_s: list[float] = field(default_factory=list)  # calls that passed every gate
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    raw: list = field(default_factory=list)
    # gallery only, over the maps that passed the digest gate: pixels and
    # seconds per orbit-length group, classify_grid seconds and the grids
    groups: dict = field(default_factory=dict)
    classify_s: float = 0.0
    grids: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class Gallery:
    """Render the gallery, one call per pass; the seed only shuffles the order."""

    def __init__(self, seed: int, maps=GALLERY, size: int = GALLERY_SIZE):
        order = list(maps)
        random.Random(seed).shuffle(order)
        self.maps = [
            (slug, parse(text), grid.GridSpec(0j, width, width, size, size), params, group, digest)
            for slug, text, width, params, group, digest in order
        ]
        _, text, width, params, _, _ = GALLERY[0]
        self._warm = (parse(text), grid.GridSpec(0j, width, width, size, size), params)

    def warm_up(self) -> None:
        render.render_ppm(grid.classify_grid(*self._warm))

    def next_inputs(self):
        return None

    def run_pass(self, inputs=None, workers: int | None = None) -> Pass:
        done = []
        start = time.perf_counter()
        for slug, f, spec, params, group, digest in self.maps:
            t0 = time.perf_counter()
            g = grid.classify_grid(f, spec, params, workers=workers)
            t1 = time.perf_counter()
            data = render.render_ppm(g)
            t2 = time.perf_counter()
            done.append((slug, spec, group, digest, g, data, t1 - t0, t2 - t1))
        return Pass(wall_s=time.perf_counter() - start, calls=1, raw=done)

    def check(self, p: Pass) -> None:
        for slug, spec, group, digest, g, data, classify_s, render_s in p.raw:
            p.attempted += 1
            got = hashlib.sha256(data).hexdigest()
            if got != digest:
                p.fail(f"{slug}: sha256 {got} != reference {digest}")
                continue
            pixels, seconds = p.groups.get(group, (0, 0.0))
            p.groups[group] = (pixels + spec.pixel_count, seconds + classify_s + render_s)
            p.classify_s += classify_s
            p.grids[slug] = g
        if not p.failed:
            p.call_s.append(p.wall_s)
        p.raw = []

    def serial_pass(self, reference: Pass) -> Pass:
        """A pass at workers=1, whose grids must equal the reference's bit for bit."""
        p = self.run_pass(workers=1)
        self.check(p)
        for slug, g in p.grids.items():
            if slug in reference.grids and not same_grids(g, reference.grids[slug]):
                p.fail(f"{slug}: grid at workers=1 differs from the default thread count")
        p.grids = {}
        return p


def same_grids(a, b) -> bool:
    fields = ("verdict", "confident", "term_kind", "term_step", "oscillations")
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in fields)


class AllPaper:
    """run_preset("all-paper") on its default samples; the seed changes nothing."""

    def __init__(self, seed: int, run_preset=None):
        self._run_preset = run_preset

    def _run(self, name: str):
        run = self._run_preset or presets.run_preset
        return run(name, samples=PRESET_SAMPLES, seed=PRESET_SEED)

    def warm_up(self) -> None:
        self._run("sec4-power")

    def next_inputs(self):
        return None

    def run_pass(self, inputs=None) -> Pass:
        start = time.perf_counter()
        results = self._run("all-paper")
        return Pass(wall_s=time.perf_counter() - start, calls=1, raw=results)

    def check(self, p: Pass) -> None:
        if not p.raw:
            p.attempted = 1
            p.fail("all-paper returned no checks")
            return
        p.attempted = len(p.raw)
        for check in p.raw:
            if not check.passed:
                p.fail(f"{check.name}: expected {check.expectation}")
        if not p.failed:
            p.call_s.append(p.wall_s)
        p.raw = []


def classify_argv(text: str, x: float, y: float) -> list[str]:
    # --f= and --z0= keep a leading minus from reading as a flag, and
    # float() keeps numpy scalars from printing as np.float64(...)
    return ["classify", f"--f={text}", f"--z0={float(x)!r},{float(y)!r}"]


class PointClassify:
    """In-process CLI ``classify`` calls, one client, closed loop.

    check() compares each call's JSON verdict with classify_batch on the
    same seed: the orbit module promises that the scalar and batch paths
    agree.
    """

    def __init__(self, seed: int, main=None):
        self.rng = random.Random(seed)
        self.maps = {text: parse(text) for text in presets.PRESET_FUNCTIONS}
        self._main = main

    def _call(self, argv: list[str]) -> tuple[int, str, str, float]:
        main = self._main or cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = main(argv)
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), dt

    def warm_up(self) -> None:
        self._call(classify_argv("z^2", 0.5, 0.5))

    def next_inputs(self) -> list[tuple[str, float, float]]:
        side = 2 * SEED_BOX / SEED_CELLS
        calls = []
        for text in self.maps:
            for cell in range(SEED_CELLS * SEED_CELLS):
                cx, cy = cell % SEED_CELLS, cell // SEED_CELLS
                x = -SEED_BOX + (cx + self.rng.random()) * side
                y = -SEED_BOX + (cy + self.rng.random()) * side
                calls.append((text, x, y))
        return calls

    def run_pass(self, inputs) -> Pass:
        calls = []
        start = time.perf_counter()
        for text, x, y in inputs:
            try:
                calls.append((text, x, y) + self._call(classify_argv(text, x, y)))
            except Exception:  # a crashing call is a failed operation
                calls.append((text, x, y, None, "", traceback.format_exc(limit=3), 0.0))
        return Pass(wall_s=time.perf_counter() - start, calls=len(calls), raw=calls)

    def check(self, p: Pass) -> None:
        answered: dict[str, list[tuple[complex, str, float]]] = {}
        for text, x, y, rc, out, err, dt in p.raw:
            p.attempted += 1
            if rc != 0:
                p.fail(f"classify {text} at {x!r},{y!r}: exit {rc}: {err.strip()[-200:]}")
                continue
            try:
                verdict = json.loads(out)["verdict"]
            except (ValueError, KeyError, TypeError) as exc:
                p.fail(f"classify {text} at {x!r},{y!r}: unreadable output ({exc})")
                continue
            answered.setdefault(text, []).append((complex(x, y), verdict, dt))
        for text, rows in answered.items():
            seeds = np.array([z for z, _, _ in rows], dtype=np.complex128)
            batch = classify_batch(self.maps[text], seeds, DEFAULT_PARAMS)
            for (z0, got, dt), code in zip(rows, batch.verdict):
                want = Verdict(int(code)).label
                if got == want:
                    p.call_s.append(dt)
                else:
                    p.fail(f"classify {text} at {z0}: CLI says {got}, classify_batch says {want}")
        p.raw = []


WORKLOADS = {"gallery": Gallery, "all-paper": AllPaper, "point-classify": PointClassify}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
