"""Grid sampling geometry, worker determinism, thread-count resolution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from bungee_lab import grid, orbit
from bungee_lab.expr import parse
from bungee_lab.grid import (
    MAX_GRID_PIXELS,
    GridSpec,
    classify_grid,
    mask_stats,
    resolve_workers,
)
from bungee_lab.orbit import OrbitParams, Verdict, classify_batch
from bungee_lab.presets import FATOU_PARAMS, PRESET_FUNCTIONS

from conftest import every_step

FIELDS = ("verdict", "confident", "term_kind", "term_step", "oscillations")
REAL_MAPS = [t for t in PRESET_FUNCTIONS if parse(t).real_coefficients] + [
    "(z+1)/(z-1)",
    "1/(z-1e300)",
]
# grids whose rows mirror exactly: ny of 1, 2, 3 and even, odd and even
# nx, off-centre along the real axis, tiny and huge widths, and a centre
# 1e-300 above the axis that rounds away in every ordinate
MIRRORED_SPECS = [
    GridSpec(0j, 4.0, 4.0, 9, 1),
    GridSpec(0j, 4.0, 4.0, 9, 2),
    GridSpec(0j, 4.0, 3.0, 8, 3),
    GridSpec(0.5 + 0j, 5.0, 4.0, 7, 8),
    GridSpec(-0.25 + 0j, 1e-300, 1e-300, 6, 16),
    GridSpec(0j, 1e5, 1e5, 5, 4),
    GridSpec(1e-300j, 4.0, 4.0, 5, 8),
]
# odd and even maps with real constants (the quadrant fill) and with
# complex ones (the 180-degree turn only)
QUADRANT_MAPS = [t for t in REAL_MAPS if parse(t).parity] + ["1/z^4", "z^3-2*z", "cos(z)"]
ROTATION_MAPS = ["z^2+0.3*i", "(1+2*i)*z*exp(-z^2)", "cos(z)+0.1*i", "i*sin(z)", "1/(z^2+i)"]
# grids whose pixels pair exactly under z -> -z: odd and even nx and ny
# down to 1, a row wider than a chunk of 7, tiny and huge widths, and a
# centre 1e-300 off both axes that rounds away in every coordinate
POINT_SYMMETRIC_SPECS = [
    GridSpec(0j, 4.0, 4.0, 3, 3),
    GridSpec(0j, 4.0, 4.0, 1, 8),
    GridSpec(0j, 4.0, 3.0, 16, 1),
    GridSpec(0j, 5.0, 4.0, 8, 2),
    GridSpec(0j, 1e-300, 1e-300, 4, 16),
    GridSpec(0j, 1e5, 1e5, 3, 4),
    GridSpec(1e-300 + 1e-300j, 4.0, 4.0, 8, 4),
]
# escape and bound radii the drift maps reach within the budget
MIRROR_PARAMS = OrbitParams(max_iter=300, escape_radius=50.0, bound_radius=30.0)


def assert_equals_whole_grid(f, spec, text):
    cg = classify_grid(f, spec, MIRROR_PARAMS, workers=2)
    whole = classify_batch(f, spec.points(), MIRROR_PARAMS)
    for name in FIELDS:
        got, want = getattr(cg, name), getattr(whole, name)
        assert got.tobytes() == want.tobytes(), (text, spec, name)


def count_classified(monkeypatch) -> list:
    """Record the seed count of every chunk state classify_grid starts."""
    sizes = []

    def counting(f, params, out, idx, seeds):
        sizes.append(seeds.size)
        return orbit._BatchRun(f, params, out, idx, seeds)

    monkeypatch.setattr(grid, "_BatchRun", counting)
    return sizes


class TestGridSpec:
    def test_pixel_centers(self):
        spec = GridSpec(0j, 4.0, 4.0, 4, 3)
        pts = spec.points()
        assert pts.shape == (12,)
        # flat index k*nx + j; x at column centers, low Im first
        np.testing.assert_allclose(pts[:4].real, [-1.5, -0.5, 0.5, 1.5])
        np.testing.assert_allclose(pts[0].imag, -4 / 3)
        np.testing.assert_allclose(pts[4].imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(pts[8].imag, 4 / 3)

    def test_offcenter_grid(self):
        spec = GridSpec(1 + 2j, 2.0, 2.0, 2, 2)
        pts = spec.points()
        np.testing.assert_allclose(
            pts, [0.5 + 1.5j, 1.5 + 1.5j, 0.5 + 2.5j, 1.5 + 2.5j]
        )

    def test_chunks_concatenate_to_whole_grid(self):
        # nx = 37 does not divide the chunk size, so chunks start mid-row
        spec = GridSpec(0.3 - 1.7j, 5.0, 3.0, 37, 29)
        whole = spec.points()
        chunk = 100
        parts = [spec.points(lo, min(lo + chunk, spec.pixel_count))
                 for lo in range(0, spec.pixel_count, chunk)]
        joined = np.concatenate(parts)
        assert joined.dtype == np.complex128
        assert joined.tobytes() == whole.tobytes()
        # the old all-at-once construction, kept as the reference
        xs = 0.3 + ((np.arange(37) + 0.5) / 37 - 0.5) * 5.0
        ys = -1.7 + ((np.arange(29) + 0.5) / 29 - 0.5) * 3.0
        assert whole.tobytes() == (xs[None, :] + 1j * ys[:, None]).ravel().tobytes()

    def test_single_pixel_is_center(self):
        assert GridSpec(0.25j, 1.0, 1.0, 1, 1).points()[0] == 0.25j

    @pytest.mark.parametrize(
        "args",
        [
            (0j, 4.0, 4.0, 0, 5),
            (0j, 4.0, 4.0, 5, 0),
            (0j, 0.0, 4.0, 5, 5),
            (0j, 4.0, -1.0, 5, 5),
        ],
    )
    def test_rejects_degenerate(self, args):
        with pytest.raises(ValueError):
            GridSpec(*args)

    def test_rejects_huge_grids(self):
        with pytest.raises(ValueError, match=str(MAX_GRID_PIXELS)):
            GridSpec(0j, 4.0, 4.0, 10000, 10000)


class TestClassifyGrid:
    def test_fields_and_stats(self):
        cg = classify_grid(parse("z^2"), GridSpec(0j, 4.0, 4.0, 8, 8),
                           OrbitParams(max_iter=50))
        assert cg.verdict.shape == (64,)
        stats = mask_stats(cg)
        assert stats["total"] == 64
        assert sum(stats["counts"].values()) == 64
        assert stats["counts"]["bungee"] == 0
        assert stats["counts"]["escaping"] > 0
        assert stats["counts"]["bounded"] > 0

    def test_reciprocal_square_band(self):
        cg = classify_grid(parse("1/z^2"), GridSpec(0j, 4.0, 4.0, 32, 32),
                           OrbitParams())
        stats = mask_stats(cg)
        off_band = np.abs(np.abs(cg.spec.points()) - 1.0) > 0.05
        bungee = cg.verdict == 2
        assert bungee[off_band].mean() > 0.9
        assert stats["counts"]["pole"] >= 0

    def test_worker_counts_agree_bitwise(self):
        f = parse("1/z^2")
        spec = GridSpec(0j, 4.0, 4.0, 40, 40)
        p = OrbitParams(max_iter=200)
        base = classify_grid(f, spec, p, workers=1)
        for w in (2, 4):
            other = classify_grid(f, spec, p, workers=w)
            assert np.array_equal(base.verdict, other.verdict)
            assert np.array_equal(base.confident, other.confident)
            assert np.array_equal(base.oscillations, other.oscillations)
            assert np.array_equal(base.term_kind, other.term_kind)
            assert np.array_equal(base.term_step, other.term_step)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        f = parse("z^2")
        spec = GridSpec(0j, 4.0, 4.0, 16, 16)
        p = OrbitParams(max_iter=100)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        a = classify_grid(f, spec, p)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 100000)
        b = classify_grid(f, spec, p)
        assert np.array_equal(a.verdict, b.verdict)

    def test_function_text_recorded(self):
        cg = classify_grid(parse("z^2"), GridSpec(0j, 2.0, 2.0, 2, 2),
                           OrbitParams(max_iter=20))
        assert cg.function_text == "(z^2)"


class TestMirror:
    @pytest.mark.parametrize("text", REAL_MAPS)
    def test_equals_whole_grid(self, text, monkeypatch):
        f = parse(text)
        assert f.real_coefficients
        # chunks of 7 start mid-row and on both sides of the middle row
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        for spec in MIRRORED_SPECS:
            assert spec.mirrored
            assert_equals_whole_grid(f, spec, text)

    @pytest.mark.parametrize("text", REAL_MAPS)
    def test_classifies_the_upper_half(self, text, monkeypatch):
        sizes = count_classified(monkeypatch)
        # columns at nx = 6 and 5 do not pair exactly, so odd and even
        # maps classify half of these grids too
        classify_grid(parse(text), GridSpec(0j, 4.0, 4.0, 6, 8), MIRROR_PARAMS)
        assert sum(sizes) == 6 * 8 // 2
        sizes.clear()
        # an odd ny also classifies its middle row
        classify_grid(parse(text), GridSpec(0j, 4.0, 4.0, 5, 3), MIRROR_PARAMS)
        assert sum(sizes) == 5 * 2
        sizes.clear()
        # where the columns pair too, odd and even maps classify a quarter,
        # and an odd nx its middle column
        odd_or_even = parse(text).parity != 0
        classify_grid(parse(text), GridSpec(0j, 4.0, 4.0, 8, 8), MIRROR_PARAMS)
        assert sum(sizes) == (4 * 4 if odd_or_even else 8 * 4)
        sizes.clear()
        classify_grid(parse(text), GridSpec(0j, 4.0, 4.0, 3, 3), MIRROR_PARAMS)
        assert sum(sizes) == (2 * 2 if odd_or_even else 3 * 2)

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("1+z+exp(-z)+2*pi*i", GridSpec(0j, 4.0, 4.0, 6, 8)),  # a complex constant
            ("z^2", GridSpec(0.1j, 4.0, 4.0, 6, 8)),  # off the real axis
            ("z^2", GridSpec(0j, 4.0, 4.0, 6, 7)),  # rows not exact mirrors
            ("z^2", GridSpec(0j, 4.0, 4.0, 6, 1)),  # one row: nothing to mirror
        ],
    )
    def test_classifies_the_whole_grid(self, text, spec, monkeypatch):
        sizes = count_classified(monkeypatch)
        cg = classify_grid(parse(text), spec, MIRROR_PARAMS)
        assert sum(sizes) == spec.pixel_count
        whole = classify_batch(parse(text), spec.points(), MIRROR_PARAMS)
        assert cg.verdict.tobytes() == whole.verdict.tobytes()


class TestPointSymmetry:
    @pytest.mark.parametrize("text", QUADRANT_MAPS)
    def test_quadrant_equals_whole_grid(self, text, monkeypatch):
        f = parse(text)
        assert f.real_coefficients and f.parity
        # chunks of 7 split the 16-pixel row and deal rows elsewhere
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        for spec in POINT_SYMMETRIC_SPECS:
            assert spec.mirrored and spec.point_symmetric
            assert_equals_whole_grid(f, spec, text)

    @pytest.mark.parametrize("text", ROTATION_MAPS)
    def test_rotation_equals_whole_grid(self, text, monkeypatch):
        f = parse(text)
        assert f.parity and not f.real_coefficients
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        for spec in POINT_SYMMETRIC_SPECS:
            assert_equals_whole_grid(f, spec, text)

    @pytest.mark.parametrize(
        "text, spec, count",
        [
            # both symmetries: the quadrant, with the middle row and column
            ("z^2", GridSpec(0j, 4.0, 4.0, 8, 8), 4 * 4),
            ("z*exp(z^2)", GridSpec(0j, 4.0, 4.0, 3, 3), 2 * 2),
            ("z+sin(z)", GridSpec(0j, 4.0, 4.0, 16, 1), 8),
            ("1/z^2", GridSpec(0j, 4.0, 4.0, 1, 8), 4),
            # the 180-degree turn alone: the upper half
            ("z^2+0.3*i", GridSpec(0j, 4.0, 4.0, 8, 8), 8 * 4),
            ("i*sin(z)", GridSpec(0j, 4.0, 4.0, 3, 3), 3 * 2),
            ("z^2+0.3*i", GridSpec(0j, 4.0, 4.0, 16, 1), 16),
            # conjugation alone: the upper half
            ("1+z+exp(-z)", GridSpec(0j, 4.0, 4.0, 8, 8), 8 * 4),
            # the columns do not pair off the imaginary axis or at nx = 6
            ("z^2", GridSpec(0.5 + 0j, 4.0, 4.0, 8, 8), 8 * 4),
            ("z^2+0.3*i", GridSpec(0.5 + 0j, 4.0, 4.0, 8, 8), 8 * 8),
            ("z^2+0.3*i", GridSpec(0j, 4.0, 4.0, 6, 8), 6 * 8),
            # no symmetry: the whole grid
            ("1+z+exp(-z)+2*pi*i", GridSpec(0j, 4.0, 4.0, 8, 8), 8 * 8),
        ],
    )
    def test_classified_pixels(self, text, spec, count, monkeypatch):
        sizes = count_classified(monkeypatch)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        cg = classify_grid(parse(text), spec, MIRROR_PARAMS, workers=2)
        assert sum(sizes) == count
        # a 16-pixel row is split; no call exceeds a chunk
        assert max(sizes) <= 7
        whole = classify_batch(parse(text), spec.points(), MIRROR_PARAMS)
        assert cg.verdict.tobytes() == whole.verdict.tobytes()


class TestChunks:
    def rows_per_call(self, monkeypatch, spec) -> list:
        ys = spec.points()[:: spec.nx].imag
        calls = []

        def recording(f, params, out, idx, seeds):
            calls.append(sorted({int(np.nonzero(ys == y)[0][0]) for y in seeds.imag}))
            return orbit._BatchRun(f, params, out, idx, seeds)

        monkeypatch.setattr(grid, "_BatchRun", recording)
        return calls

    def test_rows_are_dealt(self, monkeypatch):
        # 16 rows of 4 at 16 pixels a chunk: four chunks of four rows
        # each, every fourth row, whatever the worker count
        spec = GridSpec(1 + 1j, 4.0, 4.0, 4, 16)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 16)
        for workers in (1, 2, 3):
            calls = self.rows_per_call(monkeypatch, spec)
            classify_grid(parse("z^2"), spec, MIRROR_PARAMS, workers=workers)
            assert sorted(calls) == [[c, c + 4, c + 8, c + 12] for c in range(4)]

    def test_dealt_rows_start_at_the_block(self, monkeypatch):
        # the quadrant of a 4 x 16 grid: rows 8..15, columns 2..3; eight
        # pixels a chunk take four rows, so two chunks of alternate rows
        spec = GridSpec(0j, 4.0, 4.0, 4, 16)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 8)
        calls = self.rows_per_call(monkeypatch, spec)
        classify_grid(parse("z^2"), spec, MIRROR_PARAMS)
        assert sorted(calls) == [[8, 10, 12, 14], [9, 11, 13, 15]]

    def test_wide_rows_are_split(self, monkeypatch):
        sizes = count_classified(monkeypatch)
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        classify_grid(parse("z^2"), GridSpec(1j, 4.0, 4.0, 16, 3), MIRROR_PARAMS)
        assert sorted(sizes) == [2, 2, 2, 7, 7, 7, 7, 7, 7]


# entire maps at their gallery widths and params: the parabolic ones
# retire most seeds early, the drift and escaping ones few or none
RETIRE_CASES = [
    ("z^2", 4.0, OrbitParams()),
    ("z*exp(z^2)", 4.0, OrbitParams()),
    ("z*exp(-z^2)", 6.0, OrbitParams()),
    ("0.5*z*exp(z^2)", 4.0, OrbitParams()),
    ("-z*exp(z^2)", 4.0, OrbitParams()),
    ("sin(z)", 4.0, OrbitParams()),
    ("z^2+0.25", 4.0, OrbitParams()),
    ("z^2-0.75", 4.0, OrbitParams()),
    ("z+sin(z)", 12.0, FATOU_PARAMS),
    ("1+z+exp(-z)", 12.0, FATOU_PARAMS),
]


class TestRetirement:
    @pytest.mark.parametrize("text, width, params", RETIRE_CASES)
    def test_grids_equal_full_runs(self, text, width, params, monkeypatch):
        # a quarter (or half) classified and a whole grid off the axes,
        # in chunks of 7 on 1, 2 and 4 workers, against every step of
        # every seed
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        f = parse(text)
        for spec in (GridSpec(0j, width, width, 8, 8), GridSpec(0.1 + 0.2j, width, width, 7, 5)):
            with every_step():
                whole = classify_batch(parse(text), spec.points(), params)
            for workers in (1, 2, 4):
                cg = classify_grid(f, spec, params, workers=workers)
                for name in FIELDS:
                    got, want = getattr(cg, name), getattr(whole, name)
                    assert got.tobytes() == want.tobytes(), (text, spec, workers, name)


class TestParking:
    @pytest.mark.parametrize("park", [1, 5, 7])
    @pytest.mark.parametrize("text, width, params", RETIRE_CASES + [("1/z^2", 4.0, OrbitParams())])
    def test_parked_grids_equal_one_batch(self, text, width, params, park, monkeypatch):
        # chunks of at most 7: at PARK 1 none parks, at 5 the small ones
        # park at once and the others later, at 7 a chunk parks when its
        # first seed leaves, which parks finished drifting seeds of
        # 1+z+exp(-z) too
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 7)
        monkeypatch.setattr(grid, "PARK", park)
        f = parse(text)
        for spec in (GridSpec(0j, width, width, 8, 8), GridSpec(0.1 + 0.2j, width, width, 7, 5)):
            whole = classify_batch(f, spec.points(), params)
            for workers in (1, 2, 4):
                cg = classify_grid(f, spec, params, workers=workers)
                for name in FIELDS:
                    got, want = getattr(cg, name), getattr(whole, name)
                    assert got.tobytes() == want.tobytes(), (text, spec, park, workers, name)

    @pytest.mark.parametrize("tails", [False, True])
    @pytest.mark.parametrize("order", ["emptied-first", "live-first"])
    def test_merge_past_first_tail_with_an_emptied_live_set(self, order, tails):
        # first_tail = 20, and a seed starts drifting once Re z >= 40.
        # One state's seeds all start at step 0, so its live set empties
        # and it has no tail test.  The other's start at step 10, before
        # first_tail, at 22 (-3: the tail test failed, |z| < 50), at 29
        # (10+37i: point 21, 31+37i, failed it, though every point from
        # 40+37i on, where it starts, passes), at 35 (5+48i: passed) and
        # at 37 and 38, across the merge at step 25
        f = parse("1+z+exp(-z)")
        params = OrbitParams(max_iter=40, escape_radius=50.0, bound_radius=30.0, tail_window=20)
        drifting = np.array([45 + 1j, 60 - 2j, 41 + 0j])
        mixed = np.array([30 + 10j, -3 + 0j, 10 + 37j, 5 + 48j, 1 + 0.5j, 2 - 0.5j])
        want = classify_batch(f, np.concatenate([drifting, mixed]), params, tails)
        e, u = Verdict.ESCAPING, Verdict.UNDECIDED
        assert want.verdict.tolist() == [e, e, e, e, u, u, e, u, u]
        out = orbit._outputs(9, params, tails)

        def check(rows):
            term_kind, term_step, osc, all_below, tail_escape, tail_values = out
            verdict, confident = orbit._verdicts(term_kind, osc, all_below, tail_escape, params)
            got = dict(verdict=verdict, confident=confident, term_kind=term_kind,
                       term_step=term_step, oscillations=osc)
            for name in FIELDS:
                assert got[name][rows].tobytes() == getattr(want, name)[rows].tobytes(), name
            if tails:
                assert tail_values[rows].tobytes() == want.tail_values[rows].tobytes()

        emptied = orbit._BatchRun(f, params, out, np.arange(3), drifting)
        held = orbit._BatchRun(f, params, out, np.arange(3, 9), mixed)
        for state in (emptied, held):
            state.run(25)
        assert emptied.n == 25 and emptied.alive.size == 0 and emptied.tail_ok is None
        assert held.n == 25 and held.alive.size == 4 and held.tail_ok is not None
        # the seeds that started drifting were finished to max_iter: 30+10i
        # had failed the test (|z| < 50) when it started, and passes it now
        check(slice(0, 5))
        merged, other = (emptied, held) if order == "emptied-first" else (held, emptied)
        merged.absorb(other)
        merged.run(params.max_iter)
        check(slice(None))

    def test_states_merge_only_at_one_step(self):
        f, params = parse("z^2"), OrbitParams(max_iter=20)
        out = orbit._outputs(2, params)
        a = orbit._BatchRun(f, params, out, np.arange(1), np.array([0.9 + 0j]))
        b = orbit._BatchRun(f, params, out, np.arange(1, 2), np.array([0.99 + 0j]))
        a.run(3)
        with pytest.raises(ValueError, match="step"):
            a.absorb(b)

    def test_one_straggler_tail(self, monkeypatch):
        # a 256 x 256 grid of z*exp(z^2) classifies its 128 x 128
        # quadrant in four chunks of PARK pixels; each used to run its own
        # tail of hundreds of steps over fewer than PARK seeds, and the
        # merged set runs one
        monkeypatch.setattr(grid, "CHUNK_PIXELS", grid.PARK)
        spec = GridSpec(0j, 4.0, 4.0, 256, 256)
        assert len(grid._deal(256, 256, 128, 128)) == 4
        params = OrbitParams()
        small = []
        real = orbit.eval_array

        def counting(e, z):
            if z.size < grid.PARK:
                small.append(z.size)
            return real(e, z)

        monkeypatch.setattr(orbit, "eval_array", counting)
        for workers in (1, 2):
            small.clear()
            cg = classify_grid(parse("z*exp(z^2)"), spec, params, workers=workers)
            assert 0 < len(small) <= params.max_iter
        monkeypatch.undo()
        whole = classify_batch(parse("z*exp(z^2)"), spec.points(), params)
        assert cg.verdict.tobytes() == whole.verdict.tobytes()

    def test_chunks_of_drifting_seeds_park(self, monkeypatch):
        # in the upper half of the drift map all but a few seeds of each
        # chunk of 1+z+exp(-z) start drifting or overflow within about 40
        # steps; parking counts live seeds only, so each chunk parks then
        # instead of stepping its drifting seeds to max_iter
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 64)
        monkeypatch.setattr(grid, "PARK", 8)
        spec = GridSpec(0j, 12.0, 12.0, 32, 32)
        f = parse("1+z+exp(-z)")
        chunks = []
        real_run = orbit._BatchRun.run

        def run(self, stop, park=0):
            real_run(self, stop, park)
            if park:
                chunks.append((self.n, self.alive.size))

        monkeypatch.setattr(orbit._BatchRun, "run", run)
        whole = classify_batch(f, spec.points(), FATOU_PARAMS)
        for workers in (1, 2, 4):
            chunks.clear()
            cg = classify_grid(f, spec, FATOU_PARAMS, workers=workers)
            assert len(chunks) == 8
            for n, live in chunks:
                assert n < 100 and 0 < live < 8, (workers, n, live)
            for name in FIELDS:
                assert getattr(cg, name).tobytes() == getattr(whole, name).tobytes(), name

    def test_parked_states_hold_no_chunk_buffers(self, monkeypatch):
        # 64 chunks of 16 x 32 pixels of 1+z+exp(-z) in the left
        # half-plane: nearly every seed overflows at step 2, and the top
        # rows, one or two in each chunk, where cos(Im z) > 0, are thrown
        # to the right, where most start drifting and are finished by
        # their own chunk.  So every chunk parks, at step 2, holding under
        # PARK live seeds; the points alone of a chunk kept by each would
        # add 64 x 512 x 16 bytes, more than the output
        monkeypatch.setattr(grid, "CHUNK_PIXELS", 512)
        monkeypatch.setattr(grid, "PARK", 64)
        spec = GridSpec(complex(-10, np.pi + 0.81), 4.0, 1.62, 16, 2048)
        assert len(grid._deal(16, 2048, 0, 0)) == 64 and not spec.mirrored
        f = parse("1+z+exp(-z)")
        params = OrbitParams(max_iter=100, escape_radius=50.0, bound_radius=30.0)
        parked = []
        real_absorb = orbit._BatchRun.absorb

        def absorb(self, other):
            parked.append((other.n, other.alive.size))
            return real_absorb(self, other)

        monkeypatch.setattr(orbit._BatchRun, "absorb", absorb)
        classify_grid(f, spec, params, workers=1)  # tables and plans
        parked.clear()
        tracemalloc.start()
        try:
            cg = classify_grid(f, spec, params, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parked) == 63
        assert all(n == 2 and 0 < live < grid.PARK for n, live in parked), parked
        assert (cg.term_kind == orbit.TERM_OVERFLOW).mean() > 0.9
        whole = classify_batch(f, spec.points(), params)
        for name in FIELDS:
            assert getattr(cg, name).tobytes() == getattr(whole, name).tobytes(), name
        # five output arrays (13 bytes a pixel, with the two flags the
        # rule table reads), the table's temporaries over them and a
        # chunk's working arrays
        output = 13 * spec.pixel_count
        assert peak < 3 * output, (peak, output)


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert resolve_workers(5) == 5

    def test_fallback_is_cpu_count(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_must_be_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
