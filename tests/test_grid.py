"""Grid sampling geometry, worker determinism, thread-count resolution."""

from __future__ import annotations

import numpy as np
import pytest

from bungee_lab.expr import parse
from bungee_lab.grid import (
    MAX_GRID_PIXELS,
    GridSpec,
    classify_grid,
    mask_stats,
    resolve_workers,
)
from bungee_lab.orbit import OrbitParams


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

    def test_chunk_size_does_not_change_results(self):
        f = parse("z^2")
        spec = GridSpec(0j, 4.0, 4.0, 16, 16)
        p = OrbitParams(max_iter=100)
        a = classify_grid(f, spec, p, chunk=7)
        b = classify_grid(f, spec, p, chunk=100000)
        assert np.array_equal(a.verdict, b.verdict)

    def test_function_text_recorded(self):
        cg = classify_grid(parse("z^2"), GridSpec(0j, 2.0, 2.0, 2, 2),
                           OrbitParams(max_iter=20))
        assert cg.function_text == "(z^2)"


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("BUNGEE_LAB_THREADS", "2")
        assert resolve_workers(5) == 5

    def test_env_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("BUNGEE_LAB_THREADS", "3")
        assert resolve_workers(None) == 3

    def test_fallback_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("BUNGEE_LAB_THREADS", raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["junk", "0", "-2", "1.5"])
    def test_env_must_be_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("BUNGEE_LAB_THREADS", raw)
        with pytest.raises(ValueError, match="BUNGEE_LAB_THREADS"):
            resolve_workers(None)

    def test_explicit_must_be_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
