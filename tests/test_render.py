"""PPM output: header, orientation, shading, determinism."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bungee_lab.expr import parse
from bungee_lab.grid import ClassGrid, GridSpec, classify_grid
from bungee_lab.orbit import OrbitParams
from bungee_lab.presets import FATOU_PARAMS
from bungee_lab.render import DEFAULT_N_SHADE, render_ppm


def _manual_grid(verdicts, nx, ny, term_step=None):
    n = nx * ny
    v = np.asarray(verdicts, dtype=np.uint8)
    steps = np.zeros(n, np.int32) if term_step is None else np.asarray(term_step, np.int32)
    return ClassGrid(
        spec=GridSpec(0j, float(nx), float(ny), nx, ny),
        verdict=v,
        confident=np.ones(n, bool),
        term_kind=np.zeros(n, np.uint8),
        term_step=steps,
        oscillations=np.zeros(n, np.int32),
        function_text="test",
        params=OrbitParams(),
    )


class TestFormat:
    def test_header_and_length(self):
        data = render_ppm(_manual_grid([1, 1, 1, 1, 1, 1], 3, 2))
        assert data.startswith(b"P6\n3 2\n255\n")
        header_len = len(b"P6\n3 2\n255\n")
        assert len(data) == header_len + 3 * 3 * 2

    def test_single_bounded_pixel(self):
        assert render_ppm(_manual_grid([1], 1, 1)) == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_bounded_then_pole_row(self):
        data = render_ppm(_manual_grid([1, 4], 2, 1))
        assert data == b"P6\n2 1\n255\n\x00\x00\x00\xff\xff\xff"

    def test_top_row_has_max_imaginary_part(self):
        # verdict index 0 sits at the lowest Im; the file starts at the top
        data = render_ppm(_manual_grid([1, 4], 1, 2))
        payload = data[len(b"P6\n1 2\n255\n"):]
        assert payload == b"\xff\xff\xff\x00\x00\x00"


class TestShading:
    def test_escape_brightness_scales_with_step(self):
        g = _manual_grid([0, 0, 0], 3, 1, term_step=[0, 32, 64])
        payload = render_ppm(g)[len(b"P6\n3 1\n255\n"):]
        px = [payload[i : i + 3] for i in (0, 3, 6)]
        assert px[0] == b"\x00\x00\x00"  # immediate escape stays dark
        assert px[2] != b"\x00\x00\x00"
        # halfway step is strictly dimmer than the saturated pixel
        assert all(a <= b for a, b in zip(px[1], px[2]))
        assert px[1] != px[2]

    def test_escape_saturates_at_n_shade(self):
        g = _manual_grid([0, 0], 2, 1, term_step=[DEFAULT_N_SHADE, DEFAULT_N_SHADE * 10])
        payload = render_ppm(g)[len(b"P6\n2 1\n255\n"):]
        assert payload[:3] == payload[3:]

    def test_n_shade_parameter(self):
        g = _manual_grid([0], 1, 1, term_step=[8])
        dim = render_ppm(g, n_shade=64)
        bright = render_ppm(g, n_shade=8)
        assert dim != bright

    def test_five_verdicts_distinct_colors(self):
        g = _manual_grid([0, 1, 2, 3, 4], 5, 1, term_step=[1000, 0, 0, 0, 0])
        payload = render_ppm(g)[len(b"P6\n5 1\n255\n"):]
        colors = {payload[i : i + 3] for i in range(0, 15, 3)}
        assert len(colors) == 5


class TestDeterminism:
    def test_repeat_renders_identical(self):
        cg = classify_grid(parse("1/z^2"), GridSpec(0j, 4.0, 4.0, 48, 48), OrbitParams())
        a = render_ppm(cg)
        b = render_ppm(cg)
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_reclassified_grid_renders_identical(self):
        spec = GridSpec(0j, 4.0, 4.0, 32, 32)
        p = OrbitParams(max_iter=200)
        a = render_ppm(classify_grid(parse("z^2"), spec, p, workers=1))
        b = render_ppm(classify_grid(parse("z^2"), spec, p, workers=4))
        assert a == b


class TestValidation:
    def test_verdict_length_must_match(self):
        g = _manual_grid([1, 1], 2, 1)
        bad = ClassGrid(
            spec=GridSpec(0j, 3.0, 1.0, 3, 1),
            verdict=g.verdict,
            confident=g.confident,
            term_kind=g.term_kind,
            term_step=g.term_step,
            oscillations=g.oscillations,
            function_text="t",
            params=g.params,
        )
        with pytest.raises(ValueError):
            render_ppm(bad)


# sha256 of render_ppm on 64x64 grids of maps whose seeds mostly stay
# live for every step, recorded before the evaluator ran compiled plans;
# they pin the long-orbit path of classify_batch and must never change
LONG_ORBIT_GOLDEN = (
    ("z*exp(-z^2)", 6.0, OrbitParams(),
     "e215c2178755253376dbab25b5fd19b0ac6b013288726d455c95b234af7ea387"),
    ("z*exp(z^2)", 4.0, OrbitParams(),
     "dfd9e8c475998bb5f5b10f88d17a3e04e00800bfc073a9b54cc01dba1d7b7077"),
    ("z+sin(z)", 12.0, FATOU_PARAMS,
     "40103a7f72ccbe90af9af1e326c5dd8da8383bb6c5a10113e953640f2d694666"),
)


@pytest.mark.parametrize("text,width,params,digest", LONG_ORBIT_GOLDEN,
                         ids=[g[0] for g in LONG_ORBIT_GOLDEN])
def test_long_orbit_golden_digests(text, width, params, digest):
    grid = classify_grid(parse(text), GridSpec(0j, width, width, 64, 64), params)
    assert hashlib.sha256(render_ppm(grid)).hexdigest() == digest
