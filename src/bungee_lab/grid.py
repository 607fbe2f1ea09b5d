"""Pixel grids of orbit verdicts.

Pixel (j, k) of an nx x ny grid samples the center of its cell:

    re = center.real + ((j + 0.5) / nx - 0.5) * width
    im = center.imag + ((k + 0.5) / ny - 0.5) * height

so k = 0 is the lowest imaginary row and the flat index is k * nx + j.
Grids are classified in fixed 65536-pixel chunks regardless of worker
count, which keeps the output bit-identical across thread settings.
Each chunk builds its own pixel centers, so memory follows the chunk
size rather than the grid size.

Mirrored grids.  When every constant of the map is real
(Expr.real_coefficients) and the row ordinates are exact negatives of
each other (ys == -ys[::-1], on the formula above, which holds when
center.imag is 0 and ny is 3 or a power of two), only rows
k >= ny // 2 are classified and each is copied into its mirror row
ny - 1 - k.  The copy is exact,
not an approximation: the mirror pixel is the conjugate seed, and
conjugation commutes with +, -, *, numpy's complex division, negation,
square-and-multiply, exp, sin, cos and isfinite up to the sign of a
zero component.  That sign never changes a magnitude, a status, the
frozen test (==) or a division's pole and rescue rules, so the
conjugate orbit has the same verdict, confidence, termination kind and
step and oscillation count, bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .expr import Expr, format_expr
from .orbit import OrbitParams, Verdict, classify_batch

MAX_GRID_PIXELS = 2**26
CHUNK_PIXELS = 65536


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridSpec:
    center: complex
    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("grid width and height must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must be at least 1x1")
        if self.nx * self.ny > MAX_GRID_PIXELS:
            raise ValueError(f"grid exceeds {MAX_GRID_PIXELS} pixels")

    @property
    def pixel_count(self) -> int:
        return self.nx * self.ny

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Column abscissae xs and row ordinates ys of the pixel centers."""
        xs = self.center.real + ((np.arange(self.nx) + 0.5) / self.nx - 0.5) * self.width
        ys = self.center.imag + ((np.arange(self.ny) + 0.5) / self.ny - 0.5) * self.height
        return xs, ys

    @property
    def mirrored(self) -> bool:
        """Row ny - 1 - k holds the conjugates of row k, exactly."""
        ys = self._axes()[1]
        return bool(np.array_equal(ys, -ys[::-1]))

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Pixel centers at flat indices lo..hi-1 (default: all of them).

        Flat index i = k * nx + j is pixel (j, k).  Any range gives the
        same bits as the matching slice of the whole grid, so chunks can
        be generated one at a time.
        """
        hi = self.pixel_count if hi is None else hi
        xs, ys = self._axes()
        i = np.arange(lo, hi)
        return xs[i % self.nx] + 1j * ys[i // self.nx]

    def to_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "width": self.width,
            "height": self.height,
            "nx": self.nx,
            "ny": self.ny,
        }


@dataclass
class ClassGrid:
    spec: GridSpec
    params: OrbitParams
    function_text: str
    verdict: np.ndarray  # uint8, flat, Verdict values
    confident: np.ndarray  # bool
    term_kind: np.ndarray  # uint8
    term_step: np.ndarray  # int32
    oscillations: np.ndarray  # int32


def classify_grid(
    f: Expr,
    spec: GridSpec,
    params: OrbitParams,
    workers: int | None = None,
) -> ClassGrid:
    """Classify every pixel of spec under f, in CHUNK_PIXELS chunks.

    For a real-coefficient map on a mirrored grid only the rows from
    ny // 2 up are classified; the rows below are copies of their
    mirrors (see the module docstring).
    """
    k = spec.pixel_count
    half = spec.ny // 2 if f.real_coefficients and spec.mirrored else 0
    verdict = np.empty(k, dtype=np.uint8)
    confident = np.empty(k, dtype=bool)
    term_kind = np.empty(k, dtype=np.uint8)
    term_step = np.empty(k, dtype=np.int32)
    osc = np.empty(k, dtype=np.int32)

    def run(lo: int, hi: int) -> None:
        batch = classify_batch(f, spec.points(lo, hi), params)
        verdict[lo:hi] = batch.verdict
        confident[lo:hi] = batch.confident
        term_kind[lo:hi] = batch.term_kind
        term_step[lo:hi] = batch.term_step
        osc[lo:hi] = batch.oscillations

    ranges = [
        (lo, min(lo + CHUNK_PIXELS, k))
        for lo in range(half * spec.nx, k, CHUNK_PIXELS)
    ]
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            run(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda r: run(*r), ranges))
    for a in (verdict, confident, term_kind, term_step, osc):
        rows = a.reshape(spec.ny, spec.nx)
        rows[:half] = rows[::-1][:half]

    return ClassGrid(
        spec=spec,
        params=params,
        function_text=format_expr(f),
        verdict=verdict,
        confident=confident,
        term_kind=term_kind,
        term_step=term_step,
        oscillations=osc,
    )


def mask_stats(grid: ClassGrid) -> dict:
    """Pixel counts per verdict, total and confident-only."""
    counts = {}
    confident = {}
    for v in Verdict:
        mask = grid.verdict == int(v)
        counts[v.label] = int(mask.sum())
        confident[v.label] = int((mask & grid.confident).sum())
    return {"total": int(grid.verdict.size), "counts": counts, "confident": confident}
