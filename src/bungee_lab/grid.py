"""Pixel grids of orbit verdicts.

Pixel (j, k) of an nx x ny grid samples the center of its cell:

    re = center.real + ((j + 0.5) / nx - 0.5) * width
    im = center.imag + ((k + 0.5) / ny - 0.5) * height

so k = 0 is the lowest imaginary row and the flat index is k * nx + j.
Grids are classified in fixed 65536-pixel chunks regardless of worker
count, which keeps the output bit-identical across thread settings.
Each chunk builds its own pixel centers, so memory follows the chunk
size rather than the grid size.
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

THREADS_ENV_VAR = "BUNGEE_LAB_THREADS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, then the environment, then the CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
        return value
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

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Pixel centers at flat indices lo..hi-1 (default: all of them).

        Flat index i = k * nx + j is pixel (j, k).  Any range gives the
        same bits as the matching slice of the whole grid, so chunks can
        be generated one at a time.
        """
        hi = self.pixel_count if hi is None else hi
        xs = self.center.real + ((np.arange(self.nx) + 0.5) / self.nx - 0.5) * self.width
        ys = self.center.imag + ((np.arange(self.ny) + 0.5) / self.ny - 0.5) * self.height
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
    chunk: int = CHUNK_PIXELS,
) -> ClassGrid:
    k = spec.pixel_count
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

    ranges = [(lo, min(lo + chunk, k)) for lo in range(0, k, chunk)]
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            run(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda r: run(*r), ranges))

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
