"""Pixel grids of orbit verdicts.

Pixel (j, k) of an nx x ny grid samples the center of its cell:

    re = center.real + ((j + 0.5) / nx - 0.5) * width
    im = center.imag + ((k + 0.5) / ny - 0.5) * height

so k = 0 is the lowest imaginary row and the flat index is k * nx + j.

Chunks.  The pixels to classify form a block of rows r0.. and columns
c0.. (the whole grid unless a symmetry below applies).  It is cut into
chunks of at most CHUNK_PIXELS pixels that deal rows round-robin: chunk
c of C takes rows r0 + c, r0 + C + c, ..., so the long orbits that
crowd near an axis spread evenly over the chunks.  C depends only on
the block size and CHUNK_PIXELS, never on the worker count.  A row
wider than CHUNK_PIXELS is split into column ranges.  Each chunk builds
its own pixel centers and steps them as one classify_batch state
(orbit._BatchRun), on the worker threads, until fewer than PARK of its
seeds are live; then it parks.  Seeds that start drifting leave the
live set and are finished to max_iter by their own chunk, on its
thread.  Most orbits are short, so each chunk would otherwise run its
own long tail of steps over a handful of seeds.  The calling thread
takes the parked states in order of their step, steps the merged set
on to the next one's step and merges it in, and runs the whole set to
the end once.  Seeds never
interact, so the output is bit-identical to one classify_batch over the
block, whatever the worker count, and memory follows the chunk size and
the parked seeds rather than the grid size.

Symmetric grids.  Two symmetries of a map fill pixels without
classifying them.  Both are exact, not approximations, because the
evaluation of the map, and so the whole orbit, commutes with them up to
the sign of a zero component.  That sign never changes a magnitude, a
status, the frozen test (==) or a division's pole and rescue rules, so
the paired seed has the same verdict, confidence, termination kind and
step and oscillation count, bit for bit.

- Conjugation: every constant of the map is real
  (Expr.real_coefficients) and the row ordinates are exact negatives of
  each other (ys == -ys[::-1], GridSpec.mirrored).  Row ny - 1 - k then
  holds the conjugates of row k, and f(conj z) = conj(f(z)).
- Point symmetry: the map is even or odd (Expr.parity) and both axes
  are exact negatives of themselves (GridSpec.point_symmetric).  Pixel
  (nx - 1 - j, ny - 1 - k) then holds the negative of pixel (j, k), and
  f(-z) = +-f(z); an odd map's orbit from -z is the negative of the
  orbit from z, and an even map's joins it after one step.

On the formula above an axis is antisymmetric when its center
coordinate is 0 and its pixel count is 3 or a power of two.  With one
symmetry, rows k >= ny // 2 are classified and rows below are filled
by the row flip (conjugation) or the 180-degree turn (point symmetry).
With both, only the quadrant k >= ny // 2, j >= nx // 2 is classified:
its columns are mirrored into j < nx // 2 (the two symmetries together
negate the real part only), then the rows into k < ny // 2.  So an odd
or even map with real coefficients, such as z^2, 1/z^4, z*exp(z^2) or
z + sin(z), classifies a quarter of a centred 512 x 512 grid; z^2 +
0.3i or 1 + z + exp(-z) on the same grid classify half of it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .expr import Expr, format_expr
from .orbit import OrbitParams, Verdict, _BatchRun, _outputs, _verdicts
# bench/tracer.py wraps grid.classify_batch by name, so the name stays
# here; classify_grid itself no longer calls it
from .orbit import classify_batch  # noqa: F401

MAX_GRID_PIXELS = 2**26
CHUNK_PIXELS = 2**15
# a chunk parks once fewer seeds than this are live; drifting seeds, which
# the chunk finishes itself, do not count.  On the six gallery grids at 2
# threads, 2048 and 4096 ran 5% faster than 1024 and 8192, and 64 and 256
# gained half as much or less
PARK = 2**12


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    return os.cpu_count() or 1


def _antisymmetric(axis: np.ndarray) -> bool:
    return bool(np.array_equal(axis, -axis[::-1]))


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
        return _antisymmetric(self._axes()[1])

    @property
    def point_symmetric(self) -> bool:
        """Pixel (nx - 1 - j, ny - 1 - k) is the negative of pixel (j, k), exactly."""
        xs, ys = self._axes()
        return _antisymmetric(xs) and _antisymmetric(ys)

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Pixel centers at flat indices lo..hi-1 (default: all of them).

        Flat index i = k * nx + j is pixel (j, k).  Any range gives the
        same bits as the matching slice of the whole grid.
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


def _deal(nx: int, ny: int, r0: int, c0: int) -> list[tuple[np.ndarray, int, int]]:
    """Chunks (rows, lo, hi) covering rows r0.. and columns c0.. of the grid.

    Chunk c of C takes rows r0 + c, r0 + C + c, ..., so the long orbits
    of neighbouring rows spread over all chunks.  C follows from the
    block size and CHUNK_PIXELS alone; a row wider than CHUNK_PIXELS is
    split into column ranges, one row per chunk, so no chunk exceeds
    CHUNK_PIXELS pixels.
    """
    width = min(nx - c0, CHUNK_PIXELS)
    n = -(-(ny - r0) // (CHUNK_PIXELS // width))
    return [
        (np.arange(r0 + c, ny, n), lo, min(lo + width, nx))
        for lo in range(c0, nx, width)
        for c in range(n)
    ]


def classify_grid(
    f: Expr,
    spec: GridSpec,
    params: OrbitParams,
    workers: int | None = None,
) -> ClassGrid:
    """Classify every pixel of spec under f, in chunks of dealt rows.

    Only the block of rows from r0 up and columns from c0 up is
    classified; the symmetries of f and spec fill in the rest (see the
    module docstring).
    """
    conj = f.real_coefficients and spec.mirrored
    flip = f.parity != 0 and spec.point_symmetric
    r0 = spec.ny // 2 if conj or flip else 0
    c0 = spec.nx // 2 if conj and flip else 0
    nx, ny, max_iter = spec.nx, spec.ny, params.max_iter
    xs, ys = spec._axes()
    # term_kind, term_step, oscillations, all_below, tail_escape; flat index
    out = _outputs(spec.pixel_count, params)

    def start(rows: np.ndarray, lo: int, hi: int) -> _BatchRun | None:
        """The chunk's state, parked, or None once it has run to the end."""
        # the same bits as spec.points() at these pixels
        seeds = (xs[lo:hi] + 1j * ys[rows, None]).ravel()
        state = _BatchRun(f, params, out, (rows[:, None] * nx + np.arange(lo, hi)).ravel(), seeds)
        state.run(max_iter, PARK)
        return state if state.n < max_iter else None

    chunks = _deal(nx, ny, r0, c0)
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(chunks) <= 1:
        states = [start(*chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            states = list(pool.map(lambda c: start(*c), chunks))
    parked = sorted((s for s in states if s is not None), key=lambda s: s.n)
    if parked:
        merged = parked[0]
        for state in parked[1:]:
            merged.run(state.n)
            merged.absorb(state)
        merged.run(max_iter)

    term_kind, term_step, osc, all_below, tail_escape = (a.reshape(ny, nx) for a in out[:5])
    block = np.s_[r0:, c0:]
    verdict = np.empty((ny, nx), dtype=np.uint8)
    confident = np.empty((ny, nx), dtype=bool)
    verdict[block], confident[block] = _verdicts(
        term_kind[block], osc[block], all_below[block], tail_escape[block], params
    )
    grids = (verdict, confident, term_kind, term_step, osc)
    for g in grids:
        g[r0:, :c0] = g[r0:, ::-1][:, :c0]
        g[:r0] = (g[::-1] if conj else g[::-1, ::-1])[:r0]
    return ClassGrid(spec, params, format_expr(f), *(g.ravel() for g in grids))


def mask_stats(grid: ClassGrid) -> dict:
    """Pixel counts per verdict, total and confident-only."""
    counts = {}
    confident = {}
    for v in Verdict:
        mask = grid.verdict == int(v)
        counts[v.label] = int(mask.sum())
        confident[v.label] = int((mask & grid.confident).sum())
    return {"total": int(grid.verdict.size), "counts": counts, "confident": confident}
