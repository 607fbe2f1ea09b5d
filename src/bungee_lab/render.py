"""Deterministic PPM (P6) renders of verdict grids.

The header is exactly "P6\n{nx} {ny}\n255\n" followed by nx*ny RGB
triples, top row first, where the top row holds the pixels with the
largest imaginary part.  Colors are fixed integer functions of the
verdict arrays, so a given grid always produces byte-identical output:

    bounded    solid black
    pole       solid white
    bungee     solid orange
    undecided  solid gray
    escaping   ramp from the termination step n:
               i = min(255, 255 * n // n_shade), rgb = (i//3, i//2, i)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ClassGrid
from .orbit import Verdict

DEFAULT_N_SHADE = 64


@dataclass(frozen=True)
class Palette:
    bounded: tuple[int, int, int] = (0, 0, 0)
    bungee: tuple[int, int, int] = (255, 140, 0)
    undecided: tuple[int, int, int] = (96, 96, 96)
    pole: tuple[int, int, int] = (255, 255, 255)


def render_ppm(
    grid: ClassGrid,
    palette: Palette = Palette(),
    n_shade: int = DEFAULT_N_SHADE,
) -> bytes:
    if n_shade < 1:
        raise ValueError("n_shade must be at least 1")
    nx, ny = grid.spec.nx, grid.spec.ny
    verdict = grid.verdict.reshape(ny, nx)
    steps = grid.term_step.reshape(ny, nx).astype(np.int64)

    img = np.zeros((ny, nx, 3), dtype=np.uint8)
    img[verdict == int(Verdict.BOUNDED)] = palette.bounded
    img[verdict == int(Verdict.BUNGEE)] = palette.bungee
    img[verdict == int(Verdict.UNDECIDED)] = palette.undecided
    img[verdict == int(Verdict.POLE)] = palette.pole

    esc = verdict == int(Verdict.ESCAPING)
    if esc.any():
        i = np.minimum(255, 255 * steps[esc] // n_shade).astype(np.uint8)
        img[esc] = np.stack([i // 3, i // 2, i], axis=-1)

    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    return header + img[::-1].tobytes()
