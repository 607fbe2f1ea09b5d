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

import numpy as np

from .grid import ClassGrid
from .orbit import Verdict

DEFAULT_N_SHADE = 64


def render_ppm(grid: ClassGrid, n_shade: int = DEFAULT_N_SHADE) -> bytes:
    if n_shade < 1:
        raise ValueError("n_shade must be at least 1")
    nx, ny = grid.spec.nx, grid.spec.ny
    verdict = grid.verdict.reshape(ny, nx)
    steps = grid.term_step.reshape(ny, nx).astype(np.int64)

    img = np.zeros((ny, nx, 3), dtype=np.uint8)  # bounded pixels stay black
    img[verdict == int(Verdict.BUNGEE)] = (255, 140, 0)
    img[verdict == int(Verdict.UNDECIDED)] = (96, 96, 96)
    img[verdict == int(Verdict.POLE)] = (255, 255, 255)

    esc = verdict == int(Verdict.ESCAPING)
    if esc.any():
        i = np.minimum(255, 255 * steps[esc] // n_shade).astype(np.uint8)
        img[esc] = np.stack([i // 3, i // 2, i], axis=-1)

    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    return header + img[::-1].tobytes()
