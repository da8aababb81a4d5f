"""Julia set approximation by random inverse iteration from a base point.

Iterating z <- +-sqrt(z - c) with random branch choices walks the backward
orbit of the starting point, which accumulates on the Julia set of
x^2 + c.  This renderer is illustrative and runs in double precision,
decoupled from the exact certification core.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import NamedTuple

from .errors import UsageError, checked

#: The most pixels an image may have, width times height (256 MiB of PGM).
MAX_PIXELS = 1 << 28


@checked
class RenderConfig(NamedTuple):
    width: int = 800
    height: int = 800
    #: (re_min, re_max, im_min, im_max)
    bounds: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    n_points: int = 200_000
    burn_in: int = 50
    seed: int = 0

    def _check(self) -> None:
        re_min, re_max, im_min, im_max = self.bounds
        if self.width < 1 or self.height < 1:
            raise UsageError("image dimensions must be positive")
        if self.width * self.height > MAX_PIXELS:
            raise UsageError(f"width * height must be at most MAX_PIXELS = 2**28 = {MAX_PIXELS}")
        if not all(map(math.isfinite, self.bounds)):
            raise UsageError("bounds must be finite")
        if not (re_max > re_min and im_max > im_min):
            raise UsageError("bounds must have positive area")
        if not all(0 < x < math.inf for x in self.scale):
            raise UsageError("bounds are too narrow or too far apart for a finite pixel scale")
        if self.n_points < 1:
            raise UsageError("need at least one point")
        if self.burn_in < 0:
            raise UsageError("burn-in must be nonnegative")

    @property
    def scale(self) -> tuple[float, float]:
        """Pixels per unit along the real and the imaginary axis."""
        re_min, re_max, im_min, im_max = self.bounds
        return self.width / (re_max - re_min), self.height / (im_max - im_min)


def sample_backward(c: complex, a: complex, cfg: RenderConfig) -> list[complex]:
    """Random backward orbit of a under x^2 + c, burn-in discarded.

    The branch sign at each step comes from a PRNG seeded with cfg.seed, so
    the output is identical for identical configurations.
    """
    rng = random.Random(cfg.seed)
    z = complex(a)
    c = complex(c)
    points: list[complex] = []
    total = cfg.burn_in + cfg.n_points
    for i in range(total):
        z = cmath.sqrt(z - c)
        if rng.getrandbits(1):
            z = -z
        if i >= cfg.burn_in:
            points.append(z)
    return points


def render(points: list[complex], cfg: RenderConfig) -> bytes:
    """Bin points into a binary PGM (P5) image, one byte per pixel.

    Hit pixels are 255, the rest 0; points outside the bounds are dropped,
    and so is a point whose scaled coordinate is infinite or NaN.
    """
    re_min, _, _, im_max = cfg.bounds
    re_scale, im_scale = cfg.scale
    pixels = bytearray(cfg.width * cfg.height)
    for z in points:
        x = (z.real - re_min) * re_scale
        y = (im_max - z.imag) * im_scale  # image row 0 is the top
        # int() truncates toward 0, so -1 < x < width is 0 <= int(x) < width
        if -1 < x < cfg.width and -1 < y < cfg.height:
            pixels[int(y) * cfg.width + int(x)] = 255
    header = f"P5\n{cfg.width} {cfg.height}\n255\n".encode("ascii")
    return header + bytes(pixels)


def points_csv(points: list[complex]) -> str:
    """Points as 're,im' rows."""
    return "".join(f"{z.real!r},{z.imag!r}\n" for z in points)
