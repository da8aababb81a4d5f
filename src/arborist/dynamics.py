"""Quadratic maps x -> x^2 + c over Q, exact orbits, and the two
constructors producing strictly preperiodic base points (tail length 1 into
a fixed point, and tail length 1 into a two-cycle).

For a = r/s reduced, both constructors build c from integers as one
reduced fraction over s^2: c = -r(r + s)/s^2 and c = -(r^2 - rs + s^2)/s^2.
Neither numerator shares a prime with s, because gcd(r, s) = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateBasePoint


class Family(enum.Enum):
    """Shape of the base point's forward orbit."""

    #: a -> -a -> -a ...  (one step onto a fixed point)
    CYCLE1 = 1
    #: a -> a-1 -> -a -> a-1 ...  (one step onto a two-cycle)
    CYCLE2 = 2


@dataclass(frozen=True)
class QuadMap:
    """The map x -> x^2 + c with its family and distinguished base point."""

    c: Fraction
    family: Family
    a: Fraction

    def apply(self, x: Fraction) -> Fraction:
        return x * x + self.c


#: Base points a = r/s, as (r, s) pairs, at which a family's intended orbit
#: collapses; the constructors reject them and the sweep skips them.
DEGENERATE = {
    Family.CYCLE1: frozenset({(0, 1), (-1, 1)}),
    Family.CYCLE2: frozenset({(0, 1), (1, 2)}),
}


def _checked(a: Fraction | int, family: Family) -> Fraction:
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if (a.numerator, a.denominator) in DEGENERATE[family]:
        raise DegenerateBasePoint(f"base point {a} is degenerate for this family")
    return a


def family1(a: Fraction | int) -> QuadMap:
    """Map with c = -a - a^2, for which a falls onto the fixed point -a.

    a = 0 is not preperiodic at all and a = -1 gives c = 0, where the
    backward orbit of the base point is not a regular binary tree; both are
    rejected.
    """
    a = _checked(a, Family.CYCLE1)
    r, s = a.numerator, a.denominator
    c = Fraction(-r * (r + s), s * s)
    return QuadMap(c=c, family=Family.CYCLE1, a=a)


def family2(a: Fraction | int) -> QuadMap:
    """Map with c = -1 + a - a^2, for which a falls onto a two-cycle.

    a = 0 makes a equal -a and a = 1/2 makes -a equal a - 1, collapsing the
    intended orbit; both are rejected.
    """
    a = _checked(a, Family.CYCLE2)
    r, s = a.numerator, a.denominator
    c = Fraction(-(r * r - r * s + s * s), s * s)
    return QuadMap(c=c, family=Family.CYCLE2, a=a)


def iterate(f: QuadMap, x: Fraction | int, n: int) -> Fraction:
    """Exact n-fold composition f^n(x); n = 0 returns x."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    x = Fraction(x)
    for _ in range(n):
        x = f.apply(x)
    return x

