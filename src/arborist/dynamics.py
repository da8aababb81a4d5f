"""Quadratic maps x -> x^2 + c over Q and the two constructors producing
strictly preperiodic base points.  A family is the int 1 or 2, the shape of
the base point's forward orbit:

    1: a -> -a -> -a ...           (one step onto a fixed point)
    2: a -> a-1 -> -a -> a-1 ...   (one step onto a two-cycle)

:func:`is_family` is the one rule for what is a family; a bool is not one.
A map holds only its family and the integers of its base point a = r/s
(reduced, s >= 1).  Its c is C/s^2 with C = -r(r + s) in the first family
and C = -(r^2 - rs + s^2) in the second.  Neither C shares a prime with s,
because gcd(r, s) = 1, so C/s^2 is reduced; C, a and c are derived from
the stored integers on access.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateBasePoint, checked
from .exactnum import format_reduced, quoted


def is_family(family) -> bool:
    """Whether ``family`` is one of the two families, the int 1 or 2 (not a bool)."""
    return type(family) is int and family in (1, 2)


@checked
class QuadMap(NamedTuple):
    """x -> x^2 + C/s^2 with its family and base point a = r/s.

    Only the families' maps exist: family 1 or 2, r/s reduced with s >= 1, else
    ValueError; a degenerate r/s raises DegenerateBasePoint.  C is derived, not stored.
    """

    family: int
    r: int
    s: int

    def _check(self) -> None:
        r, s = self.r, self.s
        if not is_family(self.family):
            raise ValueError("not a map of either family: the family must be the int 1 or 2")
        if math.gcd(r, s) != 1 or s < 1:  # gcd refuses a non-integer first
            r_text, s_text = quoted(format_reduced(r, 1)), quoted(format_reduced(s, 1))
            raise ValueError(
                f"not a map of either family: r = {r_text} and s = {s_text} "
                "are not a reduced fraction with s >= 1"
            )
        if (r, s) in DEGENERATE[self.family]:
            raise DegenerateBasePoint(f"base point {self.a} is degenerate for this family")

    @property
    def C(self) -> int:
        return integer_c(self.family, self.r, self.s)

    @property
    def a(self) -> Fraction:
        return Fraction(self.r, self.s)

    @property
    def c(self) -> Fraction:
        return Fraction(self.C, self.s * self.s)


def integer_c(family: int, r: int, s: int) -> int:
    """C = c s^2 of the family's map at a = r/s."""
    return -r * (r + s) if family == 1 else -(r * r - r * s + s * s)


#: Base points a = r/s, as (r, s) pairs, at which a family's intended orbit
#: collapses; the constructors reject them and the sweep skips them.
DEGENERATE = {
    1: frozenset({(0, 1), (-1, 1)}),
    2: frozenset({(0, 1), (1, 2)}),
}


def family1(a: Fraction | int) -> QuadMap:
    """Map with c = -a - a^2, for which a falls onto the fixed point -a.

    a = 0 is not preperiodic at all and a = -1 gives c = 0, where the
    backward orbit of the base point is not a regular binary tree; both are
    rejected.
    """
    a = Fraction(a)
    return QuadMap(1, a.numerator, a.denominator)


def family2(a: Fraction | int) -> QuadMap:
    """Map with c = -1 + a - a^2, for which a falls onto a two-cycle.

    a = 0 makes a equal -a and a = 1/2 makes -a equal a - 1, collapsing the
    intended orbit; both are rejected.
    """
    a = Fraction(a)
    return QuadMap(2, a.numerator, a.denominator)
