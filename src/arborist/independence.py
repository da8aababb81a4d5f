"""Multiplicative independence of rationals modulo squares.

A finite sequence of nonzero rationals is 2-independent when no nonempty
subset has a product that is a rational square; equivalently, their images
in Q*/(Q*)^2 are linearly independent over F_2.  This is exactly the
hypothesis of the surjectivity criterion the verdict layer certifies: a
value is a square in the multiquadratic field generated by the square roots
of earlier values iff some subset product involving it is a rational
square.

Each value works as one integer key, so numerators and denominators never
become separate rows: a reduced p/q lies in the square class of p when q is
a perfect square, and of p*q otherwise, because p/q = p*q/q^2.  An orbit
value, a numerator over a square, is keyed by its numerator, and the primes
of its denominator never reach the basis.  The reduction to F_2 linear
algebra works over a pairwise-coprime basis built by one gcd refinement of
the keys, never by factoring: a product of coprime basis powers is a square
iff each non-square basis element carries an even total exponent, so
composite basis elements are perfectly good coordinates and perfect-square
ones drop out entirely.  A square class is an integer bitmask (sign bit,
then one parity bit per basis element), and elimination runs on those
masks.

Values may be given as integers or Fractions; an integer is keyed by
itself either way.  :func:`two_independent` is the generic decider, used
by the CLI's ``independence`` command, and by :mod:`arborist.verdict` on
the orbit levels that can join a square product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, UsageError, checked
from .exactnum import factor_refine, format_reduced, is_perfect_square, quoted, rational_is_square

BRUTE_FORCE_LIMIT = 20
_ZERO = "independence is undefined for zero, which has no square class"


@checked
class CoprimeBasis(NamedTuple):
    """Pairwise-coprime integers >= 2, none of them a perfect square."""

    elements: tuple[int, ...]

    def _check(self) -> None:
        for i, b in enumerate(self.elements):
            if not isinstance(b, int):
                raise ValueError(f"basis element is a {type(b).__name__}, not an int")
            if b < 2 or is_perfect_square(b):
                raise ValueError(f"invalid basis element {quoted(format_reduced(b, 1))}")
            for other in self.elements[i + 1 :]:
                if math.gcd(b, other) != 1:
                    b_text, other_text = (quoted(format_reduced(x, 1)) for x in (b, other))
                    raise ValueError(f"basis elements {b_text}, {other_text} not coprime")


class IndependenceResult(NamedTuple):
    independent: bool
    #: sorted indices into the input sequence whose product is a square
    witness: tuple[int, ...] | None = None


def square_classes(
    values: Sequence[Fraction | int],
) -> tuple[CoprimeBasis, list[int]]:
    """Express nonzero rationals as square-class bitmasks over one basis.

    A reduced p/q lies in the square class of the integer key p when q is a
    perfect square, and of p*q otherwise, since p/q = p*q/q^2.  The keys of
    magnitude >= 2 are refined into one shared coprime basis, one input per
    value; perfect-square basis elements contribute nothing modulo squares
    and are dropped.  Bit 0 of a mask is the sign and bit j + 1 the parity
    of basis element j.
    """
    keys = [
        v.numerator if is_perfect_square(v.denominator) else v.numerator * v.denominator
        for v in values
    ]
    if 0 in keys:
        raise UsageError(_ZERO)
    basis_all, rows = factor_refine(abs(k) for k in keys if abs(k) >= 2)
    keep = [i for i, b in enumerate(basis_all) if not is_perfect_square(b)]
    masks: list[int] = []
    rows_iter = iter(rows)
    for k in keys:
        mask = int(k < 0)
        if abs(k) >= 2:
            row = next(rows_iter)
            for bit, i in enumerate(keep, start=1):
                mask |= (row[i] & 1) << bit
        masks.append(mask)
    return CoprimeBasis(tuple(basis_all[i] for i in keep)), masks


def two_independent(values: Sequence[Fraction | int]) -> IndependenceResult:
    """Decide 2-independence by F_2 elimination over the square classes.

    A dependency witness (subset with square product) is re-verified with
    rational_is_square on the given values before being returned, so a
    linear-algebra bug can never produce a silently wrong witness.
    """
    _, masks = square_classes(values)
    pivots: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(masks):
        combo = 1 << i
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = (row, combo)
                break
            prow, pcombo = pivots[low]
            row ^= prow
            combo ^= pcombo
        if row == 0:
            subset = tuple(j for j in range(i + 1) if combo >> j & 1)
            if not rational_is_square(math.prod(values[j] for j in subset)):
                raise InvariantViolation(
                    f"witness {subset} failed the exact square re-verification"
                )
            return IndependenceResult(False, subset)
    return IndependenceResult(True)


def brute_force_independent(values: Sequence[Fraction]) -> IndependenceResult:
    """Ground-truth 2-independence by enumerating all subset products.

    Subsets are explored in lexicographic order of their index tuples and
    the first square product wins.  Capped at 20 values.
    """
    vals = [Fraction(v) for v in values]
    if len(vals) > BRUTE_FORCE_LIMIT:
        raise UsageError(f"brute force capped at {BRUTE_FORCE_LIMIT} values")
    if any(v == 0 for v in vals):
        raise UsageError(_ZERO)

    def explore(start: int, prefix: tuple[int, ...], product: Fraction):
        for j in range(start, len(vals)):
            subset = prefix + (j,)
            extended = product * vals[j]
            if rational_is_square(extended):
                return subset
            found = explore(j + 1, subset, extended)
            if found is not None:
                return found
        return None

    witness = explore(0, (), Fraction(1))
    if witness is None:
        return IndependenceResult(True)
    return IndependenceResult(False, witness)

