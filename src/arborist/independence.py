"""Multiplicative independence of rationals modulo squares.

A finite sequence of nonzero rationals is 2-independent when no nonempty
subset has a product that is a rational square; equivalently, their images
in Q*/(Q*)^2 are linearly independent over F_2.  This is exactly the
hypothesis of the surjectivity criterion the verdict layer certifies: a
value is a square in the multiquadratic field generated by the square roots
of earlier values iff some subset product involving it is a rational
square.

The reduction to F_2 linear algebra works over a pairwise-coprime basis
built by gcd refinement, never by factoring: a product of coprime basis
powers is a square iff each non-square basis element carries an even total
exponent, so composite basis elements are perfectly good coordinates and
perfect-square ones drop out entirely.

Values may be given as integers: an integer is a rational with denominator
1.  Callers that know a value's square class through an integer, such as
the adjusted orbit's :attr:`~arborist.critorbit.AdjustedOrbit.square_class_reps`
whose denominators are all even powers of s, should pass that integer and
keep square denominators out of the refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .exactnum import factor_refine, is_perfect_square, rational_is_square

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CoprimeBasis:
    """Pairwise-coprime integers >= 2, none of them a perfect square."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, b in enumerate(self.elements):
            if b < 2 or is_perfect_square(b):
                raise ValueError(f"invalid basis element {b}")
            for other in self.elements[i + 1 :]:
                if math.gcd(b, other) != 1:
                    raise ValueError(f"basis elements {b}, {other} not coprime")


@dataclass(frozen=True)
class SquareClassVector:
    """Image of a nonzero rational in Q*/(Q*)^2 over a shared basis.

    ``parities`` is sparse: it maps basis indices to 1 and omits zeros.
    """

    sign_bit: int
    parities: dict[int, int] = field(default_factory=dict)

    def bitmask(self) -> int:
        mask = self.sign_bit
        for idx in self.parities:
            mask |= 1 << (idx + 1)
        return mask


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    #: sorted indices into the input sequence whose product is a square
    witness: tuple[int, ...] | None = None


def square_classes(
    values: Sequence[Fraction | int],
) -> tuple[CoprimeBasis, list[SquareClassVector]]:
    """Express nonzero rationals as sign bits plus parity vectors.

    All numerator magnitudes and denominators >= 2 are refined into one
    shared coprime basis; perfect-square basis elements contribute nothing
    modulo squares and are dropped.
    """
    vals = [Fraction(v) for v in values]
    if any(v == 0 for v in vals):
        raise ValueError("square classes are undefined for zero")
    magnitudes: list[int] = []
    for v in vals:
        if abs(v.numerator) >= 2:
            magnitudes.append(abs(v.numerator))
        if v.denominator >= 2:
            magnitudes.append(v.denominator)
    if magnitudes:
        basis_all, rows_all = factor_refine(magnitudes)
    else:
        basis_all, rows_all = [], []
    keep = [i for i, b in enumerate(basis_all) if not is_perfect_square(b)]
    basis = CoprimeBasis(tuple(basis_all[i] for i in keep))

    vectors: list[SquareClassVector] = []
    rows = iter(rows_all)
    for v in vals:
        total = [0] * len(basis_all)
        if abs(v.numerator) >= 2:
            for i, e in enumerate(next(rows)):
                total[i] += e
        if v.denominator >= 2:
            for i, e in enumerate(next(rows)):
                total[i] += e  # parity only; numerator vs denominator is irrelevant
        parities = {slot: 1 for slot, i in enumerate(keep) if total[i] % 2}
        vectors.append(SquareClassVector(sign_bit=1 if v < 0 else 0, parities=parities))
    return basis, vectors


def two_independent(values: Sequence[Fraction | int]) -> IndependenceResult:
    """Decide 2-independence by F_2 elimination over the square classes.

    A dependency witness (subset with square product) is re-verified with
    rational_is_square before being returned, so a linear-algebra bug can
    never produce a silently wrong witness.
    """
    vals = [Fraction(v) for v in values]
    _, vectors = square_classes(vals)
    pivots: dict[int, tuple[int, int]] = {}
    for i, vec in enumerate(vectors):
        row = vec.bitmask()
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
            product = math.prod((vals[j] for j in subset), start=Fraction(1))
            if not rational_is_square(product):
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
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} values")
    if any(v == 0 for v in vals):
        raise ValueError("independence is undefined for zero")

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

