"""Multiplicative independence of rationals modulo squares.

A finite sequence of nonzero rationals is 2-independent when no nonempty
subset has a product that is a rational square; equivalently, their images
in Q*/(Q*)^2 are linearly independent over F_2.  This is exactly the
hypothesis of the surjectivity criterion the verdict layer certifies: a
value is a square in the multiquadratic field generated by the square roots
of earlier values iff some subset product involving it is a rational
square.

Each value works as one integer key, so numerators and denominators never
become separate rows: a reduced p/q lies in the square class of p when q
is a perfect square, and of p*q otherwise, because p/q = p*q/q^2.  Orbit
values D_n = +-r_n / s^(2^n) are keyed by their numerators, and the primes
of s never reach the basis.  The reduction to F_2 linear algebra works over
a pairwise-coprime basis built by one gcd refinement of the keys, never by
factoring: a product of coprime basis powers is a square iff each
non-square basis element carries an even total exponent, so composite basis
elements are perfectly good coordinates and perfect-square ones drop out
entirely.  A square class is an integer bitmask (sign bit, then one parity
bit per basis element), and elimination runs on those masks.

Values may be given as integers or Fractions; an integer is keyed by
itself either way.  :func:`two_independent` is the generic decider, used
by the CLI's ``independence`` command.

The adjusted orbit needs no coprime base built from scratch, because the
paper's repeated-prime law supplies one: for a = r/s, a prime dividing two
of the numerators r_m, r_n divides 2r.  Each representative (see
:attr:`~arborist.critorbit.AdjustedOrbit.square_class_reps`) splits into a
part built from the primes of 2r and a cofactor prime to 2r; the law makes
the cofactors pairwise coprime, so a level whose cofactor is not a square
holds a prime of its own and joins no square product.  Only the levels
whose cofactor is a square go to :func:`two_independent`, with their own
values, and it re-verifies any witness on them.  One remainder per level,
|r_n| mod (2r)^J * 45045, gives both the split and the cofactor's square
screen modulo 63, 65 and 11; J >= 2 is the largest exponent that keeps
the modulus within one CPython digit, so for small r the remainder is one
short pass.  A cofactor is built, and tested exactly, only when it passes
the screen, or when a prime of 2r divides the level at least J times as
often as it divides 2r, so that (2r)^J is widened.  The
certifier decides every orbit with :func:`factored_orbit_independent`,
which takes no gcd between levels: ``d_sequence`` builds the numerators
in the factored form that proves the law and cross-checks them against
iteration.  The tests hold the oracle for that path, ``orbit_independent``
in ``tests/conftest.py``, which checks the law on raw values with one
running-product gcd per level.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, UsageError, checked
from .exactnum import (
    _QR_PRODUCT,
    _QR_SCREEN,
    _is_square_mod,
    factor_refine,
    format_reduced,
    is_perfect_square,
    quoted,
    rational_is_square,
)

BRUTE_FORCE_LIMIT = 20

# one CPython digit: a remainder by a modulus below it is one short pass
_DIGIT = 1 << sys.int_info.bits_per_digit


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
        raise UsageError("square classes are undefined for zero")
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


def factored_orbit_independent(reps: Sequence[int], r: int) -> IndependenceResult:
    """Decide 2-independence of an adjusted orbit built by ``d_sequence``.

    ``reps`` must be :attr:`~arborist.critorbit.AdjustedOrbit.square_class_reps`
    of an orbit returned by :func:`~arborist.critorbit.d_sequence`, and
    ``r`` the numerator of its base point.  Those numerators come from the
    factored recursion, are cross-checked against iteration and are prime
    to s, so the repeated-prime law holds for them by construction and no
    gcd between levels is taken.  The tests check this path against
    ``orbit_independent`` in ``tests/conftest.py``, which takes raw values
    and checks the law on them first.

    Each |v_n| splits as u_n * t_n, where every prime of u_n divides 2r and
    t_n is prime to 2r; by the law the t_n are pairwise coprime.  A t_n
    that is not a square then holds a prime to an odd power that divides no
    other value, so level n lies in no square subset product.  The
    remaining levels are decided on their own values, by
    :func:`two_independent`, which re-verifies any witness on them.  When
    levels 1..i-1 are independent and 1..i are not, the square subset is
    unique, so the witness is the one ``two_independent(reps)`` returns.
    """
    levels = _square_levels(reps, r)
    if not levels:  # most orbits: no level can join a square product
        return IndependenceResult(True)
    result = two_independent([reps[n] for n in levels])
    if result.independent:
        return result
    return IndependenceResult(False, tuple(levels[j] for j in result.witness))


def _square_levels(reps: Sequence[int], r: int) -> list[int]:
    # the levels whose t_n is a square, where |v_n| = u_n t_n, u_n from the
    # primes of 2r and t_n prime to 2r.  One remainder w = |v_n| mod G * Q
    # per level, G = (2r)^J, decides it.  For each p | 2r, gcd(w, G) =
    # gcd(|v_n|, G) has v_p = min(v_p(v_n), v_p(G)), so it is u_n unless
    # some p fills G; then G widens by 2r until none does.  Unwidened,
    # u_n | G and t_n = w / u_n mod Q, which the square screen modulo 63, 65
    # and 11 reads, and only a t_n that passes is built.
    if 0 in reps:
        raise ValueError("independence is undefined for zero")
    if r == 0:
        raise ValueError("the base point's numerator r must be nonzero")
    g = 2 * abs(r)
    G = g * g  # J >= 2 keeps a widening rare; the largest J within one digit
    while G * g * _QR_PRODUCT < _DIGIT:
        G *= g
    M, k = G * _QR_PRODUCT, g.bit_length()  # k >= every v_p(g)
    levels: list[int] = []
    for n, v in enumerate(reps):
        t = abs(v)
        w = t % M
        u, H = math.gcd(w, G), G
        while pow(H // u, k, g):  # some p | g divides u as often as H
            H *= g
            u = math.gcd(t, H)
        screened = H > G or _is_square_mod(w // u % _QR_PRODUCT, _QR_SCREEN)
        if screened and is_perfect_square(t // u):
            levels.append(n)
    return levels


def brute_force_independent(values: Sequence[Fraction]) -> IndependenceResult:
    """Ground-truth 2-independence by enumerating all subset products.

    Subsets are explored in lexicographic order of their index tuples and
    the first square product wins.  Capped at 20 values.
    """
    vals = [Fraction(v) for v in values]
    if len(vals) > BRUTE_FORCE_LIMIT:
        raise UsageError(f"brute force capped at {BRUTE_FORCE_LIMIT} values")
    if any(v == 0 for v in vals):
        raise UsageError("independence is undefined for zero")

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

