"""Exact integer and rational number-theory primitives.

The package carries a base point as its reduced integers r and s (s >= 1)
and an orbit as integer numerators over known denominators; its
``fractions.Fraction`` values (a map's a and c, an orbit's D_n, a verdict's
a) are derived from those integers.  This module holds the primitives on
them: p-adic valuations, exact square detection, the Jacobi symbol,
``proven_prime`` (deterministic Miller-Rabin below about 3.3e24, the one
primality test of the package), gcd-based factor refinement into a
pairwise-coprime base, and ``part_prime_to``, the part of an integer
prime to g, by a gcd loop (the orbit filter of :mod:`arborist.verdict`
tests it for a square).  ``parse_rational`` reads the
wire format ``r/s``, and ``format_reduced`` writes every orbit or
base-point integer of the rows and the CLI's JSON, at any length, past the
interpreter's int/str digit limit, in subquadratic time.

There is deliberately no general-purpose integer factorization anywhere:
the quantities this package manipulates have numerators with thousands of
digits, and every algorithm reduces to gcds, exact roots, and congruences.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .errors import InvariantViolation, UsageError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Up to 2000 bits (603 decimal digits) str() stays below the smallest
# int_max_str_digits setting the interpreter accepts, 640 digits.
_STR_SAFE_BITS = 2000

# Below this bound, Miller-Rabin with the first 13 prime bases is a proof.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def parse_rational(text: str) -> Fraction:
    """Parse the exact wire format ``r/s`` (or a bare integer ``r``).

    UsageError for anything else, a zero denominator, or a part with more
    digits than the interpreter's int/str conversion limit.
    """
    if not _RATIONAL_RE.match(text.strip()):
        raise UsageError(f"not a rational in r/s form: {quoted(text)}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise UsageError(f"zero denominator: {quoted(text)}") from None
    except ValueError:  # the digits passed sys.get_int_max_str_digits()
        raise UsageError(digit_limit_message(text)) from None


def quoted(text: str) -> str:
    """An argument as an error message echoes it: repr, cut in the middle past 40 characters."""
    return repr(text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}")


def digit_limit_message(text: str) -> str:
    """The error for an argument holding a number past the interpreter's int/str digit limit."""
    return (
        f"{quoted(text)} ({len(text)} characters) has a number of more than "
        f"{sys.get_int_max_str_digits()} digits, the interpreter's int/str limit"
    )


def format_reduced(numerator: int, denominator: int) -> str:
    """Serialize a fraction the caller vouches is reduced as ``r/s``, or ``r`` when s = 1.

    Numerator and denominator may have any number of digits: the
    interpreter's ``int_max_str_digits`` limit does not apply, and no gcd
    is taken.
    """
    if denominator == 1:
        return _decimal(numerator)
    return f"{_decimal(numerator)}/{_decimal(denominator)}"


def _decimal(n: int) -> str:
    # Larger values are built as an exact Decimal, whose products are
    # subquadratic, and written by it; no rounding can pass unnoticed.
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        text = str(_joined(abs(n), n.bit_length(), {}))
    return "-" + text if n < 0 else text


def _joined(n: int, bits: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    # 0 <= n < 2**bits split at bit ``bits // 2``, its halves joined by
    # 2**(bits // 2) from ``powers``
    if bits <= _STR_SAFE_BITS:
        return decimal.Decimal(n)
    half = bits >> 1
    if half not in powers:
        powers[half] = decimal.Decimal(2) ** half
    low = _joined(n & ((1 << half) - 1), half, powers)
    return _joined(n >> half, bits - half, powers) * powers[half] + low


def v_int(n: int, p: int) -> int:
    """Exponent of p in n != 0 (no primality check; ValueError for p < 2)."""
    if p < 2:
        raise ValueError("the valuation needs a base p >= 2")
    if n == 0:
        raise ValueError("the valuation of 0 is not an integer")
    count = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        count += 1
    return count


def is_perfect_square(n: int) -> bool:
    """True iff n = m*m for some integer m, verified by exact squaring.

    The square screens below reject most non-squares without taking the
    integer square root: n mod 64, then n mod 63, 65 and 11, and for a
    large n the primes 17..199 as well.
    """
    if n < 0 or not _SQUARES_MOD_64 >> (n & 63) & 1:
        return False
    if not _is_square_mod(n % _QR_PRODUCT, _QR_SCREEN):
        return False
    if n.bit_length() > _SIEVE_BITS and not _is_square_mod(n % _SIEVE_PRODUCT, _SIEVE_SCREEN):
        return False
    root = math.isqrt(n)
    return root * root == n


def _is_square_mod(residue: int, screen: tuple[tuple[int, int], ...]) -> bool:
    """False when ``residue``, a number modulo the product of ``screen``'s
    moduli, is a non-square modulo one of them; its (m, mask) pairs are
    read in order."""
    for m, squares in screen:
        if not squares >> residue % m & 1:
            return False
    return True


def rational_is_square(x: Fraction) -> bool:
    """True iff x is the square of a rational.

    Because fractions are kept reduced, x >= 0 is a square exactly when its
    numerator and denominator are both perfect squares.
    """
    x = Fraction(x)
    if x < 0:
        return False
    return is_perfect_square(x.numerator) and is_perfect_square(x.denominator)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, via binary reciprocity.

    For prime n this is the Legendre symbol: -1 iff a is a quadratic
    non-residue, 0 iff n divides a.
    """
    if not isinstance(n, int):
        raise ValueError(f"jacobi symbol needs an int n, got a {type(n).__name__}")
    if n <= 0 or n % 2 == 0:
        n_text = quoted(format_reduced(n, 1))
        raise ValueError(f"jacobi symbol needs odd positive n, got {n_text}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def proven_prime(n: int) -> bool | None:
    """Deterministic Miller-Rabin primality of n, or None when n is at or
    above _MR_DETERMINISTIC_LIMIT (about 3.3e24), where it proves nothing."""
    if n >= _MR_DETERMINISTIC_LIMIT:
        return None
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _square_mask(m: int) -> int:
    """The mask whose bit j is set when j is a square modulo m."""
    return sum(1 << j for j in {k * k % m for k in range(m)})


# is_perfect_square's screens: every square is a square modulo 64 (read off
# the low six bits, without a division) and modulo each m of a (m, mask)
# pair.  The mod 64/63/65/11 screen rejects all but about 1 in 120 random
# non-squares, but on the non-square cofactors of orbit numerators it lets
# 1 in 50 through.  math.isqrt is quadratic before Python 3.12, so above
# _SIEVE_BITS bits a number that passed is reduced once more, modulo the
# primes 17..199 (picked by proven_prime), each of which rejects about half
# of the non-squares.
_SQUARES_MOD_64 = _square_mask(64)
_QR_SCREEN = tuple((m, _square_mask(m)) for m in (63, 65, 11))
_QR_PRODUCT = math.prod(m for m, _ in _QR_SCREEN)
_SIEVE_BITS = 1 << 16
_SIEVE_SCREEN = tuple((p, _square_mask(p)) for p in range(17, 200) if proven_prime(p))
_SIEVE_PRODUCT = math.prod(p for p, _ in _SIEVE_SCREEN)


def part_prime_to(n: int, g: int) -> int:
    """The part of |n| prime to g: |n| with every prime that divides g divided out.

    ValueError for n = 0, where the loop that divides out gcd(|n|, g)
    would never end.
    """
    if n == 0:
        raise ValueError("zero has no part prime to g")
    t = abs(n)
    d = math.gcd(t, g)
    while d > 1:  # every prime of g left in t divides the last d
        t //= d
        d = math.gcd(t, d)
    return t


def _coprime_basis(work: list[int]) -> list[int]:
    # Worklist gcd-splitting: replacing (b, m) sharing g > 1 by (g, b/g, m/g)
    # strictly shrinks the multiset product, so this terminates.
    basis: list[int] = []
    while work:
        m = work.pop()
        if m == 1:
            continue
        for i, b in enumerate(basis):
            g = math.gcd(m, b)
            if g == 1:
                continue
            del basis[i]
            work.extend((g, b // g, m // g))
            break
        else:
            basis.append(m)
    return basis


def factor_refine(
    inputs: Iterable[int],
) -> tuple[list[int], list[list[int]]]:
    """Refine integers >= 2 into a pairwise-coprime base, without factoring.

    Returns ``(basis, rows)`` where ``basis`` is sorted ascending, its
    elements are pairwise coprime, and ``inputs[i] == prod(b**e for b, e in
    zip(basis, rows[i]))`` exactly.  Output is deterministic for a fixed
    input order.

    A split in :func:`_coprime_basis` writes b = g (b/g) and m = g (m/g),
    so every input stays a product of basis elements; as they are pairwise
    coprime, dividing each out as often as it goes leaves 1.  A leftover
    cofactor raises InvariantViolation.
    """
    vals = [int(n) for n in inputs]
    if any(n < 2 for n in vals):
        raise ValueError("factor_refine requires all inputs >= 2")
    basis = sorted(_coprime_basis(list(vals)))
    rows: list[list[int]] = []
    for i, n in enumerate(vals):
        row = []
        for b in basis:
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            row.append(e)
        if n != 1:
            raise InvariantViolation(f"input {i} is not a product of its coprime basis")
        rows.append(row)
    return basis, rows
