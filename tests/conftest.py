import functools
import math
import sys
from contextlib import contextmanager
from typing import NamedTuple

from arborist import _bigmul
from arborist.critorbit import AdjustedOrbit
from arborist.errors import InvariantViolation
from arborist.exactnum import is_perfect_square
from arborist.independence import IndependenceResult, two_independent


def current_int_str_limit():
    """The interpreter's int/str digit limit; None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextmanager
def int_str_limit(digits):
    """Set the int/str digit limit for the block, where the interpreter has one."""
    saved = current_int_str_limit()
    if saved is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def primes_up_to(limit):
    """All primes <= limit, by a sieve: the oracle that ``proven_prime`` is checked against."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def fresh_cache(monkeypatch, module, name):
    """An empty cache of the same size in place of ``module.name``'s for the
    test; monkeypatch restores the old one, and what it holds, afterwards."""
    cached = getattr(module, name)
    maxsize = cached.cache_parameters()["maxsize"]
    monkeypatch.setattr(module, name, functools.lru_cache(maxsize)(cached.__wrapped__))


def force_python_products(monkeypatch):
    """Make libgmp fail to load, so the next full-size product binds CPython's ``*``."""
    import ctypes

    def absent(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", absent)
    fresh_cache(monkeypatch, _bigmul, "_gmp")


class Decomposition1(NamedTuple):
    """r_n = sign * 2**e * |r| * t with t odd, positive, coprime to r."""

    n: int
    sign: int
    e: int
    t: int


def decompose1(orbit: AdjustedOrbit, n: int) -> Decomposition1:
    """Split r_n (n >= 2, fixed-point-tail family) as sign * 2**e * |r| * t.

    The first family's coprimality law, checked in the tests: e is 1
    exactly when the base point numerator is even, and the division must be
    exact with t odd and coprime to r, else InvariantViolation.
    """
    if orbit.qmap.family != 1:
        raise ValueError("decomposition applies to the fixed-point-tail family only")
    if not 2 <= n <= orbit.depth:
        raise ValueError(f"index {n} outside 2..{orbit.depth}")
    r_abs = abs(orbit.qmap.r)
    e = 1 if orbit.qmap.r % 2 == 0 else 0
    rn = orbit.numerators[n - 1]
    t, rem = divmod(abs(rn), (1 << e) * r_abs)
    if rem != 0 or t % 2 == 0 or math.gcd(t, r_abs) != 1:
        raise InvariantViolation(
            f"r_{n} = {rn} does not decompose as sign * 2^{e} * {r_abs} * odd-coprime"
        )
    return Decomposition1(n=n, sign=1 if rn > 0 else -1, e=e, t=t)


def cofactors_prime_to_2r(reps, r):
    """t_n per level, where |v_n| = u_n t_n with u_n from the primes of 2r and
    t_n prime to 2r, by a gcd loop: the oracle for the square levels that
    ``independence`` finds from one remainder per level instead."""
    if 0 in reps:
        raise ValueError("independence is undefined for zero")
    g = 2 * abs(r)
    cofactors = []
    for v in reps:
        t = abs(v)
        d = math.gcd(t, g)
        while d > 1:
            t //= d
            d = math.gcd(t, d)
        cofactors.append(t)
    return cofactors


def orbit_independent(reps, r) -> IndependenceResult:
    """Decide 2-independence of raw orbit values, checking the law first.

    The oracle for ``independence.factored_orbit_independent``, with the
    same result as ``two_independent(reps)``, witness included.  ``reps``
    are nonzero integers in the square classes of D_1..D_N and ``r`` is the
    numerator of the base point.  Nothing is assumed about where the values
    came from: one running-product gcd per level requires their cofactors
    prime to 2r to be pairwise coprime (the repeated-prime law), and a
    failure raises InvariantViolation.  The split and the square test per
    level are the oracle's own, and ``two_independent`` decides the square
    levels on their own values.
    """
    cofactors = cofactors_prime_to_2r(reps, r)
    product = 1
    for n, t in enumerate(cofactors, start=1):
        if math.gcd(t, product) != 1:
            raise InvariantViolation(
                f"level {n} shares a prime outside 2r = {2 * abs(r)} with an "
                "earlier level, against the repeated-prime law"
            )
        product *= t
    levels = [n for n, t in enumerate(cofactors) if is_perfect_square(t)]
    result = two_independent([reps[n] for n in levels])
    if result.independent:
        return result
    return IndependenceResult(False, tuple(levels[j] for j in result.witness))
