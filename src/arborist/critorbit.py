"""The adjusted critical orbit of a quadratic map relative to its base point.

For f(x) = x^2 + c with base point a = r/s (reduced, s > 0) the sequence

    D_1 = a - c,   D_i = f^i(0) - a  for i >= 2

controls, through its square classes, whether the arboreal representation
attached to (f, a) is surjective.  Writing f^n(0) - a = r_n / s_n reduced,
both families satisfy s_n = s**(2**n) exactly.  The numerators are built
in the factored form that proves the paper's repeated-prime law, from
f(x) - f(y) = (x - y)(x + y) at y = a.  With E_n = s**(2**n - 2) and
k = s (a - f(a)), one recursion serves both families:

    P_1 = -r^2,   P_n = r_{n-1} T_{n-1}   (numerator of f^n(0) - f(a))
    r_n = P_n - k s E_n
    T_n = P_n + (2r - k) s E_n             (numerator of f^n(0) + a)

    tail-into-fixed-point family (c = -a - a^2, f(a) = f(-a) = -a):
        k = 2r, so T_n = P_n, and r_m divides every later P_n.

    tail-into-two-cycle family (c = -1 + a - a^2, cycle {a - 1, -a}):
        k = s; P_n is the numerator of f^n(0) - (a - 1), and T_1 must be
        the numerator -(r - s)^2 of c + a.  For n >= 2, with
        T_{n-1} - P_{n-1} = (2r - s) s E_{n-1} and E_n = (s E_{n-1})^2,
        T_n = r_{n-1} T_{n-1} + (2r - s) s E_n
            = P_{n-1} (T_{n-1} - s^2 E_{n-1}),
        the product f(x) + a = (x - (a - 1))(x + a - 1) at x = f^(n-1)(0).
        So r_m divides P_n when n - m is odd and T_n when it is even.

Either way, a prime dividing r_m and r_n (m < n) also divides k s E_n or
2r s E_n, and given gcd(r_m, s) = 1 it divides 2r (k s E_n is s**(2**n)
in the second family).  Each level costs one full-size product; T_n is a
linear step, not a second product.  The family-2 identity holds for the
integers computed because the cross-check below pins E_n = (s E_{n-1})^2.
That product, the iteration's square X_n^2 and the chain's square
(s E_{n-1})^2 are the level's full-size work, and they go through
``_bigmul.mul`` and ``_bigmul.sqr``, which alone choose by operand size
between CPython's ``*`` and GMP's mpn layer (same integers, so every check
below is unchanged).

The integers r_n over the known denominator s**(2**n) are the only stored
form of the orbit; every D_n is derived from them on demand.  As a
cross-check the module also iterates the map on integers: with c = C/s^2
(the map's own integer C), f^n(0) = X_n / s**(2**n) where

    X_1 = C,   X_n = X_{n-1}^2 + C E_n,

so r_n = X_n - r s E_n.  Besides the inputs, the two computations share
one chain of even powers E_n = s**(2**n - 2) (E_1 = 1,
E_n = (s E_{n-1})^2), read once per orbit from a ``functools.lru_cache``
of 128 (s, depth) entries, where a deeper chain extends a shorter one
(about 12 denominators at depth 10).  Both read E_n times a small
multiplier, and nothing divides.  Agreement at every level pins the
chain, for r != 0 (a = 0 is degenerate in both families):

    n = 1: X_1 = C reads no power.  In the first family (C = -rs - r^2)
        P_1 - 2rs E_1 = C - rs E_1 forces E_1 = 1.  In the second
        (C = -s^2 + rs - r^2) P_1 - s^2 E_1 = C - rs E_1 forces it unless
        r = s, and the check T_1 = P_1 + (2r - s) s E_1 = -(r - s)^2 forces
        it unless 2r = s; both cannot hold, so at a = 1 the T_1 check
        alone pins E_1.

    n >= 2: T_{n-1} - r_{n-1} = 2rs E_{n-1} by construction, and agreement
        at n - 1 gives r_{n-1} = X_{n-1} - rs E_{n-1}, so P_n is
        r_{n-1} (X_{n-1} + rs E_{n-1}) = X_{n-1}^2 - r^2 (s E_{n-1})^2,
        while X_n = X_{n-1}^2 + C E_n.  Agreement at n reads
        (C + (k - r) s) E_n = -r^2 (s E_{n-1})^2; with (k - r) s + C = -r^2
        in both families, E_n = (s E_{n-1})^2.

With every E_n the true power, X_n is f^n(0)'s numerator, so the
recursion's integers are the orbit; together with the law gcd(r_n, s) = 1
the repeated-prime law then holds for the numerators of every
:class:`AdjustedOrbit` that :func:`d_sequence` returns, without a gcd
between levels.

The module also hosts the orbit's laws and the sign analyzer that
:func:`orbit_report` collects.  Each family's valuation laws are rows of
one table, ``_VALUATION_LAWS``, and every law's outcome is a
:class:`LawCheck`.  Note D_1 = -(f(0) - a) = -r_1/s^2: sign statements
below are always about f^n(0) - a, whose sign at n = 1 is the opposite of
D_1's.  That flip is written once, in :attr:`AdjustedOrbit.square_class_reps`
= (-r_1, r_2, ..., r_N), the numerators of the D_n over s**(2**n) = s^2 E_n;
each is in the square class of its D_n, since s^2 E_n is a square.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from ._bigmul import mul, sqr
from .dynamics import QuadMap, integer_c
from .errors import InvariantViolation, UsageError
from .exactnum import format_reduced, proven_prime, quoted, v_int

DEFAULT_DEPTH = 12
#: :func:`orbit_report` checks valuations at 2 and at the odd primes up to
#: this bound that divide r or s.
REPORT_PRIME_BOUND = 100
#: The most bits that :func:`check_depth` lets r_N have.  The slowest
#: ``verify`` runs found at the limit, a = 1/(2**60 - 3) and 7/(2**60 + 31)
#: in either family at depth 19 (r_19 of 31M bits), take 0.75-1.2 s on
#: 2 vCPUs with GMP's products (CPython 3.10-3.13) and 42-46 s with
#: CPython's (3.11); ``orbit`` at the same points, the slowest accepted,
#: writes 38 MB of text in 19-29 s on 3.10-3.13, at 139-156 MB peak RSS.
MAX_NUMERATOR_BITS = 1 << 25
#: The most levels :func:`check_depth` accepts.  An orbit that stays in
#: [-2, 2] over the integers (s = 1, such as a = 1 in the second family,
#: of period 2) keeps r_N small at any depth, so the bits alone would let
#: its per-level work grow without end.
MAX_DEPTH = 64


class AdjustedOrbit(NamedTuple):
    """Immutable adjusted critical orbit to a fixed depth.

    ``numerators[i-1]`` is r_i, the reduced numerator of f^i(0) - a over
    denominator s**(2**i); it is the only stored form of the orbit.  The
    depth, the D_i and ``d_values`` are derived from it on each access.
    """

    qmap: QuadMap
    numerators: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.numerators)

    @property
    def d_values(self) -> tuple[Fraction, ...]:
        """(D_1, ..., D_N), rebuilt from the numerators on every access."""
        return tuple(Fraction(x, d) for x, d in self._d_terms())

    @property
    def square_class_reps(self) -> tuple[int, ...]:
        """(-r_1, r_2, ..., r_N): integers in the square classes of the D_i.

        Every denominator s**(2**i) is a square, so D_i and its signed
        numerator agree modulo squares.
        """
        return (-self.numerators[0], *self.numerators[1:])

    def _d_terms(self) -> zip[tuple[int, int]]:
        """(numerator, denominator) of each D_i in lowest terms: d_sequence
        checked gcd(r_i, s) = 1, and s**(2**i) = s^2 E_i comes from the chain
        that its cross-check pinned."""
        s = self.qmap.s
        return zip(self.square_class_reps, (s * s * e for e in _even_powers(s, self.depth)))


class LawCheck(NamedTuple):
    """Outcome of one law of the orbit: a valuation law at one prime, the
    repeated-prime law or a congruence.

    ``passed`` is None when the law's hypothesis does not hold; otherwise
    ``first_failure`` is the first level n at which the law fails, if any.
    """

    name: str
    applicable: bool
    passed: bool | None
    first_failure: int | None = None


class SignPrediction(NamedTuple):
    """Predicted signs of f^n(0) - a.

    kind is one of ``all_positive`` (for n >= start), ``all_negative``
    (always from n = 1), ``mixed`` (both signs occur; no per-index claim),
    or ``boundary`` (excluded points where the sequence may vanish).
    """

    kind: str
    start: int | None = None


def check_depth(r: int, s: int, depth: int, family: int | None = None) -> int:
    """An upper bound on the bits of r_depth for a = r/s.

    UsageError for depth < 1, depth > MAX_DEPTH or a bound over
    MAX_NUMERATOR_BITS, before any arithmetic on the orbit.  The escape
    bound holds in both families for every base point with
    |r'| + s' <= |r| + s: either family's C has |C| <= (|r| + s)^2, so with
    M = 2 bits(|r| + s), X_1 = C and |X_{n+1}| <= X_n^2 + |C| s**(2**(n+1) - 2)
    give bits(X_n) <= 2**(n-1) (M + 2) - 2 by induction, and r s E_n has at
    most 2**(n-1) M bits, so r_n = X_n - r s E_n has at most one bit more.
    Where it passes the limit and the family is given, the orbit's own
    bound (:func:`_bounded_orbit_bits`) is taken if it has one.
    """
    if depth < 1:
        raise UsageError("depth must be positive")
    if depth > MAX_DEPTH:
        raise UsageError(f"depth {depth} is too deep: at most {MAX_DEPTH} levels are computed")
    bits = ((2 * (abs(r) + s).bit_length() + 2) << (depth - 1)) - 1
    if bits > MAX_NUMERATOR_BITS and family is not None:
        bits = _bounded_orbit_bits(family, r, s, depth) or bits
    if bits > MAX_NUMERATOR_BITS:
        r_text, s_text = quoted(format_reduced(abs(r), 1)), quoted(format_reduced(s, 1))
        raise UsageError(
            f"depth {depth} is too deep for base points with |r| <= {r_text} and "
            f"s <= {s_text}: r_{depth} may exceed {MAX_NUMERATOR_BITS} bits"
        )
    return bits


def _bounded_orbit_bits(family: int, r: int, s: int, depth: int) -> int | None:
    """A bound on the bits of r_depth that does not double with the bits of
    |r| + s, for a map with -2 <= c <= 1/4 (on the integers,
    -8 s^2 <= 4C <= s^2); None for any other map.

    x^2 + c maps [-R, R] into itself for R = (1 + sqrt(1 - 4c))/2 <= 2, and
    that interval holds 0, so |f^n(0)| <= 2 and
    |r_n| <= s**(2**n - 1) (2s + |r|).  With b = bits(s - 1), s <= 2**b, so
    bits(r_n) <= (2**n - 1) b + bits(2s + |r|), which is bits(2 + |r|) at
    every depth when s = 1.
    """
    if not -8 * s * s <= 4 * integer_c(family, r, s) <= s * s:
        return None
    return ((1 << depth) - 1) * (s - 1).bit_length() + (2 * s + abs(r)).bit_length()


@functools.lru_cache(maxsize=128)
def _even_powers(s: int, depth: int) -> tuple[int, ...]:
    """(E_1, ..., E_depth) with E_n = s**(2**n - 2), so E_1 = 1, E_n = (s E_{n-1})^2.

    Each (s, depth) is one cache entry, built by extending the entry one
    level shorter, so a deeper chain shares the integers of the shorter
    ones.  The 128 entries hold the chains of about 12 denominators at
    depth 10 and 9 at depth 14, least recently used dropped first.  Nothing
    here is trusted: :func:`d_sequence`'s cross-check pins every E_n it
    reads (module docstring).
    """
    if depth == 1:
        return (1,)
    chain = _even_powers(s, depth - 1)
    return (*chain, sqr(s * chain[-1]))


def numerator_recursion(family: int, r: int, s: int, depth: int) -> list[int]:
    """Numerators r_1..r_depth of f^n(0) - a for a = r/s, in factored form.

    One loop serves both families (module docstring): P_1 = -r^2,
    P_n = r_{n-1} T_{n-1} (the one full-size product per level),
    r_n = P_n - k s E_n and T_n = P_n + (2r - k) s E_n, with k = 2r or s,
    so the repeated-prime law holds for the returned integers.  T_1 must be
    -(k - r)^2, the numerator of c + a, else InvariantViolation; at a = 1
    in the second family this check alone pins E_1.  E_n comes from the
    s-power chain that :func:`d_sequence`'s iteration reads too; that
    cross-check, not this function, proves the chain right.  The inputs
    must make the :class:`QuadMap` that :func:`d_sequence` takes (else
    ValueError, or DegenerateBasePoint), and a depth that
    :func:`check_depth` refuses raises before any arithmetic.
    """
    QuadMap(family, r, s)  # the one check of a base point
    check_depth(r, s, depth, family)
    return _numerators(family, r, s, _even_powers(s, depth))


def _numerators(family: int, r: int, s: int, powers: tuple[int, ...]) -> list[int]:
    # numerator_recursion's loop on checked inputs and the chain (E_1, ..., E_N)
    k = 2 * r if family == 1 else s  # s (a - f(a))
    j = 2 * r - k
    ks, js = k * s, j * s
    e = powers[0]
    p = -r * r  # P_1
    t = p + js * e  # T_1
    if t != -((k - r) ** 2):
        raise InvariantViolation(
            "T_1 = P_1 + (2r - k) s E_1 differs from the numerator of c + a "
            f"for a = {quoted(format_reduced(r, s))}"
        )
    rn = p - ks * e
    out = [rn]
    for e in powers[1:]:
        p = mul(rn, t)
        t = p + js * e if js else p  # T_n = P_n in the first family
        rn = p - ks * e
        out.append(rn)
    return out


def d_sequence(qmap: QuadMap, depth: int = DEFAULT_DEPTH) -> AdjustedOrbit:
    """Build the adjusted orbit, cross-checking recursion against iteration.

    The numerators come from the factored recursion (one product per level
    in either family) and from integer iteration of the map over the
    denominators s**(2**n), started from the map's integer C = c s^2.  Both
    read one chain of E_n = s**(2**n - 2), fetched once, times small
    multipliers.  Any disagreement, or a numerator sharing a factor with s
    (the denominator law), raises InvariantViolation.  Agreement at every
    level, with the recursion's T_1 check, pins the chain to the true
    powers, and with it the identities behind the repeated-prime law
    (module docstring).  A depth that :func:`check_depth` refuses raises
    before any arithmetic.
    """
    r, s, C = qmap.r, qmap.s, qmap.C
    check_depth(r, s, depth, qmap.family)
    powers = _even_powers(s, depth)
    nums = _numerators(qmap.family, r, s, powers)
    rs = r * s
    x = C  # X_n, the numerator of f^n(0) over s**(2**n)
    for n, (rn, e) in enumerate(zip(nums, powers, strict=True), start=1):
        if n > 1:
            x = sqr(x) + C * e
        if x - rs * e != rn:
            raise InvariantViolation(
                f"recursion/iteration mismatch at n = {n}, a = {quoted(format_reduced(r, s))}"
            )
        if math.gcd(rn, s) != 1:
            raise InvariantViolation(f"gcd(r_{n}, s) != 1 for a = {quoted(format_reduced(r, s))}")

    return AdjustedOrbit(qmap, tuple(nums))


#: Each family's valuation laws in report order: the name, the hypothesis on
#: (p, k = v_p(a)) and the law on (n, v = v_p(f^n(0) - a), k).  Both start
#: with denominator support: p divides s iff every f^n(0) - a has negative
#: valuation, and no term does otherwise.
_DENOMINATOR_SUPPORT = (
    "denominator_support", lambda p, k: True, lambda n, v, k: (v < 0) == (k < 0)
)
_VALUATION_LAWS = {
    1: (
        _DENOMINATOR_SUPPORT,
        ("unit_2adic_flat", lambda p, k: p == 2 and k == 0, lambda n, v, k: v == 0),
        ("even_2adic_shift", lambda p, k: p == 2 and k >= 1, lambda n, v, k: n < 2 or v == k + 1),
        ("odd_prime_locked", lambda p, k: p != 2 and k > 0, lambda n, v, k: v == k),
    ),
    2: (
        _DENOMINATOR_SUPPORT,
        ("even_2adic_alternation", lambda p, k: p == 2 and k > 0,
         lambda n, v, k: v > 0 if n % 2 == 0 else v == 0),
        ("exact_two_adic_jump", lambda p, k: p == 2 and k == 1,
         lambda n, v, k: v == (2 if n % 2 == 0 else 0)),
        ("unit_2adic_alternation", lambda p, k: p == 2 and k == 0,
         lambda n, v, k: v == (1 if n % 2 == 1 else 0)),
    ),
}


def _scan(name: str, applicable: bool, failures) -> LawCheck:
    """The law's outcome from the levels at which it fails, in order; they
    are not read when its hypothesis does not hold."""
    if not applicable:
        return LawCheck(name, False, None)
    first = next(failures, None)
    return LawCheck(name, True, first is None, first)


def check_valuations(orbit: AdjustedOrbit, p: int) -> list[LawCheck]:
    """Evaluate every valuation law of the orbit's family at the prime p,
    then the repeated-prime law.

    Laws whose hypothesis on (a, p) fails are reported inapplicable rather
    than failed.  Zero numerators (which occur only for a = -2, where s = 1)
    are skipped; no law's hypothesis can put a claim on them.
    """
    family, r, s = orbit.qmap
    vp_r = v_int(r, p)
    vp_s = v_int(s, p)
    k = vp_r - vp_s
    # (n, v_p(f^n(0) - a)) at the nonzero levels, over s**(2**n)
    levels = [(n, v_int(rn, p) - (vp_s << n)) for n, rn in enumerate(orbit.numerators, 1) if rn]
    checks = [
        _scan(name, hypothesis(p, k), (n for n, v in levels if not law(n, v, k)))
        for name, hypothesis, law in _VALUATION_LAWS[family]
    ]

    # Repeated prime law: a prime hitting two distinct numerators must come
    # from the base point (through 2a for the two-cycle family).  Where p
    # does not divide s, v is v_p(r_n); a p that does not come from the base
    # point fails the law at the second level it hits.
    hits = [n for n, v in levels if v > 0]
    if family == 1:
        name, ok = "repeated_prime_divides_numerator", k > 0
    else:
        name, ok = "repeated_prime_divides_2a", vp_r > 0 or p == 2
    checks.append(_scan(name, vp_s == 0 and len(hits) >= 2, (n for n in hits[1:] if not ok)))
    return checks


def family1_sign(r: int, s: int) -> SignPrediction:
    """The fixed-point-tail sign law: signs of f^n(0) - a for c = -a - a^2.

    Decided on a = r/s (s >= 1) by integer polynomials in r and s: -2 < a < 0
    is -2s < r < 0, a < -2 or a > 1 is r < -2s or r > s, and for a > 0,
    a^4 + 2a^3 - 2a < 0 is r^3 + 2r^2 s - 2s^3 < 0 (both sides times
    s^4 / r > 0).  The excluded points a in {-2, -1, 1} (s = 1) are
    reported as boundary.
    """
    if s == 1 and r in (-2, -1, 1):
        return SignPrediction(kind="boundary")
    if -2 * s < r < 0:
        return SignPrediction(kind="all_positive", start=1)
    if r < -2 * s or r > s:
        return SignPrediction(kind="all_positive", start=2)
    if r > 0 and r**3 + 2 * r * r * s - 2 * s**3 < 0:
        return SignPrediction(kind="all_negative", start=1)
    return SignPrediction(kind="mixed")


def sign_predict(qmap: QuadMap) -> SignPrediction:
    """Classify the signs of f^n(0) - a by exact interval membership.

    The irrational interval endpoints are never approximated: membership is
    decided by the sign of the defining polynomial at a, which has no
    rational roots other than 0, cleared of denominators so that it is an
    integer polynomial in r and s.  In the two-cycle family a^2 - a - 1 > 0
    is r^2 - rs - s^2 > 0, and for a > 0, a^4 - 2a^3 + 2a^2 - 2a < 0 is
    r^3 - 2r^2 s + 2rs^2 - 2s^3 < 0.
    """
    r, s = qmap.r, qmap.s
    if qmap.family == 1:
        return family1_sign(r, s)
    if r * r - r * s - s * s > 0:
        return SignPrediction(kind="all_positive", start=2)
    if r > 0 and r**3 - 2 * r * r * s + 2 * r * s * s - 2 * s**3 < 0:
        return SignPrediction(kind="all_negative", start=1)
    return SignPrediction(kind="mixed")


def congruence_check(orbit: AdjustedOrbit, modulus: int) -> LawCheck:
    """Check r_n = 1 (mod 3 or mod 4) for n >= 2, fixed-point-tail family.

    The mod-3 law needs 3 not dividing r and the mod-4 law needs r odd;
    otherwise the check is inapplicable.
    """
    family, r, _ = orbit.qmap
    if family != 1:
        raise ValueError("congruence laws apply to the fixed-point-tail family only")
    if modulus not in (3, 4):
        raise ValueError("modulus must be 3 or 4")
    applicable = (r % 3 != 0) if modulus == 3 else (r % 2 != 0)
    levels = enumerate(orbit.numerators[1:], 2)
    return _scan(
        f"congruence_mod_{modulus}", applicable, (n for n, rn in levels if rn % modulus != 1)
    )


def orbit_report(orbit: AdjustedOrbit) -> dict:
    """JSON-ready report: the sequence plus every analyzer's verdicts."""
    family, r, s = orbit.qmap
    odd = range(3, REPORT_PRIME_BOUND + 1, 2)
    relevant = [2] + [p for p in odd if (r % p == 0 or s % p == 0) and proven_prime(p)]
    sign = sign_predict(orbit.qmap)
    return {
        "a": format_reduced(r, s),
        "family": family,
        "N": orbit.depth,
        "D": [format_reduced(x, d) for x, d in orbit._d_terms()],
        "sign_class": {"kind": sign.kind, "from": sign.start},
        "valuation_checks": {
            str(p): [check._asdict() for check in check_valuations(orbit, p)] for p in relevant
        },
        # keyed by modulus, without the law's name
        "congruence_checks": {
            str(m): dict(zip(LawCheck._fields[1:], congruence_check(orbit, m)[1:]))
            for m in (3, 4)
            if family == 1
        },
    }
