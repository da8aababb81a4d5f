"""Certification of surjective arboreal Galois representations.

Two decision procedures, one per preperiodic family, each turning simple
congruence and residue conditions on the base point a = r/s into a proof of
surjectivity (condition tags T1.1-1..3 and T1.2-1..3 below).  The
2-independence of the adjusted orbit, decided by
:func:`~arborist.independence.orbit_independent` from the repeated-prime
law (checked on every orbit, with every witness re-verified), doubles as a
consistency audit on every positive certificate and as a finite-depth
fallback when neither procedure applies: a fallback "independent to depth
N" is evidence about the depth-N tree quotient, not a proof for the full
tree, and the verdict says so.

Fixed-point-tail family (c = -a - a^2), certificate number
m = (-1)**delta * 2**e * |r| where delta encodes the eventual sign of
f^n(0) - a and e its 2-part:

    T1.1-1   m = 2 (mod 3)
    T1.1-2   m = 3 (mod 4)
    T1.1-3   m is a quadratic non-residue modulo some prime q dividing s

Two-cycle-tail family (c = -1 + a - a^2):

    T1.2-1   r = 1 and s > 2 is even
    T1.2-2   r = 2, s > 3, s = 1 (mod 3)
    T1.2-3   r = 2 and some prime q = 3 (mod 4) divides s

Both procedures also require a - c to not be a rational square; when it is,
the tree has deeper preperiodic structure and the representation is
provably not surjective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .critorbit import DEFAULT_DEPTH, d_sequence
from .dynamics import Family, QuadMap, family1, family2
from .errors import InvariantViolation
from .exactnum import jacobi, proven_prime, rational_is_square
from .independence import orbit_independent

TRIAL_DIVISION_CUTOFF = 10**6


class VerdictStatus(enum.Enum):
    PROVEN_SURJECTIVE = "ProvenSurjective"
    NOT_SURJECTIVE = "NotSurjective"
    INAPPLICABLE = "Inapplicable"
    INDEPENDENT_TO_DEPTH = "IndependentToDepth"
    DEPENDENT_AT_LEVEL = "DependentAtLevel"


@dataclass(frozen=True)
class DeltaE:
    """Sign exponent delta (None where undefined) and 2-part exponent e."""

    delta: int | None
    e: int


@dataclass(frozen=True)
class Verdict:
    a: Fraction
    family: Family
    status: VerdictStatus
    condition: str | None = None
    depth: int | None = None
    witness: tuple[int, ...] | None = None
    delta: int | None = None
    e: int | None = None
    detail: Mapping = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "a": str(self.a),
            "family": self.family.value,
            "status": self.status.value,
            "condition": self.condition,
            "depth": self.depth,
            "witness": list(self.witness) if self.witness is not None else None,
            "delta": self.delta,
            "e": self.e,
            "detail": dict(self.detail),
        }


def compute_delta_e(a: Fraction) -> DeltaE:
    """Sign and 2-part exponents of the certificate number for a base point.

    delta is 0 on (-inf,-2) u (-2,-1) u (-1,0) u (1,inf) and 1 on the
    interval (0, beta) where beta is the positive real root of
    x^4 + 2x^3 - 2x; it is undefined at -2, -1, 1 and on [beta, 1].  The
    irrational endpoint is handled exactly: a rational a lies below beta iff
    a**4 + 2a**3 - 2a < 0, the defining quartic having no rational root
    other than 0.  e is 1 iff the numerator of a is even.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("delta/e are undefined for a = 0")
    e = 1 if a.numerator % 2 == 0 else 0
    delta: int | None
    if a in (-2, -1, 1):
        delta = None
    elif a < 0 or a > 1:
        delta = 0
    elif a**4 + 2 * a**3 - 2 * a < 0:
        delta = 1
    else:
        delta = None
    return DeltaE(delta=delta, e=e)


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def _nonresidue_prime_in(m: int, s: int, cutoff: int = TRIAL_DIVISION_CUTOFF):
    """Search s for a prime q with (m|q) = -1.

    Returns (q, divisor, undecided): q when an explicit prime witness was
    found; otherwise divisor when some odd divisor of s has Jacobi symbol
    -1, which proves one of its (unknown) prime factors is a witness; and
    undecided = True when neither was found but s did not fully factor
    below the cutoff, so absence was not established either.
    """
    remaining = _odd_part(s)
    d = 3
    while d <= cutoff and d * d <= remaining:
        if remaining % d == 0:
            if jacobi(m, d) == -1:
                return d, None, False
            while remaining % d == 0:
                remaining //= d
        d += 2
    if remaining == 1:
        return None, None, False
    if d * d > remaining or proven_prime(remaining):
        # remaining is prime
        if jacobi(m, remaining) == -1:
            return remaining, None, False
        return None, None, False
    # composite (or unproven) cofactor: a -1 Jacobi symbol still certifies
    # a prime witness inside it, since the symbol multiplies over factors
    if jacobi(m, remaining) == -1:
        return None, remaining, False
    return None, None, True


def _prime_3_mod_4_in(s: int, cutoff: int = TRIAL_DIVISION_CUTOFF):
    """Search s for a prime q = 3 (mod 4); same return shape as above.

    A divisor = 3 (mod 4) certifies such a prime factor exists even without
    naming it, because a product of primes = 1 (mod 4) stays = 1 (mod 4).
    """
    remaining = _odd_part(s)
    d = 3
    while d <= cutoff and d * d <= remaining:
        if remaining % d == 0:
            if d % 4 == 3:
                return d, None, False
            while remaining % d == 0:
                remaining //= d
        d += 2
    if remaining == 1:
        return None, None, False
    if d * d > remaining or proven_prime(remaining):
        if remaining % 4 == 3:
            return remaining, None, False
        return None, None, False
    if remaining % 4 == 3:
        return None, remaining, False
    return None, None, True


def _audit_independence(qmap: QuadMap, depth: int) -> None:
    """Require the first `depth` adjusted-orbit terms to be 2-independent."""
    if depth <= 0:
        raise ValueError("audit depth must be positive")
    orbit = d_sequence(qmap, depth)
    if 0 in orbit.numerators:
        raise InvariantViolation(
            f"zero adjusted-orbit term for certified base point {qmap.a}"
        )
    result = orbit_independent(orbit.square_class_reps, qmap.a.numerator)
    if not result.independent:
        raise InvariantViolation(
            f"certified base point {qmap.a} fails the independence audit "
            f"(witness levels {[i + 1 for i in result.witness]})"
        )


def certify_family1(a: Fraction, depth_check: int = DEFAULT_DEPTH) -> Verdict:
    """Decision procedure for the fixed-point-tail family (c = -a - a^2).

    Returns NotSurjective when a - c is a rational square, Inapplicable when
    delta is undefined or no condition fires, and ProvenSurjective with the
    first firing condition otherwise (every firing condition is listed in
    the detail).  Positive certificates are audited with the generic
    independence checker to depth_check; an audit failure is a bug and
    raises InvariantViolation.
    """
    return _certify1(family1(Fraction(a)), depth_check)


def _certify1(qmap: QuadMap, depth_check: int) -> Verdict:
    a = qmap.a
    de = compute_delta_e(a)
    common = dict(a=a, family=Family.CYCLE1, delta=de.delta, e=de.e)
    if a == -2:
        return Verdict(
            status=VerdictStatus.INAPPLICABLE,
            detail={"reason": "f(0) equals the base point; the backward orbit is not a regular tree"},
            **common,
        )
    a_minus_c = a - qmap.c
    if rational_is_square(a_minus_c):
        return Verdict(
            status=VerdictStatus.NOT_SURJECTIVE,
            detail={
                "reason": "a - c is a rational square",
                "a_minus_c": str(a_minus_c),
            },
            **common,
        )
    r, s = a.numerator, a.denominator
    fired: list[str] = []
    detail: dict = {}
    undecided_residue = False
    if de.delta is not None:
        m = (-1) ** de.delta * (1 << de.e) * abs(r)
        detail["m"] = str(m)
        if m % 3 == 2:
            fired.append("T1.1-1")
        if m % 4 == 3:
            fired.append("T1.1-2")
        q, divisor, undecided_residue = _nonresidue_prime_in(m, s)
        if q is not None or divisor is not None:
            fired.append("T1.1-3")
            if q is not None:
                detail["q"] = str(q)
            else:
                detail["divisor"] = str(divisor)
    if fired:
        detail["fired"] = fired
        _audit_independence(qmap, depth_check)
        return Verdict(
            status=VerdictStatus.PROVEN_SURJECTIVE,
            condition=fired[0],
            depth=depth_check,
            detail=detail,
            **common,
        )
    if de.delta is None:
        detail["reason"] = "delta is undefined for this base point"
    else:
        detail["reason"] = "no certificate condition fires"
        if undecided_residue:
            detail["note"] = "non-residue search undecided: s did not fully factor"
    return Verdict(status=VerdictStatus.INAPPLICABLE, detail=detail, **common)


def certify_family2(a: Fraction, depth_check: int = DEFAULT_DEPTH) -> Verdict:
    """Decision procedure for the two-cycle-tail family (c = -1 + a - a^2).

    Same contract as the fixed-point-tail procedure, with the r/s conditions
    T1.2-1..3 and no delta/e bookkeeping.
    """
    return _certify2(family2(Fraction(a)), depth_check)


def _certify2(qmap: QuadMap, depth_check: int) -> Verdict:
    a = qmap.a
    common = dict(a=a, family=Family.CYCLE2)
    a_minus_c = a - qmap.c
    if rational_is_square(a_minus_c):
        return Verdict(
            status=VerdictStatus.NOT_SURJECTIVE,
            detail={
                "reason": "a - c is a rational square",
                "a_minus_c": str(a_minus_c),
            },
            **common,
        )
    r, s = a.numerator, a.denominator
    fired: list[str] = []
    detail: dict = {}
    undecided = False
    if r == 1 and s > 2 and s % 2 == 0:
        fired.append("T1.2-1")
    if r == 2:
        if s > 3 and s % 3 == 1:
            fired.append("T1.2-2")
        q, divisor, undecided = _prime_3_mod_4_in(s)
        if q is not None or divisor is not None:
            fired.append("T1.2-3")
            if q is not None:
                detail["q"] = str(q)
            else:
                detail["divisor"] = str(divisor)
    if fired:
        detail["fired"] = fired
        _audit_independence(qmap, depth_check)
        return Verdict(
            status=VerdictStatus.PROVEN_SURJECTIVE,
            condition=fired[0],
            depth=depth_check,
            detail=detail,
            **common,
        )
    detail["reason"] = "no certificate condition fires"
    if undecided:
        detail["note"] = "prime-witness search undecided: s did not fully factor"
    return Verdict(status=VerdictStatus.INAPPLICABLE, detail=detail, **common)


def certify(a: Fraction, family: Family | int, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Certify a base point, falling back to finite-depth independence.

    Runs the family's decision procedure; when it is inapplicable, the
    adjusted orbit is checked for 2-independence to the requested depth and
    the verdict reports IndependentToDepth (evidence, not proof) or
    DependentAtLevel (with the witness levels, 1-based).
    """
    fam = Family(family)
    a = Fraction(a)
    if depth < 1:
        raise ValueError("depth must be positive")
    if fam is Family.CYCLE1:
        qmap = family1(a)
        verdict = _certify1(qmap, depth)
    else:
        qmap = family2(a)
        verdict = _certify2(qmap, depth)
    if verdict.status is not VerdictStatus.INAPPLICABLE:
        return verdict

    orbit = d_sequence(qmap, depth)
    detail = dict(verdict.detail)
    zero_levels = [i + 1 for i, rn in enumerate(orbit.numerators) if rn == 0]
    if zero_levels:
        detail["zero_levels"] = zero_levels
        return Verdict(
            a=a,
            family=fam,
            status=VerdictStatus.INAPPLICABLE,
            depth=depth,
            delta=verdict.delta,
            e=verdict.e,
            detail=detail,
        )
    result = orbit_independent(orbit.square_class_reps, qmap.a.numerator)
    if result.independent:
        detail["note"] = "finite-depth evidence only, not a proof"
        return Verdict(
            a=a,
            family=fam,
            status=VerdictStatus.INDEPENDENT_TO_DEPTH,
            depth=depth,
            delta=verdict.delta,
            e=verdict.e,
            detail=detail,
        )
    levels = tuple(i + 1 for i in result.witness)
    detail["level"] = max(levels)
    return Verdict(
        a=a,
        family=fam,
        status=VerdictStatus.DEPENDENT_AT_LEVEL,
        depth=depth,
        witness=levels,
        delta=verdict.delta,
        e=verdict.e,
        detail=detail,
    )
