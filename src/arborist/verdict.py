"""Certification of surjective arboreal Galois representations.

One decision procedure for both preperiodic families, turning simple
congruence and residue conditions on the base point a = r/s into a proof of
surjectivity (condition tags T1.1-1..3 and T1.2-1..3 below); only the list
of conditions that fire is family-specific.  The 2-independence of the
adjusted orbit, decided by
:func:`~arborist.independence.factored_orbit_independent` from the
repeated-prime law (which ``d_sequence``'s factored recursion and its
iteration cross-check establish for the numerators used, so no gcd between
levels is taken; the levels that can join a square product are decided on
their own numerators, and a witness is re-verified once, on them), is one
computation per verdict: it audits every positive certificate, and it is
the finite-depth fallback when no condition applies.  A fallback
"independent to depth N" is evidence about the depth-N tree quotient, not
a proof for the full tree, and the verdict says so.  ``certify`` and the
sweep's rows reach every verdict through one integer entry, ``_certify``,
whose stages return values: the square test on a - c, ``_conditions`` (the
fired conditions and their detail), ``_orbit_decision`` (the orbit's
status), then the verdict.
Each entry checks the depth once before any stage: ``certify`` itself, and
``search`` through ``SearchConfig`` over the whole height.

Fixed-point-tail family (c = -a - a^2), certificate number
m = (-1)**delta * 2**e * |r| where delta is read off the sign law of
:func:`~arborist.critorbit.family1_sign` (the eventual sign of f^n(0) - a)
and e is 1 iff r is even:

    T1.1-1   m = 2 (mod 3)
    T1.1-2   m = 3 (mod 4)
    T1.1-3   m is a quadratic non-residue modulo some prime q dividing s

Two-cycle-tail family (c = -1 + a - a^2):

    T1.2-1   r = 1 and s > 2 is even
    T1.2-2   r = 2, s > 3, s = 1 (mod 3)
    T1.2-3   r = 2 and some prime q = 3 (mod 4) divides s

For odd q, q = 3 (mod 4) iff (-1|q) = -1, so T1.2-3 is the m = -1 case of
the T1.1-3 non-residue search, and one search serves both.  Both families
also require a - c to not be a rational square; when it is, the tree has
deeper preperiodic structure and the representation is provably not
surjective (a - c = 0, where f(0) is the base point itself, is reported as
inapplicable instead).  Every condition, the sign law and the square test
are decided on the map's integers r, s and C = c s^2: a - c = (rs - C)/s^2,
so it is a nonzero rational square iff the integer rs - C is a perfect
square.  Each verdict is built once, with its final status, and its a is
the one Fraction a sweep row builds.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from .critorbit import DEFAULT_DEPTH, check_depth, d_sequence, family1_sign
from .dynamics import QuadMap, is_family
from .errors import InvariantViolation
from .exactnum import format_reduced, is_perfect_square, jacobi, proven_prime
from .independence import factored_orbit_independent

TRIAL_DIVISION_CUTOFF = 10**6
_F0_IS_A = "f(0) equals the base point; the backward orbit is not a regular tree"


class VerdictStatus(enum.Enum):
    PROVEN_SURJECTIVE = "ProvenSurjective"
    NOT_SURJECTIVE = "NotSurjective"
    INAPPLICABLE = "Inapplicable"
    INDEPENDENT_TO_DEPTH = "IndependentToDepth"
    DEPENDENT_AT_LEVEL = "DependentAtLevel"


class DeltaE(NamedTuple):
    """Sign exponent delta (None where undefined) and 2-part exponent e."""

    delta: int | None
    e: int


class Verdict(NamedTuple):
    """A base point's status, with every field given where it is built."""

    a: Fraction
    family: int
    status: VerdictStatus
    condition: str | None
    depth: int | None
    witness: tuple[int, ...] | None
    delta: int | None
    e: int | None
    detail: Mapping

    def to_json_dict(self) -> dict:
        """The verdict as JSON values, its keys and the detail's in sorted order.

        ``json.dumps`` of the result then needs no ``sort_keys`` to write
        the same text.
        """
        return {
            "a": format_reduced(self.a.numerator, self.a.denominator),
            "condition": self.condition,
            "delta": self.delta,
            "depth": self.depth,
            "detail": dict(sorted(self.detail.items())),
            "e": self.e,
            "family": self.family,
            "status": self.status.value,
            "witness": list(self.witness) if self.witness is not None else None,
        }


#: delta of the certificate number for each sign class without mixed signs
_DELTA_OF_SIGN = {"all_positive": 0, "all_negative": 1}


def compute_delta_e(a: Fraction | int) -> DeltaE:
    """Sign and 2-part exponents of the certificate number for a base point.

    delta is read off the fixed-point-tail sign law
    (:func:`~arborist.critorbit.family1_sign`): 0 where every f^n(0) - a is
    positive, 1 where every one is negative (the interval (0, beta), beta
    the positive real root of x^4 + 2x^3 - 2x), and undefined at -2, -1, 1
    and on the mixed interval [beta, 1].  e is 1 iff the numerator of a is
    even.  Only the integers r and s of a are read.
    """
    r, s = a.numerator, a.denominator
    if r == 0:
        raise ValueError("delta/e are undefined for a = 0")
    delta = _DELTA_OF_SIGN.get(family1_sign(r, s).kind)
    return DeltaE(delta=delta, e=1 if r % 2 == 0 else 0)


def _nonresidue_prime_in(m: int, s: int):
    """Search s for a prime q with (m|q) = -1.

    Returns (q, divisor, undecided): q when an explicit prime witness was
    found; otherwise divisor when some odd divisor of s has Jacobi symbol
    -1, which proves one of its (unknown) prime factors is a witness; and
    undecided = True when neither was found but s did not fully factor
    below TRIAL_DIVISION_CUTOFF, so absence was not established either.
    """
    remaining = s >> ((s & -s).bit_length() - 1)  # the odd part of s
    d = 3
    while d <= TRIAL_DIVISION_CUTOFF and d * d <= remaining:
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


def _prime_3_mod_4_in(s: int):
    """Search s for a prime q = 3 (mod 4); same return shape as above.

    For odd q, q = 3 (mod 4) iff (-1|q) = -1, so this is the m = -1 search.
    """
    return _nonresidue_prime_in(-1, s)


def _conditions(family: int, r: int, s: int, delta: int | None, e: int | None):
    """The family's certificate conditions at a = r/s: (fired, detail).

    The family picks m, whose non-residue prime in s is searched for: the
    certificate number for T1.1-3 (unless delta is undefined), -1 for T1.2-3
    when r = 2.  The witness is written to ``q`` or ``divisor``; when nothing
    fires, ``reason`` says why and ``undecided`` names an undecided search.
    """
    fired: list[str] = []
    detail: dict = {}
    reason, m = "no certificate condition fires", None
    if family == 1:
        tag, search = "T1.1-3", "non-residue"
        if delta is None:
            reason = "delta is undefined for this base point"
        else:
            m = (-1) ** delta * (1 << e) * abs(r)
            detail["m"] = format_reduced(m, 1)
            fired = [t for t, holds in (("T1.1-1", m % 3 == 2), ("T1.1-2", m % 4 == 3)) if holds]
    else:
        tag, search = "T1.2-3", "prime-witness"
        if r == 1 and s > 2 and s % 2 == 0:
            fired.append("T1.2-1")
        elif r == 2:
            m = -1
            if s > 3 and s % 3 == 1:
                fired.append("T1.2-2")
    q = divisor = undecided = None
    if m is not None:
        q, divisor, undecided = _nonresidue_prime_in(m, s)
    if q or divisor:  # each is None or an odd number >= 3
        fired.append(tag)
        detail["q" if q else "divisor"] = format_reduced(q or divisor, 1)
    if not fired:
        detail["reason"] = reason
        if undecided:
            detail["undecided"] = f"{search} search undecided: s did not fully factor"
    return fired, detail


def _orbit_decision(qmap: QuadMap, depth: int):
    """The adjusted orbit's (status, witness, detail) to ``depth``: Inapplicable
    with its ``zero_levels``, IndependentToDepth with the note that this is
    evidence, or DependentAtLevel with the witness levels and the highest in
    ``level`` (all 1-based).  ``d_sequence`` checks the depth first."""
    orbit = d_sequence(qmap, depth)
    if 0 in orbit.numerators:
        zero_levels = [i + 1 for i, x in enumerate(orbit.numerators) if x == 0]
        return VerdictStatus.INAPPLICABLE, None, {"zero_levels": zero_levels}
    result = factored_orbit_independent(orbit.square_class_reps, qmap.r)
    if result.independent:
        note = "finite-depth evidence only, not a proof"
        return VerdictStatus.INDEPENDENT_TO_DEPTH, None, {"note": note}
    witness = tuple(i + 1 for i in result.witness)
    return VerdictStatus.DEPENDENT_AT_LEVEL, witness, {"level": max(witness)}


def certify(a: Fraction, family: int, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Certify a base point, falling back to finite-depth independence.

    Runs the family's decision procedure; when no condition fires, the
    adjusted orbit is checked for 2-independence to the requested depth and
    the verdict reports IndependentToDepth (evidence, not proof, said in
    ``detail["note"]``) or DependentAtLevel (with the witness levels,
    1-based, and the highest in ``detail["level"]``).  The detail keeps
    every key of the inapplicable outcome, ``undecided`` included; an orbit
    with a zero term stays Inapplicable and lists the zero levels in
    ``detail["zero_levels"]``.  The family and then the depth are checked
    here, once: a family that is not the int 1 or 2 raises ValueError, and a
    depth that ``check_depth`` refuses UsageError, before any stage,
    NotSurjective too.
    """
    a = Fraction(a)
    if not is_family(family):
        raise ValueError("family must be the int 1 or 2")
    check_depth(a.numerator, a.denominator, depth, family)
    return _certify(a.numerator, a.denominator, family, depth)


def _certify(r: int, s: int, family: int, depth: int) -> Verdict:
    """The decision procedure at a = r/s, reduced with s >= 1, as stages
    that return values (module docstring); the caller has checked the depth.

    Returns Inapplicable when f(0) = a (a - c = 0, so the backward orbit is
    not a regular tree), NotSurjective when a - c is a nonzero rational
    square, and ProvenSurjective with the first firing condition (every
    firing condition is listed in the detail); otherwise the orbit's status.
    The adjusted orbit to ``depth`` is decided once: it is the audit of a
    fired condition, which must find it independent (else
    InvariantViolation, a bug), and the verdict when no condition fires.
    """
    qmap = QuadMap(family, r, s)
    a = qmap.a
    delta, e = compute_delta_e(a) if family == 1 else (None, None)
    gap = r * s - qmap.C  # (a - c) * s^2
    if gap and is_perfect_square(gap):
        # gap/s^2 is reduced: gap is r(r + 2s) in the first family and
        # r^2 + s^2 in the second, both prime to s as r is
        a_minus_c = format_reduced(gap, s * s)
        detail = {"reason": "a - c is a rational square", "a_minus_c": a_minus_c}
        return Verdict(a, family, VerdictStatus.NOT_SURJECTIVE, None, None, None, delta, e, detail)
    fired, detail = _conditions(family, r, s, delta, e) if gap else ([], {"reason": _F0_IS_A})
    status, witness, found = _orbit_decision(qmap, depth)
    if not fired:
        return Verdict(a, family, status, None, depth, witness, delta, e, {**detail, **found})
    if status is not VerdictStatus.INDEPENDENT_TO_DEPTH:
        raise InvariantViolation(
            f"certified base point {format_reduced(r, s)} fails the independence audit "
            f"({status.value}, witness levels {witness})"
        )
    detail["fired"] = fired
    proven = VerdictStatus.PROVEN_SURJECTIVE
    return Verdict(a, family, proven, fired[0], depth, None, delta, e, detail)
