"""Certification of surjective arboreal Galois representations.

One decision procedure for both preperiodic families, turning simple
congruence and residue conditions on the base point a = r/s into a proof of
surjectivity (condition tags T1.1-1..3 and T1.2-1..3 below); only the list
of conditions that fire is family-specific.  The 2-independence of the
adjusted orbit, decided by
:func:`~arborist.independence.factored_orbit_independent` from the
repeated-prime law (which ``d_sequence``'s factored recursion and its
iteration cross-check establish for the numerators used, so no gcd between
levels is taken; every witness is re-verified), is one computation per
verdict: it audits every positive certificate, and it is the finite-depth
fallback when no condition applies.  A fallback "independent to depth N" is
evidence about the depth-N tree quotient, not a proof for the full tree,
and the verdict says so.  ``certify`` and the sweep's rows reach every
verdict through one integer entry, so the decision runs from one site.

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
from .dynamics import Family, QuadMap
from .errors import InvariantViolation
from .exactnum import is_perfect_square, jacobi, proven_prime
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


class _Verdict(NamedTuple):
    a: Fraction
    family: Family
    status: VerdictStatus
    condition: str | None = None
    depth: int | None = None
    witness: tuple[int, ...] | None = None
    delta: int | None = None
    e: int | None = None
    detail: Mapping | None = None


class Verdict(_Verdict):
    """A base point's status; one built without ``detail`` gets an empty dict of its own."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        verdict = super().__new__(cls, *args, **kwargs)
        return verdict if verdict.detail is not None else verdict._replace(detail={})

    def to_json_dict(self) -> dict:
        """The verdict as JSON values, its keys and the detail's in sorted order.

        ``json.dumps`` of the result then needs no ``sort_keys`` to write
        the same text.
        """
        return {
            "a": str(self.a),
            "condition": self.condition,
            "delta": self.delta,
            "depth": self.depth,
            "detail": dict(sorted(self.detail.items())),
            "e": self.e,
            "family": self.family.value,
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

    For odd q, q = 3 (mod 4) iff (-1|q) = -1, so this is the m = -1 search.
    """
    return _nonresidue_prime_in(-1, s, cutoff)


def _witness_search(tag: str, m: int, s: int, fired: list, detail: dict) -> bool:
    """Fire `tag` on a prime q | s with (m|q) = -1; True when undecided."""
    q, divisor, undecided = _nonresidue_prime_in(m, s)
    if q is not None:
        fired.append(tag)
        detail["q"] = str(q)
    elif divisor is not None:
        fired.append(tag)
        detail["divisor"] = str(divisor)
    return undecided


def _conditions1(
    r: int, s: int, delta: int | None, e: int
) -> tuple[list[str], dict, str | None]:
    """T1.1-1..3 on the certificate number m: (fired, detail, undecided note)."""
    if delta is None:
        return [], {"reason": "delta is undefined for this base point"}, None
    m = (-1) ** delta * (1 << e) * abs(r)
    fired: list[str] = []
    if m % 3 == 2:
        fired.append("T1.1-1")
    if m % 4 == 3:
        fired.append("T1.1-2")
    detail = {"m": str(m)}
    if _witness_search("T1.1-3", m, s, fired, detail):
        return fired, detail, "non-residue search undecided: s did not fully factor"
    return fired, detail, None


def _conditions2(r: int, s: int) -> tuple[list[str], dict, str | None]:
    """T1.2-1..3 on r and s: (fired, detail, undecided note)."""
    fired = ["T1.2-1"] if r == 1 and s > 2 and s % 2 == 0 else []
    detail: dict = {}
    if r == 2:
        if s > 3 and s % 3 == 1:
            fired.append("T1.2-2")
        if _witness_search("T1.2-3", -1, s, fired, detail):
            note = "prime-witness search undecided: s did not fully factor"
            return fired, detail, note
    return fired, detail, None


def certify(a: Fraction, family: Family | int, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Certify a base point, falling back to finite-depth independence.

    Runs the family's decision procedure; when no condition fires, the
    adjusted orbit is checked for 2-independence to the requested depth and
    the verdict reports IndependentToDepth (evidence, not proof, said in
    ``detail["note"]``) or DependentAtLevel (with the witness levels,
    1-based, and the highest in ``detail["level"]``).  The detail keeps
    every key of the inapplicable outcome, ``undecided`` included; an orbit
    with a zero term stays Inapplicable and lists the zero levels in
    ``detail["zero_levels"]``.
    """
    a = Fraction(a)
    return _certify(a.numerator, a.denominator, family, depth)


def _certify(r: int, s: int, family: Family | int, depth: int) -> Verdict:
    """The decision procedure at a = r/s, reduced with s >= 1; only the
    conditions differ between the families.  ``certify`` and the sweep's
    rows both enter here, the sweep with no Fraction first.

    Returns Inapplicable when f(0) = a (a - c = 0, so the backward orbit is
    not a regular tree), NotSurjective when a - c is a nonzero rational
    square, and ProvenSurjective with the first firing condition (every
    firing condition is listed in the detail).  Otherwise the status is the
    orbit's, as :func:`certify` describes; an undecided witness search says
    so in ``detail["undecided"]``.  The adjusted orbit to ``depth`` is
    decided once: it is the audit of a fired condition, which must find it
    independent (else InvariantViolation, a bug), and the verdict when no
    condition fires.  A depth that ``check_depth`` refuses raises first.
    """
    family = Family(family)
    check_depth(r, s, depth, family)
    qmap = QuadMap(family, r, s)
    a = qmap.a
    cycle1 = family is Family.CYCLE1
    delta, e = compute_delta_e(a) if cycle1 else (None, None)
    fired: list[str] = []
    gap = r * s - qmap.C  # (a - c) * s^2
    if gap == 0:
        detail = {"reason": _F0_IS_A}
    elif is_perfect_square(gap):
        a_minus_c = str(Fraction(gap, s * s))
        detail = {"reason": "a - c is a rational square", "a_minus_c": a_minus_c}
        return Verdict(a, family, VerdictStatus.NOT_SURJECTIVE, None, None, None, delta, e, detail)
    else:
        fired, detail, note = _conditions1(r, s, delta, e) if cycle1 else _conditions2(r, s)
        if not fired:
            detail.setdefault("reason", "no certificate condition fires")
            if note is not None:
                detail["undecided"] = note
    orbit = d_sequence(qmap, depth)
    witness = None
    if 0 in orbit.numerators:
        status = VerdictStatus.INAPPLICABLE
        found = {"zero_levels": [i + 1 for i, x in enumerate(orbit.numerators) if x == 0]}
    else:
        result = factored_orbit_independent(orbit.square_class_reps, r)
        if result.independent:
            status = VerdictStatus.INDEPENDENT_TO_DEPTH
            found = {"note": "finite-depth evidence only, not a proof"}
        else:
            witness = tuple(i + 1 for i in result.witness)
            status, found = VerdictStatus.DEPENDENT_AT_LEVEL, {"level": max(witness)}
    if fired:
        if status is not VerdictStatus.INDEPENDENT_TO_DEPTH:
            raise InvariantViolation(
                f"certified base point {a} fails the independence audit "
                f"({status.value}, witness levels {witness})"
            )
        detail["fired"] = fired
        status = VerdictStatus.PROVEN_SURJECTIVE
        return Verdict(a, family, status, fired[0], depth, None, delta, e, detail)
    detail.update(found)
    return Verdict(a, family, status, None, depth, witness, delta, e, detail)
