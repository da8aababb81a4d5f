import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arborist.verdict as verdict_module
from arborist.critorbit import d_sequence
from arborist.dynamics import DEGENERATE, family1, family2
from arborist.errors import DegenerateBasePoint, InvariantViolation
from arborist.exactnum import rational_is_square
from arborist.independence import two_independent
from arborist.search import _reduced_pairs
from arborist.verdict import (
    VerdictStatus,
    _nonresidue_prime_in,
    _prime_3_mod_4_in,
    certify,
    compute_delta_e,
)


def bisect_root(poly, lo, hi, steps=80):
    """Float root oracle for the interval endpoints."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if poly(lo) * poly(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


BETA = bisect_root(lambda x: x**3 + 2 * x**2 - 2, 0.5, 1.0)


class TestDeltaE:
    @pytest.mark.parametrize(
        "a, delta, e",
        [
            (Fraction(1, 5), 1, 0),
            (Fraction(-6, 7), 0, 1),
            (Fraction(1, 2), 1, 0),
            (Fraction(9, 10), None, 0),
            (Fraction(-7, 2), 0, 0),
            (Fraction(4, 3), 0, 1),
            (Fraction(-2), None, 1),
            (Fraction(-1), None, 0),
            (Fraction(1), None, 0),
        ],
    )
    def test_cases(self, a, delta, e):
        de = compute_delta_e(a)
        assert (de.delta, de.e) == (delta, e)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            compute_delta_e(Fraction(0))

    @given(
        a=st.fractions(min_value=-10, max_value=10, max_denominator=200).filter(
            lambda f: f != 0
        )
    )
    @settings(max_examples=300)
    def test_agrees_with_float_intervals(self, a):
        # sanity cross-check away from the endpoints; the exact test rules
        if min(abs(float(a) - b) for b in (BETA, 1.0, -1.0, -2.0, 0.0)) < 1e-6:
            return
        de = compute_delta_e(a)
        x = float(a)
        if x < 0 and x not in (-1.0, -2.0) or x > 1:
            assert de.delta == 0
        elif 0 < x < BETA:
            assert de.delta == 1
        else:
            assert de.delta is None
        assert de.e == (1 if a.numerator % 2 == 0 else 0)


class TestCertifyFamily1:
    def test_example_one_fifth(self):
        v = certify(Fraction(1, 5), 1, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert v.condition == "T1.1-1"
        assert v.detail["m"] == "-1"

    def test_example_one_half_fires_mod4(self):
        v = certify(Fraction(1, 2), 1, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert "T1.1-2" in v.detail["fired"]  # -1 = 3 (mod 4)

    def test_example_minus_six_sevenths(self):
        v = certify(Fraction(-6, 7), 1, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert v.condition == "T1.1-3"
        assert v.detail["fired"] == ["T1.1-3"]
        assert v.detail["q"] == "7"

    def test_square_offset_is_not_surjective(self):
        v = certify(Fraction(1, 4), 1, depth=1)
        assert v.status is VerdictStatus.NOT_SURJECTIVE
        assert v.detail["a_minus_c"] == "9/16"

    def test_minus_two_is_inapplicable(self):
        assert certify(Fraction(-2), 1, depth=1).status is VerdictStatus.INAPPLICABLE

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateBasePoint):
            certify(Fraction(0), 1, depth=1)
        with pytest.raises(DegenerateBasePoint):
            certify(Fraction(-1), 1, depth=1)

    def test_audit_failure_raises(self, monkeypatch):
        dependent = (VerdictStatus.DEPENDENT_AT_LEVEL, (1,), {"level": 1})
        monkeypatch.setattr(verdict_module, "_orbit_decision", lambda qmap, depth: dependent)
        # 1/5 fires T1.1-1 in the first family, 1/4 fires T1.2-1 in the second
        for a, family in ((Fraction(1, 5), 1), (Fraction(1, 4), 2)):
            with pytest.raises(InvariantViolation, match="fails the independence audit"):
                certify(a, family, depth=4)

    def test_unaudited_proof_is_refused(self):
        # 1/5 fires T1.1-1; a proof without its independence audit is an error
        for depth in (0, -1):
            with pytest.raises(ValueError):
                certify(Fraction(1, 5), 1, depth=depth)


class TestCertifyFamily2:
    def test_example_one_quarter(self):
        v = certify(Fraction(1, 4), 2, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert v.condition == "T1.2-1"

    def test_example_two_thirteenths(self):
        v = certify(Fraction(2, 13), 2, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert v.condition == "T1.2-2"
        assert v.detail["fired"] == ["T1.2-2"]

    def test_example_two_thirds(self):
        v = certify(Fraction(2, 3), 2, depth=6)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE
        assert v.condition == "T1.2-3"
        assert v.detail["q"] == "3"

    def test_pythagorean_square_offset(self):
        # a - c = 1 + a^2 = 25/16 at a = 3/4
        v = certify(Fraction(3, 4), 2, depth=1)
        assert v.status is VerdictStatus.NOT_SURJECTIVE
        assert v.detail["a_minus_c"] == "25/16"

    def test_unaudited_proof_is_refused(self):
        with pytest.raises(ValueError):
            certify(Fraction(1, 4), 2, depth=0)

    def test_conditions_require_unit_or_two_numerator(self):
        # 3/5 fires nothing, so its status is the orbit's, not a proof
        v = certify(Fraction(3, 5), 2, depth=1)
        assert v.status is VerdictStatus.INDEPENDENT_TO_DEPTH
        assert v.condition is None
        assert v.detail["reason"] == "no certificate condition fires"
        assert "fired" not in v.detail

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateBasePoint):
            certify(Fraction(1, 2), 2, depth=1)


class TestCertify:
    def test_proven_case_passes_through(self):
        v = certify(Fraction(1, 2), 1, depth=8)
        assert v.status is VerdictStatus.PROVEN_SURJECTIVE

    def test_mixed_interval_falls_back_to_evidence(self):
        v = certify(Fraction(9, 10), 1, depth=8)
        assert v.status is VerdictStatus.INDEPENDENT_TO_DEPTH
        assert v.depth == 8
        assert "not a proof" in v.detail["note"]

    @pytest.mark.parametrize(
        "a, family, undecided",
        [
            (Fraction(-12, 1000003 * 1000033), 1, "non-residue search undecided"),
            (Fraction(2, 1000033 * 1000037), 2, "prime-witness search undecided"),
        ],
    )
    def test_undecided_search_note_survives_the_fallback(self, a, family, undecided):
        # s is a product of two primes above the trial-division cutoff
        v = certify(a, family, depth=6)
        assert v.status is VerdictStatus.INDEPENDENT_TO_DEPTH
        assert "not a proof" in v.detail["note"]
        assert v.detail["undecided"].startswith(undecided)

    def test_unit_base_point_two_cycle_dependency(self):
        v = certify(Fraction(1), 2, depth=6)
        assert v.status is VerdictStatus.DEPENDENT_AT_LEVEL
        assert v.witness == (1, 2, 3)
        assert v.detail["level"] == 3

    def test_minus_two_reports_zero_level(self):
        v = certify(Fraction(-2), 1, depth=4)
        assert v.status is VerdictStatus.INAPPLICABLE
        assert v.detail["zero_levels"] == [1]

    def test_nonpositive_depth_is_refused_for_every_base_point(self):
        # every verdict, NotSurjective and f(0) = a included, is reached at a
        # positive depth only; a degenerate base point, which has no verdict,
        # is refused as degenerate first
        for r, s in _reduced_pairs(6):
            for family in (1, 2):
                degenerate = (r, s) in DEGENERATE[family]
                message = "is degenerate" if degenerate else "depth must be positive"
                for depth in (0, -1):
                    with pytest.raises(ValueError, match=message):
                        certify(Fraction(r, s), family, depth=depth)

    def test_proven_verdict_carries_no_orbit_keys(self):
        # the audit decides the orbit independent; its note is the fallback's
        for a, family in ((Fraction(1, 5), 1), (Fraction(2, 3), 2)):
            v = certify(a, family, depth=6)
            assert v.status is VerdictStatus.PROVEN_SURJECTIVE
            assert v.depth == 6 and v.witness is None
            assert {"note", "level", "zero_levels"}.isdisjoint(v.detail)

    def test_family_accepts_enum_or_int(self):
        assert certify(Fraction(1, 5), 1, depth=4).condition == "T1.1-1"
        with pytest.raises(ValueError):
            certify(Fraction(1, 5), 0, depth=4)

    def test_json_shape(self):
        v = certify(Fraction(2, 3), 2, depth=5)
        payload = v.to_json_dict()
        assert payload["a"] == "2/3"
        assert payload["family"] == 2
        assert payload["status"] == "ProvenSurjective"
        assert payload["condition"] == "T1.2-3"
        assert set(payload) == {
            "a",
            "family",
            "status",
            "condition",
            "depth",
            "witness",
            "delta",
            "e",
            "detail",
        }


class TestConsistencyProperties:
    def sample(self, bound):
        for s in range(1, bound + 1):
            for r in range(-bound, bound + 1):
                if r != 0 and math.gcd(abs(r), s) == 1:
                    yield Fraction(r, s)

    def test_never_proven_when_offset_is_square(self):
        for a in self.sample(12):
            for fam, ctor in ((1, family1), (2, family2)):
                try:
                    qmap = ctor(a)
                except DegenerateBasePoint:
                    continue
                if not rational_is_square(a - qmap.c):
                    continue
                verdict = certify(a, fam, depth=4)
                assert verdict.status is not VerdictStatus.PROVEN_SURJECTIVE, (a, fam)
                if a - qmap.c != 0:
                    assert verdict.status is VerdictStatus.NOT_SURJECTIVE, (a, fam)

    def test_proven_verdicts_pass_independence(self):
        for a in self.sample(8):
            for fam, ctor in ((1, family1), (2, family2)):
                try:
                    verdict = certify(a, fam, depth=6)
                except DegenerateBasePoint:
                    continue
                if verdict.status is not VerdictStatus.PROVEN_SURJECTIVE:
                    continue
                orbit = d_sequence(ctor(a), 6)
                assert two_independent(orbit.d_values).independent, (a, fam)


def smallest_prime_witness(s, is_witness):
    """Trial-division reference: the least odd prime q | s with is_witness(q)."""
    q = 3
    while s > 1:
        if s % 2 == 0:
            s //= 2
            continue
        if s % q == 0:
            if is_witness(q):
                return q
            s //= q
            continue
        q += 2
    return None


def legendre_is_minus_one(m, q):
    return pow(m % q, (q - 1) // 2, q) == q - 1


class TestWitnessPrimeSearch:
    @pytest.mark.parametrize("m", [-3, -2, -1, 2, 3, 5, -10])
    def test_nonresidue_search_matches_trial_division(self, m):
        for s in range(1, 3001):
            q = smallest_prime_witness(s, lambda p: legendre_is_minus_one(m, p))
            assert _nonresidue_prime_in(m, s) == (q, None, False), s

    def test_prime_3_mod_4_search_matches_trial_division(self):
        for s in range(1, 3001):
            q = smallest_prime_witness(s, lambda p: p % 4 == 3)
            assert _prime_3_mod_4_in(s) == (q, None, False), s

    def test_prime_3_mod_4_is_the_minus_one_nonresidue_search(self, monkeypatch):
        # for odd q, q = 3 (mod 4) iff (-1|q) = -1, including below a cutoff
        for cutoff in (3, 5, 7, 11):
            monkeypatch.setattr(verdict_module, "TRIAL_DIVISION_CUTOFF", cutoff)
            for s in range(1, 3001):
                assert _prime_3_mod_4_in(s) == _nonresidue_prime_in(-1, s), (s, cutoff)

    def test_composite_cofactor_certifies_a_divisor(self, monkeypatch):
        # 91 = 7 * 13 with 7 = 3 (mod 4); 77 = 7 * 11 with (2|7) = 1, (2|11) = -1
        monkeypatch.setattr(verdict_module, "TRIAL_DIVISION_CUTOFF", 5)
        assert _prime_3_mod_4_in(91) == (None, 91, False)
        assert _nonresidue_prime_in(2, 77) == (None, 77, False)

    def test_composite_cofactor_can_leave_the_search_undecided(self, monkeypatch):
        # 77 = 7 * 11 and 143 = 11 * 13 each hold two witnesses, whose
        # symbols cancel, so nothing below the cutoff settles the question
        monkeypatch.setattr(verdict_module, "TRIAL_DIVISION_CUTOFF", 5)
        assert _prime_3_mod_4_in(77) == (None, None, True)
        assert _nonresidue_prime_in(2, 143) == (None, None, True)
