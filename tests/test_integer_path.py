"""The certifier's integer decisions on a = r/s against their Fraction forms.

The constructors build c from r and s, the sign laws are integer polynomials
in r and s, and the certifier decides "a - c is a rational square" on the
integer rs - C.  The Fraction expressions they replace are kept here as the
reference, over every base point of height <= 60 and under hypothesis.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborist.critorbit import family1_sign, sign_predict
from arborist.dynamics import DEGENERATE, QuadMap, family1, family2
from arborist.errors import DegenerateBasePoint
from arborist.exactnum import rational_is_square
from arborist.search import _reduced_pairs
from arborist.verdict import VerdictStatus, _certify, certify

F_0_EQUALS_A = "f(0) equals the base point; the backward orbit is not a regular tree"


def reference_family1_sign(a):
    if a in (-2, -1, 1):
        return "boundary", None
    if -2 < a < 0:
        return "all_positive", 1
    if a < -2 or a > 1:
        return "all_positive", 2
    if a > 0 and a**4 + 2 * a**3 - 2 * a < 0:
        return "all_negative", 1
    return "mixed", None


def reference_family2_sign(a):
    if a * a - a - 1 > 0:
        return "all_positive", 2
    if a > 0 and a**4 - 2 * a**3 + 2 * a * a - 2 * a < 0:
        return "all_negative", 1
    return "mixed", None


FAMILIES = (
    (family1, 1, lambda a: -a - a * a, reference_family1_sign),
    (family2, 2, lambda a: -1 + a - a * a, reference_family2_sign),
)


def check_against_fractions(a):
    for ctor, family, reference_c, reference_sign in FAMILIES:
        try:
            qmap = ctor(a)
        except DegenerateBasePoint:
            continue
        assert qmap.c == reference_c(a), a
        pred = sign_predict(qmap)
        assert (pred.kind, pred.start) == reference_sign(a), a
        if ctor is family1:
            law = family1_sign(a.numerator, a.denominator)
            assert (law.kind, law.start) == reference_family1_sign(a), a
        a_minus_c = a - qmap.c
        verdict = certify(a, family, depth=1)
        assert (verdict.detail.get("reason") == F_0_EQUALS_A) == (a_minus_c == 0), a
        square = a_minus_c != 0 and rational_is_square(a_minus_c)
        assert (verdict.status is VerdictStatus.NOT_SURJECTIVE) == square, a
        if square:
            assert verdict.detail["a_minus_c"] == str(a_minus_c)


def test_every_base_point_up_to_height_60():
    for r, s in _reduced_pairs(60):
        check_against_fractions(Fraction(r, s))


@pytest.mark.parametrize(
    "a",
    [
        Fraction(-2),  # a - c = 0 in the first family
        Fraction(1, 4),  # a - c = 9/16 in the first family
        Fraction(3, 4),  # 1 + a^2 = 25/16 in the second family
        Fraction(-5, 12),  # 1 + a^2 = 169/144
        Fraction(8, 15),  # 1 + a^2 = 289/225
    ],
)
def test_square_offsets_and_the_vanishing_one(a):
    check_against_fractions(a)


@given(
    r=st.integers(min_value=-(10**9), max_value=10**9).filter(lambda r: r != 0),
    s=st.integers(min_value=1, max_value=10**9),
)
@settings(max_examples=150, deadline=None)
def test_large_base_points(r, s):
    check_against_fractions(Fraction(r, s))


@given(
    m=st.integers(min_value=1, max_value=30_000),
    n=st.integers(min_value=1, max_value=30_000),
    sign=st.sampled_from((1, -1)),
)
@settings(max_examples=100, deadline=None)
def test_large_pythagorean_points(m, n, sign):
    # a = (m^2 - n^2) / 2mn makes 1 + a^2 a rational square
    if m != n:
        check_against_fractions(Fraction(sign * (m * m - n * n), 2 * m * n))


def test_integer_entry_gives_certify_json():
    # search reaches the certifier from (r, s) without a Fraction; every base
    # point of height <= 30 must get certify's verdict, text for text
    zero_rows = []
    for r, s in _reduced_pairs(30):
        for family in (1, 2):
            if (r, s) in DEGENERATE[family]:
                continue
            row = json.dumps(_certify(QuadMap(family, r, s), 8).to_json_dict())
            reference = certify(Fraction(r, s), family, depth=8).to_json_dict()
            assert row == json.dumps(reference, sort_keys=True), (r, s, family)
            if "zero_levels" in reference["detail"]:
                zero_rows.append((r, s, family, reference["detail"]["reason"]))
    # a = -2 in the first family: a - c = 0, and the fallback still lists
    # the zero levels of its orbit
    assert zero_rows == [(-2, 1, 1, F_0_EQUALS_A)]
