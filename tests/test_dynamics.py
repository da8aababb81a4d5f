from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborist.dynamics import family1, family2, iterate
from arborist.errors import DegenerateBasePoint

nonzero_rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=30
).filter(lambda f: f != 0)


class TestFamily1:
    @pytest.mark.parametrize(
        "a, c",
        [
            (Fraction(1, 5), Fraction(-6, 25)),
            (Fraction(-6, 7), Fraction(6, 49)),
            (Fraction(1, 2), Fraction(-3, 4)),
        ],
    )
    def test_known_parameters(self, a, c):
        assert family1(a).c == c

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateBasePoint):
            family1(0)
        with pytest.raises(DegenerateBasePoint):
            family1(-1)

    @given(a=nonzero_rationals.filter(lambda f: f != -1))
    def test_orbit_identities(self, a):
        f = family1(a)
        fa = f.apply(a)
        assert fa == -a
        assert f.apply(fa) == fa
        assert fa != a


class TestFamily2:
    @pytest.mark.parametrize(
        "a, c",
        [
            (Fraction(1, 4), Fraction(-13, 16)),
            (Fraction(2, 13), Fraction(-147, 169)),
            (Fraction(2, 3), Fraction(-7, 9)),
        ],
    )
    def test_known_parameters(self, a, c):
        assert family2(a).c == c

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateBasePoint):
            family2(0)
        with pytest.raises(DegenerateBasePoint):
            family2(Fraction(1, 2))

    @given(a=nonzero_rationals.filter(lambda f: f != Fraction(1, 2)))
    def test_orbit_identities(self, a):
        f = family2(a)
        assert iterate(f, a, 1) == a - 1
        assert iterate(f, a, 2) == -a
        assert iterate(f, a, 3) == a - 1
        assert iterate(f, a, 1) != a
        assert iterate(f, a, 2) != a


class TestIterate:
    def test_identity_at_zero_steps(self):
        f = family1(Fraction(1, 2))
        assert iterate(f, Fraction(7, 3), 0) == Fraction(7, 3)

    def test_first_critical_image(self):
        f = family1(Fraction(1, 2))
        assert iterate(f, 0, 1) == Fraction(-3, 4)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            iterate(family1(1), 0, -1)


class TestQuadMapBasics:
    def test_values_hashable_and_frozen(self):
        f = family1(Fraction(1, 2))
        assert hash(f) == hash(family1(Fraction(1, 2)))
        with pytest.raises(AttributeError):
            f.c = Fraction(0)
