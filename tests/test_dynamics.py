from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborist.critorbit import numerator_recursion
from arborist.dynamics import QuadMap, family1, family2
from arborist.errors import DegenerateBasePoint
from arborist.verdict import certify


def apply(f, x):
    return x * x + f.c


def iterate(f, x, n):
    """Exact n-fold composition f^n(x) over Fractions; n = 0 returns x."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    x = Fraction(x)
    for _ in range(n):
        x = apply(f, x)
    return x

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
        fa = apply(f, a)
        assert fa == -a
        assert apply(f, fa) == fa
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

    def test_integers_are_stored_and_rationals_derived(self):
        f = family2(Fraction(-6, 14))
        assert (f.family, f.r, f.s, f.C) == (2, -3, 7, -79)
        assert (f.a, f.c) == (Fraction(-3, 7), Fraction(-79, 49))
        g = family1(2)
        assert (g.r, g.s, g.C, g.c) == (2, 1, -6, Fraction(-6))

    @pytest.mark.parametrize(
        "family, r, s",
        [
            (1, 2, 4),  # r/s not reduced
            (1, 1, -2),  # s < 1
            (2, 1, 0),
        ],
    )
    def test_only_the_families_maps_can_be_built(self, family, r, s):
        with pytest.raises(ValueError, match="not a map of either family"):
            QuadMap(family, r, s)

    def test_degenerate_map_cannot_be_built(self):
        with pytest.raises(DegenerateBasePoint):
            QuadMap(1, -1, 1)

    def test_a_family_is_the_int_1_or_2(self):
        # True == 1, but a bool is not a family: the rows write ints
        assert QuadMap(1, 1, 3) == (1, 1, 3) and QuadMap(2, 1, 3).C == -7
        for family in (True, False, 0, 3, 1.0):
            with pytest.raises(ValueError, match="not a map of either family"):
                QuadMap(family, 1, 3)
        with pytest.raises(ValueError, match="family must be the int 1 or 2"):
            certify(Fraction(1, 3), True)
        with pytest.raises(ValueError, match="family must be the int 1 or 2"):
            numerator_recursion(True, 1, 3, 2)
