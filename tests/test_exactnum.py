import math
import random
from fractions import Fraction

import pytest
from conftest import primes_up_to
from hypothesis import given, settings
from hypothesis import strategies as st

from arborist import exactnum
from arborist.errors import InvariantViolation
from arborist.exactnum import (
    factor_refine,
    format_reduced,
    is_perfect_square,
    jacobi,
    parse_rational,
    proven_prime,
    rational_is_square,
    v_int,
)


def trial_division(n):
    """Prime-factorization oracle for small integers."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class TestValuation:
    def test_examples(self):
        assert v_int(-6, 2) == 1
        assert v_int(-6, 7) == 0
        with pytest.raises(ValueError):
            v_int(0, 3)

    def test_integer_inputs(self):
        assert v_int(24, 2) == 3
        assert v_int(24, 3) == 1
        assert v_int(24, 5) == 0

    @given(
        n=st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_matches_exponent_arithmetic(self, n, p):
        v = v_int(n, p)
        unit, rem = divmod(n, p**v)
        assert rem == 0 and unit % p != 0


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(16)
        assert not is_perfect_square(12)
        assert is_perfect_square(0)
        assert not is_perfect_square(-4)

    def test_exhaustive_small_range(self):
        squares = {k * k for k in range(1001)}
        for n in range(-100, 10**6 + 1):
            assert is_perfect_square(n) == (n in squares)

    def test_large_random_integers(self):
        rng = random.Random(2024)
        for _ in range(10**3):
            n = rng.getrandbits(6643)  # about 2000 decimal digits
            root = math.isqrt(n)
            assert is_perfect_square(n) == (root * root == n)
            assert is_perfect_square(root * root)
            assert not is_perfect_square(root * root + 1) or root == 0

    def test_squares_times_small_factors(self):
        # the residue screen must neither reject a square nor pass a
        # non-square that slips through it: compare with isqrt throughout
        rng = random.Random(7)
        roots = [rng.getrandbits(bits) for bits in (10, 64, 500, 3000) for _ in range(5)]
        for k in roots:
            for m in range(1, 400):
                n = k * k * m
                assert is_perfect_square(n) == (math.isqrt(n) ** 2 == n), (k, m)
            for n in (k * k - 1, k * k + 1, (k * k) << 6, 63 * 65 * 11 * k * k):
                assert is_perfect_square(n) == (n >= 0 and math.isqrt(n) ** 2 == n)

    @given(n=st.integers(min_value=-(10**80), max_value=10**80))
    @settings(max_examples=300)
    def test_matches_isqrt(self, n):
        assert is_perfect_square(n) == (n >= 0 and math.isqrt(n) ** 2 == n)
        assert is_perfect_square(n * n)

    @given(
        bits=st.integers(min_value=-4, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
        p=st.sampled_from(primes_up_to(211) + [2**61 - 1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_isqrt_across_the_sieve_threshold(self, bits, seed, p):
        # k^2 from just below to just above _SIEVE_BITS bits; k is drawn from
        # a seed, as hypothesis would search a 4 kB integer poorly
        bits += exactnum._SIEVE_BITS // 2
        k = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
        for n in (k * k, k * k - 1, k * k + 1, k * k * p):
            assert is_perfect_square(n) == (math.isqrt(n) ** 2 == n), (bits, p)

    def test_every_screen_mask_holds_the_squares_of_its_modulus(self):
        sieve = [p for p, _ in exactnum._SIEVE_SCREEN]
        assert sieve == [p for p in primes_up_to(199) if p >= 17]
        assert [m for m, _ in exactnum._QR_SCREEN] == [63, 65, 11]
        assert (exactnum._QR_PRODUCT, exactnum._SIEVE_PRODUCT) == (45045, math.prod(sieve))
        screens = [(64, exactnum._SQUARES_MOD_64), *exactnum._QR_SCREEN, *exactnum._SIEVE_SCREEN]
        for m, squares in screens:
            assert squares >> m == 0
            for j in range(m):
                is_square = any((k * k - j) % m == 0 for k in range(m))
                assert bool(squares >> j & 1) == is_square, (m, j)
                if m in sieve:
                    assert is_square == (jacobi(j, m) != -1), (m, j)

    def test_deep_orbit_cofactors_never_reach_a_large_isqrt(self, monkeypatch):
        # family 2 at a = 7/(2^60 + 31): the cofactors at levels 11, 13, 15
        # and 17 (123k to 7.9M bits) are not squares but pass the mod
        # 64/63/65/11 screen; isqrt took 1.5 s and 22 s on the last two
        # (Python 3.11)
        from arborist.verdict import VerdictStatus, certify

        class LargeIsqrtRefused:
            def __getattr__(self, name):
                return getattr(math, name)

            def isqrt(self, n):
                if n.bit_length() > exactnum._SIEVE_BITS:
                    pytest.fail(f"isqrt of a {n.bit_length()}-bit integer")
                return math.isqrt(n)

        monkeypatch.setattr(exactnum, "math", LargeIsqrtRefused())
        verdict = certify(Fraction(7, 2**60 + 31), 2, depth=17)
        assert verdict.status is VerdictStatus.INDEPENDENT_TO_DEPTH


class TestRationalSquare:
    def test_examples(self):
        assert not rational_is_square(Fraction(11, 25))
        assert rational_is_square(Fraction(9, 4))
        assert not rational_is_square(Fraction(-1, 4))
        assert rational_is_square(Fraction(0))

    @given(
        x=st.fractions(max_denominator=10**4).filter(lambda f: f != 0),
        d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    )
    def test_squares_and_twisted_squares(self, x, d):
        assert rational_is_square(x * x)
        assert not rational_is_square(x * x * d)


class TestJacobi:
    def test_examples(self):
        assert jacobi(12, 7) == -1
        assert jacobi(2, 7) == 1
        for n in (1, 3, 5, 9, 15, 997):
            assert jacobi(1, n) == 1

    def test_rejects_even_or_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, -5)
        with pytest.raises(ValueError):
            jacobi(3, 0)

    def test_agrees_with_residue_enumeration(self):
        for p in primes_up_to(997):
            if p == 2:
                continue
            residues = {k * k % p for k in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in residues else -1)
                assert jacobi(a, p) == expected, (a, p)

    def test_negative_entries(self):
        # (-1 | p) = 1 iff p = 1 mod 4
        for p in primes_up_to(200):
            if p == 2:
                continue
            assert jacobi(-1, p) == (1 if p % 4 == 1 else -1)


class TestPrimality:
    def test_small_values_against_sieve(self):
        sieve = set(primes_up_to(10**4))
        for n in range(10**4 + 1):
            assert proven_prime(n) == (n in sieve)

    def test_known_large_cases(self):
        assert proven_prime(2**61 - 1)
        assert proven_prime(2**62 - 1) is False
        # Carmichael numbers must not fool it
        for n in (561, 1105, 1729, 41041, 825265):
            assert proven_prime(n) is False

    def test_proven_prime_range_gate(self):
        assert proven_prime(10**18 + 9) in (True, False)
        assert proven_prime(10**30) is None


class TestFactorRefine:
    def assert_valid(self, inputs, basis, rows):
        for b in basis:
            assert b >= 2
        for i, b in enumerate(basis):
            for other in basis[i + 1 :]:
                assert math.gcd(b, other) == 1
        for n, row in zip(inputs, rows):
            product = 1
            for b, e in zip(basis, row):
                product *= b**e
            assert product == n

    def test_example_12_18(self):
        basis, rows = factor_refine([12, 18])
        assert basis == [2, 3]
        assert rows == [[2, 1], [1, 2]]

    def test_single_prime(self):
        assert factor_refine([7]) == ([7], [[1]])

    def test_already_coprime_squares(self):
        basis, rows = factor_refine([4, 9])
        self.assert_valid([4, 9], basis, rows)

    def test_duplicate_inputs_get_equal_rows(self):
        for n in (12, 36, 210, 2**5 * 3**4):
            basis, rows = factor_refine([n, n])
            assert rows[0] == rows[1]
            self.assert_valid([n, n], basis, rows)

    def test_rejects_small_inputs(self):
        with pytest.raises(ValueError):
            factor_refine([12, 1])
        with pytest.raises(ValueError):
            factor_refine([0])

    def test_against_prime_factorization_oracle(self):
        rng = random.Random(99)
        for _ in range(80):
            inputs = [rng.randint(2, 5000) for _ in range(rng.randint(1, 8))]
            basis, rows = factor_refine(inputs)
            self.assert_valid(inputs, basis, rows)
            # every basis element's prime support must be disjoint
            seen = set()
            for b in basis:
                support = set(trial_division(b))
                assert not support & seen
                seen |= support

    @given(st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_reconstruction_property(self, inputs):
        basis, rows = factor_refine(inputs)
        self.assert_valid(inputs, basis, rows)
        assert basis == sorted(basis)

    @pytest.mark.parametrize(
        "forged",
        [
            pytest.param([2, 5], id="prime-3-missing"),
            pytest.param([4, 3, 5], id="2-not-split"),
        ],
    )
    def test_a_basis_that_does_not_generate_the_inputs_raises(self, monkeypatch, forged):
        # 12 = 2^2 * 3 and 10 = 2 * 5: each forgery is pairwise coprime, but
        # dividing its elements out of 12 or 10 leaves a cofactor
        monkeypatch.setattr(exactnum, "_coprime_basis", lambda work: list(forged))
        with pytest.raises(InvariantViolation, match="not a product of its coprime basis"):
            factor_refine([12, 10])


class TestSerialization:
    def test_round_trip(self):
        for text in ("5/4", "-11/16", "7", "-3", "0"):
            x = parse_rational(text)
            assert format_reduced(x.numerator, x.denominator) == text

    def test_denominator_omitted_when_one(self):
        x = Fraction(8, 4)
        assert format_reduced(x.numerator, x.denominator) == "2"

    def test_rejects_malformed(self):
        for bad in ("1.5", "3/0", "a/b", "1/-2", "", "1 / 2x"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(
        x=st.fractions(max_denominator=10**6),
        y=st.fractions(max_denominator=10**6),
    )
    def test_field_identities_stay_reduced(self, x, y):
        # the ambient rational type must stay exactly reduced through arithmetic
        assert (x + y) - y == x
        if y != 0:
            assert (x / y) * y == x
        z = (x + y) * (x - y)
        assert math.gcd(z.numerator, z.denominator) == 1
        assert z.denominator >= 1
