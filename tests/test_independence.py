import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arborist.independence as independence
from arborist.critorbit import d_sequence
from arborist.dynamics import family1, family2
from arborist.errors import InvariantViolation
from arborist.exactnum import factor_refine, is_perfect_square, proven_prime, rational_is_square
from arborist.independence import (
    CoprimeBasis,
    brute_force_independent,
    factored_orbit_independent,
    square_classes,
    two_independent,
)
from arborist.verdict import VerdictStatus, certify
from conftest import cofactors_prime_to_2r, orbit_independent, primes_up_to

nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(
    lambda f: f != 0
)
value_lists = st.lists(nonzero, min_size=1, max_size=7)
# p / q^2 reduces to a square denominator whenever q shares no prime with p
over_squares = st.builds(
    lambda p, q: Fraction(p, q * q),
    st.integers(min_value=-50, max_value=50).filter(bool),
    st.integers(min_value=1, max_value=12),
)
mixed_lists = st.lists(nonzero | over_squares, min_size=1, max_size=7)


def product_of(values, indices):
    out = Fraction(1)
    for i in indices:
        out *= values[i]
    return out


def parities(mask, basis):
    return [mask >> (j + 1) & 1 for j in range(len(basis.elements))]


class TestSquareClasses:
    def test_square_denominators_drop_out(self):
        basis, masks = square_classes([Fraction(5, 4), Fraction(-11, 16)])
        assert basis.elements == (5, 11)
        assert masks[0] & 1 == 0 and parities(masks[0], basis) == [1, 0]
        assert masks[1] & 1 == 1 and parities(masks[1], basis) == [0, 1]

    def test_all_square_class(self):
        basis, masks = square_classes([Fraction(9, 4)])
        assert basis.elements == ()
        assert masks == [0]

    def test_minus_one(self):
        basis, masks = square_classes([Fraction(-1)])
        assert basis.elements == ()
        assert masks == [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            square_classes([Fraction(1), Fraction(0)])

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            CoprimeBasis((4, 3))  # perfect square element
        with pytest.raises(ValueError):
            CoprimeBasis((6, 10))  # not coprime

    @given(values=value_lists)
    @settings(max_examples=80)
    def test_vectors_represent_values(self, values):
        basis, masks = square_classes(values)
        assert len(masks) == len(values)
        for v, mask in zip(values, masks):
            assert mask >> (len(basis.elements) + 1) == 0
            rebuilt = Fraction(1)
            for b, bit in zip(basis.elements, parities(mask, basis)):
                if bit:
                    rebuilt *= b
            if mask & 1:
                rebuilt = -rebuilt
            # v and its rebuilt class must differ by a rational square
            assert rational_is_square(v / rebuilt)

    def test_rational_keyed_like_its_integer(self):
        values = [Fraction(2, 3), 6, Fraction(-7, 12), -84, Fraction(1, 5), 5]
        _, masks = square_classes(values)
        assert masks[0] == masks[1] and masks[2] == masks[3] and masks[4] == masks[5]
        assert len(set(masks)) == 3

    def test_one_refinement_with_one_input_per_value(self, monkeypatch):
        calls = []

        def recording(inputs):
            inputs = list(inputs)
            calls.append(inputs)
            return factor_refine(inputs)

        monkeypatch.setattr("arborist.independence.factor_refine", recording)
        square_classes([Fraction(2, 3), 5, -1, Fraction(9, 4), Fraction(-7, 12), 1])
        # keys 6, 5, -1, 9, -84, 1 (9/4 has a square denominator): one input
        # per key of magnitude >= 2
        assert calls == [[6, 5, 9, 84]]


class TestTwoIndependent:
    def test_d_sequence_example(self):
        values = [Fraction(5, 4), Fraction(-11, 16), Fraction(-311, 256)]
        assert two_independent(values).independent

    def test_simple_dependencies(self):
        result = two_independent([Fraction(2), Fraction(3), Fraction(6)])
        assert not result.independent
        assert result.witness == (0, 1, 2)
        assert two_independent([Fraction(9, 4)]).witness == (0,)

    def test_witness_product_is_square(self):
        values = [Fraction(2), Fraction(-3), Fraction(-6), Fraction(5)]
        result = two_independent(values)
        assert not result.independent
        assert rational_is_square(product_of(values, result.witness))

    @given(values=mixed_lists)
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, values):
        fast = two_independent(values)
        slow = brute_force_independent(values)
        assert fast.independent == slow.independent
        if not fast.independent:
            assert rational_is_square(product_of(values, fast.witness))
            assert rational_is_square(product_of(values, slow.witness))

    @given(values=value_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_square_scaling_invariance(self, values, data):
        multipliers = data.draw(
            st.lists(
                st.fractions(min_value=1, max_value=20, max_denominator=12).filter(
                    lambda f: f != 0
                ),
                min_size=len(values),
                max_size=len(values),
            )
        )
        scaled = [v * m * m for v, m in zip(values, multipliers)]
        assert two_independent(scaled).independent == two_independent(values).independent

    @given(values=value_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, values, data):
        perm = data.draw(st.permutations(range(len(values))))
        shuffled = [values[i] for i in perm]
        assert (
            two_independent(shuffled).independent
            == two_independent(values).independent
        )


class TestBruteForce:
    def test_examples(self):
        orbit = d_sequence(family1(Fraction(1, 2)), 3)
        assert brute_force_independent(orbit.d_values).independent
        result = brute_force_independent([Fraction(-1), Fraction(-4)])
        assert result.witness == (0, 1)
        assert brute_force_independent([Fraction(7)]).independent

    def test_lexicographic_first_witness(self):
        # both (0,1) and (2,) are dependent; (0, 1) comes first
        values = [Fraction(2), Fraction(2), Fraction(25)]
        assert brute_force_independent(values).witness == (0, 1)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_independent([Fraction(1)] * 21)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            brute_force_independent([Fraction(0)])


class TestDSequenceOracleAgreement:
    def test_both_families_small_sample(self):
        for s in range(1, 9):
            for r in range(-8, 9):
                if r == 0 or math.gcd(abs(r), s) != 1:
                    continue
                a = Fraction(r, s)
                for family in (1, 2):
                    if family == 1 and a in (0, -1):
                        continue
                    if family == 2 and a == Fraction(1, 2):
                        continue
                    qmap = family1(a) if family == 1 else family2(a)
                    orbit = d_sequence(qmap, 4)
                    values = [d for d in orbit.d_values if d != 0]
                    fast = two_independent(values)
                    slow = brute_force_independent(values)
                    assert fast.independent == slow.independent, (family, a)


class TestIntegerRepresentatives:
    def test_integer_path_matches_rational_path(self):
        depth = 8
        checked = dependent_at_level = 0
        for s in range(1, 13):
            for r in range(-12, 13):
                if r == 0 or math.gcd(abs(r), s) != 1:
                    continue
                a = Fraction(r, s)
                for family, ctor in ((1, family1), (2, family2)):
                    if (family == 1 and a == -1) or (
                        family == 2 and a == Fraction(1, 2)
                    ):
                        continue
                    orbit = d_sequence(ctor(a), depth)
                    if 0 in orbit.numerators:
                        continue
                    by_int = two_independent(orbit.square_class_reps)
                    by_frac = two_independent(orbit.d_values)
                    assert by_int == by_frac, (family, a)
                    checked += 1
                    verdict = certify(a, family, depth=depth)
                    if verdict.status is VerdictStatus.DEPENDENT_AT_LEVEL:
                        dependent_at_level += 1
                        assert verdict.witness == tuple(i + 1 for i in by_int.witness)
        assert checked > 300
        assert dependent_at_level >= 5

    def test_denominators_stay_out_of_factor_refine(self, monkeypatch):
        # certify decides on the integer orbit: no power of s = 29 may reach
        # any gcd of the independence module, factor_refine included
        refined, gcd_args = [], []
        honest = independence.factor_refine

        def recording(inputs):
            inputs = list(inputs)
            refined.extend(inputs)
            return honest(inputs)

        class RecordingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def gcd(self, *args):
                gcd_args.extend(args)
                return math.gcd(*args)

        monkeypatch.setattr(independence, "factor_refine", recording)
        monkeypatch.setattr(independence, "math", RecordingMath())
        verdict = certify(Fraction(13, 29), 1, depth=10)
        assert verdict.status is VerdictStatus.PROVEN_SURJECTIVE
        assert len(gcd_args) >= 2 * 10
        assert all(n % 29 for n in refined + gcd_args if n)


def orbits(height, depth):
    """Every admissible orbit of both families up to height, without zeros."""
    for s in range(1, height + 1):
        for r in range(-height, height + 1):
            if r == 0 or math.gcd(abs(r), s) != 1:
                continue
            a = Fraction(r, s)
            for ctor, excluded in ((family1, (-1,)), (family2, (Fraction(1, 2),))):
                if a in excluded:
                    continue
                orbit = d_sequence(ctor(a), depth)
                if 0 not in orbit.numerators:
                    yield orbit


class TestOrbitIndependent:
    def test_agrees_with_generic_decider_at_height_30(self):
        checked = dependent = 0
        for orbit in orbits(30, 10):
            reps = orbit.square_class_reps
            by_law = orbit_independent(reps, orbit.qmap.r)
            assert by_law == two_independent(reps), orbit.qmap.a
            # the certifier's path, which takes no gcd between levels
            assert factored_orbit_independent(reps, orbit.qmap.r) == by_law, orbit.qmap.a
            checked += 1
            dependent += not by_law.independent
        assert checked == 2217
        assert dependent == 48

    def test_shared_cofactor_prime_is_a_law_failure(self):
        reps = list(d_sequence(family1(Fraction(1, 5)), 6).square_class_reps)
        assert orbit_independent(reps, 1).independent
        reps[1] *= 1009
        reps[4] *= 1009
        with pytest.raises(InvariantViolation, match="repeated-prime law"):
            orbit_independent(reps, 1)
        # a prime of 2r may repeat: 3 divides r = 3
        assert orbit_independent([3, 3 * 5, 3 * 7], 3).independent
        with pytest.raises(InvariantViolation):
            orbit_independent([3, 3 * 5, 3 * 7], 1)

    def test_forged_square_classes_are_caught(self, monkeypatch):
        # every mask forged to 0 makes the first square level a square on
        # its own: level 0 of [2, 3, 5] at r = 3 (cofactors 1, 1, 5), and
        # level 1 of a = 1 in family 2, whose D_1 is 2
        genuine = independence.square_classes

        def forged(values):
            basis, masks = genuine(values)
            return basis, [0] * len(masks)

        monkeypatch.setattr(independence, "square_classes", forged)
        with pytest.raises(InvariantViolation, match="re-verification"):
            factored_orbit_independent([2, 3, 5], 3)
        with pytest.raises(InvariantViolation, match="re-verification"):
            certify(1, 2, depth=6)

    def test_witness_maps_back_to_original_levels(self):
        # levels 1 and 3 have non-square cofactors 7 and 11 and drop out
        reps = [2 * 9, 7, -3, 11, -6 * 25]
        result = orbit_independent(reps, 3)
        assert result == two_independent(reps)
        assert result.witness == (0, 2, 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            orbit_independent([3, 0], 1)

    @given(
        r=st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
        s=st.integers(min_value=1, max_value=10**6),
        family=st.sampled_from([family1, family2]),
        depth=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_generic_decider_for_large_s(self, r, s, family, depth):
        a = Fraction(r, s)
        assume(math.gcd(r, s) == 1 and a not in (-1, Fraction(1, 2)))
        orbit = d_sequence(family(a), depth)
        assume(0 not in orbit.numerators)
        reps = orbit.square_class_reps
        by_law = orbit_independent(reps, r)
        assert by_law == two_independent(reps)
        assert factored_orbit_independent(reps, r) == by_law

    def test_square_classes_against_factorint(self):
        # an independent oracle: square-free kernels from sympy's factorint
        sympy = pytest.importorskip("sympy")

        def kernel(v):
            odd = frozenset(p for p, e in sympy.factorint(abs(v)).items() if e % 2)
            return (v < 0, odd)

        def square(subset, kernels):
            sign, primes = False, frozenset()
            for i in subset:
                sign ^= kernels[i][0]
                primes ^= kernels[i][1]
            return not sign and not primes

        checked = 0
        for orbit in orbits(7, 4):
            reps = orbit.square_class_reps
            kernels = [kernel(v) for v in reps]
            result = orbit_independent(reps, orbit.qmap.r)
            subsets = [
                [i for i in range(len(reps)) if mask >> i & 1]
                for mask in range(1, 1 << len(reps))
            ]
            assert result.independent == (not any(square(x, kernels) for x in subsets))
            if not result.independent:
                assert square(result.witness, kernels)
            checked += 1
        assert checked > 100


# r and the primes of 2r: r = 1, 2, 3, 6, 12 and 30 keep G * Q within one
# digit, 97 and up make it a multi-digit modulus
PRIMES_OF_2R = {
    1: (2,),
    2: (2,),
    3: (2, 3),
    6: (2, 3),
    12: (2, 3),
    30: (2, 3, 5),
    97: (2, 97),
    1000: (2, 5),
    4096: (2,),
    10**7 + 19: (2, 10**7 + 19),
}


def prime_to(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


@st.composite
def split_cases(draw):
    """(reps, r): each value a random sign times primes of 2r to exponents up
    to 40 times a cofactor prime to 2r, a square half the time."""
    r = draw(st.sampled_from(sorted(PRIMES_OF_2R)))
    primes = PRIMES_OF_2R[r]
    cofactor = st.one_of(
        st.integers(1, 1 << 3000).map(lambda root: prime_to(root, primes) ** 2),
        st.integers(1, 1 << 6000).map(lambda n: prime_to(n, primes)),
    )
    level = st.tuples(
        st.sampled_from([1, -1]), st.tuples(*[st.integers(0, 40) for _ in primes]), cofactor
    )
    reps = [
        sign * math.prod(p**e for p, e in zip(primes, exponents)) * t
        for sign, exponents, t in draw(st.lists(level, min_size=1, max_size=6))
    ]
    return reps, r * draw(st.sampled_from([1, -1]))


@st.composite
def law_cases(draw):
    """(reps, r) obeying the repeated-prime law: each value a random sign
    times primes of 2r to exponents up to 40 times a cofactor of its own
    primes, prime to 2r, squared half the time."""
    r = draw(st.sampled_from(sorted(PRIMES_OF_2R)))
    primes = PRIMES_OF_2R[r]
    pool = list(draw(st.permutations([p for p in primes_up_to(200) if p not in primes])))
    reps = []
    for _ in range(draw(st.integers(1, 8))):
        own = [pool.pop() for _ in range(draw(st.integers(0, 2)))]
        t = math.prod(p ** draw(st.integers(1, 3)) for p in own)
        if draw(st.booleans()):
            t *= t
        u = math.prod(p ** draw(st.integers(0, 40)) for p in primes)
        reps.append(draw(st.sampled_from([1, -1])) * u * t)
    return reps, r * draw(st.sampled_from([1, -1]))


class TestSplit2r:
    def test_primes_of_2r(self):
        for r, primes in PRIMES_OF_2R.items():
            assert all(proven_prime(p) for p in primes)
            assert prime_to(2 * r, primes) == 1

    @given(case=split_cases())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_gcd_loop(self, case):
        reps, r = case
        cofactors = cofactors_prime_to_2r(reps, r)
        squares = [n for n, t in enumerate(cofactors) if is_perfect_square(t)]
        assert independence._square_levels(reps, r) == squares

    def test_a_power_of_2r_past_one_digit_widens_the_modulus(self):
        # G = 6^J (J = 5 with 30-bit digits) stays below one digit, so a
        # 2r-part of 6^30 fills it at 2 and at 3 and G widens to 6^31
        assert 6**30 >= independence._DIGIT
        reps = [6**30 * 7, -(6**30) * 49, 2**3 * 3**40 * 5**2]
        assert independence._square_levels(reps, 3) == [1, 2]

    @pytest.mark.parametrize("r", sorted(PRIMES_OF_2R))
    def test_powers_of_2r_past_J_leave_the_cofactor_alone(self, r):
        # b^e * 49 has a square cofactor and b^e * 7 has not, for each prime
        # b of 2r and b = 2r, at every e up to 60: past (2r)^J, and past each
        # widening, some e leaves an odd exponent of b to a split that
        # stops short, and a residue read off the wrong quotient fails the
        # screen for some e
        bases = [*PRIMES_OF_2R[r], 2 * r]
        reps = [(-b) ** e * t for b in bases for e in range(1, 61) for t in (49, 7)]
        assert independence._square_levels(reps, r) == list(range(0, len(reps), 2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            independence._square_levels([3, 0], 1)
        with pytest.raises(ValueError):
            independence._square_levels([3], 0)


class TestFactoredOrbitIndependent:
    @given(case=law_cases())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_generic_decider(self, case):
        reps, r = case
        assert factored_orbit_independent(reps, r) == two_independent(reps)
