import hashlib
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from conftest import (
    current_int_str_limit,
    decompose1,
    force_python_products,
    fresh_cache,
    int_str_limit,
    primes_up_to,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arborist.critorbit as critorbit
from arborist.critorbit import (
    MAX_DEPTH,
    AdjustedOrbit,
    MAX_NUMERATOR_BITS,
    check_depth,
    check_valuations,
    congruence_check,
    d_sequence,
    numerator_recursion,
    orbit_report,
    sign_predict,
)
from arborist.dynamics import DEGENERATE, QuadMap, family1, family2
from arborist.errors import DegenerateBasePoint, InvariantViolation, UsageError
from arborist.exactnum import v_int


def oracle_offsets(c, a, depth):
    """f^n(0) - a for n = 1..depth by plain iteration, nothing shared."""
    out = []
    x = Fraction(0)
    for _ in range(depth):
        x = x * x + c
        out.append(x - a)
    return out


def sample_points(bound):
    """All admissible reduced base points with |r|, s <= bound, both families."""
    for s in range(1, bound + 1):
        for r in range(-bound, bound + 1):
            if r == 0 or math.gcd(abs(r), s) != 1:
                continue
            a = Fraction(r, s)
            if a not in (0, -1):
                yield 1, a
            if a != Fraction(1, 2):
                yield 2, a


def shift_level(level):
    """A forgery of the recursion: r_level off by one."""

    def perturb(nums):
        nums[level - 1] += 1

    return perturb


def share_prime_1009(nums):
    """A forgery of the recursion: r_2 and r_5 share the prime 1009."""
    nums[1] *= 1009
    nums[4] *= 1009


def corrupted_chain(r, s, depth, level, corrupt):
    """E_n = s**(2**n - 2) for n = 1..depth, E_level corrupted, later levels rebuilt from it."""
    chain = []
    for n in range(1, depth + 1):
        e = (s * chain[-1]) ** 2 if chain else 1
        chain.append(corrupt(r, s, e) if n == level else e)
    return tuple(chain)


POWER_CORRUPTIONS = {
    "plus-s-plus-r": lambda r, s, e: e + s + r,
    "plus-one": lambda r, s, e: e + 1,
    "minus-one": lambda r, s, e: e - 1,
    "plus-s": lambda r, s, e: e + s,
    "doubled": lambda r, s, e: 2 * e,
}


@contextmanager
def fresh_chains():
    """An empty s-power cache for the block; the previous one is restored after."""
    with pytest.MonkeyPatch.context() as mp:
        fresh_cache(mp, critorbit, "_even_powers")
        yield critorbit._even_powers


@pytest.fixture
def chains():
    """An empty s-power cache for the test: the cached function itself."""
    with fresh_chains() as cached:
        yield cached


def forge_chain(monkeypatch, s, chain):
    """d_sequence reads ``chain``, cut to its depth, as the s-power chain of s."""
    real = critorbit._even_powers
    monkeypatch.setattr(
        critorbit, "_even_powers", lambda t, depth: chain[:depth] if t == s else real(t, depth)
    )


def build(family, a, depth):
    qmap = family1(a) if family == 1 else family2(a)
    return d_sequence(qmap, depth)


class TestDSequence:
    def test_family1_half(self):
        orbit = build(1, Fraction(1, 2), 3)
        assert orbit.d_values == (
            Fraction(5, 4),
            Fraction(-11, 16),
            Fraction(-311, 256),
        )
        assert orbit.numerators == (-5, -11, -311)
        assert orbit.square_class_reps == (5, -11, -311)

    def test_family1_fifth(self):
        orbit = build(1, Fraction(1, 5), 2)
        assert orbit.d_values == (Fraction(11, 25), Fraction(-239, 625))

    def test_family2_quarter(self):
        orbit = build(2, Fraction(1, 4), 2)
        assert orbit.d_values == (Fraction(17, 16), Fraction(-103, 256))

    def test_first_term_is_negated_first_offset(self):
        for family, a in sample_points(5):
            orbit = build(family, a, 2)
            offsets = oracle_offsets(orbit.qmap.c, a, 2)
            assert orbit.d_values[0] == a - orbit.qmap.c == -offsets[0]
            assert orbit.d_values[1] == offsets[1]

    def test_rejects_custom_maps_and_bad_depth(self):
        from arborist.dynamics import QuadMap

        # A map outside the two families cannot be built, so it never
        # reaches d_sequence.
        with pytest.raises(TypeError):
            QuadMap(c=Fraction(-3, 4), a=Fraction(1, 2))
        with pytest.raises(ValueError):
            d_sequence(family1(Fraction(1, 2)), 0)

    @pytest.mark.parametrize(
        "perturb",
        [
            *(pytest.param(shift_level(level), id=str(level)) for level in (1, 2, 5)),
            pytest.param(share_prime_1009, id="shared-prime-1009"),
        ],
    )
    def test_perturbed_recursion_is_caught(self, monkeypatch, perturb):
        import arborist.critorbit as critorbit
        from arborist.verdict import certify

        # d_sequence runs the recursion's loop on the chain it fetched once
        honest = critorbit._numerators

        def perturbed(*args):
            nums = honest(*args)
            perturb(nums)
            return nums

        monkeypatch.setattr(critorbit, "_numerators", perturbed)
        for family, a in [(1, Fraction(13, 29)), (2, Fraction(2, 3))]:
            with pytest.raises(InvariantViolation):
                build(family, a, 5)
        # certify takes no gcd between levels, so the cross-check must stop a
        # forgery on its audit path (13/29 in family 1, 2/3 in family 2) and
        # on its fallback path (13/29 in family 2)
        for a, family in [(Fraction(13, 29), 1), (Fraction(2, 3), 2), (Fraction(13, 29), 2)]:
            with pytest.raises(InvariantViolation):
                certify(a, family, depth=5)


    def test_invariant_messages_write_a_long_base_point_short(self, monkeypatch):
        # s has 5001 digits, past the interpreter's int/str digit limit, and
        # each message still names a = r/s, cut in the middle
        s = 10**5000 + 1
        short = r"a = '1/10{17}\.\.\.0{9}1'$"
        with pytest.raises(InvariantViolation, match=short) as exc:
            critorbit._numerators(2, 1, s, (2,))  # a wrong E_1
        messages = [str(exc.value)]
        honest = critorbit._numerators
        monkeypatch.setattr(critorbit, "_numerators", lambda *args: [x + 1 for x in honest(*args)])
        with pytest.raises(InvariantViolation, match="mismatch at n = 1, " + short) as exc:
            d_sequence(family1(Fraction(1, s)), 2)
        messages.append(str(exc.value))
        assert all(len(message) < 200 for message in messages)


class TestNumeratorRecursion:
    def test_family1_half(self):
        assert numerator_recursion(1, 1, 2, 3) == [-5, -11, -311]

    def test_family2_examples(self):
        assert numerator_recursion(2, 2, 3, 2) == [-13, -68]
        assert numerator_recursion(2, 1, 4, 1) == [-17]

    def test_rejects_unreduced_input(self):
        with pytest.raises(ValueError):
            numerator_recursion(1, 2, 4, 3)

    def test_rejects_degenerate_base_points(self):
        # a = 1/2 in the second family and a = -1 in the first pass the T_1
        # check, but QuadMap, which checks every entry, refuses them
        for family, r, s in ((2, 1, 2), (1, -1, 1)):
            with pytest.raises(DegenerateBasePoint):
                numerator_recursion(family, r, s, 3)

    def test_agrees_with_iteration_oracle(self):
        depth = 6
        for family, a in sample_points(12):
            r, s = a.numerator, a.denominator
            nums = numerator_recursion(family, r, s, depth)
            qmap = family1(a) if family == 1 else family2(a)
            for n, offset in enumerate(oracle_offsets(qmap.c, a, depth), start=1):
                assert offset == Fraction(nums[n - 1], s ** (2**n)), (family, a, n)
                if nums[n - 1] != 0:
                    assert offset.denominator == s ** (2**n)


class TestSharedPowerChain:
    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("corrupt", POWER_CORRUPTIONS.values(), ids=list(POWER_CORRUPTIONS))
    def test_corrupted_power_is_caught(self, monkeypatch, level, corrupt):
        from arborist.verdict import VerdictStatus, certify

        proven, fallback = VerdictStatus.PROVEN_SURJECTIVE, VerdictStatus.INDEPENDENT_TO_DEPTH
        # certify reaches d_sequence through its audit (ProvenSurjective) or
        # its fallback (IndependentToDepth); both read the shared chain
        for a, family, path in [
            (Fraction(13, 29), 1, proven),
            (Fraction(3, 19), 1, fallback),
            (Fraction(2, 27), 2, proven),
            (Fraction(13, 29), 2, fallback),
        ]:
            assert certify(a, family, depth=5).status is path
            r, s = a.numerator, a.denominator
            with monkeypatch.context() as forged:
                forge_chain(forged, s, corrupted_chain(r, s, 5, level, corrupt))
                for run in (lambda: build(family, a, 5), lambda: certify(a, family, depth=5)):
                    with pytest.raises(InvariantViolation):
                        run()

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(-40, 40),
        s=st.integers(1, 40),
        family=st.sampled_from([1, 2]),
        depth=st.integers(1, 9),
        others=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 9)), max_size=40),
    )
    def test_warm_chains_give_the_cold_orbit(self, r, s, family, depth, others):
        assume(math.gcd(r, s) == 1 and (r, s) not in DEGENERATE[family])
        a = Fraction(r, s)
        qmap = family1(a) if family == 1 else family2(a)
        with fresh_chains():
            cold = d_sequence(qmap, depth).numerators
        # warm the cache with a shorter chain for s, then with other
        # denominators at other depths, up to 360 entries against its 128
        with fresh_chains() as cached:
            d_sequence(qmap, min(depth, 3))
            bound = cached.cache_parameters()["maxsize"]
            for other_s, other_depth in others:
                d_sequence(family1(Fraction(1, other_s)), other_depth)
                assert cached.cache_info().currsize <= bound
            assert d_sequence(qmap, depth).numerators == cold
        for n, offset in enumerate(oracle_offsets(qmap.c, a, depth), start=1):
            assert offset == Fraction(cold[n - 1], s ** (2**n)), n

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 10**6), depth=st.integers(1, 10))
    def test_chain_holds_the_even_powers(self, s, depth):
        with fresh_chains() as cached:
            chain = cached(s, depth)
        assert chain == tuple(s ** (2**n - 2) for n in range(1, depth + 1))

    def test_memo_holds_at_most_its_bound(self, chains):
        bound = chains.cache_parameters()["maxsize"]
        # a depth-4 chain takes 4 entries: three times what the cache holds
        newest = 3 * bound // 4
        for s in range(1, newest + 1):
            build(1, Fraction(1, s), 4)
            assert chains.cache_info().currsize <= bound
        before = chains.cache_info()
        assert before.currsize == bound
        # the most recent chain is a hit, the oldest one a miss
        assert chains(newest, 4) == tuple(newest ** (2**n - 2) for n in range(1, 5))
        after = chains.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert chains(1, 4) == (1, 1, 1, 1)
        assert chains.cache_info().misses > after.misses
        assert chains.cache_info().currsize == bound

    def test_threads_keep_the_memo_bounded_and_right(self, chains):
        import random
        import threading

        bound = chains.cache_parameters()["maxsize"]
        expected = {s: tuple(s ** (2**n - 2) for n in range(1, 7)) for s in range(1, bound)}
        errors, sizes = [], []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(4000):
                    s, depth = rng.randrange(1, bound), rng.randrange(1, 7)
                    if critorbit._even_powers(s, depth) != expected[s][:depth]:
                        errors.append((s, depth))
                    sizes.append(chains.cache_info().currsize)
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, repr(exc)))

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert max(sizes) <= bound and chains.cache_info().currsize <= bound

    def test_deeper_request_extends_the_chain(self, chains):
        build(1, Fraction(2, 7), 3)
        short = chains(7, 3)
        misses = chains.cache_info().misses
        build(2, Fraction(3, 7), 9)
        assert chains.cache_info().misses == misses + 6
        deep = chains(7, 9)
        assert all(old is new for old, new in zip(short, deep))
        assert deep == tuple(7 ** (2**n - 2) for n in range(1, 10))
        build(1, Fraction(2, 7), 5)
        assert chains.cache_info().misses == misses + 6


def divides(d, x):
    return x == 0 if d == 0 else x % d == 0


def numerators_digest(nums):
    """SHA-256 of the numerators in hex, which no int/str digit limit touches."""
    return hashlib.sha256(",".join(format(n, "x") for n in nums).encode()).hexdigest()


# SHA-256 of d_sequence(...).numerators at depth 16, recorded when family 2
# still built V_n as a second product U_{n-1} W_{n-1} at every level
DEPTH16_NUMERATORS = {
    ("13/29", 1): "d2a359ed902bfaf9e34494d8a4125c619e23cbc033439b0e2ca5f32e533a29de",
    ("13/29", 2): "2128f14e5724c804d4409f9a9a556c7fcac3d6fb04f05a2d651c8e9dde1927ce",
    ("-5/17", 1): "69e4177d1ec555bedb922b294ff1b8dd4d9c8e55749838fdbd9d259d35bfe803",
    ("-5/17", 2): "48f73b6bb3c7790487d3754ab185c8c19a8e89192d73bd23a84607f0918bb5e4",
    ("7/23", 1): "b99e7d927a0b12d8e375f77f4c5d8dee94de7a1ed9107e51a029fac04896d43e",
    ("2/27", 2): "9b6fc5b2d988e96851b4413a56b9fa2a8835e8fe726b85bf36d5f26f2c61bc15",
    ("3/19", 1): "5ea3922156ba677488a33dc10d240cf34d266223a6304aac4a1c8aac0a469ff0",
    ("11/27", 2): "a609f223e1c43cf3ab082a659c4152d03918843c69e9b8cb974f85b329cd4da2",
    ("1", 2): "61d7a2f0e3700d2dea2ef712a6c9531b3b88833788a6292986cea16a5e842667",
}

# certify(..., depth=16) as JSON, recorded with DEPTH16_NUMERATORS
UNDECIDED = {
    "note": "finite-depth evidence only, not a proof",
    "reason": "no certificate condition fires",
}
DEPTH16_VERDICTS = {
    ("13/29", 1): ("ProvenSurjective", "T1.1-1", 1, {"fired": ["T1.1-1", "T1.1-2"], "m": "-13"}),
    ("13/29", 2): ("IndependentToDepth", None, None, UNDECIDED),
    ("-5/17", 1): (
        "ProvenSurjective", "T1.1-1", 0, {"fired": ["T1.1-1", "T1.1-3"], "m": "5", "q": "17"}
    ),
    ("-5/17", 2): ("IndependentToDepth", None, None, UNDECIDED),
    ("7/23", 1): ("ProvenSurjective", "T1.1-1", 1, {"fired": ["T1.1-1"], "m": "-7"}),
    ("2/27", 2): ("ProvenSurjective", "T1.2-3", None, {"fired": ["T1.2-3"], "q": "3"}),
    ("3/19", 1): ("IndependentToDepth", None, 1, {"m": "-3", **UNDECIDED}),
    ("11/27", 2): ("IndependentToDepth", None, None, UNDECIDED),
}


class TestOneProductRecursion:
    @pytest.mark.parametrize("e1", [2, 5, -3, -1])
    def test_corrupted_first_power_at_one_is_caught(self, monkeypatch, e1):
        from arborist.verdict import certify

        # at a = 1 (r = s = 1) recursion and iteration both give
        # r_1 = -1 - E_1 for any E_1, and they agree at every later level on
        # a chain rebuilt from it; only the recursion's T_1 check ties E_1 to 1
        forge_chain(monkeypatch, 1, corrupted_chain(1, 1, 6, 1, lambda r, s, e: e1))
        for run in (lambda: d_sequence(family2(1), 6), lambda: certify(1, 2, depth=6)):
            with pytest.raises(InvariantViolation):
                run()

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(-(10**6), 10**6),
        s=st.integers(1, 10**6),
        family=st.sampled_from([1, 2]),
        depth=st.integers(2, 9),
    )
    def test_both_divisibility_routes(self, r, s, family, depth):
        assume(math.gcd(r, s) == 1 and (r, s) not in DEGENERATE[family])
        a = Fraction(r, s)
        qmap = family1(a) if family == 1 else family2(a)
        nums = d_sequence(qmap, depth).numerators
        q = [None, *(s ** (2**n - 1) for n in range(1, depth + 1))]
        k = 2 * r if family == 1 else s
        for n in range(2, depth + 1):
            # r_{n-1} divides P_n
            assert divides(nums[n - 2], nums[n - 1] + k * q[n]), n
            if family == 2:
                # P_{n-1} divides T_n, so r_{n-2} does too
                p_prev, t_n = nums[n - 2] + s * q[n - 1], nums[n - 1] + 2 * r * q[n]
                assert divides(p_prev, t_n), n

    @pytest.mark.parametrize("key", list(DEPTH16_NUMERATORS), ids="{0[1]}:{0[0]}".format)
    def test_depth16_numerators_are_pinned(self, key):
        a, family = key
        qmap = (family1 if family == 1 else family2)(Fraction(a))
        assert numerators_digest(d_sequence(qmap, 16).numerators) == DEPTH16_NUMERATORS[key]

    def test_depth16_pins_hold_without_gmp(self, chains, monkeypatch):
        force_python_products(monkeypatch)
        for (a, family), digest in DEPTH16_NUMERATORS.items():
            qmap = (family1 if family == 1 else family2)(Fraction(a))
            assert numerators_digest(d_sequence(qmap, 16).numerators) == digest, (a, family)

    def test_depth16_verdicts_are_pinned(self):
        from arborist.verdict import certify

        for (a, family), (status, condition, delta, detail) in DEPTH16_VERDICTS.items():
            verdict = certify(Fraction(a), family, depth=16).to_json_dict()
            assert verdict == {
                "a": a,
                "family": family,
                "status": status,
                "condition": condition,
                "depth": 16,
                "witness": None,
                "delta": delta,
                "e": None if family == 2 else 0,
                "detail": detail,
            }, (a, family)


class TestDepthLimit:
    def test_bound_covers_every_numerator(self):
        bounded = 0
        for family, a in sample_points(12):
            r, s = a.numerator, a.denominator
            nums = d_sequence(QuadMap(family, r, s), 8).numerators
            for n, rn in enumerate(nums, start=1):
                assert rn.bit_length() <= check_depth(r, s, n), (family, a, n)
                # the bound of a map with -2 <= c <= 1/4, where it has one
                orbit_bits = critorbit._bounded_orbit_bits(family, r, s, n)
                if orbit_bits is not None:
                    bounded += 1
                    assert rn.bit_length() <= orbit_bits <= check_depth(r, s, n), (family, a, n)
        assert bounded > 1000

    def test_bounded_orbit_is_accepted_at_any_depth_up_to_the_cap(self):
        # a = 1 in the second family: c = -1, period 2, |r_n| <= 2
        qmap = family2(1)
        assert check_depth(1, 1, 30, 2) == 2
        assert d_sequence(qmap, 30).numerators == (-2, -1) * 15
        assert d_sequence(qmap, MAX_DEPTH).depth == MAX_DEPTH
        # without the family (search's bound for every base point) it is refused
        with pytest.raises(UsageError, match="depth 30 is too deep"):
            check_depth(1, 1, 30)
        for depth in (MAX_DEPTH + 1, 10**9):
            with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
                check_depth(1, 1, depth, 2)
            with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
                check_depth(1, 1, depth)

    @pytest.mark.parametrize("depth", [23, 25, 40, 10**9])
    def test_refused_before_any_arithmetic(self, monkeypatch, depth):
        from arborist import verdict

        def computed(*args):
            raise AssertionError("a refused depth reached the orbit arithmetic")

        for name in ("_even_powers", "_numerators"):
            monkeypatch.setattr(critorbit, name, computed)
        monkeypatch.setattr(verdict, "_nonresidue_prime_in", computed)
        with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
            d_sequence(family2(Fraction(13, 29)), depth)
        with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
            verdict.certify(Fraction(13, 29), 1, depth=depth)
        with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
            numerator_recursion(1, 13, 29, depth)
        # NotSurjective points need no orbit, and their depth is refused all
        # the same (both bounds accept them at depth 23)
        if depth > 23:
            for a, family in ((Fraction(1, 4), 1), (Fraction(3, 4), 2)):
                with pytest.raises(UsageError, match=f"depth {depth} is too deep"):
                    verdict.certify(a, family, depth=depth)

    def test_refusal_writes_a_long_base_point_short(self):
        # a denominator past the interpreter's int/str digit limit is refused
        # as too deep, with r and s quoted and cut in the middle
        from arborist.verdict import certify

        a = Fraction(1, 10**5000 + 1)
        refusals = [
            lambda: certify(a, 1, depth=20),
            lambda: numerator_recursion(2, a.numerator, a.denominator, 20),
            lambda: check_depth(a.numerator, a.denominator, 20),
        ]
        for refuse in refusals:
            with pytest.raises(UsageError, match="depth 20 is too deep") as exc:
                refuse()
            message = str(exc.value)
            assert len(message) < 200
            assert "|r| <= '1' and s <= '10000000000000000000...0000000001'" in message

    def test_limit_keeps_the_benchmark_and_pinned_depths(self):
        # r_22 of 13/29 has about 20.4M bits; depth 23 would double it
        assert check_depth(13, 29, 22) <= MAX_NUMERATOR_BITS
        with pytest.raises(UsageError):
            check_depth(13, 29, 23)
        for a, _ in DEPTH16_NUMERATORS:
            check_depth(Fraction(a).numerator, Fraction(a).denominator, 16)
        check_depth(30, 30, 14)


class TestDecompose1:
    def test_half(self):
        orbit = build(1, Fraction(1, 2), 3)
        dec = decompose1(orbit, 2)
        assert (dec.sign, dec.e, dec.t) == (-1, 0, 11)
        assert decompose1(orbit, 3).t == 311

    def test_minus_six_sevenths(self):
        orbit = build(1, Fraction(-6, 7), 2)
        dec = decompose1(orbit, 2)
        assert orbit.numerators[1] == 2388
        assert (dec.sign, dec.e, dec.t) == (1, 1, 199)

    def test_fifth(self):
        orbit = build(1, Fraction(1, 5), 2)
        assert decompose1(orbit, 2).t == 239

    def test_reconstruction_over_sample(self):
        for family, a in sample_points(10):
            if family != 1:
                continue
            orbit = build(family, a, 5)
            for n in range(2, 6):
                dec = decompose1(orbit, n)
                assert dec.sign * 2**dec.e * abs(a.numerator) * dec.t == orbit.numerators[n - 1]
                assert dec.t % 2 == 1 and dec.t > 0
                assert math.gcd(dec.t, a.numerator) == 1

    def test_rejects_wrong_family_and_index(self):
        orbit = build(2, Fraction(1, 4), 3)
        with pytest.raises(ValueError):
            decompose1(orbit, 2)
        orbit1 = build(1, Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            decompose1(orbit1, 1)
        with pytest.raises(ValueError):
            decompose1(orbit1, 4)


class TestCheckValuations:
    def passed(self, checks, name):
        match = [c for c in checks if c.name == name]
        assert len(match) == 1
        return match[0]

    def test_family1_even_shift(self):
        orbit = build(1, Fraction(-6, 7), 6)
        check = self.passed(check_valuations(orbit, 2), "even_2adic_shift")
        assert check.applicable and check.passed

    def test_family2_alternation(self):
        orbit = build(2, Fraction(2, 3), 6)
        check = self.passed(check_valuations(orbit, 2), "exact_two_adic_jump")
        assert check.applicable and check.passed

    def test_denominator_support(self):
        orbit = build(1, Fraction(1, 5), 4)
        check = self.passed(check_valuations(orbit, 5), "denominator_support")
        assert check.applicable and check.passed
        # and explicitly: v_5(f^n(0) - a) = -2^n
        for n in range(1, 5):
            assert orbit.numerators[n - 1] % 5 != 0

    def test_all_laws_over_sample(self):
        for family, a in sample_points(8):
            orbit = build(family, a, 6)
            primes = {2} | {
                p
                for p in primes_up_to(50)
                if a.numerator % p == 0 or a.denominator % p == 0
            }
            for p in primes:
                for check in check_valuations(orbit, p):
                    assert check.passed is not False, (family, a, p, check)


    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_refuses_a_base_below_two(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            v_int(6, p)
        with pytest.raises(ValueError, match="p >= 2"):
            check_valuations(build(1, Fraction(1, 3), 3), p)


def times(*factors):
    """A corruption of the orbit: r_n times factors[n - 1], the rest kept."""
    return lambda nums: tuple(rn * f for rn, f in zip(nums, (*factors, *[1] * len(nums))))


#: A law's name -> (a, the prime for the valuation laws, a corruption of the
#: numerators under which the law fails first at n = 2).
LAW_FAILURES = {
    "denominator_support": (Fraction(1, 5), 5, times(1, 5**4)),
    "unit_2adic_flat": (Fraction(1, 3), 2, times(1, 2)),
    "even_2adic_shift": (Fraction(2, 3), 2, times(1, 2)),
    "odd_prime_locked": (Fraction(3, 5), 3, times(1, 3)),
    "even_2adic_alternation": (Fraction(2, 3), 2, lambda nums: (nums[0], nums[1] | 1, *nums[2:])),
    "exact_two_adic_jump": (Fraction(2, 3), 2, times(1, 2)),
    "unit_2adic_alternation": (Fraction(1, 3), 2, times(1, 2)),
    "repeated_prime_divides_numerator": (Fraction(1, 4), 7, times(7, 7)),
    "repeated_prime_divides_2a": (Fraction(1, 4), 7, times(7, 7)),
    "congruence_mod_3": (Fraction(1, 2), 2, lambda nums: (nums[0], nums[1] + 1, *nums[2:])),
    "congruence_mod_4": (Fraction(1, 2), 2, lambda nums: (nums[0], nums[1] + 1, *nums[2:])),
}


def every_law():
    """(family, name) for every row of the valuation table and every other law."""
    for family, rows in critorbit._VALUATION_LAWS.items():
        yield from ((family, name) for name, _, _ in rows)
    yield 1, "repeated_prime_divides_numerator"
    yield 2, "repeated_prime_divides_2a"
    yield 1, "congruence_mod_3"
    yield 1, "congruence_mod_4"


@pytest.mark.parametrize("family, name", list(every_law()))
def test_every_law_can_fail(family, name):
    a, p, corrupt = LAW_FAILURES[name]

    def law(orbit):
        checks = check_valuations(orbit, p)
        if family == 1:
            checks += [congruence_check(orbit, 3), congruence_check(orbit, 4)]
        (check,) = [c for c in checks if c.name == name]
        return check

    orbit = build(family, a, 4)
    # no prime outside 2a divides two numerators of a true orbit, so the
    # repeated-prime laws do not apply to it at p = 7
    held = None if name.startswith("repeated_prime") else True
    assert law(orbit).passed is held
    check = law(AdjustedOrbit(orbit.qmap, corrupt(orbit.numerators)))
    assert check.applicable and check.passed is False and check.first_failure == 2


class TestSignPredict:
    @pytest.mark.parametrize(
        "a, kind, start",
        [
            (Fraction(1, 2), "all_negative", 1),
            (Fraction(-6, 7), "all_positive", 1),
            (Fraction(9, 10), "mixed", None),
            (Fraction(-5, 2), "all_positive", 2),
            (Fraction(3, 1), "all_positive", 2),
            (Fraction(-2), "boundary", None),
            (Fraction(1), "boundary", None),
        ],
    )
    def test_family1_classes(self, a, kind, start):
        pred = sign_predict(family1(a))
        assert (pred.kind, pred.start) == (kind, start)

    @pytest.mark.parametrize(
        "a, kind, start",
        [
            (Fraction(1, 4), "all_negative", 1),
            (Fraction(2, 3), "all_negative", 1),
            (Fraction(3, 2), "all_negative", 1),
            (Fraction(2, 1), "all_positive", 2),
            (Fraction(-1, 1), "all_positive", 2),
            (Fraction(-1, 2), "mixed", None),
            (Fraction(8, 5), "mixed", None),
        ],
    )
    def test_family2_classes(self, a, kind, start):
        pred = sign_predict(family2(a))
        assert (pred.kind, pred.start) == (kind, start)

    def test_prediction_matches_actual_signs(self):
        for family, a in sample_points(8):
            orbit = build(family, a, 6)
            pred = sign_predict(orbit.qmap)
            if pred.kind == "all_positive":
                assert all(orbit.numerators[n - 1] > 0 for n in range(pred.start, 7)), (family, a)
            elif pred.kind == "all_negative":
                assert all(orbit.numerators[n - 1] < 0 for n in range(1, 7)), (family, a)


class TestCongruenceCheck:
    def test_half_passes_both(self):
        orbit = build(1, Fraction(1, 2), 3)
        for modulus in (3, 4):
            report = congruence_check(orbit, modulus)
            assert report.applicable and report.passed

    def test_inapplicable_hypotheses(self):
        orbit = build(1, Fraction(3, 5), 3)
        assert congruence_check(orbit, 3).applicable is False
        orbit2 = build(1, Fraction(2, 5), 3)
        assert congruence_check(orbit2, 4).applicable is False

    def test_rejects_wrong_family_or_modulus(self):
        orbit = build(2, Fraction(1, 4), 2)
        with pytest.raises(ValueError):
            congruence_check(orbit, 3)
        orbit1 = build(1, Fraction(1, 2), 2)
        with pytest.raises(ValueError):
            congruence_check(orbit1, 5)

    def test_sample_wide_congruences(self):
        for family, a in sample_points(10):
            if family != 1:
                continue
            orbit = build(family, a, 6)
            for modulus in (3, 4):
                report = congruence_check(orbit, modulus)
                assert report.passed is not False, (a, modulus)


class TestRepeatedPrimeLaw:
    def test_over_sample(self):
        for family, a in sample_points(10):
            orbit = build(family, a, 6)
            for p in primes_up_to(50):
                hits = [n for n in range(1, 7) if orbit.numerators[n - 1] % p == 0]
                if len(hits) < 2 or orbit.qmap.s % p == 0:
                    continue
                if family == 1:
                    assert a.numerator % p == 0, (a, p)
                else:
                    assert (2 * a.numerator) % p == 0, (a, p)


class TestPairwiseCoprimality:
    def test_family1_odd_parts(self):
        for family, a in sample_points(8):
            if family != 1:
                continue
            orbit = build(family, a, 6)
            parts = [decompose1(orbit, n).t for n in range(2, 7)]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert math.gcd(parts[i], parts[j]) == 1, (a, i, j)

    def test_family2_odd_parts(self):
        # base points 1/s (s even) and 2/s (s odd): every r_n is negative and
        # its odd parts are pairwise coprime
        points = [Fraction(1, s) for s in (4, 6, 8, 10)]
        points += [Fraction(2, s) for s in (3, 5, 7, 9, 13)]
        for a in points:
            orbit = build(2, a, 6)
            assert all(rn < 0 for rn in orbit.numerators), a
            parts = [abs(rn) >> v_int(rn, 2) for rn in orbit.numerators]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert math.gcd(parts[i], parts[j]) == 1, (a, i, j)


class TestOrbitReport:
    def test_shape_and_serialization(self):
        import json

        orbit = build(1, Fraction(-6, 7), 4)
        report = orbit_report(orbit)
        assert report["a"] == "-6/7"
        assert report["family"] == 1
        assert report["N"] == 4
        assert report["D"][0] == "-48/49"
        assert "2" in report["valuation_checks"]
        assert "7" in report["valuation_checks"]
        assert report["congruence_checks"]["4"]["applicable"] is False
        json.dumps(report)  # must be JSON-clean

    def test_family2_has_no_congruence_laws(self):
        orbit = build(2, Fraction(2, 3), 3)
        assert orbit_report(orbit)["congruence_checks"] == {}

    def test_deep_report_ignores_int_str_limit(self):
        # r_12 for s = 29 has about 7000 digits, past the default limit of
        # 4300 that str() enforces since Python 3.11 (and 3.10.7)
        import json

        orbit = build(1, Fraction(13, 29), 12)
        with int_str_limit(4300):
            report = orbit_report(orbit)
            json.dumps(report)
            assert current_int_str_limit() in (4300, None)  # left as it was
        with int_str_limit(0):
            assert report["D"] == [str(d) for d in orbit.d_values]
