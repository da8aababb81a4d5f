import hashlib
import math
from fractions import Fraction

import pytest
from conftest import (
    cofactors_prime_to_2r,
    current_int_str_limit,
    decompose1,
    force_python_products,
    int_str_limit,
    primes_up_to,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arborist.critorbit as critorbit
from arborist._bigmul import CUTOFF_BITS
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
from arborist.exactnum import is_perfect_square, jacobi, v_int


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
    """A forgery of the recursion: r_level off by one, where the list reaches it."""

    def perturb(nums):
        if level <= len(nums):
            nums[level - 1] += 1

    return perturb


def share_prime_1009(nums):
    """A forgery of the recursion: r_2 and r_5 share the prime 1009, where the list reaches them."""
    for i in (1, 4):
        if i < len(nums):
            nums[i] *= 1009


def perturbed_numerators(monkeypatch, perturb, residues):
    """``_numerators`` forged by ``perturb`` on its residues (``m`` given) or
    on its exact integers; the other kind passes through."""
    honest = critorbit._numerators

    def perturbed(family, r, s, powers, m=0):
        nums = honest(family, r, s, powers, m)
        if bool(m) == residues:
            perturb(nums)
        return nums

    monkeypatch.setattr(critorbit, "_numerators", perturbed)


# certify's rows whose exact fallback builds the orbit, at depth 5: n*, the
# last level that the residue certificate leaves open, so the fallback
# builds r_1..r_n*.  At a = 1 (s = 1) the part of r_n prime to 2r is 1 from
# level 2 on, a square, so no level past the first has a witness
FALLBACK_ROWS = {
    (Fraction(2, 7), 1): 1,  # ProvenSurjective: the audit
    (Fraction(1, 7), 2): 1,  # IndependentToDepth
    (Fraction(23, 29), 1): 2,  # IndependentToDepth
    (Fraction(-1, 2), 2): 3,  # DependentAtLevel, witness (3,)
    (Fraction(1), 1): 5,  # DependentAtLevel, witness (2,)
    (Fraction(1), 2): 5,  # DependentAtLevel, witness (1, 2, 3)
}
# of the orbits of height <= 30 at depth 10: those with a witness at every
# level, and the levels with one
DECIDED_AT_HEIGHT_30 = 1962
CERTIFIED_LEVELS_AT_HEIGHT_30 = 21895
# certify's rows that the residue certificate decides at depth 5, with no
# exact level built: the audit (ProvenSurjective) and the fallback's verdict
RESIDUE_ROWS = [
    (Fraction(13, 29), 1),
    (Fraction(2, 3), 2),
    (Fraction(2, 27), 2),
    (Fraction(13, 29), 2),
    (Fraction(3, 19), 1),
]


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
        "perturb, level",
        [
            *(pytest.param(shift_level(level), level, id=str(level)) for level in (1, 2, 5)),
            pytest.param(share_prime_1009, 2, id="shared-prime-1009"),
        ],
    )
    def test_perturbed_recursion_is_caught(self, monkeypatch, perturb, level):
        from arborist.verdict import certify

        honest = {row: certify(*row, depth=5) for row in FALLBACK_ROWS}
        # d_sequence runs the recursion's loop on the chain it fetched once
        perturbed_numerators(monkeypatch, perturb, residues=False)
        for family, a in [(1, Fraction(13, 29)), (2, Fraction(2, 3))]:
            with pytest.raises(InvariantViolation):
                build(family, a, 5)
        # certify takes no gcd between levels, so the cross-check must stop a
        # forgery on the levels its fallback builds (the audit at 2/7, the
        # fallback's verdict at the others); a level it does not build was
        # decided on residues, and the verdict stands
        for (a, family), open_depth in FALLBACK_ROWS.items():
            if level <= open_depth:
                with pytest.raises(InvariantViolation):
                    certify(a, family, depth=5)
            else:
                assert certify(a, family, depth=5) == honest[a, family]

    @pytest.mark.parametrize(
        "perturb",
        [
            *(pytest.param(shift_level(level), id=str(level)) for level in range(1, 6)),
            pytest.param(share_prime_1009, id="shared-prime-1009"),
        ],
    )
    def test_perturbed_residue_recursion_is_caught(self, monkeypatch, perturb):
        from arborist.verdict import certify

        # the certificate's residues are cross-checked against the iteration
        # at every level, on rows it decides and on rows it leaves open
        perturbed_numerators(monkeypatch, perturb, residues=True)
        for a, family in [*RESIDUE_ROWS, *FALLBACK_ROWS]:
            with pytest.raises(InvariantViolation, match="modulo m at n = "):
                certify(a, family, depth=5)

    def test_a_numerator_sharing_a_prime_with_s_is_caught(self):
        # a map past QuadMap's check that r/s is reduced: the cross-check's
        # identities hold for any r and s, so 2/4 passes it, and
        # r_1 = -2 * 10 shares 2 with s = 4
        forged = tuple.__new__(QuadMap, (1, 2, 4))
        with pytest.raises(InvariantViolation, match=r"gcd\(r_1, s\) != 1 for a = '2/4'"):
            d_sequence(forged, 3)

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
        from arborist.verdict import certify

        # certify reaches d_sequence through its exact fallback, which reads
        # the shared chain to n*: the audit's at 2/7, the verdict's at the
        # others, and every level at a = 1 (s = 1)
        for (a, family), open_depth in FALLBACK_ROWS.items():
            honest = certify(a, family, depth=5)
            r, s = a.numerator, a.denominator
            with monkeypatch.context() as forged:
                forge_chain(forged, s, corrupted_chain(r, s, 5, level, corrupt))
                with pytest.raises(InvariantViolation):
                    build(family, a, 5)
                if level <= open_depth:
                    with pytest.raises(InvariantViolation):
                        certify(a, family, depth=5)
                else:  # the forged level is never built
                    assert certify(a, family, depth=5) == honest

    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("corrupt", POWER_CORRUPTIONS.values(), ids=list(POWER_CORRUPTIONS))
    def test_corrupted_residue_power_is_caught(self, monkeypatch, level, corrupt):
        from arborist.verdict import certify

        # the certificate's chain of E_n mod m, corrupted at one level and
        # rebuilt from it, on rows it decides and on rows it leaves open
        honest = critorbit._powers_mod

        def forged_for(r):
            def forged(s, depth, m):
                chain = list(honest(s, depth, m))
                chain[level - 1] = corrupt(r, s, chain[level - 1]) % m
                for n in range(level + 1, depth + 1):
                    chain[n - 1] = (s * chain[n - 2]) ** 2 % m
                return tuple(chain)

            return forged

        for a, family in [*RESIDUE_ROWS, *FALLBACK_ROWS]:
            with monkeypatch.context() as forged:
                forged.setattr(critorbit, "_powers_mod", forged_for(a.numerator))
                with pytest.raises(InvariantViolation):
                    certify(a, family, depth=5)

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_a_chain_that_agreement_leaves_open_is_pinned(self, monkeypatch, level):
        from arborist.verdict import certify

        # E_level + m / gcd(m, r^2) keeps recursion and iteration in
        # agreement modulo m at every level, as r^2 E_level is all they read
        # of it, yet the residues from that level on are wrong: only the pin
        # to pow(s, 2**n - 2, m) refuses it
        a, family, depth = Fraction(3, 5), 1, 8
        qmap = family1(a)
        honest = critorbit._powers_mod

        def forged(s, depth, m):
            chain = list(honest(s, depth, m))
            chain[level - 1] = (chain[level - 1] + m // math.gcd(m, 9)) % m
            return tuple(chain)

        monkeypatch.setattr(critorbit, "_powers_mod", forged)
        m = (2 * 3) ** 2 * critorbit._WITNESS_PRODUCT * 5
        nums = critorbit._numerators(1, 3, 5, forged(5, depth, m), m=m)
        iterated, x = [], qmap.C
        for n, e in enumerate(forged(5, depth, m), start=1):
            x = x if n == 1 else (x * x + qmap.C * e) % m
            iterated.append((x - 15 * e) % m)
        assert [x % m for x in nums] == iterated
        exact = d_sequence(qmap, depth).numerators
        assert [x % m for x in nums] != [x % m for x in exact]
        with pytest.raises(InvariantViolation, match=f"E_{level} mod m differs"):
            certify(a, family, depth=depth)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(-40, 40),
        s=st.integers(1, 40),
        family=st.sampled_from([1, 2]),
        depth=st.integers(1, 9),
    )
    def test_numerators_are_the_iterated_offsets(self, r, s, family, depth):
        assume(math.gcd(r, s) == 1 and (r, s) not in DEGENERATE[family])
        a = Fraction(r, s)
        qmap = family1(a) if family == 1 else family2(a)
        nums = d_sequence(qmap, depth).numerators
        for n, offset in enumerate(oracle_offsets(qmap.c, a, depth), start=1):
            assert offset == Fraction(nums[n - 1], s ** (2**n)), n

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 10**6), depth=st.integers(1, 10))
    def test_chain_holds_the_even_powers(self, s, depth):
        expected = tuple(s ** (2**n - 2) for n in range(1, depth + 1))
        assert critorbit._even_powers(s, depth) == expected

    def test_chain_is_the_same_without_gmp(self, monkeypatch):
        # E_8 of a 61-bit s has 15494 bits, past the product cutoff, so the
        # last squarings take GMP's path where libgmp loads
        s = 2**61 - 1
        expected = tuple(s ** (2**n - 2) for n in range(1, 9))
        assert expected[-1].bit_length() > CUTOFF_BITS
        assert critorbit._even_powers(s, 8) == expected
        force_python_products(monkeypatch)
        assert critorbit._even_powers(s, 8) == expected


class TestCertificate:
    @pytest.mark.parametrize("row", list(FALLBACK_ROWS), ids=lambda row: f"{row[1]}:{row[0]}")
    def test_open_levels_of_the_fallback_rows(self, row):
        (a, family), open_depth = row, FALLBACK_ROWS[row]
        certificate = critorbit._certificate(QuadMap(family, a.numerator, a.denominator), 5)
        assert max(n for n, (q, _) in enumerate(certificate, 1) if q is None) == open_depth

    def test_levels_agree_with_the_exact_numerators(self):
        # every orbit of height <= 30 at depth 10 (the sweep's): u_n is the
        # 2r-part of r_n, by the tests' gcd loop; q_n is a witness with
        # (r_n u_n | q_n) = -1, the first, whose level's cofactor is no
        # square; a level without one has no witness at all
        witnesses = [q for q in primes_up_to(critorbit.WITNESS_PRIME_BOUND) if q % 4 == 1]
        assert [q for q, _ in critorbit._WITNESSES] == witnesses
        decided = levels = 0
        for family, a in sample_points(30):
            qmap = QuadMap(family, a.numerator, a.denominator)
            nums = d_sequence(qmap, 10).numerators
            certificate = critorbit._certificate(qmap, 10)
            if certificate is None:
                assert 0 in nums, (family, a)
                continue
            assert len(certificate) == 10
            cofactors = cofactors_prime_to_2r(nums, a.numerator)
            for rn, t, (q, u) in zip(nums, cofactors, certificate):
                assert u * t == abs(rn), (family, a, rn)
                symbols = [jacobi(rn * u, p) for p in witnesses]
                if q is None:
                    assert -1 not in symbols, (family, a, rn)
                else:
                    assert symbols.index(-1) == witnesses.index(q), (family, a, rn)
                    assert not is_perfect_square(t), (family, a, rn)
                    levels += 1
            decided += all(q for q, _ in certificate)
        assert (decided, levels) == (DECIDED_AT_HEIGHT_30, CERTIFIED_LEVELS_AT_HEIGHT_30)

    @pytest.mark.parametrize("depth", [1, 8, MAX_DEPTH])
    def test_the_zero_orbit_has_no_certificate(self, depth):
        # a = -2: r_n = 0 fills every (2r)^K, so K widens past MAX_WIDENING
        assert critorbit._certificate(family1(-2), depth) is None

    def test_a_filled_power_of_2r_widens_the_modulus(self, monkeypatch):
        # a = 58/35: r_1 = -58 * 128 has the 2r-part 2^8 * 29, which fills
        # 2 in (2r)^4 and not in (2r)^8
        qmap = family1(Fraction(58, 35))
        honest, moduli = critorbit._residues, []

        def recording(qmap, depth, m):
            moduli.append(m)
            return honest(qmap, depth, m)

        monkeypatch.setattr(critorbit, "_residues", recording)
        certificate = critorbit._certificate(qmap, 8)
        assert [m // (critorbit._WITNESS_PRODUCT * 35) for m in moduli] == [116**4, 116**8]
        assert [u for _, u in certificate] == [2**8 * 29] + [116] * 7


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

    def test_depth16_pins_hold_without_gmp(self, monkeypatch):
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
        with pytest.raises(UsageError, match="depth '30' is too deep"):
            check_depth(1, 1, 30)
        for depth in (MAX_DEPTH + 1, 10**9):
            with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
                check_depth(1, 1, depth, 2)
            with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
                check_depth(1, 1, depth)

    @pytest.mark.parametrize("depth", [23, 25, 40, 10**9])
    def test_refused_before_any_arithmetic(self, monkeypatch, depth):
        from arborist import verdict

        def computed(*args):
            raise AssertionError("a refused depth reached the orbit arithmetic")

        for name in ("_even_powers", "_numerators"):
            monkeypatch.setattr(critorbit, name, computed)
        monkeypatch.setattr(verdict, "_nonresidue_prime_in", computed)
        with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
            d_sequence(family2(Fraction(13, 29)), depth)
        with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
            verdict.certify(Fraction(13, 29), 1, depth=depth)
        with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
            numerator_recursion(1, 13, 29, depth)
        # NotSurjective points need no orbit, and their depth is refused all
        # the same (both bounds accept them at depth 23)
        if depth > 23:
            for a, family in ((Fraction(1, 4), 1), (Fraction(3, 4), 2)):
                with pytest.raises(UsageError, match=f"depth '{depth}' is too deep"):
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
            with pytest.raises(UsageError, match="depth '20' is too deep") as exc:
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
