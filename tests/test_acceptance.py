"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live) and enforces its stated runtime budget.  The shared sample
is every admissible reduced base point with |r|, s <= 30, for both
families, at depth 8.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from conftest import decompose1, primes_up_to

from arborist.backorbit import RenderConfig, render, sample_backward
from arborist.critorbit import (
    check_valuations,
    congruence_check,
    d_sequence,
    numerator_recursion,
    sign_predict,
)
from arborist.dynamics import family1, family2
from arborist.exactnum import rational_is_square
from arborist.independence import brute_force_independent, two_independent
from arborist.search import SearchConfig, load_rows, search
from arborist.verdict import VerdictStatus, certify

SAMPLE_BOUND = 30
SAMPLE_DEPTH = 8


def _admissible_points():
    for s in range(1, SAMPLE_BOUND + 1):
        for r in range(-SAMPLE_BOUND, SAMPLE_BOUND + 1):
            if r == 0 or math.gcd(abs(r), s) != 1:
                continue
            a = Fraction(r, s)
            if a not in (0, -1):
                yield 1, a
            if a != Fraction(1, 2):
                yield 2, a


def _build(family, a, depth=SAMPLE_DEPTH):
    ctor = family1 if family == 1 else family2
    return d_sequence(ctor(a), depth)


@pytest.fixture(scope="module")
def sample_orbits():
    return [(family, a, _build(family, a)) for family, a in _admissible_points()]


def finish(number, label, started, violations, budget_s):
    elapsed = time.perf_counter() - started
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"ACCEPTANCE {number} [{label}]: {status} in {elapsed:.2f}s (budget {budget_s}s)")
    assert not violations, violations[:5]
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_worked_example_regression():
    started = time.perf_counter()
    cases = [
        (1, Fraction(1, 5), "T1.1-1", Fraction(-6, 25), Fraction(11, 25)),
        (1, Fraction(1, 2), "T1.1-2", Fraction(-3, 4), Fraction(5, 4)),
        (1, Fraction(-6, 7), "T1.1-3", Fraction(6, 49), Fraction(-48, 49)),
        (2, Fraction(1, 4), "T1.2-1", Fraction(-13, 16), Fraction(17, 16)),
        (2, Fraction(2, 13), "T1.2-2", Fraction(-147, 169), Fraction(173, 169)),
        (2, Fraction(2, 3), "T1.2-3", Fraction(-7, 9), Fraction(13, 9)),
    ]
    violations = []
    for fam, a, named_condition, expected_c, expected_offset in cases:
        ctor = family1 if fam == 1 else family2
        qmap = ctor(a)
        if qmap.c != expected_c:
            violations.append((a, "c", qmap.c))
        if a - qmap.c != expected_offset:
            violations.append((a, "a-c", a - qmap.c))
        verdict = certify(a, fam, depth=8)
        if verdict.status is not VerdictStatus.PROVEN_SURJECTIVE:
            violations.append((a, "status", verdict.status))
            continue
        fired = verdict.detail["fired"]
        if named_condition not in fired:
            violations.append((a, "named condition did not fire", fired))
        # the certificate numbers of 1/5 and 1/2 coincide (m = -1), so both
        # fire conditions 1 and 2; where a single condition fires, the
        # reported tag must be exactly the named one
        if len(fired) == 1 and verdict.condition != named_condition:
            violations.append((a, "condition", verdict.condition))
    finish(1, "worked-example regression", started, violations, budget_s=1.0)


def test_criterion_2_recursion_matches_iteration(sample_orbits):
    started = time.perf_counter()
    violations = []
    for family, a, orbit in sample_orbits:
        r, s = a.numerator, a.denominator
        nums = numerator_recursion(family, r, s, SAMPLE_DEPTH)
        x = Fraction(0)
        for n in range(1, SAMPLE_DEPTH + 1):
            x = x * x + orbit.qmap.c
            offset = x - a
            expected_den = s ** (2**n)
            if offset != Fraction(nums[n - 1], expected_den):
                violations.append((family, a, n, "value"))
            if nums[n - 1] != 0 and offset.denominator != expected_den:
                violations.append((family, a, n, "denominator"))
        if tuple(nums) != orbit.numerators:
            violations.append((family, a, "orbit numerators"))
    finish(2, "recursion/iteration equivalence", started, violations, budget_s=120.0)


def test_criterion_3_valuation_sign_congruence_suites(sample_orbits):
    started = time.perf_counter()
    violations = []
    small_primes = primes_up_to(100)
    for family, a, orbit in sample_orbits:
        # valuation laws at 2 and at every small prime meeting the base point
        primes = {2} | {
            p for p in small_primes if a.numerator % p == 0 or orbit.qmap.s % p == 0
        }
        for p in primes:
            for check in check_valuations(orbit, p):
                if check.applicable and not check.passed:
                    violations.append((family, a, p, check.name, check.first_failure))
        # sign classes against the actual numerator signs
        prediction = sign_predict(orbit.qmap)
        if prediction.kind == "all_positive":
            bad = [
                n
                for n in range(prediction.start, SAMPLE_DEPTH + 1)
                if orbit.numerators[n - 1] <= 0
            ]
            if bad:
                violations.append((family, a, "sign", bad))
        elif prediction.kind == "all_negative":
            bad = [n for n in range(1, SAMPLE_DEPTH + 1) if orbit.numerators[n - 1] >= 0]
            if bad:
                violations.append((family, a, "sign", bad))
        if family == 1:
            # odd-cofactor pairwise coprimality
            parts = {n: decompose1(orbit, n).t for n in range(2, SAMPLE_DEPTH + 1)}
            for i in parts:
                for j in parts:
                    if j < i and math.gcd(parts[i], parts[j]) != 1:
                        violations.append((family, a, "coprimality", (j, i)))
            # congruence laws
            for modulus in (3, 4):
                report = congruence_check(orbit, modulus)
                if report.applicable and not report.passed:
                    violations.append((family, a, "congruence", modulus))
    finish(3, "valuation/sign/congruence suites", started, violations, budget_s=120.0)


def test_criterion_4_independence_oracle_equivalence(sample_orbits):
    started = time.perf_counter()
    violations = []
    for family, a, orbit in sample_orbits:
        values = [d for d in orbit.d_values[:6] if d != 0]
        fast = two_independent(values)
        slow = brute_force_independent(values)
        if fast.independent != slow.independent:
            violations.append((family, a, "disagreement"))
        if not fast.independent and not rational_is_square(
            math.prod((values[i] for i in fast.witness), start=Fraction(1))
        ):
            violations.append((family, a, "bad witness"))

    rng = random.Random(20260808)
    for trial in range(100):
        length = rng.randint(1, 8)
        values = []
        for _ in range(length):
            num = rng.randint(-(10**4), 10**4) or 1
            den = rng.randint(1, 10**4)
            values.append(Fraction(num, den))
        fast = two_independent(values)
        slow = brute_force_independent(values)
        if fast.independent != slow.independent:
            violations.append((trial, "random disagreement", values))
        multipliers = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in values]
        scaled = [v * m * m for v, m in zip(values, multipliers)]
        scaled_fast = two_independent(scaled)
        if scaled_fast.independent != fast.independent:
            violations.append((trial, "square scaling changed the answer"))
        if scaled_fast.independent != brute_force_independent(scaled).independent:
            violations.append((trial, "scaled disagreement"))
    finish(4, "independence oracle equivalence", started, violations, budget_s=60.0)


def test_criterion_5_consistency_audit_at_height_50(tmp_path):
    started = time.perf_counter()
    violations = []
    out = tmp_path / "height50.jsonl"
    summary = search(SearchConfig(height=50, out_path=out, depth=10, workers=2))
    assert summary.rows_written > 0
    proven = 0
    for row in load_rows(out):
        verdict = row["verdict"]
        if verdict["status"] != "ProvenSurjective":
            continue
        proven += 1
        family = row["family"]
        orbit = _build(family, Fraction(row["a"]), depth=10)
        result = two_independent(orbit.d_values)
        if not result.independent:
            violations.append((row["a"], row["family"], result.witness))
    assert proven > 0
    print(f"  (audited {proven} positive certificates)")
    finish(5, "height-50 consistency audit", started, violations, budget_s=300.0)


def test_criterion_6_repeated_prime_law(sample_orbits):
    started = time.perf_counter()
    violations = []
    small_primes = primes_up_to(100)
    for family, a, orbit in sample_orbits:
        for p in small_primes:
            if orbit.qmap.s % p == 0:
                continue
            hits = [n for n in range(1, SAMPLE_DEPTH + 1) if orbit.numerators[n - 1] % p == 0]
            if len(hits) < 2:
                continue
            if family == 1:
                ok = (p != 2 and a.numerator % p == 0) or (
                    p == 2 and a.numerator % 2 == 0
                )
            else:
                ok = (2 * a.numerator) % p == 0
            if not ok:
                violations.append((family, a, p, hits))
    finish(6, "repeated-prime law", started, violations, budget_s=120.0)


def test_criterion_7_renderer():
    started = time.perf_counter()
    violations = []
    c, a = complex(-0.75), complex(0.5)
    cfg = RenderConfig(
        width=800,
        height=800,
        bounds=(-2.0, 2.0, -2.0, 2.0),
        n_points=200_000,
        burn_in=50,
        seed=42,
    )
    points = sample_backward(c, a, cfg)
    repeat = sample_backward(c, a, cfg)
    if points != repeat:
        violations.append("not deterministic")
    bound = 1.0 + math.sqrt(1.0 + abs(c))
    full_chain = sample_backward(
        c, a, RenderConfig(n_points=cfg.burn_in + cfg.n_points, burn_in=0, seed=42)
    )
    prev = a
    for i, z in enumerate(full_chain):
        if abs(z * z + c - prev) >= 1e-9:
            violations.append(("preimage identity", i))
            break
        prev = z
    if any(abs(z) > bound for z in points):
        violations.append("escape bound")
    image_a = render(points, cfg)
    image_b = render(repeat, cfg)
    if image_a != image_b:
        violations.append("image bytes differ")
    lit = image_a[len(b"P5\n800 800\n255\n") :].count(255)
    if lit < 1000:
        violations.append(("lit pixels", lit))
    finish(7, "backward-orbit renderer", started, violations, budget_s=10.0)
