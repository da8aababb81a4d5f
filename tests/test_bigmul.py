"""The full-size products through GMP's mpn layer, and their fallback to ``*``."""

import ast
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import force_python_products, fresh_cache
from hypothesis import given, settings
from hypothesis import strategies as st

import arborist
import arborist.critorbit as critorbit
from arborist import _bigmul
from arborist._bigmul import CUTOFF_BITS, mul, sqr
from arborist.critorbit import d_sequence
from arborist.dynamics import family1, family2

# the deep workload's pairs (benchmarks/workloads.py)
DEEP_PAIRS = [
    ("13/29", 1), ("13/29", 2), ("-5/17", 1), ("-5/17", 2),
    ("7/23", 1), ("2/27", 2), ("3/19", 1), ("11/27", 2),
]


@pytest.fixture(scope="module")
def gmp():
    if not _bigmul.uses_gmp():
        pytest.skip("libgmp cannot be used on this system")


# bit lengths at and around multiples of the 64-bit limb, around the
# cutoff, and anywhere up to three times it
BIT_LENGTHS = st.one_of(
    st.builds(lambda k, d: max(1, 64 * k + d), st.integers(0, 140), st.integers(-1, 1)),
    st.integers(CUTOFF_BITS - 2, CUTOFF_BITS + 2),
    st.integers(1, 3 * CUTOFF_BITS),
)


@st.composite
def operands(draw):
    bits = draw(BIT_LENGTHS)
    magnitude = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return draw(st.sampled_from([magnitude, -magnitude]))


SIGNED = st.one_of(st.just(0), operands())


@settings(max_examples=300, deadline=None)
@given(x=SIGNED, y=SIGNED)
def test_products_and_squares_equal_python(gmp, x, y):
    # unequal lengths come in either order
    assert mul(x, y) == x * y
    assert mul(y, x) == x * y
    assert sqr(x) == x * x


def numerators(pairs, depth):
    return {
        (a, family): d_sequence((family1 if family == 1 else family2)(Fraction(a)), depth).numerators
        for a, family in pairs
    }


def test_fallback_gives_the_same_deep_numerators(gmp, monkeypatch):
    fresh_cache(monkeypatch, critorbit, "_even_powers")
    through_gmp = numerators(DEEP_PAIRS, 14)
    # r_14 crosses the cutoff in every pair, so both paths are exercised
    assert all(nums[-1].bit_length() > CUTOFF_BITS for nums in through_gmp.values())
    force_python_products(monkeypatch)
    fresh_cache(monkeypatch, critorbit, "_even_powers")
    assert not _bigmul.uses_gmp()
    assert numerators(DEEP_PAIRS, 14) == through_gmp


def limbs_of_32_bits(monkeypatch):
    """The loaded libgmp reports limbs of 32 bits, which the binding does not take."""
    import ctypes

    monkeypatch.setattr(ctypes.c_int, "in_dll", lambda lib, name: ctypes.c_int(32))


@pytest.mark.parametrize(
    "refuse",
    [
        pytest.param(force_python_products, id="no-libgmp"),
        pytest.param(lambda mp: mp.setattr(sys, "byteorder", "big"), id="big-endian"),
        pytest.param(lambda mp: mp.setattr(_bigmul, "_agrees", lambda *f: False), id="self-test"),
        pytest.param(limbs_of_32_bits, id="limb-32"),
    ],
)
def test_an_unusable_gmp_falls_back_to_python(gmp, monkeypatch, refuse):
    fresh_cache(monkeypatch, _bigmul, "_gmp")
    refuse(monkeypatch)
    assert not _bigmul.uses_gmp()
    x = 3 ** 20000
    assert mul(x, -x - 1) == x * (-x - 1) and sqr(x) == x * x


def test_the_bound_square_of_zero_is_zero(gmp):
    # sqr never sends 0 to GMP, as 0 is below the cutoff; the binding takes it anyway
    assert _bigmul._gmp()[1](0) == 0


def test_self_test_operands_are_the_powers_modulo_their_limbs(monkeypatch):
    # the mask keeps exactly the integers that base ** (28 * limbs) % 2^(64 limbs) gave
    filled, calls = _bigmul._filled, []

    def recording(limbs, base):
        calls.append((limbs, base))
        return filled(limbs, base)

    monkeypatch.setattr(_bigmul, "_filled", recording)
    assert _bigmul._agrees(lambda x, y: x * y, lambda x: x * x)
    assert len(calls) == 14
    for limbs, base in calls:
        top = 1 << (64 * limbs)
        assert filled(limbs, base) == base ** (28 * limbs) % top | top >> 1
        assert filled(limbs, base).bit_length() == 64 * limbs


@pytest.mark.parametrize("wrong", ["product", "square"])
def test_self_test_refuses_a_wrong_product_or_square(wrong):
    # off by one on the last operands only, those of 150 limbs
    def off(x, which):
        return int(wrong == which and x.bit_length() > 64 * 149)

    assert not _bigmul._agrees(
        lambda x, y: x * y + off(x, "product"), lambda x: x * x + off(x, "square")
    )


BELOW = (1 << (CUTOFF_BITS - 1)) - 1  # CUTOFF_BITS - 1 bits
AT = 1 << (CUTOFF_BITS - 1)  # CUTOFF_BITS bits


def test_operands_below_the_cutoff_leave_the_binding_unloaded(monkeypatch):
    fresh_cache(monkeypatch, _bigmul, "_gmp")
    # only the first operand's size decides, so a large second one stays on *
    assert mul(BELOW, -AT * AT) == BELOW * -AT * AT and mul(-BELOW, BELOW) == -BELOW * BELOW
    assert sqr(BELOW) == BELOW * BELOW and sqr(-BELOW) == BELOW * BELOW
    assert _bigmul._gmp.cache_info().misses == 0


@pytest.mark.parametrize(
    "product, expected",
    [
        pytest.param(lambda: mul(AT, -BELOW), AT * -BELOW, id="mul"),
        pytest.param(lambda: sqr(-AT), AT * AT, id="sqr"),
    ],
)
def test_an_operand_at_the_cutoff_loads_the_binding(monkeypatch, product, expected):
    fresh_cache(monkeypatch, _bigmul, "_gmp")
    assert product() == expected
    assert _bigmul._gmp.cache_info().misses == 1


def test_only_bigmul_names_the_cutoff():
    package = Path(arborist.__file__).resolve().parent
    naming = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an imported alias's or a definition's name
            if "CUTOFF_BITS" in {getattr(node, field, None) for field in ("id", "attr", "name")}:
                naming.add(path.name)
    assert naming == {"_bigmul.py"}


def test_threads_multiplying_above_the_cutoff_agree(gmp):
    rng = random.Random(16)
    work = [
        (rng.getrandbits(bits) | 1 << (bits - 1), -rng.getrandbits(bits // 2 + 1))
        for bits in range(CUTOFF_BITS, 12 * CUTOFF_BITS, 3 * CUTOFF_BITS + 7)
    ]
    expected = [(x * y, x * x) for x, y in work]
    errors = []

    def worker():
        try:
            for _ in range(20):
                got = [(mul(x, y), sqr(x)) for x, y in work]
                if got != expected:
                    errors.append("a product differs from *")
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_a_sweep_of_small_orbits_never_imports_ctypes(tmp_path):
    # no product of a depth-10 search reaches the cutoff at height 6, nor at
    # the benchmark's sweep point, height 30 (operands of at most 2827 bits),
    # so libgmp and ctypes stay unloaded
    src = Path(arborist.__file__).resolve().parent.parent
    code = (
        "import sys, arborist, arborist.cli\n"
        "from arborist.search import SearchConfig, search\n"
        f"search(SearchConfig(height=6, out_path={str(tmp_path / 'rows.jsonl')!r}, depth=10))\n"
        f"search(SearchConfig(height=30, out_path={str(tmp_path / 'sweep.jsonl')!r}, depth=10))\n"
        "print('ctypes' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.strip() == "False"
