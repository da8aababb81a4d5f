"""Integers of the orbit and the base point become text through
``exactnum.format_reduced`` alone, which no int/str digit limit stops."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import int_str_limit

import arborist
from arborist import exactnum
from arborist.cli import main
from arborist.dynamics import QuadMap
from arborist.exactnum import jacobi
from arborist.independence import CoprimeBasis

K = 10**1100 + 1

# (family, a) accepted at depth 1 whose witness passes 4300 digits: a - c
# is a square of 4401 and 4402 digits, and m = 2r has 4301 digits
POINTS = {
    "family1-square": (1, Fraction(1, (K * K - 1) // 2)),
    "family2-square": (2, Fraction(K * K - 4, 4 * K)),
    "family1-m": (1, Fraction(8 * 10**4299 + 2)),
}


def c_of(family, a):
    return -a - a * a if family == 1 else -1 + a - a * a


@pytest.mark.parametrize("family, a", list(POINTS.values()), ids=list(POINTS))
def test_verify_writes_a_witness_past_the_digit_limit(family, a, capsys):
    with int_str_limit(0):
        text = str(a)
        a_minus_c = str(a - c_of(family, a))
    argv = ["verify", "--family", str(family), "--a", text, "--depth", "1"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == text
    detail = payload["detail"]
    if payload["status"] == "NotSurjective":
        assert detail["a_minus_c"] == a_minus_c
    else:
        assert payload["condition"] == "T1.1-1"
        m = (-1) ** payload["delta"] * 2 ** payload["e"] * abs(a.numerator)
        with int_str_limit(0):
            assert detail["m"] == str(m)
        assert len(detail["m"]) > 4300


# a refusal of a number past the digit limit, with its own message
BIG = 10**5000
REFUSALS = {
    "QuadMap": (lambda: QuadMap(1, 2 * BIG, 4 * BIG), "not a map of either family"),
    "CoprimeBasis-element": (lambda: CoprimeBasis((BIG * BIG,)), "invalid basis element"),
    "CoprimeBasis-pair": (lambda: CoprimeBasis((3 * BIG + 3,) * 2), "not coprime"),
    "jacobi": (lambda: jacobi(1, 2 * BIG), "jacobi symbol needs odd positive n"),
}


@pytest.mark.parametrize("build, match", list(REFUSALS.values()), ids=list(REFUSALS))
def test_a_refusal_writes_a_long_number_cut_in_the_middle(build, match):
    with pytest.raises(ValueError, match=match) as refused:
        build()
    assert all(len(line.encode()) < 200 for line in str(refused.value).splitlines())


# a non-int refused by its own check, not by the formatting of its message
NON_INTS = {
    "jacobi": (lambda: jacobi(3, 4.0), "jacobi symbol needs an int n, got a float"),
    "CoprimeBasis": (lambda: CoprimeBasis((1.5,)), "basis element is a float, not an int"),
}


@pytest.mark.parametrize("build, match", list(NON_INTS.values()), ids=list(NON_INTS))
def test_a_non_int_is_refused_with_a_value_error(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# 0, either side of the converter's split above 2000 bits, a number whose
# upper half splits again (4001 bits), and the size of r_18 at a = 13/29
@pytest.mark.parametrize("bits", [0, 2000, 2001, 4001, 1_270_000])
def test_the_converter_writes_what_str_writes(bits):
    n = random.Random(bits).getrandbits(bits) | (1 << bits >> 1)  # exactly ``bits`` bits
    with int_str_limit(0):
        text = str(n)
    assert exactnum._decimal(n) == text
    assert exactnum._decimal(-n) == ("-" + text if n else text)


def builtin_calls(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


@pytest.mark.parametrize("module", ["verdict", "search", "cli", "dynamics", "independence"])
def test_no_str_call_at_the_text_edge(module):
    path = Path(arborist.__file__).parent / f"{module}.py"
    assert builtin_calls(path, "str") == []
