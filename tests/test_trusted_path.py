"""The code a verdict rests on: every library function that certify reaches.

New code on that path shows up here as a diff of the checked-in lists.
"""

import sys
from fractions import Fraction

import pytest
from conftest import force_python_products, fresh_cache

import arborist.critorbit as critorbit
from arborist import _bigmul
from arborist.verdict import VerdictStatus, certify

# every status, both families, an undecided witness search, and two rows
# whose products cross the cutoff (13/29 at depth 12: r_12 has 20k bits)
SAMPLE = [
    (Fraction(13, 29), 1, 12),
    (Fraction(13, 29), 2, 12),
    (Fraction(2, 27), 2, 8),
    (Fraction(9, 10), 1, 8),
    (Fraction(-12, 1000003 * 1000033), 1, 6),
    (Fraction(1, 4), 1, 4),
    (Fraction(3, 4), 2, 4),
    (Fraction(-2), 1, 4),
    (Fraction(1), 2, 6),
]

TRUSTED = {
    "arborist._bigmul._gmp",
    "arborist._bigmul.mul",
    "arborist._bigmul.sqr",
    "arborist.critorbit._even_powers",
    "arborist.critorbit._numerators",
    "arborist.critorbit.check_depth",
    "arborist.critorbit.d_sequence",
    "arborist.critorbit.family1_sign",
    "arborist.critorbit.square_class_reps",
    "arborist.dynamics.C",
    "arborist.dynamics._check",
    "arborist.dynamics.a",
    "arborist.dynamics.integer_c",
    "arborist.dynamics.is_family",
    "arborist.errors.__new__",
    "arborist.exactnum._coprime_basis",
    "arborist.exactnum._decimal",
    "arborist.exactnum._is_square_mod",
    "arborist.exactnum.factor_refine",
    "arborist.exactnum.format_reduced",
    "arborist.exactnum.is_perfect_square",
    "arborist.exactnum.jacobi",
    "arborist.exactnum.proven_prime",
    "arborist.exactnum.rational_is_square",
    "arborist.independence._check",
    "arborist.independence._square_levels",
    "arborist.independence.factored_orbit_independent",
    "arborist.independence.square_classes",
    "arborist.independence.two_independent",
    "arborist.verdict._certify",
    "arborist.verdict._conditions",
    "arborist.verdict._nonresidue_prime_in",
    "arborist.verdict._orbit_decision",
    "arborist.verdict.certify",
    "arborist.verdict.compute_delta_e",
}
# what each path of the full-size products adds: the binding to libgmp and
# its load-time self-test, or nothing where they fall back to CPython's ``*``
ON_PATH = {
    "gmp": {
        "arborist._bigmul._agrees",
        "arborist._bigmul._filled",
        "arborist._bigmul.gmp_mul",
        "arborist._bigmul.gmp_sqr",
    },
    "python": set(),
}


def reached_by_certify():
    """Library functions called while certifying SAMPLE, as module.name;
    comprehensions and lambdas, which differ between Python versions, are left out."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
            if module.partition(".")[0] == "arborist" and not name.startswith("<"):
                seen.add(f"{module}.{name}")

    statuses = set()
    sys.setprofile(profile)
    try:
        for a, family, depth in SAMPLE:
            statuses.add(certify(a, family, depth=depth).status)
    finally:
        sys.setprofile(None)
    assert statuses == set(VerdictStatus)
    return seen


@pytest.fixture(params=["gmp", "python"])
def products(request, monkeypatch):
    """Each path of the full-size products: GMP's, where libgmp loads, and
    CPython's ``*`` with the loader forced to fail."""
    if request.param == "python":
        force_python_products(monkeypatch)
    elif not _bigmul.uses_gmp():
        pytest.skip("libgmp cannot be used on this system")
    return request.param


def test_certify_reaches_exactly_the_listed_functions(products, monkeypatch):
    # a fresh binding and power-chain cache, so the load and the chain's
    # growth are on the path in every run
    fresh_cache(monkeypatch, _bigmul, "_gmp")
    fresh_cache(monkeypatch, critorbit, "_even_powers")
    assert reached_by_certify() == TRUSTED | ON_PATH[products]
