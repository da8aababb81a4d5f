"""The code a verdict rests on: every library function that certify reaches.

New code on that path shows up here as a diff of the checked-in lists.
"""

import sys
from fractions import Fraction

import pytest
from conftest import force_python_products, fresh_cache

from arborist import _bigmul
from arborist.verdict import VerdictStatus, certify

# every status, both families, an undecided witness search, rows that the
# residue certificate decides (13/29 at depth 12) and rows that it leaves
# to the exact fallback (1 in family 2 to the full depth, -2 without a
# certificate); no row's products reach the GMP cutoff
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
    "arborist._bigmul.mul",
    "arborist._bigmul.sqr",
    "arborist.critorbit._certificate",
    "arborist.critorbit._even_powers",
    "arborist.critorbit._numerators",
    "arborist.critorbit._powers_mod",
    "arborist.critorbit._residues",
    "arborist.critorbit._witness",
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
    "arborist.exactnum.part_prime_to",
    "arborist.exactnum.proven_prime",
    "arborist.exactnum.rational_is_square",
    "arborist.independence._check",
    "arborist.independence.square_classes",
    "arborist.independence.two_independent",
    "arborist.verdict._certify",
    "arborist.verdict._conditions",
    "arborist.verdict._exact_decision",
    "arborist.verdict._nonresidue_prime_in",
    "arborist.verdict._orbit_decision",
    "arborist.verdict.certify",
    "arborist.verdict.compute_delta_e",
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
    # a fresh binding, so a load would be on the path in every run;
    # certify's rows stay below the cutoff, so neither path of the products
    # adds a function (GMP's binding is reached by d_sequence and orbit at
    # depth)
    fresh_cache(monkeypatch, _bigmul, "_gmp")
    assert reached_by_certify() == TRUSTED
