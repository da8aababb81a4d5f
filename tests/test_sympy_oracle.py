"""An oracle for ``certify`` that shares no arithmetic with the library.

Every base point a = r/s of height <= 12, in both families, is certified by
``certify`` and decided again here with sympy alone:

- the adjusted orbit D_1 = a - c, D_n = f^n(0) - a by iterating the map on
  sympy Rationals;
- NotSurjective when a - c is a nonzero rational square;
- the paper's conditions from ``factorint(s)`` and ``legendre_symbol``, with
  the first family's sign exponent delta read off the paper's intervals,
  whose irrational end is sympy's exact positive root of x^4 + 2x^3 - 2x;
- independence from every subset product of the D_n, each tested for a
  square with ``integer_nthroot``.

The subsets are walked in the order of their bitmasks, so the first square
product found has the lowest highest level; the levels below it are then
independent, which makes that square subset the only one with its highest
level, and so the witness ``certify`` reports.
"""

from sympy import Rational, factorint, integer_nthroot, legendre_symbol, real_roots, symbols

from arborist import certify

HEIGHT = 12
DEPTH = 8
#: base points at which a family's orbit structure collapses
DEGENERATE = {1: (0, -1), 2: (0, Rational(1, 2))}

_x = symbols("x")
#: the positive real root of x^4 + 2x^3 - 2x
BETA = max(real_roots(_x**4 + 2 * _x**3 - 2 * _x))


def is_square(q: Rational) -> bool:
    return q > 0 and integer_nthroot(q.p, 2)[1] and integer_nthroot(q.q, 2)[1]


def delta(a: Rational) -> int | None:
    """The sign exponent of the first family: 0 where every f^n(0) - a is
    eventually positive, 1 where every one is negative, None at the
    excluded points and on the mixed interval [beta, 1)."""
    if a in (-2, -1, 1):
        return None
    if a < 0 or a > 1:
        return 0
    return 1 if a < BETA else None


def conditions(family: int, a: Rational) -> list[str]:
    """The tags of the paper's conditions that hold at a, in order."""
    r, s = a.p, a.q
    odd_primes = [q for q in factorint(s) if q != 2]
    if family == 1:
        d = delta(a)
        if d is None:
            return []
        m = (-1) ** d * 2 ** (r % 2 == 0) * abs(r)
        holds = {
            "T1.1-1": m % 3 == 2,
            "T1.1-2": m % 4 == 3,
            "T1.1-3": any(legendre_symbol(m % q, q) == -1 for q in odd_primes),
        }
    else:
        holds = {
            "T1.2-1": r == 1 and s > 2 and s % 2 == 0,
            "T1.2-2": r == 2 and s > 3 and s % 3 == 1,
            "T1.2-3": r == 2 and any(q % 4 == 3 for q in odd_primes),
        }
    return [tag for tag, held in holds.items() if held]


def first_square_subset(values: list[Rational]) -> tuple[int, ...] | None:
    """The 1-based levels of the first subset, in bitmask order, whose
    product is a square; None when no subset's is."""
    products = [Rational(1)]
    for mask in range(1, 1 << len(values)):
        lowest = (mask & -mask).bit_length() - 1
        products.append(products[mask & (mask - 1)] * values[lowest])
        if is_square(products[mask]):
            return tuple(n + 1 for n in range(len(values)) if mask >> n & 1)
    return None


def oracle(family: int, a: Rational, depth: int) -> tuple[str, str | None, tuple | None]:
    """(status, condition, witness) of the base point a."""
    c = -a - a**2 if family == 1 else -1 + a - a**2
    orbit, x = [a - c], c
    for _ in range(depth - 1):
        x = x**2 + c
        orbit.append(x - a)
    if orbit[0] != 0 and is_square(orbit[0]):
        return "NotSurjective", None, None
    if 0 in orbit:
        return "Inapplicable", None, None
    fired = conditions(family, a)
    witness = first_square_subset(orbit)
    if fired:
        # the paper's theorem, to this depth
        assert witness is None, (family, a, fired, witness)
        return "ProvenSurjective", fired[0], None
    if witness is None:
        return "IndependentToDepth", None, None
    return "DependentAtLevel", None, witness


def base_points(height: int):
    for s in range(1, height + 1):
        for r in range(-height, height + 1):
            a = Rational(r, s)
            if r and a.q == s:
                yield a


def test_certify_agrees_with_a_sympy_oracle():
    seen = set()
    for a in base_points(HEIGHT):
        for family in (1, 2):
            if a in DEGENERATE[family]:
                continue
            verdict = certify(f"{a.p}/{a.q}", family, depth=DEPTH)
            found = verdict.status.value, verdict.condition, verdict.witness
            assert found == oracle(family, a, DEPTH), (family, a)
            seen.add(found[0])
    # every outcome is reached
    assert seen == {
        "NotSurjective",
        "Inapplicable",
        "ProvenSurjective",
        "IndependentToDepth",
        "DependentAtLevel",
    }
