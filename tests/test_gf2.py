"""Kernel tests: Lucas binomials, sparse GF(2) polynomials, echelon forms.

The binomial oracle is a Pascal recursion built here, independent of the
bitmask shortcut in the library.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conjspaces.errors import ParseError
from conjspaces.gf2 import (GF2Echelon, MONO_ONE, Poly, binom_mod2,
                            format_monomial, format_poly, format_sum,
                            mono_mul, mono_pow, parse_poly,
                            poly_from_monomials, poly_gen, poly_one,
                            poly_zero, rank_bits, xor_terms)


def pascal_mod2(rows: int) -> list[list[int]]:
    # oracle: the additive recursion, no bit tricks
    table = [[1]]
    for n in range(1, rows):
        prev = table[-1]
        table.append([1] + [(prev[i] + prev[i + 1]) % 2
                            for i in range(len(prev) - 1)] + [1])
    return table


def test_binom_against_pascal():
    table = pascal_mod2(64)
    for n, row in enumerate(table):
        for k, v in enumerate(row):
            assert binom_mod2(n, k) == v
    assert binom_mod2(5, -1) == 0
    assert binom_mod2(3, 7) == 0


def test_mono_ops():
    m = mono_mul((("x", 2),), (("x", 1), ("y", 3)))
    assert m == (("x", 3), ("y", 3))
    assert mono_mul(MONO_ONE, m) == m
    assert mono_pow(m, 2) == (("x", 6), ("y", 6))
    assert mono_pow(m, 0) == MONO_ONE
    with pytest.raises(ValueError):
        mono_pow(m, -1)


names = st_.sampled_from(["x", "y", "z"])
monomials = st_.lists(st_.tuples(names, st_.integers(1, 3)), max_size=3).map(
    lambda fs: tuple(sorted({g: e for g, e in fs}.items())))
polys = st_.frozensets(monomials, max_size=5).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + x == poly_zero()
    assert x * (y + z) == x * y + x * z
    assert x * poly_one() == x
    assert (x * y) ** 2 == x ** 2 * y ** 2


@settings(max_examples=40, deadline=None)
@given(polys, st_.integers(0, 5))
def test_poly_pow(x, e):
    expected = poly_one()
    for _ in range(e):
        expected = expected * x
    assert x ** e == expected


def test_poly_negative_power_raises():
    with pytest.raises(ValueError, match="negative exponent"):
        poly_gen("x") ** -1


def test_xor_terms_reads_a_stream_once():
    # a generator is summed in one pass: the terms met an odd number of times
    assert xor_terms(t for t in [(1, 0), (2, 0), (1, 0), (1, 0)]) == \
        frozenset({(1, 0), (2, 0)})
    assert xor_terms(iter([(1, 0), (1, 0)])) == frozenset()
    assert xor_terms([]) == frozenset()


def test_poly_seeded_samples():
    # wider net than the shrunk hypothesis cases, fixed seed
    rng = random.Random(2024)
    pool = ["x", "y", "z", "w"]

    def rand_poly():
        terms = []
        for _ in range(rng.randrange(0, 5)):
            picks = rng.sample(pool, rng.randrange(0, 4))
            terms.append(tuple(sorted((g, rng.randrange(1, 5)) for g in picks)))
        return poly_from_monomials(terms)

    for _ in range(1000):
        x, y, z = rand_poly(), rand_poly(), rand_poly()
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


def test_format_and_parse():
    p = poly_gen("x", 2) * poly_gen("y") + poly_one()
    s = format_poly(p)
    assert s == "1 + x^2*y"
    assert parse_poly(s) == p
    assert parse_poly("0") == poly_zero()
    assert parse_poly("1 + 1") == poly_zero()
    assert parse_poly("x*x") == poly_gen("x", 2)
    assert format_poly(poly_zero()) == "0"
    assert format_monomial(MONO_ONE) == "1"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + 2*y")
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poly("x^")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x + q", generators=["x"])
    for text in ("x +", "x*", "x ^", "x + *"):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert "position" in str(exc.value)


def test_format_monomial_and_sum():
    # the one writer of f^e*g + h: zero exponents drop out, exponent 1 is
    # bare, an empty product is 1 and an empty sum is 0
    assert format_monomial((("b", 2), ("t", 0), ("x", 1))) == "b^2*x"
    assert format_monomial([("a", 0), ("u", 0)]) == "1"
    assert format_monomial(MONO_ONE) == "1"
    assert format_sum(["x^2*y", "1"]) == "x^2*y + 1"
    assert format_sum(iter(())) == "0"


@settings(max_examples=50, deadline=None)
@given(polys)
def test_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def brute_rank(rows: list[int]) -> int:
    # oracle: size of the GF(2) span by enumeration
    span = set()
    for r in range(1 << len(rows)):
        v = 0
        for i, row in enumerate(rows):
            if r >> i & 1:
                v ^= row
        span.add(v)
    return len(span).bit_length() - 1


def test_echelon_rank_small():
    rng = random.Random(11)
    for _ in range(200):
        rows = [rng.randrange(0, 64) for _ in range(rng.randrange(0, 5))]
        assert rank_bits(rows) == brute_rank(rows)


def test_echelon_reduce_is_canonical():
    ech = GF2Echelon()
    ech.insert(0b110)
    ech.insert(0b011)
    # reduce is linear and kills exactly the span
    assert ech.reduce(0b110) == 0
    assert ech.reduce(0b101) == 0
    assert ech.reduce(0b100) == ech.reduce(0b010)
    assert ech.insert(0b101) is False
    assert ech.rank == 2
    for x, y in itertools.product(range(8), repeat=2):
        assert ech.reduce(x ^ y) == ech.reduce(x) ^ ech.reduce(y)
        assert ech.reduce(ech.reduce(x)) == ech.reduce(x)


def brute_span(rows):
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return span


def eliminated_pivots(rows, width):
    """The pivot columns of Gaussian elimination from the top column down."""
    rows, pivots = list(rows), set()
    for col in reversed(range(width)):
        pick = next((r for r in rows if r >> col & 1), None)
        if pick is not None:
            pivots.add(col)
            rows.remove(pick)
            rows = [r ^ pick if r >> col & 1 else r for r in rows]
    return pivots


def test_echelon_against_brute_force():
    rng = random.Random(28)
    for _ in range(300):
        width = rng.randrange(1, 11)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(9))]
        ech = GF2Echelon()
        for i, row in enumerate(rows):
            # dependent exactly when already in the span of the rows before
            assert ech.insert(row) is (row not in brute_span(rows[:i]))
        span = brute_span(rows)
        pivots = eliminated_pivots(rows, width)
        assert set(ech.pivots) == pivots and ech.rank == len(pivots)
        xs = (range(1 << width) if width <= 5
              else [rng.randrange(1 << width) for _ in range(16)])
        for x in xs:
            # the one vector of x + span with no pivot bit
            free = [v ^ x for v in span
                    if not any((v ^ x) >> p & 1 for p in pivots)]
            assert free == [ech.reduce(x)]
