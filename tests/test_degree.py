import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conjspaces.degree import (ALPHA, ONE, RODegree, ZERO, diagonal,
                               format_degree, parse_degree)
from conjspaces.errors import ParseError

degrees = st_.builds(RODegree, st_.integers(-30, 30), st_.integers(-30, 30))


@settings(max_examples=60, deadline=None)
@given(degrees, degrees)
def test_arithmetic(d1, d2):
    assert d1 + d2 == RODegree(d1.p + d2.p, d1.q + d2.q)
    assert d1 - d2 + d2 == d1
    assert -(-d1) == d1
    assert d1.scale(3) == d1 + d1 + d1
    assert (d1 + d2).dimension == d1.dimension + d2.dimension


def test_constants():
    assert ZERO == RODegree(0, 0)
    assert ONE + ALPHA == diagonal(1)
    assert ALPHA.dimension == 1


def test_format_pinned():
    assert format_degree(RODegree(-1, 1)) == "-1+1*al"
    assert format_degree(RODegree(3, 3)) == "3+3*al"
    assert format_degree(RODegree(0, -2)) == "0-2*al"
    assert str(RODegree(2, 0)) == "2+0*al"


def test_parse_forms():
    assert parse_degree("-1+1*al") == RODegree(-1, 1)
    assert parse_degree("3+3*al") == RODegree(3, 3)
    assert parse_degree("al") == ALPHA
    assert parse_degree("2") == RODegree(2, 0)
    assert parse_degree("-al+1") == RODegree(1, -1)
    assert parse_degree("2*al") == RODegree(0, 2)
    with pytest.raises(ParseError):
        parse_degree("")
    with pytest.raises(ParseError):
        parse_degree("1+beta")


@settings(max_examples=60, deadline=None)
@given(degrees)
def test_parse_round_trip(d):
    assert parse_degree(format_degree(d)) == d
