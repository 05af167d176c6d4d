"""Coefficient ring, Mackey chart, restriction, character shadows.

Oracle: the one-dimensionality of the chart is checked against a plain
enumeration of all ring monomials, written before the closed-form chart
was trusted; frozen spot values pin individual cells.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conjspaces import coefficients as co
from conjspaces.degree import RODegree
from conjspaces.errors import ParseError

# frozen chart cells: (p, q) -> shape tag
CHART_SPOTS = {
    (0, 0): "Fbar", (-5, 5): "Fbar", (-3, 3): "Fbar",
    (0, 3): "dot", (-2, 4): "dot", (0, 1): "dot",
    (2, -2): "L", (7, -7): "L",
    (3, -5): "dot", (2, -3): "dot", (5, -6): "dot",
    (1, 0): "0", (1, 5): "0", (1, -4): "0",
    (0, -3): "0", (0, -10): "0", (-2, 1): "0", (3, -2): "0",
    (2, 2): "0", (-1, -1): "0",
}


def enumerate_monomials(window: int) -> Counter:
    counts: Counter = Counter()
    for k in range(0, 2 * window + 2):
        for n in range(0, 2 * window + 2):
            counts[co.pos_degree(k, n)] += 1
    for i in range(0, 2 * window + 2):
        for j in range(2, 2 * window + 2):
            counts[co.neg_degree(i, j)] += 1
    return counts


def test_chart_spots_frozen():
    for (p, q), tag in CHART_SPOTS.items():
        assert co.chart_lookup(RODegree(p, q)).tag == tag, (p, q)


def test_chart_matches_enumeration():
    counts = enumerate_monomials(12)
    for p in range(-12, 13):
        for q in range(-12, 13):
            d = RODegree(p, q)
            assert counts[d] == co.chart_lookup(d).dim_pt, d
            mono = co.coeff_basis_monomial(d)
            assert bool(mono) == (counts[d] == 1)
            if mono:
                assert co.coeff_degree(mono) == d


def test_degree_formulas():
    # cohomological |a| = al and |u| = -1 + al
    assert co.pos_degree(1, 0) == RODegree(0, 1)
    assert co.pos_degree(0, 1) == RODegree(-1, 1)
    assert co.neg_degree(0, 2) == RODegree(2, -2)
    assert co.neg_degree(3, 4) == RODegree(4, -7)
    assert co.coeff_degree(co.coeff_pos(2, 3)) == RODegree(-3, 5)


def test_products_frozen():
    a, u = co.coeff_a(), co.coeff_u()
    th = co.coeff_theta
    assert a * th(1, 3) == th(0, 3)
    assert not a * th(0, 3)
    assert u * th(1, 3) == th(1, 2)
    assert not u * th(1, 2)
    assert not th(0, 2) * th(1, 5)
    assert a * u == co.coeff_pos(1, 1)
    assert (a + u) * (a + u) == co.coeff_pos(2, 0) + co.coeff_pos(0, 2)
    assert co.coeff_one() * th(2, 4) == th(2, 4)


def test_theta_validation():
    with pytest.raises(ValueError):
        co.coeff_theta(-1, 3)
    with pytest.raises(ValueError):
        co.coeff_theta(0, 1)
    with pytest.raises(ValueError):
        co.coeff_pos(-1, 0)


def test_degree_mixed_raises():
    x = co.coeff_a() + co.coeff_u()
    with pytest.raises(ValueError):
        co.coeff_degree(x)
    assert co.coeff_degree(co.coeff_zero()) is None


small = st_.integers(0, 6)


@settings(max_examples=60, deadline=None)
@given(small, small, small, st_.integers(2, 8))
def test_pos_neg_action(k, n, i, j):
    prod = co.coeff_pos(k, n) * co.coeff_theta(i, j)
    if i - k >= 0 and j - n >= 2:
        assert prod == co.coeff_theta(i - k, j - n)
        assert co.coeff_degree(prod) == co.pos_degree(k, n) + co.neg_degree(i, j)
    else:
        assert not prod


def _window_monos(w):
    out = []
    for p in range(-w, w + 1):
        for q in range(-w, w + 1):
            m = co.coeff_basis_monomial(RODegree(p, q))
            if m:
                out.append(m)
    return out


def test_ring_laws_on_basis():
    monos = _window_monos(5)
    one = co.coeff_one()
    for x in monos:
        assert one * x == x
        for y in monos:
            assert x * y == y * x
            for z in monos[:8]:
                assert (x * y) * z == x * (y * z)


def test_lewis_relations():
    bad = co.MackeyShape("bad", 1, 1, rho=1, tr=1, theta=1)
    assert not co.lewis_relations_hold(bad)


def test_shape_dims():
    assert co.SHAPE_FBAR.dim_c2 == 1 and co.SHAPE_FBAR.rho == 1
    assert co.SHAPE_DOT.dim_c2 == 0
    assert co.SHAPE_L.tr == 1 and co.SHAPE_L.rho == 0
    assert co.SHAPE_ZERO.dim_pt == 0
    # theta acts as the identity wherever the free level is nonzero
    for s in co.SHAPES.values():
        if s.dim_c2:
            assert s.theta == 1


def test_chart_rows_order():
    rows = list(co.chart_rows(-1, 0, -1, 1))
    assert rows == [
        "-1,1,Fbar", "-1,0,0", "-1,-1,0",
        "0,1,dot", "0,0,Fbar", "0,-1,0",
    ]
    with pytest.raises(ValueError):
        co.chart_rows(1, 0, 0, 0)


def test_restriction():
    assert co.restriction(co.coeff_a()) == frozenset()
    assert co.restriction(co.coeff_u(2)) == frozenset({2})
    assert co.restriction(co.coeff_one()) == frozenset({0})
    assert co.restriction(co.coeff_theta(1, 4)) == frozenset()
    with pytest.raises(ValueError):
        co.restriction(co.coeff_a() + co.coeff_u())


def test_phi_shadow():
    x = co.coeff_pos(2, 1)
    s = co.phi_shadow(x)
    assert s.terms == frozenset({(2, 1)})
    assert not co.phi_shadow(co.coeff_theta(0, 2))


def test_shadow_product():
    # F[a^{+-1}, u]: exponents add, and the two products a^0*u cancel
    x = co.LaurentElem(frozenset({(-2, 1), (1, 0)}))
    y = co.LaurentElem(frozenset({(2, 0), (-1, 1)}))
    assert x * y == co.LaurentElem(frozenset({(3, 0), (-3, 2)}))
    assert str(x) == "a + a^-2*u"


def test_shadow_projection():
    e = co.LaurentElem(frozenset({(3, 0), (1, 2), (0, 2)}))
    assert co.shadow_projection(e, 0) == 1
    assert co.shadow_projection(e, 2) == 0
    assert co.shadow_projection(e, 1) == 0


def test_tensor_module():
    summands = (("e", RODegree(0, 0)), ("f", RODegree(3, 0)))
    at = co.free_module_basis(summands, RODegree(3, 0))
    # e needs a ring monomial at 3+0*al (none), f needs one at 0 (the unit)
    assert at == [(("au", 0, 0), "f")]
    at2 = co.free_module_basis(summands, RODegree(0, 1))
    assert at2 == [(("au", 1, 0), "e")]
    at3 = co.free_module_basis(summands, RODegree(5, -2))
    assert at3 == [(("th", 0, 2), "f")]


def test_format_coeff_pinned():
    x = co.coeff_pos(2, 1) + co.coeff_pos(0, 3) + co.coeff_theta(1, 2)
    # positive cone sorted by (u-exp, a-exp), then the negative cone
    assert co.format_coeff(x) == "a^2*u + u^3 + th[1,2]"
    assert co.format_coeff(co.coeff_zero()) == "0"
    assert co.format_coeff(co.coeff_one()) == "1"


def test_parse_coeff():
    assert co.parse_coeff("a^2*u + th[1,2] + u^3") == (
        co.coeff_pos(2, 1) + co.coeff_theta(1, 2) + co.coeff_pos(0, 3))
    assert co.parse_coeff("1") == co.coeff_one()
    assert co.parse_coeff("a*a*u") == co.coeff_pos(2, 1)
    with pytest.raises(ParseError):
        co.parse_coeff("")
    with pytest.raises(ParseError):
        co.parse_coeff("th[1]")
    with pytest.raises(ParseError):
        co.parse_coeff("b^2")
    with pytest.raises(ParseError):
        co.parse_coeff("th[0,1]")
    # no grammar has signed integers, not even -0
    for text in ("a*", "a *", "th[1,3]*", "a^2*u +", "a^-0", "th[-0,2]"):
        with pytest.raises(ParseError):
            co.parse_coeff(text)
    # th[i,j] multiplies like any other factor
    assert co.parse_coeff("a*th[1,3]") == co.coeff_theta(0, 3)
    assert co.parse_coeff("th[1,3]*u") == co.coeff_theta(1, 2)
    assert co.parse_coeff("a^2*th[1,3]") == co.coeff_zero()
    assert co.parse_coeff("th[1,3]^2 + th[0,2]^0") == co.coeff_one()


@settings(max_examples=60, deadline=None)
@given(st_.lists(st_.one_of(
    st_.tuples(st_.just("pos"), st_.integers(0, 5), st_.integers(0, 5)),
    st_.tuples(st_.just("neg"), st_.integers(0, 5), st_.integers(2, 6))),
    min_size=1, max_size=4))
def test_parse_format_round_trip(parts):
    x = co.coeff_zero()
    for kind, i, j in parts:
        x = x + (co.coeff_pos(i, j) if kind == "pos" else co.coeff_theta(i, j))
    if x:
        assert co.parse_coeff(co.format_coeff(x)) == x


@settings(max_examples=60, deadline=None)
@given(st_.frozensets(st_.tuples(st_.integers(0, 5), st_.integers(0, 5)),
                      min_size=1, max_size=4))
def test_laurent_format_reads_back(terms):
    # a Laurent element with no negative exponent is written in the
    # coefficient grammar and reads back as the same positive-cone element
    e = co.LaurentElem(terms)
    want = co.CoeffElem(terms, frozenset())
    assert co.parse_coeff(co.format_laurent(e)) == want


CHART_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "print_chart.py"


def test_print_chart_script():
    proc = subprocess.run(
        [sys.executable, str(CHART_SCRIPT), "--pmin", "-3", "--pmax", "3",
         "--qmin", "-3", "--qmax", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # a header, the rows q = 3 .. -3, a blank line and the legend
    assert len(lines) == 10
    assert lines[4] == "    0            F         "
    assert lines[-1] == "rows: coefficient of al; columns: integer part"


def test_print_chart_script_rejects_empty_window():
    proc = subprocess.run([sys.executable, str(CHART_SCRIPT),
                           "--pmin", "3", "--pmax", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "empty window" in proc.stderr
