"""The RO(C2)-graded coefficient ring of the constant mod-2 Mackey functor.

The ring is a square-zero extension: a polynomial cone F[a, u] with
|a| = al and |u| = -1 + al (cohomologically), plus a negative cone of
monomials th[i, j] standing for theta * a^-i * u^-j with i >= 0 and
j >= 2.  Products of two negative-cone elements vanish; the positive
cone acts on the negative cone by shifting exponents while they stay in
range.  Every nonzero homogeneous piece is one-dimensional, which is
what the degree chart records.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterator

from .degree import RODegree
from .errors import ParseError
from .gf2 import (TermSet, format_monomial, format_sum, homogeneous_degree,
                  parse_sum, xor_terms)
from .record import FrozenRecord

# positive-cone monomial: (a_exp, u_exp); negative-cone monomial: (i, j), j >= 2


class CoeffElem(FrozenRecord):
    __slots__ = ("pos", "neg")

    def __init__(self, pos: frozenset, neg: frozenset) -> None:
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pos == other.pos and self.neg == other.neg
        return NotImplemented

    def __hash__(self):
        return hash((self.pos, self.neg))

    def __add__(self, other: "CoeffElem") -> "CoeffElem":
        return CoeffElem(self.pos ^ other.pos, self.neg ^ other.neg)

    def __mul__(self, other: "CoeffElem") -> "CoeffElem":
        return coeff_mul(self, other)

    def __bool__(self) -> bool:
        return bool(self.pos) or bool(self.neg)

    def __str__(self) -> str:
        return format_coeff(self)


def coeff_zero() -> CoeffElem:
    return CoeffElem(frozenset(), frozenset())


def coeff_one() -> CoeffElem:
    return CoeffElem(frozenset({(0, 0)}), frozenset())


def coeff_a(k: int = 1) -> CoeffElem:
    return coeff_pos(k, 0)


def coeff_u(n: int = 1) -> CoeffElem:
    return coeff_pos(0, n)


def coeff_pos(k: int, n: int) -> CoeffElem:
    if k < 0 or n < 0:
        raise ValueError("positive-cone exponents must be non-negative")
    return CoeffElem(frozenset({(k, n)}), frozenset())


def coeff_theta(i: int, j: int) -> CoeffElem:
    if i < 0 or j < 2:
        raise ValueError("negative-cone monomial needs i >= 0 and j >= 2")
    return CoeffElem(frozenset(), frozenset({(i, j)}))


def pos_degree(k: int, n: int) -> RODegree:
    return RODegree(-n, n + k)


def neg_degree(i: int, j: int) -> RODegree:
    return RODegree(j, -(i + j))


def pos_neg_mul(m: tuple[int, int], t: tuple[int, int]) -> tuple[int, int] | None:
    """a^k u^n * th[i, j] = th[i-k, j-n], or None once out of range."""
    k, n = m
    i, j = t
    i2, j2 = i - k, j - n
    if i2 >= 0 and j2 >= 2:
        return (i2, j2)
    return None


def coeff_mul(x: CoeffElem, y: CoeffElem) -> CoeffElem:
    pos = xor_terms((k1 + k2, n1 + n2) for k1, n1 in x.pos for k2, n2 in y.pos)
    # the positive cone acts on the negative cone; neg * neg = 0, as the
    # ideal squares to zero
    neg = xor_terms(r for m, t in chain(product(x.pos, y.neg),
                                        product(y.pos, x.neg))
                    if (r := pos_neg_mul(m, t)) is not None)
    return CoeffElem(pos, neg)


def coeff_degree(x: CoeffElem) -> RODegree | None:
    """Common degree of all terms; None for zero; raises if mixed."""
    return homogeneous_degree([pos_degree(*m) for m in x.pos]
                              + [neg_degree(*t) for t in x.neg])


def coeff_basis_monomial(d: RODegree) -> CoeffElem:
    """The unique basis monomial in degree d, or zero: a^k u^n of degree
    (-n, n + k), or th[i, j] of degree (j, -(i + j))."""
    if d.p <= 0 and d.p + d.q >= 0:
        return coeff_pos(d.p + d.q, -d.p)
    if d.p >= 2 and d.p + d.q <= 0:
        return coeff_theta(-(d.p + d.q), d.p)
    return coeff_zero()


# ---------------------------------------------------------------------------
# Mackey chart


class MackeyShape(FrozenRecord):
    """Lewis diagram of a C2 Mackey functor over F with cyclic values.

    rho restricts from the fixed level to the free level, tr transfers
    back, theta is the residual action on the free level.  All maps are
    scalars 0/1; maps into or out of a zero group are 0.
    """

    __slots__ = ("tag", "dim_pt", "dim_c2", "rho", "tr", "theta")

    def __init__(self, tag: str, dim_pt: int, dim_c2: int, rho: int, tr: int,
                 theta: int) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "dim_pt", dim_pt)
        object.__setattr__(self, "dim_c2", dim_c2)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tr", tr)
        object.__setattr__(self, "theta", theta)


SHAPE_FBAR = MackeyShape("Fbar", 1, 1, rho=1, tr=0, theta=1)
SHAPE_DOT = MackeyShape("dot", 1, 0, rho=0, tr=0, theta=0)
SHAPE_L = MackeyShape("L", 1, 1, rho=0, tr=1, theta=1)
SHAPE_LMINUS = MackeyShape("Lminus", 0, 1, rho=0, tr=0, theta=1)
SHAPE_ZERO = MackeyShape("0", 0, 0, rho=0, tr=0, theta=0)

SHAPES = {s.tag: s for s in (SHAPE_FBAR, SHAPE_DOT, SHAPE_L, SHAPE_LMINUS, SHAPE_ZERO)}


def lewis_relations_hold(s: MackeyShape) -> bool:
    """tr.theta = tr, theta.rho = rho, theta^2 = id, rho.tr = 1 + theta."""
    if s.dim_c2 == 0:
        return s.rho == 0 and s.tr == 0 and s.theta == 0
    checks = [
        (s.tr * s.theta - s.tr) % 2 == 0,
        (s.theta * s.rho - s.rho) % 2 == 0,
        s.theta == 1,  # theta^2 = id over F forces theta = 1 componentwise
        (s.rho * s.tr) % 2 == (1 + s.theta) % 2,
    ]
    return all(checks)


def chart_lookup(d: RODegree) -> MackeyShape:
    """Shape of the coefficient Mackey functor in degree d."""
    p, q = d.p, d.q
    if p <= 0 and p + q == 0:
        return SHAPE_FBAR
    if p <= 0 and p + q >= 1:
        return SHAPE_DOT
    if p >= 2 and p + q == 0:
        return SHAPE_L
    if p >= 2 and p + q <= -1:
        return SHAPE_DOT
    return SHAPE_ZERO


def chart_rows(pmin: int, pmax: int, qmin: int, qmax: int) -> Iterator[str]:
    """CSV rows p,q,shape, made as they are read; q descending inside p
    ascending.  An empty range raises here, before any row is read."""
    if pmin > pmax or qmin > qmax:
        raise ValueError("empty chart range")
    return (f"{p},{q},{chart_lookup(RODegree(p, q)).tag}"
            for p in range(pmin, pmax + 1) for q in range(qmax, qmin - 1, -1))


# ---------------------------------------------------------------------------
# Restriction to the free level

def restriction(x: CoeffElem) -> frozenset:
    """Underlying-level image: u^n -> {n}; a-divisible and negative-cone -> empty.

    The value is a set of u-exponents in F[u^{+-1}]; homogeneous input
    gives at most a singleton.
    """
    coeff_degree(x)  # rejects non-homogeneous input
    return xor_terms(n for k, n in x.pos if k == 0)


def u_laurent_mul(s1: frozenset, s2: frozenset) -> frozenset:
    return xor_terms(n1 + n2 for n1 in s1 for n2 in s2)


# ---------------------------------------------------------------------------
# The shadow ring F[a^{+-1}, u]

class LaurentElem(TermSet):
    """An element of F[a^{+-1}, u], the ring phi_shadow lands in; terms is
    a frozenset of (a_exp, u_exp) with u_exp >= 0.  A product adds
    exponents, so it keeps u_exp >= 0."""

    __slots__ = ("terms",)

    def __mul__(self, other: "LaurentElem") -> "LaurentElem":
        return LaurentElem(xor_terms((a1 + a2, u1 + u2)
                                     for a1, u1 in self.terms
                                     for a2, u2 in other.terms))

    def __str__(self) -> str:
        return format_laurent(self)


def phi_shadow(x: CoeffElem) -> LaurentElem:
    """Image in F[a^{+-1}, u]: the polynomial cone maps through, the
    negative cone is a-power-torsion and dies."""
    return LaurentElem(x.pos)


def shadow_projection(e: LaurentElem, k: int) -> int:
    """pr_k: parity of the monomials with u-exponent k (the component of
    the wedge summand in integral degree k)."""
    return sum(1 for _, u_exp in e.terms if u_exp == k) % 2


# ---------------------------------------------------------------------------
# Free HF-modules


class CoeffRingBasis:
    """Basis monomials of the coefficient ring, tagged by cone."""

    def monomials_of_degree(self, d: RODegree) -> list:
        x = coeff_basis_monomial(d)
        return [("au", *m) for m in x.pos] + [("th", *t) for t in x.neg]


HF_BASIS = CoeffRingBasis()


def free_module_basis(summands, d: RODegree) -> list:
    """Basis in degree d of a sum of copies of HF, one per (name, shift)
    summand with its generator in degree shift: the pairs (coefficient
    monomial, name), sorted by name and then monomial."""
    out = [(mono, name) for name, shift in summands
           for mono in HF_BASIS.monomials_of_degree(d - shift)]
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# ---------------------------------------------------------------------------
# Formatting / parsing of the coefficient grammar: a^k*u^n, th[i,j], sums


def format_pos_monomial(m: tuple[int, int]) -> str:
    return format_monomial(zip("au", m))


def format_coeff(x: CoeffElem) -> str:
    parts = [format_pos_monomial(m) for m in sorted(x.pos, key=lambda m: (m[1], m[0]))]
    parts += [f"th[{i},{j}]" for i, j in sorted(x.neg, key=lambda t: (t[1], t[0]))]
    return format_sum(parts)


def format_laurent(e: LaurentElem) -> str:
    return format_sum(format_pos_monomial(m)
                      for m in sorted(e.terms, key=lambda t: (t[1], t[0])))


def parse_coeff(text: str) -> CoeffElem:
    """Parse sums of products of a, u, 0, 1 and th[i,j], with powers."""

    def atom(word: str, at: int, tokens):
        """The factor as a map from its exponent to its power."""
        if word == "a":
            return lambda e: coeff_pos(e, 0)
        if word == "u":
            return lambda e: coeff_pos(0, e)
        if word == "1":
            return lambda e: coeff_one()
        if word == "0":
            return lambda e: coeff_one() if e == 0 else coeff_zero()
        if word != "th":
            raise ParseError("expected a, u, 0, 1 or th[i,j]", text, at)
        tokens.expect("[")
        i = tokens.integer()
        tokens.expect(",")
        j = tokens.integer()
        tokens.expect("]")
        if j < 2:
            raise ParseError("th[i,j] needs i >= 0 and j >= 2", text, at)
        theta = coeff_theta(i, j)
        # the negative cone squares to zero
        return lambda e: coeff_one() if e == 0 else theta if e == 1 else coeff_zero()

    result = coeff_zero()
    for term in parse_sum(text, atom):
        value = coeff_one()
        for power, e in term:
            value = value * power(e)
        result = result + value
    return result
