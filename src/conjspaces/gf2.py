"""GF(2) kernel shared by every layer above.

Scalars are plain ints 0/1 (addition is XOR).  Sparse polynomials over a
set of named generators store exactly the monomials with coefficient 1,
so adding an element to itself gives zero for free.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import ParseError
from .record import FrozenRecord

# A monomial is a sorted tuple of (generator name, positive exponent).
Monomial = tuple[tuple[str, int], ...]

MONO_ONE: Monomial = ()


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas: 1 iff the bits of k are a submask of n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return 1 if n & k == k else 0


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = dict(m1)
    for g, e in m2:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


def mono_pow(m: Monomial, e: int) -> Monomial:
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return MONO_ONE
    return tuple((g, k * e) for g, k in m)


def mono_degree(m: Monomial, degree_of: Mapping[str, int]) -> int:
    return sum(degree_of[g] * e for g, e in m)


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in m)


class Poly(FrozenRecord):
    """Sparse polynomial over GF(2); terms is a frozenset of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: frozenset) -> None:
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: set[Monomial] = set()
        for m1 in self.terms:
            for m2 in other.terms:
                acc ^= {mono_mul(m1, m2)}
        return Poly(frozenset(acc))

    def __pow__(self, e: int) -> "Poly":
        # In a commutative GF(2) ring, squaring distributes over sums.
        if e < 0:
            raise ValueError("negative exponent")
        result = poly_one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            base = Poly(frozenset(mono_pow(m, 2) for m in base.terms))
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def frobenius(self) -> "Poly":
        return Poly(frozenset(mono_pow(m, 2) for m in self.terms))

    def __str__(self) -> str:
        return format_poly(self)


def poly_zero() -> Poly:
    return Poly(frozenset())


def poly_one() -> Poly:
    return Poly(frozenset({MONO_ONE}))


def poly_gen(name: str, exp: int = 1) -> Poly:
    return Poly(frozenset({((name, exp),)}))


def poly_from_monomials(monos: Iterable[Monomial]) -> Poly:
    acc: set[Monomial] = set()
    for m in monos:
        acc ^= {m}
    return Poly(frozenset(acc))


def format_poly(p: Poly, key=None) -> str:
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=key) if key else sorted(p.terms)
    return " + ".join(format_monomial(m) for m in monos)


_POLY_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[\^*+]))")


def parse_poly(text: str, generators: Iterable[str] | None = None) -> Poly:
    """Parse sums of products like ``x^2*y + t1``; constants 0 and 1 allowed."""
    known = set(generators) if generators is not None else None
    pos = 0
    tokens: list[tuple[str, str, int]] = []
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError("unexpected character", text, pos)
            break
        for kind in ("name", "int", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    terms: list[Monomial] = []
    i = 0
    n = len(tokens)

    def parse_factor() -> tuple[str, int] | None:
        # returns (gen, exp), or None for the literal 1; "0" yields the
        # sentinel ("", 0) handled by the caller
        nonlocal i
        kind, val, at = tokens[i]
        if kind == "int":
            if val == "1":
                i += 1
                return None
            if val == "0":
                i += 1
                return ("", 0)
            raise ParseError("only the constants 0 and 1 are allowed", text, at)
        if kind != "name":
            raise ParseError("expected a generator name", text, at)
        if known is not None and val not in known:
            raise ParseError(f"unknown generator {val!r}", text, at)
        i += 1
        exp = 1
        if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
            i += 1
            if i >= n or tokens[i][0] != "int":
                raise ParseError("expected an integer exponent after '^'", text,
                                 tokens[i - 1][2])
            exp = int(tokens[i][1])
            if exp < 0:
                raise ParseError("negative exponent", text, tokens[i][2])
            i += 1
        return (val, exp)

    if n == 0:
        raise ParseError("empty polynomial", text, 0)
    while True:
        exps: dict[str, int] = {}
        zero_term = False
        while True:
            f = parse_factor()
            if f == ("", 0):
                zero_term = True
            elif f is not None:
                g, e = f
                if e > 0:
                    exps[g] = exps.get(g, 0) + e
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                continue
            break
        if not zero_term:
            terms.append(tuple(sorted(exps.items())))
        if i < n and tokens[i][0] == "op" and tokens[i][1] == "+":
            i += 1
            continue
        break
    if i < n:
        raise ParseError("trailing input", text, tokens[i][2])
    return poly_from_monomials(terms)


class GF2Echelon:
    """Incremental reduced row echelon form over GF(2), rows as bitmasks."""

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}

    def reduce(self, row: int) -> int:
        out = 0
        while row:
            lead = row.bit_length() - 1
            piv = self.pivots.get(lead)
            if piv is None:
                out |= 1 << lead
                row ^= 1 << lead
            else:
                row ^= piv
        return out

    def insert(self, row: int) -> bool:
        """Add a row to the span; False when it was already dependent."""
        row = self.reduce(row)
        if row == 0:
            return False
        lead = row.bit_length() - 1
        # keep the set fully reduced so reduce() stays canonical
        for other_lead, other in list(self.pivots.items()):
            if other >> lead & 1:
                self.pivots[other_lead] = other ^ row
        self.pivots[lead] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_bits(rows: Iterable[int]) -> int:
    ech = GF2Echelon()
    for r in rows:
        ech.insert(r)
    return ech.rank


class GradedVector(FrozenRecord):
    """Finite list of named basis classes per non-negative integer degree."""

    __slots__ = ("bound", "names")

    def __init__(self, bound: int, names: tuple) -> None:
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "names", names)  # of (degree, names), sorted

    def classes_at(self, d: int) -> tuple[str, ...]:
        for deg, ns in self.names:
            if deg == d:
                return ns
        return ()

    def dim(self, d: int) -> int:
        return len(self.classes_at(d))

    def degrees(self) -> list[int]:
        return [deg for deg, _ in self.names]


def graded_vector(bound: int, names_by_degree: Mapping[int, Iterable[str]]) -> GradedVector:
    items = []
    seen: set[str] = set()
    for d in sorted(names_by_degree):
        ns = tuple(names_by_degree[d])
        if not ns:
            continue
        if d < 0 or d > bound:
            raise ValueError(f"degree {d} outside 0..{bound}")
        for nme in ns:
            if nme in seen:
                raise ValueError(f"duplicate class name {nme!r}")
            seen.add(nme)
        items.append((d, ns))
    return GradedVector(bound, tuple(items))
