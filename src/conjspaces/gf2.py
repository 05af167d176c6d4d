"""GF(2) kernel shared by every layer above.

Scalars are plain ints 0/1 (addition is XOR).  Sparse polynomials over a
set of named generators store exactly the monomials with coefficient 1,
so adding an element to itself gives zero for free.
"""

from __future__ import annotations

import re
from typing import Iterable

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


def format_monomial(m: Iterable[tuple[str, int]]) -> str:
    """Write the factors (name, exponent) as ``f^e*g``, leaving out the zero
    exponents; ``1`` when no factor is left."""
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in m if e) or "1"


def format_sum(parts: Iterable[str]) -> str:
    """Write the terms as ``f + g``; ``0`` when there are none."""
    return " + ".join(parts) or "0"


def homogeneous_degree(degrees: Iterable, what: str = "element"):
    """The one degree among degrees, as of the terms of an element: None
    when there are none, ValueError when there are two."""
    degs = set(degrees)
    if len(degs) > 1:
        raise ValueError(f"{what} is not homogeneous")
    return degs.pop() if degs else None


def xor_terms(terms: Iterable) -> frozenset:
    """The GF(2) sum of a stream of terms, read once: the terms it holds an
    odd number of times."""
    acc: set = set()
    for t in terms:
        acc ^= {t}
    return frozenset(acc)


class TermSet(FrozenRecord):
    """GF(2) vector stored as the frozenset of its terms, so a sum is the
    symmetric difference.  It equals only a value of its own class with
    the same terms.  A subclass names the field: __slots__ = ("terms",)."""

    __slots__ = ()

    def __init__(self, terms: frozenset) -> None:
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    def __add__(self, other):
        return self.__class__(self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


class Poly(TermSet):
    """Sparse polynomial over GF(2); terms is a frozenset of monomials."""

    __slots__ = ("terms",)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(xor_terms(mono_mul(m1, m2) for m1 in self.terms
                              for m2 in other.terms))

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

    def __str__(self) -> str:
        return format_poly(self)


def poly_zero() -> Poly:
    return Poly(frozenset())


def poly_one() -> Poly:
    return Poly(frozenset({MONO_ONE}))


def poly_gen(name: str, exp: int = 1) -> Poly:
    return Poly(frozenset({((name, exp),)}))


def poly_from_monomials(monos: Iterable[Monomial]) -> Poly:
    return Poly(xor_terms(monos))


def format_poly(p: Poly) -> str:
    return format_sum(format_monomial(m) for m in sorted(p.terms))


# One tokenizer for every sum-of-products grammar: names (NAME), integers,
# the operators ^ * + and the brackets of th[i,j].
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*(?:({NAME}|\d+)|([\^*+\[\],]))")
_OPERATORS = frozenset("^*+[],")


class Tokens:
    """Cursor over the tokens of one input; each token is (text, position)."""

    __slots__ = ("text", "items", "i")

    def __init__(self, text: str) -> None:
        self.text = text
        self.items: list[tuple[str, int]] = []
        self.i = 0
        pos = 0
        while (m := _TOKEN.match(text, pos)) is not None:
            self.items.append((m.group(m.lastindex), m.start(m.lastindex)))
            pos = m.end()
        rest = text[pos:]
        if rest.strip():
            raise ParseError("unexpected character", text,
                             pos + len(rest) - len(rest.lstrip()))

    def at(self) -> int:
        """Position of the next token, or the end of the input."""
        return self.items[self.i][1] if self.i < len(self.items) else len(self.text)

    def take(self) -> str | None:
        if self.i == len(self.items):
            return None
        self.i += 1
        return self.items[self.i - 1][0]

    def skip(self, op: str) -> bool:
        """Consume the next token if it is op."""
        if self.i < len(self.items) and self.items[self.i][0] == op:
            self.i += 1
            return True
        return False

    def expect(self, op: str) -> None:
        if not self.skip(op):
            raise ParseError(f"expected {op!r}", self.text, self.at())

    def integer(self, what: str = "an integer") -> int:
        at = self.at()
        word = self.take()
        if word is None or not word[0].isdigit():
            raise ParseError(f"expected {what}", self.text, at)
        return int(word)


def parse_sum(text: str, atom) -> list[list[tuple[object, int]]]:
    """Read ``f^e*g + h``: the terms, each a list of (factor, exponent).

    ``atom(word, at, tokens)`` turns a factor's leading name or integer
    (at position ``at``) into a factor, reading any further tokens it
    owns, such as the brackets of ``th[i,j]``, from ``tokens``.
    """
    tokens = Tokens(text)
    if not tokens.items:
        raise ParseError("empty expression", text, 0)
    terms = []
    while True:
        term = []
        while True:
            at = tokens.at()
            word = tokens.take()
            if word is None or word in _OPERATORS:
                raise ParseError("expected a factor", text, at)
            factor = atom(word, at, tokens)
            exp = 1
            if tokens.skip("^"):
                exp = tokens.integer("an integer exponent after '^'")
            term.append((factor, exp))
            if not tokens.skip("*"):
                break
        terms.append(term)
        if not tokens.skip("+"):
            break
    if tokens.i < len(tokens.items):
        raise ParseError("trailing input", text, tokens.at())
    return terms


def parse_poly(text: str, generators: Iterable[str] | None = None) -> Poly:
    """Parse sums of products like ``x^2*y + t1``; constants 0 and 1 allowed."""
    known = set(generators) if generators is not None else None

    def atom(word: str, at: int, tokens: Tokens) -> str:
        if word[0].isdigit():
            if word not in ("0", "1"):
                raise ParseError("only the constants 0 and 1 are allowed", text, at)
        elif known is not None and word not in known:
            raise ParseError(f"unknown generator {word!r}", text, at)
        return word

    terms: list[Monomial] = []
    for term in parse_sum(text, atom):
        exps: dict[str, int] = {}
        for g, e in term:
            if e == 0 or g == "1":
                continue
            if g == "0":
                break
            exps[g] = exps.get(g, 0) + e
        else:
            terms.append(tuple(sorted(exps.items())))
    return poly_from_monomials(terms)


class GF2Echelon:
    """Incremental row echelon form over GF(2), rows as bitmasks, keyed
    by their lead bits (the pivots)."""

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
        """Add a row to the span; False when it was already dependent.

        The stored rows are not reduced against later pivots, and reduce()
        needs no more: its result has no pivot bit and differs from its
        input by an element of the span.  The top bit of a nonzero element
        of the span is a pivot, so two such results for one input are
        equal.  The pivots, the rank and the answer here depend only on
        the span and the order of the inserts."""
        row = self.reduce(row)
        if row == 0:
            return False
        self.pivots[row.bit_length() - 1] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_bits(rows: Iterable[int]) -> int:
    ech = GF2Echelon()
    for r in rows:
        ech.insert(r)
    return ech.rank

