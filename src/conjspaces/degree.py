"""RO(C2) degrees p + q*al, where al is the sign representation.

The trivial one-dimensional representation contributes p, the sign
representation contributes q; the underlying dimension is p + q.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .record import FrozenRecord


class RODegree(FrozenRecord):
    """Immutable degree p + q*al, ordered as the pair (p, q); > and >=
    fall back on the reflected < and <=."""

    __slots__ = ("p", "q")

    def __init__(self, p: int = 0, q: int = 0) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) < (other.p, other.q)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) <= (other.p, other.q)
        return NotImplemented

    def __add__(self, other: "RODegree") -> "RODegree":
        return RODegree(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "RODegree") -> "RODegree":
        return RODegree(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "RODegree":
        return RODegree(-self.p, -self.q)

    def scale(self, n: int) -> "RODegree":
        return RODegree(n * self.p, n * self.q)

    @property
    def dimension(self) -> int:
        return self.p + self.q

    def __str__(self) -> str:
        return format_degree(self)


ZERO = RODegree(0, 0)
ONE = RODegree(1, 0)
ALPHA = RODegree(0, 1)


def diagonal(n: int) -> RODegree:
    """The degree n + n*al."""
    return RODegree(n, n)


def format_degree(d: RODegree) -> str:
    return f"{d.p}{d.q:+d}*al"


_TERM = re.compile(r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+)(?P<star>\*?\s*al)?|(?P<al>al))\s*")


def parse_degree(text: str) -> RODegree:
    """Parse ``p+q*al`` style input, e.g. ``-1+1*al``, ``3+3*al``, ``al``, ``2``."""
    p = q = 0
    pos = 0
    saw_term = False
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("expected a degree term", text, pos)
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("al"):
            q += sign
        else:
            coef = int(m.group("coef"))
            if m.group("star"):
                q += sign * coef
            else:
                p += sign * coef
        saw_term = True
        pos = m.end()
    if not saw_term:
        raise ParseError("empty degree", text, 0)
    return RODegree(p, q)
