"""Mod-2 Steenrod squares on finitely presented unstable algebras.

An algebra is described by generators with positive degrees, homogeneous
relations, and the squares of the generators; the Cartan formula and
instability force everything else.  Reduction modulo the relations works
degree by degree with exact GF(2) linear algebra, so any homogeneous
relations are accepted, not just truncations.

Each algebra keeps what its reductions, products and squares have met,
filled lazily as they meet it: the degree of each relation, the
monomials and the relation echelon of each degree, the least degree from
which it is known to vanish, the degree of each monomial, its normal
form as a row of bits over the monomials of its degree, the product of
each pair of monomials as such a row, the total square of each
generator, and the total square of each monomial m as one such row per
degree, made from that of m/g, g the last generator of m, by the Cartan
step Sq(m) = Sq(m/g) Sq(g).  No table is built from the vanishing degree
on, and its rows are 0.  A sum is reduced or squared by XORing cached
rows per degree and decoding the set bits once, in the degrees asked
for only.  Other modules read normal forms only through `rows`,
`decode` and `product_rows`, so the bit layout of a row is known here
alone.  `squares` is the one reader of whole total squares, as
i -> Sq^i x: the Steinberg classes and the frame verdicts read them
there, and `sq` decodes one degree.  The caches belong to the
instance: two algebras with the same generator names and other
relations, or another bound, must not share answers.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from .errors import DegreeOverflowError
from .gf2 import (GF2Echelon, Monomial, MONO_ONE, Poly, TermSet,
                  format_monomial, format_sum, homogeneous_degree, mono_mul,
                  poly_from_monomials, xor_terms)
from .record import Record

GradedPoly = dict[int, Poly]  # degree -> homogeneous part

_VANISHED = (None, None, ())  # _table from the vanishing degree on


class UnstableAlgebra:
    """F[generators]/(relations) through degree bound, with the squares.

    sq_rules is the square table as given, read-only: (g, i) -> Sq^i g
    for each listed 0 < i <= |g|, unreduced; a square it leaves out is 0
    below the top, and Sq^{|g|} g = g^2.

    The algebra vanishes from degree k on, through the bound, once the
    g degrees k .. k+g-1 have empty bases, g the largest generator
    degree.  A monomial of degree at least k loses at most g in degree
    each time one generator is stripped from it, so stripping one at a
    time reaches a factor with degree in k .. k+g-1.  That factor is in
    the relation ideal, so the monomial is too.  _table keeps the least
    such k it meets, found when a degree with an empty basis follows
    g - 1 degrees that are cached with empty bases or have no monomial
    at all; from k on no table is built, and the rows of _row, _product
    and _total_rows are 0 there.  Which k is found depends on the
    degrees asked for and their order; the answers do not."""

    def __init__(self,
                 generators: Iterable[tuple[str, int]],
                 relations: Iterable[Poly] = (),
                 sq: Mapping[str, Mapping[int, Poly]] | None = None,
                 bound: int = 40,
                 name: str = ""):
        self.name = name
        self.bound = int(bound)
        if self.bound < 0:
            raise ValueError("bound must be non-negative")
        self.generators = tuple(generators)
        self.degree_of: dict[str, int] = {}
        for g, d in self.generators:
            if d < 1:
                raise ValueError(f"generator {g!r} must have positive degree")
            if g in self.degree_of:
                raise ValueError(f"duplicate generator {g!r}")
            self.degree_of[g] = d
        self._degrees: dict[Monomial, int] = {}
        self.relations = tuple(relations)
        # None for a zero relation; poly_degree raises for a mixed one
        self._relation_degrees = tuple(map(self.poly_degree, self.relations))
        self.sq_rules: dict[tuple[str, int], Poly] = {}
        for g, table in (sq or {}).items():
            if g not in self.degree_of:
                raise ValueError(f"square table names unknown generator {g!r}")
            dg = self.degree_of[g]
            for i, val in table.items():
                i = int(i)
                if i <= 0:
                    raise ValueError("square indices must be positive")
                if i > dg and val:
                    raise ValueError(
                        f"Sq^{i} on {g!r} of degree {dg} must vanish")
                if i <= dg:
                    self.sq_rules[(g, i)] = val
        self._monos: dict[int, tuple[Monomial, ...]] = {}
        # (i, r) -> monomials of degree r in the generators from the i-th
        # on, in name order, so that prefixing keeps each tuple sorted
        self._by_name = sorted(self.generators)
        self._partials: dict[tuple[int, int], list[Monomial]] = {}
        self._tables: dict[int, tuple] = {}
        self._reach = max(self.degree_of.values(), default=1)
        self._zero_from = self.bound + 1  # the least vanishing degree known
        self._rows: dict[Monomial, tuple[int, int]] = {}
        self._products: dict[tuple[Monomial, Monomial], tuple[int, int]] = {}
        self._sq_gens: dict[str, GradedPoly] = {}
        self._sq_rows: dict[Monomial, dict[int, int]] = {}
        self._unstable_at: int | None = -1  # -1 until unstable_relation runs
        self._validate_top_squares()

    # -- degrees ----------------------------------------------------------

    def mono_degree(self, m: Monomial) -> int:
        d = self._degrees.get(m)
        if d is None:
            d = self._degrees[m] = sum(self.degree_of[g] * e for g, e in m)
        return d

    def poly_degree(self, p: Poly) -> int | None:
        """Common degree, None for the zero polynomial; raises if mixed."""
        return homogeneous_degree(map(self.mono_degree, p.terms), "polynomial")

    # -- degreewise bases -------------------------------------------------

    def monomials(self, d: int) -> tuple[Monomial, ...]:
        if d < 0:
            return ()
        if d > self.bound:
            raise DegreeOverflowError(
                f"degree {d} beyond bound {self.bound} of {self.name or 'algebra'}")
        cached = self._monos.get(d)
        if cached is None:
            cached = self._monos[d] = tuple(sorted(self._partial(0, d)))
        return cached

    def _partial(self, i: int, r: int) -> list[Monomial]:
        key = (i, r)
        cached = self._partials.get(key)
        if cached is not None:
            return cached
        if r == 0:
            out: list[Monomial] = [MONO_ONE]
        elif i == len(self._by_name):
            out = []
        else:
            g, dg = self._by_name[i]
            out = list(self._partial(i + 1, r))
            for e in range(1, r // dg + 1):
                out += [((g, e),) + rest
                        for rest in self._partial(i + 1, r - e * dg)]
        self._partials[key] = out
        return out

    def _table(self, d: int):
        """(index map, echelon of relation rows, basis) of degree d; from
        the vanishing degree on, the empty basis alone."""
        cached = self._tables.get(d)
        if cached is not None:
            return cached
        if self._zero_from <= d <= self.bound:
            return _VANISHED
        order = self.monomials(d)
        index = {m: i for i, m in enumerate(order)}
        ech = GF2Echelon()
        for r, dr in zip(self.relations, self._relation_degrees):
            if dr is None or dr > d:
                continue
            for m in self.monomials(d - dr):
                row = 0
                for t in r.terms:  # distinct t give distinct m * t
                    row ^= 1 << index[mono_mul(m, t)]
                ech.insert(row)
        pivot_bits = ech.pivots.keys()
        basis = tuple(m for i, m in enumerate(order) if i not in pivot_bits)
        result = self._tables[d] = (index, ech, basis)
        low = d - self._reach + 1
        if not basis and all(not self._tables[e][2] if e in self._tables
                             else not self.monomials(e) for e in range(low, d)):
            self._zero_from = min(self._zero_from, low)
        return result

    def basis(self, d: int) -> tuple[Monomial, ...]:
        if d < 0:
            return ()
        return self._table(d)[2]

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def vanishes_above(self, k: int) -> bool:
        """Whether the algebra is 0 above k through its bound, read from
        degrees k+1 .. k+g, g the largest generator degree (class doc)."""
        g = max(self.degree_of.values(), default=0)
        return not any(self.dim(d) for d in range(k + 1, k + g + 1))

    # -- reduction and products ------------------------------------------

    def check_degrees(self, degrees: Iterable[int]) -> None:
        """Raise DegreeOverflowError for the lowest of degrees past the
        bound, so the text does not depend on the order they are met in."""
        past = [d for d in degrees if d > self.bound]
        if past:
            self.monomials(min(past))

    def _row(self, m: Monomial) -> tuple[int, int]:
        """(degree, normal form of m as a row over monomials(degree))."""
        cached = self._rows.get(m)
        if cached is None:
            d = self.mono_degree(m)
            if self._zero_from <= d <= self.bound:
                return d, 0
            index, ech, _ = self._table(d)
            cached = self._rows[m] = (d, ech.reduce(1 << index[m]))
        return cached

    def _product(self, m1: Monomial, m2: Monomial) -> tuple[int, int]:
        """(degree, normal-form row) of m1 * m2."""
        key = (m1, m2)
        cached = self._products.get(key)
        if cached is None:
            d = self.mono_degree(m1) + self.mono_degree(m2)
            if self._zero_from <= d <= self.bound:
                return d, 0
            cached = self._products[key] = self._row(mono_mul(m1, m2))
        return cached

    def _decode(self, d: int, row: int) -> list[Monomial]:
        """The monomials of degree d at the set bits of row."""
        if not row:
            return []
        order = self._monos[d]
        out = []
        while row:
            low = row & -row
            out.append(order[low.bit_length() - 1])
            row ^= low
        return out

    def rows(self, terms: Collection[Monomial]) -> dict[int, int]:
        """The normal form of the sum of terms as degree -> nonzero row: a
        bit row over monomials(degree) with bits on basis(degree) only, so
        rows of one degree have the rank of the same classes over the
        basis.  A term past the bound raises for the lowest such degree,
        whatever the order of the terms."""
        rows: dict[int, int] = {}
        try:
            for m in terms:
                d, row = self._row(m)
                rows[d] = rows.get(d, 0) ^ row
        except DegreeOverflowError:
            self.check_degrees(map(self.mono_degree, terms))
            raise
        return {d: row for d, row in rows.items() if row}

    def decode(self, rows: Mapping[int, int]) -> list[Monomial]:
        """The monomials at the set bits of degree -> row."""
        return [m for d, row in rows.items() for m in self._decode(d, row)]

    def product_rows(self, xs: Iterable[Monomial],
                     ys: Collection[Monomial]) -> dict[int, int]:
        """The rows of (sum of xs) * (sum of ys), from the pair products."""
        rows: dict[int, int] = {}
        for x in xs:
            for y in ys:
                d, row = self._product(x, y)
                rows[d] = rows.get(d, 0) ^ row
        return {d: row for d, row in rows.items() if row}

    def reduce(self, p: Poly) -> Poly:
        """Normal form of p, decoded once from its rows.  A term's row is
        its echelon remainder, computed the first time the term is met and
        kept on this algebra, as it depends on the relations and the bound."""
        return Poly(frozenset(self.decode(self.rows(p.terms))))

    # -- Steenrod action --------------------------------------------------

    def _sq_generator(self, g: str) -> GradedPoly:
        """Total square of a generator as a graded table, reduced."""
        cached = self._sq_gens.get(g)
        if cached is not None:
            return cached
        dg = self.degree_of[g]
        table: GradedPoly = {dg: self.reduce(Poly(frozenset({((g, 1),)})))}
        for i in range(1, dg):
            rule = self.sq_rules.get((g, i))
            if rule and dg + i <= self.bound:
                table[dg + i] = self.reduce(rule)
        if 2 * dg <= self.bound:
            top = self.sq_rules.get((g, dg))
            if top is None:
                top = Poly(frozenset({((g, 2),)}))
            table[2 * dg] = self.reduce(top)
        return self._sq_gens.setdefault(g, {d: p for d, p in table.items() if p})

    def _validate_top_squares(self) -> None:
        for (g, i), val in self.sq_rules.items():
            dg = self.degree_of[g]
            if val:
                vd = self.poly_degree(val)
                if vd is not None and vd != dg + i:
                    raise ValueError(
                        f"Sq^{i}({g}) must be homogeneous of degree {dg + i}")
            if i == dg and 2 * dg <= self.bound:
                square = self.reduce(Poly(frozenset({((g, 2),)})))
                if self.reduce(val) != square:
                    raise ValueError(
                        f"the top square of {g!r} must equal its square")

    def _total_rows(self, m: Monomial) -> dict[int, int]:
        """Sq(m) as degree -> nonzero normal-form row, through the bound.

        Sq(1) is the row of 1, and Sq(m) = Sq(m/g) Sq(g) for the last
        generator g of m (Cartan).  The steps run in a loop from the
        longest quotient already cached, so a long chain of quotients
        cannot overflow the stack."""
        chain, q = [], m
        while q and q not in self._sq_rows:
            g, e = q[-1]
            chain.append((q, g))
            q = q[:-1] + (((g, e - 1),) if e > 1 else ())
        rows = self._sq_rows.get(q)
        if rows is None:  # Sq(1) = 1
            d, row = self._row(q)
            rows = self._sq_rows[q] = {d: row} if row else {}
        for mono, g in reversed(chain):
            gen = self._sq_generator(g)
            out: dict[int, int] = {}
            for d1, row in rows.items():
                monos = self._decode(d1, row)
                for d2, part in gen.items():
                    d = d1 + d2
                    if d >= self._zero_from:  # 0 there, or past the bound
                        continue
                    acc = out.get(d, 0)
                    for m1 in monos:
                        for m2 in part.terms:
                            acc ^= self._product(m1, m2)[1]
                    out[d] = acc
            rows = self._sq_rows[mono] = {d: r for d, r in out.items() if r}
        return rows

    def unstable_relation(self) -> int | None:
        """Index of the first relation whose total square does not reduce
        to 0 through the bound; None when every one does.

        The square table and the Cartan formula define the total square Sq
        as a ring map of the polynomial ring on the generators, and the
        rows of _total_rows are its reductions.  When each relation r has
        Sq(r) in the ideal I of the relations in every degree through the
        bound, so has every a*r, as Sq(a*r) = Sq(a) Sq(r) and the part of
        Sq(r) in a degree below that of the product is in I.  Then Sq
        maps I into itself through the bound, and the total square is a
        ring map of the quotient there: squares(x*y) = Sq(x) Sq(y) for
        the reduced product, degree by degree up to the bound.  So
        steinberg, St(z) = sum_j b^{|z|-j} Sq^j z, is a ring map too, and
        an injective one: its part at b^e in monomial degree e is z_e, the
        degree-e part of z, as Sq^0 is the identity.  Read once per
        algebra, from the rows of the relations' terms."""
        if self._unstable_at == -1:
            self._unstable_at = next(
                (i for i, (r, dr) in enumerate(zip(self.relations,
                                                   self._relation_degrees))
                 if dr is not None and dr <= self.bound
                 and self._square_moves(r)), None)
        return self._unstable_at

    def _square_moves(self, r: Poly) -> bool:
        """Whether Sq(r) has a nonzero part through the bound."""
        return bool(xor_rows(map(self._total_rows, r.terms)))

    def check_sq_bound(self, i: int, x: Poly) -> None:
        """Raise DegreeOverflowError if Sq^i of a term of x passes the bound."""
        for m in x.terms:
            if self.mono_degree(m) + i > self.bound:
                raise DegreeOverflowError(
                    f"Sq^{i} output degree {self.mono_degree(m) + i} beyond "
                    f"bound {self.bound}")

    def squares(self, x: Poly) -> dict[int, Poly]:
        """Every nonzero Sq^i x at once, as i -> Sq^i x, from the total
        square of each term of x.  Squares past the bound are left out, so
        callers that must refuse them call check_sq_bound first."""
        rows: dict[tuple[int, int], int] = {}  # (i, degree) -> row
        for m in self.reduce(x).terms:
            n = self.mono_degree(m)
            for d, row in self._total_rows(m).items():
                rows[d - n, d] = rows.get((d - n, d), 0) ^ row
        out: dict[int, list[Monomial]] = {}
        for (i, d), row in rows.items():
            if row:  # parts in distinct degrees never cancel
                out.setdefault(i, []).extend(self._decode(d, row))
        return {i: Poly(frozenset(monos)) for i, monos in out.items()}

    def sq(self, i: int, x: Poly) -> Poly:
        """Sq^i extended linearly over the terms of x."""
        if i < 0:
            raise ValueError("negative square index")
        x = self.reduce(x)
        if not x:
            return x
        self.check_sq_bound(i, x)
        parts = ((m, self.mono_degree(m) + i) for m in x.terms)
        return Poly(frozenset(self.decode(xor_rows(
            {d: self._total_rows(m).get(d, 0)} for m, d in parts))))


def xor_rows(parts: Iterable[Mapping[int, int]]) -> dict[int, int]:
    """The sum of degree -> row tables, zero rows left out."""
    acc: dict[int, int] = {}
    for part in parts:
        for d, row in part.items():
            acc[d] = acc.get(d, 0) ^ row
    return {d: row for d, row in acc.items() if row}


# ---------------------------------------------------------------------------
# Constructors for the algebras used throughout


def polynomial_algebra(gens: Iterable[tuple[str, int]], bound: int,
                       name: str = "") -> UnstableAlgebra:
    return UnstableAlgebra(gens, (), None, bound, name)


def truncated_algebra(gens: Iterable[tuple[str, int]],
                      truncations: Mapping[str, int], bound: int,
                      name: str = "") -> UnstableAlgebra:
    """F[gens] with g^{t} = 0 for each listed truncation exponent t."""
    rels = [Poly(frozenset({((g, t),)})) for g, t in sorted(truncations.items())]
    return UnstableAlgebra(gens, rels, None, bound, name)


# ---------------------------------------------------------------------------
# F[b] tensor M: elements are sums of b^e * monomial


class BPoly(TermSet):
    """Sum of b^e * m; terms is a frozenset of (e, Monomial)."""

    __slots__ = ("terms",)


def bpoly_zero() -> BPoly:
    return BPoly(frozenset())


def bpoly_from(terms: Iterable[tuple[int, Monomial]]) -> BPoly:
    return BPoly(xor_terms(terms))


def bpoly_shift(x: BPoly, k: int) -> BPoly:
    return BPoly(frozenset((e + k, m) for e, m in x.terms))


def bpoly_mul(alg: UnstableAlgebra, x: BPoly, y: BPoly) -> BPoly:
    rows: dict[tuple[int, int], int] = {}  # (b-exponent, degree) -> row
    try:
        for e1, m1 in x.terms:
            for e2, m2 in y.terms:
                d, row = alg._product(m1, m2)
                key = (e1 + e2, d)
                rows[key] = rows.get(key, 0) ^ row
    except DegreeOverflowError:
        # name one product whatever the set order: the first term of x, in
        # sorted order, with products past the bound, and the lowest of them
        for _, m1 in sorted(x.terms):
            alg.check_degrees(alg.mono_degree(m1) + alg.mono_degree(m2)
                              for _, m2 in y.terms)
        raise
    return BPoly(frozenset((e, m) for (e, d), row in rows.items()
                           for m in alg._decode(d, row)))


def bpoly_degree(alg: UnstableAlgebra, x: BPoly) -> int | None:
    return homogeneous_degree(e + alg.mono_degree(m) for e, m in x.terms)


def bpoly_coefficient(x: BPoly, e: int) -> Poly:
    return poly_from_monomials(m for be, m in x.terms if be == e)


def format_bpoly(x: BPoly) -> str:
    return format_sum(format_monomial((("b", e),) + m)
                      for e, m in sorted(x.terms, key=lambda t: (-t[0], t[1])))


def steinberg_degree(alg: UnstableAlgebra, x: Poly) -> int | None:
    """The degree n of a reduced x (None for 0) when St(x) is defined:
    raises ValueError unless x is homogeneous, and DegreeOverflowError
    unless Sq^n x fits the bound, as sq(n, x) would insist."""
    n = alg.poly_degree(x)
    if n is not None and 2 * n > alg.bound:
        alg.check_sq_bound(alg.bound + 1 - n, x)
    return n


def steinberg(alg: UnstableAlgebra, x: Poly) -> BPoly:
    """St(x) = sum_j b^{n-j} * Sq^j x for homogeneous x of degree n, read
    off its squares (steinberg_degree states when it is defined)."""
    x = alg.reduce(x)
    n = steinberg_degree(alg, x)
    if n is None:
        return bpoly_zero()
    # the squares sit in distinct degrees, so their terms never cancel
    return BPoly(frozenset((n - j, m) for j, p in alg.squares(x).items()
                           for m in p.terms))


# ---------------------------------------------------------------------------
# The image functor R: the F[b]-span of the Steinberg classes


def pb_basis_at(alg: UnstableAlgebra, d: int) -> tuple[tuple[int, Monomial], ...]:
    """Basis of (F[b] tensor M)_d, ordered by b-exponent descending."""
    out = []
    for e in range(d, -1, -1):
        for m in alg.basis(d - e):
            out.append((e, m))
    return tuple(out)


class RModule(Record):
    __slots__ = ("bound", "dims")

    def __init__(self, bound: int, dims: tuple[int, ...]) -> None:
        self.bound = bound
        self.dims = dims

    def dim(self, d: int) -> int:
        return self.dims[d] if 0 <= d <= self.bound else 0


def compute_R(alg: UnstableAlgebra, bound: int) -> RModule:
    """Degreewise span of the b-multiples of the Steinberg classes,
    counted in closed form: R in degree d has one dimension for each
    basis class m with 2|m| <= d.

    The generators of R in degree d are b^{d-2|m|} St(m), the sum of the
    b^{d-|m|-i} Sq^i m.  As Sq^0 is the identity, the top b-power of each
    is b^{d-|m|}, with coefficient m alone.  In a nonzero sum of them the
    classes of least degree give the top b-power, and its coefficient is
    the sum of those distinct basis classes, which is not zero.  So the
    generators are triangular and independent, and their number is the
    dimension.  Only the classes of degree at most bound // 2 are read, so
    the bound may pass the algebra's up to twice it plus one; past that,
    alg.dim raises for the algebra's first degree past its bound.
    """
    rank, dims = 0, []
    for d in range(bound + 1):
        if d % 2 == 0:
            rank += alg.dim(d // 2)
        dims.append(rank)
    return RModule(bound, tuple(dims))


def express_in_steinberg(alg: UnstableAlgebra, x: BPoly):
    """Write homogeneous x as a sum of b^k St(m); None when impossible.

    Returns {monomial: k} for the generators used.  The generators are
    triangular with leading entries b^{k+|m|} * m, so a greedy peel from
    the top b-exponent decides membership.  Each b-coefficient is reduced
    first, so a term that is 0 in the algebra is no obstruction.
    """
    d = bpoly_degree(alg, x)
    current = BPoly(frozenset(
        (e, m) for e in {e for e, _ in x.terms}
        for m in alg.reduce(bpoly_coefficient(x, e)).terms))
    used: dict[Monomial, int] = {}
    while current:
        e, m = max(current.terms, key=lambda t: (t[0], t[1]))
        n = alg.mono_degree(m)
        k = e - n
        if k < 0:
            return None
        # b^k St(m) has top term b^e m, as m is reduced, and its other
        # terms lie below b^e; so the top (e, m) falls at each step, and
        # as e + |m| = d on every term, no m is peeled twice
        current = current + bpoly_shift(steinberg(alg, Poly(frozenset({m}))), k)
        assert m not in used
        used[m] = k
    assert all(k + 2 * alg.mono_degree(m) == d for m, k in used.items())
    return used


def steinberg_residue(alg: UnstableAlgebra, x: BPoly) -> Poly | None:
    """Class of x in R/(b.R), written in the basis of M; None if x not in R."""
    used = express_in_steinberg(alg, x)
    if used is None:
        return None
    return poly_from_monomials(m for m, k in used.items() if k == 0)
