"""Conjugation-space models and their frame checks.

A space model packs the even-degree cohomology of a space, the
cohomology of its fixed points, and a degree-halving basis bijection
kappa0 between them.  The frame it determines sends a class x of degree
2n to the Steinberg element

    r.sigma(x) = sum_j b^{n-j} * Sq^j kappa0(x),

whose b^{n-l} coefficient is Sq^l kappa0(x), kappa0(x) itself at the
lead: the frame carries every square of kappa0, and a report keeps no
other table of them.  A report holds kappa0(x) and computes r.sigma(x)
when first read, by the multiplicative scan or the witness of a failed
conjugation equation, which the degrees of kappa0 decide.  The checks
here verify that equation, the interleaving of kappa0 with the squares,
the splitting of the fixed-point cohomology forced by purity, and the
comparison of the Borel-side image with the span of the Steinberg
classes.  The splitting and the uniqueness of the section both read one
matrix per level n, the degree-n part of kappa0 on the even classes of
degree 2n, which must be a homogeneous bijection; the section residue
of r.sigma(x) is kappa0(x) whenever kappa0(x) is homogeneous, so
borel-vs-R compares the series, and the series of the Steinberg span is
counted in closed form, which makes that comparison the level equation
of purity.  A check bound past the model's own extends every verdict to
the classes through it.

Where the square tables carry their relations to 0, St is a ring map,
and frame_check decides steenrod-compat and frame-multiplicative from
kappa0 as a ring map from generators and relations (_kappa0_shortcut
holds the proof); elsewhere verify_steenrod_compat and
verify_frame_multiplicative, the scans, decide and name the witness.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import DegreeOverflowError, ModelError
from .gf2 import (MONO_ONE, NAME, Monomial, Poly, format_monomial, format_poly,
                  parse_poly, poly_one, poly_zero, rank_bits)
from .record import Record
from .steenrod import (BPoly, UnstableAlgebra, bpoly_mul, compute_R, steinberg,
                       steinberg_degree, truncated_algebra, xor_rows)


class SpaceModel(Record):
    __slots__ = ("name", "even", "fixed", "kappa0", "bound")

    def __init__(self, name: str, even: UnstableAlgebra, fixed: UnstableAlgebra,
                 kappa0: dict, bound: int) -> None:
        self.name = name
        self.even = even
        self.fixed = fixed
        self.kappa0 = kappa0  # basis Monomial of even -> Poly in fixed
        self.bound = bound

    def even_basis_classes(self, bound: int | None = None):
        for d in range(0, _top(self, bound) + 1, 2):
            for m in self.even.basis(d):
                yield d, m


class FreeHFModule(Record):
    """Wedge of diagonal coefficient-module shifts, one per generator."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple) -> None:
        self.generators = generators  # of (even basis Monomial, level)


def format_generators(module: FreeHFModule) -> str:
    """The generators as ``name@level, ...``, as purity reports them."""
    return ", ".join(f"{format_monomial(m)}@{lvl}"
                     for m, lvl in module.generators)


class PurityResult(Record):
    __slots__ = ("ok", "module", "reason", "degree", "dims")

    def __init__(self, ok: bool, module: FreeHFModule | None = None,
                 reason: str = "", degree: int | None = None,
                 dims: tuple | None = None) -> None:
        self.ok = ok
        self.module = module
        self.reason = reason
        self.degree = degree
        self.dims = dims


class Verdict(Record):
    __slots__ = ("name", "ok", "detail", "witness")

    def __init__(self, name: str, ok: bool, detail: str = "",
                 witness: object = None) -> None:
        self.name = name
        self.ok = ok
        self.detail = detail
        self.witness = witness


# ---------------------------------------------------------------------------
# kappa0 as a linear map


def kappa0_apply(model: SpaceModel, p: Poly) -> Poly:
    """kappa0 on p, a sum of even basis classes (a reduced polynomial)."""
    acc: set = set()
    for m in p.terms:
        img = model.kappa0.get(m)
        if img is None:
            d = model.even.mono_degree(m)
            raise ModelError(
                f"kappa0 has no entry for basis monomial {format_monomial(m)} "
                f"of degree {d}", "/kappa0")
        acc ^= img.terms
    return model.fixed.reduce(Poly(frozenset(acc)))


# ---------------------------------------------------------------------------
# Purity


def _top(model: SpaceModel, bound: int | None) -> int:
    """The degree bound of a check: the model's own unless one is given."""
    if bound is None:
        return model.bound
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    return bound


def purity_check(model: SpaceModel, bound: int | None = None) -> PurityResult:
    top = _top(model, bound)
    for d in range(1, top + 1, 2):
        if model.even.dim(d):
            return PurityResult(False, None, "odd concentration", d,
                                (model.even.dim(d),))
    gens = []
    for n in range(0, top // 2 + 1):
        de, df = model.even.dim(2 * n), model.fixed.dim(n)
        if de != df:
            return PurityResult(False, None, "level dimension mismatch", n,
                                (de, df))
        gens += [(m, n) for m in model.even.basis(2 * n)]
    return PurityResult(True, FreeHFModule(tuple(gens)))


# ---------------------------------------------------------------------------
# Frames


class FrameReport(Record):
    """The frame of a model on its even basis classes x, keyed (degree, x):
    values holds kappa0(x), reduced, and sigma holds r.sigma(x) =
    St(kappa0(x)), computed from values when first read."""

    __slots__ = ("model", "values", "_sigma")

    def __init__(self, model: SpaceModel, values: dict) -> None:
        self.model = model
        self.values = values  # (degree, Monomial) -> Poly
        self._sigma: dict | None = None

    def _values(self) -> tuple:
        return self.model, self.values  # sigma follows from values

    @property
    def sigma(self) -> dict:
        """(degree, Monomial) -> BPoly; build_frame has checked that St
        is defined on every value, so reading it never raises."""
        if self._sigma is None:
            fixed = self.model.fixed
            self._sigma = {key: steinberg(fixed, y)
                           for key, y in self.values.items()}
        return self._sigma


def build_frame(model: SpaceModel, bound: int | None = None) -> FrameReport:
    """The frame on every even basis class x: kappa0(x), which must be
    homogeneous with its top square Sq^{|kappa0 x|} within the fixed
    bound, so that r.sigma(x) = St(kappa0(x)) is defined; its
    b^{|kappa0 x| - l} coefficient is Sq^l kappa0(x)."""
    fixed = model.fixed
    values = {}
    for d, m in model.even_basis_classes(bound):
        y = kappa0_apply(model, Poly(frozenset({m})))
        try:
            steinberg_degree(fixed, y)
        except ValueError as exc:  # y is not homogeneous
            raise ModelError(f"bad value {format_poly(y)}: {exc}",
                             f"/kappa0/{format_monomial(m)}") from exc
        values[(d, m)] = y
    return FrameReport(model, values)


def sigma_apply(report: FrameReport, p: Poly) -> BPoly:
    """Linear extension of the frame over a sum of basis monomials."""
    model = report.model
    acc: set = set()
    for m in model.even.reduce(p).terms:
        d = model.even.mono_degree(m)
        entry = report.sigma.get((d, m))
        if entry is None:
            raise ValueError(f"frame has no entry for {format_monomial(m)}")
        acc ^= entry.terms
    return BPoly(frozenset(acc))


def verify_conjugation_equation(report: FrameReport,
                                kappa0: Mapping | None = None) -> Verdict:
    """r.sigma(x) = kappa0(x) b^n + lower terms, no b-power above n.

    Decided from the degree of y = kappa0(x), which build_frame has
    checked to be homogeneous; sigma is read only for the witness of a
    b-power above n.  St(0) = 0 meets the expected 0.  For y of degree k,
    St(y) is the sum of the b^{k-i} Sq^i y, so its top b-power is b^k,
    with coefficient Sq^0 y = y.  If k > n that b-power is above n; if
    k < n the b^n coefficient is 0, not y; if k = n it is y.  So with the
    frame's own kappa0 this fails exactly when some nonzero kappa0(x),
    x of degree 2n, is not of degree n.  A kappa0 table given apart from
    the frame's is reduced and compared as it stands; classes are met as
    build_frame stored them, by degree and basis order."""
    fixed = report.model.fixed
    for (d, m), y in report.values.items():
        n, k = d // 2, fixed.poly_degree(y)
        if k is not None and k > n:
            return Verdict("conjugation-equation", False,
                           f"b-power {k} above {n} on {format_monomial(m)}",
                           (m, report.sigma[(d, m)]))
        lead = y if k == n else poly_zero()
        expected = (y if kappa0 is None
                    else fixed.reduce(kappa0.get(m, poly_zero())))
        if lead != expected:
            return Verdict(
                "conjugation-equation", False,
                f"leading coefficient of {format_monomial(m)} is "
                f"{format_poly(lead)}, expected {format_poly(expected)}",
                (m, lead, expected))
    return Verdict("conjugation-equation", True)


def _kappa0_ring_map(model: SpaceModel, classes: list,
                     top: int) -> dict | None:
    """kappa0 of each class through top as fixed degree -> normal-form
    row, when kappa0(x) kappa0(y) = kappa0(x*y) for all classes x, y with
    |x| + |y| <= top; None otherwise.  Every class has a kappa0 entry, as
    build_frame, run first, raises ModelError for one without; purity has
    passed at top, so an odd generator of degree <= top reduces to 0.

    Let c = kappa0(1) and phi(m) = c * prod kappa0(g) over the generators
    g of a monomial m, each g read as the classes it reduces to.  kappa0
    is multiplicative exactly when c^2 = c, phi sends each relation of
    degree <= top to 0, and phi = kappa0 on every class: then phi is
    multiplicative and kills the ideal through top, which the multiples
    of those relations span, so kappa0(x) kappa0(y) = phi(x*y) =
    kappa0(x*y); conversely phi(m) = kappa0(m reduced), by induction on m.
    phi(m) = phi(m/g) kappa0(g), g the last generator of m, is one
    product of rows per monomial met, cached."""
    even, fixed = model.even, model.fixed
    k0 = {m: fixed.rows(model.kappa0[m].terms) for _, m in classes}

    def kappa0_of(m: Monomial) -> dict[int, int]:
        return xor_rows(k0[x] for x in even.decode(even.rows((m,))))

    phi = {MONO_ONE: kappa0_of(MONO_ONE)}
    gens = {g: fixed.decode(kappa0_of(((g, 1),)))
            for g, dg in even.generators if dg <= top}
    c = fixed.decode(phi[MONO_ONE])
    if fixed.product_rows(c, c) != phi[MONO_ONE]:
        return None

    def image(m: Monomial) -> dict[int, int]:
        chain, q = [], m
        while q not in phi:  # a loop from the longest quotient cached
            g, e = q[-1]
            chain.append((q, g))
            q = q[:-1] + (((g, e - 1),) if e > 1 else ())
        for mono, g in reversed(chain):
            phi[mono] = fixed.product_rows(fixed.decode(phi[q]), gens[g])
            q = mono
        return phi[q]

    low = [r for r in even.relations if r and even.poly_degree(r) <= top]
    if (any(image(m) != k0[m] for _, m in classes)
            or any(xor_rows(map(image, r.terms)) for r in low)):
        return None
    return k0


def verify_frame_multiplicative(report: FrameReport,
                                bound: int | None = None) -> Verdict:
    """sigma(x*y) = sigma(x) sigma(y) for the even basis classes x, y of
    the model's bound with |x| + |y| <= top.

    The all-pairs scan: it names the first failing pair as the witness,
    and raises ValueError on a class the frame lacks."""
    model = report.model
    top = _top(model, bound)
    classes = list(model.even_basis_classes(top))
    for d1, m1 in classes:
        for d2, m2 in classes:
            if d1 + d2 > top:
                continue
            x, y = Poly(frozenset({m1})), Poly(frozenset({m2}))
            prod = model.even.reduce(x * y)
            # sigma_apply raises ValueError for a class the frame lacks
            lhs = bpoly_mul(model.fixed, sigma_apply(report, x),
                            sigma_apply(report, y))
            rhs = sigma_apply(report, prod)
            if lhs != rhs:
                return Verdict("frame-multiplicative", False,
                               f"{format_monomial(m1)} * {format_monomial(m2)}",
                               (m1, m2))
    return Verdict("frame-multiplicative", True)


def _square_trip(model: SpaceModel, d: int, k0_degrees: Iterable[int]) -> int:
    """The least l at which Sq^{2l} of a class of degree d, or Sq^l of a
    kappa0 term of one of k0_degrees, passes its algebra's bound."""
    return 1 + min([(model.even.bound - d) // 2]
                   + [model.fixed.bound - e for e in k0_degrees])


def verify_steenrod_compat(model: SpaceModel, sq_bound: int | None = None,
                           bound: int | None = None) -> Verdict:
    """kappa0 Sq^{2l} = Sq^l kappa0 on every basis class, and odd squares
    of even classes vanish.

    The squares go up to half of sq_bound, the model's bound by default,
    and on a class x of degree d always up to d // 2: past that Sq^{2l} x
    vanishes by instability, so a check bound past the model's own still
    meets every square its classes can carry.  The per-class loop names
    the first failing class and square as the witness."""
    top_l = (model.bound if sq_bound is None else sq_bound) // 2
    zero = poly_zero()
    even, fixed = model.even, model.fixed
    for d, m in model.even_basis_classes(bound):
        x = Poly(frozenset({m}))
        k0 = kappa0_apply(model, x)
        even_sq = even.squares(x)
        fixed_sq = fixed.squares(k0)
        # Sq^{2l} x and Sq^l k0 fit their bounds for l < first, and at
        # l = first one of the two checks raises
        first = _square_trip(model, d, map(fixed.mono_degree, k0.terms))
        for l in range(1, max(top_l, d // 2) + 1):
            if l == first:
                even.check_sq_bound(2 * l, x)
            lhs = (kappa0_apply(model, even_sq[2 * l]) if 2 * l in even_sq
                   else zero)
            if l == first:
                fixed.check_sq_bound(l, k0)
            rhs = fixed_sq.get(l, zero)
            if lhs != rhs:
                return Verdict(
                    "steenrod-compat", False,
                    f"kappa0 Sq^{2 * l} != Sq^{l} kappa0 on {format_monomial(m)}",
                    (m, l, lhs, rhs))
            if 2 * l - 1 in even_sq:
                return Verdict("steenrod-compat", False,
                               f"Sq^{2 * l - 1} nonzero on even class "
                               f"{format_monomial(m)}", (m, 2 * l - 1))
    return Verdict("steenrod-compat", True)


def _kappa0_shortcut(model: SpaceModel,
                     bound: int | None) -> tuple[bool, bool]:
    """(steenrod-compat proved, frame-multiplicative proved) for the scans
    as frame_check calls them on a frame built through bound, decided
    from one _kappa0_ring_map pass; False where that is not proved.
    frame_check, the one caller, runs purity_check and build_frame at the
    same bound first: every odd degree through top is 0, and every class
    through top has a kappa0 entry, homogeneous, with St defined on it.

    Let the fixed algebra be stable (UnstableAlgebra.unstable_relation),
    so St is a ring map, and let kappa0 pass _kappa0_ring_map, so
    kappa0(x) kappa0(y) = kappa0(x*y) for classes with |x| + |y| <= top.

    frame-multiplicative compares sigma(x) sigma(y) with sigma(x*y), where
    sigma(x) = St(kappa0(x)).  Its part where the monomial degree equals
    the b-exponent is kappa0(x) kappa0(y) against kappa0(x*y): a term
    b^e m of St(z) has |m| >= e, with equality exactly on the terms of z
    at b^{|z|}, so in a product only two such terms meet there.  So the
    scan fails wherever kappa0 is not multiplicative.  Conversely,
      sigma(x) sigma(y) = St(kappa0(x) kappa0(y)) = St(kappa0(x*y))
                        = sigma(x*y).
    That holds as the scan computes it when no product of two terms of
    sigma(x) and sigma(y), |x| + |y| <= top, passes the fixed bound, so
    none raises and the products the bound leaves out are all 0.  A term
    of St(y) has degree at most 2|y|, as Sq^{|y|} y = y^2 is the top
    square, and each term is a nonzero class of the fixed algebra, so of
    degree at most its top nonzero degree: that caps the reach where
    2|kappa0(x)| + 2|kappa0(y)| passes the fixed bound, and sigma is
    never built.

    steenrod-compat, with squares up to half the model's bound: let the
    even algebra be stable too, so each total square Sq is a ring map
    through its bound, and let the even side vanish above top and the
    fixed side above top // 2 (UnstableAlgebra.vanishes_above).  Then
    neither bound cuts a square off, each Sq is a ring map of the whole
    algebra, and with purity every odd degree of the even side is 0, so
    no odd square of an even class is nonzero.  Let kappa0(x) be
    homogeneous of degree |x| / 2 on every class.  Then kappa0 is a ring
    map of the classes: on a pair with |x| + |y| > top both x*y and
    kappa0(x) kappa0(y), of degree above top // 2, are 0.  So are x ->
    kappa0(Sq x), whose part of degree |x|/2 + l is kappa0 Sq^{2l} x, and
    x -> Sq kappa0(x), whose part there is Sq^l kappa0(x).  1 goes to
    kappa0(1) under both, as kappa0(1) = kappa0(1)^2 is 0 or 1; so the
    two maps agree on every class once they do on the generators, and
    the loop compares nothing that differs.  It raises only at its bound
    trip l == _square_trip, so that none may fall within a class's
    l-range, and on a class without a kappa0 entry; the vanishing keeps
    the squares of the classes through top, which have entries.

    Multiplicativity is decided first: a failed condition of
    steenrod-compat, or a DegreeOverflowError there, leaves it proved.  A
    verdict not proved goes to its scan, which raises where it did."""
    even, fixed = model.even, model.fixed
    top = _top(model, bound)
    multiplicative = False
    try:
        if fixed.unstable_relation() is not None:
            return False, False
        classes = list(model.even_basis_classes(top))
        k0 = _kappa0_ring_map(model, classes, top)
        if k0 is None:
            return False, False

        def clears(reach: dict[int, int]) -> bool:
            # reach: class degree -> bound on the degrees of sigma's terms
            return not any(d1 + d2 <= top and r1 + r2 > fixed.bound
                           for d1, r1 in reach.items()
                           for d2, r2 in reach.items())

        reach: dict[int, int] = {}
        for d, m in classes:
            for k in k0[m]:
                reach[d] = max(reach.get(d, 0), 2 * k)
        if not clears(reach):
            cap = max((e for e in range(fixed.bound + 1) if fixed.dim(e)),
                      default=0)
            reach = {d: min(r, cap) for d, r in reach.items()}
        multiplicative = clears(reach)
        if (even.unstable_relation() is not None
                or not even.vanishes_above(top)
                or not fixed.vanishes_above(top // 2)):
            return False, multiplicative
        for d, m in classes:
            if (k0[m].keys() - {d // 2} or _square_trip(model, d, k0[m])
                    <= max(model.bound // 2, d // 2)):
                return False, multiplicative
        for g, _ in even.generators:  # an odd one reduces to 0
            z = even.reduce(Poly(frozenset({((g, 1),)})))
            images = {i // 2: kappa0_apply(model, p)
                      for i, p in even.squares(z).items()}
            if ({l: p for l, p in images.items() if p}
                    != fixed.squares(kappa0_apply(model, z))):
                return False, multiplicative
        return True, multiplicative
    except DegreeOverflowError:
        return False, multiplicative


def _kappa0_level(model: SpaceModel, n: int) -> tuple[dict, Monomial | None]:
    """kappa0 on even.basis(2n): each degree-n part of kappa0(x) as a
    row of fixed.rows, and the first x whose kappa0 is zero or has a
    term off degree n, or None.  A class kappa0 lacks reads as zero."""
    rows, bad = {}, None
    for x in model.even.basis(2 * n):
        k0 = model.fixed.rows(model.kappa0.get(x, poly_zero()).terms)
        if bad is None and k0.keys() != {n}:
            bad = x
        rows[x] = k0.get(n, 0)
    return rows, bad


def nakayama_splitting_check(model: SpaceModel, module: FreeHFModule,
                             bound: int | None = None) -> Verdict:
    """Graded comparison with the wedge of spheres forced by the levels.

    In total degree d the map sends (dual class z in degree m, b^e) to
    the generators at level n_i <= m weighted by the coefficient of z in
    Sq^{m - n_i} kappa0(x_i); mod b it is the transposed kappa0 matrix.
    The verdict asks for an isomorphism in every fixed-side degree up to
    half the bound: the bound counts even degrees, so the levels it
    reaches, as in purity_check, are 0 .. bound // 2.

    Its entry is zero for n_i > |z| and, as Sq^0 is the identity, the
    coefficient of z in kappa0(x_i) for n_i = |z|: by degree and level the
    matrix is block triangular with kappa0 in each level on the diagonal.
    Once the matrix through d - 1 has full rank, the rank through d adds
    the rank of the level-d block: the verdict reads the level blocks
    alone, and no square off the diagonal.
    """
    top = _top(model, bound)
    fixed = model.fixed
    n_source = rank = 0
    for d in range(top // 2 + 1):
        basis = fixed.basis(d)
        n_source += len(basis)
        n_target = sum(1 for _, lvl in module.generators if lvl <= d)
        if n_source != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: source dim {n_source} != target "
                           f"dim {n_target}", d)
        if basis:
            rows, _ = _kappa0_level(model, d)
            rank += rank_bits(rows.get(m, 0)
                              for m, lvl in module.generators if lvl == d)
        if rank != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: rank {rank} below {n_target}", d)
    return Verdict("nakayama-splitting", True)


def borel_vs_R(model: SpaceModel, bound: int | None = None) -> Verdict:
    """Series of the Steinberg span against even tensor F[b].

    compute_R counts R in degree d as the fixed classes of degree at most
    d // 2, so the equation in degree d reads
      dim fixed^0 + .. + dim fixed^{d//2} = dim even^0 + .. + dim even^d.
    Through the bound, these equations for all d hold exactly when the
    even side vanishes in odd degrees and dim even^{2n} = dim fixed^n for
    2n <= bound: the two conditions of purity_check at the same bound.
    Subtract the equation at d - 1 from the one at d: for odd d the left
    side does not grow, and for even d = 2n it grows by dim fixed^n.
    Inside frame_check, purity has passed first, so this cannot fail.

    The section property, that r.sigma(x) = St(kappa0(x)) has residue
    kappa0(x) modulo b, always holds once build_frame has passed each
    kappa0(x) through steinberg_degree, which raises unless it is
    homogeneous.
    For homogeneous y of degree n the greedy peel of express_in_steinberg
    finds at the top b-exponent n the terms b^n m of St(y), m a term of y
    with |m| = n, adds St(m) unshifted, St(y) + St(m) = St(y + m), and
    ends after the terms of y with residue y."""
    top = _top(model, bound)
    rmod = compute_R(model.fixed, top)
    expected = 0
    for d in range(top + 1):
        expected += model.even.dim(d)
        if rmod.dim(d) != expected:
            return Verdict("borel-vs-R", False,
                           f"degree {d}: R dim {rmod.dim(d)} != even*F[b] dim "
                           f"{expected}", d)
    return Verdict("borel-vs-R", True)


def unique_section_check(model: SpaceModel, bound: int | None = None) -> Verdict:
    """The frame is the only section: on each even basis class x of degree
    2n, exactly one nonzero sum of the b^{2n-2|y|} St(y) has no b-power
    above n and has b^n coefficient and section residue kappa0(x).

    The generators are triangular: b^{2n-2|y|} St(y) is the sum of the
    b^{2n-|y|-i} Sq^i(y), so its part at b^{2n-j} is Sq^{j-|y|}(y), which
    is zero for |y| > j and is y itself for |y| = j.  Degree by degree from
    j = 0, the equations "no b-power above n" force the coefficient of every
    generator with |y| < n to 0, and the b^n equations then fix the
    coefficient of St(y), |y| = n, to that of y in kappa0(x).
    The only candidate is therefore St(kappa0(x)), and it exists exactly
    when kappa0(x) is nonzero and homogeneous of degree n; otherwise there
    are 0 candidates."""
    for n in range(_top(model, bound) // 2 + 1):
        _, bad = _kappa0_level(model, n)
        if bad is not None:
            kappa0_apply(model, Poly(frozenset({bad})))  # raises if unlisted
            return Verdict("unique-section", False,
                           f"0 candidates for {format_monomial(bad)} "
                           f"in degree {2 * n}", (bad, 0))
    return Verdict("unique-section", True)


def kappa_shadow_check(model: SpaceModel, report: FrameReport) -> Verdict:
    """Reading the frame through the character shadow: twist a generator
    by a^j u^k, push the coefficient side to F[a^{+-1}, u], and project at
    each u-exponent; the result must match the b-coefficients of
    r.sigma(x), the squares Sq^l kappa0(x) at b^{n-l}.

    It always holds, whatever those coefficients.  For a class x of degree
    2n and a fixed-side class z, the twisted element is the sum of
    a^{j+n-l} u^{k+l} over the l whose coefficient holds z.  Its
    u-exponents k + l differ for each l, so the projection at k + l is 1
    exactly when the b^{n-l} coefficient holds z."""
    return Verdict("kappa-shadow", True)


def frame_check(model: SpaceModel,
                bound: int | None = None) -> tuple[bool, list, FrameReport | None]:
    verdicts = []
    purity = purity_check(model, bound)
    if not purity.ok:
        verdicts.append(Verdict(
            "purity", False,
            f"{purity.reason} at {purity.degree} (dims {purity.dims})"))
        return False, verdicts, None
    verdicts.append(Verdict("purity", True,
                            f"generators: {format_generators(purity.module)}"))
    report = build_frame(model, bound)
    verdicts.append(verify_conjugation_equation(report))
    compat, multiplicative = _kappa0_shortcut(model, bound)
    verdicts.append(Verdict("steenrod-compat", True) if compat
                    else verify_steenrod_compat(model, bound=bound))
    verdicts.append(Verdict("frame-multiplicative", True) if multiplicative
                    else verify_frame_multiplicative(report, bound))
    verdicts.append(nakayama_splitting_check(model, purity.module, bound))
    verdicts.append(borel_vs_R(model, bound))
    return all(v.ok for v in verdicts), verdicts, report


# ---------------------------------------------------------------------------
# Built-in models


# degrees the built-in algebras keep above twice their model's top degree
_HEADROOM = 18


def point_model() -> SpaceModel:
    even = UnstableAlgebra((), (), None, 8, "pt even")
    fixed = UnstableAlgebra((), (), None, 8, "pt fixed")
    return SpaceModel("pt", even, fixed, {MONO_ONE: poly_one()}, 4)


def _truncated_product(name: str, fixed_name: str, factors) -> SpaceModel:
    """The product of spaces whose even and fixed cohomology are each
    truncated on one generator: factors are (even generator, fixed
    generator, fixed degree n, truncation t), in name order on both
    sides, the even generator of degree 2n.  kappa0 sends x^e*y^f.. to
    s^e*t^f.. for each exponent below its truncation, listed with the
    first factor's exponent varying slowest; no basis table is built."""
    top = 2 * sum(n * (t - 1) for _, _, n, t in factors)
    ab = 2 * top + _HEADROOM
    even = truncated_algebra([(x, 2 * n) for x, _, n, _ in factors],
                             {x: t for x, _, _, t in factors}, ab, f"{name} even")
    fixed = truncated_algebra([(s, n) for _, s, n, _ in factors],
                              {s: t for _, s, _, t in factors}, ab,
                              f"{fixed_name} fixed")
    pairs = [((), ())]  # (key, value) monomials
    for x, s, _, t in factors:
        pairs = [(k + ((x, e),), v + ((s, e),)) if e else (k, v)
                 for k, v in pairs for e in range(t)]
    kappa0 = {k: Poly(frozenset({v})) for k, v in pairs}
    return SpaceModel(name, even, fixed, kappa0, top)


def sphere_model(n: int) -> SpaceModel:
    """The representation sphere on n copies of 1 + al."""
    if n < 1:
        raise ValueError("sphere level must be positive")
    return _truncated_product(f"S^{n}+{n}al", f"S^{n}", [("x", "s", n, 2)])


def cp_model(n: int) -> SpaceModel:
    """Complex projective space with complex conjugation."""
    if n < 1:
        raise ValueError("projective dimension must be positive")
    return _truncated_product(f"CP^{n}", f"RP^{n}", [("x", "t", 1, n + 1)])


def cp_product_model(a: int, b: int) -> SpaceModel:
    if a < 1 or b < 1:
        raise ValueError("factors must be positive-dimensional")
    return _truncated_product(f"CP^{a}xCP^{b}", f"RP^{a}xRP^{b}",
                              [("x", "t1", 1, a + 1), ("y", "t2", 1, b + 1)])


def builtin_models() -> list[SpaceModel]:
    models = [point_model()]
    models += [sphere_model(n) for n in range(1, 9)]
    models += [cp_model(n) for n in range(1, 9)]
    for a in range(1, 6):
        for b in range(a, 7 - a):
            models.append(cp_product_model(a, b))
    return models


# ---------------------------------------------------------------------------
# JSON round trip


def _known_keys(data: dict, keys: tuple, pointer: str) -> None:
    """Refuse a key outside keys: a misspelt key would read as absent."""
    for key in data:
        if key not in keys:
            raise ModelError(f"unknown key {key!r}", f"{pointer}/{key}")


def _algebra_from_dict(data, pointer: str, default_bound: int) -> UnstableAlgebra:
    if not isinstance(data, dict):
        raise ModelError("expected an object", pointer)
    _known_keys(data, ("generators", "relations", "bound", "sq", "name"),
                pointer)
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ModelError("name must be a string", f"{pointer}/name")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list):
        raise ModelError("missing generators list", f"{pointer}/generators")
    gens = []
    for idx, g in enumerate(gens_raw):
        # JSON true and false load as bools, which isinstance counts as ints
        if (not isinstance(g, dict) or not isinstance(g.get("name"), str)
                or type(g.get("degree")) is not int):
            raise ModelError("generator needs a name and an integer degree",
                             f"{pointer}/generators/{idx}")
        _known_keys(g, ("name", "degree"), f"{pointer}/generators/{idx}")
        if not re.fullmatch(NAME, g["name"]):
            raise ModelError(f"generator name {g['name']!r} is not of the "
                             f"form {NAME}", f"{pointer}/generators/{idx}")
        gens.append((g["name"], g["degree"]))
    names = [g for g, _ in gens]
    bound = data.get("bound", default_bound)
    if type(bound) is not int or bound < 0:
        raise ModelError("bound must be a non-negative integer",
                         f"{pointer}/bound")
    relations_raw = data.get("relations", [])
    if not isinstance(relations_raw, list):
        raise ModelError("relations must be a list", f"{pointer}/relations")
    relations = []
    for idx, r in enumerate(relations_raw):
        if not isinstance(r, str):
            raise ModelError("relation must be a string",
                             f"{pointer}/relations/{idx}")
        try:
            relations.append(parse_poly(r, names))
        except ValueError as exc:
            raise ModelError(str(exc), f"{pointer}/relations/{idx}") from exc
    sq_tables: dict = {}
    sq_raw = data.get("sq", {})
    if not isinstance(sq_raw, dict):
        raise ModelError("sq must be an object", f"{pointer}/sq")
    for g, table in sq_raw.items():
        if g not in names:
            raise ModelError(f"unknown generator {g!r}", f"{pointer}/sq/{g}")
        if not isinstance(table, dict):
            raise ModelError("expected an object of squares",
                             f"{pointer}/sq/{g}")
        sq_tables[g] = {}
        for i, val in table.items():
            # one spelling per index: int() also reads "02", " 2 " and "1_0"
            if not isinstance(i, str) or not re.fullmatch(r"[1-9][0-9]*", i):
                raise ModelError("square index must be a positive decimal "
                                 "integer", f"{pointer}/sq/{g}/{i}")
            idx = int(i)
            if not isinstance(val, str):
                raise ModelError("square value must be a string",
                                 f"{pointer}/sq/{g}/{i}")
            try:
                sq_tables[g][idx] = parse_poly(val, names)
            except ValueError as exc:
                raise ModelError(str(exc), f"{pointer}/sq/{g}/{i}") from exc
    try:
        alg = UnstableAlgebra(gens, relations, sq_tables, bound, name)
    except ValueError as exc:
        raise ModelError(str(exc), pointer) from exc
    k = alg.unstable_relation()
    if k is not None:
        raise ModelError(f"the squares of {format_poly(relations[k])} do not "
                         f"reduce to 0 through degree {bound}",
                         f"{pointer}/relations/{k}")
    return alg


def load_model_file(path) -> SpaceModel:
    """Build a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json.loads would keep
    the last value of a repeated key."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise ModelError(f"repeated key {key!r} in a JSON object")
        out[key] = val
    return out


def load_model(source) -> SpaceModel:
    """Build a model from JSON text or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        import json
        try:
            data = json.loads(source, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ModelError("model must be a JSON object")
    _known_keys(data, ("name", "even", "fixed", "kappa0", "bound"), "")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ModelError("missing model name", "/name")
    bound = data.get("bound")
    if type(bound) is not int or bound < 0:
        raise ModelError("bound must be a non-negative integer", "/bound")
    if "even" not in data:
        raise ModelError("missing even cohomology", "/even")
    if "fixed" not in data:
        raise ModelError("missing fixed-point cohomology", "/fixed")
    even = _algebra_from_dict(data["even"], "/even", 2 * bound)
    fixed = _algebra_from_dict(data["fixed"], "/fixed", 2 * bound)
    for g, d in even.generators:
        if d % 2:
            raise ModelError(f"generator {g!r} has odd degree {d}",
                             "/even/generators")
    if even.bound < bound:
        raise ModelError("even bound below the model bound", "/even/bound")
    if fixed.bound < bound:
        raise ModelError("fixed bound below the model bound", "/fixed/bound")
    kraw = data.get("kappa0")
    if not isinstance(kraw, dict):
        raise ModelError("missing kappa0 table", "/kappa0")
    kappa0: dict[Monomial, Poly] = {}
    even_names = [g for g, _ in even.generators]
    fixed_names = [g for g, _ in fixed.generators]
    for key, val in kraw.items():
        try:
            kp = even.reduce(parse_poly(key, even_names))
        except (ValueError, DegreeOverflowError) as exc:
            raise ModelError(f"bad key: {exc}", f"/kappa0/{key}") from exc
        if len(kp.terms) != 1:
            raise ModelError("key must be a single basis monomial",
                             f"/kappa0/{key}")
        mono = next(iter(kp.terms))
        if not isinstance(val, str):
            raise ModelError("value must be a string", f"/kappa0/{key}")
        try:
            img = fixed.reduce(parse_poly(val, fixed_names))
        except (ValueError, DegreeOverflowError) as exc:
            raise ModelError(f"bad value: {exc}", f"/kappa0/{key}") from exc
        d = even.mono_degree(mono)  # even: odd generators were refused above
        if img:
            try:
                vd = fixed.poly_degree(img)
            except ValueError as exc:
                raise ModelError(f"bad value: {exc}", f"/kappa0/{key}") from exc
            if vd is not None and vd != d // 2:
                raise ModelError(
                    f"value degree {vd} is not half of {d}", f"/kappa0/{key}")
        if mono in kappa0:
            raise ModelError("duplicate key", f"/kappa0/{key}")
        kappa0[mono] = img
    if MONO_ONE not in kappa0:
        kappa0[MONO_ONE] = poly_one()
    model = SpaceModel(name, even, fixed, kappa0, bound)
    for n in range(0, bound // 2 + 1):
        for m in even.basis(2 * n):
            if m not in kappa0:
                raise ModelError(
                    f"no entry for basis monomial {format_monomial(m)} of "
                    f"degree {2 * n}", "/kappa0")
        rows, _ = _kappa0_level(model, n)
        if rank_bits(rows.values()) < fixed.dim(n):
            raise ModelError(f"kappa0 not surjective in degree {2 * n}",
                             "/kappa0")
    return model


def _algebra_to_dict(alg: UnstableAlgebra) -> dict:
    out = {
        "generators": [{"name": g, "degree": d} for g, d in alg.generators],
        "relations": [format_poly(r) for r in alg.relations],
        "bound": alg.bound,
    }
    sq: dict = {}
    for (g, i), val in sorted(alg.sq_rules.items()):
        sq.setdefault(g, {})[str(i)] = format_poly(val)
    if sq:
        out["sq"] = sq
    if alg.name:
        out["name"] = alg.name
    return out


def model_to_dict(model: SpaceModel) -> dict:
    kappa0 = {}
    for m in sorted(model.kappa0):
        kappa0[format_monomial(m)] = format_poly(model.kappa0[m])
    return {
        "name": model.name,
        "even": _algebra_to_dict(model.even),
        "fixed": _algebra_to_dict(model.fixed),
        "kappa0": kappa0,
        "bound": model.bound,
    }


def save_model(model: SpaceModel, path: str) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
