"""Conjugation-space models and their frame checks.

A space model packs the even-degree cohomology of a space, the
cohomology of its fixed points, and a degree-halving basis bijection
kappa0 between them.  The frame it determines sends a class x of degree
2n to the Steinberg element

    r.sigma(x) = sum_j b^{n-j} * Sq^j kappa0(x),

whose leading b-coefficient is kappa0(x); the checks here verify that
equation, the interleaving of kappa0 with the squares, the splitting of
the fixed-point cohomology forced by purity, and the comparison of the
Borel-side image with the span of the Steinberg classes.  The splitting
and the uniqueness of the section both read one matrix per level n, the
degree-n part of kappa0 on the even classes of degree 2n, which must be
a homogeneous bijection; the section residue of r.sigma(x) is kappa0(x)
whenever kappa0(x) is homogeneous, so borel-vs-R compares the series.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .coefficients import HF_BASIS
from .degree import RODegree
from .errors import DegreeOverflowError, ModelError
from .gf2 import (MONO_ONE, Monomial, Poly, format_monomial, format_poly,
                  mono_mul, parse_poly, poly_one, poly_zero, rank_bits)
from .record import Record
from .steenrod import (BPoly, UnstableAlgebra, bpoly_coefficient, bpoly_mul,
                       compute_R, max_b_exponent, steinberg, truncated_algebra)


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

    __slots__ = ("generators", "finite_type")

    def __init__(self, generators: tuple, finite_type: bool = True) -> None:
        self.generators = generators  # of (name, level)
        self.finite_type = finite_type


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
    out = poly_zero()
    for m in model.even.reduce(p).terms:
        img = model.kappa0.get(m)
        if img is None:
            d = model.even.mono_degree(m)
            raise ModelError(
                f"kappa0 has no entry for basis monomial {format_monomial(m)} "
                f"of degree {d}", "/kappa0")
        out = out + img
    return model.fixed.reduce(out)


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
        for m in model.even.basis(2 * n):
            gens.append((format_monomial(m), n))
    return PurityResult(True, FreeHFModule(tuple(gens)))


def module_cohomology(module: FreeHFModule, d: RODegree) -> list:
    """Basis of the free module in degree d: (coefficient monomial, name)."""
    out = []
    for name, level in module.generators:
        shifted = d - RODegree(level, level)
        for mono in HF_BASIS.monomials_of_degree(shifted):
            out.append((mono, name))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def lift_diagonal_class(module: FreeHFModule, names: Iterable[str]):
    """The canonical lift of a sum of generators: coefficient 1 on each."""
    levels = dict(module.generators)
    out = []
    for nm in names:
        if nm not in levels:
            raise ValueError(f"unknown generator {nm!r}")
        out.append((("au", 0, 0), nm))
    return tuple(out)


def restrict_free_element(module: FreeHFModule, elem) -> tuple:
    """Underlying restriction: a generator at level n restricts to u^n
    times its underlying class, and a-divisible coefficients die."""
    levels = dict(module.generators)
    out = []
    for mono, nm in elem:
        if mono[0] == "au" and mono[1] == 0:
            out.append((mono[2] + levels[nm], nm))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Frames


class FrameReport(Record):
    __slots__ = ("model", "sigma", "kappa", "verdicts")

    def __init__(self, model: SpaceModel, sigma: dict, kappa: dict,
                 verdicts: list | None = None) -> None:
        self.model = model
        self.sigma = sigma  # (degree, Monomial) -> BPoly
        # (degree, Monomial) -> tuple of Poly, kappa_0 .. kappa_n
        self.kappa = kappa
        self.verdicts = [] if verdicts is None else verdicts


def build_frame(model: SpaceModel, bound: int | None = None) -> FrameReport:
    sigma = {}
    kappa = {}
    fixed = model.fixed
    for d, m in model.even_basis_classes(bound):
        n = d // 2
        k0 = kappa0_apply(model, Poly(frozenset({m})))
        sig = steinberg(fixed, k0)
        sigma[(d, m)] = sig
        # kappa_l = Sq^l k0 is the b^{|k0| - l} coefficient of St(k0), and
        # |k0| = n unless kappa0 breaks degrees; the rows l <= n must still
        # fit the fixed bound, as sq(l, k0) would insist
        fixed.check_squares(k0, n)
        nk = fixed.poly_degree(k0) if k0 else n
        kappa[(d, m)] = tuple(bpoly_coefficient(sig, nk - l)
                              for l in range(n + 1))
    return FrameReport(model, sigma, kappa)


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
    """r.sigma(x) = kappa0(x) b^n + lower terms, no b-power above n."""
    model = report.model
    table = model.kappa0 if kappa0 is None else kappa0
    for (d, m), sig in sorted(report.sigma.items()):
        n = d // 2
        top = max_b_exponent(sig)
        if top is not None and top > n:
            return Verdict("conjugation-equation", False,
                           f"b-power {top} above {n} on {format_monomial(m)}",
                           (m, sig))
        lead = bpoly_coefficient(sig, n)
        expected = model.fixed.reduce(table.get(m, poly_zero()))
        if lead != expected:
            return Verdict(
                "conjugation-equation", False,
                f"leading coefficient of {format_monomial(m)} is "
                f"{format_poly(lead)}, expected {format_poly(expected)}",
                (m, lead, expected))
    return Verdict("conjugation-equation", True)


def _multiplicative_on_generators(report: FrameReport, top: int) -> bool:
    """The rows of verify_frame_multiplicative: sigma(x*y) =
    sigma(x) sigma(y) for x = 1 or a generator and y every even basis
    class, |x| + |y| <= top.  False also when the frame lacks a class
    through top, where the rows prove nothing."""
    model = report.model
    even = model.even
    classes = list(model.even_basis_classes(top))
    if any(c not in report.sigma for c in classes):
        return False
    odd = [g for g, dg in even.generators if dg % 2]
    rows = [MONO_ONE] + [((g, 1),) for g, dg in even.generators if dg % 2 == 0]
    rows += [mono_mul(((g, 1),), ((h, 1),))
             for i, g in enumerate(odd) for h in odd[i:]]
    for x in rows:
        dx = even.mono_degree(x)
        if dx > top:
            continue
        sx = sigma_apply(report, Poly(frozenset({x})))
        for d, y in classes:
            if dx + d > top:
                break
            lhs = bpoly_mul(model.fixed, sx, report.sigma[(d, y)])
            if lhs != sigma_apply(report, Poly(frozenset({mono_mul(x, y)}))):
                return False
    return True


def verify_frame_multiplicative(report: FrameReport,
                                bound: int | None = None) -> Verdict:
    """sigma(x*y) = sigma(x) sigma(y) for the even basis classes x, y of
    the model's bound with |x| + |y| <= top, decided on generators x basis.

    Write x*y for the reduced product and let a generator mean one of even
    degree or a product of two of odd degree.  If the frame covers every
    even basis class through top and the equation holds for x = 1 and for
    x a generator, against every class y, it holds for every pair.  By
    induction on |x|; the unit row is |x| = 0.  A basis monomial x of
    positive degree is g*x' for a generator g and a monomial x' of lower
    even degree, which reduces to a sum of classes z, so x = sum g*z.
    With z*y = sum of classes w, and sigma linear, F[b] (x) M commutative
    and associative,
      sigma(x) sigma(y) = sum_z sigma(g) sigma(z) sigma(y)    (rows g, z)
                        = sum_z sigma(g) sigma(z*y)   (induction, |z| < |x|)
                        = sum_w sigma(g*w) = sigma(x*y)           (rows g, w).
    Within the model's bound each row is a sum of pair equations, so the
    rows fail only if a pair fails: N * (g + 1) products decide what the
    N^2 pairs decide.  When the rows fail, or cannot be read, the all-pairs
    scan in the old order decides and names the witness; past the model's
    bound the rows see classes the scan does not, and the scan's answer
    stands."""
    model = report.model
    top = _top(model, bound)
    try:
        if _multiplicative_on_generators(report, top):
            return Verdict("frame-multiplicative", True)
    except DegreeOverflowError:
        pass  # a degree passed a bound; the scan raises where it always did
    classes = [(d, m) for d, m in model.even_basis_classes()]
    for d1, m1 in classes:
        for d2, m2 in classes:
            if d1 + d2 > top:
                continue
            prod = model.even.reduce(Poly(frozenset({m1})) * Poly(frozenset({m2})))
            lhs = bpoly_mul(model.fixed, report.sigma[(d1, m1)],
                            report.sigma[(d2, m2)])
            rhs = sigma_apply(report, prod)
            if lhs != rhs:
                return Verdict("frame-multiplicative", False,
                               f"{format_monomial(m1)} * {format_monomial(m2)}",
                               (m1, m2))
    return Verdict("frame-multiplicative", True)


def verify_steenrod_compat(model: SpaceModel, sq_bound: int | None = None,
                           bound: int | None = None) -> Verdict:
    """kappa0 Sq^{2l} = Sq^l kappa0 on every basis class, and odd squares
    of even classes vanish."""
    top_l = (model.bound if sq_bound is None else sq_bound) // 2
    zero = poly_zero()
    for d, m in model.even_basis_classes(bound):
        x = Poly(frozenset({m}))
        k0 = kappa0_apply(model, x)
        even_sq = model.even.squares(x)
        fixed_sq = model.fixed.squares(k0)
        for l in range(1, top_l + 1):
            model.even.check_sq_bound(2 * l, x)
            lhs = (kappa0_apply(model, even_sq[2 * l]) if 2 * l in even_sq
                   else zero)
            model.fixed.check_sq_bound(l, k0)
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


def _kappa0_level(model: SpaceModel, n: int,
                  table: Mapping) -> tuple[dict, Monomial | None]:
    """kappa0 on even.basis(2n): each degree-n part of kappa0(x) as a bit
    row over fixed.basis(n), and the first x whose kappa0 is zero or has a
    term off degree n, or None.  A class the table lacks reads as zero."""
    fixed = model.fixed
    # a reduced term of degree n is a basis class, so n is within the bound
    index = ({t: i for i, t in enumerate(fixed.basis(n))}
             if n <= fixed.bound else {})
    rows, bad = {}, None
    for x in model.even.basis(2 * n):
        img = fixed.reduce(table.get(x, poly_zero()))
        on = [index[t] for t in img.terms if fixed.mono_degree(t) == n]
        if bad is None and (not img or len(on) < len(img.terms)):
            bad = x
        rows[x] = sum(1 << i for i in on)
    return rows, bad


def nakayama_splitting_check(model: SpaceModel,
                             module: FreeHFModule | None = None,
                             bound: int | None = None,
                             kappa0: Mapping | None = None) -> Verdict:
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
    the rank of the level-d block, so the squares off the diagonal are
    only bounded, as Sq^{d - n_i} kappa0(x_i) would insist.
    """
    if module is None:
        purity = purity_check(model)
        if not purity.ok:
            return Verdict("nakayama-splitting", False,
                           f"purity failed: {purity.reason}")
        module = purity.module
    table = model.kappa0 if kappa0 is None else kappa0
    top = _top(model, bound)
    gen_items = list(module.generators)
    fixed = model.fixed
    # purity_check names each generator by its basis monomial; a name that
    # is no basis class of its level reads kappa0 as zero
    monomials = {format_monomial(m): m for lvl in {lvl for _, lvl in gen_items}
                 for m in model.even.basis(2 * lvl)}
    images = [fixed.reduce(table.get(monomials.get(nm), poly_zero()))
              for nm, _ in gen_items]
    n_source = rank = 0
    for d in range(top // 2 + 1):
        basis = fixed.basis(d)
        n_source += len(basis)
        n_target = sum(1 for _, lvl in gen_items if lvl <= d)
        if n_source != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: source dim {n_source} != target "
                           f"dim {n_target}", d)
        if basis:
            for (_, lvl), img in zip(gen_items, images):
                if lvl <= d:
                    fixed.check_sq_bound(d - lvl, img)
            rows, _ = _kappa0_level(model, d, table)
            rank += rank_bits(rows.get(monomials.get(nm), 0)
                              for nm, lvl in gen_items if lvl == d)
        if rank != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: rank {rank} below {n_target}", d)
    return Verdict("nakayama-splitting", True)


def borel_vs_R(model: SpaceModel, bound: int | None = None) -> Verdict:
    """Series of the Steinberg span against even tensor F[b].

    The section property, that r.sigma(x) = St(kappa0(x)) has residue
    kappa0(x) modulo b, always holds once build_frame has passed each
    kappa0(x) through steinberg, which raises unless it is homogeneous.
    For homogeneous y of degree n the greedy peel of express_in_steinberg
    finds at the top b-exponent n the terms b^n m of St(y), m a term of y
    with |m| = n, adds St(m) unshifted, St(y) + St(m) = St(y + m), and
    ends after the terms of y with residue y."""
    top = _top(model, bound)
    rmod = compute_R(model.fixed, top)
    for d in range(top + 1):
        expected = sum(model.even.dim(j) for j in range(d + 1))
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
        _, bad = _kappa0_level(model, n, model.kappa0)
        if bad is not None:
            kappa0_apply(model, Poly(frozenset({bad})))  # raises if unlisted
            return Verdict("unique-section", False,
                           f"0 candidates for {format_monomial(bad)} "
                           f"in degree {2 * n}", (bad, 0))
    return Verdict("unique-section", True)


def kappa_shadow_check(model: SpaceModel, report: FrameReport) -> Verdict:
    """Reading the kappa table through the character shadow: twist a
    generator by a^j u^k, push the coefficient side to F[a^{+-1}, u], and
    project at each u-exponent; the result must match the table rows.

    It always holds, whatever the table.  For a class x of degree 2n and a
    fixed-side class z, the twisted element is the sum of a^{j+n-l} u^{k+l}
    over the rows l that hold z.  Its u-exponents k + l differ for each l,
    so the projection at k + l is 1 exactly when row l holds z."""
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
    gens = ", ".join(f"{nm}@{lvl}" for nm, lvl in purity.module.generators)
    verdicts.append(Verdict("purity", True, f"generators: {gens}"))
    report = build_frame(model, bound)
    verdicts.append(verify_conjugation_equation(report))
    verdicts.append(verify_steenrod_compat(model, bound=bound))
    verdicts.append(verify_frame_multiplicative(report, bound))
    verdicts.append(nakayama_splitting_check(model, purity.module, bound))
    verdicts.append(borel_vs_R(model, bound))
    report.verdicts = verdicts
    return all(v.ok for v in verdicts), verdicts, report


# ---------------------------------------------------------------------------
# Built-in models


# degrees the built-in algebras keep above twice their model's top degree
_HEADROOM = 18


def point_model() -> SpaceModel:
    even = UnstableAlgebra((), (), None, 8, "pt even")
    fixed = UnstableAlgebra((), (), None, 8, "pt fixed")
    return SpaceModel("pt", even, fixed, {MONO_ONE: poly_one()}, 4)


def sphere_model(n: int) -> SpaceModel:
    """The representation sphere on n copies of 1 + al."""
    if n < 1:
        raise ValueError("sphere level must be positive")
    ab = 4 * n + _HEADROOM
    even = truncated_algebra((("x", 2 * n),), {"x": 2}, ab, f"S^{n}+{n}al even")
    fixed = truncated_algebra((("s", n),), {"s": 2}, ab, f"S^{n} fixed")
    kappa0 = {MONO_ONE: poly_one(), (("x", 1),): Poly(frozenset({(("s", 1),)}))}
    return SpaceModel(f"S^{n}+{n}al", even, fixed, kappa0, 2 * n)


def cp_model(n: int) -> SpaceModel:
    """Complex projective space with complex conjugation."""
    if n < 1:
        raise ValueError("projective dimension must be positive")
    ab = 4 * n + _HEADROOM
    even = truncated_algebra((("x", 2),), {"x": n + 1}, ab, f"CP^{n} even")
    fixed = truncated_algebra((("t", 1),), {"t": n + 1}, ab, f"RP^{n} fixed")
    kappa0 = {}
    for k in range(n + 1):
        key = MONO_ONE if k == 0 else (("x", k),)
        val = MONO_ONE if k == 0 else (("t", k),)
        kappa0[key] = Poly(frozenset({val}))
    return SpaceModel(f"CP^{n}", even, fixed, kappa0, 2 * n)


def cp_product_model(a: int, b: int) -> SpaceModel:
    if a < 1 or b < 1:
        raise ValueError("factors must be positive-dimensional")
    top = 2 * (a + b)
    ab = 2 * top + _HEADROOM
    even = truncated_algebra((("x", 2), ("y", 2)), {"x": a + 1, "y": b + 1},
                             ab, f"CP^{a}xCP^{b} even")
    fixed = truncated_algebra((("t1", 1), ("t2", 1)), {"t1": a + 1, "t2": b + 1},
                              ab, f"RP^{a}xRP^{b} fixed")
    kappa0 = {}
    for i in range(a + 1):
        for j in range(b + 1):
            key = []
            val = []
            if i:
                key.append(("x", i))
                val.append(("t1", i))
            if j:
                key.append(("y", j))
                val.append(("t2", j))
            kappa0[tuple(key)] = Poly(frozenset({tuple(val)}))
    return SpaceModel(f"CP^{a}xCP^{b}", even, fixed, kappa0, top)


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


def _algebra_from_dict(data, pointer: str, default_bound: int) -> UnstableAlgebra:
    if not isinstance(data, dict):
        raise ModelError("expected an object", pointer)
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list):
        raise ModelError("missing generators list", f"{pointer}/generators")
    gens = []
    for idx, g in enumerate(gens_raw):
        if (not isinstance(g, dict) or not isinstance(g.get("name"), str)
                or not isinstance(g.get("degree"), int)):
            raise ModelError("generator needs a name and an integer degree",
                             f"{pointer}/generators/{idx}")
        gens.append((g["name"], g["degree"]))
    names = [g for g, _ in gens]
    bound = data.get("bound", default_bound)
    if not isinstance(bound, int) or bound < 0:
        raise ModelError("bound must be a non-negative integer",
                         f"{pointer}/bound")
    relations = []
    for idx, r in enumerate(data.get("relations", [])):
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
            try:
                idx = int(i)
            except ValueError as exc:
                raise ModelError("square index must be an integer",
                                 f"{pointer}/sq/{g}/{i}") from exc
            if not isinstance(val, str):
                raise ModelError("square value must be a string",
                                 f"{pointer}/sq/{g}/{i}")
            try:
                sq_tables[g][idx] = parse_poly(val, names)
            except ValueError as exc:
                raise ModelError(str(exc), f"{pointer}/sq/{g}/{i}") from exc
    try:
        return UnstableAlgebra(gens, relations, sq_tables, bound,
                               data.get("name", ""))
    except ValueError as exc:
        raise ModelError(str(exc), pointer) from exc


def load_model_file(path) -> SpaceModel:
    """Build a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def load_model(source) -> SpaceModel:
    """Build a model from JSON text or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        import json
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ModelError("model must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ModelError("missing model name", "/name")
    bound = data.get("bound")
    if not isinstance(bound, int) or bound < 0:
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
        except ValueError as exc:
            raise ModelError(f"bad key: {exc}", f"/kappa0/{key}") from exc
        if len(kp.terms) != 1:
            raise ModelError("key must be a single basis monomial",
                             f"/kappa0/{key}")
        mono = next(iter(kp.terms))
        if not isinstance(val, str):
            raise ModelError("value must be a string", f"/kappa0/{key}")
        try:
            img = fixed.reduce(parse_poly(val, fixed_names))
        except ValueError as exc:
            raise ModelError(f"bad value: {exc}", f"/kappa0/{key}") from exc
        d = even.mono_degree(mono)
        if d % 2:
            raise ModelError(f"key degree {d} is odd", f"/kappa0/{key}")
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
        rows, _ = _kappa0_level(model, n, kappa0)
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
    for (g, i), val in sorted(alg._sq_rules.items()):
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
