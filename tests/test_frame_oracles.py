"""The frame verdicts against their earlier bodies.

Nakayama splitting, the uniqueness of the section and the surjectivity
check of load_model now read one kappa0 matrix per level, and borel-vs-R
no longer peels St(kappa0(x)) back to kappa0(x).  frame_check passes
steenrod-compat and frame-multiplicative from one kappa0 ring-map pass
where that proves their scans pass, and is compared with frame_check
left to the scans; the ring-map check, on the presentation, is compared
with the earlier check on generator rows times classes.  The earlier
bodies are kept here verbatim as oracles and compared on the built-ins,
on the Grassmannians Gr_2(C^n) and on the saved models, with each kappa0
entry zeroed, each same-degree pair swapped or summed both ways, and
each cross-degree pair swapped, with edits of their square tables and
relations, with short algebra bounds and at every check bound.  The
kill matrices pin how many of these mutants and edits each verdict
rejects.  A frame computes r.sigma(x) = St(kappa0(x)) when it is first
read, and the conjugation equation, decided from the degrees of kappa0,
is compared with its earlier body, which read r.sigma.
"""

from collections import Counter
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Mapping

import pytest

from conjspaces import frames as fr
from conjspaces.errors import DegreeOverflowError, ModelError
from conjspaces.frames import (FrameReport, FreeHFModule, SpaceModel,
                               Verdict, _top, kappa0_apply, purity_check,
                               sigma_apply)
from conjspaces.gf2 import (MONO_ONE, GF2Echelon, Poly, format_monomial,
                            format_poly, mono_mul, parse_poly, poly_gen,
                            poly_one, poly_zero)
from conjspaces.steenrod import (bpoly_coefficient, bpoly_mul, compute_R,
                                 steinberg, steinberg_residue, xor_rows)
from grassmannian import grassmannian_algebra, grassmannian_model

MODELS = Path(__file__).resolve().parent.parent / "models"


def parent_nakayama_splitting_check(model: SpaceModel,
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
    entries: dict[tuple[str, int], tuple[Poly, set]] = {}
    # purity_check names each generator by its basis monomial
    monomials = {format_monomial(m): m for lvl in {lvl for _, lvl in gen_items}
                 for m in model.even.basis(2 * lvl)}

    def entry(name: str, level: int) -> tuple[Poly, set]:
        """kappa0(name), and the classes z with z in Sq^{|z| - level} of
        it, read from one total square."""
        key = (name, level)
        if key not in entries:
            # a name that is no basis class reads kappa0 as zero
            base = fixed.reduce(table.get(monomials.get(name), poly_zero()))
            entries[key] = (base, {z for j, part in fixed.squares(base).items()
                                   for z in part.terms
                                   if fixed.mono_degree(z) == level + j})
        return entries[key]

    # In degree d the map has a column for each generator of level <= d,
    # and a source z meets only those of level <= |z|.  With one column per
    # generator throughout, the row of z is the same in every degree
    # d >= |z|, the degree d matrix is the rows of all z with |z| <= d (the
    # other columns are zero there), and one echelon grows with d.
    ech = GF2Echelon()
    n_source = 0
    for d in range(top // 2 + 1):
        basis = fixed.basis(d)
        n_source += len(basis)
        n_target = sum(1 for _, lvl in gen_items if lvl <= d)
        if n_source != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: source dim {n_source} != target "
                           f"dim {n_target}", d)
        for z in basis:
            row = 0
            for idx, (nm, lvl) in enumerate(gen_items):
                if lvl <= d:
                    base, hit = entry(nm, lvl)
                    fixed.check_sq_bound(d - lvl, base)  # as sq would
                    if z in hit:
                        row ^= 1 << idx
            ech.insert(row)
        if ech.rank != n_target:
            return Verdict("nakayama-splitting", False,
                           f"degree {d}: rank {ech.rank} below {n_target}", d)
    return Verdict("nakayama-splitting", True)


def named_nakayama_splitting_check(model: SpaceModel, module: FreeHFModule,
                                   bound: int | None = None,
                                   kappa0: Mapping | None = None) -> Verdict:
    """parent_nakayama_splitting_check on module with each generator
    monomial written as the name the parent's purity_check gave it."""
    names = FreeHFModule(tuple((format_monomial(m), lvl)
                               for m, lvl in module.generators))
    return parent_nakayama_splitting_check(model, names, bound, kappa0)


def parent_borel_vs_R(model: SpaceModel, bound: int | None = None) -> Verdict:
    """Series of the Steinberg span against even tensor F[b], plus the
    section property: the residue of r.sigma(x) modulo b recovers
    kappa0(x), so kappa0^{-1} of it is x again."""
    top = _top(model, bound)
    rmod = compute_R(model.fixed, top)
    for d in range(top + 1):
        expected = sum(model.even.dim(j) for j in range(d + 1))
        if rmod.dim(d) != expected:
            return Verdict("borel-vs-R", False,
                           f"degree {d}: R dim {rmod.dim(d)} != even*F[b] dim "
                           f"{expected}", d)
    for d, m in model.even_basis_classes():
        if d > top:
            continue
        k0 = kappa0_apply(model, Poly(frozenset({m})))
        residue = steinberg_residue(model.fixed,
                                    steinberg(model.fixed, k0))
        if residue != k0:
            return Verdict("borel-vs-R", False,
                           f"section residue of {format_monomial(m)} is not "
                           f"kappa0 of it", (m, residue))
    return Verdict("borel-vs-R", True)


def parent_unique_section_check(model: SpaceModel,
                                bound: int | None = None) -> Verdict:
    for d, m in model.even_basis_classes(bound):
        k0 = kappa0_apply(model, Poly(frozenset({m})))
        if not k0 or any(model.fixed.mono_degree(z) != d // 2 for z in k0.terms):
            return Verdict("unique-section", False,
                           f"0 candidates for {format_monomial(m)} "
                           f"in degree {d}", (m, 0))
    return Verdict("unique-section", True)


def parent_surjectivity(even, fixed, kappa0, bound) -> None:
    """The closing loop of load_model."""
    for n in range(0, bound // 2 + 1):
        basis = even.basis(2 * n)
        fixed_basis = fixed.basis(n)
        findex = {m: i for i, m in enumerate(fixed_basis)}
        ech = GF2Echelon()
        for m in basis:
            if m not in kappa0:
                raise ModelError(
                    f"no entry for basis monomial {format_monomial(m)} of "
                    f"degree {2 * n}", "/kappa0")
            row = 0
            for t in kappa0[m].terms:
                row ^= 1 << findex[t]
            ech.insert(row)
        if ech.rank < len(fixed_basis):
            raise ModelError(f"kappa0 not surjective in degree {2 * n}",
                             "/kappa0")


@cache
def models() -> tuple:
    return tuple(fr.builtin_models()) + tuple(grassmannian_model(n)
                                              for n in (4, 5, 6))


def kappa0_mutants(model: SpaceModel, cross: bool = True):
    """Each entry zeroed, each same-degree pair swapped and summed both
    ways, and (with cross) each cross-degree pair swapped."""
    k = model.kappa0
    keys = sorted(k)
    for x in keys:
        yield {**k, x: poly_zero()}
    for x, y in combinations(keys, 2):
        if model.even.mono_degree(x) == model.even.mono_degree(y):
            yield {**k, x: k[y], y: k[x]}
            yield {**k, x: k[x] + k[y]}
            yield {**k, y: k[x] + k[y]}
        elif cross:
            yield {**k, x: k[y], y: k[x]}


def with_kappa0(model: SpaceModel, kappa0) -> SpaceModel:
    return SpaceModel(model.name, model.even, model.fixed, kappa0, model.bound)


def outcome(check, *args, **kwargs):
    """A verdict as (name, ok, detail, witness), or the exception raised;
    a check that returns a tuple already has its outcome read."""
    try:
        v = check(*args, **kwargs)
    except (DegreeOverflowError, ModelError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return v if isinstance(v, tuple) else (v.name, v.ok, v.detail, v.witness)


def modules(model: SpaceModel) -> list:
    gens = purity_check(model).module.generators
    return [FreeHFModule(gens)] + [FreeHFModule(gens[:i] + gens[i + 1:])
                                   for i in range(len(gens))]


def test_nakayama_matches_parent_on_mutants_and_dropped_generators():
    compared, diffs = 0, []
    for model in models():
        mods = modules(model)
        for table in [model.kappa0, *kappa0_mutants(model)]:
            for module in mods:
                new = outcome(fr.nakayama_splitting_check,
                              with_kappa0(model, table), module)
                old = outcome(named_nakayama_splitting_check, model, module,
                              kappa0=table)
                compared += 1
                if new != old:
                    diffs.append((model.name, module.generators, new, old))
    assert diffs == []
    assert compared == 13863


def test_nakayama_matches_parent_at_every_bound():
    diffs = []
    for model in models():
        module = purity_check(model).module
        for bound in range(model.bound + 3):
            new = outcome(fr.nakayama_splitting_check, model, module, bound)
            old = outcome(named_nakayama_splitting_check, model, module, bound)
            if new != old:
                diffs.append((model.name, bound, new, old))
    assert diffs == []


def short_fixed_cp3(top: int, edits: dict) -> SpaceModel:
    """CP^3 with kappa0 edited, over F[t]/t^4 cut at degree top."""
    cp3 = fr.cp_model(3)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 4}, top)
    return SpaceModel(cp3.name, cp3.even, fixed, {**cp3.kappa0, **edits},
                      cp3.bound)


X, X2, X3 = (("x", 1),), (("x", 2),), (("x", 3),)

# (check, fixed bound, kappa0 edits): kappa0 values off their degree, whose
# squares pass the short fixed bound, although no verdict reads them
PAST_THE_FIXED_BOUND = [
    # St(t^2) fits the bound 4, but Sq^3 t^2 does not
    ("frame", 4, {X2: poly_gen("t"), X3: poly_gen("t", 2)}),
    # Nakayama reads only the degree 1 part t of kappa0(x)
    *[("nakayama", top, {X: poly_gen("t") + extra})
      for top in (3, 4, 5)
      for extra in (poly_zero(), poly_gen("t", 2), poly_gen("t", 3))],
]


def _case_id(check: str, top: int, edits: dict) -> str:
    values = ",".join(f"{format_monomial(m)}={format_poly(v)}".replace(" ", "")
                      for m, v in edits.items())
    return f"{check}-{values}-cut{top}"


@pytest.mark.parametrize("check, top, edits", PAST_THE_FIXED_BOUND,
                         ids=[_case_id(*c) for c in PAST_THE_FIXED_BOUND])
def test_verdicts_past_a_short_fixed_bound_match_parent_at_8(
        monkeypatch, check, top, edits):
    # the parent raised at the short bound where a square passed it; at
    # fixed bound 8 nothing passes, and the parent answers
    def run(model):
        if check == "frame":
            return _verdicts(model)
        return fr.nakayama_splitting_check(model, purity_check(model).module)

    new = outcome(run, short_fixed_cp3(top, edits))
    monkeypatch.setattr(fr, "borel_vs_R", parent_borel_vs_R)
    monkeypatch.setattr(fr, "nakayama_splitting_check",
                        named_nakayama_splitting_check)
    old = outcome(run, short_fixed_cp3(8, edits))
    assert old[0] != "DegreeOverflowError"
    assert new == old


def _verdicts(model, bound=None):
    ok, verdicts, _ = fr.frame_check(model, bound)
    return ok, [(v.name, v.ok, v.detail, v.witness) for v in verdicts]


def test_frame_check_matches_parent_borel_and_nakayama(monkeypatch):
    # borel-vs-R no longer peels St(kappa0(x)): in frame_check build_frame
    # has already raised wherever that peel could fail
    cases = [with_kappa0(model, table) for model in models()
             for table in [model.kappa0, *kappa0_mutants(model)]]
    new = [outcome(_verdicts, case) for case in cases]
    monkeypatch.setattr(fr, "borel_vs_R", parent_borel_vs_R)
    monkeypatch.setattr(fr, "nakayama_splitting_check",
                        named_nakayama_splitting_check)
    old = [outcome(_verdicts, case) for case in cases]
    assert [i for i, (a, b) in enumerate(zip(new, old)) if a != b] == []
    assert len(cases) == 1121


def test_unique_section_matches_parent_on_mutants():
    diffs = []
    for model in models():
        for table in [model.kappa0, *kappa0_mutants(model)]:
            case = with_kappa0(model, table)
            for bound in (None, case.bound // 2):
                new = outcome(fr.unique_section_check, case, bound)
                old = outcome(parent_unique_section_check, case, bound)
                if new != old:
                    diffs.append((model.name, bound, new, old))
    assert diffs == []


def test_unique_section_missing_entry_raises_as_before():
    model = fr.cp_model(2)
    partial = {m: v for m, v in model.kappa0.items() if m != (("x", 2),)}
    case = with_kappa0(model, partial)
    assert (outcome(fr.unique_section_check, case)
            == outcome(parent_unique_section_check, case)
            == ("ModelError", "/kappa0: kappa0 has no entry for basis "
                "monomial x^2 of degree 4"))


def test_load_model_surjectivity_matches_parent():
    compared = 0
    for model in models():
        for table in [model.kappa0, *kappa0_mutants(model, cross=False)]:
            case = with_kappa0(model, table)
            try:
                parent_surjectivity(model.even, model.fixed, table, model.bound)
                old = None
            except ModelError as exc:
                old = str(exc)
            try:
                fr.load_model(fr.model_to_dict(case))
                new = None
            except ModelError as exc:
                new = str(exc)
            assert new == old, (model.name, new, old)
            compared += 1
    assert compared == 405


def test_borel_vs_r_reads_only_the_series():
    # kappa0(x) = t + t^2 is not homogeneous; St of it raised in the peel
    model = fr.cp_model(2)
    case = with_kappa0(model, {**model.kappa0,
                               (("x", 1),): poly_gen("t") + poly_gen("t", 2)})
    with pytest.raises(ValueError):
        parent_borel_vs_R(case)
    assert outcome(fr.borel_vs_R, case) == ("borel-vs-R", True, "", None)
    with pytest.raises(ValueError):
        fr.build_frame(case)


# Verdict -> number of the 376 same-degree and zeroed kappa0 mutants it
# rejects.  The four survivors are automorphisms of the fixed algebra that
# commute with the squares (x <-> y and x -> x + y both ways on CP^1xCP^1,
# c2 -> c1^2 + c2 on Gr_2(C^4)), which no kappa0-only verdict can see.
KILLS = {"purity": 0, "conjugation-equation": 0, "steenrod-compat": 292,
         "frame-multiplicative": 362, "nakayama-splitting": 184,
         "borel-vs-R": 0, "unique-section": 184, "kappa-shadow": 0}


def test_kill_matrix_pinned():
    kills = Counter()
    total = survivors = 0
    for model in models():
        for table in kappa0_mutants(model, cross=False):
            case = with_kappa0(model, table)
            ok, verdicts, report = fr.frame_check(case)
            verdicts += [fr.unique_section_check(case),
                         fr.kappa_shadow_check(case, report)]
            assert [v.name for v in verdicts] == list(KILLS)
            kills.update(v.name for v in verdicts if not v.ok)
            total += 1
            survivors += all(v.ok for v in verdicts)
    assert total == 376
    assert survivors == 4
    assert {name: kills[name] for name in KILLS} == KILLS


def sq_edits():
    """Gr_2(C^4..7) with Sq^2 c2 replaced by 0, c1^3 or c1^3 + c1 c2, or
    with Sq^1 w2 replaced by 0, w1^3 or w1^3 + w1 w2; an edit that reduces
    to the old value is left out."""
    for n in range(4, 8):
        model = grassmannian_model(n)
        for side, g1, g2 in (("even", "c1", "c2"), ("fixed", "w1", "w2")):
            alg = getattr(model, side)
            i = alg.degree_of[g1]
            for text in ("0", f"{g1}^3", f"{g1}^3 + {g1}*{g2}"):
                value = parse_poly(text, [g1, g2])
                if alg.reduce(value) == alg.reduce(alg.sq_rules[(g2, i)]):
                    continue
                edited = fr.UnstableAlgebra(alg.generators, alg.relations,
                                            {g2: {i: value}}, alg.bound,
                                            alg.name)
                sides = {"even": model.even, "fixed": model.fixed,
                         side: edited}
                yield SpaceModel(model.name, sides["even"], sides["fixed"],
                                 model.kappa0, model.bound)


# Verdict -> number of the 22 square-table edits it rejects.  Editing the
# even side leaves the frame as it was, so only steenrod-compat sees it.
SQ_EDIT_KILLS = {"purity": 0, "conjugation-equation": 0, "steenrod-compat": 22,
                 "frame-multiplicative": 8, "nakayama-splitting": 0,
                 "borel-vs-R": 0, "unique-section": 0, "kappa-shadow": 0}


def test_sq_edit_kill_matrix_pinned():
    kills, alone = Counter(), Counter()
    total = 0
    for case in sq_edits():
        ok, verdicts, report = fr.frame_check(case)
        verdicts += [fr.unique_section_check(case),
                     fr.kappa_shadow_check(case, report)]
        assert [v.name for v in verdicts] == list(SQ_EDIT_KILLS)
        failed = [v.name for v in verdicts if not v.ok]
        kills.update(failed)
        if len(failed) == 1:
            alone.update(failed)
        total += 1
    assert total == 22
    assert {name: kills[name] for name in SQ_EDIT_KILLS} == SQ_EDIT_KILLS
    assert alone == {"steenrod-compat": 14}


def relation_edits():
    """Gr_2(C^4..6) with one monomial of a relation's degree added to it,
    on either side, kept when the edited algebra has the Poincare series
    of the original through its bound."""
    for n in range(4, 7):
        model = grassmannian_model(n)
        for side in ("even", "fixed"):
            alg = getattr(model, side)
            table: dict = {}
            for (g, i), value in alg.sq_rules.items():
                table.setdefault(g, {})[i] = value
            for k, r in enumerate(alg.relations):
                for m in alg.monomials(alg.poly_degree(r)):
                    relations = list(alg.relations)
                    relations[k] = r + Poly(frozenset({m}))
                    edited = fr.UnstableAlgebra(alg.generators, relations,
                                                table, alg.bound, alg.name)
                    if any(edited.dim(d) != alg.dim(d)
                           for d in range(alg.bound + 1)):
                        continue
                    sides = {"even": model.even, "fixed": model.fixed,
                             side: edited}
                    yield side, SpaceModel(model.name, sides["even"],
                                           sides["fixed"], model.kappa0,
                                           model.bound)


# Verdict or exception -> number of the 16 series-keeping relation edits it
# rejects, per side.  An even-side edit moves the basis off the classes
# kappa0 lists, so build_frame raises ModelError for three of them.
RELATION_EDIT_KILLS = {
    "even": {"steenrod-compat": 4, "frame-multiplicative": 4,
             "ModelError": 3},
    "fixed": {"steenrod-compat": 7, "frame-multiplicative": 7,
              "nakayama-splitting": 3, "unique-section": 3},
}


def test_relation_edit_kill_matrix_pinned():
    kills = {side: Counter() for side in RELATION_EDIT_KILLS}
    unstable = Counter()
    for side, case in relation_edits():
        unstable[side] += getattr(case, side).unstable_relation() is not None
        try:
            ok, verdicts, report = fr.frame_check(case)
        except ModelError:
            kills[side]["ModelError"] += 1
            continue
        verdicts += [fr.unique_section_check(case),
                     fr.kappa_shadow_check(case, report)]
        kills[side].update(v.name for v in verdicts if not v.ok)
    assert kills == RELATION_EDIT_KILLS
    assert unstable == {"even": 5, "fixed": 5}


def parent_generator_rows(even) -> list:
    """1, the generators of even degree and the products of two of odd
    degree: every even basis monomial of positive degree is one of the
    last two times a monomial of lower even degree."""
    odd = [g for g, dg in even.generators if dg % 2]
    rows = [MONO_ONE] + [((g, 1),) for g, dg in even.generators if dg % 2 == 0]
    return rows + [mono_mul(((g, 1),), ((h, 1),))
                   for i, g in enumerate(odd) for h in odd[i:]]


def parent_multiplicative_on_generators(report: FrameReport, top: int) -> bool:
    """The rows of verify_frame_multiplicative: sigma(x*y) =
    sigma(x) sigma(y) for x = 1 or a generator and y every even basis
    class, |x| + |y| <= top.  False also when the frame lacks a class
    through top, where the rows prove nothing."""
    model = report.model
    even = model.even
    classes = list(model.even_basis_classes(top))
    if any(c not in report.sigma for c in classes):
        return False
    for x in parent_generator_rows(even):
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


def parent_verify_frame_multiplicative(report: FrameReport,
                                       bound: int | None = None) -> Verdict:
    model = report.model
    top = _top(model, bound)
    try:
        if parent_multiplicative_on_generators(report, top):
            return Verdict("frame-multiplicative", True)
    except DegreeOverflowError:
        pass  # a degree passed a bound; the scan raises where it always did
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


def short_grassmannian(n: int, even_bound: int, fixed_bound: int) -> SpaceModel:
    """Gr_2(C^n) over algebras cut at the given degrees."""
    model = grassmannian_model(n)
    even = grassmannian_algebra(n, "c1", "c2", 2, even_bound)
    fixed = grassmannian_algebra(n, "w1", "w2", 1, fixed_bound)
    return SpaceModel(model.name, even, fixed, model.kappa0, model.bound)


@cache
def compat_models() -> tuple:
    """The built-ins, Gr_2(C^4..7), the saved models, and Gr_2(C^4..7) cut
    where the squares of the top classes, or the degrees just past top,
    leave the even or the fixed bound."""
    base = [*fr.builtin_models(), *(grassmannian_model(n) for n in range(4, 8)),
            *(fr.load_model_file(path) for path in sorted(MODELS.glob("*.json")))]
    short = [short_grassmannian(n, eb, fb)
             for n in range(4, 8) for top in [4 * (n - 2)]
             for eb, fb in ((top, top), (top + 2, top + 1), (2 * top, top),
                            (top + 3, 2 * top))]
    return tuple(base), tuple(short)


def compat_variants():
    """Each model of compat_models with its kappa0 mutants (cross-degree
    swaps too), the short-bound Grassmannians, and the square and relation
    edits of the Grassmannians."""
    base, short = compat_models()
    for model in base:
        yield model
        for table in kappa0_mutants(model):
            yield with_kappa0(model, table)
    yield from short
    yield from sq_edits()
    yield from (case for _, case in relation_edits())




def both_multiplicative(case: SpaceModel, build: int | None,
                        check: int | None):
    """The outcomes of the all-pairs scan and of the parent's
    frame-multiplicative, which first tried the sigma rows, on the frame
    built through build and checked through check."""
    try:
        report = fr.build_frame(case, build)
    except (DegreeOverflowError, ModelError, ValueError) as exc:
        return [(type(exc).__name__, str(exc))] * 2
    return [outcome(f, report, check) for f in
            (fr.verify_frame_multiplicative, parent_verify_frame_multiplicative)]


def scans_only(report, bound):
    """A _kappa0_shortcut that proves nothing: frame_check runs both scans."""
    return False, False


def check_shortcut(case, bound, proved: Counter) -> None:
    """Count by name the verdicts _kappa0_shortcut proves on the frame of
    case through bound, and require each to be a pass of its scan, as
    frame_check calls it."""
    try:
        report = fr.build_frame(case, bound)
    except (DegreeOverflowError, ModelError, ValueError):
        return
    scans = (outcome(fr.verify_steenrod_compat, case, bound=bound),
             outcome(fr.verify_frame_multiplicative, report, bound))
    for ok, scan in zip(fr._kappa0_shortcut(case, bound), scans):
        if ok:
            assert scan[1:] == (True, "", None), (case.name, bound, scan)
            proved[scan[0]] += 1


def frame_check_verdict(model: SpaceModel, bound: int | None, name: str):
    """frame_check's verdict name as (name, ok, detail, witness), or the
    exception frame_check raised."""
    try:
        _, verdicts, _ = fr.frame_check(model, bound)
    except (DegreeOverflowError, ModelError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return next((v.name, v.ok, v.detail, v.witness) for v in verdicts
                if v.name == name)


def test_compat_and_multiplicative_match_parent_on_variants(monkeypatch):
    # frame_check through its one kappa0 pass gives, verdict for verdict
    # or exception for exception, what it gives with steenrod-compat and
    # frame-multiplicative left to their scans; each verdict the pass
    # proves is one its scan passes
    cases = list(compat_variants())
    proved = Counter()
    new = [outcome(_verdicts, case) for case in cases]
    for case in cases:
        check_shortcut(case, None, proved)
    monkeypatch.setattr(fr, "_kappa0_shortcut", scans_only)
    old = [outcome(_verdicts, case) for case in cases]
    assert [i for i, (a, b) in enumerate(zip(new, old)) if a != b] == []
    assert len(cases) == 1472
    # frame_check's ok, or the name of the exception it raised
    assert Counter(result[0] for result in new) == {
        True: 48, False: 1409, "DegreeOverflowError": 12, "ModelError": 3}
    assert proved == {"steenrod-compat": 60, "frame-multiplicative": 86}


def test_compat_and_multiplicative_match_parent_at_every_bound(monkeypatch):
    # check bounds None and 0 .. top + 4: the shortcut must leave a verdict
    # to its scan wherever a bound trips; the scan of frame-multiplicative
    # also meets the parent's sigma rows, on frames built through the
    # check bound and through the model's
    base, short = compat_models()
    swaps = tuple(grassmannian_model(n, swap=True) for n in range(4, 8))
    runs = [(model, bound) for model in base + short + swaps
            for bound in (None, *range(model.bound + 5))]
    proved, diffs = Counter(), []
    new = [outcome(_verdicts, model, bound) for model, bound in runs]
    for model, bound in runs:
        check_shortcut(model, bound, proved)
        for scan, parent in (both_multiplicative(model, bound, bound),
                             both_multiplicative(model, None, bound)):
            if scan != parent:
                diffs.append((model.name, bound, scan, parent))
    monkeypatch.setattr(fr, "_kappa0_shortcut", scans_only)
    old = [outcome(_verdicts, model, bound) for model, bound in runs]
    assert [runs[i] for i, (a, b) in enumerate(zip(new, old)) if a != b] == []
    assert diffs == []
    assert len(runs) == 916
    assert Counter(result[0] for result in new) == {
        True: 644, False: 72, "DegreeOverflowError": 200}
    assert proved == {"steenrod-compat": 238, "frame-multiplicative": 832}


def test_frame_check_runs_the_kappa0_ring_map_once(monkeypatch):
    # one ring-map pass decides both steenrod-compat and
    # frame-multiplicative; the parent ran it once for each
    calls = []
    ring_map = fr._kappa0_ring_map

    def counted(model, classes, top):
        calls.append(id(model))
        return ring_map(model, classes, top)

    monkeypatch.setattr(fr, "_kappa0_ring_map", counted)
    base, _ = compat_models()
    for model in base:
        assert purity_check(model).ok, model.name
        fr.frame_check(model)
    assert calls == [id(model) for model in base]


def parent_kappa0_ring_map(model: SpaceModel, classes: list,
                           top: int) -> dict | None:
    """The parent's ring-map pass: kappa0 of each class as fixed degree ->
    row, when kappa0(x) kappa0(y) = kappa0(x*y) for x a row of
    parent_generator_rows and y every class, |x| + |y| <= top; None
    when a row fails."""
    even, fixed = model.even, model.fixed
    k0 = {m: fixed.rows(model.kappa0[m].terms) for _, m in classes}
    terms = {m: fixed.decode(rows) for m, rows in k0.items()}
    for x in parent_generator_rows(even):
        dx = even.mono_degree(x)
        if dx > top:
            continue
        kx = xor_rows(k0[c] for c in even.decode(even.rows((x,))))
        x_terms = fixed.decode(kx)
        for d, y in classes:
            if dx + d > top:
                break
            lhs = fixed.product_rows(x_terms, terms[y])
            if lhs != xor_rows(k0[w] for w in
                               even.decode(even.product_rows((x,), (y,)))):
                return None
    return k0


def returned(f, *args):
    """("value", what f returned), or the exception it raised."""
    try:
        return "value", f(*args)
    except (DegreeOverflowError, ModelError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def kappa0_unit_mutants(model: SpaceModel):
    """model with kappa0(1) = 0, and with 1 swapped with each degree-2
    class."""
    k = model.kappa0
    yield with_kappa0(model, {**k, MONO_ONE: poly_zero()})
    for x in model.even.basis(2):
        yield with_kappa0(model, {**k, MONO_ONE: k[x], x: k[MONO_ONE]})


def test_kappa0_ring_map_matches_parent():
    # the check on the presentation gives the parent's rows, or None, on
    # every variant, on every compat model at every check bound, swaps
    # included, and on the kappa0(1) mutants, wherever purity passes at
    # the check bound and the frame is built, as in frame_check
    base, short = compat_models()
    swaps = tuple(grassmannian_model(n, swap=True) for n in range(4, 8))
    runs = [(case, None) for case in compat_variants()]
    runs += [(model, bound) for model in base + short + swaps
             for bound in (None, *range(model.bound + 5))]
    runs += [(case, None) for model in base
             for case in kappa0_unit_mutants(model)]
    kinds = Counter()
    for model, bound in runs:
        try:
            if not purity_check(model, bound).ok:
                continue
            fr.build_frame(model, bound)
        except (DegreeOverflowError, ModelError):
            continue
        top = _top(model, bound)
        classes = list(model.even_basis_classes(top))
        new = returned(fr._kappa0_ring_map, model, classes, top)
        assert new == returned(parent_kappa0_ring_map, model, classes,
                               top), (model.name, bound)
        kinds[new[0] if new[0] != "value" else new[1] is not None] += 1
    assert kinds == {True: 919, False: 1509}


def chain_monomials(monomials) -> set:
    """The monomials other than 1 met by stripping the last generator of
    each of monomials, one at a time."""
    met = set()
    for m in monomials:
        while m and m not in met:
            met.add(m)
            g, e = m[-1]
            m = m[:-1] + (((g, e - 1),) if e > 1 else ())
    return met


@pytest.mark.parametrize("n, parent_calls", [(8, 162), (14, 540)])
def test_kappa0_ring_map_makes_one_product_per_monomial(monkeypatch, n,
                                                        parent_calls):
    # one product of rows per monomial met on the way to the classes and
    # the terms of the relations, and one for c^2 = c; the parent made
    # two per pair of a generator row and a class
    calls = []
    product_rows = fr.UnstableAlgebra.product_rows

    def counted(alg, xs, ys):
        calls.append(alg)
        return product_rows(alg, xs, ys)

    monkeypatch.setattr(fr.UnstableAlgebra, "product_rows", counted)
    model = grassmannian_model(n)
    even, top = model.even, model.bound
    classes = list(model.even_basis_classes())
    assert parent_kappa0_ring_map(model, classes, top) is not None
    assert len(calls) == parent_calls
    calls.clear()
    assert fr._kappa0_ring_map(model, classes, top) is not None
    met = chain_monomials([m for _, m in classes] + [
        t for r in even.relations if even.poly_degree(r) <= top
        for t in r.terms])
    assert len(calls) <= len(met) + 1 and len(calls) < parent_calls


def test_vanishes_above_matches_the_inline_rule():
    # the answers, and the exceptions, of the loop _kappa0_shortcut wrote
    # out, on fresh algebras so that no cache of one serves the other
    def inline(alg, k):
        g = max((dg for _, dg in alg.generators), default=0)
        return not any(alg.dim(d) for d in range(k + 1, k + g + 1))

    def algebras():
        for model in (*fr.builtin_models(),
                      *(grassmannian_model(n) for n in range(4, 8))):
            yield model.even
            yield model.fixed

    seen = Counter()
    for old, new in zip(algebras(), algebras()):
        for k in range(old.bound + 2):
            answer = returned(new.vanishes_above, k)
            assert answer == returned(inline, old, k), (old.name, k)
            seen[answer[0] if answer[0] != "value" else answer[1]] += 1
    assert seen == {True: 1500, False: 423, "DegreeOverflowError": 241}


def test_unstable_fixed_side_keeps_the_scan_witness():
    # Sq^1 w2 = 0 on Gr_2(R^5): kappa0 is a ring map, but the squares do
    # not carry the relations to 0, so St is no ring map, and the scan
    # decides and names c2 * c2
    model = grassmannian_model(5)
    alg = model.fixed
    fixed = fr.UnstableAlgebra(alg.generators, alg.relations,
                               {"w2": {1: poly_zero()}}, alg.bound)
    case = SpaceModel(model.name, model.even, fixed, model.kappa0, model.bound)
    assert fixed.unstable_relation() == 0
    classes = list(case.even_basis_classes())
    assert fr._kappa0_ring_map(case, classes, case.bound) is not None
    report = fr.build_frame(case)
    assert fr._kappa0_shortcut(case, None) == (False, False)
    witness = ("frame-multiplicative", False, "c2 * c2",
               ((("c2", 1),), (("c2", 1),)))
    assert frame_check_verdict(case, None, "frame-multiplicative") == witness
    assert (outcome(fr.verify_frame_multiplicative, report)
            == outcome(parent_verify_frame_multiplicative, report) == witness)


def test_unstable_fixed_side_scan_passes():
    # F[x]/(x^2), |x| = 2, over F[w1, w2]/(w2 + w1^2) with Sq^1 w2 = w1 w2:
    # Sq of the relation is w1^3, so the shortcut gives up, and the scan
    # through degree 2 meets only products with the unit
    even = fr.truncated_algebra((("x", 2),), {"x": 2}, 8)
    fixed = fr.UnstableAlgebra(
        (("w1", 1), ("w2", 2)), [parse_poly("w2 + w1^2", ["w1", "w2"])],
        {"w2": {1: parse_poly("w1*w2", ["w1", "w2"])}}, 8)
    model = SpaceModel("unstable", even, fixed,
                       {MONO_ONE: poly_one(), (("x", 1),): poly_gen("w1")}, 2)
    assert fixed.unstable_relation() == 0
    report = fr.build_frame(model)
    assert fr._kappa0_shortcut(model, None) == (False, False)
    passed = ("frame-multiplicative", True, "", None)
    assert frame_check_verdict(model, None, "frame-multiplicative") == passed
    assert (outcome(fr.verify_frame_multiplicative, report)
            == outcome(parent_verify_frame_multiplicative, report) == passed)


def _trip_in_range_case():
    """CP^2 with even bound 6: every condition of the generator proof
    holds, but Sq^4 x^2 passes the even bound at l = 2, inside the
    l-range of x^2, where the loop raises."""
    model = fr.cp_model(2)
    even = fr.truncated_algebra((("x", 2),), {"x": 3}, 6)
    return SpaceModel(model.name, even, model.fixed, model.kappa0,
                      model.bound), None


def _row_above_bound_case():
    """F[x, y]/(x^2, y), |x| = 2, |y| = 4, over F[t]/(t^2), checked
    through degree 2: the generator y lies above the check bound, where
    the even side vanishes, so its squares are 0 and the generator proof
    passes."""
    even = fr.UnstableAlgebra((("x", 2), ("y", 4)),
                              [parse_poly(r, ["x", "y"]) for r in ("x^2", "y")],
                              None, 10)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 2}, 10)
    return SpaceModel("row", even, fixed,
                      {MONO_ONE: poly_one(), (("x", 1),): poly_gen("t")},
                      2), None


def _off_degree_case():
    """CP^2 over F[t]/(t^3) with kappa0(x) = t^2 and kappa0(x^2) = 0:
    a ring map over stable sides that vanish above the check bound, but
    kappa0(x) is not of degree 1, so the scan decides, and passes."""
    model = fr.cp_model(2)
    kappa0 = {MONO_ONE: poly_one(), (("x", 1),): poly_gen("t", 2),
              (("x", 2),): poly_zero()}
    return with_kappa0(model, kappa0), None


def _reach_case():
    """F[z, w]/(z^2), |z| = 2, |w| = 3, Sq^1 z = w, cut at degree 5, under
    F[x]/(x^2), |x| = 4, kappa0(x) = z: kappa0 is a ring map over a
    stable fixed side, but sigma(x) = b^2 z + b w, and the scan's product
    w * w of sigma(x) sigma(x) passes the fixed bound."""
    fixed = fr.UnstableAlgebra((("z", 2), ("w", 3)), (poly_gen("z", 2),),
                               {"z": {1: poly_gen("w")}}, 5)
    even = fr.truncated_algebra((("x", 4),), {"x": 2}, 16)
    return SpaceModel("reach", even, fixed,
                      {MONO_ONE: poly_one(), (("x", 1),): poly_gen("z")},
                      8), None


def _vanishing_case():
    """CP^4 over RP^4 with kappa0(x^4) = 0, checked through degree 4: the
    ring map and the generator x hold, but Sq^4 x^2 = x^4 lies past the
    check bound, where the even side does not vanish."""
    even = fr.truncated_algebra((("x", 2),), {"x": 5}, 26)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 5}, 26)
    kappa0 = {MONO_ONE: poly_one(), (("x", 4),): poly_zero()}
    kappa0.update({(("x", k),): poly_gen("t", k) for k in (1, 2, 3)})
    return SpaceModel("CP^4", even, fixed, kappa0, 8), 4


def _vanishing_overflow_case():
    """Gr_2(C^4) over an even algebra cut at degree 11: kappa0 is a ring
    map and multiplicativity is proved, but reading the even side above
    top meets degree 12, past its bound, so steenrod-compat goes to the
    loop, which raises."""
    case = short_grassmannian(4, 11, 16)
    with pytest.raises(DegreeOverflowError):
        case.even.dim(12)
    return case, None


def _odd_square_case():
    """F[a, b]/(b^2, a^3), |a| = |b| = 1, over F[t1, t2]/(t1^2, t2^2, t1 t2)
    with kappa0(a^2) = t1 and kappa0(a b) = t2: a ring map, but a b has
    Sq^1(a b) = a^2 b.  The odd classes fail purity, which frame_check
    runs first, so the shortcut, whose precondition purity is, is never
    asked."""
    ab, ts = ["a", "b"], ["t1", "t2"]
    even = fr.UnstableAlgebra((("a", 1), ("b", 1)),
                              [parse_poly(r, ab) for r in ("b^2", "a^3")],
                              None, 12)
    fixed = fr.UnstableAlgebra((("t1", 1), ("t2", 1)),
                               [parse_poly(r, ts)
                                for r in ("t1^2", "t2^2", "t1*t2")], None, 12)
    kappa0 = {MONO_ONE: poly_one(), (("a", 2),): poly_gen("t1"),
              (("a", 1), ("b", 1)): poly_gen("t2")}
    return SpaceModel("odd", even, fixed, kappa0, 4), None


@pytest.mark.parametrize("case, proved, verdict, scan", [
    (_reach_case, (False, False), "frame-multiplicative",
     ("DegreeOverflowError", "degree 6 beyond bound 5 of algebra")),
    (_vanishing_case, (False, True), "steenrod-compat",
     ("steenrod-compat", False, "kappa0 Sq^4 != Sq^2 kappa0 on x^2",
      ((("x", 2),), 2, poly_zero(), poly_gen("t", 4)))),
    (_vanishing_overflow_case, (False, True), "steenrod-compat",
     ("DegreeOverflowError", "Sq^8 output degree 12 beyond bound 11")),
    (_odd_square_case, None, "steenrod-compat",
     ("steenrod-compat", False, "Sq^1 nonzero on even class a*b",
      ((("a", 1), ("b", 1)), 1))),
    (_trip_in_range_case, (False, True), "steenrod-compat",
     ("DegreeOverflowError", "Sq^4 output degree 8 beyond bound 6")),
    (_row_above_bound_case, (True, True), "steenrod-compat",
     ("steenrod-compat", True, "", None)),
    (_off_degree_case, (False, True), "steenrod-compat",
     ("steenrod-compat", True, "", None)),
], ids=["product-past-fixed-bound", "even-side-past-check-bound",
        "even-side-read-past-its-bound", "odd-square-on-a-row",
        "bound-trip-in-l-range", "row-above-check-bound",
        "kappa0-off-degree"])
def test_fast_path_guards_fall_back_to_the_scan(case, proved, verdict, scan):
    # each case but the generator above the check bound meets one
    # condition of the shortcut, which leaves the verdict to its scan; a
    # failed steenrod-compat condition keeps frame-multiplicative proved.
    # The scan's outcome is frame_check's where purity passes.  The odd
    # case fails purity, the shortcut's precondition, so it is not asked
    model, bound = case()
    report = fr.build_frame(model, bound)
    if proved is None:
        assert frame_check_verdict(model, bound, "purity")[:3] == (
            "purity", False, "odd concentration at 1 (dims (2,))")
    else:
        assert fr._kappa0_shortcut(model, bound) == proved
    scans = {"steenrod-compat": outcome(fr.verify_steenrod_compat, model,
                                        bound=bound),
             "frame-multiplicative": outcome(fr.verify_frame_multiplicative,
                                             report, bound)}
    assert scans[verdict] == scan
    assert (scans["frame-multiplicative"]
            == outcome(parent_verify_frame_multiplicative, report, bound))
    if purity_check(model, bound).ok:
        assert frame_check_verdict(model, bound, verdict) == scan


def parent_verify_conjugation_equation(report: FrameReport,
                                       kappa0: Mapping | None = None) -> Verdict:
    """r.sigma(x) = kappa0(x) b^n + lower terms, no b-power above n, read
    off the top b-power and the b^n coefficient of r.sigma(x)."""
    model = report.model
    table = model.kappa0 if kappa0 is None else kappa0
    for (d, m), sig in sorted(report.sigma.items()):
        n = d // 2
        top = max((e for e, _ in sig.terms), default=None)
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


def built_frames():
    """The frame of each case of compat_variants that build_frame builds."""
    for case in compat_variants():
        try:
            yield fr.build_frame(case)
        except (DegreeOverflowError, ModelError):
            pass


def test_conjugation_equation_matches_parent():
    # on every frame built from the variants, on the selftest's CP^2 table
    # with x and x^2 swapped, on CP^3 with x^2 and x^3 swapped, and on CP^2
    # with kappa0(x^2) = t, where the b^2 coefficient is 0
    cp2, cp3 = fr.cp_model(2), fr.cp_model(3)
    x1, x2, x3 = (("x", 1),), (("x", 2),), (("x", 3),)
    swapped = {**cp2.kappa0, x1: cp2.kappa0[x2], x2: cp2.kappa0[x1]}
    degree_breaking = with_kappa0(cp3, {**cp3.kappa0, x2: cp3.kappa0[x3],
                                        x3: cp3.kappa0[x2]})
    runs = [(report, None) for report in built_frames()]
    degree_lowering = with_kappa0(cp2, {**cp2.kappa0, x2: cp2.kappa0[x1]})
    runs += [(fr.build_frame(cp2), swapped),
             (fr.build_frame(degree_breaking), None),
             (fr.build_frame(degree_lowering), None)]
    kinds = Counter()
    for report, table in runs:
        new = outcome(fr.verify_conjugation_equation, report, table)
        assert new == outcome(parent_verify_conjugation_equation, report,
                              table), report.model.name
        kinds[new[1] or new[2].split(" ")[0]] += 1
    assert kinds == {True: 540, "b-power": 930, "leading": 2}
    assert [outcome(fr.verify_conjugation_equation, *run)[2]
            for run in runs[-3:]] == [
        "leading coefficient of x is t, expected t^2",
        "b-power 3 above 2 on x^2",
        "leading coefficient of x^2 is 0, expected t"]


def test_lazy_sigma_is_steinberg_of_kappa0():
    # wherever build_frame returns, sigma read on demand is the eager
    # St(kappa0(x)) on every class, and reading it raises nothing
    built = 0
    for report in built_frames():
        model = report.model
        assert report.sigma == {
            (d, m): steinberg(model.fixed,
                              kappa0_apply(model, Poly(frozenset({m}))))
            for d, m in model.even_basis_classes()}, model.name
        built += 1
    assert built == 1469


def counted_steinberg(monkeypatch) -> list:
    """The arguments of every steinberg call frames makes from now on."""
    calls = []

    def counted(alg, x):
        calls.append(x)
        return steinberg(alg, x)

    monkeypatch.setattr(fr, "steinberg", counted)
    return calls


def test_frame_check_computes_no_sigma_on_passing_models(monkeypatch):
    calls = counted_steinberg(monkeypatch)
    for model in (*fr.builtin_models(),
                  *(grassmannian_model(n) for n in range(4, 9))):
        ok, _, _ = fr.frame_check(model)
        assert ok and calls == [], model.name


def test_shortcut_reads_sigma_only_past_the_fixed_bound(monkeypatch):
    # where _kappa0_shortcut proves both verdicts, frame_check computes
    # no sigma, past the fixed bound too: there the reach of sigma(x) is
    # capped by the top nonzero degree of the fixed algebra
    calls = counted_steinberg(monkeypatch)
    base, short = compat_models()
    read, proved, past = [], 0, 0
    for model in base + short:
        for bound in (None, *range(model.bound + 5)):
            try:
                fr.build_frame(model, bound)
            except DegreeOverflowError:
                continue
            if fr._kappa0_shortcut(model, bound) != (True, True):
                continue
            calls.clear()
            fr.frame_check(model, bound)
            proved += 1
            past += bound is not None and bound > model.fixed.bound
            if calls:
                read.append((model.name, bound, model.fixed.bound))
    assert proved == 238
    assert read == []
    assert past == 16


def test_multiplicative_scan_computes_each_sigma_once(monkeypatch):
    # the kappa0 swap of Gr_2(C^5) fails the ring-map pass, so the
    # all-pairs scan reads sigma: one St per class, none on a second read;
    # a report equals a fresh one of its model, whose sigma is unread
    calls = counted_steinberg(monkeypatch)
    ok, verdicts, report = fr.frame_check(grassmannian_model(5, swap=True))
    assert not ok
    assert [v.name for v in verdicts if not v.ok] == [
        "steenrod-compat", "frame-multiplicative"]
    assert Counter(calls) == Counter(report.values.values())
    assert len(calls) == len(report.values) == 10
    sigma = report.sigma
    assert report.sigma is sigma and len(calls) == 10
    assert report == fr.build_frame(report.model)
