"""The kappa0-only frame verdicts against their earlier bodies.

Nakayama splitting, the uniqueness of the section and the surjectivity
check of load_model now read one kappa0 matrix per level, and borel-vs-R
no longer peels St(kappa0(x)) back to kappa0(x).  The earlier bodies are
kept here verbatim as oracles and compared on every built-in and on
Gr_2(C^4..6), with each kappa0 entry zeroed, each same-degree pair
swapped or summed both ways, and each cross-degree pair swapped.  The
kill matrix pins how many of these mutants each verdict rejects, and how
many edits of the square tables of Gr_2(C^4..7) each one rejects.
"""

from collections import Counter
from functools import cache
from itertools import combinations
from typing import Mapping

import pytest

from conjspaces import frames as fr
from conjspaces.errors import DegreeOverflowError, ModelError
from conjspaces.frames import (FreeHFModule, SpaceModel, Verdict, _top,
                               kappa0_apply, purity_check)
from conjspaces.gf2 import (GF2Echelon, Poly, format_monomial, format_poly,
                            parse_poly, poly_gen, poly_zero)
from conjspaces.steenrod import compute_R, steinberg, steinberg_residue
from grassmannian import grassmannian_model


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
                new = outcome(fr.nakayama_splitting_check, model, module,
                              kappa0=table)
                old = outcome(parent_nakayama_splitting_check, model, module,
                              kappa0=table)
                compared += 1
                if new != old:
                    diffs.append((model.name, module.generators, new, old))
    assert diffs == []
    assert compared == 13863


def test_nakayama_matches_parent_at_every_bound():
    diffs = []
    for model in models():
        for bound in range(model.bound + 3):
            new = outcome(fr.nakayama_splitting_check, model, bound=bound)
            old = outcome(parent_nakayama_splitting_check, model, bound=bound)
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
        return fr.nakayama_splitting_check(model)

    new = outcome(run, short_fixed_cp3(top, edits))
    monkeypatch.setattr(fr, "borel_vs_R", parent_borel_vs_R)
    monkeypatch.setattr(fr, "nakayama_splitting_check",
                        parent_nakayama_splitting_check)
    old = outcome(run, short_fixed_cp3(8, edits))
    assert old[0] != "DegreeOverflowError"
    assert new == old


def _verdicts(model):
    ok, verdicts, _ = fr.frame_check(model)
    return ok, [(v.name, v.ok, v.detail, v.witness) for v in verdicts]


def test_frame_check_matches_parent_borel_and_nakayama(monkeypatch):
    # borel-vs-R no longer peels St(kappa0(x)): in frame_check build_frame
    # has already raised wherever that peel could fail
    cases = [with_kappa0(model, table) for model in models()
             for table in [model.kappa0, *kappa0_mutants(model)]]
    new = [outcome(_verdicts, case) for case in cases]
    monkeypatch.setattr(fr, "borel_vs_R", parent_borel_vs_R)
    monkeypatch.setattr(fr, "nakayama_splitting_check",
                        parent_nakayama_splitting_check)
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
                if alg.reduce(value) == alg.reduce(alg._sq_rules[(g2, i)]):
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
