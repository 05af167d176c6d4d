"""Conjugation-space models: purity, frames, splittings, uniqueness.

Frozen oracles: for the projective plane with fixed points the real
projective plane,

    r.sigma(x)   = b*t + t^2        squares Sq^l t at b^{1-l}: t, t^2
    r.sigma(x^2) = b^2*t^2          squares Sq^l t^2 at b^{2-l}: t^2, 0, 0

and for representation spheres the frame is a single leading term.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conjspaces import frames as fr
from conjspaces.coefficients import (LaurentElem, chart_lookup,
                                     free_module_basis, shadow_projection)
from conjspaces.degree import RODegree, diagonal
from conjspaces.errors import DegreeOverflowError, ModelError
from conjspaces.gf2 import (MONO_ONE, Poly, format_monomial, poly_gen, poly_one,
                            poly_zero)
from conjspaces.steenrod import (BPoly, bpoly_coefficient, bpoly_mul,
                                 format_bpoly, polynomial_algebra, steinberg,
                                 steinberg_residue)
from grassmannian import grassmannian_model
from steinberg_span import st_generators_at

X1 = (("x", 1),)
X2 = (("x", 2),)
MODELS = Path(__file__).resolve().parents[1] / "models"


def test_builtin_catalogue():
    models = fr.builtin_models()
    names = [m.name for m in models]
    assert names[0] == "pt"
    assert "S^3+3al" in names
    assert "CP^8" in names
    assert "CP^2xCP^3" in names
    assert "CP^3xCP^2" not in names  # unordered products listed once
    assert len(names) == len(set(names))
    assert len(models) == 26


def test_purity_positive():
    res = fr.purity_check(fr.cp_model(2))
    assert res.ok
    assert res.module.generators == ((MONO_ONE, 0), (X1, 1), (X2, 2))
    assert fr.format_generators(res.module) == "1@0, x@1, x^2@2"
    res2 = fr.purity_check(fr.sphere_model(3))
    assert res2.ok
    assert res2.module.generators == ((MONO_ONE, 0), (X1, 3))


def test_purity_dimension_mismatch():
    # fixed points too small: kappa0 still surjective degreewise is not
    # even required here, purity fails on the level dimensions
    even = fr.truncated_algebra((("x", 2), ("y", 2)), {"x": 2, "y": 2}, 20)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 2}, 20)
    model = fr.SpaceModel("mismatch", even, fixed,
                          {MONO_ONE: poly_one(),
                           X1: poly_gen("t"), (("y", 1),): poly_gen("t")}, 4)
    res = fr.purity_check(model)
    assert not res.ok
    assert res.reason == "level dimension mismatch"
    assert res.degree == 1
    assert res.dims == (2, 1)


def test_purity_odd_class():
    even = fr.UnstableAlgebra((("e", 3),), (Poly(frozenset({(("e", 2),)})),),
                              None, 20)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 2}, 20)
    model = fr.SpaceModel("odd", even, fixed, {MONO_ONE: poly_one()}, 6)
    res = fr.purity_check(model)
    assert not res.ok and res.reason == "odd concentration" and res.degree == 3


def test_module_cohomology():
    summands = (("1", diagonal(0)), ("x", diagonal(1)))
    at = free_module_basis(summands, RODegree(1, 1))
    # the unit summand contributes its (1+al) cell, x its unit cell
    assert (("au", 0, 0), "x") in at
    assert len(at) == sum(
        chart_lookup(RODegree(1, 1) - diagonal(lvl)).dim_pt
        for lvl in (0, 1))


def test_frame_frozen_cp2():
    model = fr.cp_model(2)
    report = fr.build_frame(model)
    assert format_bpoly(report.sigma[(2, X1)]) == "b*t + t^2"
    assert format_bpoly(report.sigma[(4, X2)]) == "b^2*t^2"
    # Sq^l kappa0(x) is the b^{n-l} coefficient of r.sigma(x), |x| = 2n
    sig1, sig2 = report.sigma[(2, X1)], report.sigma[(4, X2)]
    assert (tuple(bpoly_coefficient(sig1, 1 - l) for l in range(2))
            == (poly_gen("t"), poly_gen("t", 2)))
    assert (tuple(bpoly_coefficient(sig2, 2 - l) for l in range(3))
            == (poly_gen("t", 2), poly_zero(), poly_zero()))
    assert fr.verify_conjugation_equation(report).ok


def test_frame_sphere_single_term():
    for n in (1, 2, 3, 5):
        model = fr.sphere_model(n)
        report = fr.build_frame(model)
        sig = report.sigma[(2 * n, X1)]
        assert len(sig.terms) == 1
        assert max(e for e, _ in sig.terms) == n
        assert bpoly_coefficient(sig, n) == poly_gen("s")


def test_conjugation_equation_mutation():
    model = fr.cp_model(2)
    report = fr.build_frame(model)
    corrupted = dict(model.kappa0)
    corrupted[X1], corrupted[X2] = corrupted[X2], corrupted[X1]
    verdict = fr.verify_conjugation_equation(report, corrupted)
    assert not verdict.ok
    assert "leading coefficient" in verdict.detail
    assert verdict.witness is not None


def test_steenrod_compat_all_builtins():
    for model in fr.builtin_models():
        assert fr.verify_steenrod_compat(model).ok, model.name


def test_steenrod_compat_past_bound_raises():
    # the degree of Sq^{2l} x passes the even bound first on the unit class
    model = fr.cp_model(2)
    with pytest.raises(DegreeOverflowError) as exc:
        fr.verify_steenrod_compat(model, sq_bound=40)
    assert str(exc.value) == "Sq^28 output degree 28 beyond bound 26"
    # with a short fixed side, Sq^l kappa0(1) passes its bound first
    fixed = fr.truncated_algebra((("t", 1),), {"t": 3}, 6)
    short = fr.SpaceModel(model.name, model.even, fixed, model.kappa0,
                          model.bound)
    with pytest.raises(DegreeOverflowError) as exc:
        fr.verify_steenrod_compat(short, sq_bound=40)
    assert str(exc.value) == "Sq^7 output degree 7 beyond bound 6"


def test_steenrod_compat_mutation():
    # degree-preserving swap t1 <-> t2 on the line factors: kappa0 stays
    # a graded bijection, so the conjugation equation still holds, but
    # the squares distinguish the two truncation heights
    model = fr.cp_product_model(1, 2)
    bad = dict(model.kappa0)
    bad[X1], bad[(("y", 1),)] = bad[(("y", 1),)], bad[X1]
    mutant = fr.SpaceModel(model.name, model.even, model.fixed, bad, model.bound)
    verdict = fr.verify_steenrod_compat(mutant)
    assert not verdict.ok
    assert fr.verify_conjugation_equation(fr.build_frame(mutant)).ok


def cp4_dropping_x4(even_bound, fixed_bound):
    """CP^4 over RP^4 with algebra bounds of choice and kappa0(x^4) = 0,
    so that Sq^4 x^2 = x^4 and Sq^2 t^2 = t^4 first disagree on x^2, l = 2."""
    even = fr.truncated_algebra((("x", 2),), {"x": 5}, even_bound)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 5}, fixed_bound)
    kappa0 = {MONO_ONE: poly_one(), (("x", 4),): poly_zero()}
    kappa0.update({(("x", k),): poly_gen("t", k) for k in (1, 2, 3)})
    return fr.SpaceModel("CP^4", even, fixed, kappa0, 8)


# (even bound, fixed bound, sq_bound) -> the verdict detail or the error
# text; the first l past a bound on x^2 is 3, 1 and 2, against the failure
# at l = 2, and the checks of the first such l come first
@pytest.mark.parametrize("bounds, expected", [
    ((9, 4, 6), "kappa0 Sq^4 != Sq^2 kappa0 on x^2"),
    ((9, 2, 2), "Sq^1 output degree 3 beyond bound 2"),
    ((7, 4, 2), "Sq^4 output degree 8 beyond bound 7"),
], ids=["fails-below-overflow", "fixed-overflow-below-failure",
        "even-overflow-at-failure"])
def test_steenrod_compat_failure_against_first_overflow(bounds, expected):
    model = cp4_dropping_x4(*bounds[:2])
    try:
        verdict = fr.verify_steenrod_compat(model, sq_bound=bounds[2])
    except DegreeOverflowError as exc:
        assert str(exc) == expected
    else:
        assert (verdict.ok, verdict.detail) == (False, expected)
        assert verdict.witness == (X2, 2, poly_zero(), poly_gen("t", 4))


def test_degree_breaking_mutation():
    # swapping the images of x^2 and x^3 is not degree-preserving, so
    # the b-power cap fires and the splitting matrix loses rank
    model = fr.cp_model(3)
    bad = dict(model.kappa0)
    bad[X2], bad[(("x", 3),)] = bad[(("x", 3),)], bad[X2]
    mutant = fr.SpaceModel(model.name, model.even, model.fixed, bad, model.bound)
    verdict = fr.verify_conjugation_equation(fr.build_frame(mutant))
    assert not verdict.ok and "b-power" in verdict.detail
    purity = fr.purity_check(mutant)
    assert not fr.nakayama_splitting_check(mutant, purity.module).ok


def test_nakayama_positive_and_mutations():
    model = fr.cp_model(2)
    purity = fr.purity_check(model)
    assert fr.nakayama_splitting_check(model, purity.module).ok
    dropped = fr.FreeHFModule(purity.module.generators[:-1])
    verdict = fr.nakayama_splitting_check(model, dropped)
    assert not verdict.ok and "dim" in verdict.detail
    zeroed = dict(model.kappa0)
    zeroed[X1] = poly_zero()
    verdict2 = fr.nakayama_splitting_check(_with_kappa0(model, zeroed),
                                           purity.module)
    assert not verdict2.ok and "rank" in verdict2.detail


@pytest.mark.parametrize("name", ["CP^2", "CP^3", "CP^1xCP^2", "S^3+3al"])
def test_frame_check_passes_at_every_smaller_bound(name):
    # the bound counts even degrees, so Nakayama compares the fixed side
    # in degrees up to bound // 2, the levels purity reaches
    model = next(m for m in fr.builtin_models() if m.name == name)
    for bound in range(model.bound + 1):
        ok, verdicts, _ = fr.frame_check(model, bound)
        assert ok, (bound, [(v.name, v.detail) for v in verdicts if not v.ok])


def test_borel_vs_r():
    for model in (fr.cp_model(1), fr.cp_model(3), fr.sphere_model(2),
                  fr.cp_product_model(1, 2)):
        assert fr.borel_vs_R(model).ok, model.name
    # a fixed-point algebra larger than the even side breaks the series
    even = fr.UnstableAlgebra((), (), None, 20)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 2}, 20)
    bad = fr.SpaceModel("bad", even, fixed, {MONO_ONE: poly_one()}, 4)
    verdict = fr.borel_vs_R(bad)
    assert not verdict.ok


def test_borel_vs_r_reads_each_even_dimension_once():
    # the even series is a running sum, one even.dim call per degree, so
    # the check stays linear in the bound
    model = fr.load_model({"name": "X", "bound": 400,
                           "even": {"generators": []},
                           "fixed": {"generators": []}, "kappa0": {}})
    calls = []
    dim = model.even.dim
    model.even.dim = lambda d: calls.append(d) or dim(d)
    assert fr.borel_vs_R(model).ok
    assert len(calls) <= model.bound + 1


def enumerated_unique_section(model, bound=None):
    """Reference for unique_section_check: try every subset of the
    Steinberg generators in each even degree.  Exponential in their
    number, so only for small models.  Returns (ok, detail)."""
    top = model.bound if bound is None else bound
    for d, m in model.even_basis_classes(top):
        n = d // 2
        k0 = fr.kappa0_apply(model, Poly(frozenset({m})))
        gens = st_generators_at(model.fixed, d)
        survivors = []
        for mask in range(1 << len(gens)):
            acc: set = set()
            for bit in range(len(gens)):
                if mask >> bit & 1:
                    acc ^= gens[bit][2].terms
            v = BPoly(frozenset(acc))
            if not v:
                continue
            if max(e for e, _ in v.terms) > n:
                continue
            if bpoly_coefficient(v, n) != k0:
                continue
            if steinberg_residue(model.fixed, v) != k0:
                continue
            survivors.append(v)
        if len(survivors) != 1:
            return False, (f"{len(survivors)} candidates for "
                           f"{format_monomial(m)} in degree {d}")
        if survivors[0] != steinberg(model.fixed, k0):
            return False, (f"candidate for {format_monomial(m)} is not the "
                           f"Steinberg lift")
    return True, ""


def _with_kappa0(model, kappa0):
    return fr.SpaceModel(model.name, model.even, model.fixed, kappa0,
                         model.bound)


def test_unique_section_passes_every_builtin():
    names = []
    for model in fr.builtin_models():
        verdict = fr.unique_section_check(model)
        assert verdict.ok, (model.name, verdict.detail)
        names.append(model.name)
    assert "CP^2xCP^4" in names and "CP^3xCP^3" in names


def test_unique_section_matches_enumeration_on_builtins():
    compared = 0
    for model in fr.builtin_models():
        top_generators = sum(model.fixed.dim(j)
                             for j in range(model.bound // 2 + 1))
        if top_generators > 14:
            continue
        verdict = fr.unique_section_check(model)
        assert (verdict.ok, verdict.detail) == enumerated_unique_section(model)
        compared += 1
    assert compared == 24


def test_unique_section_matches_enumeration_on_mutants():
    model = fr.cp_model(2)
    swapped = dict(model.kappa0)
    swapped[X1], swapped[X2] = swapped[X2], swapped[X1]
    zeroed = dict(model.kappa0)
    zeroed[X1] = poly_zero()
    mixed = dict(model.kappa0)
    mixed[X1] = poly_gen("t") + poly_gen("t", 2)
    mutants = [_with_kappa0(model, k) for k in (swapped, zeroed, mixed)]
    cp3 = fr.cp_model(3)
    for m in sorted(cp3.kappa0):
        mutants.append(_with_kappa0(cp3, {**cp3.kappa0, m: poly_zero()}))
    for mutant in mutants:
        verdict = fr.unique_section_check(mutant)
        assert not verdict.ok
        assert (verdict.ok, verdict.detail) == enumerated_unique_section(mutant)
    for kappa0 in (zeroed, mixed):
        verdict = fr.unique_section_check(_with_kappa0(model, kappa0))
        assert verdict.detail == "0 candidates for x in degree 2"
        assert verdict.witness == (X1, 0)


def looped_kappa_shadow(rows_of, twists=((0, 0), (1, 0), (0, 1), (2, 1))):
    """Reference for kappa_shadow_check: twist each class by a^j u^k, build
    the element of F[a^{+-1}, u] its rows l = 0 .. n give, and project it
    at every u-exponent.  Returns (ok, detail)."""
    for (d, m), rows in sorted(rows_of.items()):
        n = d // 2
        for j, k in twists:
            seen: dict = {}
            for l in range(n + 1):
                for z in rows[l].terms:
                    seen.setdefault(z, set()).add((j + n - l, k + l))
            for z, terms in seen.items():
                elem = LaurentElem(frozenset(terms))
                for l in range(n + 1):
                    expected = 1 if z in rows[l].terms else 0
                    if shadow_projection(elem, k + l) != expected:
                        return False, (f"projection mismatch on "
                                       f"{format_monomial(m)} at twist "
                                       f"a^{j}u^{k}")
    return True, ""


def test_kappa_shadow_matches_loop():
    models = fr.builtin_models() + [grassmannian_model(n) for n in range(4, 7)]
    compared = 0
    rng = random.Random(606)
    for model in models:
        report = fr.build_frame(model)
        verdict = fr.kappa_shadow_check(model, report)
        # row l is Sq^l kappa0(x), the b^{n-l} coefficient of r.sigma(x),
        # then 20 times a random sum of fixed-side classes of its degree
        tables = [{(d, m): tuple(bpoly_coefficient(sig, d // 2 - l)
                                 for l in range(d // 2 + 1))
                   for (d, m), sig in report.sigma.items()}]
        for _ in range(20):
            tables.append({(d, m): tuple(
                Poly(frozenset(z for z in model.fixed.basis(d // 2 + l)
                               if rng.random() < 0.5))
                for l in range(d // 2 + 1)) for d, m in report.sigma})
        for rows_of in tables:
            assert (verdict.ok, verdict.detail) == looped_kappa_shadow(rows_of)
            compared += 1
    assert compared == 21 * len(models)


def all_pairs_multiplicative(report, bound=None):
    """Reference for verify_frame_multiplicative: sigma(x*y) =
    sigma(x) sigma(y) on every pair of even basis classes with
    |x| + |y| <= bound, scanned in the check's order.  Returns
    (ok, detail, witness)."""
    model = report.model
    top = model.bound if bound is None else bound
    classes = list(model.even_basis_classes(top))
    for d1, m1 in classes:
        for d2, m2 in classes:
            if d1 + d2 > top:
                continue
            prod = model.even.reduce(Poly(frozenset({m1})) * Poly(frozenset({m2})))
            lhs = bpoly_mul(model.fixed, report.sigma[(d1, m1)],
                            report.sigma[(d2, m2)])
            if lhs != fr.sigma_apply(report, prod):
                return (False, f"{format_monomial(m1)} * {format_monomial(m2)}",
                        (m1, m2))
    return True, "", None


def _same_degree_swaps(model):
    """The model with kappa0 of two basis classes of one degree exchanged,
    for every such pair."""
    by_degree: dict = {}
    for m in sorted(model.kappa0):
        by_degree.setdefault(model.even.mono_degree(m), []).append(m)
    for ms in by_degree.values():
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                yield _with_kappa0(model, {**model.kappa0, a: model.kappa0[b],
                                           b: model.kappa0[a]})


def test_frame_multiplicative_matches_all_pairs():
    builtins = fr.builtin_models()
    cases = list(builtins)
    cases += [grassmannian_model(n) for n in range(4, 8)]
    swaps = [grassmannian_model(n, swap=True) for n in (4, 5)]
    for model in builtins:
        if model.name.startswith("CP^") and "x" in model.name:
            swaps += _same_degree_swaps(model)
    # kappa0(1) moved onto the top class and kappa0(x) = 0: sigma(1) is
    # not idempotent, which only the unit row sees
    units = []
    for n in (1, 2):
        model = fr.sphere_model(n)
        units.append(_with_kappa0(model, {MONO_ONE: model.kappa0[X1],
                                          X1: poly_zero()}))
    failed = []
    for model in cases + swaps + units:
        report = fr.build_frame(model)
        verdict = fr.verify_frame_multiplicative(report)
        expected = all_pairs_multiplicative(report)
        assert (verdict.ok, verdict.detail, verdict.witness) == expected, \
            model.name
        if not verdict.ok:
            failed.append(model)
    assert not any(model in failed for model in cases)
    assert all(model in failed for model in swaps[:2] + units)
    assert "CP^1xCP^2" in {model.name for model in failed}
    assert len(swaps) > len(failed) - len(units) > 2


def test_frame_multiplicative_past_model_bound():
    # check bound 4 over a model bound 0: the rows and the scan both see
    # the swapped x, x^2 of the frame, and the scan names x * x
    cp2 = fr.cp_model(2)
    swapped = {**cp2.kappa0, X1: cp2.kappa0[X2], X2: cp2.kappa0[X1]}
    model = fr.SpaceModel(cp2.name, cp2.even, cp2.fixed, swapped, 0)
    report = fr.build_frame(model, 4)
    verdict = fr.verify_frame_multiplicative(report, 4)
    assert (verdict.ok, verdict.detail, verdict.witness) == \
        all_pairs_multiplicative(report, 4) == (False, "x * x", (X1, X1))
    # a frame built only to the model bound 2 lacks x^2: the scan meets it
    # among the classes through the check bound
    short = fr.SpaceModel(cp2.name, cp2.even, cp2.fixed, cp2.kappa0, 2)
    report = fr.build_frame(short)
    with pytest.raises(ValueError, match=r"frame has no entry for x\^2"):
        fr.verify_frame_multiplicative(report, 4)


def test_passing_frame_squares_only_divisors_of_relation_terms(monkeypatch):
    # a passing frame check reads stability once per algebra, from the
    # total squares of the relations' terms, and decides steenrod-compat
    # on the generators: the parent squared each of the 45 even classes
    reads = []
    square_moves = fr.UnstableAlgebra._square_moves

    def counted(alg, r):
        reads.append(alg)
        return square_moves(alg, r)

    monkeypatch.setattr(fr.UnstableAlgebra, "_square_moves", counted)
    model = grassmannian_model(10)
    for _ in range(2):
        assert fr.frame_check(model)[0]
    assert sorted(map(id, reads)) == sorted([id(model.even)] * 2
                                            + [id(model.fixed)] * 2)
    terms = [dict(t) for r in model.even.relations for t in r.terms]
    keys = model.even._sq_rows
    assert all(any(all(t.get(g, 0) >= e for g, e in k) for t in terms)
               for k in keys)
    assert len(keys) == 30
    assert len(list(model.even_basis_classes())) == 45


def _verdict_rows(model, bound=None):
    ok, verdicts, _ = fr.frame_check(model, bound)
    return ok, [(v.name, v.ok, v.detail, v.witness) for v in verdicts]


def test_check_bound_past_model_bound_sees_every_class():
    # each same-degree kappa0 swap, saved with every lower even model bound
    # and checked at its own: a verdict may not pass where it fails at the
    # full bound, since both look at the same classes
    models = fr.builtin_models() + [grassmannian_model(n) for n in (4, 5, 6)]
    cases = false_passes = 0
    diffs = []
    for model in models:
        for swap in _same_degree_swaps(model):
            full = _verdict_rows(swap)
            data = fr.model_to_dict(swap)
            for low in range(0, swap.bound, 2):
                data["bound"] = low
                got = _verdict_rows(fr.load_model(data), swap.bound)
                cases += 1
                false_passes += got[0] and not full[0]
                if got != full:
                    diffs.append((swap.name, low))
    assert cases == 358
    assert false_passes == 0
    assert diffs == []


def _unit_top_swap_report():
    """kappa0 of 1 and of the top class exchanged on Gr_2(C^4), over a
    polynomial fixed side cut at degree 8: products of sigma values pass
    the bound."""
    model = grassmannian_model(4)
    top = (("c1", 2), ("c2", 1))
    kappa0 = {**model.kappa0, MONO_ONE: model.kappa0[top], top: poly_one()}
    fixed = polynomial_algebra((("w1", 1), ("w2", 2)), 8)
    return fr.build_frame(fr.SpaceModel("swap", model.even, fixed, kappa0,
                                        model.bound))


def test_frame_multiplicative_overflow_raises_as_all_pairs():
    # the check must raise where the all-pairs scan raises, although the
    # generator rows alone meet a different product first
    report = _unit_top_swap_report()
    with pytest.raises(DegreeOverflowError) as expected:
        all_pairs_multiplicative(report)
    with pytest.raises(DegreeOverflowError) as got:
        fr.verify_frame_multiplicative(report)
    assert str(got.value) == str(expected.value) == \
        "degree 12 beyond bound 8 of algebra"


def test_overflow_text_ignores_hash_seed():
    # bpoly_mul and reduce meet terms in set order, which follows the hash
    # seed; the degree they name past the bound must not
    code = ("from test_frames import _unit_top_swap_report\n"
            "from conjspaces import frames as fr\n"
            "from conjspaces.gf2 import parse_poly\n"
            "from conjspaces.steenrod import (bpoly_from, bpoly_mul,\n"
            "                                 polynomial_algebra, steinberg)\n"
            "alg = polynomial_algebra((('s', 1), ('t', 1)), 4)\n"
            "x = bpoly_from([(0, (('s', 3),)), (1, (('t', 2),)),\n"
            "                (2, (('s', 1), ('t', 1)))])\n"
            "y = bpoly_from([(0, (('t', 3),)), (1, (('s', 2),)),\n"
            "                (0, (('s', 4),))])\n"
            "for run in (lambda: fr.verify_frame_multiplicative(\n"
            "                _unit_top_swap_report()),\n"
            "            lambda: alg.reduce(parse_poly('s^5 + t^6 + s^7')),\n"
            "            lambda: bpoly_mul(alg, x, y),\n"
            "            lambda: steinberg(alg, parse_poly('s^3 + s*t^2 + t^3'))):\n"
            "    try:\n"
            "        run()\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n")
    texts = set()
    for seed in range(4):
        proc = subprocess.run([sys.executable, "-c", code],
                              cwd=Path(__file__).parent, capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONHASHSEED": str(seed)})
        texts.add(proc.stdout)
    # x's first term in sorted order, s^3, meets y past the bound in
    # degrees 6, 5 and 7: the lowest is named
    assert texts == {"DegreeOverflowError degree 12 beyond bound 8 of algebra\n"
                     "DegreeOverflowError degree 5 beyond bound 4 of algebra\n"
                     "DegreeOverflowError degree 5 beyond bound 4 of algebra\n"
                     "DegreeOverflowError Sq^2 output degree 5 beyond bound 4\n"}


def test_frame_check_end_to_end():
    ok, verdicts, report = fr.frame_check(fr.cp_model(2))
    assert ok and report is not None
    assert [v.name for v in verdicts] == [
        "purity", "conjugation-equation", "steenrod-compat",
        "frame-multiplicative", "nakayama-splitting", "borel-vs-R"]
    even = fr.UnstableAlgebra((("e", 3),), (Poly(frozenset({(("e", 2),)})),),
                              None, 20)
    fixed = fr.truncated_algebra((("t", 1),), {"t": 2}, 20)
    bad = fr.SpaceModel("odd", even, fixed, {MONO_ONE: poly_one()}, 6)
    ok2, verdicts2, report2 = fr.frame_check(bad)
    assert not ok2 and report2 is None
    assert verdicts2[0].name == "purity" and not verdicts2[0].ok


# ---------------------------------------------------------------------------
# JSON round trip


def test_model_round_trip(tmp_path):
    model = fr.cp_product_model(1, 2)
    path = tmp_path / "model.json"
    fr.save_model(model, str(path))
    back = fr.load_model_file(str(path))
    assert back.name == model.name
    assert back.bound == model.bound
    assert back.kappa0 == model.kappa0
    for d in range(model.bound + 1):
        assert back.even.dim(d) == model.even.dim(d)
        assert back.fixed.dim(d) == model.fixed.dim(d)
    ok, _, _ = fr.frame_check(back)
    assert ok


def test_load_model_from_text():
    data = fr.model_to_dict(fr.cp_model(1))
    model = fr.load_model(json.dumps(data))
    assert model.name == "CP^1"


def _base_dict():
    return {
        "name": "toy", "bound": 2,
        "even": {"generators": [{"name": "x", "degree": 2}],
                 "relations": ["x^2"], "bound": 12},
        "fixed": {"generators": [{"name": "t", "degree": 1}],
                  "relations": ["t^2"], "bound": 12},
        "kappa0": {"1": "1", "x": "t"},
    }


def test_load_model_accepts_base():
    model = fr.load_model(_base_dict())
    ok, _, _ = fr.frame_check(model)
    assert ok


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("name"), "/name"),
    (lambda d: d.pop("bound"), "/bound"),
    (lambda d: d.pop("even"), "/even"),
    (lambda d: d.pop("fixed"), "/fixed"),
    (lambda d: d["even"].pop("generators"), "/even/generators"),
    (lambda d: d["even"]["generators"].append({"name": "e", "degree": 3}),
     "odd degree"),
    (lambda d: d["even"]["relations"].append("x + 1"), "homogeneous"),
    (lambda d: d["even"]["relations"].append("x*y"), "/even/relations/1"),
    (lambda d: d.__setitem__("kappa0", {"1": "1"}), "no entry"),
    (lambda d: d["kappa0"].__setitem__("x", "q"), "/kappa0/x"),
    (lambda d: d["kappa0"].__setitem__("x", "0"), "not surjective in degree 2"),
    (lambda d: d["kappa0"].__setitem__("x", "1"), "degree"),
    (lambda d: d["even"].__setitem__("bound", 1), "/even/bound"),
    (lambda d: d["even"].__setitem__("sq", {"q": {}}), "/even/sq/q"),
    # JSON booleans are not integers
    pytest.param(lambda d: d.__setitem__("bound", True),
                 "/bound: bound must", id="bound-true"),
    pytest.param(lambda d: d.__setitem__("bound", False),
                 "/bound: bound must", id="bound-false"),
    pytest.param(lambda d: d["even"].__setitem__("bound", True),
                 "/even/bound: bound must", id="even-bound-true"),
    pytest.param(lambda d: d["even"]["generators"][0].update(degree=True),
                 "/even/generators/0", id="degree-true"),
    # a generator name the reader cannot read back
    pytest.param(lambda d: d["even"]["generators"][0].update(name="1"),
                 "/even/generators/0", id="name-1"),
    pytest.param(lambda d: d["even"]["generators"][0].update(name=""),
                 "/even/generators/0", id="name-empty"),
    pytest.param(lambda d: d["fixed"]["generators"][0].update(name="t u"),
                 "/fixed/generators/0", id="name-with-space"),
    # a square index has one spelling: a canonical positive decimal
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {"2": "0",
                                                              "02": "x^2"}}),
                 "/even/sq/x/02: square index", id="sq-index-leading-zero"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {" 2 ": "0"}}),
                 "/even/sq/x/ 2 : square index", id="sq-index-spaces"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {"1_0": "0"}}),
                 "/even/sq/x/1_0: square index", id="sq-index-underscore"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {"0": "x"}}),
                 "/even/sq/x/0: square index", id="sq-index-zero"),
    # a string is no list of relations
    pytest.param(lambda d: d["fixed"].__setitem__("relations", "tt"),
                 "/fixed/relations: relations must be a list",
                 id="relations-string"),
    pytest.param(lambda d: d.__setitem__("even", []),
                 "/even: expected an object", id="algebra-not-object"),
    pytest.param(lambda d: d["even"]["relations"].append(3),
                 "/even/relations/1: relation must be a string",
                 id="relation-not-string"),
    pytest.param(lambda d: d["even"].__setitem__("sq", []),
                 "/even/sq: sq must be an object", id="sq-not-object"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": ["x^2"]}),
                 "/even/sq/x: expected an object of squares",
                 id="sq-table-not-object"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {"2": 0}}),
                 "/even/sq/x/2: square value must be a string",
                 id="sq-value-not-string"),
    pytest.param(lambda d: d["even"].__setitem__("sq", {"x": {"2": "x^"}}),
                 "/even/sq/x/2: expected an integer exponent",
                 id="sq-value-unparsable"),
    pytest.param(lambda d: d["fixed"].__setitem__("bound", 1),
                 "/fixed/bound: fixed bound below the model bound",
                 id="fixed-bound-below-model"),
    pytest.param(lambda d: d.pop("kappa0"),
                 "/kappa0: missing kappa0 table", id="kappa0-missing"),
    pytest.param(lambda d: d["kappa0"].__setitem__("x +", "t"),
                 "/kappa0/x +: bad key: expected a factor",
                 id="kappa0-key-unparsable"),
    pytest.param(lambda d: d["kappa0"].__setitem__("1 + x", "t"),
                 "/kappa0/1 + x: key must be a single basis monomial",
                 id="kappa0-key-sum"),
    pytest.param(lambda d: d["kappa0"].__setitem__("x", 1),
                 "/kappa0/x: value must be a string",
                 id="kappa0-value-not-string"),
    pytest.param(lambda d: d["kappa0"].__setitem__("1*x", "t"),
                 "/kappa0/1*x: duplicate key", id="kappa0-two-spellings"),
    # a key or value past its algebra's bound is one more malformed entry
    pytest.param(lambda d: d["kappa0"].__setitem__("x^40", "t"),
                 "/kappa0/x^40: bad key: degree 80 beyond bound 12",
                 id="kappa0-key-past-bound"),
    pytest.param(lambda d: d["kappa0"].__setitem__("x", "t^40"),
                 "/kappa0/x: bad value: degree 40 beyond bound 12",
                 id="kappa0-value-past-bound"),
])
def test_load_model_errors(mutate, needle):
    data = _base_dict()
    mutate(data)
    with pytest.raises(ModelError) as exc:
        fr.load_model(data)
    assert needle in str(exc.value), str(exc.value)


def test_algebra_bound_defaults_to_twice_the_model_bound():
    data = fr.model_to_dict(fr.cp_model(2))
    del data["even"]["bound"], data["fixed"]["bound"]
    model = fr.load_model(data)
    assert model.even.bound == model.fixed.bound == 2 * model.bound == 8


def test_load_model_names_a_missing_top_class():
    # the class x^3 of degree 6 is itself looked up, not read as zero
    data = fr.model_to_dict(fr.cp_model(3))
    del data["kappa0"]["x^3"]
    with pytest.raises(ModelError) as exc:
        fr.load_model(data)
    assert str(exc.value) == ("/kappa0: no entry for basis monomial x^3 "
                              "of degree 6")


def test_load_model_mixed_degree_value():
    data = fr.model_to_dict(fr.cp_model(2))
    data["kappa0"]["x"] = "t + t^2"
    with pytest.raises(ModelError) as exc:
        fr.load_model(data)
    assert exc.value.pointer == "/kappa0/x"
    assert "not homogeneous" in str(exc.value)


def test_frame_check_mixed_degree_value_built_in_python():
    # the model that load_model refuses at /kappa0/x, built without JSON
    model = fr.cp_model(3)
    kappa0 = dict(model.kappa0)
    kappa0[X1] = poly_gen("t") + Poly(frozenset({(("t", 3),)}))
    mixed = fr.SpaceModel(model.name, model.even, model.fixed, kappa0,
                          model.bound)
    with pytest.raises(ModelError) as exc:
        fr.frame_check(mixed)
    assert exc.value.pointer == "/kappa0/x"
    assert str(exc.value) == ("/kappa0/x: bad value t + t^3: "
                              "polynomial is not homogeneous")


def test_load_model_file_with_brace_in_path(tmp_path):
    path = tmp_path / "we{ird}.json"
    fr.save_model(fr.cp_model(1), str(path))
    assert fr.load_model_file(str(path)).name == "CP^1"


def test_load_model_rejects_non_object_text():
    with pytest.raises(ModelError) as exc:
        fr.load_model("[]")
    assert str(exc.value) == "model must be a JSON object"


def test_negative_bound_rejected():
    model = fr.cp_model(2)
    for check in (fr.frame_check, fr.purity_check, fr.build_frame):
        with pytest.raises(ValueError, match="non-negative"):
            check(model, -1)


def test_load_model_malformed_json():
    with pytest.raises(ModelError) as exc:
        fr.load_model("{not json")
    assert "line" in str(exc.value)


def test_kappa0_apply_missing_entry():
    model = fr.cp_model(2)
    stripped = fr.SpaceModel(model.name, model.even, model.fixed,
                             {MONO_ONE: poly_one(), X1: poly_gen("t")},
                             model.bound)
    with pytest.raises(ModelError) as exc:
        fr.kappa0_apply(stripped, Poly(frozenset({X2})))
    assert "x^2" in str(exc.value)


# ---------------------------------------------------------------------------
# scripts/frame_survey.py


SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "frame_survey.py"


def test_frame_survey_script():
    proc = subprocess.run([sys.executable, str(SURVEY)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    assert not [line for line in lines if "kappa-shadow" in line]
    assert lines[-1] == "26 of 26 models pass"


def test_frame_survey_script_rejects_negative_bound():
    proc = subprocess.run([sys.executable, str(SURVEY), "--bound", "-1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--bound must be non-negative" in proc.stderr


def test_frame_survey_script_rejects_bound_past_an_algebra():
    # the bound 8 of the point's algebras is passed first, and the script
    # answers as `conjspaces frame check pt --bound 12` does
    proc = subprocess.run([sys.executable, str(SURVEY), "--bound", "12"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: degree 9 beyond bound 8 of pt even\n"
    cli = subprocess.run([sys.executable, "-m", "conjspaces", "frame", "check",
                          "pt", "--bound", "12"],
                         capture_output=True, text=True, timeout=60)
    assert cli.returncode == 2 and cli.stderr == proc.stderr


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")),
                         ids=lambda p: p.name)
def test_model_files_match_the_builtins(path, tmp_path):
    data = json.loads(path.read_text())
    builtin = {m.name: m for m in fr.builtin_models()}[data["name"]]
    assert data == fr.model_to_dict(builtin)
    # save_model writes the file byte for byte, layout included
    saved = tmp_path / path.name
    fr.save_model(builtin, str(saved))
    assert saved.read_bytes() == path.read_bytes()
