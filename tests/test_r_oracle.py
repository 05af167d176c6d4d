"""compute_R in closed form against its earlier row reduction.

compute_R now counts R in degree d as the basis classes m with 2|m| <= d,
since the b^{d-2|m|} St(m) are triangular.  The earlier body, which
computed each St(m) and grew one echelon over the degrees, is kept here as
the oracle.
"""

from pathlib import Path

import pytest

from conjspaces import frames as fr
from conjspaces.errors import DegreeOverflowError
from conjspaces.gf2 import GF2Echelon, Poly, parse_poly
from conjspaces.steenrod import RModule, compute_R, steinberg
from grassmannian import grassmannian_algebra, grassmannian_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def parent_compute_R(alg, bound):
    bit = {}
    ech = GF2Echelon()
    dims = []
    for d in range(bound + 1):
        for m in alg.basis(d):
            bit[m] = len(bit)
        if d % 2 == 0:
            for m in alg.basis(d // 2):
                row = 0
                for _, t in steinberg(alg, Poly(frozenset({m}))).terms:
                    row ^= 1 << bit[t]
                ech.insert(row)
        dims.append(ech.rank)
    return RModule(bound, tuple(dims))


def _sq_edited(n: int) -> fr.UnstableAlgebra:
    """Gr_2(R^n) with Sq^1 w2 = w1^3: relations and an sq rule that is no
    square of the Wu formula."""
    alg = grassmannian_algebra(n, "w1", "w2", 1, 4 * (n - 2))
    return fr.UnstableAlgebra(alg.generators, alg.relations,
                              {"w2": {1: parse_poly("w1^3", ["w1", "w2"])}},
                              alg.bound, f"Gr_2(R^{n}) edited")


def algebras():
    for model in fr.builtin_models():
        yield model.even
        yield model.fixed
    for n in range(4, 15):
        model = grassmannian_model(n)
        yield model.even
        yield model.fixed
    for path in sorted(MODELS.glob("*.json")):
        model = fr.load_model_file(path)
        yield model.even
        yield model.fixed
    for n in (4, 5, 6):
        yield _sq_edited(n)
    yield fr.UnstableAlgebra((("s", 1), ("t", 2)),
                             (parse_poly("s^4 + s^2*t", ["s", "t"]),
                              parse_poly("t^3", ["s", "t"])),
                             {"t": {1: parse_poly("s*t", ["s", "t"])}}, 20)


def test_compute_r_matches_parent_on_every_algebra():
    compared, diffs = 0, []
    for alg in algebras():
        for bound in (-1, 0, alg.bound // 2, alg.bound):
            new = compute_R(alg, bound).dims
            old = parent_compute_R(alg, bound).dims
            compared += 1
            if new != old:
                diffs.append((alg.name, bound, new, old))
    assert diffs == []
    assert compared == 4 * (2 * 26 + 2 * 11 + 2 * 5 + 4)


@pytest.mark.parametrize("alg", [fr.cp_model(2).fixed,
                                 grassmannian_model(5).even, _sq_edited(4)],
                         ids=["RP^2", "Gr_2(C^5)", "Gr_2(R^4)-edited"])
def test_compute_r_overflow_text_matches_parent(alg):
    # the count reads the classes through bound // 2 only, so it answers up
    # to twice the algebra's bound plus one, as the algebra with a longer
    # bound does, and past that raises as the parent did
    longer = fr.UnstableAlgebra(
        alg.generators, alg.relations,
        {g: {i: v for (h, i), v in alg.sq_rules.items() if h == g}
         for g, _ in alg.generators}, 4 * alg.bound + 4, alg.name)
    for bound in (alg.bound + 1, alg.bound + 7, 2 * alg.bound + 1):
        assert compute_R(alg, bound) == parent_compute_R(longer, bound)
    for bound in (2 * alg.bound + 2, 2 * alg.bound + 9):
        with pytest.raises(DegreeOverflowError) as new:
            compute_R(alg, bound)
        with pytest.raises(DegreeOverflowError) as old:
            parent_compute_R(alg, bound)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith(f"degree {alg.bound + 1} beyond")
