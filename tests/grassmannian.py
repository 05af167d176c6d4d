"""Test helper: the Grassmannian Gr_2(C^n) with complex conjugation, whose
fixed points are Gr_2(R^n) (Hausmann-Holm-Puppe list it as a conjugation
space).

H(Gr_2(C^n)) = F[c1, c2]/(cbar_{n-1}, cbar_n) with |c_i| = 2i, where the
dual classes cbar = 1/(1 + c1 + c2) satisfy cbar_k = c1 cbar_{k-1} +
c2 cbar_{k-2}; the fixed side is the same with w1, w2 of degrees 1, 2.
The Wu formula gives Sq^2 c2 = c1 c2 and Sq^1 w2 = w1 w2, and kappa0
sends c1^i c2^j to w1^i w2^j.
"""

from conjspaces import frames as fr
from conjspaces.gf2 import Poly, parse_poly


def grassmannian_algebra(n: int, g1: str, g2: str, unit: int,
                         bound: int) -> fr.UnstableAlgebra:
    gens = [g1, g2]
    x, y = parse_poly(g1, gens), parse_poly(g2, gens)
    dual = [parse_poly("1", gens), x]
    while len(dual) <= n:
        dual.append(x * dual[-1] + y * dual[-2])
    sq = {g2: {unit: parse_poly(f"{g1}*{g2}", gens)}}
    return fr.UnstableAlgebra(((g1, unit), (g2, 2 * unit)),
                              (dual[n - 1], dual[n]), sq, bound)


def grassmannian_model(n: int, swap: bool = False) -> fr.SpaceModel:
    """Gr_2(C^n) over Gr_2(R^n); with swap, kappa0 exchanges the images of
    c1^2 and c2, which keeps it a graded bijection but breaks products."""
    top = 4 * (n - 2)
    even = grassmannian_algebra(n, "c1", "c2", 2, 2 * top)
    fixed = grassmannian_algebra(n, "w1", "w2", 1, 2 * top)
    rename = {"c1": "w1", "c2": "w2"}
    kappa0 = {}
    for d in range(0, top + 1, 2):
        for m in even.basis(d):
            kappa0[m] = Poly(frozenset({tuple((rename[g], e) for g, e in m)}))
    if swap:
        c1sq, c2 = (("c1", 2),), (("c2", 1),)
        kappa0[c1sq], kappa0[c2] = kappa0[c2], kappa0[c1sq]
    return fr.SpaceModel(f"Gr_2(C^{n})" + "-swap" * swap, even, fixed, kappa0,
                         top)
