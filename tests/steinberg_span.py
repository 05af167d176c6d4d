"""Test helper: the Steinberg generators of the image functor R, listed
one by one for the oracles that enumerate or peel them."""

from conjspaces.gf2 import Poly
from conjspaces.steenrod import bpoly_shift, steinberg


def st_generators_at(alg, d: int):
    """The spanning set {b^{d-2|m|} St(m)} of R in total degree d, as
    (m, d - 2|m|, generator) triples."""
    gens = []
    for n in range(d // 2 + 1):
        for m in alg.basis(n):
            gens.append((m, d - 2 * n, bpoly_shift(steinberg(
                alg, Poly(frozenset({m}))), d - 2 * n)))
    return gens
