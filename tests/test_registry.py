"""The selftest registry under pytest: one id per check, named as in
`conjspaces selftest`, so `pytest -k psi` runs one invariant.

Each check is called directly at bound 10, the selftest default, so a
crash shows its traceback and a failed invariant its CheckFailure.  A
check that states a law must fail on a defect in the code it checks.
"""

import pytest

from conjspaces import coefficients as co
from conjspaces import steenrod as st
from conjspaces.selftest import (REGISTRY, CheckFailure, check_doubling,
                                  check_laurent_rings)


@pytest.mark.parametrize("check", [func for _, func in REGISTRY],
                         ids=[name for name, _ in REGISTRY])
def test_registry(check):
    check(10)


def test_laurent_rings_fails_on_a_product_that_drops_a_term(monkeypatch):
    product = co.LaurentElem.__mul__

    def drop_one(self, other):
        terms = product(self, other).terms
        return co.LaurentElem(terms - {max(terms)} if terms else terms)

    monkeypatch.setattr(co.LaurentElem, "__mul__", drop_one)
    with pytest.raises(CheckFailure):
        check_laurent_rings(10)


def test_doubling_fails_on_a_fixed_side_cut_at_t7(monkeypatch):
    build = st.truncated_algebra

    def cut(gens, truncations, bound, name=""):
        if dict(gens) == {"t": 1}:
            truncations = {"t": 7}
        return build(gens, truncations, bound, name)

    monkeypatch.setattr(st, "truncated_algebra", cut)
    with pytest.raises(CheckFailure, match="doubled dimension at 14 is 1"):
        check_doubling(10)
