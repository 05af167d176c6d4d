"""The selftest registry under pytest: one id per check, named as in
`conjspaces selftest`, so `pytest -k psi` runs one invariant.

Each check is called directly at bound 10, the selftest default, so a
crash shows its traceback and a failed invariant its CheckFailure.
"""

import pytest

from conjspaces.selftest import REGISTRY


@pytest.mark.parametrize("check", [func for _, func in REGISTRY],
                         ids=[name for name, _ in REGISTRY])
def test_registry(check):
    check(10)
