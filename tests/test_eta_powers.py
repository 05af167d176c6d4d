"""Powers of eta_R(u) = a tau_0 + u by repeated squaring.

The recursion that multiplied in one factor per power is kept here as
the oracle: psi(z_n) built from it must equal psi_zeta(n) for n <= 8.
Squaring is additive because the algebra is commutative in
characteristic 2, so the squaring route needs no recursion per power.
"""

import subprocess
import sys
from functools import lru_cache

from conjspaces import dual_steenrod as ds
from conjspaces.coefficients import coeff_pos


@lru_cache(maxsize=None)
def recursive_eta_r_u_power(n: int) -> tuple:
    """eta_R(u)^n = (a tau_0 + u)^n, packed."""
    if n == 0:
        return (0,)
    return tuple(ds._mul_packed(recursive_eta_r_u_power(n - 1),
                                ds._pack(ds.AU_TAU0)))


def recursive_psi_zeta(n: int):
    """psi(z_n) from the recursive powers, as _psi_zeta_packed builds it."""
    if n == 0:
        return ds._unpack((0,))
    acc = {ds._pack_mono((((1 << n) - 1), 0, ((n, 1),), ()))}
    for i in range(1, n + 1):
        xi_part = () if n == i else ((n - i, 1 << i),)
        factor = ds._pack_mono(((1 << n) - (1 << i), 0, xi_part, (i - 1,)))
        acc ^= ds._mul_packed((factor,),
                              recursive_eta_r_u_power((1 << (i - 1)) - 1))
    return ds._unpack(acc)


def test_psi_zeta_matches_recursive_powers():
    for n in range(9):
        assert ds.psi_zeta(n) == recursive_psi_zeta(n), n


def test_eta_r_matches_recursive_powers():
    for n in range(70):
        assert ds.eta_r(2, n) == ds.elem_scale(
            ds._unpack(recursive_eta_r_u_power(n)), 2, 0), n


def test_eta_r_needs_no_recursion_per_power():
    ds._eta_r_u_power.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        power = ds.eta_r(0, 300)
    finally:
        sys.setrecursionlimit(limit)
    # the right unit keeps degrees, and the counit reads u^300 back
    assert ds.elem_degree(power) == ds.mono_degree((0, 300, (), ()))
    assert ds.counit(power) == coeff_pos(0, 300)


def test_asteen_psi_11_returns():
    cmd = [sys.executable, "-m", "conjspaces", "asteen", "psi", "11"]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
