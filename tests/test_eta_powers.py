"""Powers in the dual algebra: eta_R(u) = a tau_0 + u, psi(z_n)^e, and
the left-to-right powering behind both.

The recursion that multiplied in one factor per power is kept here as
the oracle: psi(z_n) built from it must equal psi_zeta(n) for n <= 8.
Squaring is additive because the algebra is commutative in
characteristic 2, so the squaring route needs no recursion per power.
The right-to-left powering that _pow_packed replaced is kept as the
oracle of elem_pow and of psi on single generators.
"""

import random
import subprocess
import sys
from functools import lru_cache

import pytest

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
    """psi(z_n) from the recursive powers, by the closed form that
    _psi_power_packed(n, 1) evaluates."""
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
        # eta_R(a^2 u^n) = a^2 eta_R(u)^n, and a^2 never collides
        want = frozenset((m[0] + 2, m[1], m[2], m[3])
                         for m in ds._unpack(recursive_eta_r_u_power(n)))
        assert ds.eta_r(2, n) == want, n


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


@lru_cache(maxsize=None)
def eta_closed_form(j: int):
    """eta_R(u)^(2^j) = u^(2^j)
        + sum_(i=1..j) a^(2^(j+1) - 2^(j-i+1)) xi_i^(2^(j-i)) eta_R(u)^(2^(j-i))
        + a^(2^(j+1) - 1) tau_j,
    with the smaller powers from this form again, never from eta_r."""
    acc = {ds.coeff_mono(0, 1 << j), (2 ** (j + 1) - 1, 0, (), (j,))}
    for i in range(1, j + 1):
        factor = ((2 ** (j + 1) - 2 ** (j - i + 1), 0, ((i, 1 << (j - i)),), ()),)
        acc ^= ds.elem_mul(frozenset(factor), eta_closed_form(j - i))
    return frozenset(acc)


@pytest.mark.parametrize("j", range(9))
def test_eta_power_closed_form(j):
    assert eta_closed_form(j) == ds.eta_r(0, 1 << j)
    assert len(eta_closed_form(j)) == 2 ** (j + 1)


def right_to_left_pow_packed(s, n: int) -> set:
    """The right-to-left powering that _pow_packed replaced, verbatim."""
    result = None
    base = s
    while n:
        if n & 1:
            result = set(base) if result is None else ds._mul_packed(result, base)
        n >>= 1
        if n:
            base = ds._square_packed(base)
    return {0} if result is None else result


def random_element(rng):
    """Two monomials with tau_0, so their masks collide, and at times a
    third with tau_0, tau_1 or no tau."""
    monos = {(rng.randrange(3), rng.randrange(3), ((1, rng.randrange(1, 3)),) * k,
              (0,)) for k in (0, 1)}
    if rng.random() < 0.5:
        monos.add((rng.randrange(3), rng.randrange(3), (),
                   (rng.randrange(2),) * rng.randrange(2)))
    return frozenset(monos)


def test_elem_pow_matches_right_to_left():
    rng = random.Random(1809)
    for _ in range(4):
        e = random_element(rng)
        for n in range(41):
            want = ds._unpack(right_to_left_pow_packed(ds._pack(e), n))
            assert ds.elem_pow(e, n) == want, (sorted(e), n)


# psi(z_3)^e and psi(z_4)^e stop early: the oracle alone takes 38 s for
# psi(z_3)^23 (372,812 terms) and 2.5 s for psi(z_4)^7
PSI_POWERS = {0: range(25), 1: range(25), 2: range(25), 3: range(13),
              4: (*range(7), 8, 16)}


@pytest.mark.parametrize("n", PSI_POWERS)
def test_psi_power_matches_right_to_left(n):
    for e in PSI_POWERS[n]:
        want = right_to_left_pow_packed(ds._psi_power_packed(n, 1), e)
        assert ds.psi({n: e}) == ds._unpack(want), (n, e)


@pytest.mark.parametrize("z", [
    {1: 2, 2: 1}, {1: 1, 3: 2}, {0: 3, 2: 2}, {2: 3, 4: 1},
    {1: 3, 2: 2, 3: 1}, {0: 1, 1: 5, 4: 1}, {1: 1, 2: 1, 3: 1},
])
def test_psi_on_monomials_matches_factor_products(z):
    want = ds.ELEM_ONE
    for n, e in z.items():
        for _ in range(e):
            want = ds.elem_mul(want, ds.psi_zeta(n))
    assert ds.psi(z) == want


def counting(monkeypatch, calls, *names):
    """Wrap the named dual_steenrod functions so each call appends
    (name, args) to calls."""
    for name in names:
        real = getattr(ds, name)

        def wrapper(*args, _real=real, _name=name):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(ds, name, wrapper)


def test_psi_power_is_cached(monkeypatch):
    ds._psi_power_packed.cache_clear()
    first = ds.psi({1: 24})
    calls = []
    counting(monkeypatch, calls, "_pow_packed", "_mul_packed")
    assert ds.psi({1: 24}) == first
    assert calls == []
    assert isinstance(ds._psi_power_packed(1, 24), frozenset)


def test_pow_multiplies_only_by_its_base(monkeypatch):
    base = ds._pack(ds.AU_TAU0)
    calls = []
    counting(monkeypatch, calls, "_mul_packed", "_square_packed")
    ds._pow_packed(base, 0b101101)
    # one square per bit below the top one, one product per set bit there
    assert [name for name, _ in calls].count("_square_packed") == 5
    products = [args for name, args in calls if name == "_mul_packed"]
    assert len(products) == 3
    assert all(args[1] is base for args in products)


def test_parse_expression_reaches_psi_powers_through_psi(monkeypatch):
    calls = []
    counting(monkeypatch, calls, "psi")
    monkeypatch.setattr(ds, "elem_pow", None)  # a z factor must not need it
    e = ds.parse_expression("z2^3*z1 + z0^0")
    assert [args for _, args in calls] == [({2: 3},), ({1: 1},), ({0: 0},)]
    monkeypatch.undo()
    assert e == ds.elem_mul(ds.psi({2: 3}), ds.psi_zeta(1)) ^ ds.ELEM_ONE


def test_asteen_psi_11_returns():
    cmd = [sys.executable, "-m", "conjspaces", "asteen", "psi", "11"]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
