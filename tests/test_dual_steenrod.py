"""Dual equivariant Steenrod algebra: normal forms, Hopf maps, the
comparison map on Milnor generators, pairings, coefficient actions.

Frozen oracles, written down before running the engine on them:

  tau_i^2          = a tau_{i+1} + a tau_0 xi_{i+1} + u xi_{i+1}
  eta_R(u)         = a tau_0 + u
  eta_R(u^2)       = a^3 tau_1 + a^3 tau_0 xi_1 + a^2 u xi_1 + u^2
  psi(z_1)         = a xi_1 + tau_0
  psi(z_2)         = a^3 xi_2 + a^2 xi_1^2 tau_0 + a tau_0 tau_1 + u tau_1
  P_2              = a^2 xi_1^2 + u xi_1,   Q_2 = a xi_1
  P_3              = a^3 xi_1^3 + (a u xi_1^2 terms via the recursion)
  <xi_1^i dual, psi(z_1^k)> = C(i, k-i) a^{2i-k} u^{k-i}
  tau_0 dual (u)          = a
  xi_1 dual (u^2)         = a^2 u
  xi_1 tau_0 dual (u^2)   = a^3
"""

import hashlib
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conjspaces import dual_steenrod as ds
from conjspaces.coefficients import coeff_one, coeff_pos, coeff_zero
from conjspaces.degree import RODegree
from conjspaces.errors import DegreeOverflowError, ParseError
from conjspaces.selftest import _random_word
from conjspaces import steenrod as st


def M(a=0, u=0, xi=(), tau=()):
    return (a, u, tuple(xi), tuple(tau))


TAU_SQUARE = {
    i: frozenset({M(a=1, tau=(i + 1,)),
                  M(a=1, xi=((i + 1, 1),), tau=(0,)),
                  M(u=1, xi=((i + 1, 1),))})
    for i in range(5)
}

ETA_U = frozenset({M(a=1, tau=(0,)), M(u=1)})
ETA_U2 = frozenset({M(a=3, tau=(1,)), M(a=3, xi=((1, 1),), tau=(0,)),
                    M(a=2, u=1, xi=((1, 1),)), M(u=2)})
PSI_Z1 = frozenset({M(a=1, xi=((1, 1),)), M(tau=(0,))})
PSI_Z2 = frozenset({M(a=3, xi=((2, 1),)), M(a=2, xi=((1, 2),), tau=(0,)),
                    M(a=1, tau=(0, 1)), M(u=1, tau=(1,))})
P2 = frozenset({M(a=2, xi=((1, 2),)), M(u=1, xi=((1, 1),))})
Q2 = frozenset({M(a=1, xi=((1, 1),))})
P3 = frozenset({M(a=3, xi=((1, 3),))})


def test_degrees_frozen():
    # homological grading: |a| = -al, |u| = 1 - al
    assert ds.mono_degree(M(a=1)) == RODegree(0, -1)
    assert ds.mono_degree(M(u=1)) == RODegree(1, -1)
    assert ds.mono_degree(ds.xi_mono(1)) == RODegree(1, 1)
    assert ds.mono_degree(ds.xi_mono(2)) == RODegree(3, 3)
    assert ds.mono_degree(ds.tau_mono(0)) == RODegree(1, 0)
    assert ds.mono_degree(ds.tau_mono(1)) == RODegree(2, 1)
    assert ds.mono_degree(ds.tau_mono(2)) == RODegree(4, 3)
    assert ds.mono_dimension(ds.xi_mono(3, 2)) == 28
    assert ds.mono_dimension(M(a=2)) == -2


def test_constructor_validation():
    with pytest.raises(ValueError):
        ds.xi_mono(0)
    with pytest.raises(ValueError):
        ds.xi_mono(1, 0)
    with pytest.raises(ValueError):
        ds.tau_mono(-1)
    with pytest.raises(ValueError):
        ds.coeff_mono(-1, 0)


def test_tau_relation_frozen():
    for i, expected in TAU_SQUARE.items():
        got = ds.mul_mono(ds.tau_mono(i), ds.tau_mono(i))
        assert got == expected, i
        # rewriting preserves the degree
        assert ds.elem_degree(got) == ds.mono_degree(ds.tau_mono(i)).scale(2)


def test_elem_degree_mixed():
    e = frozenset({ds.xi_mono(1), ds.tau_mono(0)})
    with pytest.raises(ValueError):
        ds.elem_degree(e)
    assert ds.elem_degree(ds.ELEM_ZERO) is None


def random_mono(rng, max_dim):
    while True:
        xi = {}
        for _ in range(rng.randrange(0, 3)):
            xi[rng.randrange(1, 4)] = rng.randrange(1, 3)
        tau = tuple(sorted(rng.sample(range(4), rng.randrange(0, 3))))
        m = M(rng.randrange(0, 2), rng.randrange(0, 2),
              tuple(sorted(xi.items())), tau)
        if ds.mono_dimension(m) <= max_dim:
            return m


def test_confluence_many_orders():
    rng = random.Random(314159)
    for _ in range(600):
        word = [random_mono(rng, 8) for _ in range(rng.randrange(2, 5))]
        while sum(ds.mono_dimension(m) for m in word) > 20 and len(word) > 1:
            word.pop()
        base = ds.normal_form(word)
        again = ds.normal_form(word, rng=rng)
        assert base == again, word
        for m in base:
            assert len(set(m[3])) == len(m[3])
            assert list(m[3]) == sorted(m[3])


def test_product_ring_laws():
    rng = random.Random(77)
    monos = [random_mono(rng, 10) for _ in range(12)]
    for x in monos[:6]:
        ex = frozenset({x})
        for y in monos[:6]:
            ey = frozenset({y})
            assert ds.elem_mul(ex, ey) == ds.elem_mul(ey, ex)
            for z in monos[6:9]:
                ez = frozenset({z})
                assert ds.elem_mul(ds.elem_mul(ex, ey), ez) == \
                    ds.elem_mul(ex, ds.elem_mul(ey, ez))
    for x in monos:
        ex = frozenset({x})
        assert ds.elem_mul(ex, ds.ELEM_ONE) == ex
        assert ds.elem_square(ex) == ds.elem_mul(ex, ex)
        assert ds.elem_pow(ex, 3) == ds.elem_mul(ex, ds.elem_mul(ex, ex))


@pytest.mark.parametrize("mono, message", [
    (M(a=-1), "negative exponent"),
    (M(u=-2, tau=(0,)), "negative exponent"),
    (M(xi=((1, -1),)), "negative exponent"),
    (M(xi=((0, 1),)), "xi needs index >= 1"),
], ids=["a", "u", "xi-exponent", "xi-index-0"])
def test_product_refuses_a_monomial_it_cannot_pack(mono, message):
    with pytest.raises(ValueError, match=message):
        ds.elem_mul(frozenset({mono}), ds.ELEM_ONE)


def test_negative_power_raises():
    with pytest.raises(ValueError, match="negative exponent"):
        ds.elem_pow(frozenset({ds.tau_mono(0)}), -1)


def test_degree_additivity():
    rng = random.Random(88)
    for _ in range(100):
        m1, m2 = random_mono(rng, 10), random_mono(rng, 10)
        prod = ds.mul_mono(m1, m2)
        if prod:
            assert ds.elem_degree(prod) == \
                ds.mono_degree(m1) + ds.mono_degree(m2)


@lru_cache(maxsize=None)
def _resolve_reference(m1, m2):
    # the direct rewrite in its fixed order, independent of the packed
    # rule; cached, because the looped oracles below repeat pairs
    a, u, xi, taus = ds._raw_product(m1, m2)
    out = set()
    ds._resolve(a, u, xi, taus, out, None, ds.mono_degree(m1) + ds.mono_degree(m2))
    return frozenset(out)


# a = u = 0, xi_1^0..2, xi_2^0..1, tau a subset of {0, 1, 2, 3}: 96 monomials
ORACLE_FAMILY = [
    M(xi=tuple((i, e) for i, e in ((1, e1), (2, e2)) if e),
      tau=tuple(t for t in range(4) if mask >> t & 1))
    for e1 in range(3) for e2 in range(2) for mask in range(16)]

# coefficient-free tau monomials over tau_0..tau_4: 32 masks, whose
# products carry into tau_5
TAU_MASKS = [M(tau=tuple(t for t in range(5) if mask >> t & 1)) for mask in range(32)]


def test_mul_mono_matches_rewrite_oracle():
    assert len(ORACLE_FAMILY) == 96
    pairs = [(m1, m2) for m1 in ORACLE_FAMILY for m2 in ORACLE_FAMILY]
    pairs += [(m1, m2) for m1 in TAU_MASKS for m2 in TAU_MASKS]
    for m1, m2 in pairs:
        prod = ds.mul_mono(m1, m2)
        assert prod == _resolve_reference(m1, m2), (m1, m2)
        if prod:
            assert ds.elem_degree(prod) == \
                ds.mono_degree(m1) + ds.mono_degree(m2), (m1, m2)


def test_mul_mono_matches_oracle_with_coefficients():
    rng = random.Random(2718)
    for _ in range(400):
        m1, m2 = (M(rng.randrange(2), rng.randrange(2), m[2], m[3])
                  for m in rng.sample(ORACLE_FAMILY, 2))
        assert ds.mul_mono(m1, m2) == _resolve_reference(m1, m2), (m1, m2)


# xi_1 xi_1^2 = xi_1^3: the exponents of a repeated xi index add
REPEATED_XI = M(xi=((1, 1), (1, 2)))


@pytest.mark.parametrize("m1, m2", [
    (M(tau=(1, 1)), ds.ONE_MONO),
    (M(tau=(2, 2, 2)), M(tau=(2,))),
    (M(xi=((2, 1), (1, 1)), tau=(3, 0)), M(tau=(0,))),
    (REPEATED_XI, ds.ONE_MONO),
    (ds.ONE_MONO, REPEATED_XI),
    (M(xi=((1, 1), (1, 2)), tau=(0, 0)), M(tau=(0,))),
])
def test_mul_mono_non_canonical_inputs(m1, m2):
    # a repeated tau is rewritten, a repeated xi adds up, and unsorted
    # input comes out canonical
    assert ds.mul_mono(m1, m2) == _resolve_reference(m1, m2)


@pytest.mark.parametrize("m1, m2", [
    (M(tau=(1, 1)), ds.ONE_MONO),
    (M(tau=(2, 2, 2)), M(tau=(2,))),
    (M(xi=((2, 1), (1, 1)), tau=(3, 0)), M(tau=(0,))),
    (REPEATED_XI, ds.ONE_MONO),
    (ds.ONE_MONO, REPEATED_XI),
    (M(xi=((1, 1), (1, 2)), tau=(0, 0)), M(tau=(0,))),
], ids=["repeated-tau", "tau-cubed", "unsorted", "repeated-xi",
        "repeated-xi-right", "repeated-xi-and-tau"])
def test_packed_products_non_canonical_inputs(m1, m2):
    # the packed kernels bring such a monomial to normal form before packing
    expected = _resolve_reference(m1, m2)
    assert ds.elem_mul(frozenset({m1}), frozenset({m2})) == expected
    assert ds.normal_form([m1, m2]) == expected
    assert ds.normal_form([m1, m2], rng=random.Random(5)) == expected


def test_two_spellings_of_one_monomial_cancel():
    # xi_1 * xi_1^2 and xi_1^3 pack to one int, so their sum is 0
    e = frozenset({REPEATED_XI, ds.xi_mono(1, 3)})
    assert ds.elem_mul(e, ds.ELEM_ONE) == frozenset()
    assert ds.normal_form([e]) == frozenset()
    assert ds.normal_form([e], rng=random.Random(5)) == frozenset()


# ---------------------------------------------------------------------------
# The packed kernels against per-pair products by the direct rewrite


def looped_elem_mul(e1, e2):
    acc = set()
    for m1 in e1:
        for m2 in e2:
            acc ^= _resolve_reference(m1, m2)
    return frozenset(acc)


@lru_cache(maxsize=None)
def looped_eta_r(k, n):
    out = frozenset({ds.coeff_mono(k, 0)})
    for _ in range(n):
        out = looped_elem_mul(out, ds.AU_TAU0)
    return out


def looped_tensor_mul(T1, T2):
    acc = set()
    for l1, r1 in T1:
        for l2, r2 in T2:
            left_base = _resolve_reference(l1, l2)
            for rm in _resolve_reference(r1, r2):
                r0 = M(xi=rm[2], tau=rm[3])
                lefts = left_base
                if rm[0] or rm[1]:
                    lefts = looped_elem_mul(left_base, looped_eta_r(rm[0], rm[1]))
                for lm in lefts:
                    acc ^= {(lm, r0)}
    return frozenset(acc)


def xi_power(i, e):
    """xi_i^e as a monomial, with xi_0 = 1."""
    return M(xi=((i, e),)) if i else ds.ONE_MONO


def delta_xi(i):
    """Delta(xi_i) = sum_j xi_{i-j}^{2^j} (x) xi_j, j = 0..i."""
    return frozenset((xi_power(i - j, 1 << j), xi_power(j, 1)) for j in range(i + 1))


def delta_tau(i):
    """Delta(tau_i) = tau_i (x) 1 + sum_j xi_{i-j}^{2^j} (x) tau_j, j = 0..i."""
    return frozenset({(M(tau=(i,)), ds.ONE_MONO)}) | frozenset(
        (xi_power(i - j, 1 << j), M(tau=(j,))) for j in range(i + 1))


def looped_coproduct(e):
    acc = set()
    for a, u, xi, tau in e:
        T = frozenset({(M(a, u), ds.ONE_MONO)})
        for i, ex in xi:
            for _ in range(ex):
                T = looped_tensor_mul(T, delta_xi(i))
        for i in tau:
            T = looped_tensor_mul(T, delta_tau(i))
        acc ^= T
    return frozenset(acc)


def test_elem_mul_matches_looped_oracle():
    # every ORACLE_FAMILY pair, each factor with its own a^k u^n
    for i, m1 in enumerate(ORACLE_FAMILY):
        e1 = frozenset({M(i % 3, i // 3 % 2, m1[2], m1[3])})
        for j, m2 in enumerate(ORACLE_FAMILY):
            e2 = frozenset({M(j % 2, j // 2 % 3, m2[2], m2[3])})
            assert ds.elem_mul(e1, e2) == looped_elem_mul(e1, e2), (e1, e2)


def test_psi_grid_matches_looped_oracle():
    powers = [ds.ELEM_ONE]
    for _ in range(12):
        powers.append(looped_elem_mul(powers[-1], PSI_Z1))
    for j in range(13):
        assert ds.psi({1: j}) == powers[j], j
        for k in range(13 - j):
            assert ds.elem_mul(ds.psi({1: j}), ds.psi({1: k})) == \
                looped_elem_mul(powers[j], powers[k]), (j, k)


def test_coproduct_matches_looped_oracle():
    samples = [frozenset({m}) for m in ORACLE_FAMILY]
    samples += [frozenset({M(2, 1, ((1, 5),), (0,))}),
                frozenset({M(0, 0, ((1, 1), (2, 3)), (1,))}), PSI_Z2]
    for e in samples:
        T = ds.coproduct(e)
        assert T == looped_coproduct(e), ds.format_element(e)
        for _, r in T:
            assert r[0] == 0 and r[1] == 0
    T = ds.coproduct(PSI_Z2)
    assert ds.tensor_mul(T, T) == looped_tensor_mul(T, T)


def random_tensor(rng):
    """One or two terms over ORACLE_FAMILY; both factors of every term
    carry u, and at times a."""
    def mono():
        m = rng.choice(ORACLE_FAMILY)
        return M(rng.randrange(2), 1, m[2], m[3])
    return frozenset((mono(), mono()) for _ in range(rng.randrange(1, 3)))


def test_tensor_mul_matches_looped_oracle_on_random_tensors():
    # a coefficient of a right product must move left whether or not the
    # two right tau masks overlap
    rng = random.Random(1907)
    for _ in range(300):
        T1, T2 = random_tensor(rng), random_tensor(rng)
        assert ds.tensor_mul(T1, T2) == looped_tensor_mul(T1, T2), (T1, T2)


@pytest.mark.parametrize("n", [4, 5])
def test_coproduct_of_psi_zeta_matches_looped_oracle(n):
    assert ds.coproduct(ds.psi_zeta(n)) == looped_coproduct(ds.psi_zeta(n))


def looped_coproduct_left(T):
    acc = set()
    for l, r in T:
        for l1, l2 in looped_coproduct(frozenset({l})):
            acc ^= {(l1, l2, r)}
    return frozenset(acc)


def looped_coproduct_right(T):
    acc = set()
    for l, r in T:
        for m1, m2 in looped_coproduct(frozenset({r})):
            middle = M(xi=m1[2], tau=m1[3])
            for lm in looped_elem_mul(frozenset({l}), looped_eta_r(m1[0], m1[1])):
                acc ^= {(lm, middle, m2)}
    return frozenset(acc)


@pytest.mark.parametrize("n", [3, 4])
def test_coproduct_left_right_match_looped_oracle(n):
    T = ds.coproduct(ds.psi_zeta(n))
    assert ds.coproduct_left(T) == looped_coproduct_left(T)
    assert ds.coproduct_right(T) == looped_coproduct_right(T)


def test_products_leave_mul_mono_cache_empty():
    # the packed kernels keep no per-pair cache and never call mul_mono,
    # their cached wrapper, not even to pack a non-canonical monomial
    ds.mul_mono.cache_clear()
    for j in range(13):
        for k in range(13 - j):
            assert ds.elem_mul(ds.psi({1: j}), ds.psi({1: k})) == ds.psi({1: j + k})
    T = ds.coproduct(ds.psi_zeta(3))
    assert ds.coproduct_left(T) == ds.coproduct_right(T)
    assert ds.normal_form([ds.tau_mono(0), ds.tau_mono(1), ds.tau_mono(0)])
    assert ds.normal_form([M(tau=(1, 1))]) == TAU_SQUARE[1]
    unsorted = M(xi=((2, 1), (1, 1)), tau=(3, 0))
    assert ds.elem_mul(frozenset({unsorted}), frozenset({ds.tau_mono(0)})) == \
        _resolve_reference(unsorted, ds.tau_mono(0))
    assert ds.mul_mono.cache_info().currsize == 0


def selftest_words():
    """The words of the selftest's tau-confluence check at bound 10,
    drawn from its rng stream, which the shuffled normal form shares."""
    rng = random.Random(987654321)
    for _ in range(500):
        word = _random_word(rng, 20)
        ds.normal_form(word, rng=rng)
        yield word


def test_pack_memo_matches_direct_pack():
    operands = [ds.psi({1: n}) for n in range(25)]
    for word in selftest_words():
        operands.append(frozenset(word))
        operands += [frozenset({m}) for m in word]
    for e in operands:
        assert ds._packed(e) == frozenset(ds._pack(e)), ds.format_element(e)


def test_memo_route_matches_direct_route():
    samples = [ds.psi({1: n}) for n in (0, 1, 5, 12)] + [PSI_Z2, ETA_U2]
    for e1 in samples:
        p1 = ds._pack(e1)
        assert ds.elem_square(e1) == ds._unpack(ds._square_packed(p1))
        assert ds.elem_pow(e1, 3) == ds._unpack(ds._pow_packed(p1, 3))
        assert ds.coproduct(e1) == ds._ungroup(ds._coproduct_grouped(p1))
        for e2 in samples:
            direct = ds._unpack(ds._mul_packed(p1, ds._pack(e2)))
            assert ds.elem_mul(e1, e2) == direct
            assert ds.elem_mul(tuple(e1), tuple(e2)) == direct
            assert ds.normal_form([e1, e2]) == direct
    for word in selftest_words():
        assert ds.normal_form([frozenset({m}) for m in word]) == \
            ds.normal_form(word)


def test_memo_brings_a_repeated_tau_to_normal_form():
    e = frozenset({M(tau=(0, 0))})
    assert ds._unpack(ds._packed(e)) == TAU_SQUARE[0]
    assert ds.elem_mul(e, ds.ELEM_ONE) == TAU_SQUARE[0]


def test_pack_memo_hits_bounded_and_frozen():
    ds._packed.cache_clear()
    e = ds.psi({1: 7})
    ds.elem_mul(e, ds.ELEM_ONE)
    info = ds._packed.cache_info()
    ds.elem_mul(e, ds.ELEM_ONE)
    assert ds._packed.cache_info().hits == info.hits + 2
    assert ds._packed.cache_info().misses == info.misses
    assert type(ds._packed(e)) is frozenset and ds._packed(e) is ds._packed(e)
    limit = ds._packed.cache_info().maxsize
    assert limit == 256
    for k in range(limit + 1):
        ds.elem_square(frozenset({ds.coeff_mono(k, 0)}))
    assert ds._packed.cache_info().currsize == limit


def test_pack_memo_caches_no_overflow():
    bad = frozenset({M(a=2 ** 20)})
    ds._packed.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(DegreeOverflowError) as exc:
            ds.elem_mul(bad, ds.ELEM_ONE)
        texts.append(str(exc.value))
    assert texts[0] == texts[1] == ("exponent of a beyond 1048575, "
                                    "the largest its packed field holds")
    assert ds._packed.cache_info().currsize == 0


TOP = 2 ** 20 - 1  # the largest exponent a packed field holds


@pytest.mark.parametrize("fits, overflows, field", [
    (lambda: ds.normal_form([M(a=TOP)]),
     lambda: ds.normal_form([M(a=TOP + 1)]), "a"),
    (lambda: ds.elem_mul(frozenset({M(u=2 ** 19)}), frozenset({M(u=2 ** 19 - 1)})),
     lambda: ds.elem_mul(frozenset({M(u=2 ** 19)}), frozenset({M(u=2 ** 19)})), "u"),
    (lambda: ds.elem_mul(frozenset({M(xi=((1, TOP - 1),), tau=(0,))}),
                         frozenset({ds.tau_mono(0)})),
     lambda: ds.elem_mul(frozenset({M(xi=((1, TOP),), tau=(0,))}),
                         frozenset({ds.tau_mono(0)})), "xi_1"),
    (lambda: ds.elem_pow(frozenset({ds.xi_mono(70)}), TOP),
     lambda: ds.elem_pow(frozenset({ds.xi_mono(70)}), TOP + 1), "xi_70"),
    (lambda: ds.normal_form([ds.tau_mono(31), ds.tau_mono(30)]),
     lambda: ds.normal_form([ds.tau_mono(31), ds.tau_mono(31)]), "tau_32"),
    (lambda: ds.normal_form([ds.tau_mono(31)]),
     lambda: ds.normal_form([ds.tau_mono(32)]), "tau_32"),
], ids=["a-pack", "u-product", "xi-tau-delta", "xi-pow", "tau-product", "tau-pack"])
def test_packed_fields_never_wrap(fits, overflows, field):
    # the last value that fits passes; the next raises, naming the field
    assert fits()
    with pytest.raises(DegreeOverflowError, match=f"{field} beyond"):
        overflows()


@pytest.mark.parametrize("build, factor", [
    (lambda: ds.parse_expression("x1024"), "xi_1024"),
    (lambda: ds.parse_expression("t32", bound=10), "tau_32"),
    (lambda: ds.parse_expression("z1024"), "z_1024"),
    (lambda: ds.parse_expression("x1024", bound=10), "xi_1024"),
    (lambda: ds.psi({1024: 1}), "z_1024"),
    (lambda: ds.elem_mul(frozenset({ds.xi_mono(1024)}), ds.ELEM_ONE), "xi_1024"),
], ids=["x", "t-bound", "z", "x-bound", "psi", "pack"])
def test_index_past_the_limit_raises_first(build, factor):
    # the index is checked before 2^index is built or a field is packed
    with pytest.raises(DegreeOverflowError, match=f"^{factor} beyond"):
        build()


def test_check_dimension():
    with pytest.raises(DegreeOverflowError):
        ds.check_dimension(frozenset({ds.xi_mono(3)}), 10)
    assert ds.check_dimension(frozenset({ds.xi_mono(2)}), 10)


def test_eta_r_frozen():
    assert ds.eta_r(0, 1) == ETA_U
    assert ds.eta_r(0, 2) == ETA_U2
    assert ds.eta_r(1, 0) == frozenset({M(a=1)})
    assert ds.eta_r(0, 0) == ds.ELEM_ONE


def test_eta_r_rejects_negative_cone():
    with pytest.raises(ValueError):
        ds.eta_r(-1, 0)


def test_counit():
    assert ds.counit(frozenset({ds.xi_mono(1)})) == coeff_zero()
    assert ds.counit(PSI_Z1) == coeff_zero()


def test_pair():
    e = frozenset({M(a=2, xi=((1, 1),)), M(u=1, tau=(0,)), M(a=1, u=1, xi=((1, 1),))})
    assert ds.pair(ds.xi_mono(1), e) == coeff_pos(2, 0) + coeff_pos(1, 1)
    assert ds.pair(ds.tau_mono(0), e) == coeff_pos(0, 1)
    assert ds.pair(ds.xi_mono(2), e) == coeff_zero()
    with pytest.raises(ValueError):
        ds.pair(M(a=1, xi=((1, 1),)), e)


# ---------------------------------------------------------------------------
# Hopf structure


def test_coproduct_frozen():
    one = ds.ONE_MONO
    assert ds.coproduct(frozenset({ds.xi_mono(1)})) == frozenset({
        (ds.xi_mono(1), one), (one, ds.xi_mono(1))})
    assert ds.coproduct(frozenset({ds.tau_mono(0)})) == frozenset({
        (ds.tau_mono(0), one), (one, ds.tau_mono(0))})
    assert ds.coproduct(frozenset({ds.xi_mono(2)})) == frozenset({
        (ds.xi_mono(2), one), (ds.xi_mono(1, 2), ds.xi_mono(1)),
        (one, ds.xi_mono(2))})
    assert ds.coproduct(frozenset({ds.tau_mono(1)})) == frozenset({
        (ds.tau_mono(1), one), (ds.xi_mono(1), ds.tau_mono(0)),
        (one, ds.tau_mono(1))})


def test_coproduct_counit_laws():
    rng = random.Random(24601)
    samples = [frozenset({ds.xi_mono(1)}), frozenset({ds.xi_mono(2)}),
               frozenset({ds.tau_mono(0)}), frozenset({ds.tau_mono(1)}),
               frozenset({ds.tau_mono(2)})]
    samples += [frozenset({random_mono(rng, 16)}) for _ in range(20)]
    for e in samples:
        T = ds.coproduct(e)
        assert ds.tensor_counit_left(T) == e
        assert ds.tensor_counit_right(T) == e


def test_coassociativity():
    rng = random.Random(1001)
    samples = [frozenset({ds.xi_mono(1)}), frozenset({ds.xi_mono(2)}),
               frozenset({ds.tau_mono(0)}), frozenset({ds.tau_mono(1)}),
               frozenset({ds.tau_mono(2)})]
    samples += [frozenset({random_mono(rng, 14)}) for _ in range(12)]
    for e in samples:
        T = ds.coproduct(e)
        assert ds.coproduct_left(T) == ds.coproduct_right(T), ds.format_element(e)


def test_coproduct_respects_tau_relation():
    # the two routes around tau_0^2 agree, so the coproduct is defined
    # on the quotient
    t0 = frozenset({ds.tau_mono(0)})
    lhs = ds.coproduct(ds.elem_square(t0))
    rhs = ds.tensor_mul(ds.coproduct(t0), ds.coproduct(t0))
    assert lhs == rhs


def test_tensor_mul_shuttles_coefficients():
    # (1 (x) t0) * (1 (x) t0): the relation fires on the right factor and
    # its coefficients cross the tensor sign through eta_R
    T = frozenset({(ds.ONE_MONO, ds.tau_mono(0))})
    prod = ds.tensor_mul(T, T)
    expected = frozenset({
        (M(a=1), ds.tau_mono(1)),
        (M(a=1), M(xi=((1, 1),), tau=(0,))),
        (M(a=1, tau=(0,)), ds.xi_mono(1)),  # eta_R(u) = a t0 + u
        (M(u=1), ds.xi_mono(1)),
    })
    assert prod == expected
    for _, r in prod:
        assert r[0] == 0 and r[1] == 0  # stored rights carry no coefficient
    assert ds.tensor_counit_left(prod) == ds.elem_square(
        frozenset({ds.tau_mono(0)}))


def test_psi_frozen():
    assert ds.psi_zeta(0) == ds.ELEM_ONE
    assert ds.psi_zeta(1) == PSI_Z1
    assert ds.psi_zeta(2) == PSI_Z2
    with pytest.raises(ValueError):
        ds.psi_zeta(-1)


def test_psi_value_cache():
    ds.psi({1: 5})
    # the bound is checked before the cache is read
    with pytest.raises(DegreeOverflowError):
        ds.psi({1: 5}, bound=4)
    value = ds.psi({1: 3})
    entries = ds._psi_value.cache_info().currsize
    # a zero exponent leaves the key as it is
    assert ds.psi({1: 3, 2: 0}) == value
    assert ds._psi_value.cache_info().currsize == entries
    for n, e in ((1, 5), (2, 3), (3, 2), (4, 1)):
        assert ds.psi({n: e}) == ds.elem_pow(ds.psi_zeta(n), e), (n, e)
    # psi_zeta keeps no copy of its own
    for n in range(5):
        assert ds.psi_zeta(n) is ds.psi({n: 1}), n
    limit = ds._psi_value.cache_info().maxsize
    assert limit == 1 << 12
    for e in range(1, limit + 2):
        assert ds.psi({0: e}) == ds.ELEM_ONE
    assert ds._psi_value.cache_info().currsize == limit


def test_p_sequence_matches_the_recursion():
    # oracle: P_{n+2} = a xi_1 P_{n+1} + u xi_1 P_n on exponent triples
    # (a, u, xi_1), with no product of the package
    ps = [{(0, 0, 0)}, {(1, 0, 1)}]
    while len(ps) <= 200:
        ps.append({(a + 1, u, x + 1) for a, u, x in ps[-1]}
                  ^ {(a, u + 1, x + 1) for a, u, x in ps[-2]})

    def elem(terms):
        return frozenset(M(a, u, ((1, x),) if x else ()) for a, u, x in terms)

    for n in range(201):
        assert ds.p_sequence(n) == (elem(ps[n]),
                                    elem(ps[n - 1]) if n else ds.ELEM_ZERO), n


def test_psi_power_past_the_a_field_raises_first():
    # psi(z_n)^e holds a^{e(2^n - 1)} xi_n^e, so it cannot be packed once
    # e(2^n - 1) reaches 2^20; it is refused before anything is multiplied
    for n in range(1, 4):
        for e in range(1, 7):
            assert M(a=e * ((1 << n) - 1), xi=((n, e),)) in ds.psi({n: e})
    for z in ({1: 1 << 20}, {1: 99999999}, {2: 349526}, {21: 1},
              {1: 1, 20: 2}):
        with pytest.raises(DegreeOverflowError, match="exponent of a beyond"):
            ds.psi(z)


def test_psi_multiplicative():
    assert ds.psi({1: 1, 2: 1}) == ds.elem_mul(ds.psi_zeta(1), ds.psi_zeta(2))
    with pytest.raises(ValueError):
        ds.psi({1: -1})


def test_p_sequence_frozen():
    p0, q0 = ds.p_sequence(0)
    assert p0 == ds.ELEM_ONE and q0 == ds.ELEM_ZERO
    p1, q1 = ds.p_sequence(1)
    assert p1 == frozenset({M(a=1, xi=((1, 1),))})
    assert q1 == ds.ELEM_ONE
    p2, q2 = ds.p_sequence(2)
    assert p2 == P2 and q2 == Q2
    p3, q3 = ds.p_sequence(3)
    assert P3 <= p3 and q3 == p2
    with pytest.raises(ValueError):
        ds.p_sequence(-1)


def test_abar_kills_higher_generators():
    e = ds.psi_zeta(2)
    img = ds.abar_image(e)
    for m in img:
        assert all(i <= 1 for i, _ in m[2])
        assert all(i == 0 for i in m[3])


def test_pairing_closed_form():
    assert ds.pairing_closed_form(2, 2) == coeff_pos(2, 0)
    assert ds.pairing_closed_form(2, 3) == coeff_zero()
    assert ds.pairing_closed_form(1, 1) == coeff_pos(1, 0)
    assert ds.pairing_closed_form(0, 0) == coeff_one()
    with pytest.raises(ValueError, match="negative index"):
        ds.pairing_closed_form(-1, 0)


# ---------------------------------------------------------------------------
# dual operations on coefficients


def test_coefficient_action_frozen():
    assert ds.act_on_coefficient("xitau", 0, 1) == coeff_pos(1, 0)
    assert ds.act_on_coefficient("xi", 1, 2) == coeff_pos(2, 1)
    assert ds.act_on_coefficient("xitau", 1, 2) == coeff_pos(3, 0)
    assert ds.act_on_coefficient("xi", 0, 4) == coeff_pos(0, 4)
    assert ds.act_on_coefficient("xi", 2, 1) == coeff_zero()
    with pytest.raises(ValueError):
        ds.act_on_coefficient("bad", 0, 0)


def test_coefficient_action_routes_agree_through_16():
    # the pairing with eta_R(u)^k against the Cartan recursion, past the
    # l, k <= 8 of the acceptance test and the selftest
    for kind in ("xi", "xitau"):
        for l in range(17):
            for k in range(17):
                value = ds.act_on_coefficient(kind, l, k)
                assert value == ds.act_via_cartan(kind, l, k), (kind, l, k)
                assert ds.mod_u(value) == ds.act_mod_u_closed_form(kind, l, k)
    with pytest.raises(ValueError, match="negative index"):
        ds.act_on_coefficient("xi", -1, 0)


def test_cartan_expand_shape():
    terms = ds.cartan_expand("xi", 2)
    assert len(terms) == 5  # three xi splittings, two tau cross terms
    terms2 = ds.cartan_expand("xitau", 1)
    assert len(terms2) == 5
    with pytest.raises(ValueError):
        ds.cartan_expand("nope", 0)


def test_act_on_trivial():
    alg = st.polynomial_algebra((("t", 1),), 30)
    y = st.Poly(frozenset({(("t", 3),)}))
    table = ds.act_on_trivial("xi", 1, alg, y)
    # Sq^1(t^3) = t^4 and Sq^2(t^3) = t^5
    assert table == {(1, 0): alg.sq(1, y), (0, 1): alg.sq(2, y)}
    table2 = ds.act_on_trivial("xitau", 1, alg, y)
    assert table2 == {(1, 0): alg.sq(2, y), (0, 1): alg.sq(3, y)}
    with pytest.raises(ValueError, match="unknown operation kind 'bad'"):
        ds.act_on_trivial("bad", 1, alg, y)


# ---------------------------------------------------------------------------
# formatting and parsing


def test_format_pinned():
    e = frozenset({M(a=1, tau=(1,)), M(a=1, xi=((1, 1),), tau=(0,)),
                   M(u=1, xi=((1, 1),))})
    assert ds.format_element(e) == "a*t1 + a*t0*x1 + u*x1"
    assert ds.format_element(ds.ELEM_ZERO) == "0"
    assert ds.format_element(ds.ELEM_ONE) == "1"
    assert ds.format_mono(M(a=2, u=1, xi=((1, 3), (2, 1)), tau=(0, 2))) == \
        "a^2*u*t0*t2*x1^3*x2"


def test_format_tensor_pinned():
    T = ds.coproduct(frozenset({ds.tau_mono(0)}))
    assert ds.format_tensor(T) == "1 (x) t0 + t0 (x) 1"
    assert ds.format_tensor(frozenset()) == "0"


def test_parse_expression():
    assert ds.parse_expression("t0*t0") == TAU_SQUARE[0]
    assert ds.parse_expression("x1^2*a") == frozenset({M(a=1, xi=((1, 2),))})
    assert ds.parse_expression("z2") == PSI_Z2
    assert ds.parse_expression("z1^2") == ds.psi({1: 2})
    assert ds.parse_expression("1 + 1") == ds.ELEM_ZERO
    assert ds.parse_expression("0") == ds.ELEM_ZERO
    assert ds.parse_expression("u^3") == frozenset({M(u=3)})
    with pytest.raises(ParseError):
        ds.parse_expression("x0")
    with pytest.raises(ParseError):
        ds.parse_expression("t1 +")
    with pytest.raises(ParseError):
        ds.parse_expression("")
    with pytest.raises(ParseError):
        ds.parse_expression("x1^")
    for text in ("t1 *", "x1*", "a^2 +", "z1^2 * *"):
        with pytest.raises(ParseError):
            ds.parse_expression(text)
    with pytest.raises(DegreeOverflowError):
        ds.parse_expression("x3", bound=10)


def test_parse_round_trip():
    rng = random.Random(5150)
    for _ in range(150):
        e = ds.normal_form([random_mono(rng, 12) for _ in range(2)])
        if e:
            assert ds.parse_expression(ds.format_element(e)) == e


@settings(max_examples=40, deadline=None)
@given(st_.integers(0, 3), st_.integers(0, 3),
       st_.lists(st_.tuples(st_.integers(1, 3), st_.integers(1, 2)), max_size=2),
       st_.lists(st_.integers(0, 3), max_size=2, unique=True))
def test_parse_round_trip_hypothesis(a, u, xis, taus):
    xi = tuple(sorted({i: e for i, e in xis}.items()))
    m = M(a, u, xi, tuple(sorted(taus)))
    text = ds.format_mono(m)
    assert ds.parse_expression(text) == frozenset({m})


@pytest.mark.parametrize("args, digest", [
    ((), "514d9f93639c986b9c4e8bf7f7d62768db0263a2e7ba5cf6a1bbcfb995d452f1"),
    (("--gens", "5"),
     "95e266e47c101a18bb57793d57083fb356d92d47aed2effe882d109f99264073"),
], ids=["default", "gens-5"])
def test_tables_script_pinned(args, digest):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "dual_steenrod_tables.py"), *args],
        capture_output=True, timeout=60, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_tables_script_small_sizes():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "dual_steenrod_tables.py"),
         "--gens", "2", "--pn", "3", "--pairs", "2", "--actions", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "  t0^2 = a*t1 + a*t0*x1 + u*x1" in proc.stdout.splitlines()
