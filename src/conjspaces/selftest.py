"""Deterministic end-to-end invariant checks, runnable from the CLI.

Each check is a named function taking a size bound; it raises
CheckFailure with a short reason, or returns quietly.  The runner prints
one PASS/FAIL line per check in registry order and a summary, with fixed
seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable

from . import coefficients as co
from . import dual_steenrod as ds
from . import frames as fr
from . import steenrod as st
from .degree import RODegree, diagonal, format_degree, parse_degree
from .gf2 import (Poly, binom_mod2, poly_from_monomials, poly_gen, poly_one,
                  poly_zero, rank_bits)


class CheckFailure(Exception):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# coefficient ring and chart


def check_binom_pascal(bound: int) -> None:
    rows = max(16, 4 * bound)
    prev = [1]
    for n in range(rows):
        for k, v in enumerate(prev):
            if binom_mod2(n, k) != v % 2:
                _fail(f"C({n},{k}) mod 2 disagrees with the Pascal recursion")
        prev = [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]


def check_poly_ring(bound: int) -> None:
    rng = random.Random(100 + bound)
    names = ["s", "t", "v"]
    for _ in range(max(200, 100 * bound)):
        def rand_poly():
            terms = []
            for _ in range(rng.randrange(0, 4)):
                m = tuple(sorted((g, rng.randrange(1, 4))
                                 for g in rng.sample(names, rng.randrange(0, 3))))
                terms.append(m)
            return poly_from_monomials(terms)
        x, y, z = rand_poly(), rand_poly(), rand_poly()
        if (x * y) * z != x * (y * z):
            _fail("product not associative")
        if x * y != y * x:
            _fail("product not commutative")
        if x + x:
            _fail("doubling is not zero")
        if x * (y + z) != x * y + x * z:
            _fail("product not distributive")


def _window_degrees(w: int) -> list[RODegree]:
    return [RODegree(p, q) for p in range(-w, w + 1) for q in range(-w, w + 1)]


def check_chart_one_dim(bound: int) -> None:
    w = max(4, bound)
    # independent enumeration of all ring monomials landing in the window
    counts: Counter = Counter()
    for k in range(0, 2 * w + 1):
        for n in range(0, 2 * w + 1):
            counts[co.pos_degree(k, n)] += 1
    for i in range(0, 2 * w + 1):
        for j in range(2, 2 * w + 1):
            counts[co.neg_degree(i, j)] += 1
    for d in _window_degrees(w):
        expected = co.chart_lookup(d).dim_pt
        if counts[d] != expected:
            _fail(f"degree {d}: {counts[d]} monomials but chart says {expected}")
        mono = co.coeff_basis_monomial(d)
        if bool(mono) != bool(expected):
            _fail(f"degree {d}: basis monomial lookup disagrees with the chart")
        if mono and co.coeff_degree(mono) != d:
            _fail(f"degree {d}: basis monomial has the wrong degree")


def check_chart_lewis(bound: int) -> None:
    for tag, shape in sorted(co.SHAPES.items()):
        if not co.lewis_relations_hold(shape):
            _fail(f"shape {tag} violates the Lewis relations")


def _window_monomials(w: int) -> list:
    """The nonzero basis monomials of the degrees of _window_degrees(w)."""
    return [m for m in map(co.coeff_basis_monomial, _window_degrees(w)) if m]


def check_coeff_ring(bound: int) -> None:
    monos = _window_monomials(min(6, max(3, bound // 2)))
    for x in monos:
        if co.coeff_one() * x != x or x * co.coeff_one() != x:
            _fail("unit law fails")
        for y in monos:
            if x * y != y * x:
                _fail("product not commutative")
    rng = random.Random(7)
    for _ in range(2000):
        x, y, z = (rng.choice(monos) for _ in range(3))
        if (x * y) * z != x * (y * z):
            _fail(f"associativity fails on {x}, {y}, {z}")


def check_coeff_arrows(bound: int) -> None:
    """Multiplication by a and by u against the chart geometry."""
    w = max(4, bound)
    a, u = co.coeff_a(), co.coeff_u()
    for d in _window_degrees(w):
        x = co.coeff_basis_monomial(d)
        if not x:
            continue
        # cohomological |a| = al, |u| = -1 + al
        for gen, shift, alive in (
                (a, RODegree(0, 1), not x.neg or next(iter(x.neg))[0] >= 1),
                (u, RODegree(-1, 1), not x.neg or next(iter(x.neg))[1] >= 3)):
            target = d + shift
            prod = x * gen
            if bool(prod) != alive:
                _fail(f"{x} * {gen}: expected {'non' if alive else ''}zero")
            if prod:
                if co.coeff_degree(prod) != target:
                    _fail(f"{x} * {gen}: degree mismatch")
                if abs(target.p) <= w and abs(target.q) <= w:
                    if co.chart_lookup(target).dim_pt == 0:
                        _fail(f"{x} * {gen}: lands in a zero chart spot")


def check_coeff_restriction(bound: int) -> None:
    monos = _window_monomials(max(4, bound // 2))
    for x in monos:
        for y in monos:
            lhs = co.restriction(x * y) if (x * y) else frozenset()
            rhs = co.u_laurent_mul(co.restriction(x), co.restriction(y))
            if lhs != rhs:
                _fail(f"restriction not multiplicative on {x}, {y}")


def check_phi_shadow(bound: int) -> None:
    monos = _window_monomials(max(4, bound // 2))
    for x in monos:
        if x.neg and co.phi_shadow(x):
            _fail("negative cone survives the shadow")
        if x.pos and not co.phi_shadow(x):
            _fail("polynomial cone dies in the shadow")
        for y in monos:
            lhs = co.phi_shadow(x * y)
            rhs = co.phi_shadow(x) * co.phi_shadow(y)
            if lhs != rhs:
                _fail(f"shadow not multiplicative on {x}, {y}")


def check_laurent_rings(bound: int) -> None:
    """Ring laws of the shadow product on seeded elements of F[a^{+-1}, u]
    with negative a-exponents."""
    rng = random.Random(300 + bound)
    w = max(3, bound // 2)

    def rand_elem():
        return co.LaurentElem(frozenset(
            (rng.randrange(-w, w + 1), rng.randrange(0, w))
            for _ in range(rng.randrange(0, 4))))

    for _ in range(max(40, 4 * bound)):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        xy = x * y
        if xy != y * x:
            _fail(f"shadow product not commutative on {x}, {y}")
        if xy * z != x * (y * z):
            _fail(f"shadow product not associative on {x}, {y}, {z}")
        if x * (y + z) != xy + x * z:
            _fail(f"shadow product not distributive on {x}, {y}, {z}")
        if any(u_exp < 0 for _, u_exp in xy.terms):
            _fail(f"{x} * {y} has a negative u-exponent")
    one = co.LaurentElem(frozenset({(0, 0)}))
    for k in range(-w, w + 1):
        if co.LaurentElem(frozenset({(k, 0)})) * \
                co.LaurentElem(frozenset({(-k, 0)})) != one:
            _fail(f"a^{k} * a^{-k} is not 1")


def _check_free_module(bound: int, summands, failure: str) -> None:
    """Basis sizes of a sum of shifted HF copies against the chart."""
    for d in _window_degrees(max(4, bound // 2)):
        expected = sum(co.chart_lookup(d - shift).dim_pt
                       for _, shift in summands)
        got = len(co.free_module_basis(summands, d))
        if got != expected:
            _fail(failure.format(d=d, got=got, expected=expected))


def check_tensor_module(bound: int) -> None:
    _check_free_module(bound, (("e", RODegree(0, 0)), ("f", RODegree(2, 0)),
                               ("g", RODegree(2, 0))),
                       "tensor basis size wrong at {d}")


def check_free_module_degrees(bound: int) -> None:
    _check_free_module(bound, (("one", diagonal(0)), ("x", diagonal(2))),
                       "free module dimension wrong at {d}: {got} != {expected}")


def check_coeff_parse(bound: int) -> None:
    rng = random.Random(41)
    for _ in range(200):
        terms = co.coeff_zero()
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.3:
                terms = terms + co.coeff_theta(rng.randrange(0, 5),
                                               rng.randrange(2, 7))
            else:
                terms = terms + co.coeff_pos(rng.randrange(0, 5),
                                             rng.randrange(0, 5))
        if co.parse_coeff(co.format_coeff(terms)) != terms:
            _fail(f"coefficient round trip fails on {terms}")
    for d in _window_degrees(max(4, bound // 2)):
        if parse_degree(format_degree(d)) != d:
            _fail(f"degree round trip fails on {d}")


# ---------------------------------------------------------------------------
# classical Steenrod engine


def check_sq_binomial(bound: int) -> None:
    top = max(8, bound + 2)
    alg = st.polynomial_algebra((("t", 1),), 2 * top + 2)
    for k in range(top + 1):
        x = alg.reduce(poly_gen("t", 1) ** k) if k else poly_one()
        for i in range(top + 1):
            got = alg.sq(i, x)
            expected = (alg.reduce(poly_gen("t", 1) ** (k + i))
                        if binom_mod2(k, i) else poly_zero())
            if got != expected:
                _fail(f"Sq^{i}(t^{k}) disagrees with the binomial rule")


def check_cartan(bound: int) -> None:
    # classes reach degree 5, so squares of products reach degree 20
    alg = st.polynomial_algebra((("t1", 1), ("t2", 2)), max(20, 2 * bound))
    rng = random.Random(55)
    classes = [m for d in range(1, 6) for m in alg.basis(d)]
    for _ in range(60):
        x = Poly(frozenset({rng.choice(classes)}))
        y = Poly(frozenset({rng.choice(classes)}))
        dx = alg.poly_degree(x)
        dy = alg.poly_degree(y)
        for i in range(dx + dy + 1):
            lhs = alg.sq(i, x * y)
            rhs = poly_zero()
            for j in range(i + 1):
                rhs = rhs + alg.sq(j, x) * alg.sq(i - j, y)
            if lhs != alg.reduce(rhs):
                _fail(f"Cartan fails on Sq^{i} of degree {dx}+{dy}")


def check_instability(bound: int) -> None:
    alg = st.truncated_algebra((("t", 1), ("v", 3)), {"t": 9, "v": 4},
                               max(24, 2 * bound))
    for d in range(1, 9):
        for m in alg.basis(d):
            x = Poly(frozenset({m}))
            if alg.sq(0, x) != x:
                _fail("Sq^0 is not the identity")
            if alg.sq(d, x) != alg.reduce(x * x):
                _fail(f"top square of degree {d} is not the square")
            if alg.sq(d + 1, x) or alg.sq(d + 3, x):
                _fail("squares above the degree do not vanish")


def check_adem(bound: int) -> None:
    """Sq1Sq1 = 0, Sq1Sq2 = Sq3 and Sq2Sq2 = Sq3Sq1 on every basis
    monomial of a rank-3 polynomial algebra whose images stay in range."""
    top = max(8, min(12, bound + 2))
    alg = st.polynomial_algebra((("t1", 1), ("t2", 1), ("t3", 1)), top,
                                "adem-probe")
    identities = (
        ("Sq1Sq1 = 0", 2, lambda x: alg.sq(1, alg.sq(1, x)), lambda x: poly_zero()),
        ("Sq1Sq2 = Sq3", 3, lambda x: alg.sq(1, alg.sq(2, x)), lambda x: alg.sq(3, x)),
        ("Sq2Sq2 = Sq3Sq1", 4, lambda x: alg.sq(2, alg.sq(2, x)),
         lambda x: alg.sq(3, alg.sq(1, x))),
    )

    def classes(top_degree: int):
        for d in range(top_degree + 1):
            for m in alg.basis(d):
                yield Poly(frozenset({m}))

    bad = [name for name, shift, lhs, rhs in identities
           if any(lhs(x) != rhs(x) for x in classes(top - shift))]
    if bad:
        _fail("operator identities fail: " + ", ".join(bad))


def check_steinberg(bound: int) -> None:
    alg = st.truncated_algebra((("t1", 1), ("t2", 1)), {"t1": 5, "t2": 5},
                               max(20, 2 * bound))
    for d in range(0, 7):
        basis = alg.basis(d)
        index = {bm: i for i, bm in enumerate(st.pb_basis_at(alg, 2 * d))}
        rows = []
        for m in basis:
            v = st.steinberg(alg, Poly(frozenset({m})))
            if v and st.bpoly_degree(alg, v) != 2 * d:
                _fail("Steinberg class is not homogeneous of doubled degree")
            if st.bpoly_coefficient(v, d) != Poly(frozenset({m})):
                _fail("leading b-coefficient is not the class itself")
            row = 0
            for t in v.terms:
                row ^= 1 << index[t]
            rows.append(row)
        if rank_bits(rows) != len(basis):
            _fail(f"Steinberg map not injective in degree {d}")


def check_r_series(bound: int) -> None:
    top = max(8, bound + 2)
    for n in range(1, min(6, max(2, bound // 2)) + 1):
        alg = st.truncated_algebra((("t", 1),), {"t": n + 1}, 2 * top + 2)
        rmod = st.compute_R(alg, top)
        for d in range(top + 1):
            # combinatorial count of the doubled classes with b-padding
            expected = sum(1 for k in range(n + 1) if 2 * k <= d)
            if rmod.dim(d) != expected:
                _fail(f"R dims of the rank-one truncation n={n} wrong at {d}")
        x = st.steinberg(alg, poly_gen("t", 1))
        if st.express_in_steinberg(alg, x) != {(("t", 1),): 0}:
            _fail("express fails on the Steinberg class of t")
        if n >= 2 and st.express_in_steinberg(
                alg, st.bpoly_from([(2, (("t", 1),))])) is not None:
            _fail("b^2 t is wrongly accepted into the span")


def check_doubling(bound: int) -> None:
    """F[x]/(x^8) with |x| = 2 against F[t]/(t^8) with |t| = 1, built
    apart: the classes of t sit in twice their degrees, the odd squares of
    x vanish, and Sq^{2i} x^k is Sq^i t^k with x renamed t."""
    top = max(32, 2 * bound)
    doubled = st.truncated_algebra((("x", 2),), {"x": 8}, top)
    base = st.truncated_algebra((("t", 1),), {"t": 8}, top)
    for d in range(18):
        want = 0 if d % 2 else base.dim(d // 2)
        if doubled.dim(d) != want:
            _fail(f"doubled dimension at {d} is {doubled.dim(d)}, not {want}")
    for k in range(1, 8):
        x, t = poly_gen("x", 1) ** k, poly_gen("t", 1) ** k
        for i in range(k + 2):
            if doubled.sq(2 * i + 1, x):
                _fail(f"Sq^{2 * i + 1} x^{k} is nonzero")
            renamed = Poly(frozenset(tuple(("t", e) for _, e in m)
                                     for m in doubled.sq(2 * i, x).terms))
            if renamed != base.sq(i, t):
                _fail(f"Sq^{2 * i} x^{k} is not Sq^{i} t^{k}")


# ---------------------------------------------------------------------------
# dual equivariant algebra


def check_tau_relation(bound: int) -> None:
    for i in range(5):
        got = ds.mul_mono(ds.tau_mono(i), ds.tau_mono(i))
        expected = frozenset({
            (1, 0, (), (i + 1,)),
            (1, 0, ((i + 1, 1),), (0,)),
            (0, 1, ((i + 1, 1),), ()),
        })
        if got != expected:
            _fail(f"tau_{i}^2 normal form is wrong")
        d = ds.elem_degree(got)
        if d != ds.mono_degree(ds.tau_mono(i)).scale(2):
            _fail(f"tau_{i}^2 does not preserve the degree")


def _random_word(rng: random.Random, dim_cap: int):
    word = []
    total = 0
    for _ in range(rng.randrange(2, 5)):
        xi = (((rng.randrange(1, 4), rng.randrange(1, 3)),)
              if rng.randrange(0, 2) else ())  # at most one factor
        tau = tuple(sorted(rng.sample(range(0, 4), rng.randrange(0, 3))))
        m = (rng.randrange(0, 2), rng.randrange(0, 2), xi, tau)
        if total + ds.mono_dimension(m) > dim_cap:
            break
        total += ds.mono_dimension(m)
        word.append(m)
    return word if word else [ds.ONE_MONO]


def check_tau_confluence(bound: int) -> None:
    rng = random.Random(987654321)
    trials = max(100, 50 * bound)
    for _ in range(trials):
        word = _random_word(rng, 2 * bound)
        canonical = ds.normal_form(word)
        shuffled = ds.normal_form(word, rng=rng)
        if canonical != shuffled:
            _fail(f"normal form depends on the rewrite order for {word}")
        for m in canonical:
            if len(set(m[3])) != len(m[3]):
                _fail("normal form is not tau-square-free")
        degs = [ds.mono_degree(m) for m in word]
        total = RODegree(0, 0)
        for d in degs:
            total = total + d
        if canonical and ds.elem_degree(canonical) != total:
            _fail("normal form changed the degree")


def check_hopf_axioms(bound: int) -> None:
    gens = [ds.xi_mono(1), ds.xi_mono(2), ds.tau_mono(0), ds.tau_mono(1),
            ds.tau_mono(2)]
    rng = random.Random(24601)
    samples = [frozenset({g}) for g in gens]
    while len(samples) < len(gens) + 20:
        m = _random_word(rng, min(16, max(8, bound + 6)))[0]
        samples.append(frozenset({m}))
    for e in samples:
        T = ds.coproduct(e)
        if ds.tensor_counit_left(T) != e or ds.tensor_counit_right(T) != e:
            _fail(f"counit laws fail on {ds.format_element(e)}")
        if ds.coproduct_left(T) != ds.coproduct_right(T):
            _fail(f"coassociativity fails on {ds.format_element(e)}")
    for x in samples[:5]:
        for y in samples[:5]:
            lhs = ds.coproduct(ds.elem_mul(x, y))
            rhs = ds.tensor_mul(ds.coproduct(x), ds.coproduct(y))
            if lhs != rhs:
                _fail("coproduct is not multiplicative on "
                      f"{ds.format_element(x)}, {ds.format_element(y)}")


def check_right_unit(bound: int) -> None:
    if ds.eta_r(0, 1) != ds.AU_TAU0:
        _fail("right unit of u is wrong")
    expected_u2 = frozenset({
        (3, 0, (), (1,)), (3, 0, ((1, 1),), (0,)), (2, 1, ((1, 1),), ()),
        (0, 2, (), ()),
    })
    if ds.eta_r(0, 2) != expected_u2:
        _fail("right unit of u^2 is wrong")
    for k in range(3):
        for n in range(4):
            for k2 in range(3):
                for n2 in range(3):
                    lhs = ds.elem_mul(ds.eta_r(k, n), ds.eta_r(k2, n2))
                    if lhs != ds.eta_r(k + k2, n + n2):
                        _fail("right unit is not multiplicative")
    for k in range(3):
        for n in range(4):
            if ds.counit(ds.eta_r(k, n)) != co.coeff_pos(k, n):
                _fail("counit does not split the right unit")


def check_psi(bound: int) -> None:
    for n in range(0, 5):
        z = ds.psi_zeta(n)
        d = ds.elem_degree(z)
        if d != RODegree((1 << n) - 1, 0):
            _fail(f"psi of the Milnor generator {n} is not homogeneous")
    expected_z2 = frozenset({
        (3, 0, ((2, 1),), ()), (2, 0, ((1, 2),), (0,)),
        (1, 0, (), (0, 1)), (0, 1, (), (1,)),
    })
    if ds.psi_zeta(2) != expected_z2:
        _fail("psi of the second Milnor generator is wrong")
    top = max(6, bound)
    for j in range(top + 1):
        for k in range(top + 1 - j):
            lhs = ds.elem_mul(ds.psi({1: j}), ds.psi({1: k}))
            if lhs != ds.psi({1: j + k}):
                _fail(f"psi is not multiplicative on z1^{j} * z1^{k}")


def check_abar_p(bound: int) -> None:
    top = max(6, bound)
    pn_prev, pn = None, None
    for n in range(top + 1):
        pn_seq, qn_seq = ds.p_sequence(n)
        direct = ds.abar_image(ds.psi({1: n}))
        if direct != ds.assemble_p_pair(pn_seq, qn_seq):
            _fail(f"the quotient image of z1^{n} is not P_n + Q_n tau_0")
        if n >= 2:
            a_xi = frozenset({(1, 0, ((1, 1),), ())})
            u_xi = frozenset({(0, 1, ((1, 1),), ())})
            rec = ds.elem_mul(a_xi, pn) ^ ds.elem_mul(u_xi, pn_prev)
            if rec != pn_seq:
                _fail(f"P recursion fails at {n}")
        pn_prev, pn = pn, pn_seq
    p2, q2 = ds.p_sequence(2)
    if p2 != frozenset({(2, 0, ((1, 2),), ()), (0, 1, ((1, 1),), ())}):
        _fail("P_2 is wrong")
    if q2 != frozenset({(1, 0, ((1, 1),), ())}):
        _fail("Q_2 is wrong")


def check_pairing(bound: int) -> None:
    top_i = max(5, bound)
    top_k = 2 * top_i
    for k in range(top_k + 1):
        full = ds.psi({1: k})
        pk, qk = ds.p_sequence(k)
        via_p = ds.assemble_p_pair(pk, qk)
        for i in range(top_i + 1):
            m = ds.xi_mono(1, i) if i else ds.ONE_MONO
            direct = ds.pair(m, full)
            indirect = ds.pair(m, via_p)
            closed = ds.pairing_closed_form(i, k)
            if direct != closed or indirect != closed:
                _fail(f"pairing of xi_1^{i} with z1^{k} disagrees")


def check_coefficient_action(bound: int) -> None:
    top = max(4, min(8, bound))
    for kind in ("xi", "xitau"):
        for l in range(top + 1):
            for k in range(top + 1):
                main = ds.act_on_coefficient(kind, l, k)
                cross = ds.act_via_cartan(kind, l, k)
                if main != cross:
                    _fail(f"two routes to ({kind}, {l}) on u^{k} disagree")
                if ds.mod_u(main) != ds.act_mod_u_closed_form(kind, l, k):
                    _fail(f"mod-u value of ({kind}, {l}) on u^{k} is wrong")
    if ds.act_on_coefficient("xitau", 0, 1) != co.coeff_pos(1, 0):
        _fail("tau_0 dual on u is not a")
    if ds.act_on_coefficient("xitau", 1, 2) != co.coeff_pos(3, 0):
        _fail("xi_1 tau_0 dual on u^2 is not a^3")
    if ds.act_on_coefficient("xi", 1, 2) != co.coeff_pos(2, 1):
        _fail("xi_1 dual on u^2 is not a^2 u")


def check_action_restriction(bound: int) -> None:
    alg = st.polynomial_algebra((("t", 1),), max(24, 2 * bound))
    for l in range(0, 4):
        for k in range(1, 6):
            y = alg.reduce(poly_gen("t", 1) ** k)
            for kind, cls in (("xi", 2 * l), ("xitau", 2 * l + 1)):
                table = ds.act_on_trivial(kind, l, alg, y)
                expected = alg.sq(cls, y)
                got = table.get((0, l), poly_zero())
                if got != expected:
                    _fail(f"a-free part of ({kind}, {l}) is not Sq^{cls}")


def check_eq_parse(bound: int) -> None:
    rng = random.Random(4242)
    for _ in range(100):
        e = ds.normal_form(_random_word(rng, 14))
        if not e:
            continue
        text = ds.format_element(e)
        if ds.parse_expression(text) != e:
            _fail(f"round trip fails on {text}")
    if ds.parse_expression("z2") != ds.psi_zeta(2):
        _fail("Milnor generator token does not expand")
    if ds.parse_expression("t0*t0") != ds.elem_square(frozenset({ds.tau_mono(0)})):
        _fail("squared tau token is not normalized")


# ---------------------------------------------------------------------------
# conjugation frames


def _selftest_models(bound: int):
    models = [fr.point_model(), fr.sphere_model(1), fr.sphere_model(2),
              fr.cp_model(1), fr.cp_model(2), fr.cp_product_model(1, 1)]
    if bound >= 8:
        models.append(fr.cp_model(3))
    return models


def check_frames(bound: int) -> None:
    for model in _selftest_models(bound):
        ok, verdicts, _ = fr.frame_check(model)
        if not ok:
            bad = "; ".join(f"{v.name}: {v.detail}" for v in verdicts if not v.ok)
            _fail(f"{model.name}: {bad}")


def check_frame_mutations(bound: int) -> None:
    model = fr.cp_model(2)
    report = fr.build_frame(model)
    x1, x2 = (("x", 1),), (("x", 2),)
    corrupted = dict(model.kappa0)
    corrupted[x1], corrupted[x2] = corrupted[x2], corrupted[x1]
    if fr.verify_conjugation_equation(report, corrupted).ok:
        _fail("swapped kappa0 passes the conjugation equation")
    purity = fr.purity_check(model)
    dropped = fr.FreeHFModule(purity.module.generators[:-1])
    if fr.nakayama_splitting_check(model, dropped).ok:
        _fail("dropping a generator keeps the splitting")
    zeroed = fr.SpaceModel(model.name, model.even, model.fixed,
                           {**model.kappa0, x1: poly_zero()}, model.bound)
    if fr.nakayama_splitting_check(zeroed, purity.module).ok:
        _fail("zeroed kappa0 keeps the splitting")


def check_unique_sections(bound: int) -> None:
    for model in (fr.sphere_model(1), fr.cp_model(2)):
        verdict = fr.unique_section_check(model)
        if not verdict.ok:
            _fail(f"{model.name}: {verdict.detail}")


def check_kappa_shadow(bound: int) -> None:
    for model in (fr.sphere_model(2), fr.cp_model(2)):
        report = fr.build_frame(model)
        verdict = fr.kappa_shadow_check(model, report)
        if not verdict.ok:
            _fail(f"{model.name}: {verdict.detail}")


def check_model_roundtrip(bound: int) -> None:
    model = fr.cp_model(2)
    data = fr.model_to_dict(model)
    back = fr.load_model(data)
    if back.name != model.name or back.bound != model.bound:
        _fail("round trip changes the header")
    if back.kappa0 != model.kappa0:
        _fail("round trip changes kappa0")
    for d in range(model.bound + 1):
        if back.even.dim(d) != model.even.dim(d):
            _fail("round trip changes the even dimensions")
    ok, verdicts, _ = fr.frame_check(back)
    if not ok:
        _fail("reloaded model fails its frame checks")
    try:
        fr.load_model({"name": "broken", "bound": 2,
                       "even": {"generators": [{"name": "x", "degree": 2}],
                                "relations": ["x^2"]},
                       "fixed": {"generators": [{"name": "t", "degree": 1}],
                                 "relations": ["t^2"]},
                       "kappa0": {"1": "1", "x": "0"}})
    except Exception as exc:
        if "surjective" not in str(exc):
            _fail(f"wrong rejection message: {exc}")
    else:
        _fail("non-surjective kappa0 was accepted")


REGISTRY: tuple[tuple[str, Callable[[int], None]], ...] = (
    ("binom-pascal", check_binom_pascal),
    ("poly-ring", check_poly_ring),
    ("chart-one-dim", check_chart_one_dim),
    ("chart-lewis", check_chart_lewis),
    ("coeff-ring", check_coeff_ring),
    ("coeff-arrows", check_coeff_arrows),
    ("coeff-restriction", check_coeff_restriction),
    ("phi-shadow", check_phi_shadow),
    ("laurent-rings", check_laurent_rings),
    ("tensor-module", check_tensor_module),
    ("free-module-degrees", check_free_module_degrees),
    ("coeff-parse", check_coeff_parse),
    ("sq-binomial", check_sq_binomial),
    ("cartan", check_cartan),
    ("instability", check_instability),
    ("adem", check_adem),
    ("steinberg", check_steinberg),
    ("r-series", check_r_series),
    ("doubling", check_doubling),
    ("tau-relation", check_tau_relation),
    ("tau-confluence", check_tau_confluence),
    ("hopf-axioms", check_hopf_axioms),
    ("right-unit", check_right_unit),
    ("psi", check_psi),
    ("abar-p", check_abar_p),
    ("pairing", check_pairing),
    ("coefficient-action", check_coefficient_action),
    ("action-restriction", check_action_restriction),
    ("eq-parse", check_eq_parse),
    ("frames", check_frames),
    ("frame-mutations", check_frame_mutations),
    ("unique-sections", check_unique_sections),
    ("kappa-shadow", check_kappa_shadow),
    ("model-roundtrip", check_model_roundtrip),
)


def run_check(name: str, func: Callable[[int], None], bound: int) -> str | None:
    """The failure text of one registered check, or None when it passes.
    name is not read here: perfbench/tracer.py labels the call by it."""
    try:
        func(bound)
    except CheckFailure as exc:
        return str(exc)
    except Exception as exc:  # a crash is a failure, not an abort
        return f"{type(exc).__name__}: {exc}"
    return None


def run_selftest(bound: int = 10) -> bool:
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    failed = 0
    for name, func in REGISTRY:
        detail = run_check(name, func, bound)
        if detail is None:
            print(f"PASS {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    if failed:
        print(f"SELFTEST FAIL ({failed} of {len(REGISTRY)} checks failed)")
        return False
    print(f"SELFTEST PASS ({len(REGISTRY)} checks)")
    return True
