"""The dual of the C2-equivariant mod-2 Steenrod algebra.

Basis monomials are products  a^k u^n * prod xi_i^{e_i} * prod tau_i
with square-free tau part; the defining relation

    tau_i^2 = a*tau_{i+1} + a*tau_0*xi_{i+1} + u*xi_{i+1}

is applied until no tau appears twice.  mul_mono reads the tau part of a
product from a memoized table keyed on the two tau tuples (_tau_product,
built from the single-collision rule _times_tau); the a, u and xi parts
only add.  The direct rewrite _resolve, in an rng-chosen order, is kept
as the independent reference that the confluence checks compare against
(mul_mono_ordered, normal_form(..., rng=)).  Degrees are tracked
homologically: |a| = -al, |u| = 1 - al, |xi_i| = (2^i - 1)(1 + al),
|tau_i| = (2^i - 1)(1 + al) + 1.  Coefficients stay inside the
polynomial cone F[a, u]; no operation here produces the negative cone,
and the right unit is only defined on F[a, u].

Tensor factors are over the coefficient ring: a coefficient h on a right
factor is shuttled to the left factor as multiplication by eta_R(h), so
stored right factors never carry coefficients.
"""

from __future__ import annotations

from functools import lru_cache

from .coefficients import CoeffElem, coeff_mul, coeff_one, coeff_pos, coeff_zero
from .degree import RODegree
from .errors import DegreeOverflowError, ParseError
from .gf2 import binom_mod2

# EqMono = (a_exp, u_exp, xi, tau); xi = ((index, exp), ...) sorted with
# index >= 1 and exp >= 1; tau = (index, ...) sorted, distinct, index >= 0.
EqMono = tuple
EqElem = frozenset

ONE_MONO: EqMono = (0, 0, (), ())
ELEM_ONE: EqElem = frozenset({ONE_MONO})
ELEM_ZERO: EqElem = frozenset()


def xi_mono(i: int, e: int = 1) -> EqMono:
    if i < 1 or e < 1:
        raise ValueError("xi needs index >= 1 and exponent >= 1")
    return (0, 0, ((i, e),), ())


def tau_mono(i: int) -> EqMono:
    if i < 0:
        raise ValueError("tau needs index >= 0")
    return (0, 0, (), (i,))


def coeff_mono(k: int, n: int) -> EqMono:
    if k < 0 or n < 0:
        raise ValueError("coefficient exponents must be non-negative")
    return (k, n, (), ())


def mono_degree(m: EqMono) -> RODegree:
    a_exp, u_exp, xi, tau = m
    p = u_exp
    q = -a_exp - u_exp
    for i, e in xi:
        w = (1 << i) - 1
        p += e * w
        q += e * w
    for i in tau:
        p += 1 << i
        q += (1 << i) - 1
    return RODegree(p, q)


def mono_dimension(m: EqMono) -> int:
    return mono_degree(m).dimension


def elem_degree(e: EqElem) -> RODegree | None:
    degs = {mono_degree(m) for m in e}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    return degs.pop()


def check_dimension(e: EqElem, bound: int | None) -> EqElem:
    if bound is not None:
        for m in e:
            if mono_dimension(m) > bound:
                raise DegreeOverflowError(
                    f"monomial of dimension {mono_dimension(m)} beyond bound {bound}")
    return e


def _premono_degree(a: int, u: int, xi: dict, taus: dict) -> RODegree:
    p = u
    q = -a - u
    for i, e in xi.items():
        w = (1 << i) - 1
        p += e * w
        q += e * w
    for i, c in taus.items():
        p += c * (1 << i)
        q += c * ((1 << i) - 1)
    return RODegree(p, q)


# relation RHS for tau_i^2, as (da, du, xi additions, tau additions)
def _relation_terms(i: int):
    return (
        (1, 0, (), (i + 1,)),
        (1, 0, ((i + 1, 1),), (0,)),
        (0, 1, ((i + 1, 1),), ()),
    )


def _resolve(a: int, u: int, xi: dict, taus: dict, out: set, rng, expected) -> None:
    colliding = sorted(i for i, c in taus.items() if c >= 2)
    if not colliding:
        mono = (a, u, tuple(sorted(xi.items())), tuple(sorted(taus)))
        # every rewrite is degree preserving; check at each emission
        assert mono_degree(mono) == expected
        out ^= {mono}
        return
    i = colliding[0] if rng is None else rng.choice(colliding)
    base_taus = dict(taus)
    base_taus[i] -= 2
    if base_taus[i] == 0:
        del base_taus[i]
    for da, du, dxi, dtau in _relation_terms(i):
        new_xi = dict(xi)
        for j, e in dxi:
            new_xi[j] = new_xi.get(j, 0) + e
        new_taus = dict(base_taus)
        for j in dtau:
            new_taus[j] = new_taus.get(j, 0) + 1
        _resolve(a + da, u + du, new_xi, new_taus, out, rng, expected)


def _raw_product(m1: EqMono, m2: EqMono):
    a = m1[0] + m2[0]
    u = m1[1] + m2[1]
    xi: dict[int, int] = dict(m1[2])
    for i, e in m2[2]:
        xi[i] = xi.get(i, 0) + e
    taus: dict[int, int] = {}
    for i in m1[3]:
        taus[i] = taus.get(i, 0) + 1
    for i in m2[3]:
        taus[i] = taus.get(i, 0) + 1
    return a, u, xi, taus


@lru_cache(maxsize=None)
def _xi_add(x1: tuple, x2: tuple) -> tuple:
    """Sum of two xi exponent tuples, sorted by index."""
    xi = dict(x1)
    for i, e in x2:
        xi[i] = xi.get(i, 0) + e
    return tuple(sorted(xi.items()))


@lru_cache(maxsize=None)
def _times_tau(mask: int, i: int) -> tuple:
    """tau_S * tau_i for the square-free tau set S held as a bitmask, as
    (da, du, dxi, mask) terms.  A collision is rewritten once,
    tau_S tau_i = a (tau_{S-i} tau_{i+1}) + a xi_{i+1} (tau_{S-i} tau_0)
                  + u xi_{i+1} tau_{S-i},
    and the two inner products recurse on a smaller set."""
    bit = 1 << i
    if not mask & bit:
        return ((0, 0, (), mask | bit),)
    rest = mask ^ bit
    xi_next = ((i + 1, 1),)
    out: set = {(0, 1, xi_next, rest)}
    for da, du, dxi, m in _times_tau(rest, i + 1):
        out ^= {(da + 1, du, dxi, m)}
    for da, du, dxi, m in _times_tau(rest, 0):
        out ^= {(da + 1, du, _xi_add(dxi, xi_next), m)}
    return tuple(out)


@lru_cache(maxsize=None)
def _tau_product(t1: tuple, t2: tuple) -> tuple:
    """Normal form of prod tau_i over t1 + t2, as (da, du, dxi, taus)
    terms.  Keyed on the tuples themselves, so a repeated tau in a
    non-canonical input is rewritten rather than merged."""
    terms: set = {(0, 0, (), 0)}
    for i in t1 + t2:
        acc: set = set()
        for da, du, dxi, mask in terms:
            for ea, eu, exi, m in _times_tau(mask, i):
                acc ^= {(da + ea, du + eu, _xi_add(dxi, exi), m)}
        terms = acc
    out = tuple((da, du, dxi, tuple(j for j in range(m.bit_length()) if m >> j & 1))
                for da, du, dxi, m in terms)
    # the rewrite preserves degree; a, u and xi only add on top of it
    expected = mono_degree((0, 0, (), t1 + t2))
    assert all(mono_degree(m) == expected for m in out)
    return out


@lru_cache(maxsize=None)
def mul_mono(m1: EqMono, m2: EqMono) -> EqElem:
    """Product of two monomials through the memoized tau-product table:
    a, u and xi exponents add, and only the tau parts need rewriting."""
    a = m1[0] + m2[0]
    u = m1[1] + m2[1]
    xi = _xi_add(m1[2], m2[2])
    return frozenset((a + da, u + du, _xi_add(xi, dxi) if dxi else xi, taus)
                     for da, du, dxi, taus in _tau_product(m1[3], m2[3]))


def mul_mono_ordered(m1: EqMono, m2: EqMono, rng) -> EqElem:
    """The product by direct rewriting, resolving tau collisions in an
    rng-chosen order.  It shares no code with mul_mono's table, so the
    confluence checks compare two independent implementations."""
    a, u, xi, taus = _raw_product(m1, m2)
    out: set = set()
    _resolve(a, u, xi, taus, out, rng, _premono_degree(a, u, xi, taus))
    return frozenset(out)


def elem_mul(e1: EqElem, e2: EqElem) -> EqElem:
    acc: set = set()
    for m1 in e1:
        for m2 in e2:
            acc ^= mul_mono(m1, m2)
    return frozenset(acc)


def elem_square(e: EqElem) -> EqElem:
    # commutative in characteristic 2: cross terms cancel
    acc: set = set()
    for m in e:
        acc ^= mul_mono(m, m)
    return frozenset(acc)


def elem_pow(e: EqElem, n: int) -> EqElem:
    if n < 0:
        raise ValueError("negative exponent")
    result = ELEM_ONE
    base = e
    while n:
        if n & 1:
            result = elem_mul(result, base)
        n >>= 1
        if n:
            base = elem_square(base)
    return result


def elem_scale(e: EqElem, k: int, n: int) -> EqElem:
    """Multiply by the coefficient monomial a^k u^n (never collides)."""
    return frozenset((m[0] + k, m[1] + n, m[2], m[3]) for m in e)


def normal_form(factors, rng=None, bound: int | None = None) -> EqElem:
    """Product of a word of monomials/elements, fully tau-square-free.

    With an rng, collision resolution order and the fold order are
    randomized; the result must not depend on either.
    """
    items = []
    for f in factors:
        items.append(frozenset({f}) if isinstance(f, tuple) else f)
    if rng is not None:
        items = list(items)
        rng.shuffle(items)
    result = ELEM_ONE
    for e in items:
        if rng is None:
            result = elem_mul(result, e)
        else:
            acc: set = set()
            for m1 in result:
                for m2 in e:
                    acc ^= mul_mono_ordered(m1, m2, rng)
            result = frozenset(acc)
    return check_dimension(result, bound)


# ---------------------------------------------------------------------------
# Hopf structure maps

AU_TAU0: EqElem = frozenset({(1, 0, (), (0,)), (0, 1, (), ())})  # a*tau_0 + u


@lru_cache(maxsize=None)
def _eta_r_u_power(n: int) -> EqElem:
    if n == 0:
        return ELEM_ONE
    return elem_mul(_eta_r_u_power(n - 1), AU_TAU0)


def eta_r(k: int, n: int) -> EqElem:
    """Right unit on the polynomial cone: a -> a, u -> a*tau_0 + u."""
    if k < 0 or n < 0:
        raise ValueError("right unit is only defined on the polynomial cone")
    return elem_scale(_eta_r_u_power(n), k, 0)


def counit(e: EqElem) -> CoeffElem:
    """Keep the coefficient of the empty monomial."""
    out = coeff_zero()
    for a_exp, u_exp, xi, tau in e:
        if not xi and not tau:
            out = out + coeff_pos(a_exp, u_exp)
    return out


def pair(m: EqMono, e: EqElem) -> CoeffElem:
    """Left coefficient of the basis monomial m inside e."""
    if m[0] or m[1]:
        raise ValueError("pairing expects a coefficient-free basis monomial")
    out = coeff_zero()
    for a_exp, u_exp, xi, tau in e:
        if xi == m[2] and tau == m[3]:
            out = out + coeff_pos(a_exp, u_exp)
    return out


# tensor terms: (left EqMono, right EqMono); right factors carry no coefficient

EqTensor = frozenset


def _strip_coeff(m: EqMono) -> tuple[tuple[int, int], EqMono]:
    return (m[0], m[1]), (0, 0, m[2], m[3])


def tensor_mul(T1: EqTensor, T2: EqTensor) -> EqTensor:
    acc: set = set()
    for l1, r1 in T1:
        for l2, r2 in T2:
            left_base = mul_mono(l1, l2)
            for rm in mul_mono(r1, r2):
                c, r0 = _strip_coeff(rm)
                if c == (0, 0):
                    lefts = left_base
                else:
                    lefts = elem_mul(left_base, eta_r(*c))
                for lm in lefts:
                    acc ^= {(lm, r0)}
    return frozenset(acc)


def tensor_pow(T: EqTensor, n: int) -> EqTensor:
    result = frozenset({(ONE_MONO, ONE_MONO)})
    for _ in range(n):
        result = tensor_mul(result, T)
    return result


def _delta_xi(i: int) -> EqTensor:
    pairs = []
    for j in range(i + 1):
        left = ONE_MONO if j == i else xi_mono(i - j, 1 << j)
        right = ONE_MONO if j == 0 else xi_mono(j)
        pairs.append((left, right))
    return frozenset(pairs)


def _delta_tau(i: int) -> EqTensor:
    pairs = [(tau_mono(i), ONE_MONO)]
    for j in range(i + 1):
        left = ONE_MONO if j == i else xi_mono(i - j, 1 << j)
        pairs.append((left, tau_mono(j)))
    return frozenset(pairs)


def coproduct(e: EqElem, bound: int | None = None) -> EqTensor:
    """Coproduct with all coefficients shuttled to the left factor."""
    if bound is not None:
        check_dimension(e, bound)
    acc: set = set()
    for a_exp, u_exp, xi, tau in e:
        T = frozenset({((a_exp, u_exp, (), ()), ONE_MONO)})
        for i, ex in xi:
            T = tensor_mul(T, tensor_pow(_delta_xi(i), ex))
        for i in tau:
            T = tensor_mul(T, _delta_tau(i))
        acc ^= T
    return frozenset(acc)


def tensor_counit_left(T: EqTensor) -> EqElem:
    """(counit tensor id) collapsed back to the algebra."""
    acc: set = set()
    for l, r in T:
        if not l[2] and not l[3]:
            acc ^= {(l[0] + r[0], l[1] + r[1], r[2], r[3])}
    return frozenset(acc)


def tensor_counit_right(T: EqTensor) -> EqElem:
    acc: set = set()
    for l, r in T:
        if r == ONE_MONO:
            acc ^= {l}
    return frozenset(acc)


def coproduct_left(T: EqTensor) -> frozenset:
    """Apply the coproduct to left factors, giving triples."""
    acc: set = set()
    for l, r in T:
        for l1, l2 in coproduct(frozenset({l})):
            acc ^= {(l1, l2, r)}
    return frozenset(acc)


def coproduct_right(T: EqTensor) -> frozenset:
    """Apply the coproduct to right factors; middle coefficients shuttle
    across the first tensor sign to the far left."""
    acc: set = set()
    for l, r in T:
        for m1, m2 in coproduct(frozenset({r})):
            c, m1s = _strip_coeff(m1)
            if c == (0, 0):
                lefts: EqElem = frozenset({l})
            else:
                lefts = elem_mul(frozenset({l}), eta_r(*c))
            for lm in lefts:
                acc ^= {(lm, m1s, m2)}
    return frozenset(acc)


# ---------------------------------------------------------------------------
# The comparison map psi from the classical dual on Milnor generators


@lru_cache(maxsize=None)
def psi_zeta(n: int) -> EqElem:
    """psi on the n-th Milnor generator.

    psi(z_n) = a^{2^n - 1} xi_n
             + sum_{i=1}^{n} a^{2^n - 2^i} eta_R(u)^{2^{i-1} - 1}
               xi_{n-i}^{2^i} tau_{i-1};
    every term has dimension 2^n - 1.
    """
    if n < 0:
        raise ValueError("negative Milnor index")
    if n == 0:
        return ELEM_ONE
    acc: set = set()
    acc ^= {(((1 << n) - 1), 0, ((n, 1),), ())}
    for i in range(1, n + 1):
        xi_part = () if n == i else ((n - i, 1 << i),)
        factor = ((1 << n) - (1 << i), 0, xi_part, (i - 1,))
        term = elem_mul(frozenset({factor}), _eta_r_u_power((1 << (i - 1)) - 1))
        acc ^= term
    return frozenset(acc)


def psi(z_exponents, bound: int | None = None) -> EqElem:
    """psi on a monomial in the Milnor generators, {index: exponent}.

    Every term has dimension sum e_n (2^n - 1), checked against the
    bound before anything is multiplied out."""
    exps = dict(z_exponents)
    if any(n < 0 for n in exps):
        raise ValueError("negative Milnor index")
    if any(e < 0 for e in exps.values()):
        raise ValueError("negative exponent")
    dim = sum(e * ((1 << n) - 1) for n, e in exps.items())
    if bound is not None and dim > bound:
        raise DegreeOverflowError(
            f"psi of dimension {dim} beyond bound {bound}")
    result = ELEM_ONE
    for n in sorted(exps):
        result = elem_mul(result, elem_pow(psi_zeta(n), exps[n]))
    return result


def p_sequence(n: int) -> tuple[EqElem, EqElem]:
    """(P_n, Q_n): P_0 = 1, P_1 = a xi_1, P_{n+2} = a xi_1 P_{n+1}
    + u xi_1 P_n; Q_0 = 0, Q_{n+1} = P_n."""
    if n < 0:
        raise ValueError("negative index")
    a_xi = frozenset({(1, 0, ((1, 1),), ())})
    u_xi = frozenset({(0, 1, ((1, 1),), ())})
    ps = [ELEM_ONE, a_xi]
    while len(ps) <= n:
        ps.append(elem_mul(a_xi, ps[-1]) ^ elem_mul(u_xi, ps[-2]))
    q = ELEM_ZERO if n == 0 else ps[n - 1]
    return ps[n], q


def abar_image(e: EqElem) -> EqElem:
    """Quotient by (tau_k, xi_{k+1} : k >= 1): drop every monomial
    involving a higher generator."""
    keep = []
    for m in e:
        if any(i > 1 for i, _ in m[2]):
            continue
        if any(i > 0 for i in m[3]):
            continue
        keep.append(m)
    return frozenset(keep)


def assemble_p_pair(pn: EqElem, qn: EqElem) -> EqElem:
    """P_n + Q_n tau_0 inside the xi_1, tau_0 subring."""
    return pn ^ elem_mul(qn, frozenset({tau_mono(0)}))


def pairing_closed_form(i: int, k: int) -> CoeffElem:
    """<(xi_1^i)^dual, psi(z_1^k)> = C(i, k-i) a^{2i-k} u^{k-i}."""
    if i < 0 or k < 0:
        raise ValueError("negative index")
    if binom_mod2(i, k - i) == 0:
        return coeff_zero()
    return coeff_pos(2 * i - k, k - i)


# ---------------------------------------------------------------------------
# Dual operations of the xi_1-tau_0 family on coefficients

# kinds: "xi" for (xi_1^l)^dual, "xitau" for (xi_1^l tau_0)^dual


def _a(k: int) -> CoeffElem:
    return coeff_pos(k, 0)


def _u(n: int) -> CoeffElem:
    return coeff_pos(0, n)


@lru_cache(maxsize=None)
def act_on_coefficient(kind: str, l: int, k: int) -> CoeffElem:
    """Value on u^k, by the recursion coming from the Cartan expansion of
    the operation applied to u * u^{k-1}."""
    if kind not in ("xi", "xitau"):
        raise ValueError(f"unknown operation kind {kind!r}")
    if l < 0 or k < 0:
        raise ValueError("negative index")
    if k == 0:
        if kind == "xi" and l == 0:
            return coeff_one()
        return coeff_zero()
    if kind == "xi":
        if l == 0:
            return _u(k)  # the identity operation
        out = coeff_mul(_u(1), act_on_coefficient("xi", l, k - 1))
        out = out + coeff_mul(coeff_pos(1, 1), act_on_coefficient("xitau", l - 1, k - 1))
        return out
    out = coeff_mul(_u(1), act_on_coefficient("xitau", l, k - 1))
    out = out + coeff_mul(_a(1), act_on_coefficient("xi", l, k - 1))
    if l >= 1:
        out = out + coeff_mul(_a(2), act_on_coefficient("xitau", l - 1, k - 1))
    return out


def mod_u(c: CoeffElem) -> CoeffElem:
    """Reduce modulo the ideal (u)."""
    return CoeffElem(frozenset(m for m in c.pos if m[1] == 0), c.neg)


def act_mod_u_closed_form(kind: str, l: int, k: int) -> CoeffElem:
    """(xi_1^l)^dual (u^k) = 0 mod u for l >= 1; the tau variant is
    a^{2k-1} exactly when l = k - 1 and 0 otherwise."""
    if kind == "xi":
        return coeff_one() if l == 0 and k == 0 else coeff_zero()
    if l == k - 1:
        return _a(2 * k - 1)
    return coeff_zero()


def cartan_expand(kind: str, l: int):
    """Coproduct of the operation as (coefficient, left op, right op)
    triples; ops are (kind, power) labels."""
    if kind == "xi":
        terms = [((0, 0), ("xi", j), ("xi", l - j)) for j in range(l + 1)]
        terms += [((0, 1), ("xitau", j), ("xitau", l - 1 - j)) for j in range(l)]
        return tuple(terms)
    if kind == "xitau":
        terms = [((0, 0), ("xitau", j), ("xi", l - j)) for j in range(l + 1)]
        terms += [((0, 0), ("xi", l - j), ("xitau", j)) for j in range(l + 1)]
        terms += [((1, 0), ("xitau", j), ("xitau", l - 1 - j)) for j in range(l)]
        return tuple(terms)
    raise ValueError(f"unknown operation kind {kind!r}")


def _act_on_u(kind: str, l: int) -> CoeffElem:
    # dual pairing against eta_R(u) = a tau_0 + u
    if kind == "xi":
        return _u(1) if l == 0 else coeff_zero()
    return _a(1) if l == 0 else coeff_zero()


def act_via_cartan(kind: str, l: int, k: int) -> CoeffElem:
    """Evaluate on u^k through the generic Cartan expansion; this is an
    independent route used to cross-check act_on_coefficient."""
    if k == 0:
        if kind == "xi" and l == 0:
            return coeff_one()
        return coeff_zero()
    if k == 1:
        return _act_on_u(kind, l)
    out = coeff_zero()
    for (ck, cn), (k1, l1), (k2, l2) in cartan_expand(kind, l):
        left = _act_on_u(k1, l1)
        if not left:
            continue
        right = act_via_cartan(k2, l2, k - 1)
        if not right:
            continue
        out = out + coeff_mul(coeff_pos(ck, cn), coeff_mul(left, right))
    return out


def act_on_trivial(kind: str, l: int, alg, y):
    """Action on a class y with trivial-action coefficients:

        (xi_1^l)^dual (y)       = sum_j C(l, j) Sq^{l+j}(y)   u^j a^{l-j}
        (xi_1^l tau_0)^dual (y) = sum_j C(l, j) Sq^{l+j+1}(y) u^j a^{l-j}

    Returns {(a_exp, u_exp): class} with zero squares dropped.
    """
    if kind not in ("xi", "xitau"):
        raise ValueError(f"unknown operation kind {kind!r}")
    shift = 0 if kind == "xi" else 1
    out = {}
    for j in range(l + 1):
        if binom_mod2(l, j) == 0:
            continue
        part = alg.sq(l + j + shift, y)
        if part:
            out[(l - j, j)] = part
    return out


def restrict_operation(m: EqMono) -> int:
    """Classical operation underlying xi_1^j tau_0^eps: the index of Sq,
    namely 2j + eps."""
    a_exp, u_exp, xi, tau = m
    if a_exp or u_exp:
        raise ValueError("expected a coefficient-free monomial")
    if tau not in ((), (0,)):
        raise ValueError("only tau_0 may appear")
    j = 0
    if xi:
        if len(xi) > 1 or xi[0][0] != 1:
            raise ValueError("only powers of xi_1 may appear")
        j = xi[0][1]
    return 2 * j + len(tau)


# ---------------------------------------------------------------------------
# Formatting and parsing


def mono_sort_key(m: EqMono):
    return (m[1], m[2], m[3], m[0])


def format_mono(m: EqMono) -> str:
    a_exp, u_exp, xi, tau = m
    factors = []
    if a_exp:
        factors.append("a" if a_exp == 1 else f"a^{a_exp}")
    if u_exp:
        factors.append("u" if u_exp == 1 else f"u^{u_exp}")
    for i in tau:
        factors.append(f"t{i}")
    for i, e in xi:
        factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(factors) if factors else "1"


def format_element(e: EqElem) -> str:
    if not e:
        return "0"
    return " + ".join(format_mono(m) for m in sorted(e, key=mono_sort_key))


def format_tensor(T: EqTensor) -> str:
    if not T:
        return "0"
    pairs = sorted(T, key=lambda t: (mono_sort_key(t[0]), mono_sort_key(t[1])))
    return " + ".join(f"{format_mono(l)} (x) {format_mono(r)}" for l, r in pairs)


import re as _re

_EQ_TOKEN = _re.compile(
    r"\s*(?:(?P<gen>[xtz])(?P<idx>\d+)|(?P<au>[au])|(?P<pow>\^)|(?P<mul>\*)|"
    r"(?P<add>\+)|(?P<int>\d+))")


def parse_expression(text: str, bound: int | None = None) -> EqElem:
    """Parse the grammar x{i} = xi_i, t{i} = tau_i, z{i} = Milnor
    generator (expanded through psi), with a, u, ^, * and +."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _EQ_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected character", text, pos)
            break
        tokens.append((m, m.start()))
        pos = m.end()
    if not tokens:
        raise ParseError("empty expression", text, 0)

    i = 0
    n = len(tokens)

    def factor():
        """Read one factor: its dimension and a thunk that expands it."""
        nonlocal i
        m, at = tokens[i]
        if m.group("gen"):
            kind = m.group("gen")
            idx = int(m.group("idx"))
            i += 1
            exp = read_power()
            if kind == "x":
                if idx < 1:
                    raise ParseError("xi index must be >= 1", text, at)
                return 2 * exp * ((1 << idx) - 1), lambda: (
                    ELEM_ONE if exp == 0 else frozenset({xi_mono(idx, exp)}))
            if kind == "t":
                return exp * ((2 << idx) - 1), lambda: elem_pow(
                    frozenset({tau_mono(idx)}), exp)
            if idx < 0:
                raise ParseError("bad Milnor index", text, at)
            return exp * ((1 << idx) - 1), lambda: elem_pow(psi_zeta(idx), exp)
        if m.group("au"):
            which = m.group("au")
            i += 1
            exp = read_power()
            if which == "a":
                return -exp, lambda: frozenset({coeff_mono(exp, 0)})
            return 0, lambda: frozenset({coeff_mono(0, exp)})
        if m.group("int"):
            val = m.group("int")
            i += 1
            if val == "1":
                return 0, lambda: ELEM_ONE
            if val == "0":
                return 0, lambda: ELEM_ZERO
            raise ParseError("only the constants 0 and 1 are allowed", text, at)
        raise ParseError("expected a factor", text, at)

    def read_power() -> int:
        nonlocal i
        if i < n and tokens[i][0].group("pow"):
            at = tokens[i][1]
            i += 1
            if i >= n or not tokens[i][0].group("int"):
                raise ParseError("expected an integer exponent after '^'", text, at)
            val = int(tokens[i][0].group("int"))
            i += 1
            return val
        return 1

    # A term's dimension is the sum of its factors' dimensions, so a term
    # beyond the bound is refused before anything is multiplied out.
    acc: set = set()
    while True:
        factors = [factor()]
        while i < n and tokens[i][0].group("mul"):
            i += 1
            if i >= n:
                raise ParseError("dangling '*'", text, len(text))
            factors.append(factor())
        dim = sum(d for d, _ in factors)
        if bound is not None and dim > bound:
            raise DegreeOverflowError(
                f"term of dimension {dim} beyond bound {bound}")
        term = factors[0][1]()
        for _, expand in factors[1:]:
            term = elem_mul(term, expand())
        acc ^= term
        if i < n and tokens[i][0].group("add"):
            i += 1
            if i >= n:
                raise ParseError("dangling '+'", text, len(text))
            continue
        break
    if i < n:
        raise ParseError("trailing input", text, tokens[i][1])
    return frozenset(acc)
