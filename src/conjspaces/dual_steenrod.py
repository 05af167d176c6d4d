"""The dual of the C2-equivariant mod-2 Steenrod algebra.

Basis monomials are products  a^k u^n * prod xi_i^{e_i} * prod tau_i
with square-free tau part; the defining relation

    tau_i^2 = a*tau_{i+1} + a*tau_0*xi_{i+1} + u*xi_{i+1}

is applied until no tau appears twice.  Degrees are tracked
homologically: |a| = -al, |u| = 1 - al, |xi_i| = (2^i - 1)(1 + al),
|tau_i| = (2^i - 1)(1 + al) + 1.  Coefficients stay inside the
polynomial cone F[a, u]; no operation here produces the negative cone,
and the right unit is only defined on F[a, u].

At the public boundary a monomial is a tuple (a, u, xi, tau) and an
element a frozenset of them.  Inside the product kernels (elem_mul,
elem_square, elem_pow, tensor_mul, coproduct, and through them
normal_form, psi, psi_zeta, p_sequence, coproduct_left/right) a
monomial is one int: bits 0-31 hold the tau bitmask, and 22-bit fields
above them hold the exponents of a, u, xi_1, xi_2, ..., as many as the
largest xi index needs.  Each public call packs its input once and
unpacks its result once; a coproduct stays packed through its whole
loop, and the tables it multiplies by (Delta(xi_i)^e, Delta(tau_i),
eta_R(a^k u^n)) are packed once.  A product of monomials with disjoint
tau masks is one integer add.  When the masks overlap, the a, u and xi
fields add and the tau part comes from a table of packed terms keyed on
the two masks.  The top two bits of every field are a guard: three
exponents add without a carry into the next field, and an exponent past
2^20 - 1, or a tau index past 31, raises DegreeOverflowError.

The tuple functions stay as the reference.  mul_mono reads the tau part
of a product from the memoized table _tau_product (built from the
single-collision rule _times_tau), and the packed table is built from
_tau_product too, so tau rewriting has one source.  The direct rewrite
_resolve, in an rng-chosen order, is the independent reference that the
confluence checks compare against (mul_mono_ordered,
normal_form(..., rng=)).  Parsing, formatting and pair work on tuples.

Tensor factors are over the coefficient ring: a coefficient h on a right
factor is shuttled to the left factor as multiplication by eta_R(h), so
stored right factors never carry coefficients.
"""

from __future__ import annotations

from functools import lru_cache

from .coefficients import CoeffElem, coeff_mul, coeff_one, coeff_pos, coeff_zero
from .degree import RODegree
from .errors import DegreeOverflowError, ParseError
from .gf2 import binom_mod2, parse_sum

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
    a, u and xi exponents add, and only the tau parts need rewriting.
    This is the tuple reference; the packed kernels below never call it
    on canonical input."""
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


# ---------------------------------------------------------------------------
# Packed monomials.  Field k of _FIELD_BITS bits, above the tau mask,
# holds the exponent of a (k = 0), u (k = 1) or xi_{k-1} (k >= 2).
# Exponents stay below _EXP_LIMIT, a quarter of the field, so the top two
# bits of each field are a guard: a sum of three exponents (two factors
# and a tau delta) never carries into the next field, and a set guard bit
# in a product's output means that field no longer fits.

_TAU_BITS = 32
_TAU_MASK = (1 << _TAU_BITS) - 1
_FIELD_BITS = 22
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << (_FIELD_BITS - 2)
_U_SHIFT = _TAU_BITS + _FIELD_BITS
_XI_SHIFT = _U_SHIFT + _FIELD_BITS
_AU_MASK = (1 << _XI_SHIFT) - (1 << _TAU_BITS)


@lru_cache(maxsize=None)
def _guard(fields: int) -> int:
    """The guard bits of the first `fields` fields."""
    return sum(3 << (_TAU_BITS + (k + 1) * _FIELD_BITS - 2) for k in range(fields))


def _field_name(k: int) -> str:
    return ("a", "u")[k] if k < 2 else f"xi_{k - 1}"


def _beyond(k: int) -> DegreeOverflowError:
    return DegreeOverflowError(
        f"exponent of {_field_name(k)} beyond {_EXP_LIMIT - 1}, "
        "the largest its packed field holds")


def _check_fields(s):
    """Raise if a field of some packed monomial in s has reached
    _EXP_LIMIT; return s."""
    top = 0
    for p in s:
        top |= p
    bits = top & _guard(top.bit_length() // _FIELD_BITS + 1)
    if bits:
        raise _beyond(((bits & -bits).bit_length() - 1 - _TAU_BITS) // _FIELD_BITS)
    return s


def _pack_mono(m: EqMono) -> int:
    """A monomial with sorted distinct tau and xi indices as one int."""
    a_exp, u_exp, xi, tau = m
    p = 0
    for i in tau:
        if i >= _TAU_BITS:
            raise DegreeOverflowError(f"tau_{i} beyond the {_TAU_BITS}-bit tau mask")
        p |= 1 << i
    fields = [(0, a_exp), (1, u_exp)]
    for i, e in xi:
        if i < 1:
            raise ValueError("xi needs index >= 1")
        fields.append((i + 1, e))
    for k, e in fields:
        if e < 0:
            raise ValueError("negative exponent")
        if e >= _EXP_LIMIT:
            raise _beyond(k)
        p += e << (_TAU_BITS + k * _FIELD_BITS)
    return p


@lru_cache(maxsize=1 << 12)
def _pack_shape(xi: tuple, tau: tuple) -> int | None:
    """The packed xi and tau fields of a monomial, or None when its tau
    indices are not sorted and distinct or its xi indices not sorted."""
    if any(s >= t for s, t in zip(tau, tau[1:])) or \
            any(s[0] >= t[0] for s, t in zip(xi, xi[1:])):
        return None
    return _pack_mono((0, 0, xi, tau))


def _pack(e) -> set:
    """Monomials as a set of packed ints.  A monomial with a repeated or
    unsorted tau, or unsorted xi, is first brought to normal form by the
    tuple product with 1."""
    out: set = set()
    for m in e:
        a_exp, u_exp, xi, tau = m
        shape = _pack_shape(xi, tau)
        if shape is None:
            packed = map(_pack_mono, mul_mono(m, ONE_MONO))
        elif 0 <= a_exp < _EXP_LIMIT and 0 <= u_exp < _EXP_LIMIT:
            packed = (shape + (a_exp << _TAU_BITS) + (u_exp << _U_SHIFT),)
        else:
            packed = (_pack_mono(m),)  # raises for a or u
        for p in packed:
            if p in out:
                out.remove(p)
            else:
                out.add(p)
    return out


@lru_cache(maxsize=None)
def _tau_tuple(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=1 << 12)
def _xi_tuple(h: int) -> tuple:
    """The xi exponents held in h, the packed fields from xi_1 up."""
    xi = []
    i = 1
    while h:
        e = h & _FIELD_MASK
        if e:
            xi.append((i, e))
        h >>= _FIELD_BITS
        i += 1
    return tuple(xi)


def _unpack_mono(p: int) -> EqMono:
    return (p >> _TAU_BITS & _FIELD_MASK, p >> _U_SHIFT & _FIELD_MASK,
            _xi_tuple(p >> _XI_SHIFT), _tau_tuple(p & _TAU_MASK))


def _unpack(s) -> EqElem:
    return frozenset(map(_unpack_mono, s))


# tau_{m1} tau_{m2} for overlapping masks, keyed on m1 << _TAU_BITS | m2:
# the packed (da, du, dxi, taus) terms of _tau_product, each a delta to add
# to the sum of the two factors with their tau bits cleared
_TAU_DELTAS: dict[int, tuple] = {}


def _tau_deltas(m1: int, m2: int) -> tuple:
    key = m1 << _TAU_BITS | m2
    deltas = _TAU_DELTAS.get(key)
    if deltas is None:
        deltas = _TAU_DELTAS[key] = tuple(
            _pack_mono(t) for t in _tau_product(_tau_tuple(m1), _tau_tuple(m2)))
    return deltas


def _mul_packed(s1, s2) -> set:
    """Product of two packed elements."""
    table = _TAU_DELTAS
    acc: set = set()
    right = [(p, p & _TAU_MASK) for p in s2]
    for p1 in s1:
        m1 = p1 & _TAU_MASK
        h1 = p1 - m1
        key1 = m1 << _TAU_BITS
        for p2, m2 in right:
            if m1 & m2:
                base = h1 + p2 - m2
                deltas = table.get(key1 | m2)
                if deltas is None:
                    deltas = _tau_deltas(m1, m2)
                for d in deltas:
                    r = base + d
                    if r in acc:
                        acc.remove(r)
                    else:
                        acc.add(r)
            else:
                r = p1 + p2
                if r in acc:
                    acc.remove(r)
                else:
                    acc.add(r)
    return _check_fields(acc)


def _square_packed(s) -> set:
    # commutative in characteristic 2: cross terms cancel
    acc: set = set()
    for p in s:
        m = p & _TAU_MASK
        base = (p - m) << 1
        for r in ((base + d for d in _tau_deltas(m, m)) if m else (base,)):
            if r in acc:
                acc.remove(r)
            else:
                acc.add(r)
    return _check_fields(acc)


def _pow_packed(s, n: int) -> set:
    result = None
    base = s
    while n:
        if n & 1:
            result = set(base) if result is None else _mul_packed(result, base)
        n >>= 1
        if n:
            base = _square_packed(base)
    return {0} if result is None else result


def elem_mul(e1: EqElem, e2: EqElem) -> EqElem:
    return _unpack(_mul_packed(_pack(e1), _pack(e2)))


def elem_square(e: EqElem) -> EqElem:
    return _unpack(_square_packed(_pack(e)))


def elem_pow(e: EqElem, n: int) -> EqElem:
    if n < 0:
        raise ValueError("negative exponent")
    return _unpack(_pow_packed(_pack(e), n))


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
    if rng is None:
        acc = {0}
        for e in items:
            acc = _mul_packed(acc, _pack(e))
        return check_dimension(_unpack(acc), bound)
    rng.shuffle(items)
    result = ELEM_ONE
    for e in items:
        out: set = set()
        for m1 in result:
            for m2 in e:
                out ^= mul_mono_ordered(m1, m2, rng)
        result = frozenset(out)
    return check_dimension(result, bound)


# ---------------------------------------------------------------------------
# Hopf structure maps

AU_TAU0: EqElem = frozenset({(1, 0, (), (0,)), (0, 1, (), ())})  # a*tau_0 + u


@lru_cache(maxsize=None)
def _eta_r_u_power(n: int) -> tuple:
    """eta_R(u)^n = (a tau_0 + u)^n, packed, by repeated squaring."""
    return tuple(_pow_packed(_pack(AU_TAU0), n))


@lru_cache(maxsize=None)
def _eta_packed(c: int) -> tuple:
    """eta_R(a^k u^n) = a^k eta_R(u)^n for the packed coefficient c."""
    k = (c >> _TAU_BITS) & _FIELD_MASK
    return tuple(_check_fields([q + (k << _TAU_BITS)
                                for q in _eta_r_u_power(c >> _U_SHIFT)]))


def eta_r(k: int, n: int) -> EqElem:
    """Right unit on the polynomial cone: a -> a, u -> a*tau_0 + u."""
    if k < 0 or n < 0:
        raise ValueError("right unit is only defined on the polynomial cone")
    return elem_scale(_unpack(_eta_r_u_power(n)), k, 0)


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


# tensor terms: (left EqMono, right EqMono); right factors carry no
# coefficient.  Packed, a term is a (left int, right int) pair.

EqTensor = frozenset


def _toggle(acc: set, t) -> None:
    if t in acc:
        acc.remove(t)
    else:
        acc.add(t)


def _tensor_mul_packed(T1, T2) -> set:
    """Product of two packed tensors.  A coefficient of a right product
    moves to the left as eta_R of it."""
    acc: set = set()
    right = [(l2, l2 & _TAU_MASK, r2, r2 & _TAU_MASK) for l2, r2 in T2]
    for l1, r1 in T1:
        ml1 = l1 & _TAU_MASK
        mr1 = r1 & _TAU_MASK
        for l2, ml2, r2, mr2 in right:
            if ml1 & ml2:
                base = l1 - ml1 + l2 - ml2
                lefts = [base + d for d in _tau_deltas(ml1, ml2)]
            else:
                lefts = (l1 + l2,)
            if mr1 & mr2:
                base = r1 - mr1 + r2 - mr2
                rights = [base + d for d in _tau_deltas(mr1, mr2)]
            else:
                rights = (r1 + r2,)
            for rm in rights:
                c = rm & _AU_MASK
                if c:
                    _check_fields((c, *lefts))
                    rm -= c
                    terms = _mul_packed(lefts, _eta_packed(c))
                else:
                    terms = lefts
                for lm in terms:
                    t = (lm, rm)
                    if t in acc:
                        acc.remove(t)
                    else:
                        acc.add(t)
    _check_fields(l | r for l, r in acc)
    return acc


def _pack_tensor(T) -> set:
    acc: set = set()
    for l, r in T:
        for lp in _pack((l,)):
            for rp in _pack((r,)):
                _toggle(acc, (lp, rp))
    return acc


def _unpack_terms(terms) -> frozenset:
    """Tensor terms of packed ints (and tuples passed through) as tuples."""
    memo: dict = {}

    def unpack(p):
        if isinstance(p, tuple):
            return p
        m = memo.get(p)
        if m is None:
            m = memo[p] = _unpack_mono(p)
        return m

    return frozenset(tuple(map(unpack, t)) for t in terms)


def tensor_mul(T1: EqTensor, T2: EqTensor) -> EqTensor:
    return _unpack_terms(_tensor_mul_packed(_pack_tensor(T1), _pack_tensor(T2)))


def _tensor_pow_packed(T, n: int) -> set:
    # the tensor product is commutative, so powers go by squaring
    result = {(0, 0)}
    while n:
        if n & 1:
            result = _tensor_mul_packed(result, T)
        n >>= 1
        if n:
            T = _tensor_mul_packed(T, T)
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


@lru_cache(maxsize=None)
def _delta_xi_packed(i: int, e: int) -> tuple:
    """Delta(xi_i)^e, packed."""
    return tuple(_tensor_pow_packed(_pack_tensor(_delta_xi(i)), e))


@lru_cache(maxsize=None)
def _delta_tau_packed(i: int) -> tuple:
    return tuple(_pack_tensor(_delta_tau(i)))


def _coproduct_packed(p: int) -> set:
    """Coproduct of one packed monomial, coefficients on the left."""
    T = {(p & _AU_MASK, 0)}
    h = p >> _XI_SHIFT
    i = 1
    while h:
        e = h & _FIELD_MASK
        if e:
            T = _tensor_mul_packed(T, _delta_xi_packed(i, e))
        h >>= _FIELD_BITS
        i += 1
    for i in _tau_tuple(p & _TAU_MASK):
        T = _tensor_mul_packed(T, _delta_tau_packed(i))
    return T


def coproduct(e: EqElem, bound: int | None = None) -> EqTensor:
    """Coproduct with all coefficients shuttled to the left factor."""
    if bound is not None:
        check_dimension(e, bound)
    acc: set = set()
    for p in _pack(e):
        acc ^= _coproduct_packed(p)
    return _unpack_terms(acc)


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


def _by_factor(T, i: int) -> dict:
    """Tensor terms grouped by factor i: {that factor: [other factors]}."""
    groups: dict = {}
    for t in T:
        groups.setdefault(t[i], []).append(t[1 - i])
    return groups


def coproduct_left(T: EqTensor) -> frozenset:
    """Apply the coproduct to left factors, giving triples."""
    acc: set = set()
    for l, rs in _by_factor(T, 0).items():
        for p in _pack((l,)):
            for l1, l2 in _coproduct_packed(p):
                for r in rs:
                    _toggle(acc, (l1, l2, r))
    return _unpack_terms(acc)


def coproduct_right(T: EqTensor) -> frozenset:
    """Apply the coproduct to right factors; middle coefficients shuttle
    across the first tensor sign to the far left."""
    acc: set = set()
    for r, ls in _by_factor(T, 1).items():
        left = _pack(ls)
        for p in _pack((r,)):
            for m1, m2 in _coproduct_packed(p):
                c = m1 & _AU_MASK
                lefts = _mul_packed(left, _eta_packed(c)) if c else left
                for lm in lefts:
                    _toggle(acc, (lm, m1 - c, m2))
    return _unpack_terms(acc)


# ---------------------------------------------------------------------------
# The comparison map psi from the classical dual on Milnor generators


@lru_cache(maxsize=None)
def _psi_zeta_packed(n: int) -> tuple:
    if n == 0:
        return (0,)
    acc = {_pack_mono((((1 << n) - 1), 0, ((n, 1),), ()))}
    for i in range(1, n + 1):
        xi_part = () if n == i else ((n - i, 1 << i),)
        factor = _pack_mono(((1 << n) - (1 << i), 0, xi_part, (i - 1,)))
        acc ^= _mul_packed((factor,), _eta_r_u_power((1 << (i - 1)) - 1))
    return tuple(acc)


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
    return _unpack(_psi_zeta_packed(n))


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
    result = {0}
    for n in sorted(exps):
        result = _mul_packed(result, _pow_packed(_psi_zeta_packed(n), exps[n]))
    return _unpack(result)


def p_sequence(n: int) -> tuple[EqElem, EqElem]:
    """(P_n, Q_n): P_0 = 1, P_1 = a xi_1, P_{n+2} = a xi_1 P_{n+1}
    + u xi_1 P_n; Q_0 = 0, Q_{n+1} = P_n.  P_n is homogeneous of
    dimension n."""
    if n < 0:
        raise ValueError("negative index")
    a_xi = (_pack_mono((1, 0, ((1, 1),), ())),)
    u_xi = (_pack_mono((0, 1, ((1, 1),), ())),)
    ps = [{0}, set(a_xi)]
    while len(ps) <= n:
        ps.append(_mul_packed(a_xi, ps[-1]) ^ _mul_packed(u_xi, ps[-2]))
    q = ELEM_ZERO if n == 0 else _unpack(ps[n - 1])
    return _unpack(ps[n]), q


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


def parse_expression(text: str, bound: int | None = None) -> EqElem:
    """Parse the grammar x{i} = xi_i, t{i} = tau_i, z{i} = Milnor
    generator (expanded through psi), with a, u, 0, 1, ^, * and +."""

    def atom(word: str, at: int, tokens):
        """The factor's dimension and a map from its exponent to its power."""
        if word == "a":
            return -1, lambda e: frozenset({coeff_mono(e, 0)})
        if word == "u":
            return 0, lambda e: frozenset({coeff_mono(0, e)})
        if word == "1":
            return 0, lambda e: ELEM_ONE
        if word == "0":
            return 0, lambda e: ELEM_ZERO if e else ELEM_ONE
        if word[0].isdigit():
            raise ParseError("only the constants 0 and 1 are allowed", text, at)
        kind, idx = word[0], word[1:]
        if kind not in "xtz" or not idx.isdigit():
            raise ParseError("expected a factor", text, at)
        idx = int(idx)
        if kind == "x":
            if idx < 1:
                raise ParseError("xi index must be >= 1", text, at)
            return 2 * ((1 << idx) - 1), lambda e: (
                ELEM_ONE if e == 0 else frozenset({xi_mono(idx, e)}))
        if kind == "t":
            return (2 << idx) - 1, lambda e: elem_pow(frozenset({tau_mono(idx)}), e)
        return (1 << idx) - 1, lambda e: elem_pow(psi_zeta(idx), e) if e else ELEM_ONE

    # A term's dimension is the sum of its factors' dimensions, so a term
    # beyond the bound is refused before anything is multiplied out.
    acc: set = set()
    for term in parse_sum(text, atom):
        dim = sum(d * e for (d, _), e in term)
        if bound is not None and dim > bound:
            raise DegreeOverflowError(
                f"term of dimension {dim} beyond bound {bound}")
        (_, power), e = term[0]
        value = power(e)
        for (_, power), e in term[1:]:
            value = elem_mul(value, power(e))
        acc ^= value
    return frozenset(acc)
