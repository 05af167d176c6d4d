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
normal_form, psi, psi_zeta, coproduct_left/right) a monomial is one
int: bits 0-31 hold the tau bitmask, and 22-bit fields above them hold
the exponents of a, u, xi_1, xi_2, ..., as many as the largest xi index
needs.  A public call unpacks its result once, through
a bounded memo of unpacked monomials.  A frozenset operand of elem_mul,
elem_square, elem_pow, coproduct or normal_form is packed through a
second bounded memo, from the element to its frozen packed set; it
serves repeated operands, as the psi grid multiplies the same few cached
psi values again and again.  Tuples and lists (mul_mono's monomials, a
tensor's factors, the right groups of coproduct_left/right) are packed
afresh, because _merge keeps and later XORs into the set it is handed,
so no memo set may reach it.  A product of monomials with disjoint tau
masks is one integer add.  When the masks overlap, the a, u and xi
fields add and the tau part comes from a table of packed terms keyed on
the two masks.  The top two bits of every field are a guard: three
exponents add without a carry into the next field, and an exponent past
2^20 - 1, a tau index past 31 or a xi or Milnor index past 1023 raises
DegreeOverflowError.

Powers go left to right: square the running power and, on each set bit
of the exponent, multiply by the base, so every product has the small
base as one factor (two terms for eta_R(u) and psi(z_1)).  eta_R(u)^n
is the square of the cached eta_R(u)^(n >> 1), times eta_R(u) when n
is odd.  psi is a ring map, psi(z^E) = prod psi(z_n)^{e_n}.  Two caches
hold it: psi(z_n)^e per (n, e), with psi(z_n) itself as e = 1, and
psi's value per Milnor monomial, bounded and read after the bound check.
psi_zeta(n), and every z_n^e that parse_expression reads, go through
psi, so each value is computed and kept once.

The tau rule is written once, on packed ints, in the table itself: the
entry for a mask and a single tau_i rewrites one collision, with its two
inner products taken through the table, and the entry for a larger
second mask multiplies the first by its tau_i one at a time.  Each entry
is degree-checked when it is made, on all terms of a rewrite and on one
term of a product of checked entries.  A monomial with a repeated or
unsorted tau is packed the same way, and mul_mono is the packed kernel
on two monomials, cached per pair.  The direct rewrite _resolve, in an
rng-chosen order, is the one independent reference that the confluence
checks compare against (mul_mono_ordered, normal_form(..., rng=)).
Parsing, formatting and pair work on tuples.

Tensor factors are over the coefficient ring: a coefficient h on a right
factor is shuttled to the left factor as multiplication by eta_R(h), so
stored right factors never carry coefficients.  Inside the kernels a
tensor is grouped by right factor, {packed right: set of packed lefts}.
A product of two tensors is one product of left sets per pair of right
factors, and each coefficient c of a right product multiplies the whole
left set by eta_R(c) at once.  The coproduct goes by Horner's rule:
each monomial is split at its last generator power f (its top tau, or
else its top xi field with the whole exponent), E = E_0 + sum_f E_f f,
and Delta(E) = E_0 (x) 1 + sum_f Delta(E_f) Delta(f), with Delta(f) =
Delta(xi_i)^e or Delta(tau_i) cached, grouped, per f.  coproduct_left
applies the rule to the left set of each right factor, coproduct_right
to each right factor.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .coefficients import (CoeffElem, coeff_a, coeff_mul, coeff_one, coeff_pos,
                           coeff_u, coeff_zero)
from .degree import RODegree
from .errors import DegreeOverflowError, ParseError
from .gf2 import (binom_mod2, format_monomial, format_sum, homogeneous_degree,
                  parse_sum, xor_terms)

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
    return homogeneous_degree(map(mono_degree, e))


def check_dimension(e: EqElem, bound: int | None) -> EqElem:
    if bound is not None:
        for m in e:
            if mono_dimension(m) > bound:
                raise DegreeOverflowError(
                    f"monomial of dimension {mono_dimension(m)} beyond bound {bound}")
    return e


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
    """The exponents of m1 * m2 before rewriting; a repeated xi or tau
    index adds up, in either factor."""
    xi: dict[int, int] = {}
    for i, e in m1[2] + m2[2]:
        xi[i] = xi.get(i, 0) + e
    taus: dict[int, int] = {}
    for i in m1[3] + m2[3]:
        taus[i] = taus.get(i, 0) + 1
    return m1[0] + m2[0], m1[1] + m2[1], xi, taus


def mul_mono_ordered(m1: EqMono, m2: EqMono, rng) -> EqElem:
    """The product by direct rewriting, resolving tau collisions in an
    rng-chosen order.  It shares no code with mul_mono's table, so the
    confluence checks compare two independent implementations."""
    a, u, xi, taus = _raw_product(m1, m2)
    out: set = set()
    _resolve(a, u, xi, taus, out, rng, mono_degree(m1) + mono_degree(m2))
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
# A packed monomial has one field per xi index up to its largest, so
# packing, unpacking and the guard of the fields grow with the square of
# that index; at this limit a parse and a product take about a
# millisecond each.
_MAX_INDEX = 1023


def _check_index(name: str, i: int) -> None:
    """Raise DegreeOverflowError for the index i of tau_i, xi_i or z_i
    (name "tau", "xi" or "z") past what a packed monomial holds, before
    2^i is built anywhere."""
    if name == "tau":
        if i >= _TAU_BITS:
            raise DegreeOverflowError(f"tau_{i} beyond the {_TAU_BITS}-bit tau mask")
    elif i > _MAX_INDEX:
        raise DegreeOverflowError(
            f"{name}_{i} beyond index {_MAX_INDEX}, the largest xi index "
            "a packed monomial holds")


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
        _check_index("tau", i)
        p |= 1 << i
    fields = [(0, a_exp), (1, u_exp)]
    for i, e in xi:
        if i < 1:
            raise ValueError("xi needs index >= 1")
        _check_index("xi", i)
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
    unsorted tau, or a repeated or unsorted xi, is brought to normal form:
    the exponents of a repeated xi add, and the rest of it is multiplied
    by its tau factors one at a time."""
    out: set = set()
    for m in e:
        a_exp, u_exp, xi, tau = m
        shape = _pack_shape(xi, tau)
        if shape is None:
            xi_sum: dict[int, int] = {}
            for i, x in xi:
                xi_sum[i] = xi_sum.get(i, 0) + x
            packed = {_pack_mono((a_exp, u_exp, tuple(sorted(xi_sum.items())), ()))}
            for i in tau:
                packed = _mul_packed(packed, (_pack_mono(tau_mono(i)),))
        elif 0 <= a_exp < _EXP_LIMIT and 0 <= u_exp < _EXP_LIMIT:
            packed = (shape + (a_exp << _TAU_BITS) + (u_exp << _U_SHIFT),)
        else:
            packed = (_pack_mono(m),)  # raises for a or u
        for p in packed:
            _toggle(out, p)
    return out


@lru_cache(maxsize=256)
def _packed(e: EqElem) -> frozenset:
    """The packed form of the public element e, kept for its next use.
    Frozen, as every later call shares it: never hand it to _merge."""
    return frozenset(_pack(e))


def _pack_operand(e):
    """A caller's element packed: a frozenset through the memo _packed,
    any other iterable of monomials directly."""
    return _packed(e) if isinstance(e, frozenset) else _pack(e)


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


@lru_cache(maxsize=1 << 12)
def _unpack_mono(p: int) -> EqMono:
    return (p >> _TAU_BITS & _FIELD_MASK, p >> _U_SHIFT & _FIELD_MASK,
            _xi_tuple(p >> _XI_SHIFT), _tau_tuple(p & _TAU_MASK))


def _unpack(s) -> EqElem:
    return frozenset(map(_unpack_mono, s))


# The packed kernels toggle terms in place on an accumulator they share
# across loops, or hand on to _merge, so they do not build a frozenset per
# stream as gf2.xor_terms does.
def _toggle(acc: set, t) -> None:
    if t in acc:
        acc.remove(t)
    else:
        acc.add(t)


# tau_{m1} tau_{m2} for overlapping masks, keyed on m1 << _TAU_BITS | m2:
# packed terms, each a delta to add to the sum of the two factors with
# their tau bits cleared.
_TAU_DELTAS: dict[int, tuple] = {}


def _tau_deltas(m1: int, m2: int) -> tuple:
    """The _TAU_DELTAS entry for the overlapping masks m1 and m2.  For a
    single tau_i in m2 the collision is rewritten once,
    tau_S tau_i = a (tau_{S-i} tau_{i+1}) + a xi_{i+1} (tau_{S-i} tau_0)
                  + u xi_{i+1} tau_{S-i},
    so a, u and xi_{i+1} are constants added to the terms of the two
    inner products, which are entries for a smaller set; a larger m2
    multiplies tau_{m1} by its tau_i one at a time, lowest first.  The
    rewrite keeps degree: every term of a rewrite entry is checked, and
    one term of a product entry, whose terms come from checked entries."""
    key = m1 << _TAU_BITS | m2
    deltas = _TAU_DELTAS.get(key)
    if deltas is None:
        if m2 & (m2 - 1):
            terms = {m1}
            for i in _tau_tuple(m2):
                terms = _mul_packed(terms, (1 << i,))
            checked = islice(terms, 1)
        else:
            i = m2.bit_length() - 1
            _check_index("tau", i + 1)
            rest = m1 ^ m2
            a = 1 << _TAU_BITS
            xi_next = 1 << (_XI_SHIFT + i * _FIELD_BITS)
            terms = {(1 << _U_SHIFT) + xi_next + rest}
            for t in _mul_packed((rest,), (m2 << 1,)):
                _toggle(terms, a + t)
            for t in _mul_packed((rest,), (1,)):
                _toggle(terms, a + xi_next + t)
            checked = terms
        expected = mono_degree((0, 0, (), _tau_tuple(m1) + _tau_tuple(m2)))
        assert all(mono_degree(_unpack_mono(t)) == expected for t in checked)
        deltas = _TAU_DELTAS[key] = tuple(terms)
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
    """s^n, left to right: square the running power, and on each set bit
    of n below the top one multiply by s, so every product has s, the
    small element, as one factor."""
    if not n:
        return {0}
    result = set(s)
    for bit in bin(n)[3:]:
        result = _square_packed(result)
        if bit == "1":
            result = _mul_packed(result, s)
    return result


def elem_mul(e1: EqElem, e2: EqElem) -> EqElem:
    return _unpack(_mul_packed(_pack_operand(e1), _pack_operand(e2)))


@lru_cache(maxsize=None)
def mul_mono(m1: EqMono, m2: EqMono) -> EqElem:
    """Product of two monomials: the packed kernel, cached per pair."""
    return elem_mul((m1,), (m2,))


def elem_square(e: EqElem) -> EqElem:
    return _unpack(_square_packed(_pack_operand(e)))


def elem_pow(e: EqElem, n: int) -> EqElem:
    if n < 0:
        raise ValueError("negative exponent")
    return _unpack(_pow_packed(_pack_operand(e), n))


def normal_form(factors, rng=None) -> EqElem:
    """Product of a word of monomials/elements, fully tau-square-free.

    With an rng, collision resolution order and the fold order are
    randomized; the result must not depend on either.
    """
    if rng is None:
        acc = {0}
        for f in factors:
            acc = _mul_packed(acc, _pack((f,)) if isinstance(f, tuple)
                              else _pack_operand(f))
        return _unpack(acc)
    items = [frozenset({f}) if isinstance(f, tuple) else f for f in factors]
    rng.shuffle(items)
    result = ELEM_ONE
    for e in items:
        out: set = set()
        for m1 in result:
            for m2 in e:
                out ^= mul_mono_ordered(m1, m2, rng)
        result = frozenset(out)
    return result


# ---------------------------------------------------------------------------
# Hopf structure maps

AU_TAU0: EqElem = frozenset({(1, 0, (), (0,)), (0, 1, (), ())})  # a*tau_0 + u


@lru_cache(maxsize=None)
def _eta_r_u_power(n: int) -> tuple:
    """eta_R(u)^n = (a tau_0 + u)^n, packed: the square of the cached
    eta_R(u)^(n >> 1), times eta_R(u) when n is odd."""
    if not n:
        return (0,)
    power = _square_packed(_eta_r_u_power(n >> 1))
    return tuple(_mul_packed(power, _pack(AU_TAU0)) if n & 1 else power)


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
    return _unpack(_eta_packed(_pack_mono(coeff_mono(k, n))))


def counit(e: EqElem) -> CoeffElem:
    """The coefficient of the empty monomial: the pairing with 1."""
    return pair(ONE_MONO, e)


def pair(m: EqMono, e: EqElem) -> CoeffElem:
    """Left coefficient of the basis monomial m inside e."""
    if m[0] or m[1]:
        raise ValueError("pairing expects a coefficient-free basis monomial")
    out = coeff_zero()
    for a_exp, u_exp, xi, tau in e:
        if xi == m[2] and tau == m[3]:
            out = out + coeff_pos(a_exp, u_exp)
    return out


# Tensors.  At the public boundary a tensor is a frozenset of (left EqMono,
# right EqMono) pairs.  Inside the kernels it is grouped by right factor, a
# dict {packed right: set of packed lefts}, and a right factor carries no
# coefficient: every a^k u^n sits on the left.

EqTensor = frozenset


def _merge(acc: dict, r: int, lefts: set) -> None:
    """Add lefts (x) r to the grouped tensor acc; lefts must be a set no
    one else holds, because acc keeps it when r is new."""
    target = acc.get(r)
    if target is None:
        acc[r] = lefts
    else:
        target ^= lefts


def _shuttle(acc: dict, r: int, lefts: set) -> None:
    """Add lefts (x) r to the grouped tensor acc, the coefficient c of the
    packed right factor r moved to the left as eta_R(c).  When c is 1,
    acc may keep lefts itself, so no one else may hold it then."""
    c = r & _AU_MASK
    if c:
        _merge(acc, r - c, _mul_packed(lefts, _eta_packed(c)))
    else:
        _merge(acc, r, lefts)


def _tensor_mul_grouped(T1, T2) -> dict:
    """Product of two grouped tensors, each given as (right, lefts) pairs:
    one product of left sets per pair of right factors, and each
    coefficient c of a right product moves to the left as one product of
    the whole left set by eta_R(c)."""
    acc: dict = {}
    right = [(r2, r2 & _TAU_MASK, L2) for r2, L2 in T2]
    for r1, L1 in T1:
        m1 = r1 & _TAU_MASK
        for r2, m2, L2 in right:
            lefts = _mul_packed(L1, L2)
            if m1 & m2:
                base = r1 - m1 + r2 - m2
                # checked before a coefficient is read off a right product
                rights = _check_fields([base + d for d in _tau_deltas(m1, m2)])
            else:
                rights = (r1 + r2,)
            # every term of a tau collision carries a or u, so a right
            # product without a coefficient is the only one of its pair
            # and may keep lefts itself
            for r in rights:
                _shuttle(acc, r, lefts)
    return {r: lefts for r, lefts in _check_fields(acc).items() if lefts}


def _group(T) -> dict:
    """A public tensor, grouped by packed right factor, with each right
    coefficient moved to the left as eta_R of it."""
    acc: dict = {}
    for l, r in T:
        for rp in _pack((r,)):
            _shuttle(acc, rp, _pack((l,)))
    return acc


def _ungroup(T: dict) -> EqTensor:
    out = []
    for rp, lefts in T.items():
        r = _unpack_mono(rp)
        out += [(l, r) for l in map(_unpack_mono, lefts)]
    return frozenset(out)


def tensor_mul(T1: EqTensor, T2: EqTensor) -> EqTensor:
    return _ungroup(_tensor_mul_grouped(_group(T1).items(), _group(T2).items()))


@lru_cache(maxsize=None)
def _delta_power(f: int) -> tuple:
    """Delta of one packed generator power f, tau_i or xi_i^e, as
    (right, frozenset of lefts) pairs, from
    Delta(xi_i) = sum_j xi_{i-j}^{2^j} (x) xi_j and
    Delta(tau_i) = tau_i (x) 1 + sum_j xi_{i-j}^{2^j} (x) tau_j,
    with xi_0 = 1 and j = 0..i."""
    def xi(i: int, e: int) -> int:
        return _pack_mono((0, 0, ((i, e),) if i else (), ()))

    if f & _TAU_MASK:
        i = f.bit_length() - 1
        T = {1 << j: {xi(i - j, 1 << j)} for j in range(i + 1)}
        T[0] = {f}
    else:
        k = (f.bit_length() - 1 - _XI_SHIFT) // _FIELD_BITS
        e = f >> (_XI_SHIFT + k * _FIELD_BITS)
        base = {xi(j, 1): {xi(k + 1 - j, 1 << j)} for j in range(k + 2)}
        # the tensor product is commutative, so powers go by squaring
        T = {0: {0}}
        while e:
            if e & 1:
                T = _tensor_mul_grouped(T.items(), base.items())
            e >>= 1
            if e:
                base = _tensor_mul_grouped(base.items(), base.items())
    return tuple((r, frozenset(lefts)) for r, lefts in T.items())


def _coproduct_grouped(s) -> dict:
    """Delta of the packed element s by Horner's rule.  Each monomial is
    split at its last generator power f, its top tau or else its top xi
    field with the whole exponent, so s = s_0 + sum_f s_f f with s_0 the
    coefficient terms, and Delta(s) = s_0 (x) 1 + sum_f Delta(s_f) Delta(f)."""
    acc: dict = {}
    by_last: dict = {}
    for p in s:
        m = p & _TAU_MASK
        if m:
            f = 1 << (m.bit_length() - 1)
        elif p >> _XI_SHIFT:
            k = (p.bit_length() - 1 - _XI_SHIFT) // _FIELD_BITS
            shift = _XI_SHIFT + k * _FIELD_BITS
            f = p >> shift << shift
        else:
            _merge(acc, 0, {p})
            continue
        by_last.setdefault(f, []).append(p - f)
    for f, rest in by_last.items():
        T = _tensor_mul_grouped(_coproduct_grouped(rest).items(), _delta_power(f))
        for r, lefts in T.items():
            _merge(acc, r, lefts)
    return acc


def coproduct(e: EqElem, bound: int | None = None) -> EqTensor:
    """Coproduct with all coefficients shuttled to the left factor."""
    check_dimension(e, bound)
    return _ungroup(_coproduct_grouped(_pack_operand(e)))


def tensor_counit_left(T: EqTensor) -> EqElem:
    """(counit tensor id) collapsed back to the algebra."""
    return xor_terms((l[0] + r[0], l[1] + r[1], r[2], r[3])
                     for l, r in T if not l[2] and not l[3])


def tensor_counit_right(T: EqTensor) -> EqElem:
    return xor_terms(l for l, r in T if r == ONE_MONO)


def _by_right(T) -> dict:
    """Tensor terms grouped by right factor: {right: [lefts]}."""
    groups: dict = {}
    for l, r in T:
        groups.setdefault(r, []).append(l)
    return groups


def coproduct_left(T: EqTensor) -> frozenset:
    """Apply the coproduct to left factors, giving triples."""
    out = []
    for r, ls in _by_right(T).items():
        for mp, lefts in _coproduct_grouped(_pack(ls)).items():
            m = _unpack_mono(mp)
            out += [(l, m, r) for l in map(_unpack_mono, lefts)]
    return frozenset(out)


def coproduct_right(T: EqTensor) -> frozenset:
    """Apply the coproduct to right factors; middle coefficients shuttle
    across the first tensor sign to the far left."""
    acc: set = set()
    for r, ls in _by_right(T).items():
        scaled = {0: _pack(ls)}  # c -> the left factors times eta_R(c)
        for m2, mids in _coproduct_grouped(_pack((r,))).items():
            for m1 in mids:
                c = m1 & _AU_MASK
                lefts = scaled.get(c)
                if lefts is None:
                    lefts = scaled[c] = _mul_packed(scaled[0], _eta_packed(c))
                for lm in lefts:
                    _toggle(acc, (lm, m1 - c, m2))
    return frozenset(tuple(map(_unpack_mono, t)) for t in acc)


# ---------------------------------------------------------------------------
# The comparison map psi from the classical dual on Milnor generators


def psi_zeta(n: int) -> EqElem:
    """psi on the n-th Milnor generator, psi({n: 1})."""
    return psi({n: 1})


@lru_cache(maxsize=None)
def _psi_power_packed(n: int, e: int) -> frozenset:
    """psi(z_n)^e, packed; e >= 1.  For e = 1,

    psi(z_n) = a^{2^n - 1} xi_n
             + sum_{i=1}^{n} a^{2^n - 2^i} eta_R(u)^{2^{i-1} - 1}
               xi_{n-i}^{2^i} tau_{i-1};
    every term has dimension 2^n - 1.

    psi(z_n)^e has the term a^{e(2^n - 1)} xi_n^e with coefficient 1, so
    it raises for the a field, before anything is multiplied, once
    e(2^n - 1) reaches _EXP_LIMIT.  Proof: the ideal I = (u, tau_j for
    all j, xi_j for j != n) holds both sides of every tau relation, so
    the quotient map to F[a, xi_n] is a ring map that keeps each basis
    monomial a^k xi_n^j and sends every other one to 0.  It sends
    eta_R(u) = a tau_0 + u and every term of psi(z_n) but the first to
    0, so psi(z_n)^e goes to (a^{2^n - 1} xi_n)^e.
    """
    if e * ((1 << n) - 1) >= _EXP_LIMIT:
        raise _beyond(0)
    if e > 1:
        return frozenset(_pow_packed(_psi_power_packed(n, 1), e))
    if n == 0:
        return frozenset({0})
    acc = {_pack_mono((((1 << n) - 1), 0, ((n, 1),), ()))}
    for i in range(1, n + 1):
        xi_part = () if n == i else ((n - i, 1 << i),)
        factor = _pack_mono(((1 << n) - (1 << i), 0, xi_part, (i - 1,)))
        acc ^= _mul_packed((factor,), _eta_r_u_power((1 << (i - 1)) - 1))
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
    for n in exps:
        _check_index("z", n)
    dim = sum(e * ((1 << n) - 1) for n, e in exps.items())
    if bound is not None and dim > bound:
        raise DegreeOverflowError(
            f"psi of dimension {dim} beyond bound {bound}")
    return _psi_value(tuple(sorted((n, e) for n, e in exps.items() if e)))


@lru_cache(maxsize=1 << 12)
def _psi_value(z: tuple) -> EqElem:
    """psi on the Milnor monomial given as sorted (index, exponent) pairs
    with nonzero exponents."""
    result = None
    for n, e in z:
        power = _psi_power_packed(n, e)
        result = power if result is None else _mul_packed(result, power)
    return ELEM_ONE if result is None else _unpack(result)


def p_sequence(n: int) -> tuple[EqElem, EqElem]:
    """(P_n, Q_n): P_0 = 1, P_1 = a xi_1, P_{n+2} = a xi_1 P_{n+1}
    + u xi_1 P_n; Q_0 = 0, Q_{n+1} = P_n.  P_n is homogeneous of
    dimension n.

    No tau enters, so P_n is a polynomial in a, u and xi_1.  The
    coefficient c(n, k) of a^{n-2k} u^k xi_1^{n-k} obeys c(n+2, k) =
    c(n+1, k) + c(n, k-1) with c(0, 0) = c(1, 0) = 1, which is Pascal's
    rule for C(n-k, k): P_n is the sum of those terms with C(n-k, k) odd.
    Setting u = 0 sends P_n to (a xi_1)^n, so P_n holds a^n xi_1^n, and
    it raises for the a field, before any term is built, once n reaches
    _EXP_LIMIT."""
    if n < 0:
        raise ValueError("negative index")
    if n >= _EXP_LIMIT:
        raise _beyond(0)

    def p(m: int) -> EqElem:  # P_m, and 0 for m = -1
        return frozenset((m - 2 * k, k, ((1, m - k),) if m > k else (), ())
                         for k in range(m // 2 + 1) if binom_mod2(m - k, k))

    return p(n), p(n - 1)


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


@lru_cache(maxsize=None)
def act_on_coefficient(kind: str, l: int, k: int) -> CoeffElem:
    """Value of (xi_1^l)^dual ("xi") or (xi_1^l tau_0)^dual ("xitau") on
    u^k.  A dual operation acts on coefficients through the right unit, so
    this is the pairing of xi_1^l or xi_1^l tau_0 with
    eta_R(u^k) = eta_R(u)^k; act_via_cartan is the independent route, the
    Cartan recursion from the values on u."""
    if kind not in ("xi", "xitau"):
        raise ValueError(f"unknown operation kind {kind!r}")
    if l < 0 or k < 0:
        raise ValueError("negative index")
    mono = (0, 0, ((1, l),) if l else (), (0,) if kind == "xitau" else ())
    return pair(mono, eta_r(0, k))


def mod_u(c: CoeffElem) -> CoeffElem:
    """Reduce modulo the ideal (u)."""
    return CoeffElem(frozenset(m for m in c.pos if m[1] == 0), c.neg)


def act_mod_u_closed_form(kind: str, l: int, k: int) -> CoeffElem:
    """(xi_1^l)^dual (u^k) = 0 mod u for l >= 1; the tau variant is
    a^{2k-1} exactly when l = k - 1 and 0 otherwise."""
    if kind == "xi":
        return coeff_one() if l == 0 and k == 0 else coeff_zero()
    if l == k - 1:
        return coeff_a(2 * k - 1)
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
        return coeff_u(1) if l == 0 else coeff_zero()
    return coeff_a(1) if l == 0 else coeff_zero()


@lru_cache(maxsize=None)
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


# ---------------------------------------------------------------------------
# Formatting and parsing


def mono_sort_key(m: EqMono):
    return (m[1], m[2], m[3], m[0])


def format_mono(m: EqMono) -> str:
    a_exp, u_exp, xi, tau = m
    factors = [("a", a_exp), ("u", u_exp)]
    factors += [(f"t{i}", 1) for i in tau]
    factors += [(f"x{i}", e) for i, e in xi]
    return format_monomial(factors)


def format_element(e: EqElem) -> str:
    return format_sum(format_mono(m) for m in sorted(e, key=mono_sort_key))


def format_tensor(T: EqTensor) -> str:
    pairs = sorted(T, key=lambda t: (mono_sort_key(t[0]), mono_sort_key(t[1])))
    return format_sum(f"{format_mono(l)} (x) {format_mono(r)}" for l, r in pairs)


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
        _check_index({"x": "xi", "t": "tau", "z": "z"}[kind], idx)
        if kind == "x":
            if idx < 1:
                raise ParseError("xi index must be >= 1", text, at)
            return 2 * ((1 << idx) - 1), lambda e: (
                ELEM_ONE if e == 0 else frozenset({xi_mono(idx, e)}))
        if kind == "t":
            return (2 << idx) - 1, lambda e: elem_pow(frozenset({tau_mono(idx)}), e)
        return (1 << idx) - 1, lambda e: psi({idx: e})

    # A term's dimension is the sum of its factors' dimensions, so a term
    # beyond the bound is refused before anything is multiplied out.  Every
    # factor is packed, so an exponent its packed field cannot hold raises
    # however the term is spelled.
    acc: set = set()
    for term in parse_sum(text, atom):
        dim = sum(d * e for (d, _), e in term)
        if bound is not None and dim > bound:
            raise DegreeOverflowError(
                f"term of dimension {dim} beyond bound {bound}")
        (_, power), e = term[0]
        value = _pack(power(e))
        for (_, power), e in term[1:]:
            value = _mul_packed(value, _pack(power(e)))
        acc ^= value
    return _unpack(acc)
