"""Classical mod-2 machinery: unstable algebras, squares, Steinberg span.

Oracles are declared before the engine results they pin: hand-counted
dimensions for small presented algebras and the frozen span series of the
height-one truncation.  The binomial rule for the squares of a power of a
degree-one class is the selftest check `sq-binomial`, and the series

    dim R_d = #{k : 0 <= k <= n, 2k <= d} = min(d // 2, n) + 1

of the height-n truncation is acceptance criterion 10.
"""

import itertools
import random
import weakref

import pytest

from conjspaces.errors import DegreeOverflowError
from conjspaces.gf2 import (MONO_ONE, GF2Echelon, Poly, mono_mul, parse_poly,
                            poly_from_monomials, poly_gen, poly_one,
                            poly_zero, rank_bits)
from conjspaces import frames as fr
from conjspaces import steenrod as st
from grassmannian import grassmannian_algebra, grassmannian_model
from steinberg_span import st_generators_at


# frozen: the image series of the height-1 truncation equals the
# doubled one-class algebra padded by b, degreewise
R_SERIES_HEIGHT1 = (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)


def mono(*pairs):
    return Poly(frozenset({tuple(pairs)}))


def test_cartan_identity():
    alg = st.polynomial_algebra((("s", 1), ("t", 2)), 30)
    rng = random.Random(3)
    classes = [m for d in range(1, 6) for m in alg.basis(d)]
    for _ in range(40):
        x = Poly(frozenset({rng.choice(classes)}))
        y = Poly(frozenset({rng.choice(classes)}))
        total = alg.poly_degree(x) + alg.poly_degree(y)
        for i in range(total + 1):
            rhs = poly_zero()
            for j in range(i + 1):
                rhs = rhs + alg.sq(j, x) * alg.sq(i - j, y)
            assert alg.sq(i, x * y) == alg.reduce(rhs)


def test_instability_defaults():
    alg = st.truncated_algebra((("t", 1),), {"t": 6}, 20)
    for k in range(1, 6):
        x = mono(("t", k))
        assert alg.sq(0, x) == x
        assert alg.sq(k, x) == alg.reduce(x * x)
        assert alg.sq(k + 1, x) == poly_zero()
        assert alg.sq(k + 4, x) == poly_zero()


def test_explicit_square_table():
    # one relation-free model with a prescribed odd square
    w1w2 = mono(("w1", 1), ("w2", 1))
    alg = st.UnstableAlgebra(
        (("w1", 1), ("w2", 2)), (),
        {"w2": {1: w1w2}}, 24)
    assert alg.sq(1, mono(("w2", 1))) == w1w2
    # Cartan still holds with the custom rule in play
    x = mono(("w2", 2))
    assert alg.sq(1, x) == poly_zero()  # 2 * w1 w2^2 over GF(2)
    # Sq^2(w1 w2) = w1 Sq^2 w2 + Sq^1 w1 Sq^1 w2 = w1 w2^2 + w1^3 w2
    assert alg.sq(2, mono(("w1", 1), ("w2", 1))) == (
        mono(("w1", 1), ("w2", 2)) + mono(("w1", 3), ("w2", 1)))


def test_square_table_validation():
    bad_degree = mono(("w1", 5))
    with pytest.raises(ValueError,
                       match=r"^Sq\^1\(w2\) must be homogeneous of degree 3$"):
        st.UnstableAlgebra((("w1", 1), ("w2", 2)), (),
                           {"w2": {1: bad_degree}}, 20)
    with pytest.raises(ValueError,
                       match=r"^Sq\^2 on 'w1' of degree 1 must vanish$"):
        # nonzero square above the generator degree
        st.UnstableAlgebra((("w1", 1),), (), {"w1": {2: mono(("w1", 3))}}, 20)
    with pytest.raises(ValueError,
                       match=r"^the top square of 'w1' must equal its square$"):
        # top square must agree with the literal square
        st.UnstableAlgebra((("w1", 1),), (), {"w1": {1: poly_zero()}}, 20)
    # declaring the honest top square is fine
    st.UnstableAlgebra((("w1", 1),), (), {"w1": {1: mono(("w1", 2))}}, 20)


@pytest.mark.parametrize("args, message", [
    (((("x", 2),), (), None, -1), "bound must be non-negative"),
    (((("x", 0),), (), None, 10), "generator 'x' must have positive degree"),
    (((("x", 2), ("x", 4)), (), None, 10), "duplicate generator 'x'"),
    (((("x", 2),), (), {"y": {1: poly_zero()}}, 10),
     "square table names unknown generator 'y'"),
    (((("x", 2),), (), {"x": {0: poly_zero()}}, 10),
     "square indices must be positive"),
], ids=["negative-bound", "degree-0", "repeated", "unknown-sq", "sq-index-0"])
def test_constructor_rejects(args, message):
    with pytest.raises(ValueError) as exc:
        st.UnstableAlgebra(*args)
    assert str(exc.value) == message


def test_negative_degree_leaves_the_tables_alone():
    # a table of degree -1 would read as an empty degree below degree 0
    # and mark the whole algebra as vanishing
    alg = st.truncated_algebra((("t", 1),), {"t": 4}, 12)
    assert alg.basis(-1) == () and alg.dim(-3) == 0
    assert tuple(alg.dim(d) for d in range(13)) == (1, 1, 1, 1) + (0,) * 9


def test_relations():
    with pytest.raises(ValueError):
        st.UnstableAlgebra((("x", 2),), (mono(("x", 1)) + poly_one(),), None, 10)
    alg = st.UnstableAlgebra(
        (("x", 1), ("y", 1)), (mono(("x", 2)) + mono(("y", 2)),), None, 12)
    # hand count: 1, 2, then x^2 = y^2 collapses one class per degree
    assert tuple(alg.dim(d) for d in range(5)) == (1, 2, 2, 2, 2)
    assert alg.reduce(mono(("x", 2))) == alg.reduce(mono(("y", 2)))
    sq = alg.sq(1, mono(("x", 1), ("y", 1)))
    assert sq == alg.reduce(mono(("x", 2), ("y", 1)) + mono(("x", 1), ("y", 2)))


def test_truncated_dims():
    rp3 = st.truncated_algebra((("t", 1),), {"t": 4}, 20)
    assert tuple(rp3.dim(d) for d in range(7)) == (1, 1, 1, 1, 0, 0, 0)
    prod = st.truncated_algebra((("s", 1), ("t", 1)), {"s": 2, "t": 3}, 20)
    assert tuple(prod.dim(d) for d in range(5)) == (1, 2, 2, 1, 0)
    point = st.UnstableAlgebra((), (), None, 5)
    assert tuple(point.dim(d) for d in range(4)) == (1, 0, 0, 0)


def test_degree_overflow():
    alg = st.polynomial_algebra((("t", 1),), 8)
    with pytest.raises(DegreeOverflowError):
        alg.monomials(9)
    with pytest.raises(DegreeOverflowError):
        alg.sq(6, mono(("t", 4)))


def test_bpoly_format():
    x = st.bpoly_from([(1, (("t", 1),)), (0, (("t", 2),))])
    assert st.format_bpoly(x) == "b*t + t^2"
    assert st.format_bpoly(st.bpoly_from([(2, MONO_ONE)])) == "b^2"
    assert st.format_bpoly(st.bpoly_from([(0, MONO_ONE)])) == "1"
    assert st.format_bpoly(st.bpoly_zero()) == "0"


def test_bpoly_format_reads_back_with_b_as_a_generator():
    rng = random.Random(11)
    names = ("t1", "t2")
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(0, 5)):
            m = tuple((g, rng.randint(1, 3)) for g in names if rng.random() < 0.6)
            terms.append((rng.randint(0, 4), m))
        x = st.bpoly_from(terms)
        want = poly_from_monomials(
            mono_mul(((("b", e),) if e else MONO_ONE), m) for e, m in x.terms)
        assert parse_poly(st.format_bpoly(x), ("b",) + names) == want


def test_steinberg_basics():
    alg = st.truncated_algebra((("t", 1),), {"t": 3}, 20)
    v = st.steinberg(alg, poly_gen("t"))
    assert st.format_bpoly(v) == "b*t + t^2"
    assert st.bpoly_degree(alg, v) == 2
    assert st.bpoly_coefficient(v, 1) == poly_gen("t")
    assert max(e for e, _ in v.terms) == 1
    v2 = st.steinberg(alg, mono(("t", 2)))
    assert st.format_bpoly(v2) == "b^2*t^2"  # odd square vanishes, t^4 = 0
    assert st.steinberg(alg, poly_zero()) == st.bpoly_zero()


def test_steinberg_is_sum_of_squares():
    algebras = (
        st.truncated_algebra((("t", 1),), {"t": 7}, 14),              # RP^6
        st.truncated_algebra((("s", 1), ("t", 1)), {"s": 4, "t": 4}, 12),
        grassmannian_algebra(6, "w1", "w2", 1, 16),                   # Gr_2(R^6)
    )
    for alg in algebras:
        top = alg.bound // 2
        classes = [(n, m) for n in range(top + 1) for m in alg.basis(n)]
        for n, m in classes:
            x = Poly(frozenset({m}))
            expected = st.bpoly_from((n - j, z) for j in range(n + 1)
                                     for z in alg.sq(j, x).terms)
            assert st.steinberg(alg, x) == expected, m
        assert len(classes) == sum(alg.dim(n) for n in range(top + 1))


def test_steinberg_overflow_names_first_square_past_bound():
    alg = st.polynomial_algebra((("t", 1),), 8)
    assert st.steinberg(alg, poly_gen("t", 4))
    for k, message in ((5, "Sq^4 output degree 9 beyond bound 8"),
                       (8, "Sq^1 output degree 9 beyond bound 8")):
        with pytest.raises(DegreeOverflowError) as exc:
            st.steinberg(alg, poly_gen("t", k))
        assert str(exc.value) == message


def test_steinberg_injective():
    alg = st.truncated_algebra((("s", 1), ("t", 1)), {"s": 4, "t": 4}, 24)
    for d in range(7):
        basis = alg.basis(d)
        index = {bm: i for i, bm in enumerate(st.pb_basis_at(alg, 2 * d))}
        rows = []
        for m in basis:
            v = st.steinberg(alg, Poly(frozenset({m})))
            row = 0
            for t in v.terms:
                row ^= 1 << index[t]
            rows.append(row)
        assert rank_bits(rows) == len(basis)


def test_r_series_against_oracle():
    alg1 = st.truncated_algebra((("t", 1),), {"t": 2}, 30)
    assert st.compute_R(alg1, 12).dims == R_SERIES_HEIGHT1


def test_express_in_steinberg():
    alg = st.truncated_algebra((("t", 1),), {"t": 4}, 30)
    rng = random.Random(9)
    for d in range(0, 9):
        gens = st_generators_at(alg, d)
        for _ in range(20):
            chosen = {m: k for m, k, _ in gens if rng.random() < 0.5}
            acc = set()
            for m, k, vec in gens:
                if m in chosen:
                    acc ^= vec.terms
            x = st.BPoly(frozenset(acc))
            got = st.express_in_steinberg(alg, x)
            assert got == ({} if not x else chosen)
    # t alone sits in b-degree 0 with no Steinberg source
    assert st.express_in_steinberg(alg, st.bpoly_from([(0, (("t", 1),))])) is None
    assert st.express_in_steinberg(alg, st.bpoly_from([(2, (("t", 1),))])) is None


T3, T5 = (("t", 3),), (("t", 5),)


def unreduced_cases():
    """Over F[t]/(t^5), where b t^5 and b^5 t^5 are 0: (algebra, element,
    its expression, its residue)."""
    alg = st.truncated_algebra((("t", 1),), {"t": 5}, 30)
    st_t3 = st.steinberg(alg, Poly(frozenset({T3})))
    return alg, [(st.bpoly_from([(5, T5)]), {}, poly_zero()),
                 (st_t3 + st.bpoly_from([(1, T5)]), {T3: 0},
                  Poly(frozenset({T3})))]


def test_express_in_steinberg_reduces_before_it_peels():
    alg, cases = unreduced_cases()
    for x, expected, _ in cases:
        assert st.express_in_steinberg(alg, x) == expected, st.format_bpoly(x)


def test_steinberg_residue():
    alg = st.truncated_algebra((("t", 1),), {"t": 4}, 30)
    v = st.steinberg(alg, poly_gen("t"))
    assert st.steinberg_residue(alg, v) == poly_gen("t")
    assert st.steinberg_residue(alg, st.bpoly_shift(v, 1)) == poly_zero()
    assert st.steinberg_residue(alg, st.bpoly_from([(0, (("t", 1),))])) is None
    alg5, cases = unreduced_cases()
    for x, _, residue in cases:
        assert st.steinberg_residue(alg5, x) == residue, st.format_bpoly(x)


def test_negative_square_raises():
    alg = st.polynomial_algebra((("t", 1),), 10)
    with pytest.raises(ValueError, match="negative square index"):
        alg.sq(-1, mono(("t", 1)))


def test_doubling():
    # F[x]/(x^5) with |x| = 2 is F[t]/(t^5) with |t| = 1 in doubled degrees
    doubled = st.truncated_algebra((("x", 2),), {"x": 5}, 24)
    base = st.truncated_algebra((("t", 1),), {"t": 5}, 24)
    assert [doubled.dim(d) for d in range(12)] == \
        [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0]
    assert [base.dim(d) for d in range(6)] == [1, 1, 1, 1, 1, 0]
    # Sq^{2i} x^k = C(k, i) x^{k+i} and Sq^i t^k = C(k, i) t^{k+i}
    x2, x3 = mono(("x", 2)), mono(("x", 3))
    assert doubled.sq(1, x3) == doubled.sq(3, x3) == poly_zero()
    assert doubled.sq(2, x3) == mono(("x", 4))
    assert base.sq(1, mono(("t", 3))) == mono(("t", 4))
    assert doubled.sq(2, x2) == base.sq(1, mono(("t", 2))) == poly_zero()
    assert doubled.sq(4, x2) == mono(("x", 4))
    assert base.sq(2, mono(("t", 2))) == mono(("t", 4))


# ---------------------------------------------------------------------------
# The cached reduction kernel against the direct computation it replaced


def oracle_monomials(alg, d):
    """Every monomial of degree d, by recursion over the generators."""
    gens = [g for g, _ in alg.generators]
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        if idx >= len(gens):
            return
        g = gens[idx]
        dg = alg.degree_of[g]
        rec(idx + 1, remaining, acc)
        e = 1
        while e * dg <= remaining:
            rec(idx + 1, remaining - e * dg, acc + [(g, e)])
            e += 1

    rec(0, d, [])
    return tuple(sorted(out))


# algebra -> {degree: (monomials, index map, echelon)}, kept per algebra
# so that each sweep builds a degree's relation rows once
_ORACLE_TABLES = weakref.WeakKeyDictionary()


def oracle_table(alg, d):
    """The monomials of degree d, their index map and the echelon of every
    relation multiple of degree d, row-reduced to full rank in every
    degree: the kernel's own tables are not read, and no degree is known
    to vanish.  alg.monomials raises past the bound."""
    tables = _ORACLE_TABLES.setdefault(alg, {})
    if d not in tables:
        order = alg.monomials(d)
        index = {m: i for i, m in enumerate(order)}
        ech = GF2Echelon()
        for r in alg.relations:
            if not r:
                continue
            dr = sum(alg.degree_of[g] * e for g, e in next(iter(r.terms)))
            for m in alg.monomials(d - dr):
                row = 0
                for t in r.terms:
                    row ^= 1 << index[mono_mul(m, t)]
                ech.insert(row)
        tables[d] = (order, index, ech)
    return tables[d]


def oracle_basis(alg, d):
    """The monomials of degree d that no relation row has as its pivot."""
    order, _, ech = oracle_table(alg, d)
    return tuple(m for i, m in enumerate(order) if i not in ech.pivots)


def oracle_reduce(alg, p):
    """Reduce each degree's terms as one row against the relation echelon
    and read the result off every monomial of the degree."""
    by_deg = {}
    for m in p.terms:
        d = sum(alg.degree_of[g] * e for g, e in m)
        by_deg.setdefault(d, set()).add(m)
    acc = set()
    for d, monos in by_deg.items():
        order, index, ech = oracle_table(alg, d)
        row = 0
        for m in monos:
            row ^= 1 << index[m]
        row = ech.reduce(row)
        for i, m in enumerate(order):
            if row >> i & 1:
                acc ^= {m}
    return Poly(frozenset(acc))


def oracle_graded_mul(alg, A, B):
    """Product of graded tables through the unreduced Poly product."""
    out = {}
    for d1, p1 in A.items():
        for d2, p2 in B.items():
            d = d1 + d2
            if d > alg.bound:
                continue
            out[d] = out.get(d, poly_zero()) + oracle_reduce(alg, p1 * p2)
    return {d: p for d, p in out.items() if p}


def oracle_total_sq(alg, m):
    """Cartan formula: the product of the generators' total squares, one
    factor per unit of exponent."""
    out = {0: poly_one()}
    for g, e in m:
        dg = alg.degree_of[g]
        sq_g = {dg: poly_gen(g)}
        for i in range(1, dg):
            sq_g[dg + i] = alg.sq_rules.get((g, i), poly_zero())
        sq_g[2 * dg] = alg.sq_rules.get((g, dg), poly_gen(g, 2))
        sq_g = {d: oracle_reduce(alg, p) for d, p in sq_g.items()
                if d <= alg.bound}
        for _ in range(e):
            out = oracle_graded_mul(alg, out, sq_g)
    return out


def oracle_sq(alg, totals, i, m):
    """Sq^i of the normal form of m, summed from the Cartan products in
    totals of its terms; Sq^i of a nonzero class past the bound raises."""
    out = poly_zero()
    for t in oracle_reduce(alg, Poly(frozenset({m}))).terms:
        d = alg.mono_degree(t) + i
        if d > alg.bound:
            raise DegreeOverflowError(
                f"Sq^{i} output degree {d} beyond bound {alg.bound}")
        out = out + totals[t].get(d, poly_zero())
    return out


def oracle_squares(alg, totals, m):
    """Every nonzero Sq^i of the normal form of m, as i -> Sq^i, summed
    from the Cartan products in totals of its terms."""
    out = {}
    for t in oracle_reduce(alg, Poly(frozenset({m}))).terms:
        n = alg.mono_degree(t)
        for d, p in totals[t].items():
            out[d - n] = out.get(d - n, poly_zero()) + p
    return {i: p for i, p in out.items() if p}


def oracle_bpoly_mul(alg, x, y):
    acc = set()
    try:
        for e1, m1 in x.terms:
            for e2, m2 in y.terms:
                prod = oracle_reduce(alg, Poly(frozenset({mono_mul(m1, m2)})))
                for m in prod.terms:
                    acc ^= {(e1 + e2, m)}
    except DegreeOverflowError:
        for _, m1 in sorted(x.terms):
            alg.check_degrees(alg.mono_degree(m1) + alg.mono_degree(m2)
                              for _, m2 in y.terms)
        raise
    return st.BPoly(frozenset(acc))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegreeOverflowError as exc:
        return str(exc)


def kernel_algebras():
    """Both algebras of every built-in model and of Gr_2(C^4..9), one
    algebra whose generators are not declared in name order, one whose
    empty degrees never run g = 3 long, and one that vanishes from
    degree 6."""
    out = []
    for model in fr.builtin_models():
        out += [(f"{model.name} even", lambda m=model: m.even),
                (f"{model.name} fixed", lambda m=model: m.fixed)]
    for n in range(4, 10):
        out += [(f"Gr_2(C^{n}) even",
                 lambda n=n: grassmannian_algebra(n, "c1", "c2", 2, 8 * (n - 2))),
                (f"Gr_2(R^{n}) fixed",
                 lambda n=n: grassmannian_algebra(n, "w1", "w2", 1, 8 * (n - 2)))]
    out.append(("unsorted names", lambda: st.UnstableAlgebra(
        (("z", 1), ("b", 2), ("m", 3)),
        (mono(("z", 3)) + mono(("b", 1), ("z", 1)), mono(("m", 2))),
        {"b": {1: mono(("b", 1), ("z", 1))}}, 14)))
    out += [("x in degree 3", lambda: st.polynomial_algebra((("x", 3),), 30)),
            ("x^2 = y^2 = 0 in degrees 2, 3", lambda: st.truncated_algebra(
                (("x", 2), ("y", 3)), {"x": 2, "y": 2}, 30))]
    return out


KERNEL_ALGEBRAS = kernel_algebras()


@pytest.mark.parametrize("make", [f for _, f in KERNEL_ALGEBRAS],
                         ids=[name for name, _ in KERNEL_ALGEBRAS])
def test_kernel_matches_oracle(make):
    alg = make()
    rng = random.Random(alg.bound)
    monos = []
    for d in range(alg.bound + 1):
        assert alg.monomials(d) == oracle_monomials(alg, d), d
        monos += alg.monomials(d)
    # bases in degree order: the tables stop after the first g empty
    # degrees in a row, g the largest generator degree, and not before
    reach = max((dg for _, dg in alg.generators), default=1)
    empty = []
    for d in range(alg.bound + 1):
        assert alg.basis(d) == oracle_basis(alg, d), d
        empty.append(not alg.basis(d))
    vanish = next((k for k in range(alg.bound + 1) if all(empty[k:k + reach])),
                  alg.bound + 1)
    assert sorted(alg._tables) == list(range(min(vanish + reach,
                                                 alg.bound + 1)))
    past = f"beyond bound {alg.bound} of {alg.name or 'algebra'}"
    assert outcome(alg.monomials, alg.bound + 1) == (
        f"degree {alg.bound + 1} {past}")
    for g, dg in alg.generators[:1]:
        x = mono((g, alg.bound // dg + 1)) + Poly(frozenset({monos[-1]}))
        assert (outcome(alg.reduce, x) == outcome(oracle_reduce, alg, x)
                == f"degree {dg * (alg.bound // dg + 1)} {past}")
    for m in monos:
        x = Poly(frozenset({m}))
        assert alg.reduce(x) == oracle_reduce(alg, x), m
    for _ in range(40):
        x = Poly(frozenset(rng.sample(monos, min(len(monos),
                                                  rng.randrange(1, 9)))))
        assert alg.reduce(x) == oracle_reduce(alg, x), x
    # every monomial, reducible ones too, so that squares meets each
    # normal form and the Cartan steps the reducible quotients m/g
    totals = {m: oracle_total_sq(alg, m) for m in monos}
    for m in monos:
        x = Poly(frozenset({m}))
        assert alg.squares(x) == oracle_squares(alg, totals, m), m
        for i in range(alg.mono_degree(m) + 2):
            assert (outcome(alg.sq, i, x)
                    == outcome(oracle_sq, alg, totals, i, m)), (m, i)
    classes = [m for d in range(alg.bound + 1) for m in alg.basis(d)]
    for i, m1 in enumerate(classes):
        x = st.bpoly_from([(i % 3, m1)])
        for m2 in classes:
            y = st.bpoly_from([(1, m2)])
            assert (outcome(st.bpoly_mul, alg, x, y)
                    == outcome(oracle_bpoly_mul, alg, x, y)), (m1, m2)
    for _ in range(10):
        x = st.bpoly_from((rng.randrange(4), m)
                          for m in rng.sample(classes, min(len(classes), 4)))
        y = st.bpoly_from((rng.randrange(4), m)
                          for m in rng.sample(classes, min(len(classes), 4)))
        assert (outcome(st.bpoly_mul, alg, x, y)
                == outcome(oracle_bpoly_mul, alg, x, y)), (x, y)


def test_tables_stop_where_the_algebra_vanishes():
    # bases in degrees 0, 2, 3 and 5 only, so 6, 7, 8 are g = 3 empty
    # degrees in a row and no table past them is built
    alg = st.truncated_algebra((("x", 2), ("y", 3)), {"x": 2, "y": 2}, 30)
    assert [alg.dim(d) for d in range(31)] == [1, 0, 1, 1, 0, 1] + [0] * 25
    assert max(alg._tables) == 8
    assert alg.reduce(mono(("x", 1), ("y", 1))) == mono(("x", 1), ("y", 1))
    assert alg.reduce(mono(("x", 3), ("y", 5))) == poly_zero()
    assert alg.squares(mono(("x", 1), ("y", 1))) == {0: mono(("x", 1), ("y", 1))}
    # empty degrees 1, 2, 4, 5, ... never three in a row: every table built
    alg = st.polynomial_algebra((("x", 3),), 30)
    assert [alg.dim(d) for d in range(31)] == [int(d % 3 == 0)
                                               for d in range(31)]
    assert sorted(alg._tables) == list(range(31))

    # asked in even degrees only, F[x]/(x^3), |x| = 2, finds its odd
    # degrees empty without a table: degree 6 and the monomial-free
    # degree 5 are g = 2 empty degrees, so no table follows degree 6
    alg = st.truncated_algebra((("x", 2),), {"x": 3}, 40000)
    assert [alg.dim(d) for d in range(0, 40001, 2)] == [1, 1, 1] + [0] * 19998
    assert max(alg._tables) == 6


def random_algebra(rng):
    """1 to 4 generators of degrees 1 to 3 and 1 to 3 homogeneous
    relations, each a random sum of monomials of one degree."""
    gens = [(g, rng.randrange(1, 4)) for g in "abcd"[:rng.randrange(1, 5)]]
    free = st.polynomial_algebra(gens, 6)
    relations = []
    for _ in range(rng.randrange(1, 4)):
        monos = free.monomials(rng.randrange(1, 7))
        if monos:
            relations.append(Poly(frozenset(
                rng.sample(monos, rng.randrange(1, len(monos) + 1)))))
    return st.UnstableAlgebra(gens, relations, None, rng.randrange(6, 11))


def row_api_algebras():
    rng = random.Random(31)
    return ([random_algebra(rng) for _ in range(12)]
            + [grassmannian_algebra(5, "c1", "c2", 2, 14),
               grassmannian_algebra(5, "w1", "w2", 1, 10)])


@pytest.mark.parametrize("alg", row_api_algebras(),
                         ids=lambda alg: ",".join(f"{g}{d}" for g, d in
                                                  alg.generators)
                         + f"/{len(alg.relations)}r/{alg.bound}")
def test_row_api_matches_oracle(alg):
    rng = random.Random(alg.bound)
    monos = [m for d in range(alg.bound + 1) for m in alg.monomials(d)]
    for d in range(alg.bound + 1):
        basis = set(alg.basis(d))
        for m in alg.monomials(d):
            rows = alg.rows((m,))
            # rows set bits on basis classes only
            assert rows.keys() <= {d} and set(alg.decode(rows)) <= basis
    for _ in range(40):
        p = Poly(frozenset(rng.sample(monos, min(len(monos), rng.randrange(1, 7)))))
        rows = alg.rows(p.terms)
        assert all(rows.values())
        assert (Poly(frozenset(alg.decode(rows))) == alg.reduce(p)
                == oracle_reduce(alg, p)), p
    low = [m for m in monos if 2 * alg.mono_degree(m) <= alg.bound]
    for _ in range(40):
        xs = rng.sample(low, min(len(low), rng.randrange(1, 4)))
        ys = rng.sample(low, min(len(low), rng.randrange(1, 4)))
        rows = alg.product_rows(xs, ys)
        assert all(rows.values())
        prod = Poly(frozenset(xs)) * Poly(frozenset(ys))
        assert Poly(frozenset(alg.decode(rows))) == oracle_reduce(alg, prod)
    # terms past the bound raise for the lowest such degree in any order
    g, dg = alg.generators[0]
    past = [((g, alg.bound // dg + k),) for k in (1, 2, 3)] + [monos[-1]]
    lowest = dg * (alg.bound // dg + 1)
    texts = {outcome(alg.rows, list(order))
             for order in itertools.permutations(past)}
    assert texts == {f"degree {lowest} beyond bound {alg.bound} of algebra"}


def test_xor_rows_drops_zero_rows():
    assert st.xor_rows([{1: 0b101, 2: 0b11}, {1: 0b101, 3: 0}, {}]) == {2: 0b11}
    assert st.xor_rows([]) == {}


# frozen: the Mahonian numbers, the coefficients of
# prod_{i<n} (1 + t + ... + t^i), are the dimensions of the fixed side of
# Fl(C^n), F[x_1..x_n]/(e_1, ..., e_n) with |x_i| = 1
FLAG_FIXED_DIMS = {4: (1, 3, 5, 6, 5, 3, 1),
                   5: (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1)}


@pytest.mark.parametrize("n", sorted(FLAG_FIXED_DIMS))
def test_flag_fixed_side_dims_are_mahonian(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    elementary = [
        poly_from_monomials(tuple((g, 1) for g in subset)
                            for subset in itertools.combinations(names, k))
        for k in range(1, n + 1)]
    dims = FLAG_FIXED_DIMS[n]
    alg = st.UnstableAlgebra([(g, 1) for g in names], elementary, None,
                             len(dims) + 1)
    assert tuple(alg.dim(d) for d in range(len(dims) + 2)) == dims + (0, 0)


def test_kernel_overflow_matches_oracle():
    alg = st.polynomial_algebra((("s", 1), ("t", 1)), 4)
    x = st.bpoly_from([(0, (("s", 2),)), (1, (("t", 3),)), (0, (("s", 1), ("t", 1)))])
    y = st.bpoly_from([(0, (("t", 2),)), (2, (("s", 3),))])
    assert (outcome(st.bpoly_mul, alg, x, y)
            == outcome(oracle_bpoly_mul, alg, x, y)
            == "degree 5 beyond bound 4 of algebra")
    p = mono(("s", 5)) + mono(("t", 6)) + mono(("s", 1))
    assert outcome(alg.reduce, p) == "degree 5 beyond bound 4 of algebra"


def test_caches_are_per_algebra():
    # same generator name, other relations: x^3 = 0 in a, not in b
    a = st.truncated_algebra((("x", 1),), {"x": 3}, 12)
    b = st.truncated_algebra((("x", 1),), {"x": 4}, 12)
    x, x2, x3 = poly_gen("x"), poly_gen("x", 2), poly_gen("x", 3)
    bx, bx2 = st.bpoly_from([(0, (("x", 1),))]), st.bpoly_from([(1, (("x", 2),))])
    for alg, alive in ((a, False), (b, True), (a, False), (b, True)):
        assert alg.reduce(x * x2) == (x3 if alive else poly_zero())
        assert alg.sq(0, x3) == (x3 if alive else poly_zero())
        assert alg.squares(x3) == ({0: x3} if alive else {})
        assert st.steinberg(alg, x3) == (st.bpoly_from([(3, (("x", 3),))])
                                         if alive else st.bpoly_zero())
        assert st.bpoly_mul(alg, bx, bx2) == (
            st.bpoly_from([(1, (("x", 3),))]) if alive else st.bpoly_zero())


def test_fresh_grassmannian_model_starts_with_empty_caches():
    used = grassmannian_model(5)
    assert fr.frame_check(used)[0]
    assert used.even._rows and used.fixed._products
    model = grassmannian_model(5)
    for alg in (model.even, model.fixed):
        assert not (alg._rows or alg._products or alg._sq_gens
                    or alg._sq_rows)


def test_total_square_of_a_long_power_does_not_recurse():
    # 1200 Cartan steps from t^1200 down to 1; Sq(t^1200) = t^1200 (1 + t)^1200
    # and every t^k with k > 1200 is zero
    alg = st.truncated_algebra((("t", 1),), {"t": 1201}, 2400)
    assert alg.squares(poly_gen("t", 1200)) == {0: poly_gen("t", 1200)}
    assert alg.squares(poly_gen("t", 2)) == {0: poly_gen("t", 2),
                                             2: poly_gen("t", 4)}
