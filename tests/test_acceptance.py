"""Acceptance gate: twelve end-to-end criteria, each timed against a
hard limit and reported as a single PASS line per criterion.

Every equality below is exact GF(2) structure equality; nothing is
approximate and nothing is skipped.
"""

import random
import subprocess
import sys
import time

import pytest

from conjspaces import dual_steenrod as ds
from conjspaces import frames as fr
from conjspaces import steenrod as st
from conjspaces.coefficients import HF_BASIS, chart_lookup
from conjspaces.degree import RODegree
from conjspaces.gf2 import GF2Echelon, Poly

_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    # lets _report write past pytest's capture, so the per-criterion
    # PASS lines show up even without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(name: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeds limit {limit}s"
    line = f"ACCEPT PASS {name} ({elapsed:.2f}s, limit {limit:g}s)"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


def M(a=0, u=0, xi=(), tau=()):
    return (a, u, tuple(xi), tuple(tau))


def _random_mono(rng, max_dim):
    while True:
        xi = {}
        for _ in range(rng.randrange(0, 3)):
            xi[rng.randrange(1, 4)] = rng.randrange(1, 3)
        tau = tuple(sorted(rng.sample(range(4), rng.randrange(0, 3))))
        m = M(rng.randrange(0, 2), rng.randrange(0, 2),
              tuple(sorted(xi.items())), tau)
        if ds.mono_dimension(m) <= max_dim:
            return m


def test_01_chart_spots_at_most_one_dimensional():
    t0 = time.perf_counter()
    for p in range(-20, 21):
        for q in range(-20, 21):
            d = RODegree(p, q)
            count = len(HF_BASIS.monomials_of_degree(d))
            shape = chart_lookup(d)
            assert count <= 1, (p, q)
            assert count == shape.dim_pt, (p, q)
            assert (shape.tag == "0") == (count == 0), (p, q)
    _report("chart-one-dimensional", t0, 1.0)


def test_02_tau_squares_and_confluence():
    t0 = time.perf_counter()
    for i in range(5):
        expected = frozenset({M(a=1, tau=(i + 1,)),
                              M(a=1, xi=((i + 1, 1),), tau=(0,)),
                              M(u=1, xi=((i + 1, 1),))})
        assert ds.normal_form([ds.tau_mono(i), ds.tau_mono(i)]) == expected, i
    rng = random.Random(424242)
    for trial in range(500):
        word = [_random_mono(rng, 8) for _ in range(rng.randrange(2, 5))]
        while sum(ds.mono_dimension(m) for m in word) > 20 and len(word) > 1:
            word.pop()
        base = ds.normal_form(word)
        assert ds.normal_form(word, rng=rng) == base, word
        assert ds.normal_form(list(reversed(word)), rng=rng) == base, word
        for m in base:
            assert list(m[3]) == sorted(set(m[3])), m
    _report("tau-square-confluence", t0, 10.0)


def test_03_hopf_axioms():
    t0 = time.perf_counter()
    rng = random.Random(5151)
    elems = [frozenset({ds.xi_mono(i)}) for i in range(1, 4)]
    elems += [frozenset({ds.tau_mono(i)}) for i in range(3)]
    for _ in range(20):
        elems.append(frozenset(
            _random_mono(rng, 16) for _ in range(rng.randrange(1, 4))))
    for e in elems:
        T = ds.coproduct(e)
        assert ds.tensor_counit_left(T) == e
        assert ds.tensor_counit_right(T) == e
        assert ds.coproduct_left(T) == ds.coproduct_right(T)
    for x in elems[:12]:
        for y in elems[:12]:
            lhs = ds.coproduct(ds.elem_mul(x, y))
            rhs = ds.tensor_mul(ds.coproduct(x), ds.coproduct(y))
            assert lhs == rhs
    _report("hopf-axioms", t0, 30.0)


def test_04_coefficient_action_two_routes():
    t0 = time.perf_counter()
    for kind in ("xi", "xitau"):
        for l in range(9):
            for k in range(9):
                main = ds.act_on_coefficient(kind, l, k)
                assert main == ds.act_via_cartan(kind, l, k), (kind, l, k)
                assert ds.mod_u(main) == ds.act_mod_u_closed_form(kind, l, k), \
                    (kind, l, k)
    _report("coefficient-action-cross-check", t0, 5.0)


def test_05_pairing_closed_form():
    t0 = time.perf_counter()
    for i in range(11):
        mono = M(xi=((1, i),)) if i else M()
        for k in range(21):
            direct = ds.pair(mono, ds.psi({1: k}))
            assert direct == ds.pairing_closed_form(i, k), (i, k)
    for n in range(11):
        pn, qn = ds.p_sequence(n)
        assert ds.abar_image(ds.psi({1: n})) == ds.assemble_p_pair(pn, qn), n
    _report("pairing-closed-form", t0, 10.0)


def test_06_psi_ring_map():
    t0 = time.perf_counter()
    for j in range(11):
        for k in range(11 - j):
            assert ds.elem_mul(ds.psi({1: j}), ds.psi({1: k})) == \
                ds.psi({1: j + k}), (j, k)
    small = [{1: 1}, {1: 2}, {2: 1}, {3: 1}, {1: 1, 2: 1}, {2: 2}]
    for e in small:
        for f in small:
            total = dict(e)
            for idx, exp in f.items():
                total[idx] = total.get(idx, 0) + exp
            assert ds.elem_mul(ds.psi(e), ds.psi(f)) == ds.psi(total), (e, f)
    for n in range(1, 5):
        assert ds.elem_degree(ds.psi_zeta(n)) == RODegree(2 ** n - 1, 0), n
    _report("psi-multiplicative", t0, 5.0)


def test_07_squares_interleave_fixed_points():
    t0 = time.perf_counter()
    for n in range(1, 9):
        verdict = fr.verify_steenrod_compat(fr.cp_model(n), sq_bound=16)
        assert verdict.ok, (n, verdict.detail)
    for a in range(1, 6):
        for b in range(a, 7 - a):
            verdict = fr.verify_steenrod_compat(fr.cp_product_model(a, b),
                                                sq_bound=16)
            assert verdict.ok, (a, b, verdict.detail)
    _report("squares-interleave-fixed-points", t0, 30.0)


def test_08_conjugation_equation():
    t0 = time.perf_counter()
    for model in fr.builtin_models():
        report = fr.build_frame(model)
        assert fr.verify_conjugation_equation(report).ok, model.name
        assert fr.verify_frame_multiplicative(report).ok, model.name
    for n in range(1, 9):
        report = fr.build_frame(fr.sphere_model(n))
        sig = report.sigma[(2 * n, (("x", 1),))]
        assert len(sig.terms) == 1 and max(e for e, _ in sig.terms) == n, n
    model = fr.cp_model(2)
    swapped = dict(model.kappa0)
    swapped[(("x", 1),)], swapped[(("x", 2),)] = \
        swapped[(("x", 2),)], swapped[(("x", 1),)]
    bad = fr.verify_conjugation_equation(fr.build_frame(model), swapped)
    assert not bad.ok
    _report("conjugation-equation", t0, 10.0)


def test_09_purity_and_splitting():
    t0 = time.perf_counter()
    for model in fr.builtin_models():
        purity = fr.purity_check(model)
        assert purity.ok, model.name
        assert fr.nakayama_splitting_check(model, purity.module).ok, model.name
        # removing any single generator must break the splitting
        gens = purity.module.generators
        for i in range(len(gens)):
            dropped = fr.FreeHFModule(gens[:i] + gens[i + 1:])
            verdict = fr.nakayama_splitting_check(model, dropped)
            assert not verdict.ok, (model.name, gens[i])
    _report("purity-splitting", t0, 10.0)


def _st_rank(alg, m_deg):
    index: dict = {}
    ech = GF2Echelon()
    rank = 0
    for mono in alg.basis(m_deg):
        vec = st.steinberg(alg, Poly(frozenset({mono})))
        row = 0
        for term in vec.terms:
            row |= 1 << index.setdefault(term, len(index))
        if ech.insert(row):
            rank += 1
    return rank


def test_10_steinberg_span_series():
    t0 = time.perf_counter()
    # the span of b^k St(x) in F[b] (x) H(RP^n) grows like H(CP^n) (x) F[b]
    for n in range(1, 7):
        alg = st.truncated_algebra((("t", 1),), {"t": n + 1}, 30)
        rmod = st.compute_R(alg, 12)
        for d in range(13):
            assert rmod.dim(d) == min(d // 2, n) + 1, (n, d)
    # the Steinberg map is degreewise injective on every built-in
    for model in fr.builtin_models():
        for m_deg in range(model.bound // 2 + 1):
            rank = _st_rank(model.fixed, m_deg)
            assert rank == model.fixed.dim(m_deg), (model.name, m_deg)
    _report("steinberg-span-series", t0, 30.0)


def test_11_frame_uniqueness():
    t0 = time.perf_counter()
    for model in (fr.sphere_model(1), fr.cp_model(2), fr.cp_model(3)):
        verdict = fr.unique_section_check(model, bound=6)
        assert verdict.ok, (model.name, verdict.detail)
    _report("frame-uniqueness", t0, 60.0)


def test_12_selftest_deterministic():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "conjspaces", "selftest", "--bound", "10"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[-1] == "SELFTEST PASS (34 checks)"
    _report("selftest-determinism", t0, 300.0)
