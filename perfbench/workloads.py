"""Seeded inputs and hand-derived known answers for the three workloads.

This module never imports conjspaces.  Every expected answer below comes
from the mathematics (a ring-map identity, a Hopf-algebroid axiom, a
Gaussian binomial, a hand-derived verdict), not from the package's own
output; the pinned digests in reference.json are a separate, regression
check on top of these answers.

A run repeats one seeded round of ops, so every percentile is taken over
the same multiset of op kinds whatever the number of rounds.
"""

from __future__ import annotations

import json
import random
import re

WORKLOADS = ("dual-products", "frame-grassmannian", "cli-mix")

# unique_section_check gives up above this many Steinberg generators in a
# degree; models past it fail their unique-section op (ROADMAP item 4).
ENUMERATION_GUARD = 14


def make_round(workload: str, seed: int) -> list[dict]:
    """The ops of one round: JSON-ready dicts, each with a unique "key"."""
    rng = random.Random(f"{workload}/{seed}")
    return {"dual-products": _dual_round,
            "frame-grassmannian": _frame_round,
            "cli-mix": _cli_round}[workload](rng)


def pool(workload: str) -> list[dict]:
    """Every op any seed can draw, for pinning output digests."""
    return {"dual-products": _dual_pool,
            "frame-grassmannian": _frame_pool,
            "cli-mix": _cli_pool}[workload]()


# ---------------------------------------------------------------------------
# dual-products: identities in the dual equivariant Steenrod algebra

GRID_BOUND = 24


def _grid_ops() -> list[dict]:
    # canonical order, so the mul_mono cache holds the same entries after
    # the grid in every run
    return [{"key": f"grid:{j}+{s - j}", "kind": "grid", "j": j, "k": s - j}
            for s in range(GRID_BOUND + 1) for j in range(s + 1)]


def _milnor_pool() -> list[dict]:
    """Milnor monomials z1^e1 z2^e2 z3^e3 of dimension 6..14 that use at
    least two generators."""
    out = []
    for e3 in range(3):
        for e2 in range(5):
            for e1 in range(15):
                dim = e1 + 3 * e2 + 7 * e3
                if 6 <= dim <= 14 and sum(1 for e in (e1, e2, e3) if e) >= 2:
                    exps = {n: e for n, e in ((1, e1), (2, e2), (3, e3)) if e}
                    name = "*".join(f"z{n}^{e}" for n, e in exps.items())
                    out.append({"key": f"psi:{name}", "kind": "psi",
                                "z": [[n, e] for n, e in exps.items()]})
    return out


def mono_dimension(m) -> int:
    """Dimension of a^k u^n prod xi_i^e prod tau_i: |a| = -1, |u| = 0,
    |xi_i| = 2(2^i - 1), |tau_i| = 2^(i+1) - 1."""
    a, _u, xi, tau = m
    return (-a + sum(2 * e * ((1 << i) - 1) for i, e in xi)
            + sum((2 << i) - 1 for i in tau))


def _mono_name(m) -> str:
    a, u, xi, tau = m
    parts = [f"a^{a}"] * bool(a) + [f"u^{u}"] * bool(u)
    parts += [f"t{i}" for i in tau] + [f"x{i}^{e}" for i, e in xi]
    return "*".join(parts) or "1"


def _coproduct_pool() -> list[dict]:
    """Basis monomials with xi_1, xi_2 exponents up to 2, at most two taus
    among tau_0..tau_2, and dimension 3..12."""
    out = []
    for a in range(2):
        for u in range(2):
            for e1 in range(3):
                for e2 in range(3):
                    for tau in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
                        xi = tuple((i, e) for i, e in ((1, e1), (2, e2)) if e)
                        m = (a, u, xi, tau)
                        if 3 <= mono_dimension(m) <= 12:
                            out.append({"key": f"coprod:{_mono_name(m)}",
                                        "kind": "coprod",
                                        "mono": [a, u, [list(t) for t in xi],
                                                 list(tau)]})
    return out


WORD_POOL = 400


def tau_word(index: int) -> list:
    """Word number `index`: 2..4 monomials with repeated taus, total
    dimension at most 20 (the same generator as the selftest's words)."""
    rng = random.Random(f"word/{index}")
    word, total = [], 0
    for _ in range(rng.randrange(2, 5)):
        xi = sorted((rng.randrange(1, 4), rng.randrange(1, 3))
                    for _ in range(rng.randrange(0, 2)))
        tau = sorted(rng.sample(range(0, 4), rng.randrange(0, 3)))
        m = [rng.randrange(0, 2), rng.randrange(0, 2), [list(t) for t in xi],
             tau]
        d = mono_dimension((m[0], m[1], xi, tau))
        if total + d > 20:
            break
        total += d
        word.append(m)
    return word or [[0, 0, [], []]]


def _word_op(index: int) -> dict:
    return {"key": f"word:{index}", "kind": "word", "word": tau_word(index),
            "rng_seed": index}


# Coassociativity on psi_zeta(5) alone takes 7.5 s, two thirds of a round,
# and one op that long leaves the run's throughput to the machine's noise;
# psi_zeta(5) gets the counit laws and psi_zeta(4) (0.3 s) all the laws.
PSI_ZETA_OPS = [
    {"key": "counit:psi_zeta(5)", "kind": "coprod-psi-zeta", "n": 5,
     "coassoc": False},
    {"key": "coprod:psi_zeta(4)", "kind": "coprod-psi-zeta", "n": 4,
     "coassoc": True}]


def _dual_round(rng: random.Random) -> list[dict]:
    seeded = (rng.sample(_milnor_pool(), 12) + rng.sample(_coproduct_pool(), 12)
              + [_word_op(i) for i in rng.sample(range(WORD_POOL), 60)])
    rng.shuffle(seeded)
    return _grid_ops() + seeded + PSI_ZETA_OPS


def _dual_pool() -> list[dict]:
    return (_grid_ops() + _milnor_pool() + _coproduct_pool()
            + [_word_op(i) for i in range(WORD_POOL)] + PSI_ZETA_OPS)


# ---------------------------------------------------------------------------
# frame-grassmannian: frame verdicts on models with known answers

VERDICTS = ("purity", "conjugation-equation", "steenrod-compat",
            "frame-multiplicative", "nakayama-splitting", "borel-vs-R")


def gaussian_binomial_2(n: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n choose 2] in q, from the
    q-Pascal rule [m, k] = [m-1, k-1] + q^k [m-1, k]."""
    rows = {(0, 0): [1]}
    for m in range(1, n + 1):
        for k in range(0, min(m, 2) + 1):
            left = rows.get((m - 1, k - 1), [0]) if k else [0]
            right = [0] * k + rows.get((m - 1, k), [0])
            size = max(len(left), len(right))
            rows[(m, k)] = [(left[i] if i < len(left) else 0)
                            + (right[i] if i < len(right) else 0)
                            for i in range(size)]
    coeffs = rows[(n, 2)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fixed_dims(spec: dict) -> list[int]:
    """Betti numbers of the fixed-point side, from topology alone."""
    fam = spec["family"]
    if fam in ("gr2", "gr2-swap"):
        return gaussian_binomial_2(spec["n"])        # Gr_2(R^n)
    if fam == "cp":
        return [1] * (spec["n"] + 1)                 # RP^n
    if fam == "cpx":                                 # RP^a x RP^b
        a, b = spec["a"], spec["b"]
        return [sum(1 for i in range(a + 1) if 0 <= d - i <= b)
                for d in range(a + b + 1)]
    raise ValueError(fam)


def model_bound(spec: dict) -> int:
    fam = spec["family"]
    if fam in ("gr2", "gr2-swap"):
        return 4 * (spec["n"] - 2)
    if fam in ("cp", "cp-short"):
        return 2 * spec["n"]
    return 2 * (spec["a"] + spec["b"])


def guard_trips(spec: dict) -> bool:
    """Whether some even degree d of the model needs more than the guard's
    Steinberg generators b^k St(m), |m| <= d/2: their number is the sum
    of the fixed-point Betti numbers up to d/2."""
    dims = fixed_dims(spec)
    for d in range(0, model_bound(spec) + 1, 2):
        if d // 2 < len(dims) and dims[d // 2]:
            if sum(dims[:d // 2 + 1]) > ENUMERATION_GUARD:
                return True
    return False


def model_name(spec: dict) -> str:
    fam = spec["family"]
    if fam == "gr2":
        return f"Gr_2(C^{spec['n']})"
    if fam == "gr2-swap":
        return f"Gr_2(C^{spec['n']})-swap"
    if fam == "cp":
        return f"CP^{spec['n']}"
    if fam == "cp-short":
        return f"CP^{spec['n']}-over-RP^{spec['n'] - 1}"
    return f"CP^{spec['a']}xCP^{spec['b']}"


ALL_PASS = dict.fromkeys(VERDICTS + ("kappa-shadow",), True)

# Swapping kappa0(c1^2) = w1^2 and kappa0(c2) = w2 keeps kappa0 a bijection
# of bases.  So purity, the Nakayama splitting (its matrix is triangular by
# level with kappa0 on the diagonal) and borel-vs-R (it reads only the
# fixed side and St(y) has residue y) still pass, and so does the
# conjugation equation (the b^n coefficient of St(kappa0 x) is kappa0 x).
# kappa0 Sq^2 c1 = kappa0(c1^2) = w2 but Sq^1 kappa0 c1 = Sq^1 w1 = w1^2, so
# steenrod-compat fails; sigma(c1)^2 = b^2 w1^2 + w1^4 but sigma(c1^2) =
# St(w2) = b^2 w2 + b w1 w2 + w2^2 has another b^2 coefficient, so
# multiplicativity fails.  The shadow check only re-reads the kappa table:
# it passes.
SWAP_EXPECT = dict(ALL_PASS, **{"steenrod-compat": False,
                                "frame-multiplicative": False})

# CP^n over RP^(n-1): even dimension 1 but fixed dimension 0 at level n,
# so purity fails and frame_check stops after it.
SHORT_EXPECT = {"purity": False}


def _frame_ops(spec: dict) -> list[dict]:
    name = model_name(spec)
    fam = spec["family"]
    expect = {"gr2-swap": SWAP_EXPECT, "cp-short": SHORT_EXPECT}.get(fam, ALL_PASS)
    ops = [{"key": f"frame:{name}", "kind": "frame", "model": spec,
            "expect": expect}]
    if fam != "cp-short":
        # a conjugation frame is unique (Hausmann-Holm-Puppe, section 3),
        # and the swapped kappa0 leaves the Steinberg span unchanged
        ops.append({"key": f"unique:{name}", "kind": "unique", "model": spec,
                    "expect": True, "guard": guard_trips(spec)})
    return ops


GR_RANGE = range(4, 15)
CP_CHOICES = range(4, 9)
CPX_CHOICES = ((1, 2), (1, 3), (2, 2), (1, 4), (2, 3))


def _frame_round(rng: random.Random) -> list[dict]:
    specs = [{"family": "gr2", "n": n} for n in GR_RANGE]
    specs.append({"family": "cpx", "a": 3, "b": 3})
    specs += [{"family": "cp", "n": n} for n in rng.sample(CP_CHOICES, 2)]
    specs += [{"family": "cpx", "a": a, "b": b}
              for a, b in rng.sample(CPX_CHOICES, 2)]
    specs.append({"family": "gr2-swap", "n": rng.choice((4, 5))})
    specs.append({"family": "cp-short", "n": rng.randrange(2, 7)})
    ops = [op for spec in specs for op in _frame_ops(spec)]
    rng.shuffle(ops)
    return ops


def _frame_pool() -> list[dict]:
    specs = [{"family": "gr2", "n": n} for n in GR_RANGE]
    specs += [{"family": "cp", "n": n} for n in CP_CHOICES]
    specs += [{"family": "cpx", "a": a, "b": b}
              for a, b in CPX_CHOICES + ((3, 3),)]
    specs += [{"family": "gr2-swap", "n": n} for n in (4, 5)]
    specs += [{"family": "cp-short", "n": n} for n in range(2, 7)]
    return [op for spec in specs for op in _frame_ops(spec)]


# ---------------------------------------------------------------------------
# cli-mix: whole `python -m conjspaces` processes
#
# Each template yields (argv, expected exit code, check); a check names a
# rule in check_cli_output with its hand-derived parameters.  `asteen psi
# 40` is left out on purpose: it never returns (ROADMAP, north star).


def _pos(k: int, n: int) -> str:
    parts = ([("a" if k == 1 else f"a^{k}")] if k else [])
    parts += ([("u" if n == 1 else f"u^{n}")] if n else [])
    return "*".join(parts) or "1"


def _xi(i: int, e: int = 1) -> str:
    if i == 0:
        return "1"
    return f"x{i}" if e == 1 else f"x{i}^{e}"


def _t(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _p_sequence(n: int) -> tuple[set, set]:
    """P_0 = 1, P_1 = a x1, P_{m+2} = a x1 P_{m+1} + u x1 P_m over GF(2),
    as sets of (a, u, x1) exponents; Q_n = P_{n-1}."""
    ps = [{(0, 0, 0)}, {(1, 0, 1)}]
    while len(ps) <= n:
        nxt = {(a + 1, u, x + 1) for a, u, x in ps[-1]}
        nxt ^= {(a, u + 1, x + 1) for a, u, x in ps[-2]}
        ps.append(nxt)

    def fmt(terms):
        return {"*".join(([_pos(a, u)] if a or u else [])
                         + ([_xi(1, x)] if x else [])) or "1"
                for a, u, x in terms}
    return fmt(ps[n]), (fmt(ps[n - 1]) if n else set())


def _steinberg_terms(n: int, k: int) -> set:
    """St(t^k) in RP^n: sum_j C(k, j) b^(k-j) t^(k+j), t^(n+1) = 0."""
    out = set()
    for j in range(k + 1):
        if (j & k) == j and k + j <= n:      # Lucas: C(k, j) odd
            e, t = k - j, _t("t", k + j)
            out.add(t if e == 0 else f"{_t('b', e)}*{t}")
    return out


# (mono, expr, pairing) worked out from psi(z1) = a x1 + t0 and
# psi(z1)^2 = a^2 x1^2 + t0^2 = a^2 x1^2 + a t1 + a t0 x1 + u x1
PAIRINGS = (("x1", "z1", "a"), ("t0", "z1", "1"), ("x1^2", "z1^2", "a^2"),
            ("x1", "z1^2", "u"), ("t1", "z1^2", "a"), ("t0*x1", "z1^2", "a"))

MODEL_FILES = {"cp1": "CP^1", "cp2": "CP^2", "cp3": "CP^3",
               "cp1xcp1": "CP^1xCP^1", "sphere2": "S^2+2al"}

BUILTIN_NAMES = ([f"CP^{n}" for n in range(1, 6)]
                 + [f"S^{n}+{n}al" for n in range(1, 6)]
                 + ["CP^1xCP^2", "CP^2xCP^2", "CP^1xCP^3"])

# a built-in model line: purity detail lists the generators
FRAME_LINES = ("PASS purity", "PASS conjugation-equation",
               "PASS steenrod-compat", "PASS frame-multiplicative",
               "PASS nakayama-splitting", "PASS borel-vs-R")


def _cli_templates() -> dict:
    """name -> list of (argv, exit code, check) variants."""
    t: dict[str, list] = {}
    t["coeff"] = [(["coeff", _pos(k, n)], 0,
                   {"rule": "lines", "lines": [f"value: {_pos(k, n)}",
                                               f"dimension: {k}"]})
                  for k in range(1, 5) for n in range(1, 4)]
    # a in H^{al}, u in H^{al-1}: a^k u^n sits in degree -n + (k+n) al
    t["coeff-json"] = [(["coeff", _pos(k, n), "--json"], 0,
                        {"rule": "json", "fields": {
                            "value": _pos(k, n), "dimension": k,
                            "degree": f"{-n}{k + n:+d}*al"}})
                       for k in range(1, 5) for n in range(1, 4)]
    t["coeff-times"] = [(["coeff", _pos(k, 0), "--times", _pos(0, n)], 0,
                         {"rule": "lines", "lines": [f"value: {_pos(k, n)}"]})
                        for k in range(1, 5) for n in range(1, 4)]
    # th[0,j] has no a in its denominator, so a kills it
    t["coeff-torsion"] = [(["coeff", "a", "--times", f"th[0,{j}]"], 0,
                           {"rule": "lines", "lines": ["value: 0"]})
                          for j in range(2, 5)]
    t["chart"] = [(["chart", "--pmin", str(p), "--pmax", str(p + w),
                    "--qmin", str(q), "--qmax", str(q + h)], 0,
                   {"rule": "chart", "p": [p, p + w], "q": [q, q + h]})
                  for p in (-6, -3, 0) for q in (-6, -3, 0)
                  for w in (3, 5) for h in (3, 5)]
    # tau_i^2 = a tau_{i+1} + a tau_0 xi_{i+1} + u xi_{i+1}
    t["asteen-normalize"] = [
        (["asteen", "normalize", f"t{i}*t{i}"], 0,
         {"rule": "terms", "terms": [f"a*t{i + 1}", f"a*t0*x{i + 1}",
                                     f"u*x{i + 1}"]}) for i in range(4)]
    # Milnor: Delta tau_i = tau_i (x) 1 + sum_j xi_{i-j}^{2^j} (x) tau_j and
    # Delta xi_i = sum_j xi_{i-j}^{2^j} (x) xi_j
    t["asteen-coprod-tau"] = [
        (["asteen", "coprod", f"t{i}"], 0,
         {"rule": "terms", "terms": [f"t{i} (x) 1"] + [
             f"{_xi(i - j, 1 << j)} (x) t{j}" for j in range(i + 1)]})
        for i in range(4)]
    t["asteen-coprod-xi"] = [
        (["asteen", "coprod", f"x{i}"], 0,
         {"rule": "terms", "terms": [
             f"{_xi(i - j, 1 << j)} (x) {_xi(j)}" for j in range(i + 1)]})
        for i in range(1, 5)]
    # psi(z_n) is homogeneous of dimension 2^n - 1 with leading term
    # a^(2^n - 1) xi_n; psi(z1) = a x1 + t0 and psi(z2) = a^3 x2
    # + a^2 x1^2 t0 + (a t0 + u) t1 exactly
    exact = {1: ["a*x1", "t0"],
             2: ["a^3*x2", "a^2*t0*x1^2", "a*t0*t1", "u*t1"]}
    t["asteen-psi"] = [(["asteen", "psi", str(n)], 0,
                        {"rule": "psi", "n": n, "exact": exact.get(n)})
                       for n in range(1, 7)]
    t["asteen-pn"] = []
    for n in range(2, 9):
        p, q = _p_sequence(n)
        t["asteen-pn"].append((["asteen", "pn", str(n)], 0,
                               {"rule": "pn", "n": n, "p": sorted(p),
                                "q": sorted(q)}))
    t["asteen-pair"] = [(["asteen", "pair", mono, expr], 0,
                         {"rule": "lines", "lines": [value]})
                        for mono, expr, value in PAIRINGS]
    t["purity-cp"] = [(["purity", f"CP^{n}"], 0, {"rule": "lines", "lines": [
        f"PURE CP^{n}: " + ", ".join(
            ["1@0"] + [f"{_t('x', k)}@{k}" for k in range(1, n + 1)])]})
        for n in range(1, 9)]
    t["purity-sphere"] = [(["purity", f"S^{n}+{n}al"], 0, {
        "rule": "lines", "lines": [f"PURE S^{n}+{n}al: 1@0, x@{n}"]})
        for n in range(1, 9)]
    t["steinberg"] = [
        (["steinberg", f"CP^{n}", "--class", _t("x", k)], 0,
         {"rule": "steinberg", "cls": _t("x", k),
          "terms": sorted(_steinberg_terms(n, k))})
        for n in range(2, 7) for k in range(1, n + 1)]
    t["frame-builtin"] = [(["frame", "check", name], 0, {
        "rule": "frame", "name": name}) for name in BUILTIN_NAMES]
    t["frame-file"] = [(["frame", "check", f"models/{f}.json"], 0, {
        "rule": "frame", "name": name}) for f, name in MODEL_FILES.items()]
    t["frame-json"] = [(["frame", "check", f"CP^{n}", "--json"], 0, {
        "rule": "frame-json", "name": f"CP^{n}"}) for n in range(1, 6)]
    # 26 built-ins: the point, S^n and CP^n for n = 1..8, and CP^a x CP^b
    # for 1 <= a <= b, a + b <= 6 (nine pairs)
    t["examples"] = [(["examples"], 0, {"rule": "lines", "lines": [
        "EXAMPLES PASS (26 models)"]})]
    t["selftest"] = [(["selftest", "--bound", "10"], 0, {
        "rule": "lines", "lines": ["SELFTEST PASS (34 checks)"]})]
    t["reject-coeff"] = [(["coeff", bad], 2, {"rule": "rejected"})
                         for bad in ("a^", "th[0,1]", "a+", "q")]
    t["reject-asteen"] = [(["asteen", "normalize", bad], 2, {"rule": "rejected"})
                          for bad in ("t0**", "x0", "t0+", "y1")]
    t["reject-missing-file"] = [(["frame", "check", f"missing/model{k}.json"],
                                 2, {"rule": "rejected"}) for k in range(3)]
    # ROADMAP defects: both print PASS with exit 0 at the seed commit
    t["reject-frame-negative-bound"] = [
        (["frame", "check", "CP^2", "--bound", "-3"], 2, {"rule": "rejected"})]
    t["reject-selftest-negative-bound"] = [
        (["selftest", "--bound", "-1"], 2, {"rule": "rejected"})]
    return t


KNOWN_DEFECT_TEMPLATES = {
    "reject-frame-negative-bound": "a negative --bound is not rejected",
    "reject-selftest-negative-bound": "a negative --bound is not rejected",
}


def _cli_op(template: str, variant) -> dict:
    argv, code, check = variant
    return {"key": "cli:" + " ".join(argv), "kind": "cli", "template": template,
            "argv": argv, "exit": code, "check": check,
            "known_defect": KNOWN_DEFECT_TEMPLATES.get(template)}


def _cli_round(rng: random.Random) -> list[dict]:
    # two draws per template with variants, so a round has ops enough
    # for a tail
    ops = [_cli_op(name, rng.choice(variants))
           for name, variants in _cli_templates().items()
           for _ in range(1 + (len(variants) > 1))]
    rng.shuffle(ops)
    return ops


def _cli_pool() -> list[dict]:
    return [_cli_op(name, v) for name, variants in _cli_templates().items()
            for v in variants]


def known_defect(op: dict) -> str | None:
    """Why a failure of this op is expected at the seed commit, if it is."""
    if op["kind"] == "unique" and op["guard"]:
        return "unique-section enumeration guard (14 generators)"
    if op["kind"] == "cli":
        return op["known_defect"]
    return None


_EQ_FACTOR = re.compile(r"(a|u|t|x)(\d*)(?:\^(\d+))?$")


def parse_eq_mono(text: str):
    """(a, u, xi, tau) of a formatted dual-algebra monomial like a^2*t0*x1^2."""
    a = u = 0
    xi, tau = [], []
    for factor in ([] if text == "1" else text.split("*")):
        m = _EQ_FACTOR.match(factor)
        if m is None:
            raise ValueError(f"bad factor {factor!r}")
        gen, idx, exp = m.group(1), m.group(2), int(m.group(3) or 1)
        if gen == "a":
            a += exp
        elif gen == "u":
            u += exp
        elif gen == "t":
            tau += [int(idx)] * exp
        else:
            xi.append((int(idx), exp))
    return a, u, tuple(xi), tuple(tau)


def check_cli_output(op: dict, code: int, out: str, err: str) -> str | None:
    """None when the process gave its known answer, else the reason."""
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}"
    try:
        return _check_stdout(op["check"], out, err)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_stdout(check: dict, out: str, err: str) -> str | None:
    rule = check["rule"]
    lines = out.splitlines()
    if rule == "rejected":
        if out or not err.startswith("error: "):
            return "rejected input printed to stdout or gave no error line"
    elif rule == "lines":
        missing = [ln for ln in check["lines"] if ln not in lines]
        if missing:
            return f"missing line {missing[0]!r}"
    elif rule == "json":
        data = json.loads(out)
        for field, value in check["fields"].items():
            if data.get(field) != value:
                return f"{field} is {data.get(field)!r}, expected {value!r}"
    elif rule == "terms":
        if set(out.strip().split(" + ")) != set(check["terms"]):
            return "wrong terms"
    elif rule == "chart":
        (p0, p1), (q0, q1) = check["p"], check["q"]
        want = {(p, q) for p in range(p0, p1 + 1) for q in range(q0, q1 + 1)}
        got = [ln.split(",") for ln in lines]
        if (len(got) != len(want) or any(len(r) != 3 for r in got)
                or {(int(r[0]), int(r[1])) for r in got} != want
                or not {r[2] for r in got} <= {"Fbar", "dot", "L", "Lminus", "0"}):
            return "chart rows do not cover the window with known shapes"
    elif rule == "psi":
        n = check["n"]
        terms = out.strip().split(" + ")
        if check["exact"] is not None and set(terms) != set(check["exact"]):
            return "wrong terms"
        if _pos((1 << n) - 1, 0) + f"*x{n}" not in terms:
            return "leading term a^(2^n - 1) x_n missing"
        if any(mono_dimension(parse_eq_mono(t)) != (1 << n) - 1 for t in terms):
            return "a term has the wrong dimension"
    elif rule == "pn":
        n = check["n"]
        got = dict(ln.split(" = ", 1) for ln in lines)
        for name, want in ((f"P{n}", check["p"]), (f"Q{n}", check["q"])):
            if set(got.get(name, "").split(" + ")) != set(want or ["0"]):
                return f"wrong {name}"
    elif rule == "steinberg":
        head = f"rsigma({check['cls']}) = "
        if len(lines) != 1 or not lines[0].startswith(head):
            return "no rsigma line"
        if set(lines[0][len(head):].split(" + ")) != set(check["terms"]):
            return "wrong terms"
    elif rule == "frame":
        prefixes = [ln.split(" (")[0] for ln in lines[:-1]]
        last = f"FRAME PASS {check['name']}"
        if prefixes != list(FRAME_LINES) or lines[-1] != last:
            return "frame verdicts differ from all six PASS"
    elif rule == "frame-json":
        data = json.loads(out)
        if (data.get("model") != check["name"] or data.get("ok") is not True
                or [v["name"] for v in data["verdicts"]] != list(VERDICTS)
                or not all(v["ok"] for v in data["verdicts"])):
            return "frame verdicts differ from all six PASS"
    else:
        raise ValueError(rule)
    return None
