"""The shared sum-of-products reader against the three parsers it replaced.

``oracle_parse_poly``, ``oracle_parse_coeff`` and ``oracle_parse_expression``
are the hand-written parsers the package had before ``gf2.parse_sum``, kept
verbatim as test oracles.  On a seeded corpus per grammar, every input an
oracle accepts must give the same value, and every input it rejects must
still raise ``ParseError`` or ``DegreeOverflowError``, apart from the
classes the one grammar changed on purpose:

- ``const-power``: powers of the constants (``1^3``, ``0^2``) parse;
- ``theta-product``: products and powers with ``th[i,j]`` parse;
- ``coeff-space``: a coefficient may have spaces before ``^`` and between
  ``th`` and ``[``, as the other two grammars always allowed;
- ``dangling-star``: a coefficient ending in ``*`` (read as if the ``*``
  were not there) is rejected;
- ``minus-zero``: a coefficient exponent or ``th`` index written ``-0``
  (read as 0) is rejected, since no grammar has signed integers;
- ``coeff-zero``: a coefficient may have the factor ``0``, so the ``0``
  that ``format_coeff`` writes for the zero element reads back;
- ``parse-before-overflow``: a dual expression with a syntax error after a
  term past ``bound`` now reports the syntax error.

A newly accepted input is checked factor by factor: each factor, its
spaces removed and its power written out as a product, goes through the
oracle, and the products and sums are taken in the layer's own ring.
"""

import random
import re

import pytest

from conjspaces import dual_steenrod as ds
from conjspaces.coefficients import (coeff_one, coeff_pos, coeff_theta,
                                     coeff_zero, parse_coeff)
from conjspaces.errors import DegreeOverflowError, ParseError
from conjspaces.gf2 import parse_poly, poly_from_monomials, poly_one


# ---------------------------------------------------------------------------
# The replaced parsers


_POLY_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[\^*+]))")


def oracle_parse_poly(text, generators=None):
    known = set(generators) if generators is not None else None
    pos = 0
    tokens = []
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError("unexpected character", text, pos)
            break
        for kind in ("name", "int", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    terms = []
    i = 0
    n = len(tokens)

    def parse_factor():
        nonlocal i
        kind, val, at = tokens[i]
        if kind == "int":
            if val == "1":
                i += 1
                return None
            if val == "0":
                i += 1
                return ("", 0)
            raise ParseError("only the constants 0 and 1 are allowed", text, at)
        if kind != "name":
            raise ParseError("expected a generator name", text, at)
        if known is not None and val not in known:
            raise ParseError(f"unknown generator {val!r}", text, at)
        i += 1
        exp = 1
        if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
            i += 1
            if i >= n or tokens[i][0] != "int":
                raise ParseError("expected an integer exponent after '^'", text,
                                 tokens[i - 1][2])
            exp = int(tokens[i][1])
            if exp < 0:
                raise ParseError("negative exponent", text, tokens[i][2])
            i += 1
        return (val, exp)

    if n == 0:
        raise ParseError("empty polynomial", text, 0)
    while True:
        exps = {}
        zero_term = False
        while True:
            f = parse_factor()
            if f == ("", 0):
                zero_term = True
            elif f is not None:
                g, e = f
                if e > 0:
                    exps[g] = exps.get(g, 0) + e
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                continue
            break
        if not zero_term:
            terms.append(tuple(sorted(exps.items())))
        if i < n and tokens[i][0] == "op" and tokens[i][1] == "+":
            i += 1
            continue
        break
    if i < n:
        raise ParseError("trailing input", text, tokens[i][2])
    return poly_from_monomials(terms)


def oracle_parse_coeff(text):
    result = coeff_zero()
    pos = 0
    text_len = len(text)

    def skip_ws(p):
        while p < text_len and text[p].isspace():
            p += 1
        return p

    def read_int(p):
        p = skip_ws(p)
        start = p
        if p < text_len and text[p] == "-":
            p += 1
        while p < text_len and text[p].isdigit():
            p += 1
        if p == start or (p == start + 1 and text[start] == "-"):
            raise ParseError("expected an integer", text, start)
        return int(text[start:p]), p

    first = True
    while True:
        pos = skip_ws(pos)
        if pos >= text_len:
            if first:
                raise ParseError("empty coefficient expression", text, pos)
            break
        if not first:
            if text[pos] != "+":
                raise ParseError("expected '+'", text, pos)
            pos = skip_ws(pos + 1)
        first = False
        if text.startswith("th[", pos):
            i, pos = read_int(pos + 3)
            pos = skip_ws(pos)
            if pos >= text_len or text[pos] != ",":
                raise ParseError("expected ',' in th[i,j]", text, pos)
            j, pos = read_int(pos + 1)
            pos = skip_ws(pos)
            if pos >= text_len or text[pos] != "]":
                raise ParseError("expected ']' in th[i,j]", text, pos)
            pos += 1
            if i < 0 or j < 2:
                raise ParseError("th[i,j] needs i >= 0 and j >= 2", text, pos)
            result = result + coeff_theta(i, j)
            continue
        k = n = 0
        got = False
        while pos < text_len:
            pos = skip_ws(pos)
            if text.startswith("a", pos) and not text.startswith("al", pos):
                pos += 1
                e = 1
                if pos < text_len and text[pos] == "^":
                    e, pos = read_int(pos + 1)
                if e < 0:
                    raise ParseError("negative exponent", text, pos)
                k += e
                got = True
            elif text.startswith("u", pos):
                pos += 1
                e = 1
                if pos < text_len and text[pos] == "^":
                    e, pos = read_int(pos + 1)
                if e < 0:
                    raise ParseError("negative exponent", text, pos)
                n += e
                got = True
            elif text.startswith("1", pos):
                pos += 1
                got = True
            else:
                raise ParseError("expected a, u, 1 or th[i,j]", text, pos)
            nxt = skip_ws(pos)
            if nxt < text_len and text[nxt] == "*":
                pos = nxt + 1
                continue
            pos = nxt
            break
        if not got:
            raise ParseError("empty monomial", text, pos)
        result = result + coeff_pos(k, n)
    return result


_EQ_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[xtz])(?P<idx>\d+)|(?P<au>[au])|(?P<pow>\^)|(?P<mul>\*)|"
    r"(?P<add>\+)|(?P<int>\d+))")


def oracle_parse_expression(text, bound=None):
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
                    ds.ELEM_ONE if exp == 0 else frozenset({ds.xi_mono(idx, exp)}))
            if kind == "t":
                return exp * ((2 << idx) - 1), lambda: ds.elem_pow(
                    frozenset({ds.tau_mono(idx)}), exp)
            if idx < 0:
                raise ParseError("bad Milnor index", text, at)
            return exp * ((1 << idx) - 1), lambda: ds.elem_pow(ds.psi_zeta(idx), exp)
        if m.group("au"):
            which = m.group("au")
            i += 1
            exp = read_power()
            if which == "a":
                return -exp, lambda: frozenset({ds.coeff_mono(exp, 0)})
            return 0, lambda: frozenset({ds.coeff_mono(0, exp)})
        if m.group("int"):
            val = m.group("int")
            i += 1
            if val == "1":
                return 0, lambda: ds.ELEM_ONE
            if val == "0":
                return 0, lambda: ds.ELEM_ZERO
            raise ParseError("only the constants 0 and 1 are allowed", text, at)
        raise ParseError("expected a factor", text, at)

    def read_power():
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

    acc = set()
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
            term = ds.elem_mul(term, expand())
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


# ---------------------------------------------------------------------------
# Corpus and comparison


POLY_GENS = ("x", "y", "w2")

# grammar -> (atoms, atoms the oracle refuses, one, add, mul)
GRAMMARS = {
    "poly": (("x", "y", "w2", "1", "0"), ("2", "q", "x_1"),
             poly_one(), lambda p, q: p + q, lambda p, q: p * q),
    "coeff": (("a", "u", "1", "th[1,3]", "th[0,2]", "th[ 2 , 4 ]"),
              ("0", "th[0,1]", "th[1]", "al", "b"),
              coeff_one(), lambda x, y: x + y, lambda x, y: x * y),
    "dual": (("x1", "x2", "t0", "t1", "z1", "z2", "z3", "a", "u", "1", "0"),
             ("x0", "y1", "t"),
             ds.ELEM_ONE, lambda e, f: e ^ f, ds.elem_mul),
}
MUTATIONS = "+*^ []-,)01axt"
CONST_POWER = re.compile(r"(?<![A-Za-z_0-9])([01])\^(\d+)")


def corpus(grammar, seed, count):
    """Well-formed sums of products, then up to two character edits."""
    rng = random.Random(seed)
    atoms, refused = GRAMMARS[grammar][:2]
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = []
            for _ in range(rng.randint(1, 3)):
                f = rng.choice(refused if rng.random() < 0.05 else atoms)
                if rng.random() < 0.3:
                    f += rng.choice(("^0", "^1", "^2", "^3", " ^ 2", "^ 2"))
                factors.append(f)
            terms.append(rng.choice(("*", " * ")).join(factors))
        text = rng.choice(("+", " + ")).join(terms)
        for _ in range(rng.choice((0, 0, 1, 2))):
            at = rng.randint(0, len(text))
            edit = rng.random()
            if edit < 0.5:
                text = text[:at] + rng.choice(MUTATIONS) + text[at:]
            elif edit < 0.8:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at]
        # the dual oracle expands psi(z_i) even for z_i^0 (z_10 alone takes
        # a minute); test_zero_power_of_z_is_not_expanded covers the new reader
        if grammar == "dual" and re.search(r"z(\d\d|[5-9])", text):
            continue
        yield text


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ParseError, DegreeOverflowError, IndexError, ValueError) as exc:
        return exc


def factorwise(grammar, oracle, text):
    """The value of text from the oracle, one factor and power at a time."""
    one, add, mul = GRAMMARS[grammar][2:]
    total = None
    for term in text.split("+"):
        value = one
        for factor in term.split("*"):
            base, _, exp = re.sub(r"\s+", "", factor).partition("^")
            for _ in range(int(exp or 1)):
                # the coefficient oracle refuses 0, which is 1 + 1 over GF(2)
                value = mul(value, add(one, one) if base == "0" else oracle(base))
        total = value if total is None else add(total, value)
    return total


def changed_class(grammar, text, want, got):
    """The deliberate change that explains why want and got differ, or None."""
    if isinstance(want, (ParseError, IndexError)) and not isinstance(got, ParseError):
        # newly read; a dual term may then still be refused past the bound
        compact = re.sub(r"\s+", "", text)
        if CONST_POWER.search(compact):
            return "const-power"
        if grammar == "coeff" and re.search(r"\*th|\]\*|\]\^", compact):
            return "theta-product"
        if grammar == "coeff" and re.search(r"\s\^|th\s+\[", text):
            return "coeff-space"
        if grammar == "coeff" and re.search(r"(^|[+*])0($|[+*^])", compact):
            return "coeff-zero"
    elif not isinstance(want, Exception) and grammar == "coeff":
        if text.rstrip().endswith("*"):
            return "dangling-star"
        if "-0" in text:
            return "minus-zero"
    elif isinstance(want, DegreeOverflowError) and isinstance(got, ParseError):
        return "parse-before-overflow"
    elif isinstance(want, IndexError) and isinstance(got, ParseError):
        return "IndexError now ParseError"
    return None


def run_grammar(grammar, seed, count):
    """Compare every corpus input; returns the count of each outcome class."""
    counts = {}
    for n, text in enumerate(corpus(grammar, seed, count)):
        if grammar == "poly":
            gens = POLY_GENS if n % 2 else None
            want = outcome(oracle_parse_poly, text, gens)
            got = outcome(parse_poly, text, gens)
            oracle = lambda s, gens=gens: oracle_parse_poly(s, gens)  # noqa: E731
        elif grammar == "coeff":
            want = outcome(oracle_parse_coeff, text)
            got = outcome(parse_coeff, text)
            oracle = oracle_parse_coeff
        else:
            bound = (4, 10, 20)[n % 3]
            want = outcome(oracle_parse_expression, text, bound)
            got = outcome(ds.parse_expression, text, bound)
            oracle = oracle_parse_expression
        assert isinstance(got, (ParseError, DegreeOverflowError)) or not isinstance(
            got, Exception), (text, got)
        if not isinstance(want, Exception) and not isinstance(got, Exception):
            assert got == want, text
            label = "same value"
        elif type(want) is type(got):
            label = "both rejected"
        else:
            label = changed_class(grammar, text, want, got)
            assert label is not None, (text, want, got)
            if not isinstance(got, Exception):
                assert got == factorwise(grammar, oracle, text), text
        counts[label] = counts.get(label, 0) + 1
    return counts


@pytest.mark.parametrize("grammar, classes", [
    ("poly", {"same value", "both rejected", "IndexError now ParseError",
              "const-power"}),
    ("coeff", {"same value", "both rejected", "const-power",
               "theta-product", "coeff-space", "dangling-star",
               "coeff-zero"}),
    ("dual", {"same value", "both rejected", "const-power",
              "parse-before-overflow"}),
], ids=["poly", "coeff", "dual"])
def test_parser_matches_oracle(grammar, classes):
    counts = run_grammar(grammar, seed=2024, count=2000)
    assert set(counts) <= classes | {"minus-zero"}, counts
    assert classes <= set(counts), counts


def test_zero_power_of_z_is_not_expanded():
    # z_10^0 has dimension 0, so the bound lets it through; its power is 1
    # whatever psi(z_10) is, and psi(z_10) is not computed
    before = ds._psi_power_packed.cache_info().currsize
    assert ds.parse_expression("z10^0*x1", bound=4) == frozenset({ds.xi_mono(1)})
    assert ds._psi_power_packed.cache_info().currsize == before
