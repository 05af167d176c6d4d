"""The value-type contract: construction, equality, hashing, immutability,
order and repr of the package's record classes.

Frozen types compare field-wise only against their own class, hash
their field tuple and refuse assignment; the mutable records compare
field-wise and are unhashable.  Reprs read ``Name(field=value, ...)``.
"""

import copy
import pickle

import pytest

from conjspaces import frames as fr
from conjspaces import steenrod as st
from conjspaces.coefficients import (SHAPE_FBAR, CoeffElem, LaurentElem,
                                     MackeyShape)
from conjspaces.degree import RODegree
from conjspaces.gf2 import Poly

X1 = (("x", 1),)
TERMS = frozenset({X1, ()})


def frozen_pairs():
    """Two equal, separately built values of every frozen type."""
    return [
        (RODegree(1, 2), RODegree(p=1, q=2)),
        (Poly(TERMS), Poly(terms=frozenset(TERMS))),
        (st.BPoly(frozenset({(1, X1)})), st.BPoly(terms=frozenset({(1, X1)}))),
        (CoeffElem(frozenset({(1, 0)}), frozenset({(0, 2)})),
         CoeffElem(pos=frozenset({(1, 0)}), neg=frozenset({(0, 2)}))),
        (MackeyShape("Fbar", 1, 1, 1, 0, 1), SHAPE_FBAR),
        (LaurentElem(frozenset({(-1, 2)})),
         LaurentElem(terms=frozenset({(-1, 2)}))),
    ]


@pytest.mark.parametrize("a,b", frozen_pairs(),
                         ids=lambda v: type(v).__name__)
def test_frozen_equal_values_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("a,_", frozen_pairs(),
                         ids=lambda v: type(v).__name__)
def test_frozen_assignment_raises(a, _):
    name = next(n for n in ("terms", "p", "pos", "tag")
                if hasattr(a, n))
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, before)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) is before


@pytest.mark.parametrize("a,_", frozen_pairs(),
                         ids=lambda v: type(v).__name__)
def test_frozen_copy_and_pickle(a, _):
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_equality_is_per_class_and_field_wise():
    assert Poly(TERMS) != st.BPoly(TERMS)
    assert st.BPoly(TERMS) != Poly(TERMS)
    assert Poly(TERMS) != TERMS
    assert RODegree(1, 2) != (1, 2)
    assert RODegree(1, 2) != RODegree(2, 1)
    assert CoeffElem(frozenset(), frozenset({(0, 2)})) != \
        CoeffElem(frozenset({(0, 2)}), frozenset())
    assert LaurentElem(TERMS) != Poly(TERMS)


def test_hash_is_the_field_tuple():
    assert hash(Poly(TERMS)) == hash((TERMS,))
    assert hash(RODegree(3, -1)) == hash((3, -1))
    pos, neg = frozenset({(1, 0)}), frozenset({(0, 2)})
    assert hash(CoeffElem(pos, neg)) == hash((pos, neg))


def test_rodegree_orders_as_p_then_q():
    degrees = [RODegree(p, q) for p in (1, -2, 0) for q in (3, 0, -1)]
    assert sorted(degrees) == sorted(degrees, key=lambda d: (d.p, d.q))
    assert RODegree(0, 5) < RODegree(1, -5) <= RODegree(1, -5)
    assert RODegree(1, 0) > RODegree(0, 9) >= RODegree(0, 9)
    assert max(degrees) == RODegree(1, 3)
    with pytest.raises(TypeError):
        RODegree(0, 0) < (1, 0)


def test_rodegree_defaults():
    assert RODegree() == RODegree(0, 0) == RODegree(q=0)
    assert RODegree(2) == RODegree(p=2, q=0)


def test_reprs():
    assert repr(RODegree(1, -2)) == "RODegree(p=1, q=-2)"
    assert repr(Poly(frozenset({X1}))) == \
        "Poly(terms=frozenset({(('x', 1),)}))"
    assert repr(st.BPoly(frozenset())) == "BPoly(terms=frozenset())"
    assert repr(CoeffElem(frozenset(), frozenset({(0, 2)}))) == \
        "CoeffElem(pos=frozenset(), neg=frozenset({(0, 2)}))"
    assert repr(SHAPE_FBAR) == ("MackeyShape(tag='Fbar', dim_pt=1, dim_c2=1, "
                                "rho=1, tr=0, theta=1)")
    assert repr(LaurentElem(frozenset())) == "LaurentElem(terms=frozenset())"
    assert repr(fr.Verdict("purity", True)) == \
        "Verdict(name='purity', ok=True, detail='', witness=None)"
    assert repr(fr.PurityResult(True)) == ("PurityResult(ok=True, module=None, "
                                           "reason='', degree=None, dims=None)")
    assert repr(fr.FreeHFModule((("1", 0),))) == \
        "FreeHFModule(generators=(('1', 0),))"


def test_mutable_records():
    v = fr.Verdict("purity", True)
    assert v == fr.Verdict(name="purity", ok=True, detail="", witness=None)
    assert v != fr.Verdict("purity", False)
    v.detail = "changed"
    assert v.detail == "changed"
    with pytest.raises(TypeError):
        hash(v)
    assert fr.PurityResult(False, reason="odd", degree=1, dims=(1,)).dims == (1,)
    assert fr.FreeHFModule(()).generators == ()


def test_model_records_compare_field_wise():
    model = fr.cp_model(2)
    same = fr.SpaceModel(model.name, model.even, model.fixed,
                         dict(model.kappa0), model.bound)
    assert same == model
    assert fr.SpaceModel(model.name, model.even, model.fixed, {},
                         model.bound) != model
    rmod = st.compute_R(model.fixed, 2)
    assert rmod == st.RModule(2, rmod.dims)


@pytest.mark.parametrize("args", [(), (1, 2, 3)])
def test_constructor_arity(args):
    with pytest.raises(TypeError):
        Poly(*args)
