"""The package's public names: each is loaded from its layer on first
use, and every way of reaching it gives the layer's own object."""

import importlib
import subprocess
import sys

import pytest

import conjspaces

# the public surface, written out so that a name dropped from the table
# in conjspaces/__init__.py shows up here as an edit
PUBLIC = [
    "ALPHA", "CoeffElem", "DegreeOverflowError", "FrameReport", "ModelError",
    "Monomial", "ONE", "ParseError", "Poly", "RODegree", "SpaceModel",
    "UnstableAlgebra", "ZERO", "binom_mod2", "build_frame", "builtin_models",
    "chart_lookup", "chart_rows", "coeff_a", "coeff_basis_monomial",
    "coeff_degree", "coeff_one", "coeff_pos", "coeff_theta", "coeff_u",
    "coeff_zero", "compute_R", "coproduct", "cp_model", "cp_product_model",
    "diagonal", "elem_mul", "eta_r", "format_coeff", "format_degree",
    "format_element", "format_poly", "frame_check", "load_model",
    "load_model_file", "model_to_dict", "normal_form", "p_sequence", "pair",
    "parse_coeff", "parse_degree", "parse_expression", "parse_poly", "phi_shadow",
    "polynomial_algebra", "psi", "psi_zeta", "purity_check", "restriction",
    "save_model", "shadow_projection", "sphere_model", "steinberg",
    "steinberg_residue", "tau_mono", "truncated_algebra",
    "verify_conjugation_equation", "xi_mono",
]


def test_public_names_are_pinned():
    assert conjspaces.__all__ == PUBLIC


def test_public_names_are_their_home_modules_objects():
    for name in PUBLIC:
        home = importlib.import_module(f"conjspaces.{conjspaces._HOME[name]}")
        assert getattr(conjspaces, name) is getattr(home, name), name
        assert vars(conjspaces)[name] is getattr(home, name), name
    assert set(PUBLIC) <= set(dir(conjspaces))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from conjspaces import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert all(namespace[n] is getattr(conjspaces, n) for n in PUBLIC)


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as exc:
        conjspaces.no_such_name  # noqa: B018
    assert str(exc.value) == "module 'conjspaces' has no attribute 'no_such_name'"


def test_names_load_their_layer_on_first_use():
    # a fresh interpreter, since this one has imported every layer
    code = ("import sys, conjspaces; "
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('conjspaces.')); "
            "print(loaded()); conjspaces.parse_degree; print(loaded()); "
            "from conjspaces import frames; print(frames.__name__, loaded())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['conjspaces.degree', 'conjspaces.errors', 'conjspaces.record']",
        "conjspaces.frames ['conjspaces.degree', 'conjspaces.errors', "
        "'conjspaces.frames', 'conjspaces.gf2', 'conjspaces.record', "
        "'conjspaces.steenrod']",
    ]
