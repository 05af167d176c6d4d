"""Exact mod-2 equivariant symbolic computation for the group of order two.

Layers, bottom up: a GF(2) kernel (gf2), RO(C2) degrees (degree), the
coefficient ring with its Mackey chart (coefficients), finitely
presented unstable algebras with Steenrod squares (steenrod), the dual
equivariant Steenrod algebra (dual_steenrod), and conjugation-space
models with their frame checks (frames).

The public names are listed once, in ``_HOMES`` by the layer that
defines them.  A layer is imported on first use of one of its names
(PEP 562), so ``import conjspaces`` loads none, and a command-line
process loads only the layers its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "coefficients": (
        "CoeffElem", "chart_lookup", "chart_rows", "coeff_a",
        "coeff_basis_monomial", "coeff_degree", "coeff_one", "coeff_pos",
        "coeff_theta", "coeff_u", "coeff_zero", "format_coeff", "parse_coeff",
        "phi_shadow", "restriction", "shadow_projection"),
    "degree": ("ALPHA", "ONE", "RODegree", "ZERO", "diagonal", "format_degree",
               "parse_degree"),
    "dual_steenrod": (
        "coproduct", "elem_mul", "eta_r", "format_element", "normal_form",
        "p_sequence", "pair", "parse_expression", "psi", "psi_zeta",
        "tau_mono", "xi_mono"),
    "errors": ("DegreeOverflowError", "ModelError", "ParseError"),
    "frames": (
        "FrameReport", "SpaceModel", "build_frame", "builtin_models",
        "cp_model", "cp_product_model", "frame_check", "load_model",
        "load_model_file", "model_to_dict", "purity_check", "save_model",
        "sphere_model", "verify_conjugation_equation"),
    "gf2": ("Monomial", "Poly", "binom_mod2", "format_poly", "parse_poly"),
    "steenrod": ("UnstableAlgebra", "compute_R", "polynomial_algebra",
                 "steinberg", "steinberg_residue", "truncated_algebra"),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the layer that defines a public name, and keep the value."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
