"""Exact mod-2 equivariant symbolic computation for the group of order two.

Layers, bottom up: a GF(2) kernel (gf2), RO(C2) degrees (degree), the
coefficient ring with its Mackey chart (coefficients), finitely
presented unstable algebras with Steenrod squares (steenrod), the dual
equivariant Steenrod algebra (dual_steenrod), and conjugation-space
models with their frame checks (frames).
"""

from .coefficients import (CoeffElem, chart_lookup, chart_rows, coeff_a,
                           coeff_basis_monomial, coeff_degree, coeff_one,
                           coeff_pos, coeff_theta, coeff_u, coeff_zero,
                           format_coeff, parse_coeff, phi_shadow, restriction,
                           shadow_projection)
from .degree import ALPHA, ONE, RODegree, ZERO, diagonal, format_degree, parse_degree
from .dual_steenrod import (coproduct, elem_mul, eta_r, format_element,
                            normal_form, p_sequence, pair, parse_expression,
                            psi, psi_zeta, tau_mono, xi_mono)
from .errors import DegreeOverflowError, ModelError, ParseError
from .frames import (FrameReport, SpaceModel, build_frame, builtin_models,
                     cp_model, cp_product_model, frame_check, load_model,
                     load_model_file, model_to_dict, purity_check, save_model,
                     sphere_model, verify_conjugation_equation)
from .gf2 import Monomial, Poly, binom_mod2, format_poly, parse_poly
from .steenrod import (UnstableAlgebra, compute_R, polynomial_algebra,
                       steinberg, steinberg_residue, truncated_algebra)

__version__ = "0.1.0"

__all__ = [
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
