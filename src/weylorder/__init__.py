"""Exact normal-ordered Weyl orderings of q^j p^k, by four cross-checked routes."""

from .altroutes import (BosonString, blasiak_coeff, blasiak_normal_order, blockify,
                        cg_weyl_monomial, weyl_via_cg)
from .closedform import (SymmetryReport, h_coeff, h_slots, lambda_factor, symmetry_report,
                         weyl_normal_form, xi_factor, zeta_gamma, zeta_poly, zeta_range,
                         zeta_row, zeta_sum)
from .enumeration import (CapExceededError, EtaCheck, distinct_orderings,
                          eta_decomposition_check, weyl_bruteforce, weyl_forced)
from .poly import (ANNIHILATE, CREATE, P, Q, NormalPoly, expand_qp_word,
                   normal_order_word)
from .quantize import ExpectedDynamics, PolySystem, quantize_side, quantize_system
from .scalar import Scalar
from .textio import ParseError, SystemFormatError, load_system, parse_boson_word, render
from .verify import run_checks

# The supported surface.  Submodules stay importable but are not exported.
__all__ = [
    # routes to the normal form of the Weyl ordering of q^j p^k
    "weyl_normal_form", "weyl_bruteforce", "weyl_forced", "weyl_via_cg",
    # closed-form coefficients, the four zeta forms and the symmetry checks
    "h_coeff", "h_slots", "lambda_factor", "xi_factor",
    "zeta_sum", "zeta_poly", "zeta_gamma", "zeta_range", "zeta_row",
    "SymmetryReport", "symmetry_report",
    # the per-word reference oracle and the eta decomposition check
    "distinct_orderings", "expand_qp_word", "EtaCheck", "eta_decomposition_check",
    "CapExceededError",
    # normal ordering of boson words: rewriting and the Blasiak formula
    "ANNIHILATE", "CREATE", "P", "Q", "NormalPoly", "normal_order_word",
    "BosonString", "blockify", "blasiak_coeff", "blasiak_normal_order",
    "cg_weyl_monomial",
    # the coefficient ring
    "Scalar",
    # quantization of polynomial systems
    "PolySystem", "ExpectedDynamics", "quantize_side", "quantize_system",
    # text input and output
    "ParseError", "SystemFormatError", "load_system", "parse_boson_word", "render",
    # the cross-method verification sweep
    "run_checks",
]
