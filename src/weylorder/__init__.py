"""Exact normal-ordered Weyl orderings of q^j p^k, by four cross-checked routes."""

from .altroutes import (BosonString, blasiak_coeff, blasiak_normal_order, blockify,
                        cg_weyl_monomial, weyl_via_cg)
from .closedform import (SymmetryReport, binom, h_coeff, h_slots, lambda_factor,
                         symmetry_report, weyl_normal_form, xi_factor, zeta_gamma, zeta_poly,
                         zeta_range, zeta_row, zeta_sum)
from .enumeration import (CapExceededError, EtaCheck, distinct_orderings,
                          eta_decomposition_check, weyl_bruteforce, weyl_forced)
from .poly import (ANNIHILATE, CREATE, P, Q, NormalPoly, expand_qp_word,
                   normal_order_word)
from .quantize import ExpectedDynamics, PolySystem, quantize_side, quantize_system
from .scalar import Scalar
from .textio import (ParseError, SystemFormatError, load_system, parse_boson_word,
                     parse_qp_monomial, parse_qp_poly, render, render_boson_word,
                     render_qp_poly)
from .verify import run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
