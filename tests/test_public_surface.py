import weylorder

PUBLIC = [
    "ANNIHILATE", "BosonString", "CREATE", "CapExceededError", "EtaCheck",
    "ExpectedDynamics", "NormalPoly", "P", "ParseError", "PolySystem", "Q", "Scalar",
    "SymmetryReport", "SystemFormatError", "altroutes", "binom", "blasiak_coeff",
    "blasiak_normal_order", "blockify", "cg_weyl_monomial", "closedform",
    "distinct_orderings", "enumeration", "eta_decomposition_check", "expand_qp_word",
    "h_coeff", "h_slots", "lambda_factor", "load_system", "normal_order_word",
    "parse_boson_word", "parse_qp_monomial", "parse_qp_poly", "poly", "quantize",
    "quantize_side", "quantize_system", "render", "render_boson_word", "render_qp_poly",
    "run_checks", "scalar", "symmetry_report", "textio", "verify", "weyl_bruteforce",
    "weyl_forced", "weyl_normal_form", "weyl_via_cg", "xi_factor", "zeta_gamma",
    "zeta_poly", "zeta_range", "zeta_row", "zeta_sum",
]


def test_public_names_are_pinned():
    # A new public name, or a dead one left behind, must show up here as a diff.
    assert sorted(weylorder.__all__) == PUBLIC
