import types

import weylorder

PUBLIC = [
    "ANNIHILATE", "BosonString", "CREATE", "CapExceededError", "EtaCheck",
    "ExpectedDynamics", "NormalPoly", "P", "ParseError", "PolySystem", "Q", "Scalar",
    "SymmetryReport", "SystemFormatError", "blasiak_coeff", "blasiak_normal_order",
    "blockify", "cg_weyl_monomial", "distinct_orderings", "eta_decomposition_check",
    "expand_qp_word", "h_coeff", "h_slots", "lambda_factor", "load_system",
    "normal_order_word", "parse_boson_word", "quantize_side", "quantize_system", "render",
    "run_checks", "symmetry_report", "weyl_bruteforce", "weyl_forced", "weyl_normal_form",
    "weyl_via_cg", "xi_factor", "zeta_gamma", "zeta_poly", "zeta_range", "zeta_row",
    "zeta_sum",
]


def test_public_names_are_pinned():
    # A new public name, or a dead one left behind, must show up here as a diff.
    assert sorted(weylorder.__all__) == PUBLIC


def test_public_names_are_a_contract():
    assert len(set(weylorder.__all__)) == len(weylorder.__all__)
    for name in weylorder.__all__:
        value = getattr(weylorder, name)  # every entry resolves
        assert not isinstance(value, types.ModuleType), f"{name} is a submodule"
    namespace = {}
    exec("from weylorder import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
