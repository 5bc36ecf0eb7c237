"""The seven record types: fields, defaults, value equality, immutability and hashing.

Each is a named tuple subclass.  The two that validate (BosonString,
PolySystem) do so on every public way in, `_replace` and `_make` included;
the private `BosonString._of` is the unchecked constructor.
BosonString and ExpectedDynamics hash as the tuple of their fields;
SymmetryReport, EtaCheck, CheckResult and CheckReport are unhashable.
"""
from fractions import Fraction
from types import MappingProxyType

import pytest

from weylorder import (BosonString, EtaCheck, ExpectedDynamics, NormalPoly, PolySystem,
                       SymmetryReport, eta_decomposition_check, quantize_system,
                       symmetry_report)
from weylorder.verify import CheckReport, CheckResult, run_checks

ONE = NormalPoly.one()

# per type: a builder of one value, called twice for two equal instances, and one of another
SAMPLES = {
    BosonString: (lambda: BosonString((1, 0), (0, 1)), lambda: BosonString((1, 0), (0, 2))),
    SymmetryReport: (lambda: symmetry_report(2, 1),
                     lambda: SymmetryReport(2, 1, True, False, [])),
    EtaCheck: (lambda: eta_decomposition_check(1, 1, 0, 1),
               lambda: eta_decomposition_check(1, 1, 0, 0)),
    CheckResult: (lambda: CheckResult("hermiticity", 3, True),
                  lambda: CheckResult("hermiticity", 3, False, "x")),
    CheckReport: (lambda: run_checks(max_degree=1), lambda: CheckReport()),
    PolySystem: (lambda: PolySystem({(0, 1): 1}, {(1, 0): -1}), lambda: PolySystem({(0, 1): 1})),
    ExpectedDynamics: (lambda: quantize_system(PolySystem({(0, 1): 1})),
                       lambda: ExpectedDynamics(ONE, NormalPoly())),
}

FIELDS = {
    BosonString: ("r", "s"),
    SymmetryReport: ("j", "k", "pair_rule_ok", "odd_middle_ok", "failures"),
    EtaCheck: ("j", "k", "u", "v", "symbolic_sum", "lambda_value", "xi_value", "zeta_value"),
    CheckResult: ("name", "cases", "passed", "witness"),
    CheckReport: ("results",),
    PolySystem: ("qdot", "pdot"),
    ExpectedDynamics: ("qdot_op", "pdot_op", "hbar_note"),
}


def test_fields_in_order():
    assert set(FIELDS) == set(SAMPLES)
    for kind, fields in FIELDS.items():
        record = SAMPLES[kind][0]()
        assert kind._fields == fields
        assert tuple(getattr(record, name) for name in fields) == tuple(record)


def test_defaults():
    a, b = SymmetryReport(1, 1, True, True), SymmetryReport(1, 1, True, True)
    assert a.failures == [] and a.failures is not b.failures
    assert CheckResult("x", 1, True).witness == ""
    a, b = CheckReport(), CheckReport()
    assert a.results == [] and a.results is not b.results and a.ok
    assert ExpectedDynamics(ONE, ONE).hbar_note == ()
    empty = PolySystem()
    assert empty.qdot == {} and empty.pdot == {}
    assert isinstance(empty.qdot, MappingProxyType)


def test_equality_is_by_value():
    for kind, (make, other) in SAMPLES.items():
        assert make() == make(), kind
        assert make() != other(), kind
    assert BosonString((1,), (2,)) != BosonString((2,), (1,))
    assert PolySystem({(0, 1): Fraction(2, 2)}) == PolySystem({(0, 1): 1, (1, 1): 0})


@pytest.mark.parametrize("kind", SAMPLES, ids=lambda kind: kind.__name__)
def test_records_are_immutable(kind):
    record = SAMPLES[kind][0]()
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == SAMPLES[kind][0]()


def test_which_records_hash():
    x = BosonString((1, 0), (0, 1))
    assert hash(x) == hash(((1, 0), (0, 1))) == hash(BosonString((1, 0), (0, 1)))
    assert len({x, BosonString((1, 0), (0, 1)), BosonString((1,), (1,))}) == 2
    assert hash(ExpectedDynamics(ONE, ONE)) == hash((ONE, ONE, ()))
    unhashable = [
        PolySystem(),  # its mappings are unhashable
        quantize_system(PolySystem({(0, 1): 1})),  # its hbar_note holds dicts
        eta_decomposition_check(1, 1, 0, 1),
        CheckResult("x", 1, True),
        SymmetryReport(1, 1, True, True, ()),
        CheckReport(()),
    ]
    for record in unhashable:
        with pytest.raises(TypeError):
            hash(record)


def test_eta_check_matches_follows_its_fields():
    check = eta_decomposition_check(1, 1, 0, 1)
    assert check.matches
    broken = check._replace(symbolic_sum=check.symbolic_sum + 1)
    assert not broken.matches and check.matches
    assert broken._replace(symbolic_sum=check.symbolic_sum).matches
    assert not EtaCheck(1, 1, 0, 0, Fraction(1), 1, Fraction(1), 2).matches
    assert "matches" not in repr(check)


def test_validation_on_every_way_in():
    x = BosonString((1, 0), (0, 1))
    for bad in ({"r": (1,)}, {"r": ()}, {"s": (0, -1)}):
        with pytest.raises(ValueError):
            x._replace(**bad)
    with pytest.raises(ValueError):
        BosonString._make(((), ()))
    assert x._replace(s=(2, 0)) == BosonString((1, 0), (2, 0))
    assert BosonString._make([(1,), (1,)]) == BosonString((1,), (1,))

    system = PolySystem({(0, 1): 1})
    for bad in ({(0, 1): 0.5}, {(-1, 0): 1}, {(0, True): 1}):
        with pytest.raises(ValueError):
            system._replace(pdot=bad)
        with pytest.raises(ValueError):
            PolySystem._make((bad, {}))
    changed = system._replace(pdot={(1, 0): -1, (2, 0): 0})
    assert changed.pdot == {(1, 0): Fraction(-1)} and isinstance(changed.pdot, MappingProxyType)
    assert changed.qdot == system.qdot
