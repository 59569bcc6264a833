"""Contracts of the package's immutable records (typing.NamedTuple classes)
and a start-up guard: importing lnd generates no dataclass code."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lnd
from lnd.arith import XYZ, YZ, ZP, Poly
from lnd.delta_family import NElem
from lnd.derivations import Derivation
from lnd.errors import LawHypothesisError, RingMismatchError
from lnd.groupmodel import CharacterVector, GElem, GroupLaw
from lnd.quotient_geometry import PlaneAut, PlaneDivisor
from lnd.runner import Entry
from lnd.syntax import parse_poly


def _lnd_classes():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lnd"]
    return {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__.startswith("lnd.")
    }


def _records():
    return sorted(
        (cls for cls in _lnd_classes() if issubclass(cls, tuple) and hasattr(cls, "_fields")),
        key=lambda cls: cls.__qualname__,
    )


CV = CharacterVector
ZERO_XYZ, ZERO_ZP = Poly.zero(XYZ), Poly.zero(ZP)

# (constructor, arguments, exception type, exact message)
BAD_CONSTRUCTIONS = [
    (NElem, (ZERO_XYZ, ZERO_ZP), RingMismatchError, "NElem components live in the (z, P) ring"),
    (NElem, (parse_poly("P", ZP), ZERO_ZP), ValueError, "h component must lie in Q[z]: P"),
    (Derivation, (ZERO_XYZ, ZERO_ZP, ZERO_XYZ), RingMismatchError,
     "derivation images must live in (x, y, z)"),
    (GroupLaw, (CV((1,)), CV((1,)), CV((1,)), CV((1, 2)), Poly.one(ZP)), ValueError,
     "character vectors have mixed ranks"),
    (GroupLaw, (CV((1,)), CV((1,)), CV((1,)), CV((0,)), parse_poly("P", ZP)), RingMismatchError,
     "a' must be a z-polynomial in the (z, P) ring"),
    (GroupLaw, (CV((1,)), CV((1,)), CV((1,)), CV((0,)), ZERO_ZP), ValueError,
     "a' must be nonzero"),
    (GroupLaw, (CV((0,)), CV((1,)), CV((0,)), CV((0,)), parse_poly("z", ZP)), LawHypothesisError,
     "incompatible law: rho1^m != rho2 * nu on the support of a'"),
    (GElem, ((Fraction(1),), ZERO_XYZ, ZERO_ZP), RingMismatchError,
     "GElem components live in the (z, P) ring"),
    (GElem, ((Fraction(1),), parse_poly("P", ZP), ZERO_ZP), ValueError,
     "h component must lie in Q[z]"),
    (GElem, ((Fraction(0),), ZERO_ZP, ZERO_ZP), ValueError, "torus coordinates must be nonzero"),
    (PlaneDivisor, (Poly.one(XYZ),), RingMismatchError, "divisor polynomial must live in (y, z)"),
    (PlaneDivisor, (Poly.zero(YZ),), ValueError, "divisor polynomial must be nonzero"),
    (PlaneAut, (Poly.zero(XYZ), Poly.zero(YZ)), RingMismatchError,
     "plane pullbacks must live in (y, z)"),
    (PlaneAut, (Poly.zero(YZ), Poly.zero(ZP)), RingMismatchError,
     "plane pullbacks must live in (y, z)"),
]

GOOD = {
    NElem: (ZERO_ZP, ZERO_ZP),
    Derivation: (ZERO_XYZ, ZERO_XYZ, ZERO_XYZ),
    GroupLaw: (CV((0,)), CV((1,)), CV((1,)), CV((0,)), parse_poly("z", ZP)),
    GElem: ((Fraction(1),), ZERO_ZP, ZERO_ZP),
    PlaneDivisor: (Poly.one(YZ),),
    PlaneAut: (Poly.variable(YZ, "y"), Poly.variable(YZ, "z")),
}


@pytest.mark.parametrize(
    "cls, args, error, message",
    BAD_CONSTRUCTIONS,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(BAD_CONSTRUCTIONS)],
)
def test_validating_records_reject_bad_fields(cls, args, error, message):
    with pytest.raises(error) as direct:
        cls(*args)
    assert str(direct.value) == message
    # _replace builds through the same checks
    good = cls(*GOOD[cls])
    with pytest.raises(error) as replaced:
        good._replace(**dict(zip(cls._fields, args)))
    assert str(replaced.value) == message


def test_every_public_record_is_immutable():
    records = [cls for cls in _records() if not cls.__name__.startswith("_")]
    names = {cls.__name__ for cls in records}
    assert set(GOOD) | {CharacterVector, Entry} <= set(records)
    assert {"Token", "Directive", "DeltaContext", "Report"} <= names
    for cls in records:
        record = tuple.__new__(cls, (None,) * len(cls._fields))
        assert not hasattr(record, "__dict__"), cls
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def test_character_vector_arithmetic_is_componentwise():
    a, b = CharacterVector((1, -2, 3)), CharacterVector((4, 5, -6))
    assert a + b == CharacterVector((5, 3, -3))
    assert a * 3 == 3 * a == CharacterVector((3, -6, 9))
    assert a * -1 + a == CharacterVector((0, 0, 0))


def test_entry_extra_defaults_to_empty():
    assert Entry("check x()", "PASS", "ok").extra == ()


def test_import_generates_no_dataclass_code(tmp_path):
    # Nor does lnd import inspect (about 7 ms and 0.7 MB a process), not even
    # to report a directive whose arguments do not bind.
    src = str(Path(lnd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    target = tmp_path / "unbound.corpus"
    target.write_text(
        "derivation D { x -> -2*y; y -> z; z -> 0 }\ncheck exp_log_roundtrip(D, D)\n"
    )
    probe = (
        "import sys, lnd.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules); "
        f"code = lnd.cli.main(['check', {str(target)!r}]); print(code, 'inspect' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "False False",
        "ERROR exp_log_roundtrip(D, D) — too many positional arguments",
        "summary: 0/0/1",
        "1 False",
    ]
    assert not [cls for cls in _lnd_classes() if hasattr(cls, "__dataclass_fields__")]
