"""The record semantics the ASTs and type terms rely on: exact-class
equality, hashing as the field tuple (which fixes set and dict order,
and so output bytes), the dataclass repr, immutability and defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrcx.cli  # noqa: F401  (imports every module of the package)
from nrcx.decide import Verdict
from nrcx.frontend import IND, For, NVar, Var
from nrcx.rx import OracleSuite, Undefined
from nrcx.typeterms import PAPER_DATA_T, DataEncT, KAtom

SRC = Path(__file__).resolve().parent.parent / "src"


def _record_classes():
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("nrcx."):
            for obj in vars(module).values():
                if (isinstance(obj, type) and hasattr(obj, "_fields")
                        and obj.__module__.startswith("nrcx.")):
                    found[obj.__qualname__] = obj
    return [found[k] for k in sorted(found)]


RECORD_CLASSES = _record_classes()


def test_record_classes_are_found():
    names = {cls.__qualname__ for cls in RECORD_CLASSES}
    assert {"For", "NComp", "IND", "SumT", "DataEncT", "KSum", "Undefined",
            "OracleSuite", "Verdict", "Shape", "_Form"} <= names
    assert len(names) >= 63


def test_equality_requires_the_exact_class():
    assert DataEncT() != PAPER_DATA_T and PAPER_DATA_T != DataEncT()
    assert hash(DataEncT()) == hash(PAPER_DATA_T)
    assert DataEncT() == DataEncT()
    assert Var("x") != NVar("x") and hash(Var("x")) == hash(NVar("x"))
    assert Var("x") != "x"


@pytest.mark.parametrize("cls", RECORD_CLASSES,
                         ids=[c.__qualname__ for c in RECORD_CLASSES])
def test_hash_is_the_hash_of_the_field_tuple(cls):
    if cls is DataEncT:
        x = DataEncT()
    else:
        x = cls(*[f"v{i}" for i in range(len(cls._fields))])
    values = tuple(getattr(x, name) for name in cls._fields)
    assert hash(x) == hash(values)


def test_repr_names_every_field():
    e = For("x", KAtom(), Var("R"), Var("x"))
    assert repr(e) == ("For(var='x', kind=KAtom(), source=Var(name='R'), "
                       "body=Var(name='x'))")


def test_fields_cannot_be_assigned_or_deleted():
    e = Var("x")
    with pytest.raises(AttributeError):
        e.name = "y"
    with pytest.raises(AttributeError):
        del e.name
    with pytest.raises(AttributeError):
        e.other = 1
    assert e.name == "x"


def test_positional_and_keyword_construction_agree():
    parts = ("x", KAtom(), Var("R"), Var("x"))
    assert For(*parts) == For(var="x", kind=KAtom(), source=Var("R"),
                              body=Var("x"))
    assert For(*parts) == For("x", KAtom(), body=Var("x"), source=Var("R"))
    assert Verdict(True, None, {}) == Verdict(result=True,
                                             counterexample=None, bounds={})
    with pytest.raises(TypeError):
        For("x", KAtom(), Var("R"))


def test_defaults_and_post_init():
    assert Undefined("r").expr is None
    assert Undefined("r", Var("x")).expr == Var("x")
    assert OracleSuite(len, len).name == "oracle"
    with pytest.raises(ValueError):
        IND(("a",), ())


def test_import_loads_neither_dataclasses_nor_inspect_nor_typing():
    # A stray @dataclass or heavy import would bring back the start-up
    # cost of every nrcx process.
    code = ("import sys; before = set(sys.modules); import nrcx.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
