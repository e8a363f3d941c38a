"""The record semantics the ASTs and type terms rely on: exact-class
equality, hashing as the field tuple (which fixes set and dict order,
and so output bytes), the dataclass repr, immutability and defaults;
and that each class's methods are compiled on its first use, whichever
use that is, and by ``import nrcx`` only for the classes it builds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrcx.cli  # noqa: F401  (imports every module of the package)
from nrcx.decide import Verdict
from nrcx.frontend import IND, For, NProj1, NProj2, Var
from nrcx.record import record
from nrcx.rx import OracleSuite, Undefined
from nrcx.typeterms import PAPER_DATA_T, DataEncT, KAtom

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = str(Path(__file__).resolve().parent)


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
    assert len(names) >= 57


def test_equality_requires_the_exact_class():
    assert DataEncT() != PAPER_DATA_T and PAPER_DATA_T != DataEncT()
    assert hash(DataEncT()) == hash(PAPER_DATA_T)
    assert DataEncT() == DataEncT()
    assert NProj1(Var("x")) != NProj2(Var("x"))
    assert hash(NProj1(Var("x"))) == hash(NProj2(Var("x")))
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


# --- compiled on first use -------------------------------------------------

# Run in a fresh interpreter: the stubs' code, read from a class built
# here, and whether a class still holds a stub.
_PRELUDE = """
import json, sys
from nrcx.record import record

@record
class _Probe:
    x: object

STUBS = {n: _Probe.__dict__[n].__code__
         for n in ("__init__", "__eq__", "__hash__")}

def compiled(cls):
    return not any(getattr(cls.__dict__.get(n), "__code__", None) is code
                   for n, code in STUBS.items())

def record_classes():
    return {obj.__qualname__: obj
            for name, module in list(sys.modules.items())
            if name.startswith("nrcx.")
            for obj in vars(module).values()
            if isinstance(obj, type) and "_fields" in obj.__dict__
            and obj.__module__.startswith("nrcx.")}
"""

# The classes whose instances the import builds: the type and kind
# constants, the form table and the oracle suites.
BUILT_BY_IMPORT = [
    "AtomT", "CollT", "DataT", "ElemT", "EmptySeq", "KAtom", "KColl",
    "KData", "KElem", "KProd", "KSum", "OracleSuite", "ProdT", "Shape",
    "SingleT", "VoidT", "_Form"]


def _run(code, *flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), TESTS]))
    out = subprocess.run([sys.executable, *flags, "-c", _PRELUDE + code],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def test_import_compiles_only_the_classes_it_builds():
    # Counted, not timed: a class that the import builds needlessly
    # brings back its exec to every nrcx process.
    got = _run("""
import nrcx
from nrcx.frontend import KIND_ANY, For, Var
classes = record_classes()
at_import = sorted(n for n, cls in classes.items() if compiled(cls))
lazy = [compiled(classes[n]) for n in ("For", "Diff", "NComp")]
For("x", KIND_ANY, Var("R"), Var("x"))
built = [compiled(classes[n]) for n in ("For", "Var", "Diff", "NComp")]
print(json.dumps([at_import, lazy, built]))
""", "-B")
    at_import, lazy, built = got
    assert at_import == BUILT_BY_IMPORT
    assert lazy == [False, False, False]
    assert built == [True, True, False, False]


def _values(cls, prefix):
    return tuple(f"{prefix}{i}" for i in range(len(cls._fields)))


def _defaults(cls):
    """Each field's class-level default, read as record reads them."""
    out = {}
    for c in reversed(cls.__mro__):
        for name in c.__dict__.get("__annotations__", ()):
            out[name] = c.__dict__.get(name, _defaults)
    return {n: d for n, d in out.items() if d is not _defaults}


def _unpickled(cls, values):
    """An instance made without __init__, as unpickling makes one."""
    x = object.__new__(cls)
    for name, v in zip(cls._fields, values):
        object.__setattr__(x, name, v)
    return x


def _first_use_by_keyword(cls):
    values = _values(cls, "v")
    x = cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(x, n) for n in cls._fields) == values
    assert x == cls(*values) and hash(x) == hash(values)


def _first_use_with_defaults(cls):
    defaults = _defaults(cls)
    given = [n for n in cls._fields if n not in defaults]
    x = cls(*[f"v{i}" for i in range(len(given))])
    want = dict(zip(given, _values(cls, "v")), **defaults)
    assert {n: getattr(x, n) for n in cls._fields} == want


def _first_use_eq(cls):
    a = _unpickled(cls, _values(cls, "v"))
    b = _unpickled(cls, _values(cls, "v"))
    c = _unpickled(cls, _values(cls, "w"))
    assert a == b and (a == c) == (not cls._fields) and a != "v0"


def _first_use_hash(cls):
    values = _values(cls, "v")
    assert hash(_unpickled(cls, values)) == hash(values)


FIRST_USES = {"keyword": _first_use_by_keyword,
              "defaults": _first_use_with_defaults,
              "eq": _first_use_eq, "hash": _first_use_hash}


def _check_first_use(how):
    """In a fresh interpreter: every record class that import nrcx
    leaves uncompiled, used first as `how` says, works and then holds
    its generated methods.  Returns the names checked and the
    failures."""
    return _run(f"""
import test_records
import nrcx.cli
first_use = test_records.FIRST_USES[{how!r}]
checked, failures = [], []
for name, cls in sorted(record_classes().items()):
    if compiled(cls):
        continue
    checked.append(name)
    try:
        first_use(cls)
        init = cls.__dict__["__init__"]
        assert compiled(cls) and init.__code__.co_filename == "<string>"
    except Exception as exc:
        failures.append(f"{{name}}: {{exc!r}}")
print(json.dumps([checked, failures]))
""")


@pytest.mark.parametrize("how", sorted(FIRST_USES))
def test_methods_compile_on_any_first_use(how):
    checked, failures = _check_first_use(how)
    assert failures == []
    names = {cls.__qualname__ for cls in RECORD_CLASSES
             if "_fields" in cls.__dict__}
    assert set(checked) == names - set(BUILT_BY_IMPORT)
    assert "For" in checked and "Undefined" in checked


def test_a_subclass_can_build_the_first_instance_of_its_record():
    # DataEncT() builds a ProdT by ProdT.__init__, which is the stub if
    # no ProdT was built before.
    @record
    class Base:
        left: object
        right: object

    class Diagonal(Base):
        def __init__(self):
            Base.__init__(self, 1, 1)

    stub = Base.__dict__["__init__"]
    d = Diagonal()
    assert (d.left, d.right) == (1, 1) and hash(d) == hash((1, 1))
    assert d == Diagonal() and d != Base(1, 1) and Base(1, 1) == Base(1, 1)
    init = Base.__dict__["__init__"]
    assert init is not stub and init.__code__.co_filename == "<string>"
    # A stub fetched before the first use still works, and compiles
    # nothing again.
    x = object.__new__(Base)
    stub(x, 2, 3)
    assert x == Base(2, 3) and Base.__dict__["__init__"] is init
