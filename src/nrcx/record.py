"""Immutable records, the classes of the ASTs and type terms.

``record`` reads a class's annotated fields, bases first, into
``cls._fields`` and gives it (unless its body defines them) an
``__init__`` by position or keyword, with class-level defaults, that
ends with ``__post_init__`` if defined; ``__eq__`` on the exact class;
``__hash__`` of the field tuple; a ``Name(field=value, ...)`` repr; and
no assignment or deletion.

``__init__``, ``__eq__`` and ``__hash__`` are generated source, compiled
by one small ``exec`` when the class is first used.  Until then the
class holds stubs: the first one called compiles the three methods,
sets them on the class in its own place and calls its own, so every
later call goes straight to the generated function.  nrcx defines some
fifty-five records; ``import nrcx`` builds 17 of them and a check of the
nested calculus fewer than half, so most classes are never compiled.
The frontend's printers are compiled per row the same way."""

_NO_DEFAULT = object()


def record(cls):
    fields = {}  # name -> class-level default
    for c in reversed(cls.__mro__):
        for name in c.__dict__.get("__annotations__", ()):
            fields[name] = c.__dict__.get(name, _NO_DEFAULT)
    compiled = {}

    def methods():
        # Once per class, since a stub fetched before the first call can
        # still run later.  Threads that race here compile equal methods.
        if not compiled:
            compiled.update(_compile(cls, fields))
            for name in lazy:
                setattr(cls, name, compiled[name])
        return compiled

    def __init__(self, *args, **kwargs):
        methods()["__init__"](self, *args, **kwargs)

    def __eq__(self, other):
        return methods()["__eq__"](self, other)

    def __hash__(self):
        return methods()["__hash__"](self)

    stubs = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__}
    lazy = [name for name in stubs if name not in cls.__dict__]
    for name, value in {"__repr__": _repr, "__setattr__": _frozen,
                        "__delattr__": _frozen, "_fields": tuple(fields),
                        **stubs}.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


def _compile(cls, fields):
    """The generated __init__, __eq__ and __hash__ of a record class."""
    defaults = {f"_d_{n}": d for n, d in fields.items() if d is not _NO_DEFAULT}
    params = [f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in fields]
    mine = "".join(f"self.{n}," for n in fields)
    post = " self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    src = [f"def __init__(self, {', '.join(params)}):", " pass",
           *[f" _set(self, {n!r}, {n})" for n in fields], post,
           "def __eq__(self, other):",
           " if other.__class__ is self.__class__:",
           f"  return ({mine}) == ({mine.replace('self.', 'other.')})",
           " return NotImplemented",
           f"def __hash__(self): return hash(({mine}))"]
    methods = {}
    exec("\n".join(src), {"_set": object.__setattr__, **defaults}, methods)
    return methods


def _repr(self):
    return "%s(%s)" % (type(self).__qualname__, ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self._fields))


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")
