"""ASTs, parsers, and printers for the five input languages.

Concrete syntax is s-expressions throughout (see docs/grammar.md).
``parse`` / ``print_expr`` round-trip on ASTs; variables are bare
symbols, atom literals are written ``(lit a)``.  The regular forms of
each expression language are rows of a form table (``RX_FORMS``,
``PENRC_FORMS``, ``RA_FORMS``) that drives parsing, printing, child
traversal and desugaring.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from . import sexpr
from .sexpr import ParseError
from .values import Atom
from .typeterms import (AtomT, CollT, DataT, ElemT, KAtom, KColl, KData,
                        KElem, KProd, KSum, KIND_ANY, ProdT, SingleT, SumT,
                        VoidT)

LANGUAGES = ("rx", "pure-rx", "penrc", "ra", "deps")


# ---------------------------------------------------------------------------
# RX / pure RX expressions.  Pure RX shares the constructors and adds
# the singleton constructor Sing; sugar forms MultiFor and CondIf
# desugar to core (see desugar()).


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class AtomLit:
    atom: Atom


@dataclass(frozen=True)
class Text:
    body: object


@dataclass(frozen=True)
class Elem:
    name_expr: object
    content: object


@dataclass(frozen=True)
class DataF:
    body: object


@dataclass(frozen=True)
class NameF:
    body: object


@dataclass(frozen=True)
class ChildrenF:
    body: object


@dataclass(frozen=True)
class EmptySeq:
    pass


@dataclass(frozen=True)
class Seq:
    left: object
    right: object


@dataclass(frozen=True)
class Sing:
    body: object


@dataclass(frozen=True)
class For:
    var: str
    kind: object
    source: object
    body: object


@dataclass(frozen=True)
class IfEq:
    left: object
    right: object
    then: object
    els: object


@dataclass(frozen=True)
class IfEmpty:
    cond: object
    then: object
    els: object


@dataclass(frozen=True)
class IfType:
    cond: object
    type: object
    then: object
    els: object


@dataclass(frozen=True)
class MultiFor:
    bindings: tuple  # ((var, source_expr), ...)
    kind: object
    body: object


@dataclass(frozen=True)
class CondIf:
    cond: object
    then: object
    els: object


@dataclass(frozen=True)
class CEq:
    left: object
    right: object


@dataclass(frozen=True)
class CAnd:
    left: object
    right: object


@dataclass(frozen=True)
class COr:
    left: object
    right: object


@dataclass(frozen=True)
class CNot:
    arg: object


# ---------------------------------------------------------------------------
# PENRC[kind] expressions (plus the full-NRC emptiness test NEmptyCond,
# which the evaluator accepts but the decision procedures reject).


@dataclass(frozen=True)
class NVar:
    name: str


@dataclass(frozen=True)
class NAtomLit:
    atom: Atom


@dataclass(frozen=True)
class NPair:
    left: object
    right: object


@dataclass(frozen=True)
class NProj1:
    body: object


@dataclass(frozen=True)
class NProj2:
    body: object


@dataclass(frozen=True)
class NEmpty:
    pass


@dataclass(frozen=True)
class NSing:
    body: object


@dataclass(frozen=True)
class NUnion:
    left: object
    right: object


@dataclass(frozen=True)
class NFlatten:
    body: object


@dataclass(frozen=True)
class NComp:
    var: str
    source: object
    body: object


@dataclass(frozen=True)
class NEqCond:
    left: object
    right: object
    then: object
    els: object


@dataclass(frozen=True)
class NKindCond:
    subject: object
    kind: object
    then: object
    els: object


@dataclass(frozen=True)
class NEmptyCond:
    cond: object
    then: object
    els: object


# ---------------------------------------------------------------------------
# Relational algebra and dependencies.


@dataclass(frozen=True)
class Relation:
    name: str


@dataclass(frozen=True)
class Select:
    attr1: str
    attr2: str
    arg: object


@dataclass(frozen=True)
class Project:
    attrs: tuple
    arg: object


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Rename:
    old: str
    new: str
    arg: object


@dataclass(frozen=True)
class RaUnion:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class FD:
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class IND:
    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        if len(self.lhs) != len(self.rhs):
            raise ValueError("inclusion dependency lists must have equal length")


# ---------------------------------------------------------------------------
# Free variables.


def free_vars(e) -> frozenset:
    if isinstance(e, (Var, NVar, Relation)):
        return frozenset([e.name])
    if isinstance(e, (For, NComp)):
        src = e.source
        return free_vars(src) | (free_vars(e.body) - {e.var})
    if isinstance(e, MultiFor):
        out = frozenset()
        bound = set()
        for var, src in e.bindings:
            out |= free_vars(src) - bound
            bound.add(var)
        return out | (free_vars(e.body) - bound)
    out = frozenset()
    for child in _children(e):
        out |= free_vars(child)
    return out


def _children(e):
    """Direct subexpressions of e, the operands of its conditions
    included (not kinds or types)."""
    form = _BY_CLASS.get(type(e))
    if form is not None:
        return tuple(map(e.__getattribute__, form.exprs))
    if isinstance(e, (Var, NVar)):
        return ()
    if isinstance(e, MultiFor):
        return tuple(src for _, src in e.bindings) + (e.body,)
    if isinstance(e, CondIf):
        return _cond_operands(e.cond) + (e.then, e.els)
    raise TypeError(f"not an expression: {e!r}")


def _cond_operands(c):
    if isinstance(c, CEq):
        return (c.left, c.right)
    if isinstance(c, (CAnd, COr)):
        return _cond_operands(c.left) + _cond_operands(c.right)
    if isinstance(c, CNot):
        return _cond_operands(c.arg)
    raise TypeError(f"not a condition: {c!r}")


def literals(e) -> frozenset:
    """All atoms occurring as literals in e."""
    if isinstance(e, (AtomLit, NAtomLit)):
        return frozenset([e.atom])
    out = frozenset()
    for child in _children(e):
        out |= literals(child)
    return out


# ---------------------------------------------------------------------------
# Desugaring (RX / pure RX sugar -> core constructors).


def desugar(e):
    """Unroll MultiFor into nested For and boolean conditions into
    nested IfEq with shared branches; identity on core constructors."""
    if isinstance(e, MultiFor):
        body = desugar(e.body)
        for var, src in reversed(e.bindings):
            body = For(var, e.kind, desugar(src), body)
        return body
    if isinstance(e, CondIf):
        return _desugar_cond(e.cond, desugar(e.then), desugar(e.els))
    if isinstance(e, (Var, NVar)):
        return e
    form = _BY_CLASS.get(type(e))
    if form is None:
        raise TypeError(f"not an expression: {e!r}")
    args = []
    for name, shape in form.args:
        v = getattr(e, name)
        args.append(desugar(v) if shape is EXPR else v)
    return form.cls(*args)


def _desugar_cond(c, then, els):
    if isinstance(c, CEq):
        return IfEq(desugar(c.left), desugar(c.right), then, els)
    if isinstance(c, CAnd):
        return _desugar_cond(c.left, _desugar_cond(c.right, then, els), els)
    if isinstance(c, COr):
        return _desugar_cond(c.left, then, _desugar_cond(c.right, then, els))
    if isinstance(c, CNot):
        return _desugar_cond(c.arg, els, then)
    raise TypeError(f"not a condition: {c!r}")


def seq_of(exprs):
    """Right-fold a list of RX expressions into Seq; () for the empty list."""
    exprs = list(exprs)
    if not exprs:
        return EmptySeq()
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Seq(e, out)
    return out


# ---------------------------------------------------------------------------
# Type / kind concrete syntax.


def parse_type(sx):
    if isinstance(sx, str):
        raise ParseError(f"expected a type, got symbol {sx!r}")
    if not sx:
        raise ParseError("empty type form")
    head = sx[0]
    if head == "atom" and len(sx) == 1:
        return AtomT()
    if head == "data" and len(sx) == 1:
        return DataT()
    if head == "void" and len(sx) == 1:
        return VoidT()
    if head == "elem":
        if len(sx) == 1:
            return ElemT(VoidT())
        parts = [parse_type(p) for p in sx[1:]]
        if len(parts) == 1 and isinstance(parts[0], (CollT, SingleT)):
            return ElemT(parts[0])
        content = parts[-1]
        for p in reversed(parts[:-1]):
            content = SumT(p, content)
        return ElemT(content)
    if head == "coll" and len(sx) == 2:
        return CollT(parse_type(sx[1]))
    if head == "single" and len(sx) == 2:
        return SingleT(parse_type(sx[1]))
    if head == "prod" and len(sx) == 3:
        return ProdT(parse_type(sx[1]), parse_type(sx[2]))
    if head == "sum" and len(sx) >= 3:
        parts = [parse_type(p) for p in sx[1:]]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = SumT(p, out)
        return out
    raise ParseError(f"malformed type form {sexpr.write(sx)!r}")


def print_type(t):
    if isinstance(t, AtomT):
        return ["atom"]
    if isinstance(t, DataT):
        return ["data"]
    if isinstance(t, VoidT):
        return ["void"]
    if isinstance(t, ElemT):
        if isinstance(t.content, VoidT):
            return ["elem"]
        return ["elem", print_type(t.content)]
    if isinstance(t, CollT):
        return ["coll", print_type(t.item)]
    if isinstance(t, SingleT):
        return ["single", print_type(t.item)]
    if isinstance(t, ProdT):
        return ["prod", print_type(t.left), print_type(t.right)]
    if isinstance(t, SumT):
        return ["sum", print_type(t.left), print_type(t.right)]
    raise TypeError(f"not a type term: {t!r}")


def parse_kind(sx):
    if isinstance(sx, str):
        raise ParseError(f"expected a kind, got symbol {sx!r}")
    if not sx:
        raise ParseError("empty kind form")
    head = sx[0]
    if head == "kind-atom":
        return KAtom()
    if head == "kind-data":
        return KData()
    if head == "kind-elem":
        return KElem()
    if head == "kind-coll":
        return KColl()
    if head == "kind-any":
        return KIND_ANY
    if head == "kind-prod" and len(sx) == 3:
        return KProd(parse_kind(sx[1]), parse_kind(sx[2]))
    if head == "kind-sum" and len(sx) >= 3:
        parts = [parse_kind(p) for p in sx[1:]]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = KSum(p, out)
        return out
    raise ParseError(f"malformed kind form {sexpr.write(sx)!r}")


def print_kind(k):
    if isinstance(k, KAtom):
        return ["kind-atom"]
    if isinstance(k, KData):
        return ["kind-data"]
    if isinstance(k, KElem):
        return ["kind-elem"]
    if isinstance(k, KColl):
        return ["kind-coll"]
    if isinstance(k, KProd):
        return ["kind-prod", print_kind(k.left), print_kind(k.right)]
    if isinstance(k, KSum):
        return ["kind-sum", print_kind(k.left), print_kind(k.right)]
    raise TypeError(f"not a kind term: {k!r}")


# ---------------------------------------------------------------------------
# The form tables.  Each regular form of rx/pure-rx, penrc and ra is one
# row: its head symbol, its AST class and the shapes of its arguments in
# the order of the class's fields.  The parser, the printer, _children
# and desugar read these rows; docs/grammar.md describes the same forms.


class Shape(NamedTuple):
    """How one argument of a form is read from and written to an
    s-expression."""
    read: Callable
    write: Callable


def _symbol_shape(what):
    return Shape(lambda sx: _symbol(sx, what), lambda name: name)


def _read_attrs(sx):
    if isinstance(sx, str):
        raise ParseError("project attribute list must be a list")
    return tuple(_symbol(a, "an attribute") for a in sx)


# An expression of the row's language: read by that language's builder,
# written by to_sexpr.
EXPR = Shape(None, None)
VAR = _symbol_shape("a variable")
ATOM = Shape(lambda sx: Atom(_symbol(sx, "an atom token")), lambda a: a.token)
REL = _symbol_shape("a relation name")
ATTR = _symbol_shape("an attribute")
ATTRS = Shape(_read_attrs, list)
KIND = Shape(parse_kind, print_kind)
TYPE = Shape(parse_type, print_type)

# Hand-written instead: variables, for*, cond and its conditions, and the
# dependencies.  _build_rx reads seq variadic and sing in pure RX only.
RX_FORMS = (
    ("lit", AtomLit, ATOM),
    ("text", Text, EXPR),
    ("elem", Elem, EXPR, EXPR),
    ("data", DataF, EXPR),
    ("name", NameF, EXPR),
    ("children", ChildrenF, EXPR),
    ("empty", EmptySeq),
    ("seq", Seq, EXPR, EXPR),
    ("sing", Sing, EXPR),
    ("for", For, VAR, KIND, EXPR, EXPR),
    ("ifeq", IfEq, EXPR, EXPR, EXPR, EXPR),
    ("ifempty", IfEmpty, EXPR, EXPR, EXPR),
    ("iftype", IfType, EXPR, TYPE, EXPR, EXPR),
)

PENRC_FORMS = (
    ("lit", NAtomLit, ATOM),
    ("pair", NPair, EXPR, EXPR),
    ("fst", NProj1, EXPR),
    ("snd", NProj2, EXPR),
    ("empty", NEmpty),
    ("sing", NSing, EXPR),
    ("union", NUnion, EXPR, EXPR),
    ("flatten", NFlatten, EXPR),
    ("for", NComp, VAR, EXPR, EXPR),
    ("ifeq", NEqCond, EXPR, EXPR, EXPR, EXPR),
    ("ifkind", NKindCond, EXPR, KIND, EXPR, EXPR),
    ("ifempty", NEmptyCond, EXPR, EXPR, EXPR),
)

RA_FORMS = (
    ("rel", Relation, REL),
    ("select", Select, ATTR, ATTR, EXPR),
    ("project", Project, ATTRS, EXPR),
    ("product", Product, EXPR, EXPR),
    ("rename", Rename, ATTR, ATTR, EXPR),
    ("ra-union", RaUnion, EXPR, EXPR),
    ("diff", Diff, EXPR, EXPR),
)


class _Form(NamedTuple):
    head: str
    cls: type
    args: tuple   # ((field name, shape), ...)
    exprs: tuple  # the names of the EXPR fields


def _by_head(table):
    forms = {}
    for head, cls, *shapes in table:
        args = tuple(zip([f.name for f in fields(cls)], shapes, strict=True))
        forms[head] = _Form(head, cls, args,
                            tuple(name for name, s in args if s is EXPR))
    return forms


_RX_HEADS = _by_head(RX_FORMS)
_PENRC_HEADS = _by_head(PENRC_FORMS)
_RA_HEADS = _by_head(RA_FORMS)
_BY_CLASS = {form.cls: form
             for heads in (_RX_HEADS, _PENRC_HEADS, _RA_HEADS)
             for form in heads.values()}


# ---------------------------------------------------------------------------
# Expression parsing.


def parse(text: str, language: str):
    """Parse source text in the given language into an AST."""
    if language not in LANGUAGES:
        raise ValueError(f"unknown language tag {language!r}")
    sx = sexpr.read(text)
    if language in ("rx", "pure-rx"):
        return _build_rx(sx, pure=(language == "pure-rx"))
    if language == "penrc":
        return _build_nrc(sx)
    if language == "ra":
        return _build_ra(sx)
    return _build_dep(sx)


def _symbol(sx, what):
    if not isinstance(sx, str):
        raise ParseError(f"expected {what}, got {sexpr.write(sx)!r}")
    return sx


def _arity(sx, n):
    if len(sx) != n + 1:
        raise ParseError(
            f"form {sx[0]!r} takes {n} argument(s), got {len(sx) - 1}")


def _head(sx):
    if not sx:
        raise ParseError("empty expression form")
    if not isinstance(sx[0], str):
        raise ParseError(f"malformed form {sexpr.write(sx)!r}")
    return sx[0]


def _build_form(sx, heads, unknown, build, *extra):
    """Build the regular form sx from its row in `heads`: check the arity,
    then read the arguments left to right, expressions by
    build(arg, *extra)."""
    form = heads.get(sx[0]) if isinstance(sx[0], str) else None
    if form is None:
        raise ParseError(f"{unknown} {sx[0]!r}")
    _arity(sx, len(form.args))
    args = []
    for (_, shape), arg in zip(form.args, sx[1:]):
        args.append(build(arg, *extra) if shape is EXPR else shape.read(arg))
    return form.cls(*args)


def _build_rx(sx, pure):
    if isinstance(sx, str):
        return Var(sx)
    head = _head(sx)
    if head == "seq":
        if len(sx) < 3:
            raise ParseError("seq takes at least 2 arguments")
        return seq_of([_build_rx(p, pure) for p in sx[1:]])
    if head == "sing" and not pure:
        raise ParseError("singleton constructor is pure RX only")
    if head == "for*":
        _arity(sx, 3)
        if isinstance(sx[1], str):
            raise ParseError("for* bindings must be a list")
        bindings = []
        for b in sx[1]:
            if isinstance(b, str) or len(b) != 2:
                raise ParseError("for* binding must be (var source)")
            bindings.append((_symbol(b[0], "a variable"),
                             _build_rx(b[1], pure)))
        return MultiFor(tuple(bindings), parse_kind(sx[2]),
                        _build_rx(sx[3], pure))
    if head == "cond":
        _arity(sx, 3)
        return CondIf(_build_cond(sx[1], pure), _build_rx(sx[2], pure),
                      _build_rx(sx[3], pure))
    return _build_form(sx, _RX_HEADS, "unknown form", _build_rx, pure)


def _build_cond(sx, pure):
    if isinstance(sx, str) or not sx:
        raise ParseError(f"malformed condition {sexpr.write(sx)!r}")
    head = sx[0]
    if head == "eq":
        _arity(sx, 2)
        return CEq(_build_rx(sx[1], pure), _build_rx(sx[2], pure))
    if head in ("and", "or"):
        if len(sx) < 3:
            raise ParseError(f"{head} takes at least 2 conditions")
        ctor = CAnd if head == "and" else COr
        parts = [_build_cond(p, pure) for p in sx[1:]]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ctor(p, out)
        return out
    if head == "not":
        _arity(sx, 1)
        return CNot(_build_cond(sx[1], pure))
    raise ParseError(f"unknown condition form {head!r}")


def _build_nrc(sx):
    if isinstance(sx, str):
        return NVar(sx)
    _head(sx)
    return _build_form(sx, _PENRC_HEADS, "unknown form", _build_nrc)


def _build_ra(sx):
    if isinstance(sx, str) or not sx:
        raise ParseError(f"malformed relational form {sexpr.write(sx)!r}")
    return _build_form(sx, _RA_HEADS, "unknown relational form", _build_ra)


def _build_dep(sx):
    if isinstance(sx, str) or not sx:
        raise ParseError(f"malformed dependency {sexpr.write(sx)!r}")
    head = sx[0]
    if head in ("fd", "ind"):
        _arity(sx, 2)
        if isinstance(sx[1], str) or isinstance(sx[2], str):
            raise ParseError(f"{head} takes two attribute lists")
        lhs = tuple(_symbol(a, "an attribute") for a in sx[1])
        rhs = tuple(_symbol(a, "an attribute") for a in sx[2])
        return FD(lhs, rhs) if head == "fd" else IND(lhs, rhs)
    raise ParseError(f"unknown dependency form {head!r}")


# ---------------------------------------------------------------------------
# Printing.


def to_sexpr(e):
    if isinstance(e, (Var, NVar)):
        return e.name
    form = _BY_CLASS.get(type(e))
    if form is not None:
        out = [form.head]
        for name, shape in form.args:
            v = getattr(e, name)
            out.append(to_sexpr(v) if shape is EXPR else shape.write(v))
        return out
    if isinstance(e, MultiFor):
        return ["for*", [[v, to_sexpr(s)] for v, s in e.bindings],
                print_kind(e.kind), to_sexpr(e.body)]
    if isinstance(e, CondIf):
        return ["cond", _cond_to_sexpr(e.cond), to_sexpr(e.then),
                to_sexpr(e.els)]
    if isinstance(e, (FD, IND)):
        return ["fd" if isinstance(e, FD) else "ind", list(e.lhs),
                list(e.rhs)]
    raise TypeError(f"not an expression: {e!r}")


def _cond_to_sexpr(c):
    if isinstance(c, CEq):
        return ["eq", to_sexpr(c.left), to_sexpr(c.right)]
    if isinstance(c, CAnd):
        return ["and", _cond_to_sexpr(c.left), _cond_to_sexpr(c.right)]
    if isinstance(c, COr):
        return ["or", _cond_to_sexpr(c.left), _cond_to_sexpr(c.right)]
    if isinstance(c, CNot):
        return ["not", _cond_to_sexpr(c.arg)]
    raise TypeError(f"not a condition: {c!r}")


def print_expr(e) -> str:
    return sexpr.write(to_sexpr(e))
