"""ASTs, parsers, and printers for the five input languages.

Concrete syntax is s-expressions throughout (see docs/grammar.md).
``parse`` / ``print_expr`` round-trip on ASTs; variables are bare
symbols, atom literals are written ``(lit a)``.  The regular forms of
each expression language, and the conditions of ``cond``, are rows of
a form table (``RX_FORMS``, ``COND_FORMS``, ``PENRC_FORMS``,
``RA_FORMS``) that drives parsing, printing, child traversal and
rebuilding.  The RX sugar (``for*``, ``cond``) is expanded by
``desugar`` and nowhere else.
"""

from __future__ import annotations

from operator import attrgetter

from . import sexpr
from .record import record
from .sexpr import ParseError
from .values import Atom
from .typeterms import (AtomT, CollT, DataT, ElemT, KAtom, KColl, KData,
                        KElem, KProd, KSum, KIND_ANY, ProdT, SingleT, SumT,
                        VoidT)

# ---------------------------------------------------------------------------
# RX / pure RX expressions.  Pure RX shares the constructors and adds
# the singleton constructor Sing; sugar forms MultiFor and CondIf
# desugar to core (see desugar()).


@record
class Var:
    name: str


@record
class AtomLit:
    atom: Atom


@record
class Text:
    body: object


@record
class Elem:
    name_expr: object
    content: object


@record
class DataF:
    body: object


@record
class NameF:
    body: object


@record
class ChildrenF:
    body: object


@record
class EmptySeq:
    pass


@record
class Seq:
    left: object
    right: object


@record
class Sing:
    body: object


@record
class For:
    var: str
    kind: object
    source: object
    body: object


@record
class IfEq:
    left: object
    right: object
    then: object
    els: object


@record
class IfEmpty:
    cond: object
    then: object
    els: object


@record
class IfType:
    cond: object
    type: object
    then: object
    els: object


@record
class MultiFor:
    bindings: tuple  # ((var, source_expr), ...)
    kind: object
    body: object


@record
class CondIf:
    cond: object
    then: object
    els: object


@record
class CEq:
    left: object
    right: object


@record
class CAnd:
    left: object
    right: object


@record
class COr:
    left: object
    right: object


@record
class CNot:
    arg: object


# ---------------------------------------------------------------------------
# PENRC[kind] expressions (plus the full-NRC emptiness test NEmptyCond,
# which the evaluator accepts but the decision procedures reject).


@record
class NVar:
    name: str


@record
class NAtomLit:
    atom: Atom


@record
class NPair:
    left: object
    right: object


@record
class NProj1:
    body: object


@record
class NProj2:
    body: object


@record
class NEmpty:
    pass


@record
class NSing:
    body: object


@record
class NUnion:
    left: object
    right: object


@record
class NFlatten:
    body: object


@record
class NComp:
    var: str
    source: object
    body: object


@record
class NEqCond:
    left: object
    right: object
    then: object
    els: object


@record
class NKindCond:
    subject: object
    kind: object
    then: object
    els: object


@record
class NEmptyCond:
    cond: object
    then: object
    els: object


# ---------------------------------------------------------------------------
# Relational algebra and dependencies.


@record
class Relation:
    name: str


@record
class Select:
    attr1: str
    attr2: str
    arg: object


@record
class Project:
    attrs: tuple
    arg: object


@record
class Product:
    left: object
    right: object


@record
class Rename:
    old: str
    new: str
    arg: object


@record
class RaUnion:
    left: object
    right: object


@record
class Diff:
    left: object
    right: object


@record
class FD:
    lhs: tuple
    rhs: tuple


@record
class IND:
    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        if len(self.lhs) != len(self.rhs):
            raise ValueError("inclusion dependency lists must have equal length")


# ---------------------------------------------------------------------------
# Free variables.


# The whole-tree passes below walk each node once.  memo maps the id of
# a node to its result, for one top-level call or for as long as the
# caller keeps memo and the tree (so ids stay unique): the pure-RX
# translation shares subtrees, and a DAG walked as a tree costs
# exponential time.


def free_vars(e, memo=None) -> frozenset:
    if memo is None:
        memo = {}
    out = memo.get(id(e))
    if out is not None:
        return out
    cls = type(e)
    if cls in (Var, NVar, Relation):
        out = frozenset([e.name])
    elif cls in (For, NComp):
        out = (free_vars(e.source, memo)
               | (free_vars(e.body, memo) - {e.var}))
    elif cls is MultiFor:
        out = frozenset()
        bound = set()
        for var, src in e.bindings:
            out |= free_vars(src, memo) - bound
            bound.add(var)
        out |= free_vars(e.body, memo) - bound
    else:
        out = frozenset()
        for child in _children(e):
            out |= free_vars(child, memo)
    memo[id(e)] = out
    return out


def _children(e):
    """Direct subexpressions of e, the operands of its conditions and
    the sources of its bindings included (not kinds or types)."""
    form = _BY_CLASS.get(type(e))
    if form is not None:
        return form.children(e)
    if isinstance(e, (Var, NVar)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def map_children(e, f):
    """e rebuilt from its row with f applied to each direct
    subexpression, in field order (see _children); e itself when f
    returns every subexpression unchanged."""
    form = _BY_CLASS.get(type(e))
    if form is not None:
        values = []
        changed = False
        for name, shape in form.args:
            old = v = getattr(e, name)
            if shape is EXPR:
                v = f(v)
            elif shape.map is not None:
                v = shape.map(v, f)
            changed = changed or v is not old
            values.append(v)
        return form.cls(*values) if changed else e
    if isinstance(e, (Var, NVar)):
        return e
    raise TypeError(f"not an expression: {e!r}")


def literals(e, memo=None) -> frozenset:
    """All atoms occurring as literals in e."""
    if memo is None:
        memo = {}
    out = memo.get(id(e))
    if out is not None:
        return out
    if type(e) in (AtomLit, NAtomLit):
        out = frozenset([e.atom])
    else:
        out = frozenset()
        for child in _children(e):
            out |= literals(child, memo)
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Desugaring (RX / pure RX sugar -> core constructors).


def desugar(e):
    """Unroll MultiFor into nested For and boolean conditions into
    nested IfEq with shared branches; identity on core constructors,
    whose subtrees are shared, not copied."""
    if isinstance(e, MultiFor):
        body = desugar(e.body)
        for var, src in reversed(e.bindings):
            body = For(var, e.kind, desugar(src), body)
        return body
    if isinstance(e, CondIf):
        return _desugar_cond(e.cond, desugar(e.then), desugar(e.els))
    return map_children(e, desugar)


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


def fold_right(ctor, parts):
    """ctor(p1, ctor(p2, ... pn)) for a nonempty list of parts."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ctor(p, out)
    return out


def seq_of(exprs):
    """Right-fold a list of RX expressions into Seq; () for the empty list."""
    exprs = list(exprs)
    return fold_right(Seq, exprs) if exprs else EmptySeq()


# ---------------------------------------------------------------------------
# Type / kind concrete syntax.


# The forms without arguments, by head; kind-any is sugar and prints
# as the sum it stands for.
_NULLARY_TYPES = {"atom": AtomT(), "data": DataT(), "void": VoidT()}
_NULLARY_KINDS = {"kind-atom": KAtom(), "kind-data": KData(),
                  "kind-elem": KElem(), "kind-coll": KColl()}
_TYPE_HEADS = {type(t): h for h, t in _NULLARY_TYPES.items()}
_KIND_HEADS = {type(k): h for h, k in _NULLARY_KINDS.items()}


def _shown(sx):
    """sx quoted for an error message, cut short after 80 characters."""
    text = sexpr.write(sx)
    return repr(text if len(text) <= 80 else text[:77] + "...")


def _form_head(sx, what):
    if isinstance(sx, str):
        raise ParseError(f"expected a {what}, got symbol {sx!r}")
    if not sx:
        raise ParseError(f"empty {what} form")
    return sx[0] if isinstance(sx[0], str) else None


def parse_type(sx):
    head = _form_head(sx, "type")
    if head in _NULLARY_TYPES and len(sx) == 1:
        return _NULLARY_TYPES[head]
    if head == "elem":
        if len(sx) == 1:
            return ElemT(VoidT())
        parts = [parse_type(p) for p in sx[1:]]
        if len(parts) == 1 and isinstance(parts[0], (CollT, SingleT)):
            return ElemT(parts[0])
        return ElemT(fold_right(SumT, parts))
    if head == "coll" and len(sx) == 2:
        return CollT(parse_type(sx[1]))
    if head == "single" and len(sx) == 2:
        return SingleT(parse_type(sx[1]))
    if head == "prod" and len(sx) == 3:
        return ProdT(parse_type(sx[1]), parse_type(sx[2]))
    if head == "sum" and len(sx) >= 3:
        return fold_right(SumT, [parse_type(p) for p in sx[1:]])
    raise ParseError(f"malformed type form {_shown(sx)}")


def print_type(t):
    if type(t) in _TYPE_HEADS:
        return [_TYPE_HEADS[type(t)]]
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
    head = _form_head(sx, "kind")
    if head in _NULLARY_KINDS and len(sx) == 1:
        return _NULLARY_KINDS[head]
    if head == "kind-any" and len(sx) == 1:
        return KIND_ANY
    if head == "kind-prod" and len(sx) == 3:
        return KProd(parse_kind(sx[1]), parse_kind(sx[2]))
    if head == "kind-sum" and len(sx) >= 3:
        return fold_right(KSum, [parse_kind(p) for p in sx[1:]])
    raise ParseError(f"malformed kind form {_shown(sx)}")


def print_kind(k):
    if type(k) in _KIND_HEADS:
        return [_KIND_HEADS[type(k)]]
    if isinstance(k, KProd):
        return ["kind-prod", print_kind(k.left), print_kind(k.right)]
    if isinstance(k, KSum):
        return ["kind-sum", print_kind(k.left), print_kind(k.right)]
    raise TypeError(f"not a kind term: {k!r}")


# ---------------------------------------------------------------------------
# Printing.


def to_sexpr(e):
    if isinstance(e, (Var, NVar)):
        return e.name
    form = _BY_CLASS.get(type(e))
    if form is not None:
        out = [form.head]
        for name, shape in form.args:
            out.append(shape.write(getattr(e, name)))
        return out
    if isinstance(e, (FD, IND)):
        return ["fd" if isinstance(e, FD) else "ind", list(e.lhs),
                list(e.rhs)]
    raise TypeError(f"not an expression: {e!r}")


def print_expr(e) -> str:
    return sexpr.write(to_sexpr(e))


# ---------------------------------------------------------------------------
# The form tables.  Each regular form of rx/pure-rx, penrc and ra, and
# each condition of cond, is one row: its head symbol, its AST class and
# the shapes of its arguments in the order of the class's fields.  The
# parser, the printer, _children, map_children and desugar read these
# rows; docs/grammar.md describes the same forms.


@record
class Shape:
    """How one argument of a form is read from an s-expression and
    written back, and which expressions it holds.  read(sx, sub) gets
    sub, the builder of the row language's expressions; a shape that
    holds expressions lists them (exprs) and is rebuilt with f applied
    to each of them (map)."""
    read: Callable
    write: Callable
    exprs: Callable = None
    map: Callable = None


def _leaf(read, write=lambda v: v):
    """A shape that holds no expression."""
    return Shape(lambda sx, sub: read(sx), write)


def _read_attrs(sx):
    if isinstance(sx, str):
        raise ParseError("project attribute list must be a list")
    return tuple(_symbol(a, "an attribute") for a in sx)


def _read_cond(sx, sub):
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise ParseError(f"malformed condition {_shown(sx)}")
    if sx[0] in ("and", "or"):
        if len(sx) < 3:
            raise ParseError(f"{sx[0]} takes at least 2 conditions")
        return fold_right(_COND_HEADS[sx[0]].cls,
                          [_read_cond(p, sub) for p in sx[1:]])
    return _build_form(sx, _COND_HEADS, "unknown condition form", sub)


def _read_bindings(sx, sub):
    if isinstance(sx, str):
        raise ParseError("for* bindings must be a list")
    bindings = []
    for b in sx:
        if isinstance(b, str) or len(b) != 2:
            raise ParseError("for* binding must be (var source)")
        bindings.append((_symbol(b[0], "a variable"), sub(b[1])))
    return tuple(bindings)


# An expression of the row's language.  _build_form reads it with sub
# and map_children applies f to it directly, without read or map.
EXPR = Shape(None, to_sexpr, lambda e: (e,))
VAR = _leaf(lambda sx: _symbol(sx, "a variable"))
ATOM = _leaf(lambda sx: Atom(_symbol(sx, "an atom token")), lambda a: a.token)
REL = _leaf(lambda sx: _symbol(sx, "a relation name"))
ATTR = _leaf(lambda sx: _symbol(sx, "an attribute"))
ATTRS = _leaf(_read_attrs, list)
KIND = _leaf(parse_kind, print_kind)
TYPE = _leaf(parse_type, print_type)
# A condition of cond: a row of COND_FORMS.
COND = Shape(_read_cond, to_sexpr, _children, map_children)
# The bindings of for*: ((var, source expression), ...).
BINDINGS = Shape(_read_bindings,
                 lambda bs: [[v, to_sexpr(s)] for v, s in bs],
                 lambda bs: tuple(s for _, s in bs),
                 lambda bs, f: tuple((v, f(s)) for v, s in bs))

# Hand-written instead: variables and the dependencies.  _rx_builder
# reads seq variadic and sing in pure RX only, and _read_cond reads
# and/or variadic.
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
    ("for*", MultiFor, BINDINGS, KIND, EXPR),
    ("ifeq", IfEq, EXPR, EXPR, EXPR, EXPR),
    ("ifempty", IfEmpty, EXPR, EXPR, EXPR),
    ("iftype", IfType, EXPR, TYPE, EXPR, EXPR),
    ("cond", CondIf, COND, EXPR, EXPR),
)

COND_FORMS = (
    ("eq", CEq, EXPR, EXPR),
    ("and", CAnd, COND, COND),
    ("or", COr, COND, COND),
    ("not", CNot, COND),
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


@record
class _Form:
    head: str
    cls: type
    args: tuple        # ((field name, shape), ...)
    children: Callable  # node -> its direct subexpressions (see _children)


def _child_getter(args):
    """The children of a node of a row: one attrgetter reads 2+ EXPR args."""
    holders = [(name, shape) for name, shape in args if shape.exprs]
    if len(holders) > 1 and all(shape is EXPR for _, shape in holders):
        return attrgetter(*[name for name, _ in holders])

    def children(e):
        out = ()
        for name, shape in holders:
            out += shape.exprs(getattr(e, name))
        return out
    return children


def _by_head(table):
    forms = {}
    for head, cls, *shapes in table:
        args = tuple(zip(cls._fields, shapes, strict=True))
        forms[head] = _Form(head, cls, args, _child_getter(args))
    return forms


_RX_HEADS = _by_head(RX_FORMS)
_COND_HEADS = _by_head(COND_FORMS)
_PENRC_HEADS = _by_head(PENRC_FORMS)
_RA_HEADS = _by_head(RA_FORMS)
_BY_CLASS = {form.cls: form
             for heads in (_RX_HEADS, _COND_HEADS, _PENRC_HEADS, _RA_HEADS)
             for form in heads.values()}


# ---------------------------------------------------------------------------
# Expression parsing.


def parse(text: str, language: str):
    """Parse source text in the given language into an AST."""
    build = _BUILDERS.get(language)
    if build is None:
        raise ValueError(f"unknown language tag {language!r}")
    return build(sexpr.read(text))


def _symbol(sx, what):
    if not isinstance(sx, str):
        raise ParseError(f"expected {what}, got {_shown(sx)}")
    return sx


def _arity(sx, n):
    if len(sx) != n + 1:
        raise ParseError(
            f"form {sx[0]!r} takes {n} argument(s), got {len(sx) - 1}")


def _head(sx):
    if not sx:
        raise ParseError("empty expression form")
    if not isinstance(sx[0], str):
        raise ParseError(f"malformed form {_shown(sx)}")
    return sx[0]


def _build_form(sx, heads, unknown, sub):
    """Build the regular form sx, its head a symbol, from its row in
    `heads`: check the arity, then read the arguments left to right,
    expressions by sub(arg).  Only the builders bound the nesting that
    parses, at two stack frames a level: no comprehension reads them."""
    form = heads.get(sx[0])
    if form is None:
        raise ParseError(f"{unknown} {sx[0]!r}")
    _arity(sx, len(form.args))
    args = []
    for (_, shape), arg in zip(form.args, sx[1:]):
        args.append(sub(arg) if shape is EXPR else shape.read(arg, sub))
    return form.cls(*args)


def _rx_builder(pure):
    """The builder of rx expressions, or of pure-RX ones if pure."""
    def build(sx):
        if isinstance(sx, str):
            return Var(sx)
        head = _head(sx)
        if head == "seq":
            if len(sx) < 3:
                raise ParseError("seq takes at least 2 arguments")
            return seq_of([build(p) for p in sx[1:]])
        if head == "sing" and not pure:
            raise ParseError("singleton constructor is pure RX only")
        e = _build_form(sx, _RX_HEADS, "unknown form", build)
        if pure and isinstance(e, (For, MultiFor)):
            _require_pure_kind(e.kind)
        return e
    return build


def _require_pure_kind(k):
    """Pure RX loops range over items: their kinds are sums of atom,
    data and element kinds."""
    if isinstance(k, KSum):
        _require_pure_kind(k.left)
        _require_pure_kind(k.right)
    elif not isinstance(k, (KAtom, KData, KElem)):
        raise ParseError(f"not a pure RX kind: {sexpr.write(print_kind(k))}")


def _build_nrc(sx):
    if isinstance(sx, str):
        return NVar(sx)
    _head(sx)
    return _build_form(sx, _PENRC_HEADS, "unknown form", _build_nrc)


def _build_ra(sx):
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise ParseError(f"malformed relational form {_shown(sx)}")
    return _build_form(sx, _RA_HEADS, "unknown relational form", _build_ra)


def _build_dep(sx):
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise ParseError(f"malformed dependency {_shown(sx)}")
    head = sx[0]
    if head in ("fd", "ind"):
        _arity(sx, 2)
        if isinstance(sx[1], str) or isinstance(sx[2], str):
            raise ParseError(f"{head} takes two attribute lists")
        lhs = tuple(_symbol(a, "an attribute") for a in sx[1])
        rhs = tuple(_symbol(a, "an attribute") for a in sx[2])
        return FD(lhs, rhs) if head == "fd" else IND(lhs, rhs)
    raise ParseError(f"unknown dependency form {head!r}")


_BUILDERS = {"rx": _rx_builder(False), "pure-rx": _rx_builder(True),
             "penrc": _build_nrc, "ra": _build_ra, "deps": _build_dep}
