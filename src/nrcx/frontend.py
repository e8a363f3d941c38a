"""ASTs, parsers, and printers for the five input languages.

Concrete syntax is s-expressions throughout (see docs/grammar.md).
``parse`` / ``print_expr`` round-trip on ASTs; variables are bare
symbols, atom literals are written ``(lit a)``.  The regular forms of
each expression language, and the conditions of ``cond``, are rows of
a form table (``RX_FORMS``, ``COND_FORMS``, ``PENRC_FORMS``,
``RA_FORMS``) that drives parsing, printing, child traversal and
rebuilding.  The RX sugar (``for*``, ``cond``) is expanded by
``desugar`` and nowhere else.  Types and kinds are read and printed
from one table each (``TYPE_FORMS``, ``KIND_FORMS``).
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
# PENRC[kind] expressions.  The nested calculus shares six forms with
# RX, one class each: Var, AtomLit, EmptySeq, Sing, IfEq and IfEmpty
# (the full-NRC emptiness test, which the evaluator accepts but the
# decision procedures reject).  The classes below are its own.


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
class NKindCond:
    subject: object
    kind: object
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
    if cls in (Var, Relation):
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
    if type(e) is Var:
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
    if type(e) is Var:
        return e
    raise TypeError(f"not an expression: {e!r}")


def literals(e, memo=None) -> frozenset:
    """All atoms occurring as literals in e."""
    if memo is None:
        memo = {}
    out = memo.get(id(e))
    if out is not None:
        return out
    if type(e) is AtomLit:
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
# Type / kind concrete syntax.  Each grammar is one table, head -> the
# term class whose fields, in order, are the form's arguments.

TYPE_FORMS = {"atom": AtomT, "data": DataT, "void": VoidT, "elem": ElemT,
              "coll": CollT, "single": SingleT, "prod": ProdT, "sum": SumT}
KIND_FORMS = {"kind-atom": KAtom, "kind-data": KData, "kind-elem": KElem,
              "kind-coll": KColl, "kind-prod": KProd, "kind-sum": KSum}


def _shown(sx):
    """sx quoted for an error message, cut short after 80 characters."""
    text = sexpr.write(sx)
    return repr(text if len(text) <= 80 else text[:77] + "...")


def _term_syntax(forms, what, sums, sugar_head, sugar):
    """The reader and the printer of the grammar of `what` whose table
    is forms.  A form reads as its head's class built from its
    arguments, and a term prints as the head of its class (a subclass
    as its base) and its fields; arguments are read and written by map,
    so a level of nesting takes one stack frame.  A form without
    arguments reads as one shared term.  The heads in sums read two or
    more arguments as their sum, folded to the right by the class of
    the first, the sum itself; the others put the sum in their one
    field.  sugar_head, read without arguments, stands for the term
    sugar, which prints as that head alone when the head is in forms;
    otherwise it prints in full, and that full form is read back with
    one comparison."""
    sum_cls = forms[sums[0]]
    shared = {h: cls() for h, cls in forms.items() if not cls._fields}
    shared[sugar_head] = sugar
    heads = {cls: h for h, cls in forms.items()}
    heads.update({sub: h for cls, h in list(heads.items())
                  for sub in cls.__subclasses__()})
    short = type(sugar) if sugar_head in forms else None

    def write(t):
        head = heads.get(type(t))
        if head is None:
            raise TypeError(f"not a {what} term: {t!r}")
        if type(t) is short and t == sugar:
            return [head]
        return [head, *map(write, (getattr(t, f) for f in t._fields))]

    full = None if short else write(sugar)

    def read(sx):
        if sx == full:
            return sugar
        if isinstance(sx, str):
            raise ParseError(f"expected a {what}, got symbol {sx!r}")
        if not sx:
            raise ParseError(f"empty {what} form")
        head, n = sx[0], len(sx) - 1
        if isinstance(head, str):
            if n == 0 and head in shared:
                return shared[head]
            cls = forms.get(head)
            if cls is not None and n == len(cls._fields):
                return cls(*map(read, sx[1:]))
            if n >= 2 and head in sums:
                part = fold_right(sum_cls, list(map(read, sx[1:])))
                return part if cls is sum_cls else cls(part)
        raise ParseError(f"malformed {what} form {_shown(sx)}")

    return read, write


# (elem) is the element of no content, and kind-any the RX kind of
# every item, the commonest kind of the compiled RA queries.
parse_type, print_type = _term_syntax(TYPE_FORMS, "type", ("sum", "elem"),
                                      "elem", ElemT(VoidT()))
parse_kind, print_kind = _term_syntax(KIND_FORMS, "kind", ("kind-sum",),
                                      "kind-any", KIND_ANY)


# ---------------------------------------------------------------------------
# Printing.


def print_expr(e) -> str:
    """The text of e, written in one pass over the form table: each
    node's text is one f-string of its head and arguments, written by
    its row's writer (see _writer), with no s-expression built first.
    A node shared in the tree (the pure-RX translation shares its
    operands) is written once, and the text of a leaf (a kind, a type,
    an atom, an attribute list) is made once per distinct leaf.  Both
    caches last one call, while the caller holds the tree, so ids stay
    unique."""
    if type(e) in (FD, IND):
        return (f"({'fd' if type(e) is FD else 'ind'} "
                f"{_attrs_text(e.lhs)} {_attrs_text(e.rhs)})")
    leaves = {}  # id of a leaf value -> its text

    def leaf(shape, v):
        out = leaves.get(id(v))
        if out is None:
            out = leaves[id(v)] = shape.write(v)
        return out

    return _WRITERS[type(e)](e, {}, leaf)


class _Writers(dict):
    """The writer of each AST class: write(e, texts, leaf), the text of
    e, where texts maps the id of each node written so far to its text.
    A row's writer is compiled when a node of the row is first printed:
    compiling all of them would add about 2 ms to the import of nrcx."""

    def __missing__(self, cls):
        form = _BY_CLASS.get(cls)
        if form is None:
            return _not_an_expression
        write = self[cls] = _writer(form)
        return write


def _name(e, texts, leaf):
    return e.name


def _not_an_expression(e, texts, leaf):
    raise TypeError(f"not an expression: {e!r}")


_WRITERS = _Writers({Var: _name})


def _writer(form):
    """The writer of a row, compiled from it as record compiles
    __init__: one f-string of the head and the arguments of a node,
    kept in texts.  A subexpression is written by the writer of its
    class, called directly, so printing takes one stack frame a level;
    a leaf value by leaf(shape, v); a symbol as it is."""
    fields = [form.head]
    shapes = {}
    for name, shape in form.args:
        if shape is EXPR or shape is COND:
            fields.append(f"{{_W[type(e.{name})](e.{name}, texts, leaf)}}")
        elif shape is BINDINGS:
            fields.append(f"{{_bindings_text(e.{name}, texts, leaf)}}")
        elif shape.write is None:
            fields.append(f"{{e.{name}}}")
        else:
            shapes[f"_{name}"] = shape
            fields.append(f"{{leaf(_{name}, e.{name})}}")
    src = ("def write(e, texts, leaf):\n"
           " out = texts.get(id(e))\n"
           " if out is None:\n"
           f"  out = texts[id(e)] = f'({' '.join(fields)})'\n"
           " return out")
    namespace = {"_W": _WRITERS, "_bindings_text": _bindings_text, **shapes}
    exec(src, namespace)
    return namespace["write"]


def _bindings_text(bindings, texts, leaf):
    return "(%s)" % " ".join(f"({v} {_WRITERS[type(s)](s, texts, leaf)})"
                             for v, s in bindings)


def _attrs_text(attrs):
    return f"({' '.join(attrs)})"


def printed_length(e) -> int:
    """len(print_expr(e)), counted without writing the text.  Each
    distinct node is counted once, by id, so the count is linear in the
    nodes of a shared tree whose text grows exponentially with its depth
    (the pure-RX translation of nested ``(sing …)``).  It takes one
    stack frame a level, as the printer does."""
    if type(e) in (FD, IND):
        return len(print_expr(e))
    lengths = {}  # id of a node or leaf value -> the length of its text

    def length(e):
        n = lengths.get(id(e))
        if n is not None:
            return n
        if type(e) is Var:
            n = len(e.name)
        else:
            form = _BY_CLASS.get(type(e))
            if form is None:
                raise TypeError(f"not an expression: {e!r}")
            n = 2 + len(form.head) + len(form.args)  # parens, head, spaces
            for name, shape in form.args:
                v = getattr(e, name)
                if shape is EXPR or shape is COND:
                    n += length(v)
                elif shape is BINDINGS:
                    n += 1 + max(len(v), 1) + sum(len(x) + 3 + length(s)
                                                  for x, s in v)
                elif shape.write is None:
                    n += len(f"{v}")
                else:
                    if id(v) not in lengths:
                        lengths[id(v)] = len(shape.write(v))
                    n += lengths[id(v)]
        lengths[id(e)] = n
        return n

    return length(e)


# ---------------------------------------------------------------------------
# The form tables.  Each regular form of rx/pure-rx, penrc and ra, and
# each condition of cond, is one row: its head symbol, its AST class and
# the shapes of its arguments in the order of the class's fields.  The
# parser, the printer, _children, map_children and desugar read these
# rows; docs/grammar.md describes the same forms.  A class in two tables
# (a form the nested calculus shares with RX) has the same row in both.


@record
class Shape:
    """How one argument of a form is read from an s-expression and
    written back, and which expressions it holds.  read(sx, sub) gets
    sub, the builder of the row language's expressions; write(v) is the
    text of a leaf, None for a symbol written as it is and for a shape
    that holds expressions, which print_expr writes itself.  A shape
    that holds expressions lists them (exprs) and is rebuilt with f
    applied to each of them (map)."""
    read: Callable
    write: Callable
    exprs: Callable = None
    map: Callable = None


def _leaf(read, write=None):
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
EXPR = Shape(None, None, lambda e: (e,))
VAR = _leaf(lambda sx: _symbol(sx, "a variable"))
ATOM = _leaf(lambda sx: Atom(_symbol(sx, "an atom token")),
             attrgetter("token"))
REL = _leaf(lambda sx: _symbol(sx, "a relation name"))
ATTR = _leaf(lambda sx: _symbol(sx, "an attribute"))
ATTRS = _leaf(_read_attrs, _attrs_text)
KIND = _leaf(parse_kind, lambda k: sexpr.write(print_kind(k)))
TYPE = _leaf(parse_type, lambda t: sexpr.write(print_type(t)))
# A condition of cond: a row of COND_FORMS.
COND = Shape(_read_cond, None, _children, map_children)
# The bindings of for*: ((var, source expression), ...).
BINDINGS = Shape(_read_bindings, None,
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
    ("lit", AtomLit, ATOM),
    ("pair", NPair, EXPR, EXPR),
    ("fst", NProj1, EXPR),
    ("snd", NProj2, EXPR),
    ("empty", EmptySeq),
    ("sing", Sing, EXPR),
    ("union", NUnion, EXPR, EXPR),
    ("flatten", NFlatten, EXPR),
    ("for", NComp, VAR, EXPR, EXPR),
    ("ifeq", IfEq, EXPR, EXPR, EXPR, EXPR),
    ("ifkind", NKindCond, EXPR, KIND, EXPR, EXPR),
    ("ifempty", IfEmpty, EXPR, EXPR, EXPR),
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
        return Var(sx)
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
