"""Evaluators for set-based RX and pure RX.

Evaluation is total as a Python function: the result is an
``EvalOutcome`` that is either ``Defined(value)`` or
``Undefined(reason, expr)`` where ``expr`` is the innermost failing
subexpression.  Both evaluators desugar on entry and run only the core
forms, so ``expr`` is a core form (``for*`` fails at a ``for``,
``cond`` at an ``ifeq``).  Set-based RX is parameterized by an
``OracleSuite`` (the string-content and string-join behaviors of
XQuery).

Evaluation is in two steps.  ``compile_rx`` and ``compile_pure_rx``
compile the desugared expression once into a tree of closures: a
``Compiler`` looks up the builder of each AST class in the calculus's
table (``_RX``, ``_PURE``; ``penrc`` has its own), and resolves every
variable to a slot of a register list.  The program that results maps
an environment to an outcome, and ``eval_rx`` / ``eval_pure_rx`` run it
once.

Undefinedness reasons for pure RX go slightly beyond the obvious list:
any operation that iterates its operand (data, children, for-sources,
element content, sequence operands, loop bodies under the big union) is
undefined on a bare item, which is exactly the behavior forced by the
simulation into the nested calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .frontend import (AtomLit, ChildrenF, DataF, Elem, EmptySeq, For,
                       IfEmpty, IfEq, IfType, NameF, Seq, Sing, Text, Var,
                       desugar)
from .typeterms import kind_classes, kind_member, member
from .values import EMPTY_SET, Atom, DataNode, ElemNode, VSet, vset


# Reason codes for undefined outcomes.
CONSTRUCT_NAME_NOT_SINGLETON = "construct-name-not-singleton"
NAME_NOT_SINGLETON_ELEM = "name-not-singleton-elem"
CHILDREN_SAW_ATOM = "children-saw-atom"
EQ_NOT_SINGLETON_ATOM = "eq-not-singleton-atom"

TEXT_ON_NONATOM = "text-on-nonatom"
CONSTRUCT_NAME_NOT_ATOM = "construct-name-not-atom"
NAME_NOT_ELEM = "name-not-elem"
SINGLETON_OF_NONITEM = "singleton-of-nonitem"
SEQ_OPERAND_NOT_SET = "seq-operand-not-set"
EQ_ON_NONATOM = "eq-on-nonatom"
ITERATION_OVER_NONSET = "iteration-over-nonset"
BODY_NOT_SET = "for-body-not-set"


@dataclass(frozen=True)
class Defined:
    value: object

    @property
    def is_defined(self):
        return True


@dataclass(frozen=True)
class Undefined:
    reason: str
    expr: object = None

    @property
    def is_defined(self):
        return False


EvalOutcome = Defined | Undefined


class _Undef(Exception):
    def __init__(self, reason, expr=None):
        self.reason = reason
        self.expr = expr


# The value of a free variable that the environment does not bind; its
# closure raises KeyError only when it is evaluated.
_UNBOUND = object()


class Compiler:
    """Compiles one expression into a tree of closures.

    ``builders`` maps each AST class of a calculus to a function
    ``build(compiler, e)`` that returns the closure of e, built from
    the closures of its subexpressions (``compiler.expr``).  A closure
    takes the register list of one run and returns the value of its
    expression, or raises ``_Undef``.  Variables resolve to registers
    here: each free variable gets one, filled from the environment when
    the program runs, and each binder occurrence gets one, written
    before its body runs.  A subexpression shared by several parents
    (desugaring shares the branches of ``cond``, the translation its
    operands) is compiled once per scope.  ``context`` is what the
    builders of a calculus need besides the expression (the oracles of
    set-based RX).
    """

    def __init__(self, builders, what, context=None):
        self.builders = builders
        self.what = what
        self.context = context
        self.scope = {}
        self.free = {}
        self.n_slots = 0
        # The closures compiled in the current scope, by id of the AST
        # node (the caller holds the whole tree, so ids stay unique).
        self._memo = {}

    def expr(self, e):
        f = self._memo.get(id(e))
        if f is None:
            build = self.builders.get(type(e))
            if build is None:
                raise TypeError(f"not {self.what}: {e!r}")
            f = self._memo[id(e)] = build(self, e)
        return f

    def var(self, name):
        slot = self.scope.get(name)
        if slot is not None:
            return lambda r: r[slot]
        slot = self.free.get(name)
        if slot is None:
            slot = self.free[name] = self._slot()

        def free_var(r):
            v = r[slot]
            if v is _UNBOUND:
                raise KeyError(name)
            return v
        return free_var

    def bind(self, var, body):
        """The slot of a new binding of var, and the closure of body
        under it."""
        slot = self._slot()
        outer, memo = self.scope, self._memo
        self.scope, self._memo = {**outer, var: slot}, {}
        try:
            return slot, self.expr(body)
        finally:
            self.scope, self._memo = outer, memo

    def _slot(self):
        self.n_slots += 1
        return self.n_slots - 1

    def program(self, e):
        """The evaluator of e: environment -> EvalOutcome."""
        root = self.expr(e)
        n, free = self.n_slots, tuple(self.free.items())

        def run(sigma):
            r = [None] * n
            for name, slot in free:
                r[slot] = sigma[name] if name in sigma else _UNBOUND
            try:
                return Defined(root(r))
            except _Undef as u:
                return Undefined(u.reason, u.expr)
        return run


def _var(c, e):
    return c.var(e.name)


def _constant(v):
    return lambda r: v


def _unary(classes, reason, result):
    """The builder of a form with one operand v, which fails with reason
    unless isinstance(v, classes), and returns result(v)."""
    def build(c, e):
        body = c.expr(e.body)

        def unary(r):
            v = body(r)
            if not isinstance(v, classes):
                raise _Undef(reason, e)
            return result(v)
        return unary
    return build


def _kind_filter(k):
    """(classes, exact): v is of kind k iff isinstance(v, classes) and
    (exact or kind_member(v, k))."""
    classes = kind_classes(k)
    return (object, False) if classes is None else (classes, True)


@dataclass(frozen=True)
class OracleSuite:
    """The two oracle functions of the set-based semantics.

    content maps element nodes to atoms; concat maps finite sets of
    atoms (as a VSet) to an atom.  Both must be total and deterministic.
    """
    content: Callable[[ElemNode], Atom]
    concat: Callable[[VSet], Atom]
    name: str = "oracle"


def _default_concat(s: VSet) -> Atom:
    if len(s) == 0:
        return Atom("ε")
    return Atom("·".join(a.token for a in s))


def _default_content(node: ElemNode) -> Atom:
    return _default_concat(rx_data(node.children, DEFAULT_ORACLES))


DEFAULT_ORACLES = OracleSuite(_default_content, _default_concat, "default")


def _alt_concat(s: VSet) -> Atom:
    return Atom("+".join(["c"] + [a.token for a in s]))


def _alt_content(node: ElemNode) -> Atom:
    return _alt_concat(rx_data(node.children, ALT_ORACLES))


ALT_ORACLES = OracleSuite(_alt_content, _alt_concat, "alt")

ORACLE_SUITES = {"default": DEFAULT_ORACLES, "alt": ALT_ORACLES}


# ---------------------------------------------------------------------------
# The helper functions of the set-based semantics.


def rx_data(v: VSet, o: OracleSuite) -> VSet:
    """Extract the atoms of v: atoms kept, data-node contents taken,
    content() applied to element nodes.  Total; a set of atoms is
    returned as it is."""
    out = []
    atoms_only = True
    for i in v.elems:
        if isinstance(i, Atom):
            out.append(i)
        else:
            atoms_only = False
            out.append(i.content if isinstance(i, DataNode)
                       else o.content(i))
    return v if atoms_only else VSet(out)


# The helpers that can fail take the failing expression, `at`.


def rx_name(v: VSet, o: OracleSuite, at=None) -> VSet:
    # On empty input the set {concat({})} is returned so that every RX
    # result stays a set.
    elems = v.elems
    if not elems:
        return vset(o.concat(v))
    if len(elems) == 1 and isinstance(elems[0], ElemNode):
        return vset(elems[0].name)
    raise _Undef(NAME_NOT_SINGLETON_ELEM, at)


def rx_children(v: VSet, at=None) -> VSet:
    out = []
    for i in v.elems:
        if isinstance(i, Atom):
            raise _Undef(CHILDREN_SAW_ATOM, at)
        if isinstance(i, ElemNode):
            out.extend(i.children.elems)
    return VSet(out)


def rx_construct(v: VSet, w: VSet, o: OracleSuite, at=None) -> ElemNode:
    d = rx_data(v, o)
    if len(d.elems) != 1:
        raise _Undef(CONSTRUCT_NAME_NOT_SINGLETON, at)
    return ElemNode(d.elems[0], _wrap_atoms(w))


def _wrap_atoms(w: VSet) -> VSet:
    """w with each atom a wrapped in the data node of a; a set of nodes
    is returned as it is."""
    if not any(isinstance(i, Atom) for i in w.elems):
        return w
    return VSet([DataNode(i) if isinstance(i, Atom) else i for i in w.elems])


# ---------------------------------------------------------------------------
# Set-based RX evaluation.  Every value is a set.


def compile_rx(e, oracles: OracleSuite = DEFAULT_ORACLES):
    """The evaluator of e under the given oracles: environment ->
    EvalOutcome."""
    return Compiler(_RX, "an RX expression", oracles).program(desugar(e))


def eval_rx(e, sigma, oracles: OracleSuite = DEFAULT_ORACLES) -> EvalOutcome:
    return compile_rx(e, oracles)(sigma)


def _rx_lit(c, e):
    return _constant(vset(e.atom))


def _rx_text(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: vset(DataNode(o.concat(rx_data(body(r), o))))


def _rx_elem(c, e):
    name, content, o = c.expr(e.name_expr), c.expr(e.content), c.context
    return lambda r: vset(rx_construct(name(r), content(r), o, e))


def _rx_data(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: rx_data(body(r), o)


def _rx_name(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: rx_name(body(r), o, e)


def _rx_children(c, e):
    body = c.expr(e.body)
    return lambda r: rx_children(body(r), e)


def _seq_union(c, e):
    left, right = c.expr(e.left), c.expr(e.right)
    return lambda r: left(r).union(right(r))


def _rx_for(c, e):
    src = c.expr(e.source)
    slot, body = c.bind(e.var, e.body)
    classes, exact = _kind_filter(e.kind)
    kind = e.kind

    def for_(r):
        parts = []
        for i in src(r).elems:
            if isinstance(i, classes) and (exact or kind_member(i, kind)):
                r[slot] = vset(i)
                parts.extend(body(r).elems)
        return VSet(parts)
    return for_


def _rx_ifeq(c, e):
    left, right = c.expr(e.left), c.expr(e.right)
    then, els, o = c.expr(e.then), c.expr(e.els), c.context

    def ifeq(r):
        a = rx_data(left(r), o)
        b = rx_data(right(r), o)
        if len(a.elems) != 1 or len(b.elems) != 1:
            raise _Undef(EQ_NOT_SINGLETON_ATOM, e)
        return then(r) if a == b else els(r)
    return ifeq


def _rx_ifempty(c, e):
    cond, then, els = c.expr(e.cond), c.expr(e.then), c.expr(e.els)
    return lambda r: els(r) if cond(r).elems else then(r)


def _iftype(c, e):
    cond, then, els, t = c.expr(e.cond), c.expr(e.then), c.expr(e.els), e.type
    return lambda r: then(r) if member(cond(r), t) else els(r)


_RX = {
    Var: _var, AtomLit: _rx_lit, Text: _rx_text, Elem: _rx_elem,
    DataF: _rx_data, NameF: _rx_name, ChildrenF: _rx_children,
    EmptySeq: lambda c, e: _constant(EMPTY_SET), Seq: _seq_union,
    For: _rx_for, IfEq: _rx_ifeq, IfEmpty: _rx_ifempty, IfType: _iftype,
}


# ---------------------------------------------------------------------------
# Pure RX evaluation (no oracles; values may be bare items).


def compile_pure_rx(e):
    """The evaluator of e: environment -> EvalOutcome."""
    return Compiler(_PURE, "a pure RX expression").program(desugar(e))


def eval_pure_rx(e, sigma) -> EvalOutcome:
    return compile_pure_rx(e)(sigma)


def _require_set(v, reason, expr):
    if not isinstance(v, VSet):
        raise _Undef(reason, expr)
    return v


def _pure_data_of(v: VSet) -> VSet:
    return VSet([i if isinstance(i, Atom) else i.content
                 for i in v.elems if isinstance(i, (Atom, DataNode))])


def _pure_elem(c, e):
    name, content = c.expr(e.name_expr), c.expr(e.content)

    def elem(r):
        v = name(r)
        w = content(r)
        if not isinstance(v, Atom):
            raise _Undef(CONSTRUCT_NAME_NOT_ATOM, e)
        _require_set(w, ITERATION_OVER_NONSET, e)
        return ElemNode(v, _wrap_atoms(w))
    return elem


def _pure_children(c, e):
    body = c.expr(e.body)
    return lambda r: rx_children(
        _require_set(body(r), ITERATION_OVER_NONSET, e), e)


def _pure_seq(c, e):
    left, right = c.expr(e.left), c.expr(e.right)

    def seq(r):
        a = _require_set(left(r), SEQ_OPERAND_NOT_SET, e)
        b = _require_set(right(r), SEQ_OPERAND_NOT_SET, e)
        return a.union(b)
    return seq


def _pure_for(c, e):
    src = c.expr(e.source)
    slot, body = c.bind(e.var, e.body)
    classes, exact = _kind_filter(e.kind)
    kind = e.kind

    def for_(r):
        parts = []
        for i in _require_set(src(r), ITERATION_OVER_NONSET, e).elems:
            if isinstance(i, classes) and (exact or kind_member(i, kind)):
                r[slot] = i
                parts.extend(_require_set(body(r), BODY_NOT_SET, e).elems)
        return VSet(parts)
    return for_


def _eq_atoms(c, e):
    """The equality test of pure RX and of the nested calculus."""
    left, right = c.expr(e.left), c.expr(e.right)
    then, els = c.expr(e.then), c.expr(e.els)

    def ifeq(r):
        a = left(r)
        b = right(r)
        if not (isinstance(a, Atom) and isinstance(b, Atom)):
            raise _Undef(EQ_ON_NONATOM, e)
        return then(r) if a == b else els(r)
    return ifeq


def _if_empty(c, e):
    """The emptiness test of pure RX and of the nested calculus."""
    cond, then, els = c.expr(e.cond), c.expr(e.then), c.expr(e.els)

    def ifempty(r):
        v = cond(r)
        return then(r) if isinstance(v, VSet) and not v.elems else els(r)
    return ifempty


_PURE = {
    Var: _var, AtomLit: lambda c, e: _constant(e.atom),
    Text: _unary(Atom, TEXT_ON_NONATOM, DataNode), Elem: _pure_elem,
    DataF: _unary(VSet, ITERATION_OVER_NONSET, _pure_data_of),
    NameF: _unary(ElemNode, NAME_NOT_ELEM, attrgetter("name")),
    ChildrenF: _pure_children, EmptySeq: lambda c, e: _constant(EMPTY_SET),
    Sing: _unary((Atom, DataNode, ElemNode), SINGLETON_OF_NONITEM, vset),
    Seq: _pure_seq, For: _pure_for, IfEq: _eq_atoms, IfEmpty: _if_empty,
    IfType: _iftype,
}
