"""Evaluators for set-based RX and pure RX.

Evaluation is total as a Python function: the result is an
``EvalOutcome`` that is either ``Defined(value)`` or
``Undefined(reason, expr)`` where ``expr`` is the innermost failing
subexpression.  Both evaluators desugar on entry and run only the core
forms, so ``expr`` is a core form (``for*`` fails at a ``for``,
``cond`` at an ``ifeq``).  Set-based RX is parameterized by an
``OracleSuite`` (the string-content and string-join behaviors of
XQuery).

Undefinedness reasons for pure RX go slightly beyond the obvious list:
any operation that iterates its operand (data, children, for-sources,
element content, sequence operands, loop bodies under the big union) is
undefined on a bare item, which is exactly the behavior forced by the
simulation into the nested calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .frontend import (AtomLit, ChildrenF, DataF, Elem, EmptySeq, For,
                       IfEmpty, IfEq, IfType, NameF, Seq, Sing, Text, Var,
                       desugar)
from .typeterms import kind_member, member
from .values import (Atom, DataNode, ElemNode, VSet, is_item, vset)


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
    content() applied to element nodes.  Total."""
    out = []
    for i in v:
        if isinstance(i, Atom):
            out.append(i)
        elif isinstance(i, DataNode):
            out.append(i.content)
        else:
            out.append(o.content(i))
    return VSet(out)


def rx_name(v: VSet, o: OracleSuite) -> VSet:
    # On empty input the set {concat({})} is returned so that every RX
    # result stays a set.
    if len(v) == 0:
        return vset(o.concat(v))
    if len(v) == 1 and isinstance(v.elems[0], ElemNode):
        return vset(v.elems[0].name)
    raise _Undef(NAME_NOT_SINGLETON_ELEM)


def rx_children(v: VSet) -> VSet:
    out = []
    for i in v:
        if isinstance(i, Atom):
            raise _Undef(CHILDREN_SAW_ATOM)
        if isinstance(i, ElemNode):
            out.extend(i.children)
    return VSet(out)


def rx_construct(v: VSet, w: VSet, o: OracleSuite) -> ElemNode:
    d = rx_data(v, o)
    if len(d) != 1:
        raise _Undef(CONSTRUCT_NAME_NOT_SINGLETON)
    return ElemNode(d.elems[0], _wrap_atoms(w))


def _wrap_atoms(w: VSet) -> VSet:
    return VSet(DataNode(i) if isinstance(i, Atom) else i for i in w)


# ---------------------------------------------------------------------------
# Set-based RX evaluation.


def eval_rx(e, sigma, oracles: OracleSuite = DEFAULT_ORACLES) -> EvalOutcome:
    try:
        return Defined(_rx(desugar(e), dict(sigma), oracles))
    except _Undef as u:
        return Undefined(u.reason, u.expr)


def _rx(e, sigma, o):
    try:
        if isinstance(e, Var):
            return sigma[e.name]
        if isinstance(e, AtomLit):
            return vset(e.atom)
        if isinstance(e, Text):
            v = _rx(e.body, sigma, o)
            return vset(DataNode(o.concat(rx_data(v, o))))
        if isinstance(e, Elem):
            v = _rx(e.name_expr, sigma, o)
            w = _rx(e.content, sigma, o)
            return vset(rx_construct(v, w, o))
        if isinstance(e, DataF):
            return rx_data(_rx(e.body, sigma, o), o)
        if isinstance(e, NameF):
            return rx_name(_rx(e.body, sigma, o), o)
        if isinstance(e, ChildrenF):
            return rx_children(_rx(e.body, sigma, o))
        if isinstance(e, EmptySeq):
            return VSet()
        if isinstance(e, Seq):
            return _rx(e.left, sigma, o).union(_rx(e.right, sigma, o))
        if isinstance(e, For):
            src = _rx(e.source, sigma, o)
            parts = []
            for i in src:
                if kind_member(i, e.kind):
                    inner = dict(sigma)
                    inner[e.var] = vset(i)
                    parts.extend(_rx(e.body, inner, o))
            return VSet(parts)
        if isinstance(e, IfEq):
            branch = e.then if _rx_eq_test(e, sigma, o) else e.els
            return _rx(branch, sigma, o)
        if isinstance(e, IfEmpty):
            c = _rx(e.cond, sigma, o)
            return _rx(e.then if len(c) == 0 else e.els, sigma, o)
        if isinstance(e, IfType):
            c = _rx(e.cond, sigma, o)
            return _rx(e.then if member(c, e.type) else e.els, sigma, o)
    except _Undef as u:
        if u.expr is None:
            u.expr = e
        raise
    raise TypeError(f"not an RX expression: {e!r}")


def _rx_eq_test(e, sigma, o):
    a = rx_data(_rx(e.left, sigma, o), o)
    b = rx_data(_rx(e.right, sigma, o), o)
    if len(a) != 1 or len(b) != 1:
        raise _Undef(EQ_NOT_SINGLETON_ATOM, e)
    return a == b


# ---------------------------------------------------------------------------
# Pure RX evaluation (no oracles; values may be bare items).


def eval_pure_rx(e, sigma) -> EvalOutcome:
    try:
        return Defined(_pure(desugar(e), dict(sigma)))
    except _Undef as u:
        return Undefined(u.reason, u.expr)


def _require_set(v, reason, expr):
    if not isinstance(v, VSet):
        raise _Undef(reason, expr)
    return v


def _pure(e, sigma):
    try:
        if isinstance(e, Var):
            return sigma[e.name]
        if isinstance(e, AtomLit):
            return e.atom
        if isinstance(e, Text):
            v = _pure(e.body, sigma)
            if not isinstance(v, Atom):
                raise _Undef(TEXT_ON_NONATOM, e)
            return DataNode(v)
        if isinstance(e, Elem):
            v = _pure(e.name_expr, sigma)
            w = _pure(e.content, sigma)
            if not isinstance(v, Atom):
                raise _Undef(CONSTRUCT_NAME_NOT_ATOM, e)
            _require_set(w, ITERATION_OVER_NONSET, e)
            return ElemNode(v, _wrap_atoms(w))
        if isinstance(e, DataF):
            v = _require_set(_pure(e.body, sigma), ITERATION_OVER_NONSET, e)
            return VSet(i if isinstance(i, Atom) else i.content
                        for i in v if isinstance(i, (Atom, DataNode)))
        if isinstance(e, NameF):
            v = _pure(e.body, sigma)
            if not isinstance(v, ElemNode):
                raise _Undef(NAME_NOT_ELEM, e)
            return v.name
        if isinstance(e, ChildrenF):
            v = _require_set(_pure(e.body, sigma), ITERATION_OVER_NONSET, e)
            return rx_children(v)
        if isinstance(e, EmptySeq):
            return VSet()
        if isinstance(e, Sing):
            v = _pure(e.body, sigma)
            if not is_item(v):
                raise _Undef(SINGLETON_OF_NONITEM, e)
            return vset(v)
        if isinstance(e, Seq):
            l = _require_set(_pure(e.left, sigma), SEQ_OPERAND_NOT_SET, e)
            r = _require_set(_pure(e.right, sigma), SEQ_OPERAND_NOT_SET, e)
            return l.union(r)
        if isinstance(e, For):
            src = _require_set(_pure(e.source, sigma),
                               ITERATION_OVER_NONSET, e)
            parts = []
            for i in src:
                if kind_member(i, e.kind):
                    inner = dict(sigma)
                    inner[e.var] = i
                    body = _pure(e.body, inner)
                    _require_set(body, BODY_NOT_SET, e)
                    parts.extend(body)
            return VSet(parts)
        if isinstance(e, IfEq):
            a = _pure(e.left, sigma)
            b = _pure(e.right, sigma)
            if not (isinstance(a, Atom) and isinstance(b, Atom)):
                raise _Undef(EQ_ON_NONATOM, e)
            return _pure(e.then if a == b else e.els, sigma)
        if isinstance(e, IfEmpty):
            c = _pure(e.cond, sigma)
            empty = isinstance(c, VSet) and len(c) == 0
            return _pure(e.then if empty else e.els, sigma)
        if isinstance(e, IfType):
            c = _pure(e.cond, sigma)
            return _pure(e.then if member(c, e.type) else e.els, sigma)
    except _Undef as u:
        if u.expr is None:
            u.expr = e
        raise
    raise TypeError(f"not a pure RX expression: {e!r}")
