"""Evaluator for the positive-existential nested calculus with kind
tests, and the k-complexity measure used by the decision procedures.

``compile_penrc`` compiles an expression once into a tree of closures
(see ``rx.Compiler``); ``eval_penrc`` checks one environment and runs
it there, and the decision procedures run one program on each of the
environments of Γ that they examine."""

from __future__ import annotations

from operator import attrgetter

from .frontend import (AtomLit, EmptySeq, IfEmpty, IfEq, NComp, NFlatten,
                       NKindCond, NPair, NProj1, NProj2, NUnion, Sing, Var)
# The equality and emptiness tests, and their reason EQ_ON_NONATOM,
# are those of pure RX.
from .rx import (EQ_ON_NONATOM, Compiler, _Undef, _constant,  # noqa: F401
                 _eq_atoms, _if_empty, _run_checked, _unary, _var)
from .typeterms import kind_member
from .values import EMPTY_SET, Pair, VSet, is_nrc_value, vset

PROJ_ON_NONPAIR = "proj-on-nonpair"
UNION_ON_NONSET = "union-on-nonset"
FLATTEN_ON_NONSET = "flatten-on-nonset"
FLATTEN_ON_NONSET_OF_SETS = "flatten-on-nonset-of-sets"
COMPREHENSION_ON_NONSET = "comprehension-on-nonset"


class NonPenrcError(ValueError):
    """The expression falls outside the decidable fragment."""


def compile_penrc(e):
    """The evaluator of e: environment -> Defined(value) or
    Undefined(reason, failing subexpression)."""
    return Compiler(_PENRC, "a nested-calculus expression").program(e)


def eval_penrc(e, sigma):
    """Defined(value) or Undefined(reason, failing subexpression) of e
    under sigma; ValueError unless sigma binds e's free variables, and
    every name to an NRC value."""
    return _run_checked(compile_penrc(e), sigma, is_nrc_value,
                        "an NRC value (atoms, pairs and sets)")


def _pair(c, e):
    left, right = c.expr(e.left), c.expr(e.right)
    return lambda r: Pair(left(r), right(r))


def _sing(c, e):
    body = c.expr(e.body)
    return lambda r: vset(body(r))


def _union(c, e):
    left, right = c.expr(e.left), c.expr(e.right)

    def union(r):
        a = left(r)
        b = right(r)
        if not (isinstance(a, VSet) and isinstance(b, VSet)):
            raise _Undef(UNION_ON_NONSET, e)
        return a.union(b)
    return union


def _flatten(c, e):
    body = c.expr(e.body)

    def flatten(r):
        v = body(r)
        if not isinstance(v, VSet):
            raise _Undef(FLATTEN_ON_NONSET, e)
        parts = []
        for s in v.elems:
            if not isinstance(s, VSet):
                raise _Undef(FLATTEN_ON_NONSET_OF_SETS, e)
            parts.extend(s.elems)
        return VSet(parts)
    return flatten


def _comprehension(c, e):
    src = c.expr(e.source)
    slot, body = c.bind(e.var, e.body)

    def comp(r):
        s = src(r)
        if not isinstance(s, VSet):
            raise _Undef(COMPREHENSION_ON_NONSET, e)
        parts = []
        for v in s.elems:
            r[slot] = v
            parts.append(body(r))
        return VSet(parts)
    return comp


def _if_kind(c, e):
    subject, then, els = c.expr(e.subject), c.expr(e.then), c.expr(e.els)
    classes, exact = c.kind_filter(e.kind)
    kind = e.kind

    def ifkind(r):
        v = subject(r)
        if isinstance(v, classes) and (exact or kind_member(v, kind)):
            return then(r)
        return els(r)
    return ifkind


# The emptiness test IfEmpty is the full-NRC extension; the decision
# procedures reject it.
_PENRC = {
    Var: _var, AtomLit: lambda c, e: _constant(e.atom), NPair: _pair,
    NProj1: _unary(Pair, PROJ_ON_NONPAIR, attrgetter("fst")),
    NProj2: _unary(Pair, PROJ_ON_NONPAIR, attrgetter("snd")),
    EmptySeq: lambda c, e: _constant(EMPTY_SET), Sing: _sing, NUnion: _union,
    NFlatten: _flatten, NComp: _comprehension, IfEq: _eq_atoms,
    NKindCond: _if_kind, IfEmpty: _if_empty,
}


def complexity(e, k: int, memo=None) -> int:
    """The k-complexity c(e, k): witnesses of set-cardinality <= k in
    the output trace back to environments whose sets have cardinality
    at most c(e, k).  Exact (unbounded) integer arithmetic.  memo maps
    (id of a node, k) to its result, as for frontend.free_vars: the
    pure-RX translation shares subtrees.  Every node is visited, the
    operands of the tests included, so an emptiness test anywhere in e
    raises NonPenrcError."""
    if memo is None:
        memo = {}
    out = memo.get((id(e), k))
    if out is not None:
        return out
    if isinstance(e, Var):
        out = k
    elif isinstance(e, (EmptySeq, AtomLit)):
        out = 0
    elif isinstance(e, (NPair, NUnion)):
        out = complexity(e.left, k, memo) + complexity(e.right, k, memo)
    elif isinstance(e, (NProj1, NProj2, NFlatten)):
        out = complexity(e.body, k, memo)
    elif isinstance(e, Sing):
        out = k * complexity(e.body, k, memo)
    elif isinstance(e, NComp):
        body = complexity(e.body, k, memo)
        out = complexity(e.source, max(k, body), memo) + k * body
    elif isinstance(e, (IfEq, NKindCond)):
        for operand in ((e.left, e.right) if isinstance(e, IfEq)
                        else (e.subject,)):
            complexity(operand, k, memo)
        out = max(complexity(e.then, k, memo), complexity(e.els, k, memo))
    elif isinstance(e, IfEmpty):
        raise NonPenrcError(
            "emptiness tests are outside the decidable fragment")
    else:
        raise TypeError(f"not a nested-calculus expression: {e!r}")
    memo[(id(e), k)] = out
    return out
