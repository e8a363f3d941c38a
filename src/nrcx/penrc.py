"""Evaluator for the positive-existential nested calculus with kind
tests, and the k-complexity measure used by the decision procedures.

``compile_penrc`` compiles an expression once into a tree of closures
(see ``rx.Compiler``); ``eval_penrc`` runs it on one environment, and
the decision procedures run one compiled program on every environment
they examine."""

from __future__ import annotations

from operator import attrgetter

from .frontend import (NAtomLit, NComp, NEmpty, NEmptyCond, NEqCond,
                       NFlatten, NKindCond, NPair, NProj1, NProj2, NSing,
                       NUnion, NVar)
# The equality and emptiness tests, and their reason EQ_ON_NONATOM,
# are those of pure RX.
from .rx import (EQ_ON_NONATOM, Compiler, _Undef, _constant,  # noqa: F401
                 _eq_atoms, _if_empty, _kind_filter, _unary, _var)
from .typeterms import kind_member
from .values import EMPTY_SET, Pair, VSet, vset

PROJ_ON_NONPAIR = "proj-on-nonpair"
UNION_ON_NONSET = "union-on-nonset"
FLATTEN_ON_NONSET = "flatten-on-nonset"
FLATTEN_ON_NONSET_OF_SETS = "flatten-on-nonset-of-sets"
COMPREHENSION_ON_NONSET = "comprehension-on-nonset"


def compile_penrc(e):
    """The evaluator of e: environment -> Defined(value) or
    Undefined(reason, failing subexpression)."""
    return Compiler(_PENRC, "a nested-calculus expression").program(e)


def eval_penrc(e, sigma):
    """Evaluate e under sigma; returns Defined(value) or
    Undefined(reason, failing subexpression)."""
    return compile_penrc(e)(sigma)


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
    classes, exact = _kind_filter(e.kind)
    kind = e.kind

    def ifkind(r):
        v = subject(r)
        if isinstance(v, classes) and (exact or kind_member(v, kind)):
            return then(r)
        return els(r)
    return ifkind


# NEmptyCond is the full-NRC extension; the decision procedures reject it.
_PENRC = {
    NVar: _var, NAtomLit: lambda c, e: _constant(e.atom), NPair: _pair,
    NProj1: _unary(Pair, PROJ_ON_NONPAIR, attrgetter("fst")),
    NProj2: _unary(Pair, PROJ_ON_NONPAIR, attrgetter("snd")),
    NEmpty: lambda c, e: _constant(EMPTY_SET), NSing: _sing, NUnion: _union,
    NFlatten: _flatten, NComp: _comprehension, NEqCond: _eq_atoms,
    NKindCond: _if_kind, NEmptyCond: _if_empty,
}


def complexity(e, k: int) -> int:
    """The k-complexity c(e, k): witnesses of set-cardinality <= k in
    the output trace back to environments whose sets have cardinality
    at most c(e, k).  Exact (unbounded) integer arithmetic."""
    if isinstance(e, NVar):
        return k
    if isinstance(e, (NEmpty, NAtomLit)):
        return 0
    if isinstance(e, (NPair, NUnion)):
        return complexity(e.left, k) + complexity(e.right, k)
    if isinstance(e, (NProj1, NProj2, NFlatten)):
        return complexity(e.body, k)
    if isinstance(e, NSing):
        return k * complexity(e.body, k)
    if isinstance(e, NComp):
        return (complexity(e.source, max(k, complexity(e.body, k)))
                + k * complexity(e.body, k))
    if isinstance(e, NEqCond):
        return max(complexity(e.then, k), complexity(e.els, k))
    if isinstance(e, NKindCond):
        return max(complexity(e.then, k), complexity(e.els, k))
    if isinstance(e, NEmptyCond):
        raise ValueError(
            "k-complexity is not defined for the emptiness test")
    raise TypeError(f"not a nested-calculus expression: {e!r}")
