"""Type and kind terms for the three calculi, membership tests, and the
numeric measures (rank, type complexity) feeding the decision procedures.

One family of constructors covers all grammars:

* NRC types use ``VoidT | AtomT | ProdT | SumT | CollT``.
* RX types use ``CollT(i) | SingleT(i)`` over item types built from
  ``AtomT | DataT | ElemT | SumT``; an RX ``ElemT`` carries a content
  type that is itself a ``CollT`` or ``SingleT``.
* Pure RX types use ``CollT(i) | i | SumT`` with ``ElemT`` carrying a
  union of node types (``VoidT`` for the empty union).

Kinds use ``KAtom | KData | KElem | KColl | KProd | KSum``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .values import (Atom, DataNode, ElemNode, Pair, VSet, sort_key)


@dataclass(frozen=True)
class VoidT:
    pass


@dataclass(frozen=True)
class AtomT:
    pass


@dataclass(frozen=True)
class DataT:
    pass


@dataclass(frozen=True)
class ElemT:
    # RX: a CollT/SingleT content type; pure RX: a union of node types
    # (VoidT for the empty union).
    content: object


@dataclass(frozen=True)
class CollT:
    item: object


@dataclass(frozen=True)
class SingleT:
    item: object


@dataclass(frozen=True)
class ProdT:
    left: object
    right: object


@dataclass(frozen=True)
class SumT:
    left: object
    right: object


@dataclass(frozen=True)
class KAtom:
    pass


@dataclass(frozen=True)
class KData:
    pass


@dataclass(frozen=True)
class KElem:
    pass


@dataclass(frozen=True)
class KColl:
    pass


@dataclass(frozen=True)
class KProd:
    left: object
    right: object


@dataclass(frozen=True)
class KSum:
    left: object
    right: object


#: The universal RX kind atom | data | elem.
KIND_ANY = KSum(KAtom(), KSum(KData(), KElem()))


# ---------------------------------------------------------------------------
# Denotational membership.


def member(v, t) -> bool:
    """v is in the denotation of type term t."""
    if isinstance(t, VoidT):
        return False
    if isinstance(t, AtomT):
        return isinstance(v, Atom)
    if isinstance(t, DataT):
        return isinstance(v, DataNode)
    if isinstance(t, ElemT):
        if not isinstance(v, ElemNode):
            return False
        if isinstance(t.content, (CollT, SingleT)):
            # RX form: the child set itself belongs to the content type.
            return member(v.children, t.content)
        # Pure form: every child belongs to the node-type union.
        return all(member(c, t.content) for c in v.children)
    if isinstance(t, CollT):
        return isinstance(v, VSet) and all(member(e, t.item) for e in v)
    if isinstance(t, SingleT):
        return isinstance(v, VSet) and len(v) == 1 and member(v.elems[0], t.item)
    if isinstance(t, ProdT):
        return (isinstance(v, Pair)
                and member(v.fst, t.left) and member(v.snd, t.right))
    if isinstance(t, SumT):
        return member(v, t.left) or member(v, t.right)
    raise TypeError(f"not a type term: {t!r}")


def kind_member(v, k) -> bool:
    """v is in the denotation of kind term k."""
    if isinstance(k, KAtom):
        return isinstance(v, Atom)
    if isinstance(k, KData):
        return isinstance(v, DataNode)
    if isinstance(k, KElem):
        return isinstance(v, ElemNode)
    if isinstance(k, KColl):
        return isinstance(v, VSet)
    if isinstance(k, KProd):
        return (isinstance(v, Pair)
                and kind_member(v.fst, k.left) and kind_member(v.snd, k.right))
    if isinstance(k, KSum):
        return kind_member(v, k.left) or kind_member(v, k.right)
    raise TypeError(f"not a kind term: {k!r}")


# ---------------------------------------------------------------------------
# Numeric measures on NRC types.


def rank(t, k: int) -> int:
    """Maximum number of atoms a value of NRC type t with sets of
    cardinality <= k can mention.  rank of the empty type is 0 (its
    denotation is empty)."""
    if isinstance(t, VoidT):
        return 0
    if isinstance(t, AtomT):
        return 1
    if isinstance(t, ProdT):
        return rank(t.left, k) + rank(t.right, k)
    if isinstance(t, SumT):
        return max(rank(t.left, k), rank(t.right, k))
    if isinstance(t, CollT):
        return k * rank(t.item, k)
    raise TypeError(f"not an NRC type: {t!r}")


def type_complexity(t) -> int:
    """Set-cardinality bound on counter-witnesses to membership in t."""
    if isinstance(t, (VoidT, AtomT)):
        return 0
    if isinstance(t, ProdT):
        return max(type_complexity(t.left), type_complexity(t.right))
    if isinstance(t, SumT):
        return type_complexity(t.left) + type_complexity(t.right)
    if isinstance(t, CollT):
        return max(1, type_complexity(t.item))
    raise TypeError(f"not an NRC type: {t!r}")


# ---------------------------------------------------------------------------
# Bounded enumeration of a type's denotation.


class EnumerationBudgetError(RuntimeError):
    """The requested enumeration would exceed the configured budget."""


DEFAULT_VALUE_BUDGET = 10 ** 6


def count_values_upper(t, k: int, n_atoms: int) -> int:
    """Upper bound on the number of values of type t with sets of size
    <= k over n_atoms atoms (unions may overlap, so this can overcount)."""
    if isinstance(t, VoidT):
        return 0
    if isinstance(t, AtomT):
        return n_atoms
    if isinstance(t, DataT):
        return n_atoms
    if isinstance(t, ElemT):
        if isinstance(t.content, (CollT, SingleT)):
            return n_atoms * count_values_upper(t.content, k, n_atoms)
        return n_atoms * _count_subsets(count_values_upper(t.content, k, n_atoms), k)
    if isinstance(t, CollT):
        return _count_subsets(count_values_upper(t.item, k, n_atoms), k)
    if isinstance(t, SingleT):
        return count_values_upper(t.item, k, n_atoms)
    if isinstance(t, ProdT):
        return count_values_upper(t.left, k, n_atoms) * count_values_upper(t.right, k, n_atoms)
    if isinstance(t, SumT):
        return count_values_upper(t.left, k, n_atoms) + count_values_upper(t.right, k, n_atoms)
    raise TypeError(f"not a type term: {t!r}")


def _count_subsets(n: int, k: int) -> int:
    total = 0
    from math import comb
    for i in range(min(n, k) + 1):
        total += comb(n, i)
    return total


def iter_values(t, k: int, atoms, budget: int = DEFAULT_VALUE_BUDGET):
    """Yield, lazily and in canonical order without duplicates, every
    value v with member(v, t), sets of cardinality <= k, and atoms(v)
    drawn from `atoms`.

    Set-typed positions are streamed (subsets in canonical order), so a
    first match can be found even when the full space is enormous; the
    element universe of each set position is materialized and checked
    against `budget`.
    """
    atoms = sorted(set(atoms), key=sort_key)
    return _iter(t, k, atoms, budget)


def _materialize(t, k, atoms, budget):
    if count_values_upper(t, k, len(atoms)) > budget:
        raise EnumerationBudgetError(
            f"enumeration of {t!r} exceeds budget {budget}")
    out = list(_iter(t, k, atoms, budget))
    if len(out) > budget:
        raise EnumerationBudgetError(
            f"enumeration of {t!r} exceeds budget {budget}")
    return out


def _iter(t, k, atoms, budget):
    if isinstance(t, VoidT):
        return
    elif isinstance(t, AtomT):
        yield from atoms
    elif isinstance(t, DataT):
        for a in atoms:
            yield DataNode(a)
    elif isinstance(t, ElemT):
        if isinstance(t.content, (CollT, SingleT)):
            for a in atoms:
                for n in _iter(t.content, k, atoms, budget):
                    yield ElemNode(a, n)
        else:
            elems = _materialize(t.content, k, atoms, budget)
            for a in atoms:
                for sub in _iter_subsets(elems, k):
                    yield ElemNode(a, VSet(sub))
    elif isinstance(t, CollT):
        elems = _materialize(t.item, k, atoms, budget)
        for sub in _iter_subsets(elems, k):
            yield VSet(sub)
    elif isinstance(t, SingleT):
        for v in _iter(t.item, k, atoms, budget):
            yield VSet([v])
    elif isinstance(t, ProdT):
        rights = _materialize(t.right, k, atoms, budget)
        for l in _iter(t.left, k, atoms, budget):
            for r in rights:
                yield Pair(l, r)
    elif isinstance(t, SumT):
        yield from _merge_unique(_iter(t.left, k, atoms, budget),
                                 _iter(t.right, k, atoms, budget))
    else:
        raise TypeError(f"not a type term: {t!r}")


def _iter_subsets(sorted_elems, k):
    """Subsets of size <= k of a canonically sorted duplicate-free list,
    in canonical set order (lexicographic on sorted element tuples)."""
    n = len(sorted_elems)

    def rec(prefix, start):
        yield tuple(prefix)
        if len(prefix) == k:
            return
        for i in range(start, n):
            prefix.append(sorted_elems[i])
            yield from rec(prefix, i + 1)
            prefix.pop()

    return rec([], 0)


def _merge_unique(it1, it2):
    s1 = _Peek(it1)
    s2 = _Peek(it2)
    last = _SENTINEL = object()
    while True:
        if s1.done and s2.done:
            return
        if s2.done or (not s1.done and sort_key(s1.head) <= sort_key(s2.head)):
            v = s1.pop()
        else:
            v = s2.pop()
        if last is _SENTINEL or v != last:
            yield v
            last = v


class _Peek:
    def __init__(self, it):
        self._it = iter(it)
        self.done = False
        self._advance()

    def _advance(self):
        try:
            self.head = next(self._it)
        except StopIteration:
            self.done = True
            self.head = None

    def pop(self):
        v = self.head
        self._advance()
        return v


def enumerate_values(t, k: int, atoms, budget: int = DEFAULT_VALUE_BUDGET):
    """Eager version of iter_values, budget-checked."""
    out = []
    for v in iter_values(t, k, atoms, budget):
        out.append(v)
        if len(out) > budget:
            raise EnumerationBudgetError(
                f"enumeration of {t!r} exceeds budget {budget}")
    return out


def all_values(depth: int, atoms, max_set: int):
    """Brute-force universe of NRC values of bounded depth; a test
    oracle for enumerate_values, independent of type terms."""
    atoms = sorted(set(atoms), key=sort_key)
    vals = list(atoms)
    for _ in range(depth):
        layer = list(vals)
        pairs = [Pair(a, b) for a, b in itertools.product(layer, repeat=2)]
        sets = [VSet(c) for n in range(max_set + 1)
                for c in itertools.combinations(layer, n)]
        vals = _dedupe(layer + pairs + sets)
    return sorted(_dedupe(vals), key=sort_key)


def _dedupe(vals):
    return list(dict.fromkeys(vals))
