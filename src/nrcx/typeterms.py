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


_KIND_CLASSES = {KAtom: (Atom,), KData: (DataNode,), KElem: (ElemNode,),
                 KColl: (VSet,)}


def kind_classes(k):
    """The classes whose instances are exactly the values of kind k, as
    one isinstance tuple, when k is a sum of atom, data, element and
    collection kinds; None when it has a product in it."""
    if isinstance(k, KSum):
        left, right = kind_classes(k.left), kind_classes(k.right)
        return None if left is None or right is None else left + right
    return _KIND_CLASSES.get(type(k))


def is_nrc_type(t) -> bool:
    """t is a type of the nested calculus: no nodes and no singletons."""
    if isinstance(t, (VoidT, AtomT)):
        return True
    if isinstance(t, CollT):
        return is_nrc_type(t.item)
    if isinstance(t, (ProdT, SumT)):
        return is_nrc_type(t.left) and is_nrc_type(t.right)
    return False


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
    against `budget`.  This is iter_canonical_values with no fresh
    atoms, so nothing is pruned.
    """
    for v, _ in iter_canonical_values(t, k, atoms, (), 0, budget):
        yield v


def iter_canonical_values(t, k: int, atoms, fresh, seen: int,
                          budget: int = DEFAULT_VALUE_BUDGET):
    """Yield (v, seen') for the values v of iter_values(t, k, atoms,
    budget), in the same order, that keep the fresh atoms canonical.

    `fresh` lists the fresh atoms among `atoms` in supply order, and
    `seen` counts those that have appeared so far.  Walking v in
    preorder (an element's name before its children, a pair's fst
    before its snd, set elements in canonical order), each fresh atom
    must have an index below the running count or equal to it, and in
    the second case the count grows by one; seen' is the count after v.
    So one value is generated per renaming of the fresh atoms not yet
    seen.  The condition holds of a value only if it holds of each
    preorder prefix, and a subset or a pair extends its prefix in
    preorder, so an element or a left component that fails prunes
    everything built on it before it is built.
    """
    atoms = sorted(set(atoms), key=sort_key)
    # Keyed by token: an Atom's own hash is computed in Python.
    index = {a.token: i for i, a in enumerate(fresh)}
    return _iter(t, k, atoms, budget, index, seen)


def _materialize(t, k, atoms, budget):
    """The universe of a set or right-hand pair position: every value of
    t, none pruned, since a set or a pair may still reach a canonical
    order through its other parts."""
    if count_values_upper(t, k, len(atoms)) > budget:
        raise EnumerationBudgetError(
            f"enumeration of {t!r} exceeds budget {budget}")
    out = [v for v, _ in _iter(t, k, atoms, budget, {}, 0)]
    if len(out) > budget:
        raise EnumerationBudgetError(
            f"enumeration of {t!r} exceeds budget {budget}")
    return out


def _fresh_order(v, index, out=None):
    """Indices of v's fresh atoms in preorder."""
    if out is None:
        out = []
    if isinstance(v, VSet):
        for e in v.elems:
            _fresh_order(e, index, out)
    elif isinstance(v, Atom):
        i = index.get(v.token)
        if i is not None:
            out.append(i)
    elif isinstance(v, Pair):
        _fresh_order(v.fst, index, out)
        _fresh_order(v.snd, index, out)
    elif isinstance(v, DataNode):
        _fresh_order(v.content, index, out)
    else:
        _fresh_order(v.name, index, out)
        _fresh_order(v.children, index, out)
    return out


def _advance(order, seen):
    """The count of fresh atoms seen after a value whose fresh atoms come
    in `order`, or -1 when one of them appears out of turn."""
    for i in order:
        if i == seen:
            seen += 1
        elif i > seen:
            return -1
    return seen


def _iter_atoms(atoms, index, seen):
    for a in atoms:
        i = index.get(a.token)
        if i is None or i < seen:
            yield a, seen
        elif i == seen:
            yield a, seen + 1


def _iter(t, k, atoms, budget, index, seen):
    if isinstance(t, VoidT):
        return
    elif isinstance(t, AtomT):
        yield from _iter_atoms(atoms, index, seen)
    elif isinstance(t, DataT):
        for a, s in _iter_atoms(atoms, index, seen):
            yield DataNode(a), s
    elif isinstance(t, ElemT):
        if isinstance(t.content, (CollT, SingleT)):
            for a, s in _iter_atoms(atoms, index, seen):
                for n, s2 in _iter(t.content, k, atoms, budget, index, s):
                    yield ElemNode(a, n), s2
        else:
            elems = _materialize(t.content, k, atoms, budget)
            orders = [None] * len(elems)
            for a, s in _iter_atoms(atoms, index, seen):
                for sub, s2 in _iter_subsets(elems, orders, k, index, s):
                    yield ElemNode(a, VSet(sub)), s2
    elif isinstance(t, CollT):
        elems = _materialize(t.item, k, atoms, budget)
        orders = [None] * len(elems)
        for sub, s in _iter_subsets(elems, orders, k, index, seen):
            yield VSet(sub), s
    elif isinstance(t, SingleT):
        for v, s in _iter(t.item, k, atoms, budget, index, seen):
            yield VSet([v]), s
    elif isinstance(t, ProdT):
        rights = _materialize(t.right, k, atoms, budget)
        orders = [_fresh_order(r, index) if index else () for r in rights]
        for l, s in _iter(t.left, k, atoms, budget, index, seen):
            for r, order in zip(rights, orders):
                s2 = _advance(order, s)
                if s2 >= 0:
                    yield Pair(l, r), s2
    elif isinstance(t, SumT):
        yield from _merge_unique(
            _iter(t.left, k, atoms, budget, index, seen),
            _iter(t.right, k, atoms, budget, index, seen))
    else:
        raise TypeError(f"not a type term: {t!r}")


def _iter_subsets(elems, orders, k, index, seen):
    """(subset, seen') for the subsets of size <= k of a canonically
    sorted duplicate-free list, in canonical set order (lexicographic on
    sorted element tuples), skipping every subset whose fresh atoms come
    out of turn.  orders[i] caches the fresh order of elems[i], computed
    when the element is first reached."""
    n = len(elems)

    def rec(prefix, start, seen):
        yield tuple(prefix), seen
        if len(prefix) == k:
            return
        for i in range(start, n):
            s = seen
            if index:
                order = orders[i]
                if order is None:
                    order = orders[i] = _fresh_order(elems[i], index)
                s = _advance(order, seen)
                if s < 0:
                    continue
            prefix.append(elems[i])
            yield from rec(prefix, i + 1, s)
            prefix.pop()

    return rec([], 0, seen)


def _merge_unique(it1, it2):
    """Merge two canonically ordered streams of (value, seen') pairs,
    keeping one of each value (equal values have equal seen')."""
    s1 = _Peek(it1)
    s2 = _Peek(it2)
    last = _SENTINEL = object()
    while True:
        if s1.done and s2.done:
            return
        if s2.done or (not s1.done
                       and sort_key(s1.head[0]) <= sort_key(s2.head[0])):
            item = s1.pop()
        else:
            item = s2.pop()
        if last is _SENTINEL or item[0] != last:
            yield item
            last = item[0]


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
