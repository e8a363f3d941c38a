"""Type and kind terms for the three calculi, membership tests, and the
numeric measures (rank, type complexity) feeding the decision procedures.

One family of constructors covers all grammars:

* NRC types use ``VoidT | AtomT | ProdT | SumT | CollT``.
* RX types use ``CollT(i) | SingleT(i)`` over item types built from
  ``AtomT | DataT | ElemT | SumT``; an RX ``ElemT`` carries a content
  type that is itself a ``CollT`` or ``SingleT``.
* Pure RX types use ``CollT(i) | i | SumT`` with ``ElemT`` carrying a
  union of node types (``VoidT`` for the empty union).
* ``DataEncT`` is the image of pure RX data nodes under the value
  encoding, the one nested type that the translation of pure RX types
  adds: the diagonal subclass of the ``PAPER_DATA_T`` product.

Kinds use ``KAtom | KData | KElem | KColl | KProd | KSum``.
"""

from __future__ import annotations

from heapq import merge
from itertools import islice

from .record import record
from .sexpr import write
from .values import (EMPTY_SET, Atom, DataNode, ElemNode, Pair, VSet,
                     sort_key)


@record
class VoidT:
    pass


@record
class AtomT:
    pass


@record
class DataT:
    pass


@record
class ElemT:
    # RX: a CollT/SingleT content type; pure RX: a union of node types
    # (VoidT for the empty union).
    content: object


@record
class CollT:
    item: object


@record
class SingleT:
    item: object


@record
class ProdT:
    left: object
    right: object


@record
class SumT:
    left: object
    right: object


PAPER_DATA_T = ProdT(ProdT(AtomT(), AtomT()), CollT(VoidT()))


class DataEncT(ProdT):
    """The encodings ((a, a), {}) of data nodes: the diagonal subclass of
    the PAPER_DATA_T product.  The paper translates data to PAPER_DATA_T,
    ((atom x atom) x {void}), which also holds ((a, b), {}) with a != b,
    off the image of the encoding; this term holds the image only.  As a
    ProdT with PAPER_DATA_T's parts it has that type's rank, type
    complexity, value count bound, printed form and projections, so the
    bounds derived from a translated type are the paper's; only the
    rules about its values name it.  It never equals PAPER_DATA_T."""

    def __init__(self):
        ProdT.__init__(self, PAPER_DATA_T.left, PAPER_DATA_T.right)


@record
class KAtom:
    pass


@record
class KData:
    pass


@record
class KElem:
    pass


@record
class KColl:
    pass


@record
class KProd:
    left: object
    right: object


@record
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
                and member(v.fst, t.left) and member(v.snd, t.right)
                and (not isinstance(t, DataEncT) or v.fst.fst == v.fst.snd))
    if isinstance(t, SumT):
        return member(v, t.left) or member(v, t.right)
    raise TypeError(f"not a type term: {t!r}")


_KIND_CLASSES = {KAtom: (Atom,), KData: (DataNode,), KElem: (ElemNode,),
                 KColl: (VSet,)}


def kind_member(v, k) -> bool:
    """v is in the denotation of kind term k."""
    if type(k) in _KIND_CLASSES:
        return isinstance(v, _KIND_CLASSES[type(k)])
    if isinstance(k, KProd):
        return (isinstance(v, Pair)
                and kind_member(v.fst, k.left) and kind_member(v.snd, k.right))
    if isinstance(k, KSum):
        return kind_member(v, k.left) or kind_member(v, k.right)
    raise TypeError(f"not a kind term: {k!r}")


def kind_filter(k):
    """(classes, exact): v is of kind k iff isinstance(v, classes) and
    (exact or kind_member(v, k)).  exact holds, with the classes whose
    instances are exactly the values of k, when k is a sum of atom,
    data, element and collection kinds; a product in k leaves the test
    to kind_member."""
    if isinstance(k, KSum):
        left, right = kind_filter(k.left), kind_filter(k.right)
        if left[1] and right[1]:
            return left[0] + right[0], True
    elif type(k) in _KIND_CLASSES:
        return _KIND_CLASSES[type(k)], True
    return object, False


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


def _over_budget(t, budget):
    # frontend imports this module, so its printer is imported here.
    from .frontend import print_type
    return EnumerationBudgetError(
        f"enumeration of {write(print_type(t))} exceeds budget {budget}")


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

    Set-typed positions are streamed (subsets in canonical order), and
    the element universe of each set position is drawn only as far as
    the stream reaches, so a first match can be found even when the
    full space is enormous.  This is iter_canonical_values with no
    fresh atoms, so nothing is pruned.
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

    Each set element and right-hand pair position has a _Universe,
    drawn on demand.  EnumerationBudgetError is raised, before the
    first value, when a position's count_values_upper exceeds
    `budget`.
    """
    atoms = sorted(set(atoms), key=sort_key)
    # Keyed by token: an Atom's own hash is computed in Python.
    index = {a.token: i for i, a in enumerate(fresh)}
    return _iter(t, k, atoms, budget, index, seen)


class _Universe:
    """The values of a set or right-hand pair position, in canonical
    order: every value of its type, none pruned, since a set or a pair
    may still reach a canonical order through its other parts.  They
    are drawn from the type's stream as they are first reached and
    kept in `values`; orders[i] caches the fresh order of values[i],
    computed when the value is first reached.

    Creating a universe checks its count against the budget and draws
    its first value, so every nested position is checked before the
    enclosing stream yields anything, as when universes were built
    whole."""

    __slots__ = ("values", "orders", "_stream")

    def __init__(self, t, k, atoms, budget):
        if count_values_upper(t, k, len(atoms)) > budget:
            raise _over_budget(t, budget)
        self.values = []
        self.orders = []
        self._stream = _iter(t, k, atoms, budget, {}, 0)
        self.reach(0)

    def reach(self, i):
        """Whether the universe has a value at index i, drawing chunks
        of its stream, each as long as all drawn so far, until it has
        or the stream ends."""
        values = self.values
        while i >= len(values):
            if self._stream is None:
                return False
            want = len(values) or 1
            chunk = _materialize(self._stream, want)
            values += chunk
            self.orders += [None] * len(chunk)
            if len(chunk) < want:
                self._stream = None
        return True


def _materialize(stream, n):
    """The next n values of a universe's stream, fewer where it ends."""
    return [v for v, _ in islice(stream, n)]


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
            elems = _Universe(t.content, k, atoms, budget)
            for a, s in _iter_atoms(atoms, index, seen):
                for sub, s2 in _iter_subsets(elems, k, index, s):
                    yield ElemNode(a, VSet(sub)), s2
    elif isinstance(t, CollT):
        elems = _Universe(t.item, k, atoms, budget)
        for sub, s in _iter_subsets(elems, k, index, seen):
            yield VSet(sub), s
    elif isinstance(t, SingleT):
        for v, s in _iter(t.item, k, atoms, budget, index, seen):
            yield VSet([v]), s
    elif isinstance(t, DataEncT):
        # Before ProdT: the subsequence of PAPER_DATA_T's stream with
        # equal atoms.
        for a, s in _iter_atoms(atoms, index, seen):
            yield Pair(Pair(a, a), EMPTY_SET), s
    elif isinstance(t, ProdT):
        rights = _Universe(t.right, k, atoms, budget)
        values, orders, reach = rights.values, rights.orders, rights.reach
        for l, s in _iter(t.left, k, atoms, budget, index, seen):
            i = 0
            while i < len(values) or reach(i):
                r = values[i]
                if index:
                    order = orders[i]
                    if order is None:
                        order = orders[i] = _fresh_order(r, index)
                    s2 = _advance(order, s)
                    if s2 >= 0:
                        yield Pair(l, r), s2
                else:
                    yield Pair(l, r), s
                i += 1
    elif isinstance(t, SumT):
        yield from _merge_unique(
            _iter(t.left, k, atoms, budget, index, seen),
            _iter(t.right, k, atoms, budget, index, seen))
    else:
        raise TypeError(f"not a type term: {t!r}")


def _iter_subsets(universe, k, index, seen, prefix=(), start=0):
    """(subset, seen') for the subsets of size <= k of a _Universe that
    extend the tuple prefix with elements from index start on, in
    canonical set order (lexicographic on sorted element tuples),
    skipping every subset whose fresh atoms come out of turn.  Elements
    are drawn from the universe as the subsets first reach them, so a
    consumer that stops early draws only the prefix it reached."""
    yield prefix, seen
    if len(prefix) == k:
        return
    elems, orders, reach = universe.values, universe.orders, universe.reach
    i = start
    while i < len(elems) or reach(i):
        s = seen
        if index:
            order = orders[i]
            if order is None:
                order = orders[i] = _fresh_order(elems[i], index)
            s = _advance(order, seen)
            if s < 0:
                i += 1
                continue
        yield from _iter_subsets(universe, k, index, s, prefix + (elems[i],),
                                 i + 1)
        i += 1


def _merge_unique(it1, it2):
    """Merge two canonically ordered streams of (value, seen') pairs,
    keeping one of each value (equal values have equal seen'); on equal
    keys the first stream's item comes first."""
    last = None
    for item in merge(it1, it2, key=lambda item: sort_key(item[0])):
        if last is None or item[0] != last:
            yield item
            last = item[0]
