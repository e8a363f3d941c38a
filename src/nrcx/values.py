"""Value representations shared by all three calculi.

A value is one of:

* ``Atom`` -- an opaque token from a countable namespace,
* ``DataNode`` / ``ElemNode`` -- XML-ish nodes (element content is a set
  of nodes),
* ``Pair`` -- an ordered pair of values,
* ``VSet`` -- a finite, duplicate-free, canonically ordered set of values.

All values are immutable and hashable; ``VSet`` canonicalizes on
construction, so structural equality coincides with set equality.

The canonical total order puts atoms < data nodes < element nodes <
pairs < sets, with each tier ordered recursively (atoms by token).

This module also implements the sub-value order ``subvalue``, the join
``join``, the minimum ``min_value``, the bounded-cardinality predicates
``in_Vk`` / ``in_Ek``, and atom-renaming lifts, together with the JSON
wire form used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

# Atom tokens starting with "@" are reserved for machinery-generated
# fresh atoms (decision procedures, reduction tags).
RESERVED_ATOM_PREFIX = "@"


@dataclass(frozen=True)
class Atom:
    token: str

    def __post_init__(self):
        if not self.token:
            raise ValueError("atom token must be nonempty")

    def __repr__(self):
        return f"Atom({self.token!r})"


@dataclass(frozen=True)
class DataNode:
    content: Atom

    def __repr__(self):
        return f"DataNode({self.content.token!r})"


@dataclass(frozen=True)
class ElemNode:
    name: Atom
    children: "VSet"

    def __post_init__(self):
        for c in self.children:
            if not isinstance(c, (DataNode, ElemNode)):
                raise ValueError("element children must be nodes")

    def __repr__(self):
        return f"ElemNode({self.name.token!r}, {self.children!r})"


@dataclass(frozen=True)
class Pair:
    fst: object
    snd: object


def sort_key(v):
    """Canonical sort key; comparable across all value shapes."""
    if isinstance(v, Atom):
        return (0, v.token)
    if isinstance(v, DataNode):
        return (1, v.content.token)
    if isinstance(v, ElemNode):
        return (2, v.name.token, tuple(sort_key(c) for c in v.children))
    if isinstance(v, Pair):
        return (3, sort_key(v.fst), sort_key(v.snd))
    if isinstance(v, VSet):
        return (4, tuple(sort_key(e) for e in v))
    raise TypeError(f"not a value: {v!r}")


class VSet:
    """A finite set of values, stored sorted and duplicate-free."""

    __slots__ = ("elems", "_hash")

    def __init__(self, elems: Iterable = ()):
        seen = {}
        for e in elems:
            seen[e] = None
        self.elems = tuple(sorted(seen, key=sort_key))
        self._hash = hash(("VSet", self.elems))

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, v):
        return v in self.elems

    def __eq__(self, other):
        return isinstance(other, VSet) and self.elems == other.elems

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "VSet({%s})" % ", ".join(repr(e) for e in self.elems)

    def union(self, other: "VSet") -> "VSet":
        return VSet(self.elems + other.elems)


EMPTY_SET = VSet()


def vset(*elems) -> VSet:
    return VSet(elems)


def is_item(v) -> bool:
    return isinstance(v, (Atom, DataNode, ElemNode))


def is_node(v) -> bool:
    return isinstance(v, (DataNode, ElemNode))


def is_nrc_value(v) -> bool:
    if isinstance(v, Atom):
        return True
    if isinstance(v, Pair):
        return is_nrc_value(v.fst) and is_nrc_value(v.snd)
    if isinstance(v, VSet):
        return all(is_nrc_value(e) for e in v)
    return False


def is_rx_value(v) -> bool:
    return isinstance(v, VSet) and all(is_item(e) for e in v)


def is_pure_rx_value(v) -> bool:
    return is_item(v) or is_rx_value(v)


# ---------------------------------------------------------------------------
# Sub-value order, join, minimum (on values of the calculus with pairs).


def subvalue(v, w) -> bool:
    """v is below w in the sub-value order.

    Atoms only relate to themselves, pairs component-wise, and a set is
    below another when each of its elements has a superelement there.
    Mismatched shapes are simply unrelated.
    """
    if isinstance(v, Atom) and isinstance(w, Atom):
        return v == w
    if isinstance(v, Pair) and isinstance(w, Pair):
        return subvalue(v.fst, w.fst) and subvalue(v.snd, w.snd)
    if isinstance(v, VSet) and isinstance(w, VSet):
        return all(any(subvalue(e, f) for f in w) for e in v)
    return False


def subvalue_env(sigma: Mapping, tau: Mapping) -> bool:
    if set(sigma) != set(tau):
        return False
    return all(subvalue(sigma[x], tau[x]) for x in sigma)


class JoinError(ValueError):
    """Raised when join is applied to values without a common supervalue."""


def join(u, v):
    """Least upper bound of u and v below a common supervalue.

    The caller must guarantee such a supervalue exists; a shape mismatch
    (distinct atoms, atom vs pair, set vs non-set) raises JoinError.
    """
    if isinstance(u, Atom) and isinstance(v, Atom):
        if u == v:
            return u
        raise JoinError(f"distinct atoms {u.token!r} and {v.token!r}")
    if isinstance(u, Pair) and isinstance(v, Pair):
        return Pair(join(u.fst, v.fst), join(u.snd, v.snd))
    if isinstance(u, VSet) and isinstance(v, VSet):
        return u.union(v)
    raise JoinError(f"incompatible shapes: {u!r} vs {v!r}")


def join_env(sigma: Mapping, tau: Mapping) -> dict:
    if set(sigma) != set(tau):
        raise JoinError("environments have different domains")
    return {x: join(sigma[x], tau[x]) for x in sigma}


def min_value(v):
    """Replace every set occurring in v (including v itself) by the empty set."""
    if isinstance(v, Atom):
        return v
    if isinstance(v, Pair):
        return Pair(min_value(v.fst), min_value(v.snd))
    if isinstance(v, VSet):
        return EMPTY_SET
    raise TypeError(f"not a calculus value: {v!r}")


def min_env(sigma: Mapping) -> dict:
    return {x: min_value(v) for x, v in sigma.items()}


def in_Vk(v, k: int) -> bool:
    """Every set occurring in v has cardinality at most k."""
    if isinstance(v, Atom):
        return True
    if isinstance(v, DataNode):
        return True
    if isinstance(v, ElemNode):
        return in_Vk(v.children, k)
    if isinstance(v, Pair):
        return in_Vk(v.fst, k) and in_Vk(v.snd, k)
    if isinstance(v, VSet):
        return len(v) <= k and all(in_Vk(e, k) for e in v)
    raise TypeError(f"not a value: {v!r}")


def in_Ek(sigma: Mapping, k: int) -> bool:
    return all(in_Vk(v, k) for v in sigma.values())


# ---------------------------------------------------------------------------
# Atom maps.


def apply_atom_map(f, v):
    """Apply an Atom -> Atom map at every atom position of v.

    f may be a callable or a mapping; atoms missing from a mapping are
    left unchanged.  Sets are re-canonicalized (a non-injective map may
    collapse elements).
    """
    if isinstance(f, Mapping):
        table = f
        f = lambda a: table.get(a, a)  # noqa: E731
    return _map_atoms(f, v)


def _map_atoms(f: Callable[[Atom], Atom], v):
    if isinstance(v, Atom):
        return f(v)
    if isinstance(v, DataNode):
        return DataNode(f(v.content))
    if isinstance(v, ElemNode):
        return ElemNode(f(v.name), VSet(_map_atoms(f, c) for c in v.children))
    if isinstance(v, Pair):
        return Pair(_map_atoms(f, v.fst), _map_atoms(f, v.snd))
    if isinstance(v, VSet):
        return VSet(_map_atoms(f, e) for e in v)
    raise TypeError(f"not a value: {v!r}")


def apply_atom_map_env(f, sigma: Mapping) -> dict:
    return {x: apply_atom_map(f, v) for x, v in sigma.items()}


def atoms_of(v) -> set:
    """The set of atoms mentioned anywhere in v."""
    out = set()
    _collect_atoms(v, out)
    return out


def _collect_atoms(v, out):
    if isinstance(v, Atom):
        out.add(v)
    elif isinstance(v, DataNode):
        out.add(v.content)
    elif isinstance(v, ElemNode):
        out.add(v.name)
        for c in v.children:
            _collect_atoms(c, out)
    elif isinstance(v, Pair):
        _collect_atoms(v.fst, out)
        _collect_atoms(v.snd, out)
    elif isinstance(v, VSet):
        for e in v:
            _collect_atoms(e, out)
    else:
        raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# JSON wire form.


def value_to_json(v):
    if isinstance(v, Atom):
        return {"atom": v.token}
    if isinstance(v, DataNode):
        return {"data": v.content.token}
    if isinstance(v, ElemNode):
        return {"elem": {"name": v.name.token,
                         "children": [value_to_json(c) for c in v.children]}}
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.fst), value_to_json(v.snd)]}
    if isinstance(v, VSet):
        return {"set": [value_to_json(e) for e in v]}
    raise TypeError(f"not a value: {v!r}")


def value_from_json(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed value JSON: {obj!r}")
    (tag, body), = obj.items()
    if tag == "atom":
        return Atom(body)
    if tag == "data":
        return DataNode(Atom(body))
    if tag == "elem":
        return ElemNode(Atom(body["name"]),
                        VSet(value_from_json(c) for c in body["children"]))
    if tag == "pair":
        fst, snd = body
        return Pair(value_from_json(fst), value_from_json(snd))
    if tag == "set":
        return VSet(value_from_json(e) for e in body)
    raise ValueError(f"unknown value tag: {tag!r}")


def env_to_json(sigma: Mapping) -> dict:
    return {x: value_to_json(v) for x, v in sorted(sigma.items())}


def env_from_json(obj: Mapping) -> dict:
    return {x: value_from_json(v) for x, v in obj.items()}
