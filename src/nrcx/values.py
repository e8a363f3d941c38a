"""Value representations shared by all three calculi.

A value is one of:

* ``Atom`` -- an opaque token from a countable namespace,
* ``DataNode`` / ``ElemNode`` -- XML-ish nodes (element content is a set
  of nodes),
* ``Pair`` -- an ordered pair of values,
* ``VSet`` -- a finite, duplicate-free, canonically ordered set of values.

Values are hashable and never change after construction; ``VSet``
canonicalizes on construction, so structural equality coincides with
set equality.  A value refers only to values built before it, so
reference counting frees a request's values, and no value keeps its
singleton (``rx._elements`` reuses the ones a loop binds).

The canonical total order puts atoms < data nodes < element nodes <
pairs < sets, with each tier ordered recursively (atoms by token).  Each
value computes its sort key and its hash once, when it is built, from
the cached keys and hashes of its parts: ``sort_key(v)`` is an
attribute read, building a set sorts its elements by their cached keys
without recursing into them, and ``VSet.union`` merges two sorted
element tuples.

This module also implements the sub-value order ``subvalue``, which
counterexample minimization walks, and the JSON wire form used by the
CLI.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter

# Atom tokens starting with "@" are reserved for machinery-generated
# fresh atoms (decision procedures, reduction tags).
RESERVED_ATOM_PREFIX = "@"

# The cached sort key and hash of a value.
_KEY = attrgetter("_key")
_HASH = attrgetter("_hash")


class _Value:
    """Equality by the cached key, and the cached hash.  Keys of
    different shapes differ in their first component, so two values are
    equal exactly when their classes and keys are."""

    __slots__ = ("_key", "_hash")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash


class Atom(_Value):
    __slots__ = ("token",)

    def __init__(self, token: str):
        if not isinstance(token, str) or not token:
            raise ValueError(f"atom token must be a nonempty string: "
                             f"{token!r}")
        self.token = token
        self._key = (0, token)
        self._hash = hash(token)

    def __repr__(self):
        return f"Atom({self.token!r})"


class DataNode(_Value):
    __slots__ = ("content",)

    def __init__(self, content: Atom):
        self.content = content
        self._key = (1, content.token)
        self._hash = hash(self._key)

    def __repr__(self):
        return f"DataNode({self.content.token!r})"


class ElemNode(_Value):
    __slots__ = ("name", "children")

    def __init__(self, name: Atom, children: "VSet"):
        for c in children:
            if not isinstance(c, (DataNode, ElemNode)):
                raise ValueError("element children must be nodes")
        self.name = name
        self.children = children
        self._key = (2, name.token, children._key[1])
        self._hash = hash((2, name._hash, children._hash))

    def __repr__(self):
        return f"ElemNode({self.name.token!r}, {self.children!r})"


class Pair(_Value):
    __slots__ = ("fst", "snd")

    def __init__(self, fst, snd):
        self.fst = fst
        self.snd = snd
        self._key = (3, fst._key, snd._key)
        self._hash = hash((3, fst._hash, snd._hash))

    def __repr__(self):
        return f"Pair(fst={self.fst!r}, snd={self.snd!r})"


def sort_key(v):
    """Canonical sort key; comparable across all value shapes."""
    try:
        return v._key
    except AttributeError:
        raise TypeError(f"not a value: {v!r}") from None


class VSet(_Value):
    """A finite set of values, stored sorted and duplicate-free."""

    __slots__ = ("elems",)

    def __init__(self, elems: Iterable = ()):
        elems = self.elems = tuple(elems)
        try:
            if len(elems) == 1:  # the commonest: a loop binds singletons
                e, = elems
                self._key, self._hash = (4, (e._key,)), hash((e._hash,))
                return
            if len(elems) > 1:
                elems = self.elems = tuple(sorted(set(elems), key=_KEY))
            self._key = (4, tuple(map(_KEY, elems)))
        except AttributeError:
            raise TypeError(f"not a value: {_not_a_value(elems)!r}") from None
        self._hash = hash(tuple(map(_HASH, elems)))

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, v):
        return v in self.elems

    def __repr__(self):
        return "VSet({%s})" % ", ".join(repr(e) for e in self.elems)

    def union(self, other: "VSet") -> "VSet":
        """The union, by a merge of the two sorted element tuples."""
        a, b = self.elems, other.elems
        if not b:
            return self
        if not a:
            return other
        if a[-1]._key < b[0]._key:
            return _sorted_vset(a + b)
        if b[-1]._key < a[0]._key:
            return _sorted_vset(b + a)
        out = []
        i = j = 0
        n, m = len(a), len(b)
        while i < n and j < m:
            x, y = a[i], b[j]
            kx, ky = x._key, y._key
            if kx < ky:
                out.append(x)
                i += 1
            elif ky < kx:
                out.append(y)
                j += 1
            else:
                out.append(x)
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _sorted_vset(tuple(out))


def _sorted_vset(elems: tuple) -> VSet:
    """The VSet of a sorted, duplicate-free tuple of values, taken as it
    is."""
    s = object.__new__(VSet)
    s.elems = elems
    s._key = (4, tuple(map(_KEY, elems)))
    s._hash = hash(tuple(map(_HASH, elems)))
    return s


def _not_a_value(elems):
    return next(e for e in elems if not hasattr(e, "_key"))


EMPTY_SET = VSet()


def vset(*elems) -> VSet:
    """The set of elems."""
    return VSet(elems)


def is_item(v) -> bool:
    return isinstance(v, (Atom, DataNode, ElemNode))


def is_nrc_value(v) -> bool:
    # A loop, not recursion, so that deeply nested values are checked.
    todo = [v]
    while todo:
        v = todo.pop()
        if isinstance(v, Pair):
            todo.append(v.snd)
            todo.append(v.fst)
        elif isinstance(v, VSet):
            todo.extend(v.elems)
        elif not isinstance(v, Atom):
            return False
    return True


def is_rx_value(v) -> bool:
    return isinstance(v, VSet) and all(is_item(e) for e in v)


def is_pure_rx_value(v) -> bool:
    return is_item(v) or is_rx_value(v)


# ---------------------------------------------------------------------------
# Sub-value order (on values of the calculus with pairs).


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


# ---------------------------------------------------------------------------
# JSON wire form.


# Both directions loop over an explicit stack, so that values nested
# deeper than the interpreter's recursion limit load and print back.


def value_to_json(v):
    """The JSON form of v.  Parts are dispatched on their exact class,
    the commonest first."""
    root = []
    todo = [(v, root)]
    while todo:
        v, out = todo.pop()
        cls = v.__class__
        if cls is VSet:
            elems = []
            out.append({"set": elems})
            todo.extend(zip(reversed(v.elems), repeat(elems)))
        elif cls is ElemNode:
            children = []
            out.append({"elem": {"name": v.name.token,
                                 "children": children}})
            todo.extend(zip(reversed(v.children.elems), repeat(children)))
        elif cls is DataNode:
            out.append({"data": v.content.token})
        elif cls is Atom:
            out.append({"atom": v.token})
        elif cls is Pair:
            parts = []
            out.append({"pair": parts})
            todo.append((v.snd, parts))
            todo.append((v.fst, parts))
        else:
            raise TypeError(f"not a value: {v!r}")
    return root[0]


def value_from_json(obj):
    """Parse the JSON form of a value, shaped as value_to_json writes
    it.  Parts are read depth first, left to right, so the first
    malformed part raises as it would in a recursive reader."""
    # Each frame is [tag, element name, iterator over the unread parts,
    # values of the parts read so far].
    frames = []
    while True:
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ValueError(f"malformed value JSON: {obj!r}")
        (tag, body), = obj.items()
        v = None
        if tag == "atom":
            v = Atom(body)
        elif tag == "data":
            v = DataNode(Atom(body))
        elif tag == "set" and isinstance(body, list) or \
                tag == "pair" and isinstance(body, list) and len(body) == 2:
            frames.append([tag, None, iter(body), []])
        elif tag == "elem" and isinstance(body, dict) and \
                body.keys() == {"name", "children"} and \
                isinstance(body["children"], list):
            frames.append([tag, Atom(body["name"]), iter(body["children"]),
                           []])
        elif tag in ("set", "pair", "elem"):
            raise ValueError(f"malformed value JSON: {obj!r}")
        else:
            raise ValueError(f"unknown value tag: {tag!r}")
        while frames:
            if v is not None:
                frames[-1][3].append(v)
            tag, name, parts, done = frames[-1]
            obj = next(parts, _END)
            if obj is not _END:
                break
            frames.pop()
            if tag == "elem":
                v = ElemNode(name, VSet(done))
            elif tag == "pair":
                v = Pair(*done)
            else:
                v = VSet(done)
        else:
            return v


_END = object()


def env_to_json(sigma: Mapping) -> dict:
    return {x: value_to_json(v) for x, v in sorted(sigma.items())}


def env_from_json(obj: Mapping) -> dict:
    return {x: value_from_json(v) for x, v in obj.items()}
