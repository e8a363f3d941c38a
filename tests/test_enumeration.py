"""The symmetry-pruned environment enumeration against a reference.

The reference is the post-hoc filter the enumerator used to apply: build
every environment, then drop those whose fresh atoms do not make their
first appearances in supply order.  The pruned enumerator must yield
exactly the environments the filter keeps, in the same order.

The translated pure RX types are checked against the paper's
translation the same way: their stream must be the paper type's stream
with the environments off the image of the encoding removed.
"""

import itertools

import pytest

from nrcx.decide import fresh_atoms, iter_environments
from nrcx.frontend import parse_type
from nrcx.sexpr import read as sread
from nrcx.translate import translate_type
from nrcx.values import Atom, DataNode, ElemNode, Pair, VSet

from oracles import on_image, paper_type
from test_acceptance import GAMMA_POOL

PURE_POOL = ["(atom)", "(data)", "(coll (atom))", "(coll (data))",
             "(coll (sum (atom) (data)))", "(elem (data))",
             "(coll (elem (data)))"]

PURE_TYPES = [parse_type(sread(s)) for s in PURE_POOL]

TYPES = ([parse_type(sread(s)) for s in GAMMA_POOL]
         + [paper_type(t) for t in PURE_TYPES] + PURE_TYPES)

# Literal tokens that sort before the fresh atoms' and between them.
LITERALS = [Atom("!"), Atom("@0x")]

# Unpruned streams longer than this are compared on their first CAP
# environments.
CAP = 300


def _first_atoms(v):
    """Atoms of v in canonical traversal order."""
    stack = [v]
    while stack:
        u = stack.pop()
        if isinstance(u, Atom):
            yield u
        elif isinstance(u, DataNode):
            yield u.content
        elif isinstance(u, ElemNode):
            yield u.name
            stack.extend(reversed(u.children.elems))
        elif isinstance(u, Pair):
            stack.append(u.snd)
            stack.append(u.fst)
        elif isinstance(u, VSet):
            stack.extend(reversed(u.elems))
        else:
            raise TypeError(f"not a value: {u!r}")


def _extend_occurrences(v, fresh_index, seen):
    """Fold v's fresh atoms into the first-occurrence state `seen`;
    False when the sequence can no longer be the prefix 0, 1, 2, ...."""
    seen_set = set(seen)
    for a in _first_atoms(v):
        i = fresh_index.get(a)
        if i is None or i in seen_set:
            continue
        if i != len(seen):
            return False
        seen.append(i)
        seen_set.add(i)
    return True


def reference_keeps(env, fresh_index):
    seen = []
    return all(_extend_occurrences(env[x], fresh_index, seen)
               for x in sorted(env))


def _gammas(i, t):
    yield {"x": t}
    yield {"x": t, "y": TYPES[(i + 1) % len(TYPES)]}


@pytest.mark.parametrize("i", range(len(TYPES)),
                         ids=lambda i: repr(TYPES[i]))
def test_pruned_enumeration_matches_reference_filter(i):
    t = TYPES[i]
    for gamma, card, n_fresh, n_lits in itertools.product(
            _gammas(i, t), range(4), range(5), (0, 2)):
        fresh = fresh_atoms(n_fresh)
        atoms = LITERALS[:n_lits] + fresh
        if not atoms:
            continue
        unpruned = list(itertools.islice(
            iter_environments(gamma, card, atoms), CAP + 1))
        complete = len(unpruned) <= CAP
        for prune in (True, False):
            fresh_index = {a: j for j, a in enumerate(fresh)} if prune else {}
            expected = [env for env in unpruned[:CAP]
                        if reference_keeps(env, fresh_index)]
            # A complete stream must also end where the reference does.
            got = list(itertools.islice(
                iter_environments(gamma, card, atoms,
                                  fresh=fresh if prune else ()),
                len(expected) + complete))
            assert got == expected, (gamma, card, atoms, prune)


@pytest.mark.parametrize("i", range(len(PURE_POOL)),
                         ids=lambda i: PURE_POOL[i])
def test_translated_stream_is_paper_stream_on_image(i):
    t, u = PURE_TYPES[i], PURE_TYPES[(i + 1) % len(PURE_TYPES)]
    for gamma, card, n_fresh, n_lits in itertools.product(
            ({"x": t}, {"x": t, "y": u}), range(4), range(5), (0, 2)):
        fresh = fresh_atoms(n_fresh)
        atoms = LITERALS[:n_lits] + fresh
        if not atoms:
            continue
        paper = {x: paper_type(s) for x, s in gamma.items()}
        translated = {x: translate_type(s) for x, s in gamma.items()}
        for prune in (True, False):
            stream = list(itertools.islice(
                iter_environments(paper, card, atoms,
                                  fresh=fresh if prune else ()), CAP + 1))
            complete = len(stream) <= CAP
            expected = [env for env in stream[:CAP] if on_image(env)]
            got = list(itertools.islice(
                iter_environments(translated, card, atoms,
                                  fresh=fresh if prune else ()),
                len(expected) + complete))
            assert got == expected, (gamma, card, atoms, prune)
