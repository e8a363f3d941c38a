"""Reference semantics that share no code with nrcx.

The benchmark checks every answer nrcx gives against the code in this
file: a relational-algebra evaluator over frozensets, an evaluator for
the positive-existential nested calculus, type and kind membership,
the paper's bound formulas (k-complexity, rank, type complexity) and an
unpruned exhaustive search over the space those bounds admit.

Expressions and types are s-expressions read by ``read``: a symbol is a
``str``, a form is a ``list``.  Values use plain Python data:

* an atom is its token, a ``str``;
* a pair is ``("pair", fst, snd)``;
* a data node is ``("data", token)``;
* an element node is ``("elem", name, children)``, children a frozenset;
* a set is a ``frozenset``.
"""

from __future__ import annotations

import itertools
import math


class Undefined(Exception):
    """The reference evaluator hit a run-time error."""


class ReferenceBudget(Exception):
    """The exhaustive search would exceed its count budget."""


# ---------------------------------------------------------------------------
# S-expressions and JSON values.


def read(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def one():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(one())
        pos += 1
        return out

    form = one()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return form


def write(form):
    if isinstance(form, str):
        return form
    return "(" + " ".join(write(f) for f in form) + ")"


def from_json(obj):
    (tag, body), = obj.items()
    if tag == "atom":
        return body
    if tag == "data":
        return ("data", body)
    if tag == "elem":
        return ("elem", body["name"],
                frozenset(from_json(c) for c in body["children"]))
    if tag == "pair":
        return ("pair", from_json(body[0]), from_json(body[1]))
    if tag == "set":
        return frozenset(from_json(e) for e in body)
    raise ValueError(f"unknown value tag {tag!r}")


def env_from_json(obj):
    return {x: from_json(v) for x, v in obj.items()}


# ---------------------------------------------------------------------------
# Types and kinds.


def _is_pair(v):
    return isinstance(v, tuple) and v[0] == "pair"


def _is_node(v):
    return isinstance(v, tuple) and v[0] in ("data", "elem")


def member(v, t):
    """v is in the denotation of type t (nested or pure RX grammar)."""
    head = t[0]
    if head == "void":
        return False
    if head == "atom":
        return isinstance(v, str)
    if head == "data":
        return isinstance(v, tuple) and v[0] == "data"
    if head == "elem":
        if not (isinstance(v, tuple) and v[0] == "elem"):
            return False
        return all(any(member(c, u) for u in t[1:]) for c in v[2])
    if head == "coll":
        return isinstance(v, frozenset) and all(member(e, t[1]) for e in v)
    if head == "prod":
        return _is_pair(v) and member(v[1], t[1]) and member(v[2], t[2])
    if head == "sum":
        return any(member(v, u) for u in t[1:])
    raise ValueError(f"unknown type {write(t)}")


def kind_member(v, k):
    head = k[0]
    if head == "kind-atom":
        return isinstance(v, str)
    if head == "kind-data":
        return isinstance(v, tuple) and v[0] == "data"
    if head == "kind-elem":
        return isinstance(v, tuple) and v[0] == "elem"
    if head == "kind-coll":
        return isinstance(v, frozenset)
    if head == "kind-any":
        return isinstance(v, str) or _is_node(v)
    if head == "kind-prod":
        return (_is_pair(v) and kind_member(v[1], k[1])
                and kind_member(v[2], k[2]))
    if head == "kind-sum":
        return any(kind_member(v, u) for u in k[1:])
    raise ValueError(f"unknown kind {write(k)}")


# ---------------------------------------------------------------------------
# Expressions of both calculi: free variables, literals, evaluation.
# A nested comprehension is (for v SRC BODY); a pure-RX loop is
# (for v KIND SRC BODY).


def _loop_parts(e):
    return (e[2], e[3]) if len(e) == 4 else (e[3], e[4])


def free_vars(e):
    if isinstance(e, str):
        return {e}
    head = e[0]
    if head == "lit" or head.startswith("kind-"):
        return set()
    if head == "for":
        src, body = _loop_parts(e)
        return free_vars(src) | (free_vars(body) - {e[1]})
    return set().union(*(free_vars(sub) for sub in e[1:]))


def literals(e):
    if isinstance(e, str):
        return set()
    head = e[0]
    if head == "lit":
        return {e[1]}
    if head == "for":
        return set().union(*(literals(sub) for sub in _loop_parts(e)))
    return set().union(*(literals(sub) for sub in e[1:]))


def eval_nrc(e, env):
    """Nested-calculus value of e under env; raises Undefined on a
    run-time error."""
    if isinstance(e, str):
        return env[e]
    head = e[0]
    if head == "lit":
        return e[1]
    if head == "pair":
        return ("pair", eval_nrc(e[1], env), eval_nrc(e[2], env))
    if head in ("fst", "snd"):
        v = eval_nrc(e[1], env)
        if not _is_pair(v):
            raise Undefined(f"{head} of a non-pair")
        return v[1] if head == "fst" else v[2]
    if head == "empty":
        return frozenset()
    if head == "sing":
        return frozenset([eval_nrc(e[1], env)])
    if head == "union":
        a, b = eval_nrc(e[1], env), eval_nrc(e[2], env)
        if not (isinstance(a, frozenset) and isinstance(b, frozenset)):
            raise Undefined("union of a non-set")
        return a | b
    if head == "flatten":
        v = eval_nrc(e[1], env)
        if not isinstance(v, frozenset) or not all(
                isinstance(s, frozenset) for s in v):
            raise Undefined("flatten of a non-set of sets")
        return frozenset().union(*v)
    if head == "for":
        # {body | var in source}: a map, flattened only by `flatten`.
        src = eval_nrc(e[2], env)
        if not isinstance(src, frozenset):
            raise Undefined("comprehension over a non-set")
        return frozenset(eval_nrc(e[3], {**env, e[1]: v}) for v in src)
    if head == "ifeq":
        a, b = eval_nrc(e[1], env), eval_nrc(e[2], env)
        if not (isinstance(a, str) and isinstance(b, str)):
            raise Undefined("equality test on a non-atom")
        return eval_nrc(e[3] if a == b else e[4], env)
    if head == "ifkind":
        v = eval_nrc(e[1], env)
        return eval_nrc(e[3] if kind_member(v, e[2]) else e[4], env)
    raise ValueError(f"not a nested-calculus expression: {write(e)}")


def _pure_set(v, what):
    if not isinstance(v, frozenset):
        raise Undefined(f"{what} of a non-set")
    return v


def eval_pure(e, env):
    """Pure-RX value of e under env, where an item and its singleton
    differ; raises Undefined on a run-time error."""
    if isinstance(e, str):
        return env[e]
    head = e[0]
    if head == "lit":
        return e[1]
    if head == "text":
        v = eval_pure(e[1], env)
        if not isinstance(v, str):
            raise Undefined("text of a non-atom")
        return ("data", v)
    if head == "elem":
        name, content = eval_pure(e[1], env), eval_pure(e[2], env)
        if not isinstance(name, str):
            raise Undefined("element name not an atom")
        _pure_set(content, "element content")
        return ("elem", name, frozenset(("data", i) if isinstance(i, str)
                                        else i for i in content))
    if head == "data":
        v = _pure_set(eval_pure(e[1], env), "data")
        return frozenset(i if isinstance(i, str) else i[1] for i in v
                         if isinstance(i, str) or i[0] == "data")
    if head == "name":
        v = eval_pure(e[1], env)
        if not (isinstance(v, tuple) and v[0] == "elem"):
            raise Undefined("name of a non-element")
        return v[1]
    if head == "children":
        out = set()
        for i in _pure_set(eval_pure(e[1], env), "children"):
            if isinstance(i, str):
                raise Undefined("children of an atom")
            if i[0] == "elem":
                out |= i[2]
        return frozenset(out)
    if head == "empty":
        return frozenset()
    if head == "sing":
        v = eval_pure(e[1], env)
        if not (isinstance(v, str) or _is_node(v)):
            raise Undefined("singleton of a non-item")
        return frozenset([v])
    if head == "seq":
        left = _pure_set(eval_pure(e[1], env), "sequence operand")
        return left | _pure_set(eval_pure(e[2], env), "sequence operand")
    if head == "for":
        out = set()
        for i in _pure_set(eval_pure(e[3], env), "iteration"):
            if kind_member(i, e[2]):
                out |= _pure_set(eval_pure(e[4], {**env, e[1]: i}),
                                 "loop body")
        return frozenset(out)
    if head == "ifeq":
        a, b = eval_pure(e[1], env), eval_pure(e[2], env)
        if not (isinstance(a, str) and isinstance(b, str)):
            raise Undefined("equality test on a non-atom")
        return eval_pure(e[3] if a == b else e[4], env)
    raise ValueError(f"not a pure PERX expression: {write(e)}")


# ---------------------------------------------------------------------------
# The paper's bound formulas.


def complexity(e, k):
    """k-complexity c(e, k) of a nested-calculus expression."""
    if isinstance(e, str):
        return k
    head = e[0]
    if head in ("empty", "lit"):
        return 0
    if head in ("pair", "union"):
        return complexity(e[1], k) + complexity(e[2], k)
    if head in ("fst", "snd", "flatten"):
        return complexity(e[1], k)
    if head == "sing":
        return k * complexity(e[1], k)
    if head == "for":
        body = complexity(e[3], k)
        return complexity(e[2], max(k, body)) + k * body
    if head in ("ifeq", "ifkind"):
        return max(complexity(e[3], k), complexity(e[4], k))
    raise ValueError(f"not a nested-calculus expression: {write(e)}")


def pure_complexity(e, k):
    """c(tr(e), k) for the translation tr of pure PERX into the nested
    calculus, clause by clause."""
    if isinstance(e, str):
        return k
    head = e[0]
    if head in ("empty", "lit"):
        return 0
    if head == "text":            # guarded ((b, b), {})
        return 2 * pure_complexity(e[1], k)
    if head == "elem":            # (n, {wrap(x) | x in c}), wrap at 2k
        return (pure_complexity(e[1], k) + pure_complexity(e[2], 2 * k)
                + 2 * k * k)
    if head == "data":            # flatten {{fst fst x} | x in b}
        return pure_complexity(e[1], max(k, k * k)) + k * k * k
    if head == "name":            # guarded fst b
        return pure_complexity(e[1], k)
    if head == "children":        # flatten {snd x | x in b}
        return pure_complexity(e[1], k) + k * k
    if head == "sing":            # guarded {b}
        return k * pure_complexity(e[1], k)
    if head == "seq":
        return pure_complexity(e[1], k) + pure_complexity(e[2], k)
    if head == "for":             # flatten {kind-guarded body | v in src}
        body = pure_complexity(e[4], k)
        return pure_complexity(e[3], max(k, body)) + k * body
    if head == "ifeq":
        return max(pure_complexity(e[3], k), pure_complexity(e[4], k))
    raise ValueError(f"not a pure PERX expression: {write(e)}")


def translate_type(t):
    """The nested type of the encodings of a pure-RX type's values."""
    head = t[0]
    if head in ("atom", "void"):
        return t
    if head == "data":
        return ["prod", ["prod", ["atom"], ["atom"]], VOID_SET]
    if head == "elem":
        parts = [translate_type(u) for u in t[1:]]
        content = (["void"] if not parts else parts[0] if len(parts) == 1
                   else ["sum", *parts])
        return ["prod", ["atom"], ["coll", content]]
    if head == "coll":
        return ["coll", translate_type(t[1])]
    if head == "sum":
        return ["sum", *(translate_type(u) for u in t[1:])]
    raise ValueError(f"not a pure type: {write(t)}")


def rank(t, k):
    head = t[0]
    if head == "void":
        return 0
    if head == "atom":
        return 1
    if head == "prod":
        return rank(t[1], k) + rank(t[2], k)
    if head == "sum":
        return max(rank(u, k) for u in t[1:])
    if head == "coll":
        return k * rank(t[1], k)
    raise ValueError(f"not a nested type: {write(t)}")


def type_complexity(t):
    head = t[0]
    if head in ("void", "atom"):
        return 0
    if head == "prod":
        return max(type_complexity(t[1]), type_complexity(t[2]))
    if head == "sum":
        return sum(type_complexity(u) for u in t[1:])
    if head == "coll":
        return max(1, type_complexity(t[1]))
    raise ValueError(f"not a nested type: {write(t)}")


VOID_SET = ["coll", ["void"]]


def search_bounds(e, gamma, mode, tau, lang):
    """(card, atoms, nested gamma) of the space a decision procedure
    searches: sets of cardinality <= c(e, k) over the literals of e plus
    one fresh atom per atom position of the free variables' types.  A
    pure-RX problem is searched through its translation."""
    pure = lang == "pure-rx"
    nested = {x: translate_type(t) if pure else t for x, t in gamma.items()}
    if mode == "welldef":
        k = 1
    else:
        target = VOID_SET if mode == "sat" else tau
        k = max(type_complexity(translate_type(target) if pure else target),
                1)
    card = (pure_complexity if pure else complexity)(e, k)
    fv = free_vars(e)
    n_fresh = sum(rank(t, card) for x, t in nested.items() if x in fv)
    atoms = sorted(literals(e)) + [f"@{i}" for i in range(n_fresh)]
    return card, atoms or ["@0"], nested


def count_values(t, card, n_atoms, cap):
    """Upper bound on the number of values of nested type t with sets of
    size <= card over n_atoms atoms, saturating at cap + 1."""
    head = t[0]
    if head == "void":
        n = 0
    elif head == "atom":
        n = n_atoms
    elif head == "prod":
        n = (count_values(t[1], card, n_atoms, cap)
             * count_values(t[2], card, n_atoms, cap))
    elif head == "sum":
        n = sum(count_values(u, card, n_atoms, cap) for u in t[1:])
    elif head == "coll":
        item = count_values(t[1], card, n_atoms, cap)
        n = 0
        for i in range(min(item, card) + 1):
            n += math.comb(item, i)
            if n > cap:
                break
    else:
        raise ValueError(f"not a nested type: {write(t)}")
    return min(n, cap + 1)


def space_size(nested_gamma, card, n_atoms, cap):
    """Unpruned number of environments, saturating at cap + 1."""
    total = 1
    for t in nested_gamma.values():
        total = min(total * count_values(t, card, n_atoms, cap), cap + 1)
    return total


def _subsets(items, card):
    items = list(dict.fromkeys(items))
    return [frozenset(c) for n in range(min(card, len(items)) + 1)
            for c in itertools.combinations(items, n)]


def values_of(t, card, atoms):
    """Every value of type t (either grammar) with sets of size <= card
    over `atoms`."""
    head = t[0]
    if head == "void":
        return []
    if head == "atom":
        return list(atoms)
    if head == "data":
        return [("data", a) for a in atoms]
    if head == "elem":
        children = [v for u in t[1:] for v in values_of(u, card, atoms)]
        return [("elem", a, c) for a in atoms for c in _subsets(children, card)]
    if head == "prod":
        return [("pair", a, b) for a in values_of(t[1], card, atoms)
                for b in values_of(t[2], card, atoms)]
    if head == "sum":
        return list(dict.fromkeys(
            v for u in t[1:] for v in values_of(u, card, atoms)))
    if head == "coll":
        return _subsets(values_of(t[1], card, atoms), card)
    raise ValueError(f"not a type: {write(t)}")


def decide(e, gamma, mode, tau, lang, budget):
    """The verdict an exact procedure must give, by an unpruned
    exhaustive search of the space the bounds admit.

    Returns "holds" or "fails" for the property of `mode`; for "type"
    and "sat" returns "undefined" when e is not well defined (the CLI's
    precondition).  Raises ReferenceBudget when a space holds more than
    `budget` environments.
    """
    evaluate = eval_pure if lang == "pure-rx" else eval_nrc

    def envs(m):
        card, atoms, nested = search_bounds(e, gamma, m, tau, lang)
        if space_size(nested, card, len(atoms), budget) > budget:
            raise ReferenceBudget(f"space exceeds {budget} environments")
        names = sorted(gamma)
        domains = [values_of(gamma[x], card, atoms) for x in names]
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))

    for env in envs("welldef"):
        try:
            evaluate(e, env)
        except Undefined:
            return "fails" if mode == "welldef" else "undefined"
    if mode == "welldef":
        return "holds"
    target = VOID_SET if mode == "sat" else tau
    for env in envs(mode):
        if not member(evaluate(e, env), target):
            return "holds" if mode == "sat" else "fails"
    return "fails" if mode == "sat" else "holds"


# ---------------------------------------------------------------------------
# Relational algebra over frozensets.  Queries are s-expressions:
# (rel R), (select A B q), (project (A ...) q), (product q q),
# (rename OLD NEW q), (ra-union q q), (diff q q).


def eval_ra(q, db, schema):
    """Rows of q as a frozenset of frozensets of (attribute, value)."""
    head = q[0]
    if head == "rel":
        attrs = schema[q[1]]
        return frozenset(frozenset(zip(attrs, row)) for row in db[q[1]])
    if head == "select":
        return frozenset(r for r in eval_ra(q[3], db, schema)
                         if dict(r)[q[1]] == dict(r)[q[2]])
    if head == "project":
        keep = set(q[1])
        return frozenset(frozenset(c for c in r if c[0] in keep)
                         for r in eval_ra(q[2], db, schema))
    if head == "product":
        return frozenset(a | b for a in eval_ra(q[1], db, schema)
                         for b in eval_ra(q[2], db, schema))
    if head == "rename":
        return frozenset(
            frozenset((q[2] if a == q[1] else a, v) for a, v in r)
            for r in eval_ra(q[3], db, schema))
    if head == "ra-union":
        return eval_ra(q[1], db, schema) | eval_ra(q[2], db, schema)
    if head == "diff":
        return eval_ra(q[1], db, schema) - eval_ra(q[2], db, schema)
    raise ValueError(f"not a relational query: {write(q)}")


def decode_relation(v):
    """Rows of an encoded relation: a set of tuple elements whose
    children are attribute elements, each holding one data node."""
    if not isinstance(v, frozenset):
        raise ValueError("relation encoding must be a set")
    rows = set()
    for t in v:
        if not (isinstance(t, tuple) and t[0] == "elem"):
            raise ValueError("tuple encoding must be an element")
        row = {}
        for c in t[2]:
            if not (isinstance(c, tuple) and c[0] == "elem" and len(c[2]) == 1):
                raise ValueError("cell must be an element with one child")
            (d,) = c[2]
            if not (isinstance(d, tuple) and d[0] == "data") or c[1] in row:
                raise ValueError("cell content must be one data node")
            row[c[1]] = d[1]
        rows.add(frozenset(row.items()))
    return frozenset(rows)
