"""Test-only oracles and helpers.

Value helpers: the join and the minimum of the sub-value order, the
bounded-cardinality predicates, atom renamings, the atoms of a value,
an eager enumeration of a type's values and a brute-force universe of
values that does not use type terms.  `eager_canonical_values` is the
enumerator that `typeterms.iter_canonical_values` replaced, which builds
the whole universe of every set element and right-hand pair position
before it yields the first value: the reference of the lazy universes.
`relation_satisfies` checks a dependency on a relation directly, and
`eval_ra` evaluates relational algebra directly, the oracle of the RA
compiler.  `write_sexpr` is the s-expression writer that `sexpr.write`
replaced, kept as its reference.  `to_sexpr` is the expression printer
that the one-pass `frontend.print_expr` replaced, and `encode_relation`
the relation encoder that the one in `nrcx.translate` replaced: the
references of the printed query texts and of the encoded databases.

`brute_force_verdict` runs the search of `decide` with bounds the
caller chooses, the oracle that confirms the derived bounds, and
`enc_env` encodes every binding of a pure environment.

For the pure-RX search: `paper_type` is the paper's translation of pure RX types.  It maps data
to ((atom x atom) x {void}), which also holds ((a, b), {}) with a != b,
off the image of the value encoding.  `encoded_decide` is the route
that decided pure RX before the translated types held only encodings:
it searches the paper's translated environments and skips every one
that `dec_env` rejects.
"""

import itertools
from typing import Callable, Mapping

from nrcx.decide import (PreconditionError, Verdict, _output_type, _search,
                         atom_supply, fresh_atoms, search_counterexample)
from nrcx.penrc import complexity, compile_penrc
from nrcx.translate import (NotInImageError, dec, dec_env, enc, ra_schema,
                            translate_expr)
from nrcx.frontend import (ATOM, ATTRS, BINDINGS, COND, EXPR, FD, IND, KIND,
                           TYPE, Diff, Product, Project, RaUnion, Relation,
                           Rename, Select, Var, _BY_CLASS,
                           free_vars, literals, print_kind, print_type)
from nrcx.typeterms import (AtomT, CollT, DataEncT, DataT, ElemT, ProdT,
                            SingleT, SumT, VoidT, DEFAULT_VALUE_BUDGET,
                            EnumerationBudgetError, _over_budget,
                            count_values_upper,
                            iter_values, member, type_complexity)
from nrcx.values import (Atom, DataNode, ElemNode, EMPTY_SET, Pair, VSet,
                         sort_key, vset)


def brute_force_verdict(e, gamma, mode, card, n_atoms, *, tau=None,
                        **options):
    """`decide` on the nested calculus with caller-supplied bounds
    instead of the derived ones: sets of cardinality <= card over an
    alphabet of n_atoms atoms (the literals of e, padded with fresh atoms
    up to n_atoms).  Used to confirm empirically that the derived bounds
    lose no counterexamples.
    """
    tau = _output_type(mode, tau)
    complexity(e, 1)  # NonPenrcError on an emptiness test
    missing = free_vars(e) - set(gamma)
    if missing:
        raise PreconditionError(
            f"free variables without declared types: {sorted(missing)}")
    lits = sorted(literals(e), key=sort_key)
    fresh = [a for a in fresh_atoms(max(0, n_atoms))
             if a not in set(lits)][:max(0, n_atoms - len(lits))]
    return _search(e, gamma, mode, tau, card, lits + fresh, fresh, False,
                   options)


def enc_env(sigma):
    return {x: enc(v) for x, v in sigma.items()}


def paper_type(t):
    """The paper's nested type of a pure RX type."""
    if isinstance(t, (AtomT, VoidT)):
        return t
    if isinstance(t, DataT):
        return ProdT(ProdT(AtomT(), AtomT()), CollT(VoidT()))
    if isinstance(t, ElemT):
        return ProdT(AtomT(), CollT(paper_type(t.content)))
    if isinstance(t, CollT):
        return CollT(paper_type(t.item))
    if isinstance(t, SumT):
        return SumT(paper_type(t.left), paper_type(t.right))
    raise TypeError(f"not a pure RX type: {t!r}")


def decodes(v):
    """v is the encoding of a pure value."""
    try:
        dec(v)
    except NotInImageError:
        return False
    return True


def on_image(env):
    """env is the encoding of a pure environment."""
    return all(decodes(v) for v in env.values())


def encoded_decide(e, gamma, mode, tau=None, **options):
    """decide(e, gamma, mode, lang="pure-rx", tau=tau) by the encoded
    route.  Returns the verdict and the number of environments the
    search reached that decode, the one that fails included.  Type and
    sat presuppose well-definedness, which the encoded route decides
    first."""
    if mode != "welldef" and not encoded_decide(e, gamma, "welldef",
                                                **options)[0].result:
        raise PreconditionError(
            "precondition failed: expression is not well defined")
    tau = _output_type(mode, tau)
    e = translate_expr(e)
    gamma = {x: paper_type(t) for x, t in gamma.items()}
    tau = None if tau is None else paper_type(tau)
    card = complexity(e, 1 if tau is None else max(type_complexity(tau), 1))
    atoms, fresh = atom_supply(literals(e), free_vars(e), gamma, card)
    evaluate = compile_penrc(e)
    reached = 0
    searching = True  # False once minimization has begun

    def failing(env):
        nonlocal reached, searching
        if not on_image(env):
            return False
        out = evaluate(env)
        if tau is None:
            bad = not out.is_defined
        elif not out.is_defined:
            raise PreconditionError(
                f"expression is not well defined (reason: {out.reason})")
        else:
            bad = not member(out.value, tau)
        if searching:
            reached += 1
            searching = not bad
        return bad

    v = search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                              **options)
    env = None if v.counterexample is None else dec_env(v.counterexample)
    return Verdict(v.result != (mode == "sat"), env, v.bounds), reached


# ---------------------------------------------------------------------------
# Values.


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


def enumerate_values(t, k: int, atoms, budget: int = DEFAULT_VALUE_BUDGET):
    """Eager version of iter_values, budget-checked."""
    out = []
    for v in iter_values(t, k, atoms, budget):
        out.append(v)
        if len(out) > budget:
            raise EnumerationBudgetError(
                f"enumeration exceeds budget {budget}")
    return out


def eager_canonical_values(t, k: int, atoms, fresh, seen: int,
                           budget: int = DEFAULT_VALUE_BUDGET):
    """iter_canonical_values with every set element and right-hand pair
    universe built whole, and checked against `budget`, before the
    first value of its position."""
    atoms = sorted(set(atoms), key=sort_key)
    index = {a.token: i for i, a in enumerate(fresh)}
    return _eager(t, k, atoms, budget, index, seen)


def _eager_universe(t, k, atoms, budget):
    if count_values_upper(t, k, len(atoms)) > budget:
        raise _over_budget(t, budget)
    return [v for v, _ in _eager(t, k, atoms, budget, {}, 0)]


def _eager(t, k, atoms, budget, index, seen):
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
                for n, s2 in _eager(t.content, k, atoms, budget, index, s):
                    yield ElemNode(a, n), s2
        else:
            elems = _eager_universe(t.content, k, atoms, budget)
            for a, s in _iter_atoms(atoms, index, seen):
                for sub, s2 in _eager_subsets(elems, k, index, s):
                    yield ElemNode(a, VSet(sub)), s2
    elif isinstance(t, CollT):
        elems = _eager_universe(t.item, k, atoms, budget)
        for sub, s in _eager_subsets(elems, k, index, seen):
            yield VSet(sub), s
    elif isinstance(t, SingleT):
        for v, s in _eager(t.item, k, atoms, budget, index, seen):
            yield VSet([v]), s
    elif isinstance(t, DataEncT):
        for a, s in _iter_atoms(atoms, index, seen):
            yield Pair(Pair(a, a), EMPTY_SET), s
    elif isinstance(t, ProdT):
        rights = _eager_universe(t.right, k, atoms, budget)
        orders = [_fresh_order(r, index) for r in rights]
        for l, s in _eager(t.left, k, atoms, budget, index, seen):
            for r, order in zip(rights, orders):
                s2 = _advance(order, s)
                if s2 >= 0:
                    yield Pair(l, r), s2
    elif isinstance(t, SumT):
        yield from _merge_unique(
            _eager(t.left, k, atoms, budget, index, seen),
            _eager(t.right, k, atoms, budget, index, seen))
    else:
        raise TypeError(f"not a type term: {t!r}")


def _eager_subsets(elems, k, index, seen):
    """The subsets of size <= k of the list elems, in canonical set
    order, whose fresh atoms come in turn."""
    orders = [_fresh_order(e, index) for e in elems]

    def rec(prefix, start, seen):
        yield tuple(prefix), seen
        if len(prefix) == k:
            return
        for i in range(start, len(elems)):
            s = _advance(orders[i], seen)
            if s >= 0:
                prefix.append(elems[i])
                yield from rec(prefix, i + 1, s)
                prefix.pop()

    return rec([], 0, seen)


# The renaming rule of the eager reference, stated apart from the one
# in nrcx.typeterms so that a fault in either shows as a disagreement.


def _preorder_atoms(v):
    """The atoms of v in preorder: an element's name before its
    children, a pair's fst before its snd, set elements in order."""
    if isinstance(v, Atom):
        yield v
    elif isinstance(v, DataNode):
        yield v.content
    elif isinstance(v, ElemNode):
        yield v.name
        yield from _preorder_atoms(v.children)
    elif isinstance(v, Pair):
        yield from _preorder_atoms(v.fst)
        yield from _preorder_atoms(v.snd)
    else:
        for e in v:
            yield from _preorder_atoms(e)


def _fresh_order(v, index):
    """Supply indices of v's fresh atoms in preorder."""
    return [index[a.token] for a in _preorder_atoms(v) if a.token in index]


def _advance(order, seen):
    """seen after fresh atoms of supply indices `order` appear in turn:
    each index may be at most the running count, which an index equal
    to it raises by one; -1 when one is above it."""
    for i in order:
        if i > seen:
            return -1
        seen = max(seen, i + 1)
    return seen


def _iter_atoms(atoms, index, seen):
    for a in atoms:
        s = _advance(_fresh_order(a, index), seen)
        if s >= 0:
            yield a, s


def _merge_unique(left, right):
    """The canonically ordered (value, seen') streams left and right
    merged, with one item of each value, left's on a tie.  Like
    heapq.merge, it draws each stream's first item before yielding
    and draws the next item of a stream when its last one is taken."""
    streams = [left, right]
    heads = [next(left, None), next(right, None)]
    last = None
    while heads != [None, None]:
        side = int(heads[0] is None
                   or (heads[1] is not None
                       and sort_key(heads[1][0]) < sort_key(heads[0][0])))
        item = heads[side]
        if last is None or item[0] != last:
            yield item
            last = item[0]
        heads[side] = next(streams[side], None)


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


def relation_satisfies(rows, attrs, dep) -> bool:
    """Direct dependency check, the oracle for dependency_expr."""
    rows = [dict(zip(attrs, r)) for r in rows]
    if isinstance(dep, FD):
        for t1 in rows:
            for t2 in rows:
                if all(t1[b] == t2[b] for b in dep.lhs):
                    if not all(t1[c] == t2[c] for c in dep.rhs):
                        return False
        return True
    if isinstance(dep, IND):
        lhs_proj = {tuple(t[b] for b in dep.lhs) for t in rows}
        rhs_proj = {tuple(t[c] for c in dep.rhs) for t in rows}
        return lhs_proj <= rhs_proj
    raise TypeError(f"not a dependency: {dep!r}")


def eval_ra(phi, db, schema):
    """Direct relational-algebra evaluation.

    db maps relation name to a set of rows, each row a tuple aligned
    with the schema's attribute tuple.  Returns a frozenset of rows
    aligned with ra_schema(phi, schema).
    """
    attrs = ra_schema(phi, schema)
    if isinstance(phi, Relation):
        return frozenset(tuple(r) for r in db[phi.name])
    if isinstance(phi, Select):
        sub = ra_schema(phi.arg, schema)
        i, j = sub.index(phi.attr1), sub.index(phi.attr2)
        return frozenset(r for r in eval_ra(phi.arg, db, schema)
                         if r[i] == r[j])
    if isinstance(phi, Project):
        sub = ra_schema(phi.arg, schema)
        idx = [sub.index(a) for a in phi.attrs]
        return frozenset(tuple(r[i] for i in idx)
                         for r in eval_ra(phi.arg, db, schema))
    if isinstance(phi, Product):
        lrows = eval_ra(phi.left, db, schema)
        rrows = eval_ra(phi.right, db, schema)
        return frozenset(l + r for l in lrows for r in rrows)
    if isinstance(phi, Rename):
        return eval_ra(phi.arg, db, schema)
    if isinstance(phi, RaUnion):
        l = eval_ra(phi.left, db, schema)
        rsub = ra_schema(phi.right, schema)
        r = _realign(eval_ra(phi.right, db, schema), rsub, attrs)
        return l | r
    if isinstance(phi, Diff):
        l = eval_ra(phi.left, db, schema)
        rsub = ra_schema(phi.right, schema)
        r = _realign(eval_ra(phi.right, db, schema), rsub, attrs)
        return l - r
    raise TypeError(f"not a relational expression: {phi!r}")


def _realign(rows, from_attrs, to_attrs):
    idx = [from_attrs.index(a) for a in to_attrs]
    return frozenset(tuple(r[i] for i in idx) for r in rows)


def write_sexpr(expr) -> str:
    """The text of expr, one part at a time with an explicit stack."""
    if isinstance(expr, str):
        return expr
    parts = ["("]
    todo = [(expr, 0)]  # (list, index of its next item)
    while todo:
        items, i = todo.pop()
        if i == len(items):
            parts.append(")")
            continue
        if i:
            parts.append(" ")
        todo.append((items, i + 1))
        item = items[i]
        if isinstance(item, str):
            parts.append(item)
        else:
            parts.append("(")
            todo.append((item, 0))
    return "".join(parts)


def to_sexpr(e):
    """The s-expression of an expression, condition or dependency, built
    from its row of the form tables.  sexpr.write(to_sexpr(e)) is the
    text print_expr writes."""
    if isinstance(e, Var):
        return e.name
    form = _BY_CLASS.get(type(e))
    if form is not None:
        out = [form.head]
        for name, shape in form.args:
            v = getattr(e, name)
            if shape in (EXPR, COND):
                out.append(to_sexpr(v))
            elif shape is BINDINGS:
                out.append([[x, to_sexpr(s)] for x, s in v])
            else:
                out.append(_LEAF_SEXPR.get(shape, lambda v: v)(v))
        return out
    if isinstance(e, (FD, IND)):
        return ["fd" if isinstance(e, FD) else "ind", list(e.lhs),
                list(e.rhs)]
    raise TypeError(f"not an expression: {e!r}")


# The leaf shapes that are not symbols.
_LEAF_SEXPR = {ATOM: lambda a: a.token, ATTRS: list, KIND: print_kind,
               TYPE: print_type}


def encode_relation(rows, attrs, tag="T") -> VSet:
    """Each row becomes <tag: <a: v> for each attribute a and value v>,
    every atom and cell built afresh."""
    return VSet(ElemNode(Atom(tag), VSet(
        ElemNode(Atom(a), vset(DataNode(Atom(v)))) for a, v in zip(attrs, r)))
        for r in rows)
