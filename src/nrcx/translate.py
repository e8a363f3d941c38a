"""Constructive translations between the calculi.

* ``enc`` / ``dec``: the injective embedding of pure RX values into
  nested values (atoms stay atoms, a data node becomes ((a,a),{}), an
  element node becomes (name, encoded children)).
* ``translate_type`` / ``translate_kind`` / ``translate_expr``: the
  matching translations of pure RX types, kinds, and expressions into
  the nested calculus with kind tests.
* ``compile_ra`` + ``encode_relation`` / ``decode_relation``: the
  relational-algebra simulation inside the emptiness test fragment of
  set-based RX.
* ``build_fd_id_reduction``: the reduction from functional/inclusion
  dependency implication to an equivalence of two RX expressions.
* ``desugar_emptiness``: emptiness tests rewritten into type switches.
"""

from __future__ import annotations

import itertools

from . import sexpr
from .frontend import (AtomLit, CAnd, CEq, CNot, COr, ChildrenF, CondIf,
                       DataF, Diff, Elem, EmptySeq, FD, For, IND, IfEmpty,
                       IfEq, IfType, MultiFor, NComp, NFlatten, NKindCond,
                       NPair, NProj1, NProj2, NUnion, NameF, Product,
                       Project, RaUnion, Relation, Rename, Select, Seq, Sing,
                       Text, Var, desugar, fold_right, free_vars,
                       map_children, print_kind, seq_of)
from .typeterms import (AtomT, CollT, DataEncT, DataT, ElemT, KAtom, KColl,
                        KData, KElem, KProd, KSum, KIND_ANY, ProdT, SingleT,
                        SumT, VoidT)
from .values import (Atom, DataNode, ElemNode, Pair, VSet, vset)

# Kinds of encoded nodes.
K_DATA_ENC = KProd(KProd(KAtom(), KAtom()), KColl())
K_ELEM_ENC = KProd(KAtom(), KColl())
K_ITEM_ENC = KSum(KAtom(), KSum(K_DATA_ENC, K_ELEM_ENC))
_KIND_ENC = {KAtom: KAtom(), KData: K_DATA_ENC, KElem: K_ELEM_ENC}


class NotInImageError(ValueError):
    """The value is not the encoding of any pure RX value."""


def enc(v):
    """Encode a pure RX value as a nested value."""
    if isinstance(v, Atom):
        return v
    if isinstance(v, DataNode):
        return Pair(Pair(v.content, v.content), VSet())
    if isinstance(v, ElemNode):
        return Pair(v.name, enc(v.children))
    if isinstance(v, VSet):
        return VSet(enc(i) for i in v)
    raise TypeError(f"not a pure RX value: {v!r}")


def dec(v):
    """Invert enc; raises NotInImageError off the image."""
    if isinstance(v, Atom):
        return v
    if isinstance(v, Pair):
        if (isinstance(v.fst, Pair) and isinstance(v.snd, VSet)
                and len(v.snd) == 0 and isinstance(v.fst.fst, Atom)
                and v.fst.fst == v.fst.snd):
            return DataNode(v.fst.fst)
        if isinstance(v.fst, Atom) and isinstance(v.snd, VSet):
            children = dec(v.snd)
            if not all(isinstance(c, (DataNode, ElemNode)) for c in children):
                raise NotInImageError(f"element children must be nodes: {v!r}")
            return ElemNode(v.fst, children)
        raise NotInImageError(f"not an encoded node: {v!r}")
    if isinstance(v, VSet):
        items = [dec(i) for i in v]
        if not all(isinstance(i, (Atom, DataNode, ElemNode)) for i in items):
            raise NotInImageError(f"encoded set contains a non-item: {v!r}")
        return VSet(items)
    raise TypeError(f"not a nested value: {v!r}")


def dec_env(sigma):
    return {x: dec(v) for x, v in sigma.items()}


def translate_type(t):
    """Pure RX type -> nested type with v in t iff enc(v) in t', whose
    values are all encodings (data translates to DataEncT).  Pure RX
    types are items, (coll ITEM) and sums of them, and an element's
    content is a union of node types; TypeError outside that grammar,
    where a type can hold values off the image of enc."""
    if isinstance(t, CollT):
        return CollT(_translate_item(t.item))
    if isinstance(t, SumT):
        return SumT(translate_type(t.left), translate_type(t.right))
    return _translate_item(t)


def _translate_item(t, nodes=False):
    """An item type, or with nodes set a union of node types."""
    if isinstance(t, VoidT) or isinstance(t, AtomT) and not nodes:
        return t
    if isinstance(t, ElemT):
        if isinstance(t.content, (CollT, SingleT)):
            raise TypeError("set-based RX element types are not translatable")
        return ProdT(AtomT(), CollT(_translate_item(t.content, True)))
    if isinstance(t, SumT):
        return SumT(_translate_item(t.left, nodes),
                    _translate_item(t.right, nodes))
    if isinstance(t, DataT):
        return DataEncT()
    raise TypeError(
        f"not a pure RX {'node' if nodes else 'item'} type: {t!r}")


def translate_kind(k):
    """Pure RX kind -> nested kind with v in k iff enc(v) in k'."""
    if type(k) in _KIND_ENC:
        return _KIND_ENC[type(k)]
    if isinstance(k, KSum):
        return KSum(translate_kind(k.left), translate_kind(k.right))
    raise NotPurePerxError(
        f"not a pure RX kind: {sexpr.write(print_kind(k))}")


class NotPurePerxError(ValueError):
    """The expression uses a construct outside pure PERX."""


def _guard(subject, kind, body):
    # e1 in k -> e2, i.e. become undefined unless the kind test passes.
    return NKindCond(subject, kind, body, NProj1(EmptySeq()))


def _fresh(avoid):
    """Each call returns the next of _t0, _t1, ... that is not in avoid."""
    return (x for x in map("_t{}".format, itertools.count())
            if x not in avoid).__next__


def translate_expr(e):
    """Pure PERX expression -> nested expression (the thirteen-clause
    table); rejects emptiness tests and type switches.  A node that
    desugaring shares (the branches of cond) is translated once."""
    e = desugar(e)
    fresh = _fresh(free_vars(e))
    return _tr(e, fresh, {})


def _tr(e, fresh, memo):  # memo: id of a node -> its translation
    if isinstance(e, (Var, AtomLit, EmptySeq)):  # forms of both calculi
        return e
    out = memo.get(id(e))
    if out is not None:
        return out
    if isinstance(e, Text):
        b = _tr(e.body, fresh, memo)
        out = _guard(b, KAtom(), NPair(NPair(b, b), EmptySeq()))
    elif isinstance(e, Elem):
        n = _tr(e.name_expr, fresh, memo)
        c = _tr(e.content, fresh, memo)
        x = fresh()
        wrap = NKindCond(Var(x), KAtom(),
                         NPair(NPair(Var(x), Var(x)), EmptySeq()), Var(x))
        out = _guard(n, KAtom(), NPair(n, NComp(x, c, wrap)))
    elif isinstance(e, DataF):
        b = _tr(e.body, fresh, memo)
        x = fresh()
        body = NKindCond(Var(x), K_DATA_ENC,
                         Sing(NProj1(NProj1(Var(x)))),
                         NKindCond(Var(x), KAtom(), Sing(Var(x)),
                                   EmptySeq()))
        out = NFlatten(NComp(x, b, body))
    elif isinstance(e, NameF):
        b = _tr(e.body, fresh, memo)
        out = _guard(NProj1(b), KAtom(), NProj1(b))
    elif isinstance(e, ChildrenF):
        b = _tr(e.body, fresh, memo)
        x = fresh()
        out = NFlatten(NComp(x, b, NProj2(Var(x))))
    elif isinstance(e, Sing):
        b = _tr(e.body, fresh, memo)
        out = _guard(b, K_ITEM_ENC, Sing(b))
    elif isinstance(e, Seq):
        out = NUnion(_tr(e.left, fresh, memo), _tr(e.right, fresh, memo))
    elif isinstance(e, For):
        src = _tr(e.source, fresh, memo)
        body = _tr(e.body, fresh, memo)
        k = translate_kind(e.kind)
        out = NFlatten(NComp(e.var, src,
                             NKindCond(Var(e.var), k, body, EmptySeq())))
    elif isinstance(e, IfEq):
        out = IfEq(_tr(e.left, fresh, memo), _tr(e.right, fresh, memo),
                   _tr(e.then, fresh, memo), _tr(e.els, fresh, memo))
    elif isinstance(e, (IfEmpty, IfType)):
        raise NotPurePerxError(
            f"emptiness tests / type switches are not pure PERX: {e!r}")
    else:
        raise NotPurePerxError(f"not a pure PERX expression: {e!r}")
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Relational algebra: schemas, encodings, compilation.


class SchemaError(ValueError):
    pass


def ra_schema(phi, schema):
    """Output attribute tuple of phi over `schema` (dict name -> attr
    tuple); raises SchemaError on ill-formed expressions."""
    if isinstance(phi, Relation):
        if phi.name not in schema:
            raise SchemaError(f"unknown relation {phi.name!r}")
        return tuple(schema[phi.name])
    if isinstance(phi, Select):
        attrs = ra_schema(phi.arg, schema)
        for a in (phi.attr1, phi.attr2):
            if a not in attrs:
                raise SchemaError(f"selection attribute {a!r} not in schema")
        return attrs
    if isinstance(phi, Project):
        attrs = ra_schema(phi.arg, schema)
        for a in phi.attrs:
            if a not in attrs:
                raise SchemaError(f"projection attribute {a!r} not in schema")
        if len(set(phi.attrs)) != len(phi.attrs):
            raise SchemaError("duplicate projection attributes")
        return tuple(phi.attrs)
    if isinstance(phi, Product):
        l = ra_schema(phi.left, schema)
        r = ra_schema(phi.right, schema)
        if set(l) & set(r):
            raise SchemaError("product schemas must be disjoint")
        return l + r
    if isinstance(phi, Rename):
        attrs = ra_schema(phi.arg, schema)
        if phi.old not in attrs:
            raise SchemaError(f"rename source {phi.old!r} not in schema")
        if phi.new in attrs:
            raise SchemaError(f"rename target {phi.new!r} already present")
        return tuple(phi.new if a == phi.old else a for a in attrs)
    if isinstance(phi, (RaUnion, Diff)):
        l = ra_schema(phi.left, schema)
        r = ra_schema(phi.right, schema)
        if set(l) != set(r):
            raise SchemaError("union/difference schemas must match")
        return l
    raise TypeError(f"not a relational expression: {phi!r}")


class NotAnEncodingError(ValueError):
    pass


def encode_relation(rows, attrs, tag="T") -> VSet:
    """Each row becomes <tag: <a: v> for each attribute a and value v>.
    One call builds one atom per token and one cell <a: v> per
    attribute and value, which the rows holding it share."""
    atoms = {}  # token -> its atom
    cells = {}  # (attribute, value) -> its cell

    def atom(token):
        a = atoms.get(token)
        if a is None:
            a = atoms[token] = Atom(token)
        return a

    out = []
    for r in rows:
        name = atom(tag)
        row = []
        for cell in zip(attrs, r):
            node = cells.get(cell)
            if node is None:
                node = cells[cell] = ElemNode(atom(cell[0]),
                                              vset(DataNode(atom(cell[1]))))
            row.append(node)
        out.append(ElemNode(name, VSet(row)))
    return VSet(out)


def decode_relation(v, attrs) -> frozenset:
    """Strict inverse of encode_relation (the tuple tag is not
    checked, so callers may choose it freely per construction)."""
    if not isinstance(v, VSet):
        raise NotAnEncodingError(f"relation encoding must be a set: {v!r}")
    rows = set()
    for t in v:
        if not isinstance(t, ElemNode):
            raise NotAnEncodingError(f"tuple encoding must be an element: {t!r}")
        cells = {}
        for c in t.children:
            if not isinstance(c, ElemNode):
                raise NotAnEncodingError(f"cell must be an element: {c!r}")
            if len(c.children) != 1 or not isinstance(c.children.elems[0],
                                                      DataNode):
                raise NotAnEncodingError(
                    f"cell content must be a single data node: {c!r}")
            if c.name.token in cells:
                raise NotAnEncodingError(
                    f"duplicate attribute {c.name.token!r}")
            cells[c.name.token] = c.children.elems[0].content.token
        if set(cells) != set(attrs):
            raise NotAnEncodingError(
                f"tuple attributes {sorted(cells)} != schema {sorted(attrs)}")
        rows.add(tuple(cells[a] for a in attrs))
    return frozenset(rows)


def encode_db(db, schema, tag="T"):
    return {r: encode_relation(db[r], schema[r], tag) for r in schema}


#: Input type of every relation variable in the simulation.
RELATION_TYPE = CollT(ElemT(CollT(ElemT(SingleT(DataT())))))


def _names_cond(vars_, attrs):
    return [CEq(NameF(Var(v)), AtomLit(Atom(a)))
            for v, a in zip(vars_, attrs)]


def _and(conds):
    return fold_right(CAnd, conds)


def _or(conds):
    return fold_right(COr, conds)


def normalize_relation(rel_expr, attrs, tag="T", fresh=None):
    """Wrapper turning any value of RELATION_TYPE into a relation
    encoding; the identity on values that already are one."""
    fresh = fresh or _fresh(free_vars(rel_expr))
    t = fresh()
    xs = [fresh() for _ in attrs]
    conds = _names_cond(xs, attrs)
    build = Elem(AtomLit(Atom(tag)), seq_of([Var(x) for x in xs]))
    if conds:
        inner = CondIf(_and(conds), build, EmptySeq())
    else:
        inner = build
    body = MultiFor(tuple((x, ChildrenF(Var(t))) for x in xs),
                    KIND_ANY, inner)
    return For(t, KIND_ANY, rel_expr, body)


def compile_ra(phi, schema, tag="T"):
    """Compile a relational algebra expression into the emptiness-test
    fragment of set-based RX.

    Returns (expr, gamma): gamma assigns RELATION_TYPE to every relation
    phi names; evaluating expr on an encoded database yields the encoding
    of the direct evaluation result (under any oracle suite).
    """
    ra_schema(phi, schema)  # validate
    # No loop variable is named like a relation, so none captures one.
    core = _compile(phi, schema, tag, _fresh(schema))
    gamma = {r: RELATION_TYPE for r in sorted(free_vars(phi))}
    return core, gamma


def _compile(phi, schema, tag, fresh):
    if isinstance(phi, Relation):
        return normalize_relation(Var(phi.name), tuple(schema[phi.name]),
                                  tag, fresh)
    if isinstance(phi, Select):
        sub = _compile(phi.arg, schema, tag, fresh)
        t, x1, x2 = fresh(), fresh(), fresh()
        cond = _and([CEq(NameF(Var(x1)), AtomLit(Atom(phi.attr1))),
                     CEq(NameF(Var(x2)), AtomLit(Atom(phi.attr2))),
                     CEq(ChildrenF(Var(x1)), ChildrenF(Var(x2)))])
        return For(t, KIND_ANY, sub,
                   MultiFor(((x1, ChildrenF(Var(t))),
                             (x2, ChildrenF(Var(t)))), KIND_ANY,
                            CondIf(cond, Var(t), EmptySeq())))
    if isinstance(phi, Project):
        sub = _compile(phi.arg, schema, tag, fresh)
        t, x = fresh(), fresh()
        keep = _or([CEq(NameF(Var(x)), AtomLit(Atom(a)))
                    for a in phi.attrs]) if phi.attrs else None
        if keep is None:
            inner = EmptySeq()
        else:
            inner = For(x, KIND_ANY, ChildrenF(Var(t)),
                        CondIf(keep, Var(x), EmptySeq()))
        return For(t, KIND_ANY, sub, Elem(AtomLit(Atom(tag)), inner))
    if isinstance(phi, Product):
        l = _compile(phi.left, schema, tag, fresh)
        r = _compile(phi.right, schema, tag, fresh)
        t1, t2 = fresh(), fresh()
        return MultiFor(((t1, l), (t2, r)), KIND_ANY,
                        Elem(AtomLit(Atom(tag)),
                             Seq(ChildrenF(Var(t1)), ChildrenF(Var(t2)))))
    if isinstance(phi, Rename):
        sub = _compile(phi.arg, schema, tag, fresh)
        t, x = fresh(), fresh()
        inner = For(x, KIND_ANY, ChildrenF(Var(t)),
                    CondIf(CEq(NameF(Var(x)), AtomLit(Atom(phi.old))),
                           Elem(AtomLit(Atom(phi.new)), ChildrenF(Var(x))),
                           Var(x)))
        return For(t, KIND_ANY, sub, Elem(AtomLit(Atom(tag)), inner))
    if isinstance(phi, RaUnion):
        return Seq(_compile(phi.left, schema, tag, fresh),
                   _compile(phi.right, schema, tag, fresh))
    if isinstance(phi, Diff):
        attrs = ra_schema(phi.left, schema)
        l = _compile(phi.left, schema, tag, fresh)
        r = _compile(phi.right, schema, tag, fresh)
        t1, t2 = fresh(), fresh()
        xs = [fresh() for _ in attrs]
        ys = [fresh() for _ in attrs]
        cond = _and(_names_cond(xs, attrs) + _names_cond(ys, attrs)
                    + [CEq(ChildrenF(Var(x)), ChildrenF(Var(y)))
                       for x, y in zip(xs, ys)])
        membership = For(
            t2, KIND_ANY, r,
            MultiFor(tuple((x, ChildrenF(Var(t1))) for x in xs)
                     + tuple((y, ChildrenF(Var(t2))) for y in ys),
                     KIND_ANY, CondIf(cond, Var(t1), EmptySeq())))
        return For(t1, KIND_ANY, l,
                   IfEmpty(membership, Var(t1), EmptySeq()))
    raise TypeError(f"not a relational expression: {phi!r}")


# ---------------------------------------------------------------------------
# Dependency implication reduction.


#: Output node content type of the reduction's two expressions.
REDUCTION_OUTPUT_TYPE = CollT(ElemT(CollT(ElemT(CollT(ElemT(CollT(
    ElemT(CollT(DataT())))))))))

_FD_SAT = EmptySeq()


def _fd_unsat(a1):
    return Elem(AtomLit(Atom(a1)), EmptySeq())


def _ind_sat(a1):
    return Elem(AtomLit(Atom(a1)), Elem(AtomLit(Atom(a1)), EmptySeq()))


def _ind_unsat(a1):
    return Seq(_ind_sat(a1), _fd_unsat(a1))


def dependency_expr(dep, rel_expr, attrs, fresh=None):
    """RX expression testing dep on an encoded relation.

    On an encoding of R, an FD expression returns {} when R satisfies
    the dependency and { <A1:{}> } otherwise; an IND expression returns
    { <A1:{<A1:{}>}> } when satisfied and additionally <A1:{}> when not.
    """
    fresh = fresh or _fresh(free_vars(rel_expr))
    a1 = attrs[0]
    if isinstance(dep, FD):
        return _fd_expr(dep, rel_expr, a1, fresh)
    if isinstance(dep, IND):
        return _ind_expr(dep, rel_expr, a1, fresh)
    raise TypeError(f"not a dependency: {dep!r}")


def _fd_expr(dep, rel_expr, a1, fresh):
    bs, cs = dep.lhs, dep.rhs
    if not cs:
        return EmptySeq()  # X -> {} always holds
    t1, t2 = fresh(), fresh()
    xs = [fresh() for _ in bs]
    ys = [fresh() for _ in cs]
    us = [fresh() for _ in bs]
    vs = [fresh() for _ in cs]
    names = (_names_cond(xs, bs) + _names_cond(ys, cs)
             + _names_cond(us, bs) + _names_cond(vs, cs))
    agree_lhs = [CEq(ChildrenF(Var(x)), ChildrenF(Var(u)))
                 for x, u in zip(xs, us)]
    disagree_rhs = _or([CNot(CEq(ChildrenF(Var(y)), ChildrenF(Var(v))))
                        for y, v in zip(ys, vs)])
    cond = _and(names + agree_lhs + [disagree_rhs])
    inner = CondIf(cond, _fd_unsat(a1), EmptySeq())
    body = MultiFor(tuple((v, ChildrenF(Var(t1))) for v in xs + ys),
                    KIND_ANY,
                    MultiFor(tuple((v, ChildrenF(Var(t2))) for v in us + vs),
                             KIND_ANY, inner))
    return MultiFor(((t1, rel_expr), (t2, rel_expr)), KIND_ANY, body)


def _ind_expr(dep, rel_expr, a1, fresh):
    bs, cs = dep.lhs, dep.rhs
    t1, t2 = fresh(), fresh()
    xs = [fresh() for _ in bs]
    ys = [fresh() for _ in cs]
    if bs:
        cond = _and(_names_cond(xs, bs) + _names_cond(ys, cs)
                    + [CEq(ChildrenF(Var(x)), ChildrenF(Var(y)))
                       for x, y in zip(xs, ys)])
        witness = MultiFor(
            tuple((x, ChildrenF(Var(t1))) for x in xs), KIND_ANY,
            MultiFor(tuple((y, ChildrenF(Var(t2))) for y in ys), KIND_ANY,
                     CondIf(cond, _fd_unsat(a1), EmptySeq())))
    else:
        witness = _fd_unsat(a1)
    per_tuple = For(t1, KIND_ANY, rel_expr,
                    Elem(AtomLit(Atom(a1)),
                         For(t2, KIND_ANY, rel_expr, witness)))
    return Seq(per_tuple, _ind_sat(a1))


def build_fd_id_reduction(sigma_deps, rho, arity, attrs=None):
    """Build the implication-problem reduction.

    Returns (e1, e2, gamma, output_type): sigma_deps implies rho over
    relations with the given attributes iff e1 and e2 agree (e1's output
    is contained in e2's) on every environment compatible with gamma.
    """
    if arity < 1:
        raise ValueError(f"arity must be at least 1, got {arity}")
    if attrs is None:
        attrs = tuple(f"A{i+1}" for i in range(arity))
    attrs = tuple(attrs)
    if len(attrs) != arity:
        raise ValueError("attribute list does not match arity")
    if len(set(attrs)) != arity:
        raise ValueError("attribute list repeats an attribute")
    for dep in list(sigma_deps) + [rho]:
        for a in dep.lhs + dep.rhs:
            if a not in attrs:
                raise ValueError(f"dependency attribute {a!r} not in schema")
    a1 = attrs[0]
    fresh = _fresh(())
    rel = normalize_relation(Var("r"), attrs, tag=a1, fresh=fresh)
    deps = [rho] + list(sigma_deps)
    tags = [Atom("@D0")] + [
        Atom(f"@D{i+1}") if isinstance(d, FD) else Atom(f"@E{i+1}")
        for i, d in enumerate(sigma_deps)]
    parts = [Elem(AtomLit(tag), dependency_expr(d, rel, attrs, fresh))
             for tag, d in zip(tags, deps)]
    e1 = Elem(AtomLit(Atom(a1)), seq_of(parts))

    # e2: union of all admissible outcome combinations.  A combination
    # assigns each dependency its satisfied or violated output shape;
    # the one where every premise holds but the conclusion fails is the
    # single inadmissible case.
    def outcome_exprs(d):
        if isinstance(d, FD):
            return (_FD_SAT, _fd_unsat(a1))
        return (_ind_sat(a1), _ind_unsat(a1))

    admissible = []
    for combo in itertools.product((True, False), repeat=len(deps)):
        rho_sat, premises_sat = combo[0], combo[1:]
        if all(premises_sat) and not rho_sat:
            continue
        parts = [Elem(AtomLit(tag), outcome_exprs(d)[0 if sat else 1])
                 for tag, d, sat in zip(tags, deps, combo)]
        admissible.append(Elem(AtomLit(Atom(a1)), seq_of(parts)))
    e2 = seq_of(admissible)
    gamma = {"r": RELATION_TYPE}
    return e1, e2, gamma, REDUCTION_OUTPUT_TYPE


# ---------------------------------------------------------------------------
# Emptiness tests as type switches.


def desugar_emptiness(e):
    """Rewrite every emptiness test into the equivalent type switch:
    map the tested set through a constant element constructor and ask
    whether the image is a set of data nodes (true only for the empty
    set)."""
    fresh = _fresh(free_vars(e))
    marker = AtomLit(Atom("@e"))

    def rewrite(e):
        if isinstance(e, IfEmpty):
            x = fresh()
            probe = For(x, KIND_ANY, rewrite(e.cond), Elem(marker, EmptySeq()))
            return IfType(probe, CollT(DataT()), rewrite(e.then),
                          rewrite(e.els))
        return map_children(e, rewrite)

    return rewrite(e)
