import itertools
import json

import pytest

import nrcx.frontend
import nrcx.translate
from nrcx.frontend import (Diff, FD, IND, Product, Project, RaUnion,
                           Relation, Rename, Select, Var, _children,
                           free_vars, parse, print_expr, print_type)
from nrcx.decide import well_defined_pure_rx
from nrcx.penrc import eval_penrc
from nrcx.rx import ALT_ORACLES, DEFAULT_ORACLES, eval_pure_rx, eval_rx
from nrcx.translate import (NotAnEncodingError, NotInImageError,
                            NotPurePerxError, RELATION_TYPE, SchemaError,
                            build_fd_id_reduction, compile_ra, dec, dec_env,
                            decode_relation, dependency_expr,
                            desugar_emptiness, enc, encode_db,
                            encode_relation, normalize_relation, ra_schema,
                            translate_expr, translate_kind, translate_type)
from nrcx.typeterms import (AtomT, CollT, DataEncT, DataT, ElemT, KAtom,
                            KData, KElem, KSum, ProdT, SumT, VoidT,
                            count_values_upper, is_nrc_type, kind_member, member, rank,
                            type_complexity)
from nrcx.values import (Atom, DataNode, ElemNode, Pair, VSet, vset,
                         EMPTY_SET, value_to_json)

import oracles
from oracles import (decodes, enc_env, enumerate_values, eval_ra,
                     relation_satisfies)

a, b, n = Atom("a"), Atom("b"), Atom("n")


# --- value encoding --------------------------------------------------------


def test_enc_atom():
    assert enc(a) == a


def test_enc_data_node():
    assert enc(DataNode(b)) == Pair(Pair(b, b), EMPTY_SET)


def test_enc_element_node():
    got = enc(ElemNode(a, vset(DataNode(b))))
    assert got == Pair(a, vset(Pair(Pair(b, b), EMPTY_SET)))


def test_enc_injective_on_samples():
    vals = [a, b, DataNode(a), ElemNode(a, EMPTY_SET),
            ElemNode(a, vset(DataNode(a))), vset(a), vset(a, DataNode(b)),
            EMPTY_SET]
    images = [enc(v) for v in vals]
    assert len(set(images)) == len(vals)
    for v in vals:
        assert dec(enc(v)) == v


def test_dec_rejects_non_images():
    # (a, b) with distinct atoms is no data-node encoding, and a pair
    # with a pair head is no element encoding.
    with pytest.raises(NotInImageError):
        dec(Pair(Pair(a, b), EMPTY_SET))
    with pytest.raises(NotInImageError):
        dec(Pair(EMPTY_SET, EMPTY_SET))
    with pytest.raises(NotInImageError):
        dec(vset(vset(a)))


# --- type and kind translation ---------------------------------------------


PAPER_DATA = ProdT(ProdT(AtomT(), AtomT()), CollT(VoidT()))


def _has_paper_measures(t, paper):
    """t has the rank, type complexity, value count bound and printed
    form of the paper's translation, and holds exactly its values that
    decode."""
    assert is_nrc_type(t)
    assert type_complexity(t) == type_complexity(paper)
    assert print_type(t) == print_type(paper)
    for k in range(4):
        assert rank(t, k) == rank(paper, k)
        for n_atoms in range(4):
            assert count_values_upper(t, k, n_atoms) == \
                count_values_upper(paper, k, n_atoms)
    values = enumerate_values(paper, 2, [a, b])
    assert [v for v in values if member(v, t)] == \
        [v for v in values if decodes(v)] == enumerate_values(t, 2, [a, b])


def test_translate_type_data():
    # The image of enc in the paper's ((atom x atom) x {void}).
    got = translate_type(DataT())
    assert got == DataEncT()
    _has_paper_measures(got, PAPER_DATA)
    assert not member(Pair(Pair(a, b), EMPTY_SET), got)


def test_translate_kind_elem():
    from nrcx.typeterms import KColl, KProd
    assert translate_kind(KElem()) == KProd(KAtom(), KColl())


def test_translate_kind_outside_pure_kinds_in_surface_syntax():
    from nrcx.typeterms import KColl, KProd
    with pytest.raises(NotPurePerxError) as err:
        translate_kind(KSum(KAtom(), KProd(KAtom(), KColl())))
    assert str(err.value) == \
        "not a pure RX kind: (kind-prod (kind-atom) (kind-coll))"


def test_translate_type_compound():
    got = translate_type(CollT(SumT(AtomT(), DataT())))
    assert got == CollT(SumT(AtomT(), DataEncT()))
    _has_paper_measures(got, CollT(SumT(AtomT(), PAPER_DATA)))


def test_type_translation_tracks_membership():
    types = [AtomT(), DataT(), CollT(AtomT()), CollT(DataT()),
             SumT(AtomT(), ElemT(DataT())), ElemT(SumT(DataT(), ElemT(VoidT())))]
    values = [a, b, DataNode(a), ElemNode(a, EMPTY_SET),
              ElemNode(a, vset(DataNode(b))),
              ElemNode(a, vset(ElemNode(b, EMPTY_SET))),
              EMPTY_SET, vset(a), vset(DataNode(a), a)]
    for t in types:
        for v in values:
            assert member(v, t) == member(enc(v), translate_type(t)), (t, v)


def test_kind_translation_tracks_membership():
    kinds = [KAtom(), KData(), KElem(), KSum(KAtom(), KData())]
    values = [a, DataNode(a), ElemNode(a, EMPTY_SET)]
    for k in kinds:
        for v in values:
            assert kind_member(v, k) == \
                kind_member(enc(v), translate_kind(k)), (k, v)


# --- expression translation ------------------------------------------------


def _agree(src, env):
    e = parse(src, "pure-rx")
    te = translate_expr(e)
    o1 = eval_pure_rx(e, env)
    o2 = eval_penrc(te, enc_env(env))
    assert o1.is_defined == o2.is_defined, (src, env, o1, o2)
    if o1.is_defined:
        assert enc(o1.value) == o2.value, (src, env)


def test_translate_children_shape():
    got = translate_expr(parse("(children x)", "pure-rx"))
    from nrcx.frontend import NFlatten, NComp, NProj2, Var
    assert isinstance(got, NFlatten)
    assert isinstance(got.body, NComp)
    assert got.body.source == Var("x")
    assert got.body.body == NProj2(Var(got.body.var))


def test_translate_empty():
    from nrcx.frontend import EmptySeq
    assert translate_expr(parse("(empty)", "pure-rx")) == EmptySeq()


def test_translate_name_guard_shape():
    from nrcx.frontend import EmptySeq, NKindCond, NProj1, Var
    got = translate_expr(parse("(name x)", "pure-rx"))
    assert got == NKindCond(NProj1(Var("x")), KAtom(), NProj1(Var("x")),
                            NProj1(EmptySeq()))


def test_translation_agreement_on_samples():
    envs = [
        {"x": vset(a), "y": ElemNode(n, EMPTY_SET)},
        {"x": a, "y": a},
        {"x": vset(ElemNode(n, vset(DataNode(b)))), "y": DataNode(b)},
        {"x": EMPTY_SET, "y": vset(a, DataNode(b))},
    ]
    srcs = ["x", "(lit a)", "(text y)", "(elem (lit n) x)", "(data x)",
            "(name y)", "(children x)", "(empty)", "(sing y)", "(seq x x)",
            "(for v (kind-any) x (sing v))",
            "(for v (kind-data) x (sing v))",
            "(ifeq (lit a) (lit b) x (sing y))"]
    for src in srcs:
        for env in envs:
            if free_vars(parse(src, "pure-rx")) <= set(env):
                _agree(src, env)


def test_translate_rejects_emptiness_and_type_switch():
    with pytest.raises(NotPurePerxError):
        translate_expr(parse("(ifempty x y x)", "pure-rx"))
    with pytest.raises(NotPurePerxError):
        translate_expr(parse("(iftype x (coll (data)) y x)", "pure-rx"))


def test_translate_avoids_capturing_free_variables():
    e = parse("(elem (lit n) _t0)", "pure-rx")
    te = translate_expr(e)
    env = {"_t0": vset(a)}
    o1 = eval_pure_rx(e, env)
    o2 = eval_penrc(te, enc_env(env))
    assert o1.is_defined and o2.is_defined
    assert enc(o1.value) == o2.value


def _nested_conds(d):
    """E_d = (cond (or (eq x x) (eq x x)) E_{d-1} (empty)), E_0 = (empty).
    Desugaring shares E_{d-1} under the or, so E_d is a DAG of size
    linear in d with 2^d paths."""
    e = "(empty)"
    for _ in range(d):
        e = f"(cond (or (eq x x) (eq x x)) {e} (empty))"
    return parse(e, "pure-rx")


def _distinct_nodes(e):
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(_children(n))
    return len(seen)


def test_translation_translates_each_shared_node_once():
    counts = [_distinct_nodes(translate_expr(_nested_conds(d)))
              for d in (3, 6, 9, 12)]
    # The same number of nodes, at most 10, per level of nesting.
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1 and steps.pop() <= 30, counts
    # The two copies of a shared binder are one node, with one name.
    got = translate_expr(parse(
        "(cond (or (eq x x) (eq x x)) (children y) (empty))", "pure-rx"))
    assert got.then is got.els.then
    assert print_expr(got) == (
        "(ifeq x x (flatten (for _t0 y (snd _t0))) "
        "(ifeq x x (flatten (for _t0 y (snd _t0))) (empty)))")


def test_shared_conds_are_certified_without_a_search():
    v = well_defined_pure_rx(_nested_conds(18), {"x": AtomT()})
    assert v.result and v.bounds["examined"] == 0


# --- relational algebra ----------------------------------------------------

SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}
DB = {"R": {("1", "2"), ("1", "3"), ("4", "4")},
      "S": {("2", "9"), ("3", "9")}}

QUERIES = [
    Relation("R"),
    Select("A", "B", Relation("R")),
    Project(("B",), Relation("R")),
    Product(Relation("R"), Relation("S")),
    Rename("B", "Z", Relation("R")),
    RaUnion(Relation("R"), Rename("C", "A", Rename("D", "B", Relation("S")))),
    Diff(Relation("R"), Select("A", "B", Relation("R"))),
    Project(("C",), Select("C", "D", Relation("S"))),
]


def test_ra_schema_validation():
    assert ra_schema(Product(Relation("R"), Relation("S")), SCHEMA) == \
        ("A", "B", "C", "D")
    with pytest.raises(SchemaError):
        ra_schema(Project(("Z",), Relation("R")), SCHEMA)
    with pytest.raises(SchemaError):
        ra_schema(Product(Relation("R"), Relation("R")), SCHEMA)
    with pytest.raises(SchemaError):
        ra_schema(RaUnion(Relation("R"), Relation("S")), SCHEMA)


def test_eval_ra_reference_semantics():
    assert eval_ra(Select("A", "B", Relation("R")), DB, SCHEMA) == \
        frozenset({("4", "4")})
    assert eval_ra(Project(("B",), Relation("R")), DB, SCHEMA) == \
        frozenset({("2",), ("3",), ("4",)})
    assert len(eval_ra(Product(Relation("R"), Relation("S")), DB, SCHEMA)) == 6


def test_encode_decode_round_trip():
    rel = {("x", "y"), ("y", "y")}
    assert decode_relation(encode_relation(rel, ("A", "B")), ("A", "B")) == \
        frozenset(rel)
    assert encode_relation(set(), ("A",)) == EMPTY_SET


def test_encode_shape():
    got = encode_relation({("a",)}, ("A",))
    assert got == vset(ElemNode(Atom("T"),
                                vset(ElemNode(Atom("A"),
                                              vset(DataNode(a))))))


@pytest.mark.parametrize("rows, attrs", [
    (set(), ("A",)),
    ([], ("A", "B")),
    # duplicate rows
    ([("a", "b"), ("a", "b"), ("b", "a"), ("a", "b")], ("A", "B")),
    # values repeated across rows and attributes, and a value that is
    # also an attribute name and the tag
    ([("a", "a", "T"), ("a", "b", "A"), ("b", "a", "a"), ("T", "T", "T")],
     ("A", "B", "C")),
    ([("x",)], ()),
])
def test_encode_relation_matches_reference(rows, attrs):
    got = encode_relation(rows, attrs)
    want = oracles.encode_relation(rows, attrs)
    assert got == want and hash(got) == hash(want)
    assert json.dumps(value_to_json(got)) == json.dumps(value_to_json(want))
    if attrs:
        assert decode_relation(got, attrs) == frozenset(rows)


def test_encode_relation_builds_each_atom_and_cell_once():
    got = encode_relation([("a", "b"), ("a", "c"), ("c", "a")], ("A", "B"))
    cells = {}
    for row in got:
        for cell in row.children:
            key = (cell.name.token, cell.children.elems[0].content.token)
            assert cells.setdefault(key, cell) is cell
    assert len(cells) == 5
    atoms = {}
    for row in got:
        for x in [row.name] + [c.name for c in row.children] + [
                c.children.elems[0].content for c in row.children]:
            assert atoms.setdefault(x.token, x) is x


def test_decode_rejects_non_encodings():
    with pytest.raises(NotAnEncodingError):
        decode_relation(vset(a), ("A",))
    with pytest.raises(NotAnEncodingError):
        decode_relation(vset(ElemNode(Atom("T"), EMPTY_SET)), ("A",))


def test_compile_ra_matches_reference_under_both_oracles():
    for q in QUERIES:
        attrs = ra_schema(q, SCHEMA)
        expect = eval_ra(q, DB, SCHEMA)
        expr, gamma = compile_ra(q, SCHEMA)
        assert all(t == RELATION_TYPE for t in gamma.values())
        for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
            out = eval_rx(expr, encode_db(DB, SCHEMA), oracles)
            assert out.is_defined, (q, out)
            assert decode_relation(out.value, attrs) == expect, (q, oracles)


# Relations named like the compiler's loop variables (_t0, _t1, ...).
BINDER_SCHEMA = {"R": ("A",), "_t4": ("B",), "_t6": ("B",)}
BINDER_DB = {"R": {("1",), ("3",)}, "_t4": {("2",), ("3",)},
             "_t6": {("2",), ("3",)}}


@pytest.mark.parametrize("q", [
    Product(Relation("R"), Relation("_t4")),
    Diff(Relation("R"), Rename("B", "A", Relation("_t6"))),
])
def test_compile_ra_loop_variables_avoid_relation_names(q):
    expr, gamma = compile_ra(q, BINDER_SCHEMA)
    assert sorted(gamma) == sorted(free_vars(q))
    out = eval_rx(expr, encode_db(BINDER_DB, BINDER_SCHEMA))
    assert out.is_defined
    assert decode_relation(out.value, ra_schema(q, BINDER_SCHEMA)) == \
        eval_ra(q, BINDER_DB, BINDER_SCHEMA)


def _nodes(e):
    return 1 + sum(map(_nodes, _children(e)))


def test_compile_ra_does_not_walk_its_output(monkeypatch):
    """gamma comes from the relations phi names: compile_ra calls
    free_vars at most once per node of phi (15 here), not once per node
    of the compiled expression (167).  phi is the last and largest
    query of _ra_exprs(3), built without enumerating the other 119,547."""
    from test_acceptance import RA_SCHEMA, _ra_exprs
    calls = 0

    def counted(*args, _f=nrcx.frontend.free_vars):
        nonlocal calls
        calls += 1
        return _f(*args)
    monkeypatch.setattr(nrcx.frontend, "free_vars", counted)
    monkeypatch.setattr(nrcx.translate, "free_vars", counted)
    deepest = _ra_exprs(2)[-1]
    phi = Diff(deepest, deepest)
    compile_ra(phi, RA_SCHEMA)
    assert calls <= _nodes(phi)


def test_normalization_identity_on_encodings():
    rel = {("x", "y"), ("z", "z")}
    encoded = encode_relation(rel, ("A", "B"))
    wrapper = normalize_relation(Var("r"), ("A", "B"))
    out = eval_rx(wrapper, {"r": encoded})
    assert out.is_defined and out.value == encoded


def test_normalization_output_always_decodes():
    wrapper = normalize_relation(Var("r"), ("A", "B"))
    for v in enumerate_values(RELATION_TYPE, 2, [a, b]):
        out = eval_rx(wrapper, {"r": v})
        assert out.is_defined
        decode_relation(out.value, ("A", "B"))  # must not raise


# --- dependencies ----------------------------------------------------------

ATTRS = ("A1", "A2")
FD_SAT = EMPTY_SET
FD_UNSAT = vset(ElemNode(Atom("A1"), EMPTY_SET))
IND_SAT = vset(ElemNode(Atom("A1"), vset(ElemNode(Atom("A1"), EMPTY_SET))))
IND_UNSAT = IND_SAT.union(FD_UNSAT)


def all_relations(max_tuples, atoms=("a", "b")):
    rows = list(itertools.product(atoms, repeat=len(ATTRS)))
    for k in range(max_tuples + 1):
        for combo in itertools.combinations(rows, k):
            yield set(combo)


def test_relation_satisfies_reference():
    assert relation_satisfies({("a", "a"), ("a", "b")}, ATTRS,
                              FD(("A1",), ("A2",))) is False
    assert relation_satisfies({("a", "a"), ("b", "a")}, ATTRS,
                              FD(("A1",), ("A2",))) is True
    assert relation_satisfies({("a", "b")}, ATTRS,
                              IND(("A1",), ("A2",))) is False
    assert relation_satisfies({("a", "a")}, ATTRS,
                              IND(("A1",), ("A2",))) is True


@pytest.mark.parametrize("dep", [
    FD(("A1",), ("A2",)),
    FD(("A1", "A2"), ("A1",)),
    IND(("A1",), ("A2",)),
    IND(("A1", "A2"), ("A2", "A1")),
])
def test_dependency_expression_behavioral_contract(dep):
    expr = dependency_expr(dep, Var("r"), ATTRS)
    for rel in all_relations(2):
        out = eval_rx(expr, {"r": encode_relation(rel, ATTRS)})
        assert out.is_defined, (dep, rel)
        sat = relation_satisfies(rel, ATTRS, dep)
        if isinstance(dep, FD):
            assert out.value == (FD_SAT if sat else FD_UNSAT), (dep, rel)
        else:
            assert out.value == (IND_SAT if sat else IND_UNSAT), (dep, rel)


def _implication_by_reduction(sigma_deps, rho):
    e1, e2, gamma, gtype = build_fd_id_reduction(sigma_deps, rho, 2, ATTRS)
    for rel in all_relations(2):
        env = {"r": encode_relation(rel, ATTRS, tag=ATTRS[0])}
        o1 = eval_rx(e1, env)
        o2 = eval_rx(e2, env)
        assert o1.is_defined and o2.is_defined
        if not set(o1.value.elems) <= set(o2.value.elems):
            return False
    return True


def _implication_direct(sigma_deps, rho):
    for rel in all_relations(2):
        if all(relation_satisfies(rel, ATTRS, d) for d in sigma_deps):
            if not relation_satisfies(rel, ATTRS, rho):
                return False
    return True


@pytest.mark.parametrize("sigma,rho", [
    ([FD(("A1",), ("A2",))], FD(("A1",), ("A2",))),
    ([], FD(("A1",), ("A2",))),
    ([FD(("A1",), ("A2",))], FD(("A1", "A2"), ("A2",))),
    ([IND(("A1",), ("A2",))], IND(("A1",), ("A2",))),
    ([], IND(("A1",), ("A2",))),
    ([FD(("A1",), ("A2",)), IND(("A1",), ("A2",))], FD(("A1",), ("A2",))),
    ([IND(("A1",), ("A2",))], FD(("A1",), ("A2",))),
])
def test_reduction_tracks_direct_implication(sigma, rho):
    assert _implication_by_reduction(sigma, rho) == \
        _implication_direct(sigma, rho)


def test_reduction_output_shape():
    e1, e2, gamma, gtype = build_fd_id_reduction(
        [FD(("A1",), ("A2",))], IND(("A1",), ("A2",)), 2, ATTRS)
    assert set(gamma) == {"r"}
    for rel in all_relations(1):
        env = {"r": encode_relation(rel, ATTRS, tag=ATTRS[0])}
        for e in (e1, e2):
            out = eval_rx(e, env)
            assert out.is_defined
            assert member(out.value, gtype), (rel, out.value)


def test_reduction_rejects_foreign_attributes():
    with pytest.raises(ValueError):
        build_fd_id_reduction([], FD(("Z",), ("A1",)), 2, ATTRS)


# --- emptiness-test desugaring ---------------------------------------------


def test_desugar_emptiness_identity_without_tests():
    e = parse("(seq x (lit a))", "rx")
    assert desugar_emptiness(e) == e


def test_desugar_emptiness_removes_all_tests():
    e = parse("(ifempty x y (ifempty z y x))", "rx")
    d = desugar_emptiness(e)
    assert "ifempty" not in print_expr(d)


def test_desugar_emptiness_agreement():
    srcs = ["(ifempty x (lit t) (lit f))",
            "(ifempty (children x) x (lit f))",
            "(seq (ifempty x x (lit b)) (lit c))"]
    envs = [{"x": EMPTY_SET}, {"x": vset(a)},
            {"x": vset(ElemNode(n, vset(DataNode(b))))},
            {"x": vset(DataNode(b))}]
    for src in srcs:
        e = parse(src, "rx")
        d = desugar_emptiness(e)
        for env in envs:
            for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
                o1 = eval_rx(e, env, oracles)
                o2 = eval_rx(d, env, oracles)
                assert o1.is_defined == o2.is_defined, (src, env)
                if o1.is_defined:
                    assert o1.value == o2.value, (src, env)
