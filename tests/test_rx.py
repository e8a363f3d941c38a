import pytest

import nrcx.rx
import nrcx.frontend
from nrcx.frontend import desugar, parse, print_expr
from nrcx.rx import (ALT_ORACLES, DEFAULT_ORACLES, ORACLE_SUITES, Defined,
                     Undefined, compile_pure_rx, compile_rx, eval_pure_rx,
                     eval_rx, rx_children, rx_data, rx_name)
from nrcx.translate import compile_ra, decode_relation, encode_db
from nrcx.values import (Atom, DataNode, ElemNode, VSet, vset, EMPTY_SET,
                         is_pure_rx_value, is_rx_value)

from oracles import eval_ra

a, b, c = Atom("a"), Atom("b"), Atom("c")


def rx(src, env, oracles=DEFAULT_ORACLES):
    return eval_rx(parse(src, "rx"), env, oracles)


def prx(src, env):
    return eval_pure_rx(parse(src, "pure-rx"), env)


# --- the environment check ------------------------------------------------


def test_program_names_its_free_variables():
    e = parse("(seq (for v (kind-any) x (sing v))"
              " (cond (eq y (lit a)) z (empty)))", "pure-rx")
    assert compile_pure_rx(e).free == {"x", "y", "z"}
    assert compile_rx(parse("(for v (kind-any) x v)", "rx")).free == {"x"}


def test_unbound_variables_raise_even_in_a_branch_not_taken():
    with pytest.raises(ValueError, match=r"^unbound variables: y$"):
        prx("(ifeq (lit a) (lit b) y (empty))", {})
    with pytest.raises(ValueError, match=r"^unbound variables: x, y$"):
        rx("(seq y x)", {})


def test_bindings_outside_the_language_raise_after_unbound_ones():
    with pytest.raises(ValueError, match=r"^binding x is not an RX value "
                                         r"\(a set of items\)$"):
        rx("(children x)", {"x": a})
    # Every binding is checked, in sorted order, not only the free ones.
    with pytest.raises(ValueError, match=r"^binding w is not a pure RX "
                                         r"value \(an item or a set of "
                                         r"items\)$"):
        prx("x", {"x": a, "w": vset(vset(a)), "z": vset(vset(b))})
    with pytest.raises(ValueError, match=r"^unbound variables: y$"):
        prx("(seq x y)", {"x": a, "z": vset(vset(b))})


# --- helper functions ------------------------------------------------------


def test_rx_data_empty():
    assert rx_data(EMPTY_SET, DEFAULT_ORACLES) == EMPTY_SET


def test_rx_data_atoms_and_data_nodes():
    assert rx_data(vset(a, DataNode(b)), DEFAULT_ORACLES) == vset(a, b)


def test_rx_data_applies_content_oracle():
    node = ElemNode(a, EMPTY_SET)
    got = rx_data(vset(node), DEFAULT_ORACLES)
    assert got == vset(DEFAULT_ORACLES.content(node))


def test_rx_name_singleton_element():
    assert rx_name(vset(ElemNode(a, EMPTY_SET)), DEFAULT_ORACLES) == vset(a)


def test_rx_name_empty_returns_concat_of_empty():
    assert rx_name(EMPTY_SET, DEFAULT_ORACLES) == \
        vset(DEFAULT_ORACLES.concat(EMPTY_SET))


def test_rx_children_unions_child_sets():
    got = rx_children(vset(ElemNode(a, vset(DataNode(b))),
                           ElemNode(c, EMPTY_SET)))
    assert got == vset(DataNode(b))


# --- set-based evaluation --------------------------------------------------


def test_empty_sequence():
    assert rx("(empty)", {}) == Defined(EMPTY_SET)


def test_atom_literal_is_singleton():
    assert rx("(lit a)", {}) == Defined(vset(a))


def test_elem_construction_wraps_atoms():
    out = rx("(elem x y)", {"x": vset(a), "y": vset(b)})
    assert out == Defined(vset(ElemNode(a, vset(DataNode(b)))))


def test_elem_construction_needs_singleton_name():
    out = rx("(elem x (empty))", {"x": vset(a, b)})
    assert not out.is_defined
    assert out.reason == "construct-name-not-singleton"


def test_text_constructor():
    out = rx("(text x)", {"x": vset(a, b)})
    concat = DEFAULT_ORACLES.concat(vset(a, b))
    assert out == Defined(vset(DataNode(concat)))


def test_for_binds_singletons_and_filters_by_kind():
    env = {"R": vset(a, DataNode(b), ElemNode(c, EMPTY_SET))}
    out = rx("(for x (kind-atom) R x)", env)
    assert out == Defined(vset(a))
    out = rx("(for x (kind-elem) R (name x))", env)
    assert out == Defined(vset(c))


def test_seq_is_union():
    assert rx("(seq x y)", {"x": vset(a), "y": vset(a, b)}) == \
        Defined(vset(a, b))


def test_ifeq_needs_singleton_atoms():
    assert rx("(ifeq x y x y)", {"x": vset(a), "y": vset(a)}) == \
        Defined(vset(a))
    out = rx("(ifeq x y x y)", {"x": vset(a, b), "y": vset(a)})
    assert not out.is_defined and out.reason == "eq-not-singleton-atom"


def test_ifeq_compares_data_extraction():
    # A data node and its content atom are equal under data().
    assert rx("(ifeq x y (lit t) (lit f))",
              {"x": vset(DataNode(a)), "y": vset(a)}) == Defined(vset(Atom("t")))


def test_ifempty():
    assert rx("(ifempty x (lit t) (lit f))", {"x": EMPTY_SET}) == \
        Defined(vset(Atom("t")))
    assert rx("(ifempty x (lit t) (lit f))", {"x": vset(a)}) == \
        Defined(vset(Atom("f")))


def test_iftype():
    env = {"x": vset(DataNode(a))}
    assert rx("(iftype x (coll (data)) (lit t) (lit f))", env) == \
        Defined(vset(Atom("t")))
    assert rx("(iftype x (coll (elem)) (lit t) (lit f))", env) == \
        Defined(vset(Atom("f")))


def test_children_undefined_on_atom():
    out = rx("(children x)", {"x": vset(a)})
    assert not out.is_defined and out.reason == "children-saw-atom"


NODE = ElemNode(a, vset(DataNode(b), ElemNode(c, EMPTY_SET)))
# The one-element sets that children and a name guard read without
# building sets, and the inputs that take the general path.  Each
# outcome is a value or (reason, the failing form).
FAST_PATH_CASES = [
    ("(children x)", vset(NODE), NODE.children),
    ("(children x)", vset(DataNode(a)), EMPTY_SET),
    ("(children x)", vset(a), ("children-saw-atom", "(children x)")),
    ("(children x)", vset(a, NODE), ("children-saw-atom", "(children x)")),
    ("(ifeq (name x) (lit a) (lit t) (lit f))", vset(NODE), vset(Atom("t"))),
    ("(ifeq (name x) (lit b) (lit t) (lit f))", vset(NODE), vset(Atom("f"))),
    ("(ifeq (name x) (lit a) (lit t) (lit f))", vset(NODE, DataNode(a)),
     ("name-not-singleton-elem", "(name x)")),
    ("(ifeq (name x) (lit a) (lit t) (lit f))", vset(DataNode(a)),
     ("name-not-singleton-elem", "(name x)")),
    ("(ifeq (name x) (lit a) (lit t) (lit f))", EMPTY_SET, vset(Atom("f"))),
]


@pytest.mark.parametrize("oracles", [DEFAULT_ORACLES, ALT_ORACLES],
                         ids=lambda o: o.name)
@pytest.mark.parametrize("src, x, want", FAST_PATH_CASES)
def test_children_and_name_guard_keep_values_and_failing_forms(
        oracles, src, x, want):
    out = rx(src, {"x": x}, oracles)
    got = (out.value if out.is_defined
           else (out.reason, print_expr(out.expr)))
    assert got == want


@pytest.mark.parametrize("oracles", [DEFAULT_ORACLES, ALT_ORACLES],
                         ids=lambda o: o.name)
def test_name_guard_on_empty_set_compares_concat_of_nothing(oracles):
    nothing = oracles.concat(EMPTY_SET).token
    for token, want in [(nothing, "t"), ("a", "f")]:
        out = rx(f"(ifeq (name x) (lit {token}) (lit t) (lit f))",
                 {"x": EMPTY_SET}, oracles)
        assert out == Defined(vset(Atom(want)))


def test_branch_not_taken_never_fails():
    # The undefined branch is not evaluated.
    out = rx("(ifempty x (children y) (lit ok))", {"x": vset(a),
                                                   "y": vset(a)})
    assert out == Defined(vset(Atom("ok")))


def test_undefined_carries_failing_subexpression():
    out = rx("(seq (children x) (empty))", {"x": vset(a)})
    assert not out.is_defined
    assert out.expr == parse("(children x)", "rx")


def test_results_are_rx_values():
    out = rx("(seq (elem (lit n) (lit d)) (lit a))", {})
    assert out.is_defined and is_rx_value(out.value)


def test_determinism():
    env = {"x": vset(ElemNode(a, vset(DataNode(b))))}
    assert rx("(data x)", env) == rx("(data x)", env)


def test_oracle_suites_differ_observably():
    env = {"x": vset(ElemNode(a, EMPTY_SET))}
    d = rx("(data x)", env, DEFAULT_ORACLES)
    alt = rx("(data x)", env, ALT_ORACLES)
    assert d != alt
    assert set(ORACLE_SUITES) == {"default", "alt"}


# --- pure evaluation -------------------------------------------------------


def test_pure_atom_literal_is_bare():
    assert prx("(lit a)", {}) == Defined(a)


def test_pure_name_on_element():
    assert prx("(name x)", {"x": ElemNode(a, EMPTY_SET)}) == Defined(a)


def test_pure_name_not_elem():
    out = prx("(name x)", {"x": a})
    assert not out.is_defined and out.reason == "name-not-elem"


def test_pure_singleton_of_item():
    assert prx("(sing x)", {"x": a}) == Defined(vset(a))


def test_pure_singleton_of_set_undefined():
    out = prx("(sing x)", {"x": EMPTY_SET})
    assert not out.is_defined and out.reason == "singleton-of-nonitem"


def test_pure_text():
    assert prx("(text x)", {"x": a}) == Defined(DataNode(a))
    out = prx("(text x)", {"x": vset(a)})
    assert not out.is_defined and out.reason == "text-on-nonatom"


def test_pure_seq_needs_sets():
    assert prx("(seq x y)", {"x": vset(a), "y": vset(b)}) == \
        Defined(vset(a, b))
    out = prx("(seq x y)", {"x": a, "y": vset(b)})
    assert not out.is_defined and out.reason == "seq-operand-not-set"


def test_pure_for_binds_bare_items():
    env = {"R": vset(a, b)}
    out = prx("(for x (kind-atom) R (sing x))", env)
    assert out == Defined(vset(a, b))


def test_pure_for_source_must_be_set():
    out = prx("(for x (kind-atom) R (sing x))", {"R": a})
    assert not out.is_defined and out.reason == "iteration-over-nonset"


def test_pure_for_body_must_be_set():
    out = prx("(for x (kind-atom) R x)", {"R": vset(a)})
    assert not out.is_defined and out.reason == "for-body-not-set"


def test_pure_ifeq_on_atoms_only():
    assert prx("(ifeq x y (sing x) (empty))", {"x": a, "y": a}) == \
        Defined(vset(a))
    out = prx("(ifeq x y x y)", {"x": vset(a), "y": vset(a)})
    assert not out.is_defined and out.reason == "eq-on-nonatom"


def test_pure_elem_content_must_be_set():
    out = prx("(elem x y)", {"x": a, "y": b})
    assert not out.is_defined
    assert prx("(elem x y)", {"x": a, "y": vset(b)}) == \
        Defined(ElemNode(a, vset(DataNode(b))))


def test_pure_data_drops_element_nodes():
    env = {"x": vset(a, DataNode(b), ElemNode(c, EMPTY_SET))}
    assert prx("(data x)", env) == Defined(vset(a, b))


def test_pure_results_are_pure_values():
    for src, env in [("(sing (lit a))", {}), ("(lit a)", {}),
                     ("(children x)", {"x": vset(ElemNode(a, EMPTY_SET))})]:
        out = prx(src, env)
        assert out.is_defined and is_pure_rx_value(out.value)


def test_pure_kind_filter_respected():
    env = {"R": vset(a, DataNode(b))}
    out = prx("(for x (kind-data) R (sing x))", env)
    assert out == Defined(vset(DataNode(b)))


# --- compiled RA: guards tested in the loop that binds their operands -------

RA_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}
RA_DBS = [
    {"R": set(), "S": {("1", "2")}},
    {"R": {("1", "2")}, "S": {("2", "1")}},
    {"R": {("1", "2"), ("2", "2")}, "S": {("2", "1"), ("1", "1")}},
    {"R": {("1", "1"), ("1", "2"), ("2", "1")}, "S": {("3", "3")}},
]
# The difference of 4-attribute products binds 8 attributes per pair of
# tuples; the second query's difference is not empty.
DIFFERENCES = [
    "(diff (product (rel R) (rel S)) (product (rel R) (rel S)))",
    "(diff (product (rel R) (rel S)) (product (select A B (rel R)) (rel S)))",
]


@pytest.mark.parametrize("src", DIFFERENCES)
def test_difference_of_products_agrees_with_eval_ra(src):
    q = parse(src, "ra")
    expr, _gamma = compile_ra(q, RA_SCHEMA)
    for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
        run = compile_rx(expr, oracles)
        for db in RA_DBS:
            out = run(encode_db(db, RA_SCHEMA))
            assert out.is_defined
            assert decode_relation(out.value, ("A", "B", "C", "D")) == \
                eval_ra(q, db, RA_SCHEMA), (src, db)


def test_difference_of_products_tests_names_outside_inner_loops(monkeypatch):
    """With every conjunct tested in the innermost body, each pair of
    tuples ran it 4^8 times: 1,398,260 name tests on this database.
    Each conjunct is now tested once per binding of its operand."""
    calls, name_is = [0], nrcx.rx._name_is

    def counted(*args):
        test = name_is(*args)

        def run(r):
            calls[0] += 1
            return test(r)
        return run
    monkeypatch.setattr(nrcx.rx, "_name_is", counted)
    expr, _gamma = compile_ra(parse(DIFFERENCES[0], "ra"), RA_SCHEMA)
    out = eval_rx(expr, encode_db(RA_DBS[2], RA_SCHEMA))
    assert out == Defined(EMPTY_SET)
    assert calls[0] <= 2000


# --- compiled set-based for: the loop each source is evaluated in ---------

ELEMS = vset(ElemNode(a, vset(DataNode(a))), ElemNode(b, vset(DataNode(b))))
ATOMS = vset(a, b, c)


@pytest.mark.parametrize("src, runs", [
    # (children x) names only the outer loop's variable: once per x.
    ("(for x (kind-elem) R (for y (kind-atom) S "
     "(for z (kind-data) (children x) (seq y z))))", 2),
    # (children T) names no loop variable: once per run of the outer loop.
    ("(for x (kind-elem) R (for y (kind-atom) S "
     "(for z (kind-data) (children T) (seq y z))))", 1),
    # The inner x shadows the outer one: once per binding of the inner x,
    # not once per outer x, nor once per y.
    ("(for x (kind-elem) R (for x (kind-elem) T (for y (kind-atom) S "
     "(for z (kind-data) (children x) (seq y z)))))", 4),
])
def test_loop_invariant_source_runs_once_per_binding_it_reads(
        monkeypatch, src, runs):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return rx_children(*args)
    monkeypatch.setattr(nrcx.rx, "rx_children", counted)
    out = rx(src, {"R": ELEMS, "S": ATOMS, "T": ELEMS})
    assert out == Defined(vset(a, b, c, DataNode(a), DataNode(b)))
    assert calls[0] == runs


@pytest.mark.parametrize("src, calls", [(DIFFERENCES[0], 60),
                                        (DIFFERENCES[1], 66)])
def test_compiling_walks_few_nodes_for_free_variables(monkeypatch, src,
                                                      calls):
    """The for builder takes the loop a source depends on from the
    binders its closure reads, so only the name test of _movable walks
    the tree for free variables: the operands of the guards and the
    sources it would move.  Walking every loop source costs about one
    call per node."""
    expr, _gamma = compile_ra(parse(src, "ra"), RA_SCHEMA)
    nodes, stack = set(), [desugar(expr)]
    while stack:
        e = stack.pop()
        nodes.add(id(e))
        stack.extend(nrcx.frontend._children(e))
    counted, walk = [0], nrcx.frontend.free_vars

    def free_vars(*args):
        counted[0] += 1
        return walk(*args)
    monkeypatch.setattr(nrcx.frontend, "free_vars", free_vars)
    monkeypatch.setattr(nrcx.rx, "free_vars", free_vars)
    compile_rx(expr)
    assert counted[0] == calls < len(nodes) // 3


@pytest.mark.parametrize("lang, src, kinds", [
    # A compiled RA query puts kind-any on every for, and reads back the
    # one shared term from its printed text.
    ("rx", DIFFERENCES[0], 1),
    ("rx", "(for x (kind-elem) R (for y (kind-any) (children x) "
           "(for z (kind-elem) S (seq y z))))", 2),
    ("pure-rx", "(for x (kind-elem) R (for y (kind-data) (children x) "
                "(for z (kind-elem) S (sing y))))", 2),
    ("penrc", "(for x R (ifkind x (kind-atom) (sing x) "
              "(ifkind x (kind-any) (empty) (empty))))", 2),
])
def test_kind_filter_worked_out_once_per_kind(monkeypatch, lang, src, kinds):
    """The compiler works out each kind's filter once per compile, not
    once per loop or kind test."""
    from nrcx.penrc import compile_penrc
    from nrcx.rx import compile_pure_rx
    if src.startswith("(diff"):
        compiled, _gamma = compile_ra(parse(src, "ra"), RA_SCHEMA)
        exprs = [compiled, parse(print_expr(compiled), "rx")]
    else:
        exprs = [parse(src, lang)]
    compile_ = {"rx": compile_rx, "pure-rx": compile_pure_rx,
                "penrc": compile_penrc}[lang]
    calls, walk = [], nrcx.rx.kind_filter

    def kind_filter(k):
        calls.append(k)
        return walk(k)
    monkeypatch.setattr(nrcx.rx, "kind_filter", kind_filter)
    for expr in exprs:
        calls.clear()
        compile_(expr)
        compile_(expr)
        assert len(calls) == 2 * kinds
        assert len(set(map(id, calls))) == kinds
