import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nrcx import frontend, sexpr
from nrcx.sexpr import ParseError
from nrcx.frontend import (AtomLit, CAnd, CEq, CNot, COr, ChildrenF, CondIf,
                           Elem, EmptySeq, FD, For, IND, IfEmpty, IfEq,
                           MultiFor, NComp, NFlatten, NKindCond, NPair,
                           NProj1, NProj2, NUnion, NameF, Project, Relation,
                           Select, Seq, Sing, Var, desugar, free_vars, literals, parse, parse_kind,
                           parse_type, print_expr, print_kind, print_type,
                           printed_length)
from nrcx.typeterms import (AtomT, CollT, DataT, ElemT, KAtom, KColl, KData,
                            KElem, KProd, KSum, KIND_ANY, ProdT, SingleT,
                            SumT, VoidT)
from nrcx.values import Atom, vset

from oracles import to_sexpr, write_sexpr


# --- s-expressions ---------------------------------------------------------


def test_sexpr_round_trip():
    text = "(a (b c) ( d (e)) f)"
    assert sexpr.write(sexpr.read(text)) == "(a (b c) (d (e)) f)"


def test_sexpr_comments_and_positions():
    assert sexpr.read("(a ; comment\n b)") == ["a", "b"]
    with pytest.raises(ParseError) as err:
        sexpr.read("(a\n  (b")
    assert err.value.line == 2


def test_sexpr_trailing_input_rejected():
    with pytest.raises(ParseError):
        sexpr.read("(a) (b)")
    assert sexpr.read_all("(a) (b)") == [["a"], ["b"]]


def test_sexpr_unbalanced():
    with pytest.raises(ParseError):
        sexpr.read(")")
    with pytest.raises(ParseError):
        sexpr.read("(")


# (function, text, str(ParseError), line, col).  A ";" comment does not
# advance the column, so an end of text inside one is placed where it
# starts; only LF starts a line; tab and CR are one column each.
READER_ERRORS = [
    ("read", ")", "1:0: unexpected ')'", 1, 0),
    ("read", "(a))", "1:3: trailing input ')'", 1, 3),
    ("read_all", "(a) )", "1:4: unexpected ')'", 1, 4),
    ("read_all", ")", "1:0: unexpected ')'", 1, 0),
    ("read_all", "(a) ; x\n )", "2:1: unexpected ')'", 2, 1),
    ("read", "(a (b", "1:5: unclosed '('", 1, 5),
    ("read", "((a)", "1:4: unclosed '('", 1, 4),
    ("read", "(a (b ; comment", "1:6: unclosed '('", 1, 6),
    ("read", "(a\n  (b ; c", "2:5: unclosed '('", 2, 5),
    ("read", "(a ; c\n", "2:0: unclosed '('", 2, 0),
    ("read_all", "(a) (b", "1:6: unclosed '('", 1, 6),
    ("read", "(a) b", "1:4: trailing input 'b'", 1, 4),
    ("read", "a (", "1:2: trailing input '('", 1, 2),
    ("read", "(a)\n\n)", "3:0: trailing input ')'", 3, 0),
    ("read", "(a b) ; c\n d", "2:1: trailing input 'd'", 2, 1),
    ("read", "", "1:0: unexpected end of input", 1, 0),
    ("read", "  \n ", "2:1: unexpected end of input", 2, 1),
    ("read", "; only a comment", "1:0: unexpected end of input", 1, 0),
    ("read", "; c\n", "2:0: unexpected end of input", 2, 0),
    ("read", "\t(a)\t)", "1:5: trailing input ')'", 1, 5),
    ("read", "(a\r\n b))", "2:3: trailing input ')'", 2, 3),
    ("read", "(a\r b) c", "1:7: trailing input 'c'", 1, 7),
    ("read", "a\fb c", "1:4: trailing input 'c'", 1, 4),
    ("read", "(é ü\xa0x) y", "1:8: trailing input 'y'", 1, 8),
]


@pytest.mark.parametrize("fn,text,message,line,col", READER_ERRORS)
def test_sexpr_error_positions(fn, text, message, line, col):
    with pytest.raises(ParseError) as err:
        getattr(sexpr, fn)(text)
    assert (str(err.value), err.value.line, err.value.col) == \
        (message, line, col)


def test_sexpr_whitespace_is_space_tab_cr_lf_only():
    assert sexpr.read("(a\fb é ü\xa0x\x0by)") == \
        ["a\fb", "é", "ü\xa0x\x0by"]
    assert sexpr.read_all("") == [] and sexpr.read_all("; c") == []
    assert sexpr.read_all("a ; c\n(b\r\n\tc)") == ["a", ["b", "c"]]


def test_sexpr_reads_any_depth():
    depth = 100_000
    x = sexpr.read("(" * depth + "a" + ")" * depth)
    for _ in range(depth):
        (x,) = x
    assert x == "a"


_SYMBOLS = st.text(st.characters(blacklist_characters=" \t\r\n();"),
                   min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SYMBOLS, lambda kids: st.lists(kids, max_size=4),
                    max_leaves=30))
def test_sexpr_read_write_round_trip(x):
    assert sexpr.read(sexpr.write(x)) == x


def _random_sexpr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return "".join(rng.choice("ab_@-.\"'\\\fé\xa0") for _ in
                       range(rng.randint(1, 3)))
    return [_random_sexpr(rng, depth - 1) for _ in range(rng.randint(0, 4))]


def test_sexpr_write_matches_reference_writer():
    """The same bytes as the part-at-a-time writer on every nested list
    of reader tokens, and the text reads back."""
    rng = random.Random(14)
    cases = [[], [[]], [[], []], ["a", []], [[[]], "b"]]
    cases += [_random_sexpr(rng, 6) for _ in range(3000)]
    for x in cases:
        text = sexpr.write(x)
        assert text == write_sexpr(x), x
        assert sexpr.read(text) == x


def test_sexpr_writes_any_depth():
    depth = 100_000
    for leaf, inner in (("a", "a"), ([], "()")):
        x = leaf
        for _ in range(depth):
            x = [x]
        assert sexpr.write(x) == "(" * depth + inner + ")" * depth


# --- types and kinds -------------------------------------------------------


def test_parse_type_forms():
    assert parse_type(sexpr.read("(atom)")) == AtomT()
    assert parse_type(sexpr.read("(coll (data))")) == CollT(DataT())
    assert parse_type(sexpr.read("(prod (atom) (void))")) == \
        ProdT(AtomT(), VoidT())
    assert parse_type(sexpr.read("(sum (atom) (data) (void))")) == \
        SumT(AtomT(), SumT(DataT(), VoidT()))
    assert parse_type(sexpr.read("(elem)")) == ElemT(VoidT())
    assert parse_type(sexpr.read("(elem (single (data)))")) == \
        ElemT(SingleT(DataT()))
    assert parse_type(sexpr.read("(elem (data) (elem))")) == \
        ElemT(SumT(DataT(), ElemT(VoidT())))


def test_type_round_trip():
    for src in ["(atom)", "(void)", "(coll (coll (atom)))",
                "(prod (atom) (coll (void)))",
                "(elem (coll (sum (data) (elem))))",
                "(single (sum (atom) (data)))"]:
        t = parse_type(sexpr.read(src))
        assert parse_type(print_type(t)) == t


def test_parse_kind_forms():
    assert parse_kind(sexpr.read("(kind-atom)")) == KAtom()
    assert parse_kind(sexpr.read("(kind-any)")) == KIND_ANY
    assert parse_kind(sexpr.read("(kind-sum (kind-atom) (kind-elem))")) == \
        KSum(KAtom(), KElem())
    k = parse_kind(sexpr.read("(kind-prod (kind-atom) (kind-coll))"))
    assert parse_kind(print_kind(k)) == k


# The printed kind-any, which parse_kind reads with one list comparison,
# and kinds near it, which take the general path.  Each is (text, the
# term it parses to, the text print_expr writes for it in a for).
ANY_TEXT = "(kind-sum (kind-atom) (kind-sum (kind-data) (kind-elem)))"
KIND_NEAR_ANY = [
    (ANY_TEXT, KIND_ANY, ANY_TEXT),
    ("(kind-any)", KIND_ANY, ANY_TEXT),
    ("(kind-sum (kind-atom) (kind-data) (kind-elem))", KIND_ANY, ANY_TEXT),
    ("(kind-sum (kind-sum (kind-data) (kind-elem)) (kind-atom))",
     KSum(KSum(KData(), KElem()), KAtom()),
     "(kind-sum (kind-sum (kind-data) (kind-elem)) (kind-atom))"),
    ("(kind-sum (kind-atom) (kind-sum (kind-elem) (kind-data)))",
     KSum(KAtom(), KSum(KElem(), KData())),
     "(kind-sum (kind-atom) (kind-sum (kind-elem) (kind-data)))"),
    ("(kind-sum (kind-data) (kind-sum (kind-atom) (kind-elem)))",
     KSum(KData(), KSum(KAtom(), KElem())),
     "(kind-sum (kind-data) (kind-sum (kind-atom) (kind-elem)))"),
]


@pytest.mark.parametrize("text, term, printed", KIND_NEAR_ANY)
def test_kind_any_and_its_near_misses(text, term, printed):
    k = parse_kind(sexpr.read(text))
    assert k == term and type(k) is KSum
    e = parse(f"(for x {text} R x)", "rx")
    assert e.kind == term
    assert print_expr(e) == f"(for x {printed} R x)" == \
        sexpr.write(to_sexpr(e))


def test_printed_kind_any_parses_to_the_shared_term():
    assert parse_kind(sexpr.read(ANY_TEXT)) is KIND_ANY
    e = parse(f"(for x {ANY_TEXT} R (for y {ANY_TEXT} x y))", "rx")
    assert e.kind is e.body.kind is KIND_ANY


@pytest.mark.parametrize("text, message", [
    ("(kind-sum (kind-atom) (kind-sum (kind-data)))",
     "malformed kind form '(kind-sum (kind-data))'"),
    ("(kind-sum (kind-atom) (kind-sum (kind-data) (kind-elem)) x)",
     "expected a kind, got symbol 'x'"),
    ("(kind-sum (kind-atom) (kind-sum (kind-data) (kind-elem ())))",
     "malformed kind form '(kind-elem ())'"),
])
def test_malformed_sums_near_kind_any_rejected(text, message):
    with pytest.raises(ParseError) as err:
        parse_kind(sexpr.read(text))
    assert str(err.value) == message


def test_type_and_kind_tables_share_each_nullary_term():
    from nrcx.typeterms import PAPER_DATA_T, DataEncT
    for table, read in ((frontend.TYPE_FORMS, parse_type),
                        (frontend.KIND_FORMS, parse_kind)):
        for head, cls in table.items():
            if not cls._fields:
                assert read([head]) is read([head]) == cls()
    assert parse_type(["elem"]) is parse_type(["elem"]) == ElemT(VoidT())
    assert print_type(ElemT(VoidT())) == ["elem"]
    assert print_type(DataEncT()) == print_type(PAPER_DATA_T)
    with pytest.raises(TypeError, match="not a type term: KAtom"):
        print_type(KAtom())
    with pytest.raises(TypeError, match="not a kind term: AtomT"):
        print_kind(AtomT())


def test_malformed_types_rejected():
    for src in ["atom", "()", "(coll)", "(prod (atom))", "(sum (atom))",
                "(wibble)"]:
        with pytest.raises(ParseError):
            parse_type(sexpr.read(src))


# --- expression parsing ----------------------------------------------------


def test_parse_penrc_basic():
    assert parse("(fst (pair x y))", "penrc") == \
        NProj1(NPair(Var("x"), Var("y")))


def test_parse_penrc_nested_loop_body():
    got = parse("(for y x (ifeq z y (fst z) y))", "penrc")
    assert got == NComp("y", Var("x"),
                        IfEq(Var("z"), Var("y"),
                                NProj1(Var("z")), Var("y")))


def test_parse_pure_rx_children():
    assert parse("(children x)", "pure-rx") == ChildrenF(Var("x"))


def test_sing_is_pure_only():
    parse("(sing x)", "pure-rx")
    with pytest.raises(ParseError):
        parse("(sing x)", "rx")


def test_seq_folds_right():
    got = parse("(seq x y z)", "rx")
    assert got == Seq(Var("x"), Seq(Var("y"), Var("z")))


def test_parse_ra():
    got = parse("(project (A) (select A B (rel R)))", "ra")
    assert got == Project(("A",), Select("A", "B", Relation("R")))


def test_parse_deps():
    assert parse("(fd (A B) (C))", "deps") == FD(("A", "B"), ("C",))
    assert parse("(ind (A) (B))", "deps") == IND(("A",), ("B",))
    with pytest.raises(ValueError):
        parse("(ind (A B) (C))", "deps")


def test_unknown_language():
    with pytest.raises(ValueError):
        parse("x", "xquery")


# --- free variables and literals -------------------------------------------


def test_free_vars_binding():
    assert free_vars(parse("x", "penrc")) == {"x"}
    assert free_vars(parse("(for x R x)", "penrc")) == {"R"}
    e = parse("(for x (kind-any) R (for y (kind-any) x (sing y)))", "pure-rx")
    assert free_vars(e) == {"R"}


def test_free_vars_of_nested_comprehension():
    e = parse("(for x R (for y x (ifeq z y (fst z) (sing y))))", "penrc")
    assert free_vars(e) == {"R", "z"}


def test_multifor_scoping_is_sequential():
    e = parse("(for* ((x R) (y x)) (kind-any) y)", "rx")
    assert free_vars(e) == {"R"}
    e2 = parse("(for* ((x y) (y R)) (kind-any) y)", "rx")
    assert free_vars(e2) == {"y", "R"}


def test_literals_collected():
    e = parse("(seq (lit a) (elem (lit n) (empty)))", "rx")
    assert literals(e) == {Atom("a"), Atom("n")}


# --- desugaring ------------------------------------------------------------


def test_desugar_multifor():
    e = MultiFor((("x", Var("R")), ("y", Var("S"))), KIND_ANY, Var("x"))
    assert desugar(e) == For("x", KIND_ANY, Var("R"),
                             For("y", KIND_ANY, Var("S"), Var("x")))


def test_desugar_and_shape():
    e = CondIf(CAnd(
        CEq(Var("a"), Var("b")), CEq(Var("c"), Var("d"))),
        Var("p"), Var("q"))
    got = desugar(e)
    assert got == IfEq(Var("a"), Var("b"),
                       IfEq(Var("c"), Var("d"), Var("p"), Var("q")),
                       Var("q"))


def test_desugar_identity_on_core():
    e = parse("(ifeq x y (empty) (children x))", "rx")
    assert desugar(e) is e


def test_desugar_shares_core_subtrees():
    e = parse("(seq (children x) (for y (kind-elem) x "
              "(cond (eq y (lit a)) (name y) (empty))))", "rx")
    got = desugar(e)
    cond = e.right.body
    assert got.left is e.left and got.right.source is e.right.source
    assert got.right.body == IfEq(Var("y"), AtomLit(Atom("a")),
                                  cond.then, cond.els)
    assert got.right.body.then is cond.then
    assert got.right.body.els is cond.els


def test_desugar_agrees_with_direct_evaluation():
    from nrcx.rx import eval_rx
    src = ("(for* ((t1 R) (t2 R)) (kind-any) "
           "(cond (and (eq (name t1) (lit n)) (not (eq t1 t2))) t1 (empty)))")
    e = parse(src, "rx")
    from nrcx.values import ElemNode, VSet, DataNode
    n_x = ElemNode(Atom("n"), vset(DataNode(Atom("x"))))
    # Each environment with the outcome that the direct evaluation of
    # the sugar gave: a value, or (reason, failing subexpression).
    cases = [
        ({"R": vset(ElemNode(Atom("n"), VSet()),
                    ElemNode(Atom("m"), VSet()))}, VSet()),
        ({"R": vset(n_x)}, VSet()),
        ({"R": VSet()}, VSet()),
        ({"R": vset(n_x, ElemNode(Atom("m"), VSet()))}, vset(n_x)),
        ({"R": vset(Atom("a"))}, ("name-not-singleton-elem", "(name t1)")),
    ]
    for env, want in cases:
        for form in (e, desugar(e)):
            out = eval_rx(form, env)
            got = (out.value if out.is_defined
                   else (out.reason, print_expr(out.expr)))
            assert got == want, (env, print_expr(form))


# --- printing round trips --------------------------------------------------


CORE_SAMPLES = {
    "rx": ["x", "(lit a)", "(empty)", "(seq x y)", "(text x)",
           "(elem (lit n) (children x))", "(data x)", "(name x)",
           "(for x (kind-elem) y (seq x x))",
           "(ifeq x y (empty) x)", "(ifempty x y (empty))",
           "(iftype x (coll (data)) y x)",
           "(for* ((x R) (y S)) (kind-any) x)",
           "(cond (or (eq x y) (not (eq x (lit a)))) x y)"],
    "pure-rx": ["(sing x)", "(for x (kind-data) y (sing x))"],
    "penrc": ["x", "(lit a)", "(pair x y)", "(fst x)", "(snd x)", "(empty)",
              "(sing x)", "(union x y)", "(flatten x)", "(for x R (sing x))",
              "(ifeq x y x y)", "(ifkind x (kind-atom) x y)",
              "(ifempty x y x)"],
    "ra": ["(rel R)", "(select A B (rel R))", "(project (A B) (rel R))",
           "(product (rel R) (rel S))", "(rename A B (rel R))",
           "(ra-union (rel R) (rel S))", "(diff (rel R) (rel S))"],
    "deps": ["(fd (A) (B C))", "(ind (A B) (C D))"],
}


def test_parse_print_round_trip_samples():
    for lang, samples in CORE_SAMPLES.items():
        for src in samples:
            ast = parse(src, lang)
            assert parse(print_expr(ast), lang) == ast, (lang, src)


def _random_penrc(rng, depth, vars_):
    if depth == 0:
        return rng.choice([Var(rng.choice(vars_)),
                           AtomLit(Atom(rng.choice("ab"))),
                           EmptySeq()])
    sub = lambda: _random_penrc(rng, depth - 1, vars_)  # noqa: E731
    choice = rng.randrange(8)
    if choice == 0:
        return NPair(sub(), sub())
    if choice == 1:
        return rng.choice([NProj1, NProj2, Sing, NFlatten])(sub())
    if choice == 2:
        return NUnion(sub(), sub())
    if choice == 3:
        return NComp("v", sub(), _random_penrc(rng, depth - 1,
                                               vars_ + ["v"]))
    if choice == 4:
        return IfEq(sub(), sub(), sub(), sub())
    if choice == 5:
        return NKindCond(sub(), KSum(KAtom(), KElem()), sub(), sub())
    if choice == 6:
        return IfEmpty(sub(), sub(), sub())
    return sub()


def test_random_ast_round_trip():
    rng = random.Random(20240824)
    for _ in range(200):
        ast = _random_penrc(rng, rng.randrange(1, 6), ["x", "y"])
        assert parse(print_expr(ast), "penrc") == ast


# Sample arguments of each shape of the form tables, by language of the
# row's expressions.
_COND_SAMPLES = [
    CEq(Var("x"), AtomLit(Atom("a"))),
    CAnd(CEq(Var("x"), Var("y")), CNot(CEq(Var("y"), AtomLit(Atom("b"))))),
    COr(CAnd(CEq(Var("x"), Var("y")), CEq(Var("y"), Var("z"))),
        CNot(COr(CEq(Var("z"), Var("x")), CEq(Var("x"), Var("x"))))),
]
_LEAF_SAMPLES = {
    frontend.VAR: ["x", "y2", "t"],
    frontend.ATOM: [Atom("a"), Atom("@t"), Atom("a")],
    frontend.REL: ["R", "S", "R"],
    frontend.ATTR: ["A", "B", "A"],
    frontend.ATTRS: [(), ("A",), ("A", "B")],
    frontend.KIND: [KIND_ANY, KAtom(), KProd(KSum(KData(), KElem()), KColl())],
    frontend.TYPE: [ElemT(VoidT()), CollT(SumT(DataT(), ElemT(VoidT()))),
                    ProdT(SingleT(AtomT()), ElemT(CollT(DataT())))],
    frontend.COND: _COND_SAMPLES,
    frontend.BINDINGS: [(), (("x", Var("R")),),
                        (("x", Var("R")), ("y", ChildrenF(Var("x"))))],
}
_EXPR_SAMPLES = {
    "rx": [Var("x"), EmptySeq(), ChildrenF(NameF(Var("y")))],
    "pure-rx": [Var("x"), EmptySeq(), Sing(Var("y"))],
    "penrc": [Var("x"), EmptySeq(), Sing(NPair(Var("x"), Var("y")))],
    "ra": [Relation("R"), Project((), Relation("S")),
           Select("A", "B", Relation("R"))],
}
_TABLES = [(frontend.RX_FORMS, "rx"), (frontend.COND_FORMS, "rx"),
           (frontend.PENRC_FORMS, "penrc"), (frontend.RA_FORMS, "ra")]


def _row_samples():
    """Three nodes of every row of every form table, with the language
    that reads them (None for a condition, which is read inside cond)."""
    for table, lang in _TABLES:
        for head, cls, *shapes in table:
            row_lang = "pure-rx" if head == "sing" and lang == "rx" else lang
            for i in range(3):
                args = [_EXPR_SAMPLES[row_lang][i] if shape is frontend.EXPR
                        else _LEAF_SAMPLES[shape][i] for shape in shapes]
                yield (None if table is frontend.COND_FORMS else row_lang,
                       cls(*args))


def test_printer_matches_reference_on_every_row():
    rows = set()
    for lang, e in _row_samples():
        rows.add(type(e))
        text = print_expr(e)
        assert text == sexpr.write(to_sexpr(e)), e
        if lang is not None:
            assert parse(text, lang) == e, text
    assert len(rows) == len(frontend._BY_CLASS)


def test_penrc_rows_shared_with_rx_are_the_rx_rows():
    # Besides variables, the nested calculus shares five forms with RX:
    # one class each, with one head and the same argument shapes.
    rx = {row[1]: row for row in frontend.RX_FORMS}
    shared = [row for row in frontend.PENRC_FORMS if row[1] in rx]
    assert [row[1] for row in shared] == [AtomLit, EmptySeq, Sing, IfEq,
                                          IfEmpty]
    assert all(row == rx[row[1]] for row in shared)
    assert parse("x", "penrc") == parse("x", "rx") == Var("x")


def test_printer_writes_dependencies_as_reference():
    for dep, text in [(FD(("A",), ("B", "C")), "(fd (A) (B C))"),
                      (IND(("A", "B"), ("C", "D")), "(ind (A B) (C D))"),
                      (FD((), ()), "(fd () ())")]:
        assert print_expr(dep) == text == sexpr.write(to_sexpr(dep))
        assert parse(text, "deps") == dep


def test_printer_writes_each_shared_node_once(monkeypatch):
    """The pure-RX translation shares subtrees: each distinct node is
    written once per call, and the text is the reference's."""
    from nrcx.translate import translate_expr
    e = translate_expr(parse(
        "(for x (kind-any) (children y) (ifeq (name x) (lit a) "
        "(sing (elem (lit b) (children x))) (sing x)))", "pure-rx"))
    for _ in range(4):
        e = NUnion(e, NPair(e, Sing(e)))
    nodes, stack = {}, [e]  # id -> node, every distinct node once
    while stack:
        n = stack.pop()
        if id(n) not in nodes:
            nodes[id(n)] = n
            stack.extend(frontend._children(n))
    sizes = {}  # id -> the number of nodes of the subtree, as a tree

    def size(n):
        if id(n) not in sizes:
            sizes[id(n)] = 1 + sum(map(size, frontend._children(n)))
        return sizes[id(n)]
    assert size(e) > 50 * len(nodes)
    calls = []  # the id of the node of each call of a row's writer

    def counted(write):
        def write_counted(e, texts, leaf):
            calls.append(id(e))
            return write(e, texts, leaf)
        return write_counted
    for cls, form in frontend._BY_CLASS.items():
        monkeypatch.setitem(frontend._WRITERS, cls,
                            counted(frontend._writer(form)))
    text = print_expr(e)
    # Each distinct node's text is built once, so its writer is called
    # once per edge from a distinct parent (and once for the root).
    compound = [n for n in nodes.values() if type(n) is not Var]
    assert sorted(set(calls)) == sorted(map(id, compound))
    assert len(calls) == 1 + sum(type(c) is not Var for n in compound
                                 for c in frontend._children(n))
    assert text == sexpr.write(to_sexpr(e))


def test_printer_writes_a_deep_chain():
    text = "(text " * 400 + "(empty)" + ")" * 400
    e = parse(text, "rx")
    assert print_expr(e) == text == sexpr.write(to_sexpr(e))


def test_print_expr_rejects_non_expressions():
    for bad in (42, For("x", KIND_ANY, Var("R"), 42),
                MultiFor((("x", 42),), KIND_ANY, Var("x"))):
        with pytest.raises(TypeError, match="not an expression: 42"):
            print_expr(bad)
        with pytest.raises(TypeError, match="not an expression: 42"):
            printed_length(bad)
        with pytest.raises(TypeError, match="not an expression: 42"):
            to_sexpr(bad)


def test_printed_length_is_the_length_of_the_text():
    from nrcx.translate import compile_ra, translate_expr
    from test_acceptance import RA_SCHEMA, _ra_exprs
    shared = translate_expr(parse("(for x (kind-any) (children y) "
                                  "(sing (elem (lit b) (children x))))",
                                  "pure-rx"))
    exprs = [e for _, e in _row_samples()]
    exprs += [FD(("A",), ("B", "C")), IND((), ()), Var("xyz"),
              NUnion(shared, NPair(shared, Sing(shared))),
              parse("(text " * 400 + "(empty)" + ")" * 400, "rx")]
    exprs += [compile_ra(q, RA_SCHEMA)[0] for q in _ra_exprs(2)[::20]]
    for e in exprs:
        assert printed_length(e) == len(print_expr(e)), e


def test_printed_length_counts_each_shared_node_once(monkeypatch):
    from nrcx.translate import translate_expr

    def sings(depth):
        text = "(sing " * depth + "(empty)" + ")" * depth
        return translate_expr(parse(text, "pure-rx"))

    class Rows(dict):  # counts the row lookups, one per compound node
        looked_up = 0

        def get(self, cls):
            Rows.looked_up += 1
            return super().get(cls)
    e = sings(12)
    assert len(print_expr(e)) == 687967
    nodes, stack = set(), [e]
    while stack:
        n = stack.pop()
        if id(n) not in nodes and type(n) is not Var:
            nodes.add(id(n))
            stack.extend(frontend._children(n))
    monkeypatch.setattr(frontend, "_BY_CLASS", Rows(frontend._BY_CLASS))
    assert printed_length(e) == 687967
    assert Rows.looked_up == len(nodes)
    # At depth 40 the text would be about 185 TB long.
    assert printed_length(sings(40)) == 184717953466207


# --- error messages and compiled-RA round trips ----------------------------


PARSE_ERRORS = [
    # rx and pure rx
    ("rx", "(text)", "form 'text' takes 1 argument(s), got 0"),
    ("rx", "(elem x)", "form 'elem' takes 2 argument(s), got 1"),
    ("rx", "(empty x)", "form 'empty' takes 0 argument(s), got 1"),
    ("rx", "(for x (kind-any) y)", "form 'for' takes 4 argument(s), got 3"),
    ("rx", "(wibble x)", "unknown form 'wibble'"),
    ("rx", "(pair x y)", "unknown form 'pair'"),
    ("rx", "(for (x) (kind-any) y y)", "expected a variable, got '(x)'"),
    ("rx", "(lit (a))", "expected an atom token, got '(a)'"),
    ("rx", "(for x kind-any y y)", "expected a kind, got symbol 'kind-any'"),
    ("rx", "(iftype x (wibble) y y)", "malformed type form '(wibble)'"),
    ("rx", "(iftype (lit (a)) (wibble) y y)",
     "expected an atom token, got '(a)'"),
    ("rx", "(seq x)", "seq takes at least 2 arguments"),
    ("rx", "(seq (text) (sing x))", "form 'text' takes 1 argument(s), got 0"),
    ("rx", "(sing x)", "singleton constructor is pure RX only"),
    ("rx", "(sing)", "singleton constructor is pure RX only"),
    ("rx", "(for* x (kind-any) y)", "for* bindings must be a list"),
    ("rx", "(for* (x) (kind-any) y)", "for* binding must be (var source)"),
    ("rx", "(for* ((x)) (kind-any) y)", "for* binding must be (var source)"),
    ("rx", "(for* (((x) R)) (kind-any) y)", "expected a variable, got '(x)'"),
    ("rx", "(for* ((x R)) y)", "form 'for*' takes 3 argument(s), got 2"),
    ("rx", "(cond x y z)", "malformed condition 'x'"),
    ("rx", "(cond () y z)", "malformed condition '()'"),
    ("rx", "(cond (xor x y) y z)", "unknown condition form 'xor'"),
    ("rx", "(cond ((a) x) y z)", "malformed condition '((a) x)'"),
    ("rx", "(cond (and (eq x y)) y z)", "and takes at least 2 conditions"),
    ("rx", "(cond (not) y z)", "form 'not' takes 1 argument(s), got 0"),
    ("rx", "(cond (eq x) y z)", "form 'eq' takes 2 argument(s), got 1"),
    ("rx", "()", "empty expression form"),
    ("rx", "((a) x)", "malformed form '((a) x)'"),
    ("pure-rx", "(sing)", "form 'sing' takes 1 argument(s), got 0"),
    ("pure-rx", "(sing (lit (a)))", "expected an atom token, got '(a)'"),
    ("pure-rx", "(wibble)", "unknown form 'wibble'"),
    ("pure-rx", "()", "empty expression form"),
    # penrc
    ("penrc", "(pair x)", "form 'pair' takes 2 argument(s), got 1"),
    ("penrc", "(for x (kind-any) y y)",
     "form 'for' takes 3 argument(s), got 4"),
    ("penrc", "(text x)", "unknown form 'text'"),
    ("penrc", "(for (x) R x)", "expected a variable, got '(x)'"),
    ("penrc", "(lit (a))", "expected an atom token, got '(a)'"),
    ("penrc", "(ifkind x (kind-prod (kind-atom)) y z)",
     "malformed kind form '(kind-prod (kind-atom))'"),
    ("penrc", "(seq x)", "unknown form 'seq'"),
    ("penrc", "()", "empty expression form"),
    ("penrc", "((a) x)", "malformed form '((a) x)'"),
    # relational algebra
    ("ra", "R", "malformed relational form 'R'"),
    ("ra", "()", "malformed relational form '()'"),
    ("ra", "((a) x)", "malformed relational form '((a) x)'"),
    ("ra", "(wibble)", "unknown relational form 'wibble'"),
    ("ra", "(rel)", "form 'rel' takes 1 argument(s), got 0"),
    ("ra", "(rel (R))", "expected a relation name, got '(R)'"),
    ("ra", "(select (A) B (rel R))", "expected an attribute, got '(A)'"),
    ("ra", "(rename A (B) R)", "expected an attribute, got '(B)'"),
    ("ra", "(select A B R)", "malformed relational form 'R'"),
    ("ra", "(project A (rel R))", "project attribute list must be a list"),
    ("ra", "(project ((A)) (rel R))", "expected an attribute, got '(A)'"),
    ("ra", "(product (rel R))", "form 'product' takes 2 argument(s), got 1"),
    # dependencies
    ("deps", "x", "malformed dependency 'x'"),
    ("deps", "(fd A (B))", "fd takes two attribute lists"),
    ("deps", "(ind (A) ((B)))", "expected an attribute, got '(B)'"),
    ("deps", "(mvd (A) (B))", "unknown dependency form 'mvd'"),
    ("deps", "((fd) (a) (b))", "malformed dependency '((fd) (a) (b))'"),
    # pure RX loops range over items only
    ("pure-rx", "(for v (kind-coll) x x)", "not a pure RX kind: (kind-coll)"),
    ("pure-rx", "(for v (kind-sum (kind-atom) (kind-coll)) x x)",
     "not a pure RX kind: (kind-coll)"),
    ("pure-rx", "(for* ((v x)) (kind-prod (kind-atom) (kind-atom)) v)",
     "not a pure RX kind: (kind-prod (kind-atom) (kind-atom))"),
    # nullary kinds take no arguments
    ("rx", "(for x (kind-atom (wibble) x) y y)",
     "malformed kind form '(kind-atom (wibble) x)'"),
    ("penrc", "(ifkind x (kind-any 1 2) y z)",
     "malformed kind form '(kind-any 1 2)'"),
]


@pytest.mark.parametrize("lang,src,message", PARSE_ERRORS)
def test_parse_error_messages(lang, src, message):
    with pytest.raises(ParseError) as err:
        parse(src, lang)
    assert str(err.value) == message


# sha256 of the compiled RX texts of every depth-2 query, one per line:
# pins the printed bytes, not only the round trip.
COMPILED_RA_DEPTH2_SHA256 = \
    "9a068057e4c41cf71412dfbcda5a91df7a7b323c05d13eb040a9e7d0ecaf5e2d"


def test_compiled_ra_round_trip_depth2():
    from nrcx.translate import compile_ra
    from test_acceptance import RA_SCHEMA, _ra_exprs
    digest = hashlib.sha256()
    for q in _ra_exprs(2):
        expr, _gamma = compile_ra(q, RA_SCHEMA)
        text = print_expr(expr)
        assert parse(text, "rx") == expr, text
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == COMPILED_RA_DEPTH2_SHA256


# sha256 of the printed desugar_emptiness of every depth-2 compiled
# query, one per line: the rewrite keeps for* and cond, and the bytes
# are those of the per-form rewrite that map_children replaced.
DESUGARED_RA_DEPTH2_SHA256 = \
    "0577fc7bfc5b697e739ce2b8e47434b53f01d2f845d95e579892d39377716f77"


def test_desugared_compiled_ra_depth2_is_pinned():
    from nrcx.translate import compile_ra, desugar_emptiness
    from test_acceptance import RA_SCHEMA, _ra_exprs
    digest = hashlib.sha256()
    for q in _ra_exprs(2):
        expr, _gamma = compile_ra(q, RA_SCHEMA)
        digest.update(print_expr(desugar_emptiness(expr)).encode() + b"\n")
    assert digest.hexdigest() == DESUGARED_RA_DEPTH2_SHA256
