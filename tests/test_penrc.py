import pytest

from nrcx.frontend import parse
from nrcx.penrc import NonPenrcError, complexity, eval_penrc
from nrcx.rx import Defined
from nrcx.values import Atom, DataNode, Pair, VSet, vset, EMPTY_SET

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def ev(src, env):
    return eval_penrc(parse(src, "penrc"), env)


# --- evaluation ------------------------------------------------------------


def test_environment_must_bind_nrc_values_to_the_free_variables():
    with pytest.raises(ValueError, match=r"^unbound variables: y$"):
        ev("(ifeq x x (empty) y)", {"x": a})
    with pytest.raises(ValueError, match=r"^binding x is not an NRC value "
                                         r"\(atoms, pairs and sets\)$"):
        ev("(sing x)", {"x": DataNode(a)})


def test_projection_on_pair():
    assert ev("(fst x)", {"x": Pair(a, b)}) == Defined(a)
    assert ev("(snd x)", {"x": Pair(a, b)}) == Defined(b)


def test_projection_on_nonpair_undefined():
    out = ev("(fst x)", {"x": EMPTY_SET})
    assert not out.is_defined and out.reason == "proj-on-nonpair"


def test_shared_sing_keeps_each_languages_meaning():
    # One Sing class: the nested calculus takes any value, pure RX
    # items only.
    from nrcx.rx import eval_pure_rx
    e = parse("(sing x)", "penrc")
    assert e == parse("(sing x)", "pure-rx")
    assert eval_penrc(e, {"x": EMPTY_SET}) == Defined(vset(EMPTY_SET))
    out = eval_pure_rx(e, {"x": EMPTY_SET})
    assert not out.is_defined and out.reason == "singleton-of-nonitem"


def test_sing_union_flatten():
    assert ev("(sing x)", {"x": a}) == Defined(vset(a))
    assert ev("(union x y)", {"x": vset(a), "y": vset(b)}) == \
        Defined(vset(a, b))
    assert ev("(flatten x)", {"x": vset(vset(a), vset(a, b))}) == \
        Defined(vset(a, b))


def test_union_needs_sets():
    out = ev("(union x y)", {"x": a, "y": vset(b)})
    assert not out.is_defined and out.reason == "union-on-nonset"


def test_flatten_needs_set_of_sets():
    out = ev("(flatten x)", {"x": vset(a)})
    assert not out.is_defined and out.reason == "flatten-on-nonset-of-sets"
    out = ev("(flatten x)", {"x": a})
    assert not out.is_defined and out.reason == "flatten-on-nonset"


def test_comprehension_collapses_duplicates():
    out = ev("(for x R (lit k))", {"R": vset(a, b, c)})
    assert out == Defined(vset(Atom("k")))


def test_comprehension_needs_set_source():
    out = ev("(for x R x)", {"R": a})
    assert not out.is_defined and out.reason == "comprehension-on-nonset"


def test_eqcond_on_atoms():
    assert ev("(ifeq x y (lit t) (lit f))", {"x": a, "y": a}) == \
        Defined(Atom("t"))
    out = ev("(ifeq x y x y)", {"x": vset(a), "y": a})
    assert not out.is_defined and out.reason == "eq-on-nonatom"


def test_kindcond_total_on_defined_operand():
    assert ev("(ifkind x (kind-atom) (lit t) (lit f))", {"x": a}) == \
        Defined(Atom("t"))
    assert ev("(ifkind x (kind-atom) (lit t) (lit f))", {"x": EMPTY_SET}) == \
        Defined(Atom("f"))
    assert ev("(ifkind x (kind-prod (kind-atom) (kind-coll)) (lit t) (lit f))",
              {"x": Pair(a, EMPTY_SET)}) == Defined(Atom("t"))


def test_branch_not_taken_never_fails():
    out = ev("(ifeq (lit a) (lit a) (lit ok) (fst (empty)))", {})
    assert out == Defined(Atom("ok"))


def test_emptiness_extension_evaluates():
    assert ev("(ifempty x (lit t) (lit f))", {"x": EMPTY_SET}) == \
        Defined(Atom("t"))
    assert ev("(ifempty x (lit t) (lit f))", {"x": a}) == Defined(Atom("f"))


def test_union_idempotent():
    env = {"x": vset(a, b)}
    assert ev("(union x x)", env) == ev("x", env)


def test_nested_loop_example_undefined_on_both_environments():
    e = "(for x R (for y x (ifeq z y (fst z) (sing y))))"
    sigma = {"R": vset(vset(a, b), vset(c), vset(a, b, d)), "z": d}
    out = eval_penrc(parse(e, "penrc"), sigma)
    assert not out.is_defined and out.reason == "proj-on-nonpair"
    small = {"R": vset(vset(d)), "z": d}
    out = eval_penrc(parse(e, "penrc"), small)
    assert not out.is_defined and out.reason == "proj-on-nonpair"


def test_undefined_names_failing_subexpression():
    out = ev("(union (sing (fst x)) (empty))", {"x": a})
    assert out.expr == parse("(fst x)", "penrc")


# --- k-complexity ----------------------------------------------------------


def C(src, k):
    return complexity(parse(src, "penrc"), k)


def test_complexity_empty():
    assert C("(empty)", 7) == 0


def test_complexity_variable():
    assert C("x", 3) == 3


def test_complexity_singleton():
    assert C("(sing x)", 2) == 4


def test_complexity_comprehension():
    assert C("(for x R y)", 1) == 2


def test_complexity_pair_union_sum():
    assert C("(pair x y)", 2) == 4
    assert C("(union x y)", 2) == 4


def test_complexity_projections_flatten_pass_through():
    assert C("(fst x)", 5) == 5
    assert C("(snd x)", 5) == 5
    assert C("(flatten x)", 5) == 5


def test_complexity_conditionals_take_max():
    assert C("(ifeq x y (sing z) w)", 2) == 4
    assert C("(ifkind x (kind-atom) (sing z) w)", 2) == 4


def test_complexity_literal():
    assert C("(lit a)", 9) == 0


def test_complexity_nested_loop_example():
    assert C("(for x R (for y x (ifeq z y (fst z) (sing y))))", 1) == 4


def test_complexity_exact_arithmetic():
    deep = "x"
    for _ in range(8):
        deep = f"(sing {deep})"
    assert C(deep, 10) == 10 ** 9


def test_complexity_rejects_emptiness_test():
    for src in ("(ifempty x y x)", "(ifeq (ifempty x y x) x x x)",
                "(ifkind (ifempty x y x) (kind-atom) x x)"):
        with pytest.raises(NonPenrcError):
            C(src, 1)
