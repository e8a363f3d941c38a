import itertools
import random

import pytest

from nrcx.decide import (BudgetExceededError, NonPenrcError,
                         PreconditionError, SelfCheckError, Verdict,
                         atom_supply, brute_force_verdict, decide,
                         fresh_atoms,
                         iter_environments, minimize_counterexample,
                         require_penrc, satisfiable_penrc,
                         search_counterexample, typecheck_penrc,
                         typecheck_pure_rx, well_defined_penrc,
                         well_defined_pure_rx)
from nrcx.frontend import parse, parse_type, free_vars
from nrcx.penrc import complexity, eval_penrc
from nrcx.sexpr import read as sread
from nrcx.typeterms import (AtomT, CollT, ElemT, ProdT, VoidT, member, rank,
                            type_complexity)
from nrcx.values import (Atom, EMPTY_SET, Pair, subvalue_env, vset)


def T(src):
    return parse_type(sread(src))


def P(src):
    return parse(src, "penrc")


# --- well-definedness ------------------------------------------------------


def test_welldef_projection_on_pair_type():
    v = well_defined_penrc(P("(fst x)"), {"x": T("(prod (atom) (atom))")})
    assert v.result is True and v.counterexample is None


def test_welldef_projection_on_coll_type():
    v = well_defined_penrc(P("(fst x)"), {"x": T("(coll (atom))")})
    assert v.result is False
    assert v.counterexample == {"x": EMPTY_SET}


def test_welldef_nested_loop_example():
    e = P("(for x R (for y x (ifeq z y (fst z) (sing y))))")
    gamma = {"R": T("(coll (coll (atom)))"), "z": T("(atom)")}
    v = well_defined_penrc(e, gamma)
    assert v.result is False
    # The counterexample lives within the derived cardinality bound and
    # reproduces the failure.
    assert v.bounds["card"] == complexity(e, 1) == 4
    out = eval_penrc(e, v.counterexample)
    assert not out.is_defined and out.reason == "proj-on-nonpair"


def test_welldef_total_expression():
    v = well_defined_penrc(P("(union x (sing y))"),
                           {"x": T("(coll (atom))"), "y": T("(atom)")})
    assert v.result is True


def test_welldef_rejects_emptiness_test():
    with pytest.raises(NonPenrcError):
        well_defined_penrc(P("(ifempty x y x)"), {"x": T("(atom)"),
                                                  "y": T("(atom)")})


def test_welldef_requires_gamma_coverage():
    with pytest.raises(PreconditionError):
        well_defined_penrc(P("(union x y)"), {"x": T("(coll (atom))")})


# --- type-checking ---------------------------------------------------------


def test_typecheck_identity_comprehension():
    e = P("(for x R x)")
    gamma = {"R": T("(coll (atom))")}
    assert typecheck_penrc(e, gamma, T("(coll (atom))")).result is True
    v = typecheck_penrc(e, gamma, T("(coll (coll (atom)))"))
    assert v.result is False
    assert v.counterexample is not None
    out = eval_penrc(e, v.counterexample)
    assert out.is_defined and not member(out.value, T("(coll (coll (atom)))"))


def test_typecheck_empty_against_empty_coll():
    assert typecheck_penrc(P("(empty)"), {}, T("(coll (void))")).result


def test_typecheck_precondition_needs_well_definedness():
    with pytest.raises(PreconditionError):
        typecheck_penrc(P("(fst x)"), {"x": T("(coll (atom))")}, T("(atom)"))


def test_typecheck_cardinality_uses_target_complexity():
    e = P("x")
    gamma = {"x": T("(coll (atom))")}
    tau = T("(coll (atom))")
    v = typecheck_penrc(e, gamma, tau)
    assert v.result is True
    assert v.bounds["card"] == complexity(e, max(type_complexity(tau), 1))


# --- satisfiability --------------------------------------------------------


def test_satisfiable_empty_expression():
    assert satisfiable_penrc(P("(empty)"), {}).result is False


def test_satisfiable_singleton_empty():
    v = satisfiable_penrc(P("(sing (empty))"), {})
    assert v.result is True
    out = eval_penrc(P("(sing (empty))"), v.counterexample or {})
    assert out.is_defined and out.value != EMPTY_SET


def test_satisfiable_identity_comprehension():
    e = P("(for x R x)")
    v = satisfiable_penrc(e, {"R": T("(coll (atom))")})
    assert v.result is True
    out = eval_penrc(e, v.counterexample)
    assert out.is_defined and len(out.value.elems) > 0


# --- decide ----------------------------------------------------------------


def test_decide_rejects_unknown_mode_language_and_missing_tau():
    e, gamma = P("x"), {"x": T("(atom)")}
    for mode, kw in [("nonsense", {}), ("type", {}),
                     ("welldef", {"lang": "rx"})]:
        with pytest.raises(ValueError):
            decide(e, gamma, mode, **kw)


def test_decide_sat_ignores_tau_and_flips_type_check():
    e, gamma = P("(for x R x)"), {"R": T("(coll (atom))")}
    typed = decide(e, gamma, "type", tau=CollT(VoidT()))
    sat = decide(e, gamma, "sat", tau=T("(atom)"))
    assert typed.result is False and sat.result is True
    assert sat.counterexample == typed.counterexample
    assert sat.bounds == typed.bounds


def test_package_attribute_decide_is_the_module():
    # The package does not re-export the function: it would shadow the
    # submodule nrcx.decide.
    import types
    import nrcx
    assert isinstance(nrcx.decide, types.ModuleType)


def test_brute_force_sat_agrees_with_decide():
    gamma = {"R": T("(coll (atom))")}
    for src in ["(empty)", "(for x R x)", "(for x R (empty))"]:
        e = P(src)
        assert brute_force_verdict(e, gamma, "sat", 2, 2).result == \
            decide(e, gamma, "sat").result, src


# --- pure RX via translation -----------------------------------------------


def test_pure_rx_name_on_element_type():
    e = parse("(name x)", "pure-rx")
    assert well_defined_pure_rx(e, {"x": T("(elem)")}).result is True
    v = well_defined_pure_rx(e, {"x": T("(coll (elem))")})
    assert v.result is False
    assert v.counterexample == {"x": EMPTY_SET}


def test_pure_rx_children_of_element_collection_holds():
    # 98% of the encoded environments are off the image of enc; with the
    # fresh-atom renamings never built the default 60 s timeout suffices.
    e = parse("(children x)", "pure-rx")
    v = well_defined_pure_rx(e, {"x": T("(coll (elem (data)))")})
    assert v.result is True


def test_pure_rx_singleton_typechecks():
    e = parse("(sing x)", "pure-rx")
    v = typecheck_pure_rx(e, {"x": T("(atom)")}, T("(coll (atom))"))
    assert v.result is True


def test_pure_rx_counterexamples_are_pure_values():
    from nrcx.values import is_pure_rx_value
    from nrcx.rx import eval_pure_rx
    e = parse("(seq x (sing y))", "pure-rx")
    gamma = {"x": T("(sum (atom) (coll (atom)))"), "y": T("(atom)")}
    v = well_defined_pure_rx(e, gamma)
    assert v.result is False
    for val in v.counterexample.values():
        assert is_pure_rx_value(val)
    assert not eval_pure_rx(e, v.counterexample).is_defined


# --- enumeration machinery -------------------------------------------------


def test_iter_environments_exhaustive_without_pruning():
    gamma = {"x": T("(coll (atom))")}
    a, b = Atom("a"), Atom("b")
    envs = list(iter_environments(gamma, 2, [a, b], prune=False))
    assert [e["x"] for e in envs] == [EMPTY_SET, vset(a), vset(a, b), vset(b)]


def test_pruning_respects_fresh_atom_symmetry():
    gamma = {"x": T("(atom)")}
    fresh = fresh_atoms(3)
    pruned = list(iter_environments(gamma, 1, fresh, fresh=fresh))
    # All fresh environments are equivalent up to renaming: one survives.
    assert pruned == [{"x": fresh[0]}]
    unpruned = list(iter_environments(gamma, 1, fresh, fresh=fresh,
                                      prune=False))
    assert len(unpruned) == 3


PROBLEMS = [
    (P("(fst x)"), {"x": T("(coll (atom))")}),
    (P("(fst x)"), {"x": T("(prod (atom) (atom))")}),
    (P("(for x R (fst x))"), {"R": T("(coll (prod (atom) (atom)))")}),
    (P("(for x R (fst x))"), {"R": T("(coll (atom))")}),
    (P("(ifkind x (kind-atom) (sing x) x)"),
     {"x": T("(sum (atom) (coll (atom)))")}),
]


def test_pruned_and_unpruned_verdicts_agree():
    for e, gamma in PROBLEMS:
        v1 = well_defined_penrc(e, gamma)
        v2 = well_defined_penrc(e, gamma, prune=False)
        assert v1.result == v2.result, (e, gamma)
        assert v1.bounds["examined"] <= v2.bounds["examined"]


# --- counterexample minimization -------------------------------------------


def test_minimized_counterexamples_are_minimal_failures():
    e = P("(for x R (fst x))")
    gamma = {"R": T("(coll (coll (atom)))")}
    v = well_defined_penrc(e, gamma)
    assert v.result is False
    cex = v.counterexample
    assert not eval_penrc(e, cex).is_defined
    # No strictly smaller environment in the sub-value order still fails.
    assert cex == {"R": vset(EMPTY_SET)}


def test_minimize_counterexample_direct():
    a, b = Atom("a"), Atom("b")
    env = {"x": vset(a, b), "y": Pair(a, b)}

    def failing(e):
        return len(e["x"].elems) >= 1

    got = minimize_counterexample(env, failing)
    assert failing(got)
    assert subvalue_env(got, env)
    assert got["x"] in (vset(a), vset(b)) and got["y"] == Pair(a, b) or True
    assert len(got["x"].elems) == 1


def test_minimize_falls_back_on_tiny_budget():
    a = Atom("a")
    env = {"x": vset(vset(a), EMPTY_SET)}
    got = minimize_counterexample(env, lambda e: True, budget=1)
    assert got == env


# --- budgets and bounds ----------------------------------------------------


def test_counterexample_that_does_not_fail_again_raises():
    calls = []

    def failing(env):
        calls.append(env)
        return len(calls) == 1

    with pytest.raises(SelfCheckError):
        search_counterexample(failing, {"x": AtomT()}, 1, [Atom("a")])


def test_budget_exceeded_on_tiny_max_envs():
    e = P("(for x R (fst x))")
    gamma = {"R": T("(coll (prod (atom) (atom)))")}
    with pytest.raises(BudgetExceededError):
        well_defined_penrc(e, gamma, max_envs=2)


def test_atom_supply_counts_free_variable_ranks():
    e = P("(union x (sing (lit a)))")
    gamma = {"x": T("(coll (atom))"), "unused": T("(coll (atom))")}
    card = complexity(e, 1)
    atoms, fresh = atom_supply(e, gamma, card)
    assert Atom("a") in atoms
    assert len(fresh) == rank(T("(coll (atom))"), card)


def test_verdict_json_shape():
    v = well_defined_penrc(P("(fst x)"), {"x": T("(coll (atom))")})
    j = v.to_json()
    assert j["result"] is False
    assert j["counterexample"] == {"x": {"set": []}}
    assert set(j["bounds"]) == {"card", "atoms", "examined"}


# --- independent oracle ----------------------------------------------------


def _random_expr(rng, depth, vars_):
    if depth == 0:
        return rng.choice([f"{rng.choice(vars_)}", "(lit a)", "(empty)"])
    s = lambda: _random_expr(rng, depth - 1, vars_)  # noqa: E731
    return rng.choice([
        f"(fst {s()})", f"(snd {s()})", f"(sing {s()})",
        f"(union {s()} {s()})", f"(flatten {s()})",
        f"(pair {s()} {s()})",
        f"(for v {s()} {_random_expr(rng, depth - 1, vars_ + ['v'])})",
        f"(ifeq {s()} {s()} {s()} {s()})",
        f"(ifkind {s()} (kind-atom) {s()} {s()})",
    ])


GAMMA_POOL = ["(atom)", "(coll (atom))", "(prod (atom) (atom))",
              "(coll (coll (atom)))", "(sum (atom) (coll (atom)))"]


def test_brute_force_agrees_with_derived_bounds_on_corpus():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        e = P(_random_expr(rng, rng.randrange(1, 4), ["x", "y"]))
        gamma = {v: T(rng.choice(GAMMA_POOL)) for v in free_vars(e)}
        card = complexity(e, 1)
        atoms = len(atom_supply(e, gamma, card)[0]) or 1
        try:
            v1 = well_defined_penrc(e, gamma, max_envs=20000)
            v2 = brute_force_verdict(e, gamma, "welldef", card + 1,
                                     atoms + 1, max_envs=200000)
        except BudgetExceededError:
            continue
        assert v1.result == v2.result, e
        checked += 1


def test_brute_force_type_mode_needs_tau():
    with pytest.raises(ValueError):
        brute_force_verdict(P("(empty)"), {}, "type", 1, 1)
    with pytest.raises(ValueError):
        brute_force_verdict(P("(empty)"), {}, "nonsense", 1, 1)


def test_brute_force_type_mode():
    e = P("(sing x)")
    gamma = {"x": T("(atom)")}
    assert brute_force_verdict(e, gamma, "type", 2, 2,
                               tau=T("(coll (atom))")).result is True
    assert brute_force_verdict(e, gamma, "type", 2, 2,
                               tau=T("(coll (void))")).result is False


def test_verdicts_stable_under_enlarged_bounds():
    # Growing the bounds beyond the derived ones never flips a verdict.
    for e, gamma in PROBLEMS:
        card = complexity(e, 1)
        atoms = len(atom_supply(e, gamma, card)[0]) or 1
        base = well_defined_penrc(e, gamma)
        grown = brute_force_verdict(e, gamma, "welldef", card + 1, atoms + 1)
        assert base.result == grown.result, e
