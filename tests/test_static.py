"""The static certificate (nrcx.static) and its use by decide.

The certificate is sound in one direction: every expression it proves
must be proved by the search too.  The unit tests check that each
undefinedness reason of the nested calculus blocks it; the corpus tests
confirm every certificate on the AC5 and AC9 corpora with
`brute_force_verdict`, which always runs the search.
"""

import random

import pytest

import nrcx.decide
from nrcx.decide import (BudgetExceededError, atom_supply, decide,
                         satisfiable_penrc, typecheck_penrc,
                         well_defined_penrc)
from nrcx.frontend import free_vars, literals, parse, parse_type
from nrcx.penrc import complexity
from nrcx.sexpr import read as sread
from nrcx.static import certify
from nrcx.typeterms import CollT, DataEncT, VoidT, type_complexity

from oracles import brute_force_verdict
from test_acceptance import (GAMMA_POOL, SEARCH_OPTS, TYPE_POOL,
                             _random_penrc_src, _require_count_budget,
                             _welldef_corpus)


def T(src):
    return parse_type(sread(src))


def P(src):
    return parse(src, "penrc")


def G(**types):
    return {x: T(t) for x, t in types.items()}


UNSAT = CollT(VoidT())


# --- each undefinedness reason blocks a certificate ------------------------


@pytest.mark.parametrize("expr,gamma", [
    # proj-on-nonpair: the atom case of the sum
    ("(fst x)", G(x="(sum (atom) (prod (atom) (atom)))")),
    ("(snd x)", G(x="(coll (atom))")),
    # union-on-nonset
    ("(union x y)", G(x="(coll (atom))", y="(sum (atom) (coll (atom)))")),
    # flatten-on-nonset and flatten-on-nonset-of-sets
    ("(flatten x)", G(x="(prod (atom) (atom))")),
    ("(flatten x)", G(x="(coll (atom))")),
    ("(flatten x)", G(x="(coll (sum (coll (atom)) (atom)))")),
    # comprehension-on-nonset
    ("(for v x (sing v))", G(x="(sum (coll (atom)) (atom))")),
    # eq-on-nonatom: a pair, and a set
    ("(ifeq x y x y)", G(x="(prod (atom) (atom))", y="(atom)")),
    ("(ifeq y x y y)", G(x="(coll (atom))", y="(atom)")),
    # a failure under a live branch of a kind test
    ("(ifkind x (kind-atom) (fst x) x)",
     G(x="(sum (atom) (prod (atom) (atom)))")),
    # the data encoding is a pair of a pair and the empty set
    ("(fst (snd x))", {"x": DataEncT()}),
])
def test_undefinedness_blocks_certificate(expr, gamma):
    e = P(expr)
    assert not certify(e, gamma)
    assert well_defined_penrc(e, gamma).result is False


def test_dead_branch_of_kind_test_is_certified():
    # The pair case never reaches the atom branch, nor the atom case the
    # pair branch, so both projections are safe.
    e = P("(ifkind x (kind-atom) (sing x) (sing (fst x)))")
    gamma = G(x="(sum (atom) (prod (atom) (atom)))")
    assert certify(e, gamma)
    assert certify(e, gamma, T("(coll (atom))"))


def test_kind_test_narrows_under_products():
    e = P("(ifkind x (kind-prod (kind-atom) (kind-coll)) (snd x) (empty))")
    gamma = G(x="(prod (atom) (sum (atom) (coll (atom))))")
    assert certify(e, gamma, T("(coll (atom))"))


def test_kind_test_on_an_expression_does_not_narrow():
    e = P("(ifkind (pair x x) (kind-prod (kind-atom) (kind-atom)) "
          "(fst x) (empty))")
    gamma = G(x="(sum (atom) (prod (atom) (atom)))")
    assert not certify(e, gamma)


def test_void_entry_is_vacuous():
    gamma = G(x="(void)", y="(coll (atom))")
    e = P("(fst y)")
    assert certify(e, gamma) and certify(e, gamma, UNSAT)
    v = well_defined_penrc(e, gamma)
    assert (v.result, v.bounds["examined"]) == (True, 0)
    assert satisfiable_penrc(e, gamma).result is False


def test_void_operand_never_runs():
    assert certify(P("(for v x (fst v))"), G(x="(coll (void))"))
    assert certify(P("(fst (fst x))"), G(x="(prod (void) (atom))"))


def test_comprehension_is_a_map():
    # {(empty) | v in x} is {{}} when x is nonempty: satisfiable.
    e = P("(for v x (empty))")
    gamma = G(x="(coll (atom))")
    assert certify(e, gamma)
    assert not certify(e, gamma, UNSAT)
    assert satisfiable_penrc(e, gamma).result is True
    e = P("(for v x (sing v))")
    assert certify(e, gamma, T("(coll (coll (atom)))"))
    assert not certify(e, gamma, T("(coll (atom))"))


def test_type_mode_is_a_syntactic_subtype_check():
    gamma = G(x="(coll (sum (atom) (coll (atom))))")
    assert certify(P("x"), gamma, T("(coll (sum (coll (atom)) (atom)))"))
    assert not certify(P("x"), gamma, T("(coll (atom))"))
    assert not typecheck_penrc(P("x"), gamma, T("(coll (atom))")).result


def test_data_encoding_projects_as_the_paper_type():
    gamma = {"x": DataEncT()}
    assert certify(P("(fst (fst x))"), gamma, T("(atom)"))
    assert certify(P("(snd x)"), gamma, UNSAT)
    assert certify(P("x"), gamma, DataEncT())
    assert not certify(P("(pair (fst x) (snd x))"), gamma, DataEncT())
    # A kind test admits it as the product it is: the else branch, whose
    # projection is undefined on it, never runs.
    e = P("(ifkind x (kind-prod (kind-prod (kind-atom) (kind-atom)) "
          "(kind-coll)) (fst (fst x)) (fst (snd x)))")
    v = well_defined_penrc(e, gamma)
    assert (v.result, v.bounds["examined"]) == (True, 0)


def test_not_an_nrc_type_is_not_certified():
    assert not certify(P("x"), G(x="(data)"))


def test_step_budget_falls_back_to_the_search():
    # 2^14 cases of one product, past the step budget.
    t = "(prod " * 13 + "(sum (atom) (coll (atom)))" + \
        " (sum (atom) (coll (atom))))" * 13
    e = P("(empty)")
    gamma = {"x": T(t)}
    assert not certify(e, gamma)
    assert well_defined_penrc(e, gamma).bounds["examined"] > 0


def test_one_evaluation_tells_undefined_from_unproved_type(monkeypatch):
    # None: e is not proved defined.  False: e is proved defined, but
    # its outputs are not proved to be in tau, also when the subtype
    # test spends the step budget.
    gamma = G(x="(coll (atom))")
    assert certify(P("(fst x)"), gamma, UNSAT) is None
    assert certify(P("(for v x (empty))"), gamma, UNSAT) is False
    assert certify(P("(for v x (empty))"), gamma) is True
    big = "(prod " * 13 + "(sum (atom) (coll (atom)))" + \
        " (sum (atom) (coll (atom))))" * 13
    assert certify(P("(empty)"), {}, T(f"(coll {big})")) is False
    # So decide searches only the type problem of a defined expression.
    searched = []
    search = nrcx.decide._search
    monkeypatch.setattr(nrcx.decide, "_search",
                        lambda *args: searched.append(args[2]) or
                        search(*args))
    v = typecheck_penrc(P("x"), G(x="(coll (sum (atom) (coll (atom))))"),
                        T("(coll (atom))"))
    assert v.result is False and searched == ["type"]


# --- certified verdicts -----------------------------------------------------


def test_bounds_keep_the_one_fresh_atom_fallback():
    v = decide(P("(sing (empty))"), {}, "welldef")
    assert v.bounds == {"card": 0, "atoms": 1, "examined": 0}


def test_pure_rx_certificate_runs_on_the_translation():
    v = decide(parse("(sing x)", "pure-rx"), G(x="(atom)"), "type",
               lang="pure-rx", tau=T("(coll (atom))"))
    assert (v.result, v.bounds["examined"]) == (True, 0)


def test_oracle_always_searches():
    v = brute_force_verdict(P("(sing x)"), G(x="(atom)"), "welldef", 1, 1)
    assert v.result is True and v.bounds["examined"] == 1


# --- soundness gate on the AC5 and AC9 corpora ------------------------------


def _confirm(e, gamma, mode, tau=None):
    """If the certificate proves the problem, the search at the derived
    bounds must agree.  Returns 1 for a confirmed certificate, 0 for
    none, and None when the search passes a count budget."""
    out = {"welldef": None, "type": tau, "sat": UNSAT}[mode]
    if not certify(e, gamma, out):
        return 0
    card = complexity(e, 1 if out is None else max(type_complexity(out), 1))
    n_atoms = len(atom_supply(literals(e), free_vars(e), gamma,
                              card)[0])
    try:
        v = brute_force_verdict(e, gamma, mode, card, n_atoms, tau=tau,
                                **SEARCH_OPTS)
    except BudgetExceededError as exc:
        _require_count_budget(exc)
        return None
    assert (v.result, v.counterexample) == (mode != "sat", None), \
        (mode, e, gamma, tau)
    return 1


def _gate(instances, size):
    """Confirm the certificates of every problem of each instance until
    `size` instances are covered (none passed a count budget).  Returns
    the number of certificates confirmed."""
    covered = confirmed = 0
    while covered < size:
        got = [_confirm(*problem) for problem in next(instances)]
        if None not in got:
            covered += 1
            confirmed += sum(got)
    return confirmed


def _ac5_instances(seed, with_tau):
    rng = random.Random(seed)
    while True:
        (e, gamma), = _welldef_corpus(rng, 1)
        problems = [(e, gamma, "welldef"), (e, gamma, "sat")]
        if with_tau:
            problems.append((e, gamma, "type", T(rng.choice(TYPE_POOL))))
        yield problems


def _ac9_instances():
    rng = random.Random(9090)
    while True:
        e = P(_random_penrc_src(rng, rng.randrange(1, 4), ["x", "y"]))
        gamma = {v: T(rng.choice(GAMMA_POOL)) for v in sorted(free_vars(e))}
        yield [(e, gamma, "welldef"), (e, gamma, "sat")]


# The corpora and sizes of AC5 and AC9; every problem is tried in the
# welldef and sat modes, and with the drawn type in the type mode.
# at_least keeps the gate from passing with few certificates.  The
# corpora draw Γ over the sorted free variables, so they do not depend
# on the string hash seed: 51, 58 and 16 certificates are confirmed.
@pytest.mark.parametrize("instances,size,at_least", [
    (lambda: _ac5_instances(5050, False), 200, 30),
    (lambda: _ac5_instances(6060, True), 200, 55),
    (_ac9_instances, 60, 6),
], ids=["ac5-welldef", "ac5-typecheck", "ac9"])
def test_certificates_confirmed_by_brute_force(instances, size, at_least):
    assert _gate(instances(), size) >= at_least
