"""decide against the benchmark's reference, which shares no code with
nrcx.

perfbench/reference.py decides each problem by an unpruned exhaustive
search of the space the paper's bounds admit, over plain Python data.
On random problems of the nested calculus and of pure RX, in all three
modes with pruning on and off, decide must give the reference's
verdict, and every counterexample or witness it reports must, evaluated
by the reference, be undefined (welldef), output a value outside τ
(type) or output a nonempty set (sat).
"""

import importlib.util
import random
import sys
from pathlib import Path

from nrcx.decide import BudgetExceededError, PreconditionError, decide
from nrcx.frontend import free_vars, parse, parse_type
from nrcx.sexpr import read as sread
from nrcx.values import env_to_json

import test_acceptance
import test_pure_route
from test_acceptance import COUNT_BUDGET, _random_penrc_src, _random_pure

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

N_PROBLEMS = 1000
REFERENCE_BUDGET = 200_000
OPTS = {"max_envs": 30000}
VERDICTS = {True: "holds", False: "fails"}


def _load_reference(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reference", BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "reference", module)
    spec.loader.exec_module(module)
    return module


def _problems(rng, lang, n):
    """n problems (e, Γ, mode, τ, prune) as source text; Γ types e's free
    variables and one variable that e does not use."""
    if lang == "penrc":
        draw, pools = _random_penrc_src, test_acceptance
    else:
        draw, pools = _random_pure, test_pure_route
    for _ in range(n):
        src = draw(rng, rng.randrange(1, 4), ["x", "y"])
        fv = sorted(free_vars(parse(src, lang)))
        gamma = {v: rng.choice(pools.GAMMA_POOL) for v in fv + ["z"]}
        mode = rng.choice(("welldef", "type", "sat"))
        tau = rng.choice(pools.TYPE_POOL) if mode == "type" else None
        yield src, gamma, mode, tau, rng.random() < 0.5


def _gate(reference, lang, seed):
    """(compared, reference budget skips, count budget skips,
    counterexamples re-checked)."""
    evaluate = reference.eval_pure if lang == "pure-rx" else reference.eval_nrc
    compared = ref_skips = count_skips = rechecked = 0
    for src, gamma, mode, tau, prune in _problems(random.Random(seed), lang,
                                                  N_PROBLEMS):
        e_sx = reference.read(src)
        gamma_sx = {x: reference.read(t) for x, t in gamma.items()}
        tau_sx = None if tau is None else reference.read(tau)
        try:
            want = reference.decide(e_sx, gamma_sx, mode, tau_sx, lang,
                                    budget=REFERENCE_BUDGET)
        except reference.ReferenceBudget:
            ref_skips += 1
            continue
        types = {x: parse_type(sread(t)) for x, t in gamma.items()}
        try:
            verdict = decide(parse(src, lang), types, mode, lang=lang,
                             prune=prune, tau=tau and parse_type(sread(tau)),
                             **OPTS)
            got = VERDICTS[verdict.result]
        except PreconditionError:
            verdict, got = None, "undefined"
        except BudgetExceededError as exc:
            assert COUNT_BUDGET.search(str(exc)), exc
            count_skips += 1
            continue
        problem = (src, gamma, mode, tau, prune)
        assert got == want, problem
        compared += 1
        if verdict is None or verdict.counterexample is None:
            continue
        env = reference.env_from_json(env_to_json(verdict.counterexample))
        try:
            out = evaluate(e_sx, env)
        except reference.Undefined:
            assert mode == "welldef", problem
        else:
            assert mode != "welldef", problem
            target = tau_sx if mode == "type" else reference.VOID_SET
            # Outside τ for a type counterexample; nonempty for a witness.
            assert not reference.member(out, target), problem
        rechecked += 1
    return compared, ref_skips, count_skips, rechecked


def _check_gate(monkeypatch, lang, seed):
    compared, ref_skips, count_skips, rechecked = _gate(
        _load_reference(monkeypatch), lang, seed)
    assert compared + ref_skips + count_skips == N_PROBLEMS
    # Most problems fit both budgets; decide's count budget is rarely hit.
    assert compared > 0.6 * N_PROBLEMS, (ref_skips, count_skips)
    assert count_skips < 0.05 * N_PROBLEMS
    assert rechecked > 0.2 * N_PROBLEMS


def test_decide_agrees_with_reference_on_nested_calculus(monkeypatch):
    _check_gate(monkeypatch, "penrc", 1201)


def test_decide_agrees_with_reference_on_pure_rx(monkeypatch):
    _check_gate(monkeypatch, "pure-rx", 1202)
