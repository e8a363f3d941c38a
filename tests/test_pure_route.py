"""decide(lang="pure-rx") against the encoded route, tests/oracles.py.

The translated types hold only encodings, so the search meets exactly
the environments of the encoded route that decode, in the same order.
Verdicts, counterexamples, the card and the atom supply must be equal.
Where the search ran (`examined` > 0), `examined` must be the number of
decoding environments the encoded route reached; a verdict of the
static certificate examines none.
"""

import random

from nrcx.decide import BudgetExceededError, PreconditionError, decide
from nrcx.frontend import free_vars, parse, parse_type
from nrcx.sexpr import read as sread

from oracles import encoded_decide
from test_acceptance import COUNT_BUDGET, _random_pure
from test_cli import PINNED_CHECKS

GAMMA_POOL = ["(atom)", "(data)", "(coll (atom))", "(coll (data))",
              "(coll (sum (atom) (data)))", "(elem (data))",
              "(coll (elem (data)))", "(sum (atom) (coll (atom)))"]
TYPE_POOL = ["(atom)", "(data)", "(coll (atom))", "(coll (data))",
             "(coll (void))", "(coll (sum (atom) (data)))",
             "(coll (elem (data)))"]
# The encoded route counts the environments off the image too.
OPTS = {"max_envs": 20000}


def T(s):
    return parse_type(sread(s))


def _outcome(route):
    # Only the fact that the precondition failed: the welldef verdict
    # it carries is compared in full where the same instance runs in
    # mode "welldef".
    try:
        verdict, examined = route()
    except PreconditionError:
        return PreconditionError
    return (verdict.result, verdict.counterexample, verdict.bounds["card"],
            verdict.bounds["atoms"], examined)


def _agree(e, gamma, mode, tau=None):
    """Assert both routes agree; False when the encoded route passes a
    count budget, so the instance is not covered."""
    try:
        old = _outcome(lambda: encoded_decide(e, gamma, mode, tau, **OPTS))
    except BudgetExceededError as exc:
        assert COUNT_BUDGET.search(str(exc)), exc
        return False

    def new_route():
        v = decide(e, gamma, mode, lang="pure-rx", tau=tau, **OPTS)
        return v, v.bounds["examined"]

    new = _outcome(new_route)
    if isinstance(new, tuple) and new[-1] == 0:
        new, old = new[:-1], old[:-1]
    assert new == old, (e, gamma, mode, tau)
    return True


def test_pinned_pure_checks_agree_with_encoded_route():
    pure = [c for c in PINNED_CHECKS if c[0] == "pure-rx"]
    assert len(pure) == 7
    for _, mode, expr, gamma, tau in pure:
        assert _agree(parse(expr, "pure-rx"),
                      {x: parse_type(t) for x, t in sread(gamma)}, mode,
                      None if tau is None else T(tau))


def test_random_pure_corpus_agrees_with_encoded_route():
    rng = random.Random(2468)
    covered = 0
    while covered < 150:
        e = parse(_random_pure(rng, rng.randrange(1, 4), ["x", "y"]),
                  "pure-rx")
        gamma = {v: T(rng.choice(GAMMA_POOL)) for v in sorted(free_vars(e))}
        tau = T(rng.choice(TYPE_POOL))
        covered += all(_agree(e, gamma, mode, tau if mode == "type" else None)
                       for mode in ("welldef", "type", "sat"))
