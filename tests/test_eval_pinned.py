"""Evaluator outcomes pinned by digest.

Each test evaluates a fixed corpus and hashes every outcome: the JSON of
a defined value, or the undefinedness reason and the printed failing
subexpression.  The digests were recorded before the evaluators were
compiled to closures, so they pin the values, the reasons and the
innermost failing core forms of the earlier tree-walking evaluators.
"""

import hashlib
import json
import random

from nrcx.frontend import free_vars, parse, print_expr
from nrcx.penrc import eval_penrc
from nrcx.rx import ALT_ORACLES, DEFAULT_ORACLES, eval_pure_rx, eval_rx
from nrcx.translate import compile_ra, encode_db
from nrcx.values import Atom, VSet, value_to_json

from oracles import all_values
from test_acceptance import RA_SCHEMA, _ra_exprs, pure_universe

A, B = Atom("a"), Atom("b")


def _outcome(out):
    if out.is_defined:
        return json.dumps(value_to_json(out.value))
    at = None if out.expr is None else print_expr(out.expr)
    return f"undefined {out.reason} at {at}"


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Compiled RA queries: every depth-2 query on two databases, both oracles.

# A difference of products loops over 4^8 bindings per pair of tuples, so
# the databases stay small.
RA_DBS = [
    {"R": {("1", "2"), ("2", "2")}, "S": {("2", "1")}},
    {"R": {("3", "1")}, "S": {("1", "1"), ("1", "3")}},
]

EVAL_RX_RA_DEPTH2_SHA256 = \
    "2e5f8ba4d80797a2a23615a4bf01067f02f91a20459616b5d1606e9ee2b3c65e"


def _ra_lines():
    envs = [encode_db(db, RA_SCHEMA) for db in RA_DBS]
    lines = []
    for q in _ra_exprs(2):
        expr, _gamma = compile_ra(q, RA_SCHEMA)
        for env in envs:
            for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
                lines.append(_outcome(eval_rx(expr, env, oracles)))
    return lines


def test_eval_rx_on_compiled_ra_depth2_is_pinned():
    lines = _ra_lines()
    assert len(lines) == 636 * 4
    assert _digest(lines) == EVAL_RX_RA_DEPTH2_SHA256


# ---------------------------------------------------------------------------
# Seeded random corpora over every core form, and the RX sugar.

KINDS = ["(kind-atom)", "(kind-data)", "(kind-elem)", "(kind-coll)",
         "(kind-any)", "(kind-sum (kind-atom) (kind-coll))",
         "(kind-prod (kind-atom) (kind-coll))",
         "(kind-prod (kind-atom) (kind-atom))"]
PURE_KINDS = ["(kind-atom)", "(kind-data)", "(kind-elem)", "(kind-any)",
              "(kind-sum (kind-atom) (kind-elem))"]
RX_TYPES = ["(coll (atom))", "(single (data))",
            "(coll (sum (atom) (elem (coll (data)))))", "(coll (void))"]
PURE_TYPES = ["(atom)", "(coll (atom))", "(sum (data) (coll (data)))",
              "(elem (data))", "(coll (sum (atom) (elem)))"]


def _random_penrc(rng, depth, vars_):
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(lit b)", "(empty)"])
    s = lambda: _random_penrc(rng, depth - 1, vars_)  # noqa: E731
    v = f"v{depth}"
    # Each form is built only once chosen.
    form = rng.choice([
        lambda: f"(fst {s()})", lambda: f"(snd {s()})",
        lambda: f"(sing {s()})", lambda: f"(flatten {s()})",
        lambda: f"(pair {s()} {s()})", lambda: f"(union {s()} {s()})",
        lambda: f"(for {v} {s()} "
                f"{_random_penrc(rng, depth - 1, vars_ + [v])})",
        lambda: f"(ifeq {s()} {s()} {s()} {s()})",
        lambda: f"(ifkind {s()} {rng.choice(KINDS)} {s()} {s()})",
        lambda: f"(ifempty {s()} {s()} {s()})",
    ])
    return form()


def _random_rx(rng, depth, vars_, pure):
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(lit b)", "(empty)"])
    s = lambda: _random_rx(rng, depth - 1, vars_, pure)  # noqa: E731
    v, w = f"v{depth}", f"w{depth}"
    kinds = PURE_KINDS if pure else KINDS[:5]
    types = PURE_TYPES if pure else RX_TYPES
    forms = [
        lambda: f"(text {s()})", lambda: f"(data {s()})",
        lambda: f"(name {s()})", lambda: f"(children {s()})",
        lambda: f"(elem {s()} {s()})", lambda: f"(seq {s()} {s()})",
        lambda: f"(seq {s()} {s()} {s()})",
        lambda: f"(ifeq {s()} {s()} {s()} {s()})",
        lambda: f"(ifempty {s()} {s()} {s()})",
        lambda: f"(iftype {s()} {rng.choice(types)} {s()} {s()})",
        lambda: f"(cond (or (not (eq {s()} {s()})) (and (eq {s()} {s()}) "
                f"(eq {s()} {s()}))) {s()} {s()})",
        lambda: f"(for {v} {rng.choice(kinds)} {s()} "
                f"{_random_rx(rng, depth - 1, vars_ + [v], pure)})",
        lambda: f"(for* (({v} {s()}) ({w} {v})) {rng.choice(kinds)} "
                f"{_random_rx(rng, depth - 1, vars_ + [v, w], pure)})",
    ]
    if pure:
        forms.append(lambda: f"(sing {s()})")
    return rng.choice(forms)()


def _corpus_lines(rng, make, lang, universe, evaluate, n_exprs=None):
    """Outcomes of n_exprs (default N_EXPRS) random expressions of depth
    1 to 4, each on N_ENVS random environments over universe."""
    lines = []
    for _ in range(n_exprs or N_EXPRS):
        e = parse(make(rng, rng.randrange(1, 5), ["x", "y"]), lang)
        lines.append(print_expr(e))
        for _ in range(N_ENVS):
            env = {v: rng.choice(universe) for v in sorted(free_vars(e))}
            lines.extend(_outcome(out) for out in evaluate(e, env))
    return lines


N_EXPRS, N_ENVS = 400, 8


def _penrc_lines():
    return _corpus_lines(random.Random(7001), _random_penrc, "penrc",
                         all_values(2, [A, B], 2),
                         lambda e, env: [eval_penrc(e, env)])


def _pure_rx_lines():
    return _corpus_lines(random.Random(7002),
                         lambda rng, d, vs: _random_rx(rng, d, vs, True),
                         "pure-rx", pure_universe([A, B], 2),
                         lambda e, env: [eval_pure_rx(e, env)])


def _rx_universe():
    return [v for v in pure_universe([A, B], 2) if isinstance(v, VSet)]


def _eval_rx_both(e, env):
    return [eval_rx(e, env, o) for o in (DEFAULT_ORACLES, ALT_ORACLES)]


def _rx_lines():
    return _corpus_lines(random.Random(7003),
                         lambda rng, d, vs: _random_rx(rng, d, vs, False),
                         "rx", _rx_universe(), _eval_rx_both)


def _random_guarded_for(rng, _depth, gamma_vars):
    """A for* of 1 to 3 bindings whose body is a cond on a conjunction
    of 1 to 3 eq tests, with the else branch (empty).  Sources are random
    RX expressions, children of a variable, or bare variables; eq
    operands are variables in scope, their names and children, or
    literals.  The kind is mostly kind-any; the others leave sources
    with elements of which none passes."""
    scope = list(gamma_vars)
    bindings = []
    for i in range(rng.randint(1, 3)):
        # Γ is drawn twice as often, so that most sources name no loop
        # variable.
        var = lambda: rng.choice(scope + list(gamma_vars))  # noqa: E731
        src = rng.choice([
            lambda: _random_rx(rng, rng.randrange(0, 3), scope, False),
            lambda: f"(children {var()})",
            var,
        ])()
        bindings.append(f"(v{i} {src})")
        scope.append(f"v{i}")
    def test():
        # Each test names Γ and a random prefix of the loop variables.
        names = scope[:rng.randint(len(gamma_vars), len(scope))]
        operand = lambda: rng.choice([  # noqa: E731
            lambda: rng.choice(names),
            lambda: f"(name {rng.choice(names)})",
            lambda: f"(children {rng.choice(names)})",
            lambda: rng.choice(["(lit a)", "(lit b)"]),
        ])()
        return f"(eq {operand()} {operand()})"
    tests = [test() for _ in range(rng.randint(1, 3))]
    cond = tests[0] if len(tests) == 1 else f"(and {' '.join(tests)})"
    kind = rng.choice(["(kind-any)"] * 3 + KINDS[:3])
    body = _random_rx(rng, rng.randrange(0, 3), scope, False)
    return (f"(for* ({' '.join(bindings)}) {kind} "
            f"(cond {cond} {body} (empty)))")


def _guarded_for_lines():
    return _corpus_lines(random.Random(7004), _random_guarded_for, "rx",
                         _rx_universe(), _eval_rx_both, n_exprs=1500)


EVAL_PENRC_RANDOM_SHA256 = \
    "30c6ab9cb08ba8af03b96ef1203f47c8e18f4486bb8fe31d8ed4ad9e70ee9d70"
EVAL_PURE_RX_RANDOM_SHA256 = \
    "dc009dd2794212bb36a394d97a0bd8294f67a2d0dd14021f4cb6aa0cf9258f04"
EVAL_RX_RANDOM_SHA256 = \
    "8de69daa37c7f43c1b5f69f8fed729bc4bbc9d08afdb9ebe10c703fec9d40656"
# A for whose body is a chain of fors ending in a guard with else
# (empty): the form whose guard evaluation the compiled for reorders.
EVAL_RX_GUARDED_FOR_SHA256 = \
    "ccdcedb9d5718c0afc437cfeeb21d73d549b961cb0f8e1aeb29828fd5a91b3ac"


def _check_corpus(lines, digest):
    # Both outcomes occur.
    assert any(line.startswith("undefined") for line in lines)
    assert any(line.startswith("{") for line in lines)
    assert _digest(lines) == digest


def test_eval_penrc_random_corpus_is_pinned():
    _check_corpus(_penrc_lines(), EVAL_PENRC_RANDOM_SHA256)


def test_eval_pure_rx_random_corpus_is_pinned():
    _check_corpus(_pure_rx_lines(), EVAL_PURE_RX_RANDOM_SHA256)


def test_eval_rx_random_corpus_is_pinned():
    _check_corpus(_rx_lines(), EVAL_RX_RANDOM_SHA256)


def test_eval_rx_guarded_for_corpus_is_pinned():
    lines = _guarded_for_lines()
    assert len(lines) == 1500 * (1 + 8 * 2)
    _check_corpus(lines, EVAL_RX_GUARDED_FOR_SHA256)
