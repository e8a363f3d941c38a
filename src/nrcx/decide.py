"""Small-model decision procedures.

Well-definedness, semantic type-checking, and satisfiability for the
positive-existential nested calculus with kind tests are decidable: a
counterexample, if any exists, already appears among environments whose
sets are small (bounded by the k-complexity of the expression) and whose
atoms are drawn from the expression's literals plus a bounded supply of
fresh atoms.  The procedures here enumerate exactly that finite space,
streaming environments in canonical order so an early counterexample is
found long before the space is exhausted.

The pure RX procedures reduce to the nested ones through the value and
expression encodings in :mod:`nrcx.translate`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .frontend import NEmptyCond, free_vars, literals, _children
from .penrc import complexity, compile_penrc
# perfbench/tracing.py wraps nrcx.decide.eval_penrc, so the name stays;
# the search runs the program compile_penrc returns instead.
from .penrc import eval_penrc  # noqa: F401
from .translate import (NotInImageError, dec_env, translate_expr,
                        translate_type)
from .typeterms import (CollT, VoidT, member, rank, type_complexity,
                        iter_canonical_values, EnumerationBudgetError)
# perfbench/tracing.py wraps nrcx.decide.iter_values, so the name stays.
from .typeterms import iter_values  # noqa: F401
from .values import (Atom, DataNode, ElemNode, Pair, VSet, sort_key,
                     subvalue_env, env_to_json, RESERVED_ATOM_PREFIX)


class NonPenrcError(ValueError):
    """The expression falls outside the decidable fragment."""


class PreconditionError(ValueError):
    """A stated precondition of the procedure does not hold."""


class BudgetExceededError(RuntimeError):
    """The search hit its environment or time budget inconclusively."""


class SelfCheckError(RuntimeError):
    """A counterexample did not fail again when re-checked, so the
    failing predicate is not a function of the environment."""


DEFAULT_MAX_ENVS = 10 ** 6
DEFAULT_TIMEOUT = 60.0
DEFAULT_MINIMIZE_BUDGET = 20_000


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    ``result`` is True when the property holds over every compatible
    environment.  When it is False, ``counterexample`` is a witnessing
    environment (re-checked before being reported).  ``bounds`` records
    the search space actually covered: the set-cardinality bound, the
    atom supply, and how many environments were evaluated.
    """

    result: bool
    counterexample: dict | None
    bounds: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "result": self.result,
            "counterexample": (None if self.counterexample is None
                               else env_to_json(self.counterexample)),
            "bounds": dict(self.bounds),
        }


def require_penrc(e):
    """Reject expressions containing the full-NRC emptiness test."""
    if isinstance(e, NEmptyCond):
        raise NonPenrcError(
            "emptiness tests are outside the decidable fragment")
    for c in _children(e):
        require_penrc(c)


def fresh_atoms(n: int):
    """n pairwise-distinct atoms from the reserved namespace."""
    return [Atom(f"{RESERVED_ATOM_PREFIX}{i}") for i in range(n)]


def atom_supply(e, gamma, card: int):
    """Literals of e plus enough fresh atoms to realize any witness:
    one per atom position available across the free variables' types at
    cardinality card."""
    fv = free_vars(e)
    n_fresh = sum(rank(t, card) for x, t in gamma.items() if x in fv)
    lits = sorted(literals(e), key=sort_key)
    fresh = fresh_atoms(n_fresh)
    lit_set = set(lits)
    fresh = [a for a in fresh if a not in lit_set]
    return lits + fresh, fresh


# ---------------------------------------------------------------------------
# Environment enumeration.


def iter_environments(gamma, card, atoms, *, prune=True, fresh=(),
                      budget=DEFAULT_MAX_ENVS, deadline=None):
    """Stream environments compatible with gamma, sets of cardinality
    <= card, atoms drawn from `atoms`; variables in sorted order, values
    in canonical order (depth-first, so early environments are small).

    With pruning on, environments that merely rename the fresh atoms of
    an earlier one are never built: the fresh atoms must make their
    first appearances in supply order, reading the variables' values in
    sorted order of names.  iter_canonical_values applies that rule
    inside each value and returns the count of fresh atoms seen, which
    the next variable starts from.  The deadline (time.monotonic
    seconds) is checked every 1024 values drawn for a variable.
    """
    names = sorted(gamma)
    if not prune:
        fresh = ()

    def rec(i, env, seen):
        if i == len(names):
            yield dict(env)
            return
        x = names[i]
        for n, (v, seen2) in enumerate(iter_canonical_values(
                gamma[x], card, atoms, fresh, seen, budget)):
            if deadline is not None and n % 1024 == 1023 \
                    and time.monotonic() > deadline:
                raise BudgetExceededError(
                    "timed out while enumerating environments")
            env[x] = v
            yield from rec(i + 1, env, seen2)
        env.pop(x, None)

    return rec(0, {}, 0)


# ---------------------------------------------------------------------------
# Counterexample minimization.


class _MinimizeBudget(Exception):
    pass


def _subvalues(v, budget):
    """All values below v in the sub-value order, canonically sorted."""
    if isinstance(v, (Atom, DataNode, ElemNode)):
        return [v]
    if isinstance(v, Pair):
        ls = _subvalues(v.fst, budget)
        rs = _subvalues(v.snd, budget)
        if len(ls) * len(rs) > budget:
            raise _MinimizeBudget
        return sorted((Pair(a, b) for a in ls for b in rs), key=sort_key)
    if isinstance(v, VSet):
        pool = []
        for e in v:
            pool.extend(_subvalues(e, budget))
        pool = sorted(set(pool), key=sort_key)
        if 2 ** len(pool) > budget:
            raise _MinimizeBudget
        out = set()
        for n in range(len(pool) + 1):
            for combo in itertools.combinations(pool, n):
                out.add(VSet(combo))
        return sorted(out, key=sort_key)
    raise TypeError(f"not a value: {v!r}")


def _env_key(env):
    return tuple(sort_key(env[x]) for x in sorted(env))


def minimize_counterexample(env, failing, budget=DEFAULT_MINIMIZE_BUDGET):
    """Smallest environment below `env` (pointwise sub-values) on which
    `failing` still holds; `env` itself when the lattice is too large.
    """
    names = sorted(env)
    try:
        lattices = [_subvalues(env[x], budget) for x in names]
    except _MinimizeBudget:
        return env
    total = 1
    for lat in lattices:
        total *= len(lat)
        if total > budget:
            return env
    bad = []
    for combo in itertools.product(*lattices):
        cand = dict(zip(names, combo))
        if failing(cand):
            bad.append(cand)
    if not bad:
        return env
    # The sub-value order is a preorder (distinct sets can sit in the
    # same equivalence class), so "strictly below" must be o <= c but
    # not c <= o.
    minimal = [c for c in bad
               if not any(subvalue_env(o, c) and not subvalue_env(c, o)
                          for o in bad)]
    return min(minimal, key=_env_key)


# ---------------------------------------------------------------------------
# The generic bounded search.


def search_counterexample(failing, gamma, card, atoms, *, fresh=(),
                          prune=True, minimize=True,
                          max_envs=DEFAULT_MAX_ENVS,
                          timeout=DEFAULT_TIMEOUT,
                          minimize_budget=DEFAULT_MINIMIZE_BUDGET):
    """Search environments compatible with gamma for one on which
    `failing` holds.  Returns a Verdict; raises BudgetExceededError when
    the space cannot be covered within max_envs evaluations or timeout
    seconds.
    """
    deadline = time.monotonic() + timeout
    examined = 0
    bounds = {"card": card, "atoms": len(atoms), "examined": 0}
    try:
        for env in iter_environments(gamma, card, atoms, prune=prune,
                                     fresh=fresh, budget=max_envs,
                                     deadline=deadline):
            examined += 1
            bounds["examined"] = examined
            if examined > max_envs:
                raise BudgetExceededError(
                    f"exceeded {max_envs} environments")
            if examined % 512 == 0 and time.monotonic() > deadline:
                raise BudgetExceededError(f"exceeded {timeout}s")
            if failing(env):
                if minimize:
                    env = minimize_counterexample(env, failing,
                                                  minimize_budget)
                if not failing(env):
                    raise SelfCheckError(
                        "the counterexample did not fail on re-check")
                return Verdict(False, env, bounds)
    except EnumerationBudgetError as exc:
        raise BudgetExceededError(str(exc)) from exc
    return Verdict(True, None, bounds)


def _check_gamma(e, gamma):
    missing = free_vars(e) - set(gamma)
    if missing:
        raise PreconditionError(
            f"free variables without declared types: {sorted(missing)}")


def _output_type(mode, tau):
    """The type a mode checks outputs against; None for well-definedness."""
    if mode not in ("welldef", "type", "sat"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "type" and tau is None:
        raise ValueError("mode 'type' needs tau")
    return {"welldef": None, "type": tau, "sat": CollT(VoidT())}[mode]


def _search(e, gamma, mode, tau, card, atoms, fresh, pure, options):
    """Search for an environment on which e is undefined (tau None) or
    outputs a value outside tau (where undefinedness raises
    PreconditionError).  A pure problem fails only on encodings of pure
    environments, and its counterexample is decoded.  "sat" flips the
    result of the type check against coll(void)."""
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)
    evaluate = compile_penrc(e)

    def failing(env):
        if pure:
            try:
                dec_env(env)
            except NotInImageError:
                return False  # not the encoding of any pure environment
        out = evaluate(env)
        if tau is None:
            return not out.is_defined
        if not out.is_defined:
            raise PreconditionError(
                f"expression is not well defined (reason: {out.reason})")
        return not member(out.value, tau)

    v = search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                              **options)
    env = v.counterexample
    if pure and env is not None:
        env = dec_env(env)
    return Verdict(v.result != (mode == "sat"), env, v.bounds)


# ---------------------------------------------------------------------------
# The three decision problems, for the nested calculus and pure RX.


def decide(e, gamma, mode, *, lang="penrc", tau=None, card=None, **options):
    """Decide one problem of e under gamma by the bounded search.

    "welldef": is e defined on every compatible environment?  A False
    verdict carries a minimized counterexample, as does one of "type":
    does e always output a value of type tau?  That presupposes e well
    defined; an undefined environment raises PreconditionError.  "sat":
    does some environment make e nonempty?  It is the type check against
    coll(void) with the polarity flipped, so a True verdict carries the
    witness in the counterexample field.  lang "pure-rx" decides the
    encoded problem and reports pure RX environments.
    """
    tau = _output_type(mode, tau)
    pure = lang == "pure-rx"
    if pure:
        e = translate_expr(e)
        gamma = {x: translate_type(t) for x, t in gamma.items()}
        tau = None if tau is None else translate_type(tau)
    elif lang == "penrc":
        require_penrc(e)
    else:
        raise ValueError(f"unknown language {lang!r}")
    _check_gamma(e, gamma)
    if card is None:
        card = complexity(e, 1 if tau is None
                          else max(type_complexity(tau), 1))
    atoms, fresh = atom_supply(e, gamma, card)
    return _search(e, gamma, mode, tau, card, atoms, fresh, pure, options)


# The problems by name, as the README and the tests call them.
def well_defined_penrc(e, gamma, **options):
    return decide(e, gamma, "welldef", **options)


def typecheck_penrc(e, gamma, tau, **options):
    return decide(e, gamma, "type", tau=tau, **options)


def satisfiable_penrc(e, gamma, **options):
    return decide(e, gamma, "sat", **options)


def well_defined_pure_rx(e, gamma, **options):
    return decide(e, gamma, "welldef", lang="pure-rx", **options)


def typecheck_pure_rx(e, gamma, tau, **options):
    return decide(e, gamma, "type", lang="pure-rx", tau=tau, **options)


def satisfiable_pure_rx(e, gamma, **options):
    return decide(e, gamma, "sat", lang="pure-rx", **options)


# ---------------------------------------------------------------------------
# Independent oracle with caller-chosen bounds.


def brute_force_verdict(e, gamma, mode, card, n_atoms, *, tau=None,
                        **options):
    """`decide` on the nested calculus with caller-supplied bounds
    instead of the derived ones: sets of cardinality <= card over an
    alphabet of n_atoms atoms (the literals of e, padded with fresh atoms
    up to n_atoms).  Used to confirm empirically that the derived bounds
    lose no counterexamples.
    """
    tau = _output_type(mode, tau)
    require_penrc(e)
    _check_gamma(e, gamma)
    lits = sorted(literals(e), key=sort_key)
    fresh = [a for a in fresh_atoms(max(0, n_atoms))
             if a not in set(lits)][:max(0, n_atoms - len(lits))]
    return _search(e, gamma, mode, tau, card, lits + fresh, fresh, False,
                   options)
