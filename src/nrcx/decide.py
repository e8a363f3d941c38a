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
from .penrc import complexity, eval_penrc
from .translate import (NotInImageError, dec_env, translate_expr,
                        translate_type)
from .typeterms import (CollT, VoidT, member, rank, type_complexity,
                        iter_values, EnumerationBudgetError)
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


def _first_atoms(v):
    """Atoms of v in canonical traversal order (first occurrence order
    is what the symmetry pruning inspects)."""
    stack = [v]
    while stack:
        u = stack.pop()
        if isinstance(u, Atom):
            yield u
        elif isinstance(u, DataNode):
            yield u.content
        elif isinstance(u, ElemNode):
            yield u.name
            stack.extend(reversed(u.children.elems))
        elif isinstance(u, Pair):
            stack.append(u.snd)
            stack.append(u.fst)
        elif isinstance(u, VSet):
            stack.extend(reversed(u.elems))
        else:
            raise TypeError(f"not a value: {u!r}")


def _extend_occurrences(v, fresh_index, seen):
    """Fold v's fresh atoms into the first-occurrence state `seen` (a
    list of indices); return False when the combined sequence can no
    longer be the canonical prefix 0, 1, 2, ...."""
    seen_set = set(seen)
    for a in _first_atoms(v):
        i = fresh_index.get(a)
        if i is None or i in seen_set:
            continue
        if i != len(seen):
            return False
        seen.append(i)
        seen_set.add(i)
    return True


def iter_environments(gamma, card, atoms, *, prune=True, fresh=(),
                      budget=DEFAULT_MAX_ENVS, deadline=None):
    """Stream environments compatible with gamma, sets of cardinality
    <= card, atoms drawn from `atoms`; variables in sorted order, values
    in canonical order (depth-first, so early environments are small).

    With pruning on, environments that merely rename the fresh atoms of
    an earlier one are skipped: the fresh atoms must make their first
    appearances in supply order.  The deadline (time.monotonic seconds)
    is checked while candidates are generated, since pruning can
    discard long runs of candidates between yields.
    """
    names = sorted(gamma)
    fresh_index = {a: i for i, a in enumerate(fresh)} if prune else {}

    def rec(i, env, seen):
        if i == len(names):
            yield dict(env)
            return
        x = names[i]
        for n, v in enumerate(iter_values(gamma[x], card, atoms, budget)):
            if deadline is not None and n % 1024 == 1023 \
                    and time.monotonic() > deadline:
                raise BudgetExceededError(
                    "timed out while enumerating environments")
            if prune:
                seen2 = list(seen)
                if not _extend_occurrences(v, fresh_index, seen2):
                    continue
            else:
                seen2 = seen
            env[x] = v
            yield from rec(i + 1, env, seen2)
        env.pop(x, None)

    return rec(0, {}, [])


# ---------------------------------------------------------------------------
# Counterexample minimization.


class _MinimizeBudget(Exception):
    pass


def _subvalues(v, budget):
    """All values below v in the sub-value order, canonically sorted."""
    if isinstance(v, (Atom, DataNode)):
        return [v]
    if isinstance(v, ElemNode):
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


# ---------------------------------------------------------------------------
# The three decision problems on the nested calculus.


def well_defined_penrc(e, gamma, *, card=None, **options):
    """Decide whether e is defined on every environment compatible with
    gamma.  A False verdict carries a minimized counterexample."""
    require_penrc(e)
    _check_gamma(e, gamma)
    if card is None:
        card = complexity(e, 1)
    atoms, fresh = atom_supply(e, gamma, card)
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)

    def failing(env):
        return not eval_penrc(e, env).is_defined

    return search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                                 **options)


def typecheck_penrc(e, gamma, tau, *, card=None, **options):
    """Decide whether e always outputs a value of type tau.  Requires e
    to be well defined under gamma: an undefined environment aborts the
    search with PreconditionError."""
    require_penrc(e)
    _check_gamma(e, gamma)
    k = type_complexity(tau)
    if card is None:
        card = complexity(e, max(k, 1))
    atoms, fresh = atom_supply(e, gamma, card)
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)

    def failing(env):
        out = eval_penrc(e, env)
        if not out.is_defined:
            raise PreconditionError(
                f"expression is not well defined (reason: {out.reason})")
        return not member(out.value, tau)

    return search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                                 **options)


def satisfiable_penrc(e, gamma, **options):
    """Decide whether some compatible environment makes e nonempty.

    e is unsatisfiable exactly when the always-empty set type is an
    output type for it, so this is the type check against coll(void)
    with the polarity flipped; a True verdict carries the witnessing
    environment in the counterexample field.
    """
    v = typecheck_penrc(e, gamma, CollT(VoidT()), **options)
    return Verdict(not v.result, v.counterexample, v.bounds)


# ---------------------------------------------------------------------------
# Pure RX, by reduction.


def _translate_problem(e, gamma):
    e2 = translate_expr(e)
    gamma2 = {x: translate_type(t) for x, t in gamma.items()}
    return e2, gamma2


def _decoding(env):
    try:
        return dec_env(env)
    except NotInImageError:
        return None


def well_defined_pure_rx(e, gamma, *, card=None, **options):
    """Well-definedness of a pure RX expression over pure environments,
    decided on the encoded problem; the reported counterexample is
    decoded back to pure RX values."""
    e2, gamma2 = _translate_problem(e, gamma)
    _check_gamma(e2, gamma2)
    if card is None:
        card = complexity(e2, 1)
    atoms, fresh = atom_supply(e2, gamma2, card)
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)

    def failing(env):
        if _decoding(env) is None:
            return False  # not the encoding of any pure environment
        return not eval_penrc(e2, env).is_defined

    v = search_counterexample(failing, gamma2, card, atoms, fresh=fresh,
                              **options)
    if v.counterexample is not None:
        return Verdict(False, _decoding(v.counterexample), v.bounds)
    return v


def typecheck_pure_rx(e, gamma, tau, *, card=None, **options):
    """Semantic type-checking of a pure RX expression, decided on the
    encoded problem."""
    e2, gamma2 = _translate_problem(e, gamma)
    tau2 = translate_type(tau)
    _check_gamma(e2, gamma2)
    k = type_complexity(tau2)
    if card is None:
        card = complexity(e2, max(k, 1))
    atoms, fresh = atom_supply(e2, gamma2, card)
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)

    def failing(env):
        if _decoding(env) is None:
            return False
        out = eval_penrc(e2, env)
        if not out.is_defined:
            raise PreconditionError(
                f"expression is not well defined (reason: {out.reason})")
        return not member(out.value, tau2)

    v = search_counterexample(failing, gamma2, card, atoms, fresh=fresh,
                              **options)
    if v.counterexample is not None:
        return Verdict(False, _decoding(v.counterexample), v.bounds)
    return v


def satisfiable_pure_rx(e, gamma, **options):
    """Decide whether some pure environment makes e nonempty: the type
    check against coll(void) with the polarity flipped, as in
    satisfiable_penrc."""
    v = typecheck_pure_rx(e, gamma, CollT(VoidT()), **options)
    return Verdict(not v.result, v.counterexample, v.bounds)


# ---------------------------------------------------------------------------
# Independent oracle with caller-chosen bounds.


def brute_force_verdict(e, gamma, mode, card, n_atoms, *, tau=None,
                        **options):
    """Same enumeration machinery as the decision procedures, but with
    caller-supplied bounds instead of the derived ones: sets of
    cardinality <= card over an alphabet of n_atoms atoms (the literals
    of e, padded with fresh atoms up to n_atoms).

    mode is "welldef" or "type" (the latter needs tau).  Used to confirm
    empirically that the derived bounds lose no counterexamples.
    """
    require_penrc(e)
    _check_gamma(e, gamma)
    lits = sorted(literals(e), key=sort_key)
    fresh = [a for a in fresh_atoms(max(0, n_atoms))
             if a not in set(lits)][:max(0, n_atoms - len(lits))]
    atoms = lits + fresh
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)

    if mode == "welldef":
        def failing(env):
            return not eval_penrc(e, env).is_defined
    elif mode == "type":
        if tau is None:
            raise ValueError("mode 'type' needs tau")

        def failing(env):
            out = eval_penrc(e, env)
            if not out.is_defined:
                raise PreconditionError(
                    f"expression is not well defined (reason: {out.reason})")
            return not member(out.value, tau)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                                 **options)
