"""Small-model decision procedures.

Well-definedness, semantic type-checking, and satisfiability for the
positive-existential nested calculus with kind tests are decidable: a
counterexample, if any exists, already appears among environments whose
sets are small (bounded by the k-complexity of the expression) and whose
atoms are drawn from the expression's literals plus a bounded supply of
fresh atoms.

``decide`` checks Γ and τ against the language's type domain, then
makes each whole-tree pass over e once: the k-complexity (which rejects
the emptiness test), the free variables, the static certificate and
the literals.  ``static.certify`` evaluates e over Γ's types once, and
that one evaluation answers both questions: is e defined, and is its
output type below τ (coll(void) for sat)?  When both are proved, no
environment is examined.  Otherwise the search enumerates the finite
space in canonical order, so that an early counterexample is found long
before the space is exhausted.  Type-checking and satisfiability
presuppose well-definedness; when the certificate does not prove e
defined, the well-definedness search runs first.

The pure RX procedures reduce to the nested ones through the value and
expression encodings in :mod:`nrcx.translate`.  The translated types
hold exactly the encodings of pure values, so the search enumerates
the image of the encoding and nothing off it, and each environment it
meets decodes to a pure one.  The bounds come from the translated
problem, as the paper derives them.
"""

from __future__ import annotations

import itertools
import json
import math
import time

from .frontend import free_vars, literals, print_type
# NonPenrcError is raised by complexity, and importable from here.
from .penrc import NonPenrcError, complexity, compile_penrc  # noqa: F401
from .record import record
from .sexpr import write
from .static import certify
# perfbench/tracing.py wraps nrcx.decide.eval_penrc, so the name stays;
# the search runs the program compile_penrc returns instead.
from .penrc import eval_penrc  # noqa: F401
from .translate import dec_env, translate_expr, translate_type
from .typeterms import (CollT, VoidT, EnumerationBudgetError, is_nrc_type,
                        iter_canonical_values, member, rank, type_complexity)
# perfbench/tracing.py wraps nrcx.decide.iter_values, so the name stays.
from .typeterms import iter_values  # noqa: F401
from .values import (Atom, DataNode, ElemNode, Pair, VSet, sort_key,
                     subvalue_env, env_to_json, RESERVED_ATOM_PREFIX)


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


@record
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
    bounds: dict

    def to_json(self):
        return {
            "result": self.result,
            "counterexample": (None if self.counterexample is None
                               else env_to_json(self.counterexample)),
            "bounds": dict(self.bounds),
        }


def fresh_atoms(n: int):
    """n pairwise-distinct atoms from the reserved namespace."""
    return [Atom(f"{RESERVED_ATOM_PREFIX}{i}") for i in range(n)]


def atom_supply(lits, fv, gamma, card: int):
    """The literals lits of e plus enough fresh atoms to realize any
    witness: one per atom position available across the types gamma
    gives e's free variables fv at cardinality card.  The supply is
    never empty: with no literal and no such position it is one fresh
    atom."""
    n_fresh = sum(rank(gamma[x], card) for x in fv) or (0 if lits else 1)
    fresh = [a for a in fresh_atoms(n_fresh) if a not in lits]
    return sorted(lits, key=sort_key) + fresh, fresh


# ---------------------------------------------------------------------------
# Environment enumeration.


def iter_environments(gamma, card, atoms, *, fresh=(),
                      budget=DEFAULT_MAX_ENVS, deadline=None):
    """Stream environments compatible with gamma, sets of cardinality
    <= card, atoms drawn from `atoms`; variables in sorted order, values
    in canonical order (depth-first, so early environments are small).

    Environments that merely rename the fresh atoms (fresh, a part of
    atoms) of an earlier one are never built: the fresh atoms must make
    their first appearances in supply order, reading the variables'
    values in sorted order of names.  iter_canonical_values applies
    that rule inside each value and returns the count of fresh atoms
    seen, which the next variable starts from.  With fresh empty,
    nothing is pruned.  The deadline (time.monotonic seconds) is
    checked every 1024 values drawn for a variable.
    """
    return _extend({}, sorted(gamma), 0, gamma, card, atoms, fresh, 0,
                   budget, deadline)


def _extend(env, names, i, gamma, card, atoms, fresh, seen, budget,
            deadline):
    """The environments of iter_environments that bind names[i:] on top
    of env, which binds names[:i] and uses seen fresh atoms."""
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
        yield from _extend(env, names, i + 1, gamma, card, atoms, fresh,
                           seen2, budget, deadline)
    env.pop(x, None)


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
    if math.prod(map(len, lattices)) > budget:
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
                          max_envs=DEFAULT_MAX_ENVS, timeout=DEFAULT_TIMEOUT):
    """Search environments compatible with gamma for one on which
    `failing` holds, and minimize it.  Returns a Verdict; raises
    BudgetExceededError when the space cannot be covered within max_envs
    evaluations or timeout seconds.
    """
    deadline = time.monotonic() + timeout
    examined = 0
    bounds = {"card": card, "atoms": len(atoms), "examined": 0}
    try:
        for env in iter_environments(gamma, card, atoms, fresh=fresh,
                                     budget=max_envs, deadline=deadline):
            examined += 1
            bounds["examined"] = examined
            if examined > max_envs:
                raise BudgetExceededError(
                    f"exceeded {max_envs} environments")
            if examined % 512 == 0 and time.monotonic() > deadline:
                raise BudgetExceededError(f"exceeded {timeout}s")
            if failing(env):
                env = minimize_counterexample(env, failing)
                if not failing(env):
                    raise SelfCheckError(
                        "the counterexample did not fail on re-check")
                return Verdict(False, env, bounds)
    except EnumerationBudgetError as exc:
        raise BudgetExceededError(str(exc)) from exc
    return Verdict(True, None, bounds)


TYPE_DOMAINS = {"penrc": "an NRC type", "pure-rx": "a pure RX type"}


def _domain_type(t, what, lang):
    """t as the search reads it, translated for pure RX; PreconditionError
    when t is outside the language's type domain."""
    try:
        if lang == "pure-rx":
            return translate_type(t)  # TypeError outside the domain
        if is_nrc_type(t):
            return t
    except TypeError:
        pass
    raise PreconditionError(
        f"{what} is not {TYPE_DOMAINS[lang]}: {write(print_type(t))}")


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
    PreconditionError).  The counterexample of a pure problem is
    decoded.  "sat" flips the result of the type check against
    coll(void)."""
    evaluate = compile_penrc(e)

    def failing(env):
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


def decide(e, gamma, mode, *, lang="penrc", tau=None, prune=True,
           **options):
    """Decide one problem of e under gamma, statically or by the search.

    "welldef": is e defined on every compatible environment?  A False
    verdict carries a minimized counterexample, as does one of "type":
    does e always output a value of type tau?  "sat": does some
    environment make e nonempty?  It is the type check against
    coll(void) with the polarity flipped, so a True verdict carries the
    witness in the counterexample field.  Type and sat raise
    PreconditionError, with the welldef counterexample, when e is not
    well defined; so does every mode on a type outside lang's domain.
    lang "pure-rx" decides the encoded problem and reports pure RX
    environments.  prune=False turns off the search's symmetry pruning.
    """
    tau = _output_type(mode, tau)
    if lang not in TYPE_DOMAINS:
        raise ValueError(f"unknown language {lang!r}")
    gamma = {x: _domain_type(gamma[x], f"type of {x}", lang)
             for x in sorted(gamma)}
    if tau is not None:
        tau = _domain_type(tau, "output type", lang)
    pure = lang == "pure-rx"
    if pure:
        e = translate_expr(e)
    k = 1 if tau is None else max(type_complexity(tau), 1)
    card = complexity(e, k)  # NonPenrcError on an emptiness test
    fv = free_vars(e)
    missing = fv - set(gamma)
    if missing:
        raise PreconditionError(
            f"free variables without declared types: {sorted(missing)}")
    proved = certify(e, gamma, tau)
    lits = literals(e)

    def supply(card):  # the atoms, and the fresh ones that pruning renames
        atoms, fresh = atom_supply(lits, fv, gamma, card)
        return atoms, fresh if prune else ()

    if proved is None and tau is not None:
        # Without a certificate of definedness, the precondition is
        # decided before the type search.
        card1 = card if k == 1 else complexity(e, 1)
        welldef = _search(e, gamma, "welldef", None, card1,
                          *supply(card1), pure, options)
        if not welldef.result:
            raise PreconditionError(
                "precondition failed: expression is not well defined; "
                "counterexample: " + json.dumps(welldef.to_json()))
    atoms, fresh = supply(card)
    if proved:
        bounds = {"card": card, "atoms": len(atoms), "examined": 0}
        return Verdict(mode != "sat", None, bounds)
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
