"""End-to-end acceptance suite.

Each test here exercises one of the project's acceptance criteria at the
stated scale: reproduction of the motivating undefinedness example, the
simulation of the pure calculus inside the nested one, the sub-value
lattice laws, monotonicity and genericity of evaluation, validation of
the small-model bounds, the relational-algebra compiler, the dependency
reduction, emptiness-test desugaring, and satisfiability.
"""

import itertools
import random
import re
import time

import pytest

from nrcx.decide import (BudgetExceededError, atom_supply,
                         brute_force_verdict, satisfiable_penrc,
                         typecheck_penrc, well_defined_penrc)
from nrcx.frontend import (Diff, Product, Project, RaUnion, Relation, Rename,
                           Select, FD, IND, free_vars, literals, parse,
                           parse_type)
from nrcx.penrc import complexity, eval_penrc
from nrcx.rx import ALT_ORACLES, DEFAULT_ORACLES, eval_pure_rx, eval_rx
from nrcx.sexpr import read as sread
from nrcx.translate import (RELATION_TYPE, build_fd_id_reduction, compile_ra,
                            dependency_expr, desugar_emptiness, enc, enc_env,
                            decode_relation, encode_db, encode_relation,
                            eval_ra, ra_schema, relation_satisfies,
                            translate_expr)
from nrcx.typeterms import (AtomT, CollT, DataT, ElemT, KAtom, KColl, KData,
                            KElem, KProd, KSum, KIND_ANY, ProdT, SingleT,
                            SumT, VoidT, enumerate_values, kind_member,
                            member, rank, type_complexity)
from nrcx.values import (Atom, DataNode, ElemNode, EMPTY_SET, JoinError,
                         Pair, VSet, apply_atom_map, apply_atom_map_env,
                         atoms_of, in_Vk, is_pure_rx_value, join, subvalue,
                         subvalue_env, vset)

A, B = Atom("a"), Atom("b")


def T(src):
    return parse_type(sread(src))


# ---------------------------------------------------------------------------
# Shared bounded universes.


def nrc_universe(depth, atoms, max_set):
    """All nested-calculus values of bounded depth, including nodes."""
    vals = list(atoms)
    for _ in range(depth):
        layer = list(vals)
        nodes = [DataNode(x) for x in atoms]
        nodes += [ElemNode(x, VSet(c)) for x in atoms
                  for n in range(max_set + 1)
                  for c in itertools.combinations(
                      [v for v in layer if isinstance(v, (DataNode,
                                                          ElemNode))], n)]
        pairs = [Pair(u, v) for u, v in itertools.product(layer, repeat=2)]
        sets = [VSet(c) for n in range(max_set + 1)
                for c in itertools.combinations(layer, n)]
        vals = list(dict.fromkeys(layer + nodes + pairs + sets))
    return vals


def pure_universe(atoms, max_set):
    """Pure calculus values: items and sets of items (depth-2 elements)."""
    items = list(atoms) + [DataNode(x) for x in atoms]
    nodes = [DataNode(x) for x in atoms]
    items += [ElemNode(x, VSet(c)) for x in atoms
              for n in range(max_set + 1)
              for c in itertools.combinations(nodes, n)]
    sets = [VSet(c) for n in range(max_set + 1)
            for c in itertools.combinations(items, n)]
    return items + sets


def max_set_card(v):
    if isinstance(v, Atom):
        return 0
    if isinstance(v, DataNode):
        return 0
    if isinstance(v, ElemNode):
        return max_set_card(v.children)
    if isinstance(v, Pair):
        return max(max_set_card(v.fst), max_set_card(v.snd))
    return max([len(v.elems)] + [max_set_card(e) for e in v])


# ---------------------------------------------------------------------------
# 1. Reproduction of the nested-loop undefinedness example.


def test_ac1_nested_loop_reproduction():
    start = time.monotonic()
    e = parse("(for x R (for y x (ifeq z y (fst z) (sing y))))", "penrc")
    sigma = {"R": vset(vset(A, B), vset(Atom("c")),
                       vset(A, B, Atom("d"))), "z": Atom("d")}
    out = eval_penrc(e, sigma)
    assert not out.is_defined and out.reason == "proj-on-nonpair"

    small = {"R": vset(vset(Atom("d"))), "z": Atom("d")}
    out = eval_penrc(e, small)
    assert not out.is_defined and out.reason == "proj-on-nonpair"

    gamma = {"R": T("(coll (coll (atom)))"), "z": T("(atom)")}
    v = well_defined_penrc(e, gamma)
    assert v.result is False
    cex = v.counterexample
    card = complexity(e, 1)
    assert all(max_set_card(val) <= card for val in cex.values())
    assert not eval_penrc(e, cex).is_defined
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Simulation of the pure calculus inside the nested calculus:
#    definedness equivalence and commutation with the value encoding.


PURE_LEAVES = ["x", "(lit a)", "(empty)"]
PURE_KINDS = ["(kind-any)", "(kind-atom)", "(kind-elem)"]


def _pure_depth1():
    exprs = list(PURE_LEAVES)
    for s in PURE_LEAVES:
        for op in ("text", "data", "name", "children", "sing"):
            exprs.append(f"({op} {s})")
    for s1 in PURE_LEAVES:
        for s2 in PURE_LEAVES:
            exprs.append(f"(elem {s1} {s2})")
            exprs.append(f"(seq {s1} {s2})")
    for parts in itertools.product(PURE_LEAVES, repeat=4):
        exprs.append("(ifeq %s %s %s %s)" % parts)
    for k in PURE_KINDS:
        for src in PURE_LEAVES:
            for body in PURE_LEAVES + ["v"]:
                exprs.append(f"(for v {k} {src} {body})")
    return exprs


def _check_simulation(e, env):
    o1 = eval_pure_rx(e, env)
    o2 = eval_penrc(translate_expr(e), enc_env(env))
    assert o1.is_defined == o2.is_defined, (e, env)
    if o1.is_defined:
        assert enc(o1.value) == o2.value, (e, env)


def test_ac2_simulation_exhaustive_depth1():
    universe = pure_universe([A, B], 2)
    for src in _pure_depth1():
        e = parse(src, "pure-rx")
        fv = sorted(free_vars(e))
        assert fv in ([], ["x"])
        if not fv:
            _check_simulation(e, {})
        else:
            for v in universe:
                _check_simulation(e, {"x": v})


def _random_pure(rng, depth, vars_):
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(lit b)", "(empty)"])
    s = lambda: _random_pure(rng, depth - 1, vars_)  # noqa: E731
    k = rng.choice(PURE_KINDS)
    v = f"v{depth}"
    return rng.choice([
        f"(text {s()})", f"(data {s()})", f"(name {s()})",
        f"(children {s()})", f"(sing {s()})", f"(elem {s()} {s()})",
        f"(seq {s()} {s()})", f"(ifeq {s()} {s()} {s()} {s()})",
        f"(for {v} {k} {s()} "
        f"{_random_pure(rng, depth - 1, vars_ + [v])})",
    ])


def test_ac2_simulation_random_depth3():
    rng = random.Random(31415)
    universe = pure_universe([A, B], 2)
    for _ in range(300):
        e = parse(_random_pure(rng, rng.randrange(1, 4), ["x", "y"]),
                  "pure-rx")
        for _ in range(20):
            env = {v: rng.choice(universe) for v in free_vars(e)}
            _check_simulation(e, env)


# ---------------------------------------------------------------------------
# 3. Sub-value lattice laws, exhaustively on a bounded universe.


# The lattice laws live on the nested calculus: atoms, pairs, and sets.
from nrcx.typeterms import all_values

LATTICE_UNIVERSE = all_values(2, [A, B], 2)

KINDS = [KAtom(), KData(), KElem(), KColl(), KProd(KAtom(), KColl()),
         KSum(KAtom(), KData()), KIND_ANY]

# Downward closure holds for the nested type grammar (void, atom,
# products, unions, collections); exact-cardinality content types are
# deliberately excluded since they are not downward closed.
TYPES = [T(s) for s in [
    "(atom)", "(void)", "(coll (atom))", "(coll (coll (atom)))",
    "(coll (void))", "(prod (atom) (coll (atom)))",
    "(sum (atom) (coll (atom)))", "(prod (coll (atom)) (atom))",
    "(coll (prod (atom) (atom)))"]]


def test_ac3_join_is_least_upper_bound_below_any_common_bound():
    # For u, v below a common w: u and v sit below their join, and the
    # join stays below w; the join's set sizes add.
    for w in LATTICE_UNIVERSE:
        below = [v for v in LATTICE_UNIVERSE if subvalue(v, w)]
        for u, v in itertools.product(below, repeat=2):
            j = join(u, v)
            assert subvalue(u, j) and subvalue(v, j)
            assert subvalue(j, w)
            assert in_Vk(j, max_set_card(u) + max_set_card(v))


def test_ac3_kind_membership_invariant_under_subvalue():
    for v in LATTICE_UNIVERSE:
        for w in LATTICE_UNIVERSE:
            if subvalue(v, w):
                for k in KINDS:
                    assert kind_member(v, k) == kind_member(w, k), (v, w, k)


def test_ac3_type_membership_downward_closed():
    for w in LATTICE_UNIVERSE:
        holds = [t for t in TYPES if member(w, t)]
        if not holds:
            continue
        for v in LATTICE_UNIVERSE:
            if subvalue(v, w):
                for t in holds:
                    assert member(v, t), (v, w, t)


# ---------------------------------------------------------------------------
# 4. Monotonicity and genericity of evaluation.


def _random_penrc_src(rng, depth, vars_):
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(empty)"])
    s = lambda: _random_penrc_src(rng, depth - 1, vars_)  # noqa: E731
    v = f"v{depth}"
    return rng.choice([
        f"(fst {s()})", f"(snd {s()})", f"(sing {s()})", f"(flatten {s()})",
        f"(pair {s()} {s()})", f"(union {s()} {s()})",
        f"(for {v} {s()} {_random_penrc_src(rng, depth - 1, vars_ + [v])})",
        f"(ifeq {s()} {s()} {s()} {s()})",
        f"(ifkind {s()} (kind-atom) {s()} {s()})",
    ])


def _random_subvalue(rng, v):
    if isinstance(v, (Atom, DataNode)):
        return v
    if isinstance(v, ElemNode):
        return ElemNode(v.name, _random_subvalue(rng, v.children))
    if isinstance(v, Pair):
        return Pair(_random_subvalue(rng, v.fst),
                    _random_subvalue(rng, v.snd))
    kept = [_random_subvalue(rng, e) for e in v if rng.random() < 0.7]
    return VSet(kept)


def test_ac4_monotonicity_on_corpus():
    rng = random.Random(2718)
    universe = all_values(2, [A, B], 2)
    checked = 0
    while checked < 500:
        e = parse(_random_penrc_src(rng, rng.randrange(1, 4), ["x", "y"]),
                  "penrc")
        sigma = {v: rng.choice(universe) for v in free_vars(e)}
        small = {v: _random_subvalue(rng, val) for v, val in sigma.items()}
        assert subvalue_env(small, sigma)
        big_out = eval_penrc(e, sigma)
        small_out = eval_penrc(e, small)
        # Smaller inputs preserve definedness and shrink the output.
        if not small_out.is_defined:
            assert not big_out.is_defined, (e, sigma, small)
        elif big_out.is_defined:
            assert subvalue(small_out.value, big_out.value), (e, sigma)
        checked += 1


def test_ac4_genericity_on_corpus():
    rng = random.Random(1618)
    universe = all_values(2, [A, B, Atom("c")], 2)
    checked = 0
    while checked < 500:
        e = parse(_random_penrc_src(rng, rng.randrange(1, 4), ["x", "y"]),
                  "penrc")
        sigma = {v: rng.choice(universe) for v in free_vars(e)}
        fixed = {x.token for x in literals(e)}
        moving = sorted({x.token for s in sigma.values()
                        for x in atoms_of(s)} - fixed)
        image = list(moving)
        rng.shuffle(image)
        perm = {Atom(o): Atom(n) for o, n in zip(moving, image)}
        rho_sigma = apply_atom_map_env(perm, sigma)
        out = eval_penrc(e, sigma)
        out_rho = eval_penrc(e, rho_sigma)
        assert out.is_defined == out_rho.is_defined, (e, sigma, perm)
        if out.is_defined:
            assert out_rho.value == apply_atom_map(perm, out.value), (e, sigma)
        checked += 1


# ---------------------------------------------------------------------------
# 5. Small-model bound validation: enlarging the derived bounds never
#    changes a verdict.


GAMMA_POOL = ["(atom)", "(coll (atom))", "(prod (atom) (atom))",
              "(coll (coll (atom)))", "(sum (atom) (coll (atom)))",
              "(coll (prod (atom) (atom)))"]

TYPE_POOL = ["(atom)", "(coll (atom))", "(coll (void))",
             "(coll (coll (atom)))", "(prod (atom) (atom))",
             "(sum (atom) (coll (atom)))", "(coll (prod (atom) (atom)))",
             "(coll (sum (atom) (coll (atom))))", "(void)",
             "(sum (coll (atom)) (prod (atom) (atom)))"]

MAX_ENVS = 30000
# Skip corpus instances whose search passes a count budget (environments
# examined, or values of one set position); agreement is required on
# everything else.  No wall-clock limit decides what is covered: a
# timeout is an error.
SEARCH_OPTS = {"max_envs": MAX_ENVS}
BRUTE_OPTS = {"max_envs": MAX_ENVS * 8}
COUNT_BUDGET = re.compile(r"exceeded \d+ environments|exceeds budget \d+")


def _require_count_budget(exc):
    """Re-raise a budget exit that is not a count budget."""
    if COUNT_BUDGET.search(str(exc)) is None:
        raise exc


def _welldef_corpus(rng, n):
    made = []
    while len(made) < n:
        e = parse(_random_penrc_src(rng, rng.randrange(1, 5), ["x", "y"]),
                  "penrc")
        gamma = {v: T(rng.choice(GAMMA_POOL)) for v in free_vars(e)}
        made.append((e, gamma))
    return made


def test_ac5_welldef_bounds_validated_on_corpus():
    rng = random.Random(5050)
    agreed = 0
    while agreed < 200:
        (e, gamma), = _welldef_corpus(rng, 1)
        card = complexity(e, 1)
        n_atoms = len(atom_supply(e, gamma, card)[0]) or 1
        try:
            derived = well_defined_penrc(e, gamma, **SEARCH_OPTS)
            enlarged = brute_force_verdict(e, gamma, "welldef", card + 1,
                                           n_atoms + 1, **BRUTE_OPTS)
        except BudgetExceededError as exc:
            _require_count_budget(exc)
            continue
        assert derived.result == enlarged.result, (e, gamma)
        agreed += 1


def test_ac5_typecheck_bounds_validated_on_corpus():
    rng = random.Random(6060)
    agreed = 0
    while agreed < 200:
        (e, gamma), = _welldef_corpus(rng, 1)
        tau = T(rng.choice(TYPE_POOL))
        k = type_complexity(tau)
        card = complexity(e, max(k, 1))
        n_atoms = len(atom_supply(e, gamma, card)[0]) or 1
        try:
            if not well_defined_penrc(e, gamma, **SEARCH_OPTS).result:
                continue
            derived = typecheck_penrc(e, gamma, tau, **SEARCH_OPTS)
            enlarged = brute_force_verdict(e, gamma, "type", card + 1,
                                           n_atoms + 1, tau=tau,
                                           **BRUTE_OPTS)
        except BudgetExceededError as exc:
            _require_count_budget(exc)
            continue
        assert derived.result == enlarged.result, (e, gamma, tau)
        agreed += 1


# ---------------------------------------------------------------------------
# 6. Relational algebra end-to-end: compiled queries agree with the
#    reference evaluator on every database, under both oracle suites.


RA_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}


def _ra_layer(prev):
    out = []
    for q in prev:
        attrs = ra_schema(q, RA_SCHEMA)
        for p in itertools.permutations(attrs, 2):
            out.append(Select(p[0], p[1], q))
        for n in range(1, len(attrs) + 1):
            for proj in itertools.combinations(attrs, n):
                out.append(Project(proj, q))
        for old in attrs:
            for new in ("Z", "W"):
                if new not in attrs:
                    out.append(Rename(old, new, q))
    for q1, q2 in itertools.product(prev, repeat=2):
        a1, a2 = ra_schema(q1, RA_SCHEMA), ra_schema(q2, RA_SCHEMA)
        if not set(a1) & set(a2):
            out.append(Product(q1, q2))
        if a1 == a2:
            out.append(RaUnion(q1, q2))
            out.append(Diff(q1, q2))
    return out


def _ra_exprs(depth):
    base = [Relation("R"), Relation("S")]
    levels = [base]
    for _ in range(depth):
        levels.append(_ra_layer(levels[-1]))
    seen = list(dict.fromkeys(q for level in levels for q in level))
    return seen


def _all_dbs(atoms, max_tuples):
    def rels(arity):
        rows = list(itertools.product(atoms, repeat=arity))
        return [set(c) for n in range(max_tuples + 1)
                for c in itertools.combinations(rows, n)]
    return [{"R": r, "S": s} for r in rels(2) for s in rels(2)]


def _check_ra(q, db, oracles):
    attrs = ra_schema(q, RA_SCHEMA)
    expr, _gamma = compile_ra(q, RA_SCHEMA)
    out = eval_rx(expr, encode_db(db, RA_SCHEMA), oracles)
    assert out.is_defined, q
    assert decode_relation(out.value, attrs) == \
        eval_ra(q, db, RA_SCHEMA), (q, db)


def test_ac6_ra_compiler_exhaustive_depth2():
    dbs = _all_dbs(("1", "2"), 1)
    for q in _ra_exprs(2):
        for db in dbs:
            _check_ra(q, db, DEFAULT_ORACLES)


def test_ac6_ra_compiler_depth3_both_oracles():
    rng = random.Random(40)
    depth3 = _ra_exprs(3)
    sample = rng.sample(depth3, 30)
    dbs = rng.sample(_all_dbs(("1", "2", "3"), 2), 4)
    for q in sample:
        for db in dbs:
            for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
                _check_ra(q, db, oracles)


# ---------------------------------------------------------------------------
# 7. Dependency reduction: the compiled tests report satisfaction
#    exactly, and both reduction sides are defined with outputs in the
#    declared output type.


DEP_ATTRS = ("A1", "A2")
FD_SAT = EMPTY_SET
FD_UNSAT = vset(ElemNode(Atom("A1"), EMPTY_SET))
IND_SAT = vset(ElemNode(Atom("A1"), vset(ElemNode(Atom("A1"), EMPTY_SET))))
IND_UNSAT = IND_SAT.union(FD_UNSAT)

DEPS = [FD(("A1",), ("A2",)), FD(("A2",), ("A1",)),
        FD(("A1", "A2"), ("A1",)),
        IND(("A1",), ("A2",)), IND(("A2",), ("A1",)),
        IND(("A1", "A2"), ("A2", "A1"))]


def _small_relations():
    rows = list(itertools.product(("a", "b"), repeat=2))
    return [set(c) for n in range(3)
            for c in itertools.combinations(rows, n)]


def test_ac7_dependency_tests_report_exact_values():
    from nrcx.frontend import Var
    for dep in DEPS:
        expr = dependency_expr(dep, Var("r"), DEP_ATTRS)
        for rel in _small_relations():
            out = eval_rx(expr, {"r": encode_relation(rel, DEP_ATTRS)})
            assert out.is_defined, (dep, rel)
            sat = relation_satisfies(rel, DEP_ATTRS, dep)
            if isinstance(dep, FD):
                expect = FD_SAT if sat else FD_UNSAT
            else:
                expect = IND_SAT if sat else IND_UNSAT
            assert out.value == expect, (dep, rel)


def test_ac7_reduction_sides_defined_with_typed_output():
    cases = [([FD(("A1",), ("A2",))], IND(("A1",), ("A2",))),
             ([IND(("A1",), ("A2",))], FD(("A1",), ("A2",))),
             ([], FD(("A1",), ("A2",)))]
    domain = enumerate_values(RELATION_TYPE, 2, [A, B])
    for sigma_deps, rho in cases:
        e1, e2, gamma, gtype = build_fd_id_reduction(sigma_deps, rho, 2,
                                                     DEP_ATTRS)
        assert set(gamma) == {"r"}
        assert gamma["r"] == RELATION_TYPE
        for v in domain:
            for e in (e1, e2):
                out = eval_rx(e, {"r": v})
                assert out.is_defined, (sigma_deps, rho, v)
                assert member(out.value, gtype), (sigma_deps, rho, v)


def test_ac7_reduction_decides_implication():
    sigma = [FD(("A1",), ("A2",))]
    true_rho = FD(("A1", "A2"), ("A2",))
    false_rho = IND(("A1",), ("A2",))

    def reduces(rho):
        e1, e2, _gamma, _t = build_fd_id_reduction(sigma, rho, 2, DEP_ATTRS)
        for rel in _small_relations():
            env = {"r": encode_relation(rel, DEP_ATTRS, tag=DEP_ATTRS[0])}
            v1 = eval_rx(e1, env).value
            v2 = eval_rx(e2, env).value
            if not set(v1.elems) <= set(v2.elems):
                return False
        return True

    assert reduces(true_rho) is True
    assert reduces(false_rho) is False


# ---------------------------------------------------------------------------
# 8. Emptiness tests are expressible through type switches.


def _rx_with_ifempty(depth, leaves):
    if depth == 0:
        return leaves
    prev = _rx_with_ifempty(depth - 1, leaves)
    out = list(prev)
    for s in prev:
        out.append(f"(children {s})")
        out.append(f"(data {s})")
    for s1 in leaves:
        for s2 in prev:
            out.append(f"(ifempty {s1} {s2} (lit m))")
            out.append(f"(seq {s1} {s2})")
    return out


def test_ac8_emptiness_desugaring_agreement_exhaustive():
    leaves = ["x", "(lit a)", "(empty)"]
    envs = [{"x": EMPTY_SET}, {"x": vset(A)}, {"x": vset(DataNode(B))},
            {"x": vset(ElemNode(A, EMPTY_SET))},
            {"x": vset(ElemNode(A, vset(DataNode(B))), DataNode(A))}]
    for src in _rx_with_ifempty(2, leaves):
        e = parse(src, "rx")
        d = desugar_emptiness(e)
        for env in envs:
            for oracles in (DEFAULT_ORACLES, ALT_ORACLES):
                o1 = eval_rx(e, env, oracles)
                o2 = eval_rx(d, env, oracles)
                assert o1.is_defined == o2.is_defined, (src, env)
                if o1.is_defined:
                    assert o1.value == o2.value, (src, env)


def _random_rx(rng, depth, vars_):
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(empty)"])
    s = lambda: _random_rx(rng, depth - 1, vars_)  # noqa: E731
    v = f"v{depth}"
    return rng.choice([
        f"(text {s()})", f"(data {s()})", f"(name {s()})",
        f"(children {s()})", f"(elem {s()} {s()})", f"(seq {s()} {s()})",
        f"(ifeq {s()} {s()} {s()} {s()})",
        f"(ifempty {s()} {s()} {s()})",
        f"(for {v} (kind-any) {s()} "
        f"{_random_rx(rng, depth - 1, vars_ + [v])})",
    ])


def test_ac8_emptiness_desugaring_agreement_random():
    rng = random.Random(88)
    universe = [v for v in pure_universe([A, B], 2) if isinstance(v, VSet)]
    for _ in range(250):
        e = parse(_random_rx(rng, rng.randrange(1, 4), ["x", "y"]), "rx")
        d = desugar_emptiness(e)
        for _ in range(6):
            env = {v: rng.choice(universe) for v in free_vars(e)}
            o1 = eval_rx(e, env)
            o2 = eval_rx(d, env)
            assert o1.is_defined == o2.is_defined, (e, env)
            if o1.is_defined:
                assert o1.value == o2.value, (e, env)


# ---------------------------------------------------------------------------
# 9. Satisfiability.


def test_ac9_satisfiability_examples():
    assert satisfiable_penrc(parse("(empty)", "penrc"), {}).result is False
    assert satisfiable_penrc(parse("(sing (empty))", "penrc"), {}).result


def _direct_satisfiable(e, gamma):
    """Independent bounded search: does any compatible environment at
    the procedure's own bounds yield output outside coll(void)?"""
    card = complexity(e, max(type_complexity(CollT(VoidT())), 1))
    atoms, _ = atom_supply(e, gamma, card)
    if not atoms:
        atoms = [A]
    names = sorted(gamma)
    domains = [enumerate_values(gamma[x], card, atoms) for x in names]
    for combo in itertools.product(*domains):
        out = eval_penrc(e, dict(zip(names, combo)))
        if not out.is_defined:
            raise AssertionError("not well defined")
        if not member(out.value, CollT(VoidT())):
            return True
    return False


def test_ac9_satisfiability_agrees_with_direct_search():
    rng = random.Random(9090)
    agreed = 0
    while agreed < 60:
        e = parse(_random_penrc_src(rng, rng.randrange(1, 4), ["x", "y"]),
                  "penrc")
        gamma = {v: T(rng.choice(GAMMA_POOL)) for v in free_vars(e)}
        try:
            if not well_defined_penrc(e, gamma, **SEARCH_OPTS).result:
                continue
            verdict = satisfiable_penrc(e, gamma, **SEARCH_OPTS)
        except BudgetExceededError as exc:
            _require_count_budget(exc)
            continue
        assert verdict.result == _direct_satisfiable(e, gamma), (e, gamma)
        if verdict.result:
            out = eval_penrc(e, verdict.counterexample)
            assert out.is_defined
            assert not member(out.value, CollT(VoidT()))
        agreed += 1
