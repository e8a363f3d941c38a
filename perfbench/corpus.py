"""The three workloads, generated from the seed alone.

A corpus is a list of problems in plain data.  It does not depend on
nrcx, so the parent commit and a change receive the same corpus for a
seed; ``digest`` fingerprints it.  ``prepare`` in run.py turns it into
request files, which is where nrcx is first used.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from reference import free_vars, read, search_bounds, space_size

WORKLOADS = ("ra_eval", "check_penrc", "check_pure_rx")

# Count-based search budget passed to every check request; `--timeout`
# is a safety net far above any request's time at seed.
MAX_ENVS = 10 ** 6
SAFETY_TIMEOUT_S = 60

# ---------------------------------------------------------------------------
# ra_eval: a seeded sample of the RA compiler acceptance test's depth-3
# queries over R(A,B), S(C,D), each run on two seeded databases.

RA_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}
RA_VALUES = ("1", "2", "3")
RA_DEPTH = 3
RA_RANDOM = 200
# (|R|, |S|) of each sampled query's databases.  Fixed sizes keep the
# work per pass alike across seeds; the seed picks the tuples.  Two
# databases for each of 200 queries vary less from seed to seed than
# four for each of 100, at the same number of requests.
RA_DB_SIZES = ((2, 5), (5, 2))
# A wide difference over |R| = 3, |S| = 1 compares 3 * 3 tuple pairs, in
# about 0.3 s, more than almost any sampled query takes.
RA_WIDE_DB_SIZES = ((3, 1),) * 4
# The sample's one departure from the enumeration: every difference in
# a sampled query has at most two attributes.  The membership test of a
# k-attribute difference runs 3^(2k) loop bodies per pair of tuples, so
# one four-attribute difference would outweigh the rest of a pass.
RA_MAX_DIFF_ATTRS = 2


def _attrs(q):
    head = q[0]
    if head == "rel":
        return RA_SCHEMA[q[1]]
    if head == "select":
        return _attrs(q[3])
    if head == "project":
        return tuple(q[1])
    if head == "product":
        return _attrs(q[1]) + _attrs(q[2])
    if head == "rename":
        return tuple(q[2] if a == q[1] else a for a in _attrs(q[3]))
    return _attrs(q[1])


def _ra_layer(prev):
    """One level of the acceptance test's enumeration: every select on
    two distinct attributes, nonempty projection and rename to Z or W
    of a query of `prev`, then every product of disjoint schemas and
    every union and difference of equal schemas of two of them."""
    attrs = [_attrs(q) for q in prev]
    for q, a in zip(prev, attrs):
        yield from (("select", x, y, q)
                    for x, y in itertools.permutations(a, 2))
        yield from (("project", keep, q) for n in range(1, len(a) + 1)
                    for keep in itertools.combinations(a, n))
        yield from (("rename", old, new, q) for old in a
                    for new in ("Z", "W") if new not in a)
    for (q1, a1), (q2, a2) in itertools.product(zip(prev, attrs), repeat=2):
        if not set(a1) & set(a2):
            yield ("product", q1, q2)
        if a1 == a2:
            yield ("ra-union", q1, q2)
            yield ("diff", q1, q2)


def ra_enumeration():
    """Every query of depth <= RA_DEPTH, in the acceptance test's order.
    The last level, which holds almost all of them, is generated lazily.
    No query occurs twice, so the test's de-duplication is left out."""
    levels = [[("rel", "R"), ("rel", "S")]]
    for _ in range(RA_DEPTH - 1):
        levels.append(list(_ra_layer(levels[-1])))
    for level in levels:
        yield from level
    yield from _ra_layer(levels[-1])


def _children(q):
    if q[0] == "rel":
        return ()
    if q[0] in ("select", "rename"):
        return (q[3],)
    if q[0] == "project":
        return (q[2],)
    return (q[1], q[2])


def ra_classified():
    """(query, cost class, widest difference) over the enumeration.  The
    class says whether a query holds a difference, a product, and more
    than one relation reference."""
    memo = {}  # id of a subquery -> (relation refs, product?, widest diff)

    def combine(q):
        kids = [summarize(c) for c in _children(q)]
        return (sum(k[0] for k in kids) if kids else 1,
                q[0] == "product" or any(k[1] for k in kids),
                max([len(_attrs(q)) if q[0] == "diff" else 0]
                    + [k[2] for k in kids]))

    def summarize(sub):
        # Subqueries live as long as the enumeration, so their ids are
        # stable keys; a yielded query is summarized without the memo.
        if id(sub) not in memo:
            memo[id(sub)] = combine(sub)
        return memo[id(sub)]

    for q in ra_enumeration():
        refs, product, widest = combine(q)
        if widest:
            c = "diff+product" if product else "diff"
        else:
            c = "product" if product else "union" if refs > 1 else "single"
        yield q, c, widest


def ra_class_counts():
    """{class: (queries, queries within the difference cap)}."""
    counts = {}
    for _q, c, widest in ra_classified():
        n, capped = counts.get(c, (0, 0))
        counts[c] = (n + 1, capped + (widest <= RA_MAX_DIFF_ATTRS))
    return dict(sorted(counts.items()))


def _quotas(counts, n):
    """n split in proportion to counts, by largest remainder."""
    total = sum(counts.values())
    exact = {c: n * k / total for c, k in counts.items()}
    quota = {c: int(x) for c, x in exact.items()}
    by_remainder = sorted(exact, key=lambda c: (quota[c] - exact[c], c))
    for c in by_remainder[:n - sum(quota.values())]:
        quota[c] += 1
    return quota


def _wide_diffs():
    """The four three-attribute differences between R x pi_C S and
    R x pi_D S (D renamed to C): their membership test runs 3^6 loop
    bodies per pair of tuples.  Their 16 requests hold the tail, so it
    is a middle order statistic of many similar requests rather than the
    latency of one."""
    by_c = ["product", ["rel", "R"], ["project", ["C"], ["rel", "S"]]]
    by_d = ["product", ["rel", "R"],
            ["rename", "D", "C", ["project", ["D"], ["rel", "S"]]]]
    return [["diff", a, b] for a in (by_c, by_d) for b in (by_c, by_d)]


def _random_db(rng, sizes):
    rows = [(a, b) for a in RA_VALUES for b in RA_VALUES]
    return {r: sorted(rng.sample(rows, n)) for r, n in zip(RA_SCHEMA, sizes)}


def ra_corpus(rng):
    """The wide differences, then RA_RANDOM queries sampled uniformly
    from the enumeration within each cost class.  Each class gets its
    share of the whole enumeration, so every seed gets the same mix.
    The enumeration is walked twice, to count and to pick, so that it
    is never held in memory."""
    counts = ra_class_counts()
    quota = _quotas({c: n for c, (n, _) in counts.items()}, RA_RANDOM)
    picks = {c: set(rng.sample(range(capped), quota[c]))
             for c, (_, capped) in counts.items()}
    seen = dict.fromkeys(counts, 0)
    queries = _wide_diffs()
    for q, c, widest in ra_classified():
        if widest <= RA_MAX_DIFF_ATTRS:
            if seen[c] in picks[c]:
                queries.append(json.loads(json.dumps(q)))
            seen[c] += 1
    rng.shuffle(queries)
    problems = []
    for qi, q in enumerate(queries):
        wide = q[0] == "diff" and len(_attrs(q)) == 3
        for di, sizes in enumerate(RA_WIDE_DB_SIZES if wide else RA_DB_SIZES):
            problems.append({
                "id": f"ra{qi:03d}-db{di}", "kind": "ra", "query": q,
                "db": _random_db(rng, sizes),
                "oracle": rng.choice(("default", "alt"))})
    return problems


# ---------------------------------------------------------------------------
# check_penrc: curated query-shaped problems with hand-written verdicts,
# plus seeded random problems admitted by the size of their search space.

REL = "((R (coll (prod (atom) (atom)))))"
SETS2 = "((x (coll (coll (atom)))) (y (coll (coll (atom)))))"
SWAP = "(for r R (pair (snd r) (fst r)))"
CROSS = "(for a x (for b y (sing (pair a b))))"
SELECT = "(flatten (for r R (ifeq (fst r) (snd r) (sing r) (empty))))"
PROJECT = "(for r R (fst r))"
AC1 = "(for x R (for y x (ifeq z y (fst z) (sing y))))"
AC1_GAMMA = "((R (coll (coll (atom)))) (z (atom)))"
KINDS = "((x (coll (sum (atom) (coll (atom))))))"
UNION3 = "(union (union x y) z)"
SETS3 = "((x (coll (atom))) (y (coll (atom))) (z (coll (atom))))"
SUMS2 = ("((x (coll (sum (atom) (coll (atom))))) "
         "(y (coll (sum (atom) (coll (atom))))))")
NESTED = "((x (coll (prod (atom) (coll (atom))))))"

# (name, mode, expression, gamma, output type, expected, extra args).
# expected is the verdict an exact procedure gives: "holds", "fails",
# or "undefined" (type/sat precondition fails, exit 1).
PENRC_CURATED = [
    ("swap", "welldef", SWAP, REL, None, "holds", []),
    ("cross", "welldef", CROSS, "((x (coll (atom))) (y (coll (atom))))",
     None, "holds", []),
    ("union", "welldef", "(union x y)", SETS2, None, "holds", []),
    ("union", "type", "(union x y)", SETS2, "(coll (coll (atom)))",
     "holds", []),
    ("union-void", "type", "(union x y)", SETS2, "(coll (void))",
     "fails", []),
    ("union", "sat", "(union x y)", SETS2, None, "holds", []),
    ("union-budget", "type", "(union x y)", SETS2, "(coll (coll (atom)))",
     "holds", ["--max-envs", "300"]),
    ("flatten-union", "welldef", "(flatten (union x y))", SETS2, None,
     "holds", []),
    ("flatten-union", "type", "(flatten (union x y))", SETS2,
     "(coll (atom))", "holds", []),
    ("flatten-union", "sat", "(flatten (union x y))", SETS2, None,
     "holds", []),
    ("flatten-union-budget", "type", "(flatten (union x y))", SETS2,
     "(coll (atom))", "holds", ["--max-envs", "300"]),
    ("flatten", "welldef", "(flatten x)", "((x (coll (coll (atom)))))",
     None, "holds", []),
    ("union3", "welldef", UNION3, SETS3, None, "holds", []),
    ("union3", "type", UNION3, SETS3, "(coll (atom))", "holds", []),
    ("union3", "sat", UNION3, SETS3, None, "holds", []),
    ("union-sum", "welldef", "(union x y)", SUMS2, None, "holds", []),
    ("union-sum", "type", "(union x y)", SUMS2,
     "(coll (sum (atom) (coll (atom))))", "holds", []),
    ("union-sum", "sat", "(union x y)", SUMS2, None, "holds", []),
    ("nested-project", "welldef", "(for p x (fst p))", NESTED, None, "holds",
     []),
    ("nested-project", "type", "(for p x (fst p))", NESTED, "(coll (atom))",
     "holds", []),
    ("nested-project", "sat", "(for p x (fst p))", NESTED, None, "holds", []),
    ("select", "welldef", SELECT, REL, None, "holds", []),
    ("select", "type", SELECT, REL, "(coll (prod (atom) (atom)))",
     "holds", []),
    ("select", "sat", SELECT, REL, None, "holds", []),
    ("project", "welldef", PROJECT, REL, None, "holds", []),
    ("project", "type", PROJECT, REL, "(coll (atom))", "holds", []),
    ("project", "sat", PROJECT, REL, None, "holds", []),
    ("ac1", "welldef", AC1, AC1_GAMMA, None, "fails", []),
    ("ac1-unpruned", "welldef", AC1, AC1_GAMMA, None, "fails",
     ["--no-prune"]),
    ("ac1", "type", AC1, AC1_GAMMA, "(coll (coll (atom)))", "undefined",
     []),
    ("kind-switch", "welldef", "(for v x (ifkind v (kind-atom) v (fst v)))",
     KINDS, None, "fails", []),
    ("kind-switch", "type",
     "(flatten (for v x (ifkind v (kind-coll) v (sing v))))", KINDS,
     "(coll (atom))", "holds", []),
    ("kind-switch", "sat",
     "(flatten (for v x (ifkind v (kind-coll) v (sing v))))", KINDS, None,
     "holds", []),
]

GAMMA_POOL = ["(atom)", "(coll (atom))", "(prod (atom) (atom))",
              "(coll (coll (atom)))", "(sum (atom) (coll (atom)))",
              "(coll (prod (atom) (atom)))"]
TYPE_POOL = ["(atom)", "(coll (atom))", "(coll (void))",
             "(coll (coll (atom)))", "(prod (atom) (atom))",
             "(sum (atom) (coll (atom)))", "(coll (prod (atom) (atom)))",
             "(coll (sum (atom) (coll (atom))))", "(void)",
             "(sum (coll (atom)) (prod (atom) (atom)))"]
PENRC_RANDOM = 200
# Admission: a random problem joins the corpus only if every search the
# request runs covers at most this many environments before pruning.
# The reference confirms each admitted verdict by visiting all of them.
PENRC_ADMIT_MAX_SPACE = 2000


def _random_penrc(rng, depth, vars_):
    """The acceptance suite's random expression grammar."""
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(empty)"])

    def s():
        return _random_penrc(rng, depth - 1, vars_)

    v = f"v{depth}"
    return rng.choice([
        lambda: f"(fst {s()})", lambda: f"(snd {s()})",
        lambda: f"(sing {s()})", lambda: f"(flatten {s()})",
        lambda: f"(pair {s()} {s()})", lambda: f"(union {s()} {s()})",
        lambda: f"(for {v} {s()} "
                f"{_random_penrc(rng, depth - 1, vars_ + [v])})",
        lambda: f"(ifeq {s()} {s()} {s()} {s()})",
        lambda: f"(ifkind {s()} (kind-atom) {s()} {s()})",
    ])()


def admitted(lang, expr, gamma, mode, tau, cap):
    """The admission rule, computed from the problem text alone with the
    paper's bound formulas: every search the request runs covers at most
    `cap` environments before pruning.  Type and sat requests run the
    well-definedness search first, so both spaces count."""
    e = read(expr)
    g = {x: read(t) for x, t in gamma.items()}
    t = read(tau) if tau else None
    for m in dict.fromkeys(("welldef", mode)):
        card, atoms, nested = search_bounds(e, g, m, t, lang)
        if space_size(nested, card, len(atoms), cap) > cap:
            return False
    return True


def check_corpus(rng, lang, curated, count, make_expr, gamma_pool,
                 type_pool, cap):
    """Curated problems plus `count` admitted random ones, shuffled."""
    problems = [
        _check_problem(f"{name}-{mode}", lang, mode, expr, gamma, tau,
                       expected, extra, "curated")
        for name, mode, expr, gamma, tau, expected, extra in curated]
    n = 0
    while n < count:
        expr = make_expr()
        gamma = {x: rng.choice(gamma_pool)
                 for x in sorted(free_vars(read(expr)))}
        mode = rng.choice(("welldef", "type", "sat"))
        tau = rng.choice(type_pool) if mode == "type" else None
        if admitted(lang, expr, gamma, mode, tau, cap):
            problems.append(_check_problem(
                f"random{n:03d}-{mode}", lang, mode, expr, _gamma_text(gamma),
                tau, None, [], "random"))
            n += 1
    rng.shuffle(problems)
    return problems


def _gamma_text(gamma):
    return "(" + " ".join(f"({x} {t})" for x, t in sorted(gamma.items())) + ")"


def _check_problem(pid, lang, mode, expr, gamma, tau, expected, extra,
                   origin):
    return {"id": pid, "kind": "check", "lang": lang, "mode": mode,
            "expr": expr, "gamma": gamma, "type": tau,
            "expected": expected, "extra": list(extra), "origin": origin}


# ---------------------------------------------------------------------------
# check_pure_rx: curated pure-RX problems whose encoded search space is
# mostly off the image of the value encoding.

DATA2 = "((x (coll (data))) (y (coll (data))))"
MIXED2 = "((x (coll (sum (atom) (data)))) (y (coll (sum (atom) (data)))))"
DATA1 = "((x (coll (data))))"
MIXED1 = "((x (coll (sum (atom) (data)))))"
ATOM_DATA = "((x (coll (atom))) (y (coll (data))))"
DATA_ATOM = "((x (coll (data))) (y (coll (atom))))"
ATOM_MIXED = "((x (coll (atom))) (y (coll (sum (atom) (data)))))"
ITEMS = "(coll (sum (atom) (data)))"
FOR_DATA = "(for v (kind-data) x (sing v))"

PURE_CURATED = [
    ("seq-data", "welldef", "(seq x y)", DATA2, None, "holds", []),
    ("seq-data", "type", "(seq x y)", DATA2, "(coll (data))", "holds", []),
    ("seq-data", "sat", "(seq x y)", DATA2, None, "holds", []),
    ("seq-mixed", "welldef", "(seq x y)", MIXED2, None, "holds", []),
    ("seq-mixed", "type", "(seq x y)", MIXED2, "(coll (data))", "fails",
     []),
    ("seq-mixed", "sat", "(seq x y)", MIXED2, None, "holds", []),
    ("seq-atom-data", "welldef", "(seq x y)", ATOM_DATA, None, "holds", []),
    ("seq-atom-data", "type", "(seq x y)", ATOM_DATA, ITEMS, "holds", []),
    ("seq-atom-data", "sat", "(seq x y)", ATOM_DATA, None, "holds", []),
    ("seq-data-atom", "welldef", "(seq x y)", DATA_ATOM, None, "holds", []),
    ("seq-data-atom", "type", "(seq x y)", DATA_ATOM, ITEMS, "holds", []),
    ("seq-data-atom", "sat", "(seq x y)", DATA_ATOM, None, "holds", []),
    ("seq-atom-mixed", "welldef", "(seq x y)", ATOM_MIXED, None, "holds",
     []),
    ("seq-atom-mixed", "type", "(seq x y)", ATOM_MIXED, ITEMS, "holds", []),
    ("seq-atom-mixed", "sat", "(seq x y)", ATOM_MIXED, None, "holds", []),
    ("data", "welldef", "(data x)", DATA1, None, "holds", []),
    ("data", "type", "(data x)", DATA1, "(coll (atom))", "holds", []),
    ("data", "sat", "(data x)", DATA1, None, "holds", []),
    ("data-mixed", "welldef", "(data x)", MIXED1, None, "holds", []),
    ("children", "welldef", "(children x)", DATA1, None, "holds", []),
    ("children", "type", "(children x)", DATA1, "(coll (void))", "holds",
     []),
    ("children", "sat", "(children x)", DATA1, None, "fails", []),
    ("for-data", "welldef", FOR_DATA, DATA1, None, "holds", []),
    ("for-data", "type", FOR_DATA, DATA1, "(coll (data))", "holds", []),
    ("for-data", "sat", FOR_DATA, DATA1, None, "holds", []),
    ("for-data-mixed", "welldef", FOR_DATA, MIXED1, None, "holds", []),
    ("for-data-mixed", "type", FOR_DATA, MIXED1, "(coll (data))", "holds",
     []),
    ("text", "welldef", "(text x)", "((x (atom)))", None, "holds", []),
    # The value-enumeration budget stops this one at seed (exit 5).
    ("names", "welldef", "(for v (kind-elem) x (sing (text (name v))))",
     "((x (coll (elem (data)))))", None, "holds", []),
]


PURE_GAMMA_POOL = ["(atom)", "(data)", "(coll (atom))", "(coll (data))",
                   "(coll (sum (atom) (data)))", "(elem (data))"]
PURE_TYPE_POOL = ["(atom)", "(data)", "(coll (atom))", "(coll (data))",
                  "(coll (void))", "(coll (sum (atom) (data)))",
                  "(sum (atom) (data))"]
PURE_KINDS = ["(kind-any)", "(kind-atom)", "(kind-data)", "(kind-elem)"]
PURE_RANDOM = 100
PURE_ADMIT_MAX_SPACE = 500


def _random_pure(rng, depth, vars_):
    """The acceptance suite's random pure-RX grammar."""
    if depth == 0:
        return rng.choice(vars_ + ["(lit a)", "(lit b)", "(empty)"])

    def s():
        return _random_pure(rng, depth - 1, vars_)

    v = f"v{depth}"
    return rng.choice([
        lambda: f"(text {s()})", lambda: f"(data {s()})",
        lambda: f"(name {s()})", lambda: f"(children {s()})",
        lambda: f"(sing {s()})", lambda: f"(elem {s()} {s()})",
        lambda: f"(seq {s()} {s()})",
        lambda: f"(ifeq {s()} {s()} {s()} {s()})",
        lambda: f"(for {v} {rng.choice(PURE_KINDS)} {s()} "
                f"{_random_pure(rng, depth - 1, vars_ + [v])})",
    ])()


# ---------------------------------------------------------------------------


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ra_eval":
        return ra_corpus(rng)
    if workload == "check_penrc":
        return check_corpus(
            rng, "penrc", PENRC_CURATED, PENRC_RANDOM,
            lambda: _random_penrc(rng, rng.randrange(1, 5), ["x", "y"]),
            GAMMA_POOL, TYPE_POOL, PENRC_ADMIT_MAX_SPACE)
    if workload == "check_pure_rx":
        return check_corpus(
            rng, "pure-rx", PURE_CURATED, PURE_RANDOM,
            lambda: _random_pure(rng, rng.randrange(1, 4), ["x", "y"]),
            PURE_GAMMA_POOL, PURE_TYPE_POOL, PURE_ADMIT_MAX_SPACE)
    raise ValueError(f"unknown workload {workload!r}")


def digest(problems):
    text = json.dumps(problems, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]

