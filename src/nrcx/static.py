"""A static certificate that an expression of the nested calculus is
defined on every environment compatible with Γ, and of the type of its
outputs.

``certify`` evaluates e over Γ's type terms instead of over values: the
NRC typing of Buneman, Naqvi, Tannen and Wong (TCS 1995), refined by
case analysis on sums and kind tests as in occurrence typing
(Tobin-Hochstadt and Felleisen, POPL 2008).  An abstract value is a
tuple of cases, type terms with no sum outside a set, so that all the
values of one case have the same kind; ``coll(t)`` is "empty, or
elements of t".  Each undefinedness reason of ``penrc`` is a check on
the cases of an operand.  A kind test sends each case to the branch its
kind admits, and narrows a variable subject to those cases there;
``ifeq`` takes both branches.  What has no cases never runs: the body
of a comprehension over ``coll(void)``, a branch no case reaches, and
all of e when a Γ entry is void.

It is sound in one direction only: a failed check, or a spent step
budget, says nothing, and the search decides.
"""

from __future__ import annotations

from .frontend import (AtomLit, EmptySeq, IfEq, NComp, NFlatten, NKindCond,
                       NPair, NProj1, NProj2, NUnion, Sing, Var, fold_right)
from .penrc import (COMPREHENSION_ON_NONSET, EQ_ON_NONATOM,
                    FLATTEN_ON_NONSET, FLATTEN_ON_NONSET_OF_SETS,
                    PROJ_ON_NONPAIR, UNION_ON_NONSET)
from .typeterms import (AtomT, CollT, DataEncT, KAtom, KColl, KProd, KSum,
                        ProdT, SumT, VoidT)

STEP_BUDGET = 20_000


class _Unproved(Exception):
    """A case may be undefined (the reason), or the step budget is spent."""


def certify(e, gamma, tau=None):
    """None when e is not proved defined on every environment compatible
    with gamma; otherwise whether every output is proved to be of type
    tau (True without tau).  One evaluation answers both.  e has no
    emptiness test, and gamma declares its free variables."""
    cert = _Certifier()
    proved = None
    try:
        env = {x: cert.cases(t) for x, t in gamma.items()}
        if not all(env.values()):
            return True  # a void entry: no environment is compatible
        out = cert.eval(e, env)
        proved = False
        return tau is None or cert.below(out, tau)
    except (_Unproved, RecursionError):
        return proved


class _Certifier:
    def __init__(self):
        self.steps = 0
        # (id of e, id of env) -> (env, cases), for the subtrees that
        # translated expressions share; holding env keeps its id unique.
        self.memo = {}

    def charge(self, n):
        self.steps += n
        if self.steps > STEP_BUDGET:
            raise _Unproved("step budget")

    def cases(self, t):
        """The cases of type term t: sums split, also under products."""
        if isinstance(t, SumT):
            out = self.cases(t.left) + self.cases(t.right)
        elif isinstance(t, (AtomT, CollT, DataEncT, VoidT)):
            out = () if isinstance(t, VoidT) else (t,)
        elif isinstance(t, ProdT):  # after DataEncT, which is not split
            out = tuple(ProdT(a, b) for a in self.cases(t.left)
                        for b in self.cases(t.right))
        else:
            raise _Unproved(f"not an NRC type: {t!r}")
        self.charge(len(out) + 1)
        return tuple(dict.fromkeys(out))

    def eval(self, e, env):
        key = (id(e), id(env))
        if key not in self.memo:
            self.charge(1)
            out = _STATIC[type(e)](self, e, env)
            self.memo[key] = (env, tuple(dict.fromkeys(out)))
        return self.memo[key][1]

    def elements(self, sets, reason):
        """The cases of the elements of sets, which must all be sets."""
        if not all(isinstance(c, CollT) for c in sets):
            raise _Unproved(reason)
        return tuple(dict.fromkeys(
            sum((self.cases(c.item) for c in sets), ())))

    def below(self, cases, t):
        """Every value of the cases is of type t, syntactically."""
        targets = self.cases(t)
        return all(any(self.case_below(c, d) for d in targets)
                   for c in cases)

    def case_below(self, c, d):
        if isinstance(d, DataEncT):  # a product of its parts may be off it
            return isinstance(c, DataEncT)
        if isinstance(c, ProdT):
            return (isinstance(d, ProdT) and self.case_below(c.left, d.left)
                    and self.case_below(c.right, d.right))
        if isinstance(c, CollT):
            return (isinstance(d, CollT)
                    and self.below(self.cases(c.item), d.item))
        return isinstance(d, AtomT)


def _set_of(cases):
    """The one case of the sets of values of the cases."""
    return (CollT(fold_right(SumT, cases) if cases else VoidT()),)


def _admits(c, k):
    """All values of case c are of kind k (otherwise none is)."""
    if isinstance(k, KSum):
        return _admits(c, k.left) or _admits(c, k.right)
    if isinstance(k, KProd):
        return (isinstance(c, ProdT) and _admits(c.left, k.left)
                and _admits(c.right, k.right))
    return (isinstance(k, KAtom) and isinstance(c, AtomT)
            or isinstance(k, KColl) and isinstance(c, CollT))


def _pair(cert, e, env):
    left, right = cert.eval(e.left, env), cert.eval(e.right, env)
    cert.charge(len(left) * len(right))
    return [ProdT(a, b) for a in left for b in right]


def _proj(part):
    def proj(cert, e, env):
        cases = cert.eval(e.body, env)
        if not all(isinstance(c, ProdT) for c in cases):
            raise _Unproved(PROJ_ON_NONPAIR)
        return [getattr(c, part) for c in cases]
    return proj


def _union(cert, e, env):
    sets = cert.eval(e.left, env) + cert.eval(e.right, env)
    return _set_of(cert.elements(sets, UNION_ON_NONSET))


def _flatten(cert, e, env):
    inner = cert.elements(cert.eval(e.body, env), FLATTEN_ON_NONSET)
    return _set_of(cert.elements(inner, FLATTEN_ON_NONSET_OF_SETS))


def _comprehension(cert, e, env):
    # A map, {body(v) | v in source}: its elements are the body's values.
    # With no element cases the source is empty, and the body never runs.
    elems = cert.elements(cert.eval(e.source, env), COMPREHENSION_ON_NONSET)
    return _set_of(cert.eval(e.body, {**env, e.var: elems}) if elems else ())


def _if_eq(cert, e, env):
    operands = cert.eval(e.left, env) + cert.eval(e.right, env)
    if not all(isinstance(c, AtomT) for c in operands):
        raise _Unproved(EQ_ON_NONATOM)
    return cert.eval(e.then, env) + cert.eval(e.els, env)


def _if_kind(cert, e, env):
    cases = cert.eval(e.subject, env)
    out = ()
    for branch, admitted in ((e.then, True), (e.els, False)):
        part = tuple(c for c in cases if _admits(c, e.kind) == admitted)
        if part and isinstance(e.subject, Var) and part != cases:
            out += cert.eval(branch, {**env, e.subject.name: part})
        elif part:  # a branch with no cases never runs
            out += cert.eval(branch, env)
    return out


# The emptiness test has no row: the decision procedures reject it.
_STATIC = {
    Var: lambda cert, e, env: env[e.name],
    AtomLit: lambda cert, e, env: (AtomT(),), NPair: _pair,
    NProj1: _proj("left"), NProj2: _proj("right"),
    EmptySeq: lambda cert, e, env: (CollT(VoidT()),),
    Sing: lambda cert, e, env: _set_of(cert.eval(e.body, env)),
    NUnion: _union, NFlatten: _flatten, NComp: _comprehension,
    IfEq: _if_eq, NKindCond: _if_kind,
}
