"""Evaluators for set-based RX and pure RX.

Evaluation is total as a Python function: the result is an
``EvalOutcome`` that is either ``Defined(value)`` or
``Undefined(reason, expr)`` where ``expr`` is the innermost failing
subexpression.  Both evaluators desugar on entry and run only the core
forms, so ``expr`` is a core form (``for*`` fails at a ``for``,
``cond`` at an ``ifeq``).  Set-based RX is parameterized by an
``OracleSuite`` (the string-content and string-join behaviors of
XQuery).

Evaluation is in two steps.  ``compile_rx`` and ``compile_pure_rx``
compile the desugared expression once into a tree of closures: a
``Compiler`` looks up the builder of each AST class in the calculus's
table (``_RX``, ``_PURE``; ``penrc`` has its own), and resolves every
variable to a slot of a register list.  The program that results maps
an environment to an outcome, and ``eval_rx`` / ``eval_pure_rx`` run it
once, after checking that the environment binds each of its free
variables, and each name to a value of the calculus (ValueError
otherwise).

The set-based RX ``for`` is compiled with two rewrites that move work
out of loops (Wong's filter promotion for NRC normal forms, applied to
the closures):

* Guard pushdown.  Take a ``for`` whose body is a chain of ``for``s
  ending in ``(ifeq l r then (empty))``, where neither l, r nor a
  source of the chain names a variable of the chain.  Per binding of
  the outer ``for``, the chain's sources are evaluated in order, up to
  the first with no element of its kind (the result is then empty);
  then the guard is tested once, and the chain runs over the values
  already computed, with body then, only if it holds.  then is compiled
  the same way, so each leading conjunct of a ``cond`` is tested in the
  loop that binds its last variable.  Only a leading conjunct moves: a
  later one may be undefined where an earlier one is false.
* Loop-invariant sources.  A source that is not a variable, and names
  no variable of the enclosing loops from some loop L inward, is
  evaluated once per run of L, at its first use.  L is the loop just
  inside the innermost binder that the source's closure reads, which
  the compiler records as it builds the closure (``Compiler.reads``),
  so the source is not walked again.  Guard pushdown still tests the
  names of the guard's operands and of the sources it moves
  (``frontend.free_vars``), since the chain's variables are not bound
  where they are compiled.

Both are exact because every form is pure and deterministic.  The
evaluations made, up to the first that fails, are those of the original
order: a skipped evaluation either repeats a value already computed, or
would run under a guard that is false and whose else branch is empty,
or over an empty source.  So the value, the undefinedness reason and
the failing form are unchanged.

Undefinedness reasons for pure RX go slightly beyond the obvious list:
any operation that iterates its operand (data, children, for-sources,
element content, sequence operands, loop bodies under the big union) is
undefined on a bare item, which is exactly the behavior forced by the
simulation into the nested calculus.
"""

from __future__ import annotations

from operator import attrgetter

from .frontend import (AtomLit, ChildrenF, DataF, Elem, EmptySeq, For,
                       IfEmpty, IfEq, IfType, NameF, Seq, Sing, Text, Var,
                       desugar, free_vars)
from .record import record
from .typeterms import kind_filter, kind_member, member
from .values import (EMPTY_SET, Atom, DataNode, ElemNode, VSet,
                     is_pure_rx_value, is_rx_value, vset)


# Reason codes for undefined outcomes.
CONSTRUCT_NAME_NOT_SINGLETON = "construct-name-not-singleton"
NAME_NOT_SINGLETON_ELEM = "name-not-singleton-elem"
CHILDREN_SAW_ATOM = "children-saw-atom"
EQ_NOT_SINGLETON_ATOM = "eq-not-singleton-atom"

TEXT_ON_NONATOM = "text-on-nonatom"
CONSTRUCT_NAME_NOT_ATOM = "construct-name-not-atom"
NAME_NOT_ELEM = "name-not-elem"
SINGLETON_OF_NONITEM = "singleton-of-nonitem"
SEQ_OPERAND_NOT_SET = "seq-operand-not-set"
EQ_ON_NONATOM = "eq-on-nonatom"
ITERATION_OVER_NONSET = "iteration-over-nonset"
BODY_NOT_SET = "for-body-not-set"


@record
class Defined:
    value: object

    @property
    def is_defined(self):
        return True


@record
class Undefined:
    reason: str
    expr: object = None

    @property
    def is_defined(self):
        return False


EvalOutcome = Defined | Undefined


class _Undef(Exception):
    def __init__(self, reason, expr=None):
        self.reason = reason
        self.expr = expr


class Compiler:
    """Compiles one expression into a tree of closures.

    ``builders`` maps each AST class of a calculus to a function
    ``build(compiler, e)`` that returns the closure of e, built from
    the closures of its subexpressions (``compiler.expr``).  A closure
    takes the register list of one run and returns the value of its
    expression, or raises ``_Undef``.  Variables resolve to registers
    here: each free variable gets one, filled from the environment when
    the program runs, and each binder occurrence gets one, written
    before its body runs.  A subexpression shared by several parents
    (desugaring shares the branches of ``cond``, the translation its
    operands) is compiled once per scope.  ``context`` is what the
    builders of a calculus need besides the expression (the oracles of
    set-based RX).

    While it builds a closure, the compiler records which enclosing
    binders the subexpression reads (``reads``), bottom up: a variable
    reads its binder, a node reads what its subexpressions read, and a
    binding drops its own binder from what its body reads.  The binders
    in scope are numbered by depth, the outermost 0, and a set of them
    is a bitmask.  ``loops`` is kept by the builders that move work out
    of loops (the set-based RX ``for``, whose every binder is a loop):
    one frame per enclosing binder, outermost first, each the list of
    slots to clear when that loop starts a run.
    """

    def __init__(self, builders, what, context=None):
        self.builders = builders
        self.what = what
        self.context = context
        # The binders in scope: name -> (slot, the bit of its depth).
        self.scope = {}
        self.free = {}
        self.n_slots = 0
        self.loops = []
        self._depth = 0
        # The binders read by the closures built since the innermost
        # open expr() call began.
        self._reads = 0
        # The closures compiled in the current scope and the binders
        # they read, by id of the AST node (the caller holds the whole
        # tree, so ids stay unique).
        self._memo = {}
        # The free variables of the nodes that _movable tests, by id
        # (frontend.free_vars).
        self._free_vars = {}
        # typeterms.kind_filter of each kind compiled, by id.
        self._kind_filters = {}

    def expr(self, e):
        hit = self._memo.get(id(e))
        if hit is None:
            build = self.builders.get(type(e))
            if build is None:
                raise TypeError(f"not {self.what}: {e!r}")
            outer, self._reads = self._reads, 0
            hit = self._memo[id(e)] = (build(self, e), self._reads)
            self._reads = outer
        self._reads |= hit[1]
        return hit[0]

    def reads(self, e):
        """The binders that the closure of e, compiled in this scope,
        reads: bit d stands for the binder at depth d."""
        return self._memo[id(e)][1]

    def var(self, name):
        bound = self.scope.get(name)
        if bound is not None:
            slot, bit = bound
            self._reads |= bit
        else:
            slot = self.free.get(name)
            if slot is None:
                slot = self.free[name] = self._slot()
        return lambda r: r[slot]

    def free_vars(self, e):
        return free_vars(e, self._free_vars)

    def kind_filter(self, k):
        """typeterms.kind_filter(k), worked out once per kind."""
        out = self._kind_filters.get(id(k))
        if out is None:
            out = self._kind_filters[id(k)] = kind_filter(k)
        return out

    def bind(self, var, body, build=None):
        """The slot of a new binding of var, and the closure of body
        under it, built by build(body) (by default, self.expr)."""
        slot = self._slot()
        outer, memo, depth = self.scope, self._memo, self._depth
        self.scope = {**outer, var: (slot, 1 << depth)}
        self._memo, self._depth = {}, depth + 1
        try:
            return slot, (build or self.expr)(body)
        finally:
            self.scope, self._memo, self._depth = outer, memo, depth
            self._reads &= ~(1 << depth)

    def _slot(self):
        self.n_slots += 1
        return self.n_slots - 1

    def program(self, e):
        """The evaluator of e: environment -> EvalOutcome.  Its
        attribute ``free`` holds the free variables of e, each of which
        the environment must bind."""
        root = self.expr(e)
        n, free = self.n_slots, tuple(self.free.items())

        def run(sigma):
            r = [None] * n
            for name, slot in free:
                r[slot] = sigma[name]
            try:
                return Defined(root(r))
            except _Undef as u:
                return Undefined(u.reason, u.expr)
        run.free = frozenset(self.free)
        return run


def _run_checked(program, sigma, is_value, domain):
    """program(sigma), once sigma binds every free variable of the
    program and binds each name to a value (is_value) of the domain;
    ValueError otherwise."""
    missing = program.free.difference(sigma)
    if missing:
        raise ValueError(f"unbound variables: {', '.join(sorted(missing))}")
    for x in sorted(sigma):
        if not is_value(sigma[x]):
            raise ValueError(f"binding {x} is not {domain}")
    return program(sigma)


def _var(c, e):
    return c.var(e.name)


def _constant(v):
    return lambda r: v


def _unary(classes, reason, result):
    """The builder of a form with one operand v, which fails with reason
    unless isinstance(v, classes), and returns result(v)."""
    def build(c, e):
        body = c.expr(e.body)

        def unary(r):
            v = body(r)
            if not isinstance(v, classes):
                raise _Undef(reason, e)
            return result(v)
        return unary
    return build


@record
class OracleSuite:
    """The two oracle functions of the set-based semantics.

    content maps element nodes to atoms; concat maps finite sets of
    atoms (as a VSet) to an atom.  Both must be total and deterministic.
    """
    content: Callable[[ElemNode], Atom]
    concat: Callable[[VSet], Atom]
    name: str = "oracle"


def _default_concat(s: VSet) -> Atom:
    if len(s) == 0:
        return Atom("ε")
    return Atom("·".join(a.token for a in s))


def _default_content(node: ElemNode) -> Atom:
    return _default_concat(rx_data(node.children, DEFAULT_ORACLES))


DEFAULT_ORACLES = OracleSuite(_default_content, _default_concat, "default")


def _alt_concat(s: VSet) -> Atom:
    return Atom("+".join(["c"] + [a.token for a in s]))


def _alt_content(node: ElemNode) -> Atom:
    return _alt_concat(rx_data(node.children, ALT_ORACLES))


ALT_ORACLES = OracleSuite(_alt_content, _alt_concat, "alt")

ORACLE_SUITES = {"default": DEFAULT_ORACLES, "alt": ALT_ORACLES}


# ---------------------------------------------------------------------------
# The helper functions of the set-based semantics.


def rx_data(v: VSet, o: OracleSuite) -> VSet:
    """Extract the atoms of v: atoms kept, data-node contents taken,
    content() applied to element nodes.  Total; a set of atoms is
    returned as it is."""
    out = []
    atoms_only = True
    for i in v.elems:
        if isinstance(i, Atom):
            out.append(i)
        else:
            atoms_only = False
            out.append(i.content if isinstance(i, DataNode)
                       else o.content(i))
    return v if atoms_only else VSet(out)


# The helpers that can fail take the failing expression, `at`.


def rx_name(v: VSet, o: OracleSuite, at=None) -> VSet:
    # On empty input the set {concat({})} is returned so that every RX
    # result stays a set.
    elems = v.elems
    if not elems:
        return vset(o.concat(v))
    if len(elems) == 1 and isinstance(elems[0], ElemNode):
        return vset(elems[0].name)
    raise _Undef(NAME_NOT_SINGLETON_ELEM, at)


def rx_children(v: VSet, at=None) -> VSet:
    elems = v.elems
    if len(elems) == 1 and isinstance(elems[0], ElemNode):
        return elems[0].children
    out = []
    for i in elems:
        if isinstance(i, Atom):
            raise _Undef(CHILDREN_SAW_ATOM, at)
        if isinstance(i, ElemNode):
            out.extend(i.children.elems)
    return VSet(out)


def rx_construct(v: VSet, w: VSet, o: OracleSuite, at=None) -> ElemNode:
    d = rx_data(v, o)
    if len(d.elems) != 1:
        raise _Undef(CONSTRUCT_NAME_NOT_SINGLETON, at)
    return ElemNode(d.elems[0], _wrap_atoms(w))


def _wrap_atoms(w: VSet) -> VSet:
    """w with each atom a wrapped in the data node of a; a set of nodes
    is returned as it is."""
    if not any(isinstance(i, Atom) for i in w.elems):
        return w
    return VSet([DataNode(i) if isinstance(i, Atom) else i for i in w.elems])


# ---------------------------------------------------------------------------
# Set-based RX evaluation.  Every value is a set.


def compile_rx(e, oracles: OracleSuite = DEFAULT_ORACLES):
    """The evaluator of e under the given oracles: environment ->
    EvalOutcome."""
    return Compiler(_RX, "an RX expression", oracles).program(desugar(e))


def eval_rx(e, sigma, oracles: OracleSuite = DEFAULT_ORACLES) -> EvalOutcome:
    return _run_checked(compile_rx(e, oracles), sigma, is_rx_value,
                        "an RX value (a set of items)")


def _rx_text(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: vset(DataNode(o.concat(rx_data(body(r), o))))


def _rx_elem(c, e):
    name, content, o = c.expr(e.name_expr), c.expr(e.content), c.context
    return lambda r: vset(rx_construct(name(r), content(r), o, e))


def _rx_data(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: rx_data(body(r), o)


def _rx_name(c, e):
    body, o = c.expr(e.body), c.context
    return lambda r: rx_name(body(r), o, e)


def _rx_children(c, e):
    body = c.expr(e.body)
    return lambda r: rx_children(body(r), e)


def _seq_union(c, e):
    left, right = c.expr(e.left), c.expr(e.right)
    return lambda r: left(r).union(right(r))


def _rx_for(c, e):
    return _loop(c, e, _elements(c, e), [], e.body)


def _elements(c, f):
    """The closure of the elements of for f's source that pass its kind
    filter.  Unless the source is a variable, it is evaluated at most
    once per run of the outermost enclosing loop inside which it names
    no loop variable, at its first use in that run."""
    src = c.expr(f.source)
    classes, exact = c.kind_filter(f.kind)
    kind = f.kind

    def elements(r):
        return [i for i in src(r).elems
                if isinstance(i, classes) and (exact or kind_member(i, kind))]
    if isinstance(f.source, Var):
        return elements
    # One past the depth of the innermost binder the source reads.
    level = c.reads(f.source).bit_length()
    if level == len(c.loops):  # it reads the innermost loop's variable
        return elements
    slot = c._slot()
    c.loops[level].append(slot)

    def once(r):
        v = r[slot]
        if v is None:
            v = r[slot] = elements(r)
        return v
    return once


def _loop(c, f, elements, inner, end):
    """The closure of for f over the elements that elements(r) gives.
    Its body is end inside the fors of inner, (for, slot) pairs whose
    elements are already in their slots."""
    frame = []
    c.loops.append(frame)  # the frame of the binder that c.bind adds
    try:
        slot, body = c.bind(f.var, end, lambda e: _loop_body(c, inner, e))
    finally:
        c.loops.pop()
    clear = tuple(frame)

    def for_(r):
        for s in clear:
            r[s] = None
        parts = []
        for i in elements(r):
            r[slot] = vset(i)
            parts.extend(body(r).elems)
        return VSet(parts)
    return for_


def _loop_body(c, inner, end):
    """The closure of end inside the fors of inner (as in _loop).  When
    end is a chain of fors ending in a guard that _movable allows, the
    guard is tested once, before the fors run (see the module
    docstring)."""
    fors, guard = [f for f, _ in inner], end
    while isinstance(guard, For):
        fors.append(guard)
        guard = guard.body
    pending = fors[len(inner):]  # their sources are not evaluated yet
    if not _movable(c, fors, pending, guard):
        if not inner:
            return c.expr(end)
        (f, s), *rest = inner
        return _loop(c, f, lambda r: r[s], rest, end)
    sources = [(_elements(c, f), c._slot()) for f in pending]
    test = _rx_eq(c, guard)
    (f, s), *rest = inner + [(f, s) for f, (_, s) in zip(pending, sources)]
    run = _loop(c, f, lambda r: r[s], rest, guard.then)

    def guarded(r):
        for elements, s in sources:
            v = r[s] = elements(r)
            if not v:
                return EMPTY_SET
        return run(r) if test(r) else EMPTY_SET
    return guarded


def _movable(c, fors, pending, guard):
    """The guard can be tested before the fors run: it is an eq test
    whose else branch is (empty), and neither its operands nor the
    sources of pending name a variable of the fors."""
    if not (fors and isinstance(guard, IfEq)
            and isinstance(guard.els, EmptySeq)):
        return False
    bound = {f.var for f in fors}
    return all(bound.isdisjoint(c.free_vars(x)) for x in
               [guard.left, guard.right] + [f.source for f in pending])


def _rx_eq(c, e):
    """The test of the ifeq e: r -> whether its operands are equal."""
    if isinstance(e.left, NameF) and isinstance(e.right, AtomLit):
        return _name_is(c, e.left, e.right.atom)
    left, right, o = c.expr(e.left), c.expr(e.right), c.context

    def eq(r):
        a = rx_data(left(r), o)
        b = rx_data(right(r), o)
        if len(a.elems) != 1 or len(b.elems) != 1:
            raise _Undef(EQ_NOT_SINGLETON_ATOM, e)
        return a == b
    return eq


def _name_is(c, e, a):
    """The test (ifeq e (lit a) ...) of the name form e.  The name of a
    singleton element, or the concat of nothing, is one atom, which is
    compared with a without building the sets of rx_name and rx_data."""
    body, o, token = c.expr(e.body), c.context, a.token

    def eq(r):
        v = body(r)
        elems = v.elems
        if len(elems) == 1 and isinstance(elems[0], ElemNode):
            return elems[0].name.token == token
        return rx_name(v, o, e).elems[0].token == token
    return eq


def _rx_ifeq(c, e):
    eq, then, els = _rx_eq(c, e), c.expr(e.then), c.expr(e.els)
    return lambda r: then(r) if eq(r) else els(r)


def _rx_ifempty(c, e):
    cond, then, els = c.expr(e.cond), c.expr(e.then), c.expr(e.els)
    return lambda r: els(r) if cond(r).elems else then(r)


def _iftype(c, e):
    cond, then, els, t = c.expr(e.cond), c.expr(e.then), c.expr(e.els), e.type
    return lambda r: then(r) if member(cond(r), t) else els(r)


_RX = {
    Var: _var, AtomLit: lambda c, e: _constant(vset(e.atom)),
    Text: _rx_text, Elem: _rx_elem,
    DataF: _rx_data, NameF: _rx_name, ChildrenF: _rx_children,
    EmptySeq: lambda c, e: _constant(EMPTY_SET), Seq: _seq_union,
    For: _rx_for, IfEq: _rx_ifeq, IfEmpty: _rx_ifempty, IfType: _iftype,
}


# ---------------------------------------------------------------------------
# Pure RX evaluation (no oracles; values may be bare items).


def compile_pure_rx(e):
    """The evaluator of e: environment -> EvalOutcome."""
    return Compiler(_PURE, "a pure RX expression").program(desugar(e))


def eval_pure_rx(e, sigma) -> EvalOutcome:
    return _run_checked(compile_pure_rx(e), sigma, is_pure_rx_value,
                        "a pure RX value (an item or a set of items)")


def _require_set(v, reason, expr):
    if not isinstance(v, VSet):
        raise _Undef(reason, expr)
    return v


def _pure_data_of(v: VSet) -> VSet:
    return VSet([i if isinstance(i, Atom) else i.content
                 for i in v.elems if isinstance(i, (Atom, DataNode))])


def _pure_elem(c, e):
    name, content = c.expr(e.name_expr), c.expr(e.content)

    def elem(r):
        v = name(r)
        w = content(r)
        if not isinstance(v, Atom):
            raise _Undef(CONSTRUCT_NAME_NOT_ATOM, e)
        _require_set(w, ITERATION_OVER_NONSET, e)
        return ElemNode(v, _wrap_atoms(w))
    return elem


def _pure_children(c, e):
    body = c.expr(e.body)
    return lambda r: rx_children(
        _require_set(body(r), ITERATION_OVER_NONSET, e), e)


def _pure_seq(c, e):
    left, right = c.expr(e.left), c.expr(e.right)

    def seq(r):
        a = _require_set(left(r), SEQ_OPERAND_NOT_SET, e)
        b = _require_set(right(r), SEQ_OPERAND_NOT_SET, e)
        return a.union(b)
    return seq


def _pure_for(c, e):
    src = c.expr(e.source)
    slot, body = c.bind(e.var, e.body)
    classes, exact = c.kind_filter(e.kind)
    kind = e.kind

    def for_(r):
        parts = []
        for i in _require_set(src(r), ITERATION_OVER_NONSET, e).elems:
            if isinstance(i, classes) and (exact or kind_member(i, kind)):
                r[slot] = i
                parts.extend(_require_set(body(r), BODY_NOT_SET, e).elems)
        return VSet(parts)
    return for_


def _eq_atoms(c, e):
    """The equality test of pure RX and of the nested calculus."""
    left, right = c.expr(e.left), c.expr(e.right)
    then, els = c.expr(e.then), c.expr(e.els)

    def ifeq(r):
        a = left(r)
        b = right(r)
        if not (isinstance(a, Atom) and isinstance(b, Atom)):
            raise _Undef(EQ_ON_NONATOM, e)
        return then(r) if a == b else els(r)
    return ifeq


def _if_empty(c, e):
    """The emptiness test of pure RX and of the nested calculus."""
    cond, then, els = c.expr(e.cond), c.expr(e.then), c.expr(e.els)

    def ifempty(r):
        v = cond(r)
        return then(r) if isinstance(v, VSet) and not v.elems else els(r)
    return ifempty


_PURE = {
    Var: _var, AtomLit: lambda c, e: _constant(e.atom),
    Text: _unary(Atom, TEXT_ON_NONATOM, DataNode), Elem: _pure_elem,
    DataF: _unary(VSet, ITERATION_OVER_NONSET, _pure_data_of),
    NameF: _unary(ElemNode, NAME_NOT_ELEM, attrgetter("name")),
    ChildrenF: _pure_children, EmptySeq: lambda c, e: _constant(EMPTY_SET),
    Sing: _unary((Atom, DataNode, ElemNode), SINGLETON_OF_NONITEM, vset),
    Seq: _pure_seq, For: _pure_for, IfEq: _eq_atoms, IfEmpty: _if_empty,
    IfType: _iftype,
}
