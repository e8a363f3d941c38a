"""Test-only oracles for the pure-RX search.

`paper_type` is the paper's translation of pure RX types.  It maps data
to ((atom x atom) x {void}), which also holds ((a, b), {}) with a != b,
off the image of the value encoding.  `encoded_decide` is the route
that decided pure RX before the translated types held only encodings:
it searches the paper's translated environments and skips every one
that `dec_env` rejects.
"""

from nrcx.decide import (PreconditionError, Verdict, _output_type,
                         atom_supply, fresh_atoms, search_counterexample)
from nrcx.penrc import complexity, compile_penrc
from nrcx.translate import NotInImageError, dec, dec_env, translate_expr
from nrcx.typeterms import (AtomT, CollT, DataT, ElemT, ProdT, SumT, VoidT,
                            member, type_complexity)


def paper_type(t):
    """The paper's nested type of a pure RX type."""
    if isinstance(t, (AtomT, VoidT)):
        return t
    if isinstance(t, DataT):
        return ProdT(ProdT(AtomT(), AtomT()), CollT(VoidT()))
    if isinstance(t, ElemT):
        return ProdT(AtomT(), CollT(paper_type(t.content)))
    if isinstance(t, CollT):
        return CollT(paper_type(t.item))
    if isinstance(t, SumT):
        return SumT(paper_type(t.left), paper_type(t.right))
    raise TypeError(f"not a pure RX type: {t!r}")


def decodes(v):
    """v is the encoding of a pure value."""
    try:
        dec(v)
    except NotInImageError:
        return False
    return True


def on_image(env):
    """env is the encoding of a pure environment."""
    return all(decodes(v) for v in env.values())


def encoded_decide(e, gamma, mode, tau=None, **options):
    """decide(e, gamma, mode, lang="pure-rx", tau=tau) by the encoded
    route.  Returns the verdict and the number of environments the
    search reached that decode, the one that fails included."""
    tau = _output_type(mode, tau)
    e = translate_expr(e)
    gamma = {x: paper_type(t) for x, t in gamma.items()}
    tau = None if tau is None else paper_type(tau)
    card = complexity(e, 1 if tau is None else max(type_complexity(tau), 1))
    atoms, fresh = atom_supply(e, gamma, card)
    if not atoms:
        atoms, fresh = fresh_atoms(1), fresh_atoms(1)
    evaluate = compile_penrc(e)
    reached = 0
    searching = True  # False once minimization has begun

    def failing(env):
        nonlocal reached, searching
        if not on_image(env):
            return False
        out = evaluate(env)
        if tau is None:
            bad = not out.is_defined
        elif not out.is_defined:
            raise PreconditionError(
                f"expression is not well defined (reason: {out.reason})")
        else:
            bad = not member(out.value, tau)
        if searching:
            reached += 1
            searching = not bad
        return bad

    v = search_counterexample(failing, gamma, card, atoms, fresh=fresh,
                              **options)
    env = None if v.counterexample is None else dec_env(v.counterexample)
    return Verdict(v.result != (mode == "sat"), env, v.bounds), reached
