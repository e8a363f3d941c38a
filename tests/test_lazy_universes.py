"""The lazy universes of the value enumerator against the eager one.

`typeterms.iter_canonical_values` draws the universe of each set
element and right-hand pair position only as far as its stream reaches.
`oracles.eager_canonical_values`, the enumerator it replaced, builds
every universe whole first.  Both must yield the same (value, seen')
stream and refuse the same positions with the same budget message
before the same number of values.
"""

import itertools

import pytest

from nrcx import typeterms
from nrcx.decide import fresh_atoms, well_defined_penrc
from nrcx.frontend import parse, parse_type
from nrcx.sexpr import read as sread
from nrcx.typeterms import (DEFAULT_VALUE_BUDGET, AtomT, CollT,
                            EnumerationBudgetError, count_values_upper,
                            iter_canonical_values)

from oracles import eager_canonical_values
from test_enumeration import LITERALS, TYPES

BUDGETS = (1, 10, 100, DEFAULT_VALUE_BUDGET)

# Streams are compared on their first CAP values.
CAP = 301


def _drain(stream, cap=CAP):
    """(the first cap items of stream, the message of the budget error
    it raised before them or None)."""
    items = []
    try:
        for item in stream:
            items.append(item)
            if len(items) == cap:
                break
    except EnumerationBudgetError as exc:
        return items, str(exc)
    return items, None


def _cases(t, budgets=BUDGETS):
    """(args, budget) over cards 0-3, 0-4 fresh atoms plus 0 or 2
    literals, pruning on and off."""
    for card, n_fresh, n_lits, prune, budget in itertools.product(
            range(4), range(5), (0, 2), (True, False), budgets):
        fresh = fresh_atoms(n_fresh)
        atoms = LITERALS[:n_lits] + fresh
        if atoms:
            yield (t, card, atoms, fresh if prune else (), 0), budget


@pytest.mark.parametrize("i", range(len(TYPES)),
                         ids=lambda i: repr(TYPES[i]))
def test_lazy_stream_matches_eager_reference(i):
    for args, budget in _cases(TYPES[i]):
        assert (_drain(iter_canonical_values(*args, budget))
                == _drain(eager_canonical_values(*args, budget))), \
            (args, budget)


@pytest.mark.parametrize("text", [
    "(prod (void) (coll (coll (coll (atom)))))",
    "(coll (prod (void) (coll (coll (coll (atom))))))"])
def test_product_with_empty_factor_refused_before_first_value(text):
    # The product's count is 0, so only the precheck of its right-hand
    # universe can refuse it.  Creating a universe draws its first value,
    # so that refusal still comes before the enclosing set's first value
    # ({} here), as when the universe was built whole.
    refused = 0
    for args, budget in _cases(parse_type(sread(text)), (100,)):
        got = _drain(iter_canonical_values(*args, budget))
        assert got == _drain(eager_canonical_values(*args, budget)), args
        if got[1] is not None:
            refused += 1
            assert got[0] == []
    assert refused > 0


def test_first_counterexample_draws_a_small_prefix(monkeypatch):
    # x = {{}, {a}} is the first environment on which (fst b) runs.  The
    # universe of x's elements, the sets of at most 4 of 16 atoms, has
    # 2,517 values; the eager enumerator built all of them (and the 16
    # atoms) before the first environment.
    drawn = []
    materialize = typeterms._materialize

    def counting(stream, n):
        values = materialize(stream, n)
        drawn.append(len(values))
        return values

    monkeypatch.setattr(typeterms, "_materialize", counting)
    verdict = well_defined_penrc(parse("(for a x (for b a (fst b)))", "penrc"),
                                 {"x": parse_type(sread("(coll (coll (atom)))"))})
    assert not verdict.result
    assert verdict.bounds == {"card": 4, "atoms": 16, "examined": 3}
    assert count_values_upper(CollT(AtomT()), 4, 16) == 2517
    assert sum(drawn) == 3


def test_value_count_precheck_refuses_before_drawing(monkeypatch):
    # The sets of at most 4 pairs over 16 atoms number more than the
    # default budget, so the count pre-check refuses the element
    # universe of the outer set before a value is drawn.  Without the
    # pre-check the enumerator drew over 10^6 values and yielded 352
    # before it raised the same error (about 10 s and 430 MB on a
    # 2-core machine); the eager reference, which builds universes
    # whole, would hide that cost.
    drawn = []
    materialize = typeterms._materialize

    def counting(stream, n):
        values = materialize(stream, n)
        drawn.append(len(values))
        return values

    monkeypatch.setattr(typeterms, "_materialize", counting)
    t = parse_type(sread("(coll (coll (prod (atom) (atom))))"))
    fresh = fresh_atoms(16)
    with pytest.raises(EnumerationBudgetError, match=(
            r"enumeration of \(coll \(prod \(atom\) \(atom\)\)\) exceeds "
            r"budget 1000000")):
        next(iter_canonical_values(t, 4, fresh, fresh, 0))
    assert sum(drawn) == 0
