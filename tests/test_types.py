import pytest

from nrcx.typeterms import (AtomT, CollT, DataEncT, DataT, ElemT, KAtom,
                            KColl, KData, KElem, KProd, KSum, KIND_ANY,
                            PAPER_DATA_T, ProdT, SingleT, SumT, VoidT,
                            member, kind_member, rank,
                            type_complexity, iter_values, count_values_upper,
                            EnumerationBudgetError)
from nrcx.values import (Atom, DataNode, ElemNode, Pair, VSet, vset,
                         EMPTY_SET, sort_key)

from oracles import all_values, atoms_of, enumerate_values, in_Vk

a, b = Atom("a"), Atom("b")


# --- membership ------------------------------------------------------------


def test_member_void_is_empty():
    assert not member(a, VoidT())
    assert not member(EMPTY_SET, VoidT())


def test_member_singleton_over_atom():
    assert member(vset(a), SingleT(AtomT()))
    assert not member(EMPTY_SET, SingleT(AtomT()))
    assert not member(vset(a, b), SingleT(AtomT()))


def test_member_empty_set_in_any_coll():
    assert member(EMPTY_SET, CollT(DataT()))
    assert member(EMPTY_SET, CollT(VoidT()))


def test_member_product():
    assert member(Pair(a, EMPTY_SET), ProdT(AtomT(), CollT(VoidT())))
    assert not member(Pair(a, a), ProdT(AtomT(), CollT(VoidT())))


def test_data_encoding_is_a_distinct_product():
    # The diagonal has the paper type's parts but is never equal to it,
    # so a case split keeps both.
    assert DataEncT() != PAPER_DATA_T and PAPER_DATA_T != DataEncT()
    assert (DataEncT().left, DataEncT().right) == \
        (PAPER_DATA_T.left, PAPER_DATA_T.right)
    assert len(dict.fromkeys([DataEncT(), PAPER_DATA_T, DataEncT()])) == 2


def test_member_sum():
    t = SumT(AtomT(), CollT(AtomT()))
    assert member(a, t)
    assert member(vset(a), t)
    assert not member(Pair(a, a), t)


def test_member_rx_element_type():
    # RX form: content type constrains the child set as a whole.
    t = ElemT(SingleT(DataT()))
    assert member(ElemNode(a, vset(DataNode(b))), t)
    assert not member(ElemNode(a, EMPTY_SET), t)


def test_member_pure_element_type():
    # Pure form: every child individually in the node-type union.
    t = ElemT(DataT())
    assert member(ElemNode(a, vset(DataNode(b))), t)
    assert member(ElemNode(a, EMPTY_SET), t)
    assert not member(ElemNode(a, vset(ElemNode(b, EMPTY_SET))), t)
    # Empty content union still admits childless elements.
    assert member(ElemNode(a, EMPTY_SET), ElemT(VoidT()))


def test_kind_member_basics():
    assert kind_member(a, KAtom())
    assert kind_member(DataNode(a), KData())
    assert not kind_member(DataNode(a), KElem())
    assert kind_member(EMPTY_SET, KColl())
    assert kind_member(a, KIND_ANY)
    assert kind_member(DataNode(a), KIND_ANY)
    assert kind_member(ElemNode(a, EMPTY_SET), KIND_ANY)
    assert not kind_member(vset(a), KIND_ANY)


def test_kind_member_encoded_data_shape():
    # The encoding of a data node has kind (atom x atom) x coll.
    k = KProd(KProd(KAtom(), KAtom()), KColl())
    assert kind_member(Pair(Pair(a, a), EMPTY_SET), k)
    assert not kind_member(Pair(a, EMPTY_SET), k)


# --- rank / type complexity ------------------------------------------------


def test_rank_atom():
    assert rank(AtomT(), 5) == 1


def test_rank_product_sums():
    assert rank(ProdT(AtomT(), AtomT()), 3) == 2


def test_rank_coll_multiplies():
    assert rank(CollT(ProdT(AtomT(), AtomT())), 2) == 4


def test_rank_sum_is_max():
    assert rank(SumT(AtomT(), CollT(AtomT())), 3) == 3


def test_rank_void_is_zero():
    assert rank(VoidT(), 4) == 0


def test_type_complexity_atom_void():
    assert type_complexity(AtomT()) == 0
    assert type_complexity(VoidT()) == 0


def test_type_complexity_coll_atom():
    assert type_complexity(CollT(AtomT())) == 1


def test_type_complexity_union_sums():
    assert type_complexity(SumT(CollT(CollT(AtomT())), AtomT())) == 1


def test_type_complexity_product_is_max():
    assert type_complexity(ProdT(CollT(AtomT()), AtomT())) == 1


# --- enumeration -----------------------------------------------------------


def test_enumerate_single_atom():
    assert enumerate_values(AtomT(), 0, [a]) == [a]


def test_enumerate_coll_atom_card1():
    assert enumerate_values(CollT(AtomT()), 1, [a]) == [EMPTY_SET, vset(a)]


def test_enumerate_coll_atom_card2():
    got = enumerate_values(CollT(AtomT()), 2, [a, b])
    assert got == [EMPTY_SET, vset(a), vset(a, b), vset(b)]
    assert set(got) == {EMPTY_SET, vset(a), vset(b), vset(a, b)}


def test_enumerate_void_is_empty():
    assert enumerate_values(VoidT(), 2, [a, b]) == []
    assert enumerate_values(CollT(VoidT()), 2, [a]) == [EMPTY_SET]


def test_iter_values_canonical_order_no_duplicates():
    t = SumT(AtomT(), SumT(CollT(AtomT()), ProdT(AtomT(), AtomT())))
    got = list(iter_values(t, 2, [a, b]))
    keys = [sort_key(v) for v in got]
    assert keys == sorted(keys)
    assert len(set(got)) == len(got)


def test_enumeration_matches_brute_force_universe():
    # Independent oracle: filter a brute-force value universe by
    # membership and cardinality instead of generating per type.
    atoms = [a, b]
    universe = all_values(2, atoms, 2)
    for t, k in [(AtomT(), 2), (CollT(AtomT()), 2),
                 (ProdT(AtomT(), CollT(AtomT())), 1),
                 (SumT(AtomT(), CollT(CollT(AtomT()))), 2),
                 (CollT(VoidT()), 2)]:
        expect = [v for v in universe
                  if member(v, t) and in_Vk(v, k)
                  and atoms_of(v) <= set(atoms)]
        got = enumerate_values(t, k, atoms)
        assert sorted(got, key=sort_key) == expect, (t, k)


def test_enumerated_values_respect_rank():
    t = CollT(ProdT(AtomT(), AtomT()))
    for v in enumerate_values(t, 2, [a, b]):
        assert len(atoms_of(v)) <= rank(t, 2)


def test_enumeration_budget():
    t = CollT(CollT(CollT(AtomT())))
    assert count_values_upper(t, 3, 3) > 1000
    with pytest.raises(EnumerationBudgetError):
        enumerate_values(t, 3, [a, b, Atom("c")], budget=1000)


def test_rx_type_enumeration():
    t = ElemT(CollT(DataT()))
    got = enumerate_values(t, 1, [a])
    assert got == [ElemNode(a, EMPTY_SET), ElemNode(a, vset(DataNode(a)))]
