import pytest

from nrcx.values import (Atom, DataNode, ElemNode, Pair, VSet, vset,
                         EMPTY_SET, sort_key, subvalue, subvalue_env, join,
                         join_env, JoinError, min_value, min_env, in_Vk,
                         in_Ek, apply_atom_map, apply_atom_map_env, atoms_of,
                         value_to_json, value_from_json, env_to_json,
                         env_from_json, is_item, is_nrc_value, is_rx_value,
                         is_pure_rx_value)

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def test_atom_equality_is_token_equality():
    assert Atom("a") == Atom("a")
    assert Atom("a") != Atom("b")
    with pytest.raises(ValueError):
        Atom("")


def test_vset_canonicalizes():
    assert vset(b, a, a) == vset(a, b)
    assert list(vset(b, a)) == [a, b]
    assert len(vset(a, a, a)) == 1
    assert vset(a) != a


def test_vset_order_insensitive_equality_and_hash():
    s1 = vset(vset(a, b), vset(c))
    s2 = VSet([vset(c), vset(b, a)])
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_canonical_order_tiers():
    items = [vset(a), Pair(a, a), ElemNode(a, EMPTY_SET), DataNode(a), a]
    ordered = sorted(items, key=sort_key)
    assert ordered == [a, DataNode(a), ElemNode(a, EMPTY_SET),
                       Pair(a, a), vset(a)]


def test_element_children_must_be_nodes():
    with pytest.raises(ValueError):
        ElemNode(a, vset(b))
    ElemNode(a, vset(DataNode(b)))  # fine


def test_value_classifiers():
    assert is_item(a) and is_item(DataNode(a))
    assert not is_item(vset(a))
    assert is_nrc_value(Pair(a, vset(b)))
    assert not is_nrc_value(DataNode(a))
    assert is_rx_value(vset(a, DataNode(b)))
    assert not is_rx_value(vset(vset(a)))
    assert is_pure_rx_value(a) and is_pure_rx_value(vset(a))
    assert not is_pure_rx_value(vset(vset(a)))


# --- sub-value order -------------------------------------------------------


def test_subvalue_atom_reflexive():
    assert subvalue(a, a)
    assert not subvalue(a, b)


def test_subvalue_sets():
    assert subvalue(vset(a), vset(a, b))
    assert not subvalue(vset(a, b), vset(a))
    assert subvalue(EMPTY_SET, vset(a))


def test_subvalue_pairs_componentwise():
    assert subvalue(Pair(a, vset(b)), Pair(a, vset(b, c)))
    assert not subvalue(Pair(a, a), Pair(b, a))


def test_subvalue_mixed_shapes_unrelated():
    assert not subvalue(a, Pair(a, a))
    assert not subvalue(vset(a), a)


def test_subvalue_env_pointwise():
    assert subvalue_env({"x": vset(a)}, {"x": vset(a, b)})
    assert not subvalue_env({"x": vset(a)}, {"y": vset(a)})


# --- join ------------------------------------------------------------------


def test_join_atoms():
    assert join(a, a) == a
    with pytest.raises(JoinError):
        join(a, b)


def test_join_sets_union():
    assert join(vset(a), vset(b)) == vset(a, b)


def test_join_pairs_componentwise():
    assert join(Pair(a, vset(b)), Pair(a, vset(c))) == Pair(a, vset(b, c))


def test_join_shape_mismatch():
    with pytest.raises(JoinError):
        join(a, vset(a))
    with pytest.raises(JoinError):
        join(Pair(a, a), vset(a))
    with pytest.raises(JoinError):
        join_env({"x": a}, {"y": a})


# --- min, V_k --------------------------------------------------------------


def test_min_value_atom():
    assert min_value(a) == a


def test_min_value_pair():
    assert min_value(Pair(a, vset(vset(c, d)))) == Pair(a, EMPTY_SET)


def test_min_value_top_level_set_becomes_empty():
    assert min_value(vset(a, b)) == EMPTY_SET


def test_min_env_below_and_in_V0():
    sigma = {"x": vset(a, Pair(b, vset(c)))}
    m = min_env(sigma)
    assert subvalue_env(m, sigma)
    assert in_Ek(m, 0)


def test_in_Vk():
    assert in_Vk(a, 0)
    assert not in_Vk(vset(a, b), 1)
    assert in_Vk(vset(Pair(a, EMPTY_SET)), 1)
    assert in_Vk(ElemNode(a, vset(DataNode(b))), 1)
    assert not in_Vk(ElemNode(a, vset(DataNode(b), DataNode(c))), 1)


# --- atom maps -------------------------------------------------------------


def test_apply_atom_map_identity():
    v = Pair(a, vset(b, DataNode(c)))
    assert apply_atom_map(lambda x: x, v) == v


def test_apply_atom_map_swap():
    swap = {a: b, b: a}
    assert apply_atom_map(swap, Pair(a, vset(b))) == Pair(b, vset(a))


def test_apply_atom_map_collapse_dedupes():
    assert apply_atom_map({a: c, b: c}, vset(a, b)) == vset(c)


def test_apply_atom_map_hits_node_positions():
    v = ElemNode(a, vset(DataNode(a)))
    assert apply_atom_map({a: b}, v) == ElemNode(b, vset(DataNode(b)))


def test_permutation_round_trip():
    rho = {a: b, b: c, c: a}
    inv = {v: k for k, v in rho.items()}
    v = vset(Pair(a, vset(b, c)), c)
    assert apply_atom_map(inv, apply_atom_map(rho, v)) == v
    assert apply_atom_map_env(inv, apply_atom_map_env(rho, {"x": v})) == {"x": v}


def test_atoms_of():
    assert atoms_of(Pair(a, vset(DataNode(b), ElemNode(c, EMPTY_SET)))) == \
        {a, b, c}


# --- JSON wire form --------------------------------------------------------


def test_json_round_trip():
    vals = [a, DataNode(b), ElemNode(a, vset(DataNode(b))),
            Pair(a, vset(b)), vset(a, Pair(b, c)), EMPTY_SET]
    for v in vals:
        assert value_from_json(value_to_json(v)) == v


def test_json_sets_serialized_canonically():
    assert value_to_json(vset(b, a)) == \
        {"set": [{"atom": "a"}, {"atom": "b"}]}


def test_env_json_round_trip():
    sigma = {"x": vset(a), "y": Pair(a, b)}
    assert env_from_json(env_to_json(sigma)) == sigma


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        value_from_json({"nope": 1})
    with pytest.raises(ValueError):
        value_from_json({"atom": "a", "set": []})


# --- cached sort keys --------------------------------------------------------


def _reference_sort_key(v):
    """The recursive sort key that values now cache when built."""
    if isinstance(v, Atom):
        return (0, v.token)
    if isinstance(v, DataNode):
        return (1, v.content.token)
    if isinstance(v, ElemNode):
        return (2, v.name.token,
                tuple(_reference_sort_key(c) for c in v.children))
    if isinstance(v, Pair):
        return (3, _reference_sort_key(v.fst), _reference_sort_key(v.snd))
    if isinstance(v, VSet):
        return (4, tuple(_reference_sort_key(e) for e in v))
    raise TypeError(f"not a value: {v!r}")


def _key_pool():
    from nrcx.frontend import parse_type
    from nrcx.sexpr import read as sread
    from nrcx.typeterms import iter_values
    from test_acceptance import GAMMA_POOL
    # GAMMA_POOL has no nodes; two types with data and element nodes.
    sources = GAMMA_POOL + ["(coll (sum (data) (elem (data))))",
                            "(elem (coll (data)))"]
    pool = []
    for src in sources:
        for card in (0, 1, 2):
            pool.extend(iter_values(parse_type(sread(src)), card, [a, b]))
    return list(dict.fromkeys(pool))


def test_cached_sort_key_matches_recursive_reference():
    pool = _key_pool()
    assert len(pool) > 80
    for v in pool:
        assert sort_key(v) == _reference_sort_key(v), v
        # A value rebuilt from its parts is equal, with the same hash.
        copy = value_from_json(value_to_json(v))
        assert copy is not v
        assert copy == v and hash(copy) == hash(v), v
    for v in pool:
        for w in pool:
            same = _reference_sort_key(v) == _reference_sort_key(w)
            assert (v == w) == same, (v, w)
            if same:
                assert hash(v) == hash(w)


def test_union_merge_matches_constructor():
    sets = [v for v in _key_pool() if isinstance(v, VSet)]
    for s in sets:
        for t in sets:
            merged = s.union(t)
            built = VSet(s.elems + t.elems)
            assert merged.elems == built.elems, (s, t)
            assert sort_key(merged) == _reference_sort_key(built)
