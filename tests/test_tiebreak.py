"""Tie-breaking key order: totality, determinism, re-randomization."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax.tiebreak import edge_salts, key_ranks, round_seed, vertex_coins

from reference import DUMMY_KEY, tie_key


def test_equal_weights_get_distinct_keys():
    rs = round_seed(42, 0)
    k5 = tie_key(5, 1.0, rs)
    k9 = tie_key(9, 1.0, rs)
    assert k5 != k9
    assert (k5.salt, k5.edge_id) != (k9.salt, k9.edge_id)


def test_rerandomization_changes_salts_across_rounds():
    r1 = round_seed(7, 1, rerandomize=True)
    r2 = round_seed(7, 2, rerandomize=True)
    assert tie_key(3, 1.0, r1) != tie_key(3, 1.0, r2)


def test_disabled_rerandomization_freezes_keys():
    r1 = round_seed(7, 1, rerandomize=False)
    r2 = round_seed(7, 2, rerandomize=False)
    assert tie_key(3, 1.0, r1) == tie_key(3, 1.0, r2)


def test_keys_deterministic_for_fixed_inputs():
    rs = round_seed(123, 4)
    assert tie_key(17, 0.25, rs) == tie_key(17, 0.25, rs)


def test_dummy_orders_below_everything():
    rs = round_seed(0, 0)
    assert DUMMY_KEY < tie_key(0, 0.0, rs)


def test_salts_vectorized_matches_scalar():
    rs = round_seed(99, 2)
    ids = np.arange(50, dtype=np.int64)
    vec = edge_salts(rs, ids)
    for k in (0, 1, 17, 49):
        assert int(vec[k]) == tie_key(k, 1.0, rs).salt


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100)
def test_key_order_is_a_strict_total_order(weights, seed):
    """Sorting never yields adjacent equal keys, for any weight multiset."""
    rs = round_seed(seed, 0)
    ids = np.arange(len(weights), dtype=np.int64)
    salts = edge_salts(rs, ids)
    keys = sorted(tie_key(int(i), weights[i], rs) for i in ids)
    for a, b in zip(keys, keys[1:]):
        assert a < b
    # dense ranks agree with the sorted key order
    ranks = key_ranks(np.asarray(weights), salts, ids)
    by_rank = ids[np.argsort(ranks)]
    by_key = [k.edge_id for k in keys]
    assert by_rank.tolist() == by_key


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=20))
@settings(max_examples=50)
def test_coins_are_deterministic_and_round_dependent(seed, rnd):
    rs = round_seed(seed, rnd)
    ids = np.arange(200)
    a = vertex_coins(rs, ids)
    b = vertex_coins(rs, ids)
    assert np.array_equal(a, b)


def test_coins_are_roughly_fair():
    rs = round_seed(11, 0)
    flips = vertex_coins(rs, np.arange(20000))
    frac = flips.mean()
    assert 0.45 < frac < 0.55
