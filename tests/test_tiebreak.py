"""Tie-breaking key order: totality, determinism, re-randomization."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax.tiebreak import (
    _COIN_STREAM,
    _GOLDEN,
    _MIX_A,
    _MIX_B,
    _MIX_BLOCK,
    _UINT64_MASK,
    _deciding_bits,
    _mix64_int,
    _new_candidates,
    _raise_candidates,
    edge_salts,
    key_ranks,
    round_seed,
    vertex_coins,
    weight_bits,
)

from reference import DUMMY_KEY, mix64, tie_key


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


@pytest.mark.parametrize("rerandomize", [True, False])
def test_round_seed_rejects_a_negative_round(rerandomize):
    with pytest.raises(ValueError, match="^round_index must be nonnegative, got -1$"):
        round_seed(7, -1, rerandomize)


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


def test_array_finalizer_matches_scalar_without_warnings():
    ids = [0, 1, 5, 2**31, 2**63 - 1, 2**63, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 7, 2**63, 2**64 - 1):
            rs = round_seed(seed, 3)
            salts = edge_salts(rs, np.array(ids, dtype=np.uint64))
            assert salts.dtype == np.uint64
            assert salts.tolist() == [_mix64_int(i ^ rs) for i in ids]
            coins = vertex_coins(rs, ids)
            assert coins.dtype == bool
            assert coins.tolist() == [bool(_mix64_int(i ^ rs ^ _COIN_STREAM) & 1) for i in ids]


@pytest.mark.parametrize("size", [0, 1, _MIX_BLOCK - 1, _MIX_BLOCK, _MIX_BLOCK + 1,
                                  3 * _MIX_BLOCK + 5])
def test_blocked_finalizer_equals_one_pass(size):
    """Salts and coins mixed block by block equal a one-pass mix at every
    block boundary, for list, int64 and uint64 ids, and leave the ids as
    they were."""
    assert _MIX_BLOCK == 2**14
    rs = round_seed(13, 2)
    ids = np.arange(size, dtype=np.uint64) * np.uint64(0x9E3779B1) + np.uint64(3)
    want_salts = mix64(ids ^ np.uint64(rs))
    want_coins = (mix64(ids ^ np.uint64(rs ^ _COIN_STREAM)) & np.uint64(1)).astype(bool)
    for given_ids in (ids.tolist(), ids.astype(np.int64), ids):
        before = np.array(given_ids, dtype=np.uint64)
        salts = edge_salts(rs, given_ids)
        coins = vertex_coins(rs, given_ids)
        assert salts.dtype == np.uint64 and salts.shape == (size,)
        assert coins.dtype == bool and coins.shape == (size,)
        assert np.array_equal(salts, want_salts)
        assert np.array_equal(coins, want_coins)
        assert np.array_equal(np.array(given_ids, dtype=np.uint64), before)


@pytest.mark.filterwarnings("error")
def test_zero_d_ids_give_numpy_scalars():
    rs = round_seed(13, 2)
    for one in (5, np.int64(5), np.uint64(5), np.array(5)):
        salt, coin = edge_salts(rs, one), vertex_coins(rs, one)
        assert type(salt) is np.uint64 and salt == mix64(5 ^ rs)
        assert type(coin) is np.bool_ and coin == bool(mix64(5 ^ rs ^ _COIN_STREAM) & 1)


# ties, signed zeros and subnormals, and the salt extremes
KEY_WEIGHTS = (0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 2.0)
KEY_SALTS = (0, 1, 2**63, 2**64 - 1)


@st.composite
def offer_columns(draw):
    """Offers with distinct (weight, salt) keys, each to a vertex in every
    one of 1, 2 or 4 end columns. Salts are distinct per offer, as one
    round's salts are per edge, and often include the extremes. With two
    columns or more, the first offer's vertex in the second column is one
    of the first column's, so some vertex appears in two columns (at one
    offer when it is a self-loop). When the last value is True, every
    offer has the same weight."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 16))
    one_weight = draw(st.booleans())
    if one_weight:
        weights = np.full(m, draw(st.sampled_from(KEY_WEIGHTS)))
    else:
        weights = np.array(draw(st.lists(st.sampled_from(KEY_WEIGHTS), min_size=m, max_size=m)))
    salt = st.one_of(st.sampled_from(KEY_SALTS), st.integers(0, 2**64 - 1))
    salts = np.array(draw(st.lists(salt, min_size=m, max_size=m, unique=True)), dtype=np.uint64)
    vertices = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    ends = [np.array(draw(vertices), dtype=np.int64)
            for _ in range(draw(st.sampled_from([1, 2, 4])))]
    if len(ends) > 1 and m:
        ends[1][0] = draw(st.sampled_from(ends[0].tolist()))
    return n, weights, salts, tuple(ends), one_weight


@given(offer_columns())
@settings(max_examples=300, deadline=None)
def test_staged_candidates_are_the_heaviest_ranked_offer(case):
    """With one weight the offers carry None for their weight bits, so the
    kernel skips its weight stage and the candidates' weights stay at the
    dummy; the salts and the winners are the same either way."""
    n, weights, salts, ends, one_weight = case
    ranks = key_ranks(weights, salts, np.arange(weights.size))
    best = np.full(n, -1)  # per vertex: its best ranked offer, over all columns
    for e in ends:
        for i, v in enumerate(e.tolist()):
            if best[v] < 0 or ranks[i] > ranks[best[v]]:
                best[v] = i
    cand = _new_candidates(n)
    won = _raise_candidates(cand, ends, None if one_weight else weight_bits(weights), salts)
    wbits = np.zeros(weights.size, np.uint64) if one_weight else weight_bits(weights)
    want = [(int(wbits[i]), int(salts[i])) if i >= 0 else (0, 0) for i in best.tolist()]
    assert list(zip(*(c.tolist() for c in cand))) == want
    # the winners: the offers best at every end, ascending
    assert won.dtype.kind == "i"
    assert won.tolist() == [i for i in range(weights.size)
                            if all(best[e[i]] == i for e in ends)]


@pytest.mark.parametrize("weights,one", [([], True), ([2.5], True), ([1.0] * 5, True),
                                         ([0.0, -0.0, 0.0], True), ([5e-324] * 3, True),
                                         ([0.0, 5e-324], False), ([1.0, 1.0, 2.5, 1.0], False),
                                         ([3.0, 1.0], False), ([-0.0, 1.0], False)])
def test_only_differing_weights_keep_their_bits(weights, one):
    weights = np.array(weights)
    got = _deciding_bits(weights)
    if one:
        assert got is None
    else:
        assert got.dtype == np.uint64 and np.array_equal(got, weight_bits(weights))


def _unshift(x: int, k: int) -> int:
    """Inverse of ``x ^ (x >> k)`` on 64-bit words: each pass fixes k more
    of the top bits."""
    y = x
    for _ in range(64 // k + 1):
        y = x ^ (y >> k)
    return y


def _unmix64(x: int) -> int:
    """Inverse of the SplitMix64 finalizer, step by step in reverse."""
    x = _unshift(x, 31)
    x = (x * pow(_MIX_B, -1, 2**64)) & _UINT64_MASK
    x = _unshift(x, 27)
    x = (x * pow(_MIX_A, -1, 2**64)) & _UINT64_MASK
    x = _unshift(x, 30)
    return (x - _GOLDEN) & _UINT64_MASK


def test_salt_finalizer_is_a_bijection():
    """Every step of the finalizer is invertible mod 2**64, so distinct ids
    get distinct salts within a round and the id never decides a key."""
    rng = np.random.default_rng(5)
    randoms = rng.integers(0, 2**64, 200, dtype=np.uint64).tolist()
    for x in [0, 1, 2**63, 2**64 - 1] + randoms:
        assert _unmix64(_mix64_int(x)) == x
        assert _mix64_int(_unmix64(x)) == x
