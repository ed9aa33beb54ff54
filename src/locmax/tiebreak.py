"""Deterministic tie-breaking keys shared by every matching engine.

Edges are ordered by the triple (weight, salt, edge id), compared
lexicographically. The salt is a 64-bit value derived from a counter-based
hash of (experiment seed, round number, edge id), so the same edge gets the
same salt in the sequential, PRAM and bulk-synchronous engines regardless of
scheduling. Salts cannot collide within a round, because the finalizer is
a bijection of 64-bit words, so the id stays in the key but never decides.
Every engine takes per-vertex maxima of this order through one kernel,
:func:`_raise_candidates`, with scatter-max stages (pram's model counts them
as segmented max reductions over each vertex's slots) and returns the
offers that hold the key at all their ends; none sorts keys. A stage runs
only where it can still decide a key: the weight stage only when the
weights differ (:func:`_deciding_bits`, decided by the caller), and the
salt stage only over the offers that are weight-maximal at their vertex.
"""

from __future__ import annotations

import numpy as np

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF

# SplitMix64 constants.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# The same constants and shift counts as uint64 scalars, so the array
# finalizer converts no Python int (those above 2**63 are slow to convert).
_U_GOLDEN, _U_MIX_A, _U_MIX_B = np.uint64(_GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
# Words per block of the array finalizer: 2**14 (128 KiB), inside a core's L2.
_MIX_BLOCK = 1 << 14

# Stream tag keeping per-vertex coin flips decorrelated from edge salts.
_COIN_STREAM = 0xD6E8FEB86659FD93


def _mix64_in_place(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place (wrapping arithmetic).

    A 1-d array takes all six steps one ``_MIX_BLOCK`` at a time, the blocked
    scan of the external-memory model done in memory. In-place array
    arithmetic wraps silently; only numpy scalars warn on overflow, so a 0-d
    input stays an array until the result is returned.
    """
    for b in [x[i:i + _MIX_BLOCK] for i in range(0, x.size, _MIX_BLOCK)] if x.ndim else [x]:
        b += _U_GOLDEN
        b ^= b >> _U30
        b *= _U_MIX_A
        b ^= b >> _U27
        b *= _U_MIX_B
        b ^= b >> _U31
    return x if x.ndim else x[()]


def _mix64_int(x: int) -> int:
    """The same finalizer on one Python int in [0, 2**64)."""
    x = (x + _GOLDEN) & _UINT64_MASK
    x = ((x ^ (x >> 30)) * _MIX_A) & _UINT64_MASK
    x = ((x ^ (x >> 27)) * _MIX_B) & _UINT64_MASK
    return x ^ (x >> 31)


def round_seed(seed: int, round_index: int, rerandomize: bool = True) -> int:
    """Derive the per-round seed that keys all salts drawn in one round.

    With ``rerandomize`` disabled every round collapses onto round 0, so
    salts stay fixed for the whole run.
    """
    if round_index < 0:
        raise ValueError(f"round_index must be nonnegative, got {round_index}")
    r = round_index if rerandomize else 0
    return _mix64_int(_mix64_int(seed & _UINT64_MASK) ^ r)


def edge_salts(round_seed_value: int, edge_ids) -> np.ndarray:
    """Per-edge uint64 salts for one round, deterministic in (seed, round, id)."""
    x = np.array(edge_ids, dtype=np.uint64)
    x ^= round_seed_value & _UINT64_MASK
    return _mix64_in_place(x)


def vertex_coins(round_seed_value: int, vertex_ids) -> np.ndarray:
    """Fair per-vertex coin flips for one round (True = blue, False = red).

    Drawn from a stream independent of :func:`edge_salts` so a vertex's
    colour never correlates with the salt of the same-numbered edge.
    """
    x = np.array(vertex_ids, dtype=np.uint64)
    x ^= (round_seed_value & _UINT64_MASK) ^ _COIN_STREAM
    return (_mix64_in_place(x) & 1).astype(bool)


def key_ranks(weights: np.ndarray, salts: np.ndarray, edge_ids: np.ndarray) -> np.ndarray:
    """Dense ranks of (weight, salt, id) keys; rank order equals key order.

    Ranks are only meaningful within the edge set they were computed for,
    but any two subsets containing the same edges agree on their relative
    order. No engine sorts keys; tests check the staged maxima against this.
    """
    order = np.lexsort((edge_ids, salts, weights))
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size, dtype=np.int64)
    return ranks


def weight_bits(weights: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 encoding of nonnegative float weights.

    Nonnegative IEEE doubles compare exactly like their bit patterns, so
    per-vertex key maxima can be taken with integer scatter-max instead of
    sorting. Adding +0.0 first maps a possible -0.0 onto +0.0.
    """
    w = np.asarray(weights, dtype=np.float64) + 0.0
    return w.view(np.uint64)


def _new_candidates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex staged keys (weight bits, salt), both at the dummy (0, 0),
    which no edge's key orders below."""
    return np.zeros(n, np.uint64), np.zeros(n, np.uint64)


def _deciding_bits(weights: np.ndarray) -> np.ndarray | None:
    """The weight bits of ``weights``, or None (building none) when they
    hold at most one weight; -0.0 and 0.0 are one.

    Equal weights decide no key, so the kernel given None skips its weight
    stage. A local max phase decides for its own edges; rbm decides once
    per run, as the survivors of one weight hold one weight too.
    """
    return None if not weights.size or (weights == weights[0]).all() else weight_bits(weights)


def _raise_candidates(cand, ends, wbits, salts) -> np.ndarray:
    """Raise vertex candidates to the heaviest (weight, salt) key offered;
    return the ascending indices of the offers that hold it at every end.

    Offer ``i`` carries the key ``(wbits[i], salts[i])`` to vertex ``e[i]``
    of every column ``e`` in ``ends``. Stage 1 scatter-maxes the weights,
    then stage 2 the salts of the offers at their vertex's weight, each
    over all columns before the next reads it. When ``wbits`` is None (one
    weight, see :func:`_deciding_bits`), stage 1 is skipped and ``cand``'s
    weights are left as they are. The offered vertices' candidates must
    start at the dummy (every caller passes a fresh table) and salts be
    distinct per offer (one round's are per edge), so an offer holds its
    vertex's key iff it holds its salt: the first column is read only at
    the weight-maximal offers, and a later one only at the offers that
    still win.
    """
    cand_w, cand_s = cand
    won = None  # the offers still winning; None for all of them
    if wbits is None:
        for e in ends:
            np.maximum.at(cand_s, e, salts)
    else:
        for e in ends:
            np.maximum.at(cand_w, e, wbits)
        heavy = [np.flatnonzero(cand_w[e] == wbits) for e in ends]
        for e, at in zip(ends, heavy):
            np.maximum.at(cand_s, e[at], salts[at])
        won = heavy[0]
    for e in ends:  # compress: a boolean index is ~5x slower here in numpy 2.4
        won = (np.flatnonzero(cand_s[e] == salts) if won is None
               else won.compress(cand_s[e[won]] == salts[won]))
    return won
