"""Generic interval dynamic program for additive histogram objectives.

Every polynomial-time construction in the paper (point-optimal [6],
SAP0/SAP1 via the Decomposition Lemma, and the A0 heuristic) minimises a
sum of independent per-bucket costs.  This module implements the shared
``O(n^2 B)`` dynamic program once, fully vectorised with numpy:

    D[k][i] = min cost of covering the prefix of length i with at most k
              buckets = min_{0 <= j < i} D[k-1][j] + cost(j, i-1)

Because the objective is a sum of per-bucket costs, every shard of a
sharded synopsis poses the same problem on its own slice, so the DP runs
over a ``[shards, n, n]`` cost tensor with one bucket cap per shard,
indexed ``cost[s, b, a]`` (bucket end before start, so each prefix's
candidates are contiguous):
:func:`stacked_interval_dp` solves a whole stack in one pass, and
:func:`interval_dp` is its one-shard case for builders that supply a
``cost_row(a)`` callback.  :func:`prefix_cost_dp` fills the tensor from
:class:`~repro.internal.prefix.PrefixAlgebra` closed forms (SAP0, SAP1,
A0), in groups and row blocks bounded by :data:`STACK_BYTES`.

Each DP layer is filled as one whole-layer kernel: the candidate tensor
``merge(prev[s, j], cost[s, i-1, j])`` is formed by a single broadcast
and reduced with an argmin over ``j`` — no per-prefix Python loop.  The
cells with ``a > b`` are ``+inf``, which makes the out-of-range
candidates (``j >= i``) inert under both ``sum`` and ``max`` combines,
so the vectorised fill selects from exactly the same candidate set, with
the same first-smallest-``j`` tie-break, as the scalar recurrence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.internal.deadline import check_deadline
from repro.internal.prefix import PrefixAlgebra

#: Byte cap on one stacked group's cost tensor, and on each temporary of
#: a closed-form row block: 32 shards of width 16, or two rows of a
#: 4,096-value vector.  Bounds a build's transient memory whatever the
#: shard count.
STACK_BYTES = 1 << 16


def _fill_layer(prev: np.ndarray, cost: np.ndarray, merge):
    """One DP layer for every shard: ``(values, parents)``, each ``[S, n]``.

    ``prev`` is the previous layer over prefixes ``0..n`` (``[S, n+1]``)
    and ``cost`` the ``[S, n, n]`` bucket-cost tensor indexed ``[s, b,
    a]`` (``+inf`` where ``a > b``).  A module-level seam: the
    differential tests swap in a scalar per-prefix reference.
    """
    candidates = merge(prev[:, None, :-1], cost)
    parents = np.argmin(candidates, axis=2)
    values = np.take_along_axis(candidates, parents[:, :, None], axis=2)[:, :, 0]
    return values, parents


def stacked_interval_dp(
    cost: np.ndarray, max_buckets, combine: str = "sum"
) -> tuple[list[np.ndarray], np.ndarray]:
    """Optimal partitions of every shard of a ``[S, n, n]`` cost tensor.

    ``cost[s, b, a]`` is shard ``s``'s cost of bucket ``[a, b]``
    (``+inf`` for ``a > b``) and ``max_buckets`` holds one bucket cap
    per shard.  Returns ``(lefts, totals)``: per shard, the bucket start
    indices and the optimal total.  Each shard's result is the one a
    one-shard DP over its own slice returns, bit for bit; its final
    state is the best over its own ``k <= max_buckets[s]`` (ties prefer
    fewer buckets), so objectives with a per-bucket overhead still
    resolve to the true optimum.
    """
    if combine not in ("sum", "max"):
        raise ValueError(f"combine must be 'sum' or 'max', got {combine!r}")
    merge = np.add if combine == "sum" else np.maximum
    shards, n = cost.shape[:2]
    caps = np.asarray(max_buckets, dtype=np.int64).reshape(-1)
    if caps.size != shards:
        raise ValueError(f"need one bucket cap per shard ({shards}), got {caps.size}")
    if np.any(caps < 1):
        raise ValueError(f"max_buckets must be >= 1, got {caps.min()}")
    layers = int(caps.max())
    best = np.full((layers + 1, shards, n + 1), np.inf)
    parent = np.zeros((layers + 1, shards, n + 1), dtype=np.int64)
    best[:, :, 0] = 0.0 if combine == "sum" else -np.inf
    for k in range(1, layers + 1):
        check_deadline("interval DP layer fill")
        values, parents = _fill_layer(best[k - 1], cost, merge)
        best[k, :, 1:] = values
        parent[k, :, 1:] = parents

    lefts: list[np.ndarray] = []
    totals = np.empty(shards)
    for s in range(shards):
        # Final state: best over every bucket count k <= this shard's
        # cap; the layers past it were filled but are never read.
        k_best = 1 + int(np.argmin(best[1 : caps[s] + 1, s, n]))
        starts: list[int] = []
        i, k = n, k_best
        while i > 0:
            j = int(parent[k, s, i])
            starts.append(j)
            i, k = j, k - 1
        lefts.append(np.asarray(starts[::-1], dtype=np.int64))
        totals[s] = best[k_best, s, n]
    return lefts, totals


def interval_dp(
    n: int,
    max_buckets: int,
    cost_row: Callable[[int], np.ndarray],
    combine: str = "sum",
) -> tuple[np.ndarray, float]:
    """Optimal partition of ``[0, n)`` into at most ``max_buckets`` buckets.

    The one-shard case of :func:`stacked_interval_dp`, for builders whose
    bucket costs come from a callback.

    Parameters
    ----------
    n:
        Domain size.
    max_buckets:
        Upper bound on the number of buckets (using fewer is allowed and
        happens when it is not worse).
    cost_row:
        Callback returning ``cost(a, b)`` for ``b = a..n-1`` as a float
        array of length ``n - a``.
    combine:
        How bucket costs aggregate: ``"sum"`` (SSE-style objectives) or
        ``"max"`` (minimax objectives — minimise the worst bucket).

    Returns
    -------
    (lefts, total_cost):
        Bucket start indices (``lefts[0] == 0``) and the optimal total,
        the best over *all* layers ``k <= max_buckets``.
    """
    cost = np.full((1, n, n), np.inf)
    for a in range(n):
        check_deadline("interval DP cost precompute")
        row = np.asarray(cost_row(a), dtype=np.float64)
        if row.shape != (n - a,):
            raise ValueError(f"cost_row({a}) must have length {n - a}, got {row.shape}")
        cost[0, a:, a] = row
    lefts, totals = stacked_interval_dp(cost, [max_buckets], combine)
    return lefts[0], float(totals[0])


def prefix_cost_dp(stack: np.ndarray, max_buckets, bucket_costs) -> list[np.ndarray]:
    """Optimal bucket boundaries for every row of a ``[S, n]`` stack.

    ``bucket_costs(algebra, a, b)`` evaluates a closed-form bucket cost
    over a :class:`~repro.internal.prefix.PrefixAlgebra` of several rows
    at once (``a``, ``b`` are matching index arrays; the result has a
    leading row axis).  Rows are solved in groups whose cost tensor fits
    :data:`STACK_BYTES`, and each group's tensor is filled in row blocks
    of at most that many bytes per temporary, so a build's transient
    memory stays bounded: a group of small shards is one block, and a
    single wide vector is filled a few rows at a time.  ``max_buckets``
    holds one cap per row; the result holds one ``lefts`` array per row.
    """
    stack = np.asarray(stack, dtype=np.float64)
    caps = np.asarray(max_buckets, dtype=np.int64)
    shards, n = stack.shape
    group = max(1, STACK_BYTES // (n * n * 8))
    lefts: list[np.ndarray] = []
    for first in range(0, shards, group):
        rows = stack[first : first + group]
        algebra = PrefixAlgebra(rows)
        cost = np.full((rows.shape[0], n, n), np.inf)
        # A row holds at most n buckets, so this many rows keep every
        # temporary of a block within STACK_BYTES.
        block = max(1, STACK_BYTES // (8 * rows.shape[0] * n))
        for a in range(0, n, block):
            check_deadline("interval DP cost precompute")
            starts = np.arange(a, min(a + block, n))
            block_a, block_b = np.nonzero(np.arange(n) >= starts[:, None])
            block_a += a
            cost[:, block_b, block_a] = bucket_costs(algebra, block_a, block_b)
        group_lefts, _ = stacked_interval_dp(cost, caps[first : first + group])
        lefts.extend(group_lefts)
    return lefts
