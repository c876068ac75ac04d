"""Scalar reference for the interval DP's whole-layer fill."""

import numpy as np


def fill_layer_scalar(prev: np.ndarray, cost: np.ndarray, merge):
    """One DP layer, one shard and one prefix at a time.

    Same contract as :func:`repro.internal.dp._fill_layer`: ``prev`` is
    the previous layer over prefixes ``0..n`` (``[S, n+1]``), ``cost``
    the ``[S, n, n]`` tensor indexed ``[s, b, a]``; returns ``(values,
    parents)``, each ``[S, n]``.  Prefix ``i`` takes the first smallest
    ``j < i`` of ``merge(prev[j], cost(j, i-1))``.
    """
    shards, n = cost.shape[:2]
    values = np.empty((shards, n))
    parents = np.empty((shards, n), dtype=np.int64)
    for s in range(shards):
        for i in range(1, n + 1):
            candidates = merge(prev[s, :i], cost[s, i - 1, :i])
            j = int(np.argmin(candidates))
            values[s, i - 1] = candidates[j]
            parents[s, i - 1] = j
    return values, parents
