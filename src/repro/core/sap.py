"""SAP0 and SAP1: range-optimal histograms in polynomial time.

These are the paper's Section 2.2 constructions.  Each bucket stores, in
addition to its average, summary values for the *suffix* piece (left
endpoint of an inter-bucket range falls here) and the *prefix* piece
(right endpoint falls here): constants for SAP0, linear functions of the
piece length for SAP1.

The Decomposition Lemma (Lemma 5) shows that when the stored summaries
are the bucket means of suffix/prefix sums (SAP0) — or, by the same
argument, their least-squares fits (SAP1) — the cross terms of the
sum-squared error vanish, so the total SSE is a sum of independent
per-bucket costs:

    cost(a, b) = intra(a, b)                      # ranges inside the bucket
               + (n - 1 - b) * SSR_suffix(a, b)   # left endpoints here
               + a * SSR_prefix(a, b)             # right endpoints here

(0-indexed; ``(n - 1 - b)`` right endpoints lie strictly right of the
bucket and ``a`` left endpoints strictly left).  For SAP0 the residuals
are variances about the mean; for SAP1, regression residuals.  The
shared interval DP then finds the optimal boundaries in ``O(n^2 B)``
(Theorems 6 and 8), and by the Lemma the result is optimal over *all*
boundaries and summary values simultaneously.

Because the cost is a closed form in the prefix algebra, the builders
also take a ``[shards, n]`` stack of equal-width vectors and solve every
row's DP in one stacked pass (see :func:`repro.internal.dp.prefix_cost_dp`);
a single vector is the one-row case of the same code.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import SapHistogram
from repro.internal.dp import prefix_cost_dp
from repro.internal.prefix import PrefixAlgebra
from repro.internal.validation import as_build_stack, as_frequency_vector


def sap_bucket_costs(algebra: PrefixAlgebra, a, b, order: int):
    """SAP0 (``order=0``) or SAP1 DP cost of buckets ``[a, b]``.

    Broadcasts like the algebra's statistics: one call can cost every
    ``(shard, a, b)`` of a stacked build.
    """
    if order == 0:
        _, suffix = algebra.sap0_suffix(a, b)
        _, prefix = algebra.sap0_prefix(a, b)
    else:
        suffix = algebra.sap1_suffix_ssr(a, b)
        prefix = algebra.sap1_prefix_ssr(a, b)
    return algebra.intra_sse(a, b) + (algebra.n - 1 - b) * suffix + a * prefix


def sap_histogram_from_boundaries(data, lefts, order: int) -> SapHistogram:
    """Assemble the SAP histogram with optimal summaries for given boundaries."""
    data = as_frequency_vector(data)
    algebra = PrefixAlgebra(data)
    lefts = np.asarray(lefts, dtype=np.int64)
    n = data.size
    rights = np.concatenate((lefts[1:] - 1, [n - 1]))
    averages, suf_slope, suf_int, pre_slope, pre_int = [], [], [], [], []
    for a, b in zip(lefts.tolist(), rights.tolist()):
        averages.append(algebra.bucket_mean(a, b))
        if order == 0:
            suffix_value, _ = algebra.sap0_suffix(a, b)
            prefix_value, _ = algebra.sap0_prefix(a, b)
            suf_slope.append(0.0)
            suf_int.append(float(suffix_value))
            pre_slope.append(0.0)
            pre_int.append(float(prefix_value))
        else:
            suffix_fit = algebra.sap1_suffix_fit(a, b)
            prefix_fit = algebra.sap1_prefix_fit(a, b)
            suf_slope.append(suffix_fit.slope)
            suf_int.append(suffix_fit.intercept)
            pre_slope.append(prefix_fit.slope)
            pre_int.append(prefix_fit.intercept)
    return SapHistogram(
        lefts, averages, suf_slope, suf_int, pre_slope, pre_int, n, order=order
    )


def _build(data, n_buckets, order: int):
    stack, caps, single = as_build_stack(data, n_buckets)
    all_lefts = prefix_cost_dp(
        stack, caps, lambda algebra, a, b: sap_bucket_costs(algebra, a, b, order)
    )
    histograms = [
        sap_histogram_from_boundaries(row, lefts, order)
        for row, lefts in zip(stack, all_lefts)
    ]
    return histograms[0] if single else histograms


def build_sap0(data, n_buckets):
    """Range-optimal SAP0 histogram (Theorem 6); 3B words of storage.

    ``data`` may be a ``[shards, n]`` stack with one bucket count per
    row; the result is then a list of histograms, bit-identical to
    building each row alone.
    """
    return _build(data, n_buckets, order=0)


def build_sap1(data, n_buckets):
    """Range-optimal SAP1 histogram (Theorem 8); 5B words of storage.

    SAP1's answer class strictly contains OPT-A's (set the suffix/prefix
    fits to the bucket average line and you recover equation (1) without
    rounding), so for equal ``n_buckets`` its SSE is never worse than
    un-rounded OPT-A's — at 2.5x the space per bucket.  Takes a stack
    like :func:`build_sap0`.
    """
    return _build(data, n_buckets, order=1)
