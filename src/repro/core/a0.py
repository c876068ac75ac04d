"""A0: the cross-term-ignoring heuristic variant of OPT-A (Section 4).

A0 uses OPT-A's representation and answering procedure — a single
average per bucket, equation (1) — but chooses boundaries with "the same
dynamic programming set-up that we used for computing SAP0", i.e. it
drops the inter-bucket cross term ``2 * S1(P) * P1(Q)`` that makes exact
OPT-A pseudo-polynomial.  The DP objective is therefore

    cost(a, b) = intra(a, b)
               + (n - 1 - b) * S2(a, b)    # suffix errors about the average
               + a * P2(a, b)              # prefix errors about the average

which differs from the histogram's true SSE exactly by the ignored cross
terms; the resulting histogram is *not* optimal (Section 4), but costs
only ``O(n^2 B)`` and stores 2B words (Theorem 10).  In the paper's
experiments it is nearly as good as OPT-A per word of storage.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import AverageHistogram
from repro.internal.dp import prefix_cost_dp
from repro.internal.prefix import PrefixAlgebra
from repro.internal.validation import as_build_stack


def a0_bucket_costs(algebra: PrefixAlgebra, a, b):
    """A0's additive DP cost of buckets ``[a, b]``; broadcasts like the algebra."""
    _, s2 = algebra.suffix_error_moments(a, b)
    _, p2 = algebra.prefix_error_moments(a, b)
    return algebra.intra_sse(a, b) + (algebra.n - 1 - b) * s2 + a * p2


def a0_objective_rows(algebra: PrefixAlgebra, a: int) -> np.ndarray:
    """A0's additive DP cost for buckets ``[a, b]``, ``b = a..n-1``."""
    return a0_bucket_costs(algebra, a, np.arange(a, algebra.n))


def build_a0(data, n_buckets, rounding: str = "per_piece"):
    """Build the A0 heuristic histogram with at most ``n_buckets`` buckets.

    ``data`` may be a ``[shards, n]`` stack with one bucket count per
    row; the result is then a list of histograms from one stacked DP
    pass, bit-identical to building each row alone.
    """
    stack, caps, single = as_build_stack(data, n_buckets)
    all_lefts = prefix_cost_dp(stack, caps, a0_bucket_costs)
    histograms = [
        AverageHistogram.from_boundaries(row, lefts, rounding=rounding, label="A0")
        for row, lefts in zip(stack, all_lefts)
    ]
    return histograms[0] if single else histograms
