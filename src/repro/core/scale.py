"""Large-domain construction via restricted-boundary dynamic programming.

The optimal builders are quadratic in the domain size — fine for the
synopsis-sized domains the paper evaluates, not for a 100k-value
attribute.  The classic engineering answer is to run the *same* DP over
a restricted set of ``m << n`` candidate boundary positions: the DP is
then exactly optimal over that candidate set, at
``O(m n + m^2 B)`` instead of ``O(n^2 B)``.

Candidate selection is what makes this work on skewed data.  A uniform
coarse grid alone misplaces boundaries around spikes (the head of a
Zipf distribution changes by orders of magnitude between adjacent
values); we therefore union

* a uniform grid bringing the count to the target, with
* the neighbourhoods of the largest values and of the steepest jumps
  (boundary positions that any good bucketing wants available).

A final local-search pass (on a sampled workload, to stay
sub-quadratic) can polish the result further.
"""

from __future__ import annotations

import numpy as np

from repro.core.a0 import a0_objective_rows
from repro.core.histogram import AverageHistogram
from repro.core.refine import refine_boundaries
from repro.core.sap import sap_bucket_costs
from repro.errors import InvalidParameterError
from repro.internal.prefix import PrefixAlgebra, WeightedPointCost
from repro.internal.validation import as_frequency_vector, check_bucket_count
from repro.queries.workload import random_ranges

#: Target candidate-set size when chosen automatically.
DEFAULT_CANDIDATE_TARGET = 512

#: Methods the restricted DP can drive (sum-combine objectives with
#: vectorised cost rows).
SCALABLE_METHODS = ("sap0", "sap1", "a0", "point-opt", "prefix-opt")


def _cost_row_factory(method: str, data: np.ndarray):
    """``factory -> cost_row(a) -> costs for b = a..n-1`` per method."""
    n = data.size
    if method in ("sap0", "sap1"):
        algebra = PrefixAlgebra(data)
        order = 0 if method == "sap0" else 1
        return lambda a: sap_bucket_costs(algebra, a, np.arange(a, n), order)
    if method == "a0":
        algebra = PrefixAlgebra(data)
        return lambda a: a0_objective_rows(algebra, a)
    if method == "point-opt":
        from repro.core.vopt import range_participation_weights

        costs = WeightedPointCost(data, range_participation_weights(n))
        return lambda a: np.asarray(costs.bucket_cost(a, np.arange(a, n)))
    if method == "prefix-opt":
        algebra = PrefixAlgebra(data)

        def cost_row(a: int) -> np.ndarray:
            _, p2 = algebra.prefix_error_moments(a, np.arange(a, n))
            return np.asarray(p2)

        return cost_row
    raise InvalidParameterError(
        f"method {method!r} is not scalable; choose from {SCALABLE_METHODS}"
    )


def default_candidates(
    data: np.ndarray,
    n_buckets: int,
    target: int = DEFAULT_CANDIDATE_TARGET,
) -> np.ndarray:
    """Candidate boundary positions: uniform grid + data-adaptive picks.

    The adaptive picks are the neighbourhoods (position and position+1)
    of the ``4 * n_buckets`` largest values and of the ``4 * n_buckets``
    steepest adjacent jumps — the positions skew pushes boundaries
    toward.  Always includes 0; sorted and deduplicated.
    """
    n = data.size
    if n <= target:
        return np.arange(n, dtype=np.int64)
    grid_step = max(n // target, 1)
    grid = np.arange(0, n, grid_step, dtype=np.int64)
    k = min(4 * n_buckets, n)
    spikes = np.argsort(-data, kind="stable")[:k].astype(np.int64)
    jumps = np.argsort(-np.abs(np.diff(data)), kind="stable")[:k].astype(np.int64)
    adaptive = np.concatenate((spikes, spikes + 1, jumps, jumps + 1))
    candidates = np.unique(np.concatenate(([0], grid, adaptive)))
    return candidates[(candidates >= 0) & (candidates < n)]


def restricted_interval_dp(
    n: int,
    max_buckets: int,
    cost_row,
    candidates: np.ndarray,
) -> tuple[np.ndarray, float]:
    """The interval DP with bucket starts restricted to ``candidates``.

    Exactly optimal over bucketings whose boundaries all lie in the
    candidate set; ``O(m n)`` cost evaluation plus ``O(m^2 B)`` DP.
    """
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    if candidates[0] != 0 or candidates[-1] >= n:
        raise InvalidParameterError("candidates must start at 0 and stay < n")
    m = candidates.size
    # ends[j] = candidate[j+1] - 1, last bucket ends at n - 1.
    ends = np.concatenate((candidates[1:] - 1, [n - 1]))
    # cost[s, e] = cost of bucket [candidates[s], ends[e]] for e >= s.
    cost = np.full((m, m), np.inf)
    for s in range(m):
        row = np.asarray(cost_row(int(candidates[s])), dtype=np.float64)
        valid_ends = ends[s:] - candidates[s]
        cost[s, s:] = row[valid_ends]

    best = np.full((max_buckets + 1, m + 1), np.inf)
    parent = np.zeros((max_buckets + 1, m + 1), dtype=np.int64)
    best[:, 0] = 0.0
    for k in range(1, max_buckets + 1):
        prev = best[k - 1]
        for i in range(1, m + 1):
            options = prev[:i] + cost[:i, i - 1]
            j = int(np.argmin(options))
            best[k, i] = options[j]
            parent[k, i] = j

    lefts: list[int] = []
    i, k = m, max_buckets
    while i > 0:
        j = int(parent[k, i])
        lefts.append(int(candidates[j]))
        i, k = j, k - 1
    lefts.reverse()
    return np.asarray(lefts, dtype=np.int64), float(best[max_buckets, m])


def build_scaled(
    data,
    n_buckets: int,
    *,
    method: str = "sap1",
    candidates: np.ndarray | None = None,
    target_candidates: int = DEFAULT_CANDIDATE_TARGET,
    refine: bool = True,
    refine_queries: int = 4000,
    seed: int = 0,
) -> AverageHistogram:
    """Build a histogram for a large domain via the restricted DP.

    Parameters
    ----------
    data:
        Full-resolution frequency vector (any size).
    n_buckets:
        Bucket budget.
    method:
        Objective driving the DP (one of :data:`SCALABLE_METHODS`); the
        returned histogram stores exact full-resolution bucket averages
        and answers un-rounded equation (1) regardless.
    candidates:
        Explicit candidate boundary positions (must include 0).
        Defaults to :func:`default_candidates`.
    refine:
        Polish boundaries with local search on a sampled workload.

    Returns
    -------
    AverageHistogram
        2B-word histogram with full-resolution boundaries.
    """
    data = as_frequency_vector(data)
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    cost_row = _cost_row_factory(method, data)
    if candidates is None:
        candidates = default_candidates(data, n_buckets, target_candidates)
    lefts, _ = restricted_interval_dp(n, n_buckets, cost_row, candidates)

    label = f"{method.upper()}-SCALED"
    # Rebuild in the method's own representation (SAP summaries matter).
    if method in ("sap0", "sap1"):
        from repro.core.sap import sap_histogram_from_boundaries

        def build(full_data, candidate_lefts):
            hist = sap_histogram_from_boundaries(
                full_data, candidate_lefts, order=0 if method == "sap0" else 1
            )
            hist._label = label
            return hist
    else:
        def build(full_data, candidate_lefts):
            return AverageHistogram.from_boundaries(
                full_data, candidate_lefts, rounding="none", label=label
            )

    if refine and n > candidates.size:
        workload = random_ranges(n, refine_queries, seed=seed)
        step = max(int(n // candidates.size), 1)
        estimator, _, _ = refine_boundaries(
            data, lefts, build=build, workload=workload, step=step, max_passes=6
        )
        return estimator
    return build(data, lefts)
