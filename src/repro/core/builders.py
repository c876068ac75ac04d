"""Builder registry with the paper's storage accounting.

Figure 1's x-axis is storage in machine words: a bucket boundary, a
summary value, and a wavelet coefficient index or value are one word
each.  This module records the words-per-unit of every method (Theorems
7, 8, 10 and the wavelet convention) and converts a word budget into a
bucket/coefficient count, so experiments can sweep a single budget axis
across representations with different per-bucket footprints — the
comparison the paper's Section 4 is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.a0 import build_a0
from repro.core.classic import build_equi_depth, build_equi_width, build_prefix_opt
from repro.core.workload_aware import build_workload_aware
from repro.core.minimax import build_minimax
from repro.core.naive import build_naive
from repro.core.opt_a import build_opt_a
from repro.core.opt_a_rounded import build_opt_a_auto, build_opt_a_rounded
from repro.core.sap import build_sap0, build_sap1
from repro.core.sap_poly import build_sap_poly
from repro.core.vopt import build_point_opt
from repro.errors import BudgetExceededError, InvalidParameterError
from repro.wavelets.point_topb import build_wavelet_point
from repro.wavelets.range_optimal import build_wavelet_range


@dataclass(frozen=True)
class BuilderSpec:
    """How to build one synopsis family and account for its storage."""

    name: str
    words_per_unit: int
    build: Callable
    description: str
    #: ``build`` also takes a ``[shards, n]`` stack with one unit count
    #: per row and returns one synopsis per row, solving every row's DP
    #: in one stacked pass (see :func:`repro.internal.dp.prefix_cost_dp`).
    stacks: bool = False


def _build_naive_budgeted(data, units: int, **kwargs):
    # NAIVE ignores the budget beyond its fixed 2 words.
    del units
    return build_naive(data, **kwargs)


def _build_sketch_budgeted(data, units: int, **kwargs):
    from repro.sketches.dyadic import build_sketch

    return build_sketch(data, units, **kwargs)


BUILDER_REGISTRY: dict[str, BuilderSpec] = {
    spec.name: spec
    for spec in (
        BuilderSpec("naive", 2, _build_naive_budgeted, "single global average"),
        BuilderSpec("point-opt", 2, build_point_opt, "V-optimal for weighted point queries"),
        BuilderSpec("a0", 2, build_a0, "OPT-A answering, cross-term-free DP", stacks=True),
        BuilderSpec("opt-a", 2, build_opt_a, "exact range-optimal average histogram"),
        BuilderSpec(
            "opt-a-rounded", 2, build_opt_a_rounded, "(1+eps)-approximate OPT-A"
        ),
        BuilderSpec(
            "opt-a-auto", 2, build_opt_a_auto, "exact OPT-A, auto-rounded when too heavy"
        ),
        BuilderSpec("minimax", 2, build_minimax, "minimises the maximum point error"),
        BuilderSpec("equi-width", 2, build_equi_width, "equal-length buckets (engine default)"),
        BuilderSpec("equi-depth", 2, build_equi_depth, "equal-mass buckets (engine default)"),
        BuilderSpec("prefix-opt", 2, build_prefix_opt, "optimal for prefix workloads [9]"),
        BuilderSpec(
            "workload-a0", 2, build_workload_aware, "workload-weighted boundary DP"
        ),
        BuilderSpec(
            "sap0", 3, build_sap0, "range-optimal, constant suffix/prefix summaries",
            stacks=True,
        ),
        BuilderSpec(
            "sap1", 5, build_sap1, "range-optimal, linear suffix/prefix summaries",
            stacks=True,
        ),
        BuilderSpec(
            "sap2",
            7,
            lambda data, units, **kw: build_sap_poly(data, units, degree=2, **kw),
            "range-optimal, quadratic suffix/prefix summaries",
        ),
        BuilderSpec(
            "sap3",
            9,
            lambda data, units, **kw: build_sap_poly(data, units, degree=3, **kw),
            "range-optimal, cubic suffix/prefix summaries",
        ),
        BuilderSpec("sketch-cm", 1, _build_sketch_budgeted, "dyadic Count-Min sketch (streaming)"),
        BuilderSpec("wavelet-point", 2, build_wavelet_point, "largest-B Haar coefficients"),
        BuilderSpec(
            "wavelet-range", 2, build_wavelet_range, "range-optimal Haar coefficients"
        ),
    )
}


def buckets_for_budget(name: str, budget_words: int) -> int:
    """Units (buckets or coefficients) affordable within ``budget_words``."""
    spec = BUILDER_REGISTRY.get(name)
    if spec is None:
        raise InvalidParameterError(
            f"unknown builder {name!r}; available: {sorted(BUILDER_REGISTRY)}"
        )
    units = budget_words // spec.words_per_unit
    if units < 1:
        raise BudgetExceededError(
            f"{name} needs at least {spec.words_per_unit} words, got {budget_words}"
        )
    return units


def build_units(name: str, data, budget_words: int) -> int:
    """The unit count :func:`build_by_name` hands the named builder.

    This is the chaos-testing choke point for synopsis construction:
    an active :class:`repro.internal.faults.FaultInjector` can fail or
    slow any build here by method name (site ``"builder"``).  Stacked
    builds call it once per row, so the site fires per synopsis either
    way.
    """
    import numpy as np

    from repro.internal.faults import fault_point

    fault_point("builder", method=name)
    units = buckets_for_budget(name, budget_words)
    n = int(np.asarray(data).size)
    if name == "sketch-cm":
        cap = units  # sketch width is not bounded by the domain size
    elif name == "wavelet-range":
        cap = 2 * n
    else:
        cap = n
    return min(units, cap)


def build_by_name(name: str, data, budget_words: int, **kwargs):
    """Build the named synopsis within a word budget.

    ``kwargs`` are forwarded to the underlying builder (e.g. ``x=4`` for
    ``opt-a-rounded``).  Fires the ``"builder"`` fault site (see
    :func:`build_units`).
    """
    units = build_units(name, data, budget_words)
    return BUILDER_REGISTRY[name].build(data, units, **kwargs)


@dataclass(frozen=True)
class ErrorPrediction:
    """A builder's error model for one synopsis, frozen at build time.

    ``sse_per_query`` is the mean squared error over the all-ranges
    workload — exactly the builder's optimisation objective divided by
    ``n(n+1)/2`` when ``exact`` is True, and an unbiased sampled
    estimate of it otherwise (large domains, where enumerating every
    range at build time would dominate construction).  The engine's
    online auditor compares live observed error against this number to
    detect synopses that have started lying (see
    :meth:`repro.engine.engine.ApproximateQueryEngine.error_report`).
    """

    sse_per_query: float
    query_count: int
    sampled_queries: int
    exact: bool


def confidence_multiplier(confidence: float) -> float:
    """Distribution-free half-width multiplier for one confidence level.

    Applying Markov's inequality to the squared error gives
    ``P(|error| >= k * sqrt(MSE)) <= 1 / k**2`` for *any* error
    distribution, so ``k = 1 / sqrt(1 - confidence)`` yields an interval
    whose coverage over the prediction's own workload is at least
    ``confidence`` whenever the frozen ``sse_per_query`` is the true
    MSE.  Deliberately conservative (no Gaussian assumption): the
    paper's builders produce error distributions with very different
    shapes, and the serving tier's coverage gate is one-sided.
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return 1.0 / ((1.0 - confidence) ** 0.5)


def interval_halfwidth(sse_per_query: float, confidence: float) -> float:
    """Chebyshev-style confidence half-width from a frozen error model.

    ``sse_per_query`` is the mean squared error of the unresolved part
    of an answer (an :class:`ErrorPrediction`'s model, or a sum of
    boundary-shard models — squared errors of independent shard
    partials add).  Returns the half-width of a two-sided interval with
    at-least-``confidence`` coverage; exactly zero when no estimated
    mass remains.
    """
    sse = float(sse_per_query)
    if sse < 0.0:
        raise InvalidParameterError(
            f"sse_per_query must be >= 0, got {sse_per_query}"
        )
    if sse == 0.0:
        return 0.0
    return confidence_multiplier(confidence) * sse**0.5


#: Largest all-ranges workload enumerated exactly by :func:`predict_sse_per_query`.
MAX_PREDICTION_QUERIES = 8192


def predict_sse_per_query(
    estimator,
    data,
    *,
    max_queries: int = MAX_PREDICTION_QUERIES,
    seed: int = 0,
) -> ErrorPrediction:
    """The builder-reported SSE-per-query of ``estimator`` on ``data``.

    Evaluates the paper's objective over all ``n(n+1)/2`` ranges when
    that population fits in ``max_queries``; otherwise over a seeded
    uniform sample of ``max_queries`` ranges (cheap and reproducible, so
    a drift check against it is stable across calls).
    """
    import numpy as np

    from repro.queries import evaluation
    from repro.queries.workload import all_ranges, random_ranges

    data = np.asarray(data, dtype=np.float64)
    n = int(estimator.n)
    query_count = n * (n + 1) // 2
    if query_count <= max_queries:
        workload = all_ranges(n)
        exact = True
    else:
        workload = random_ranges(n, max_queries, seed=seed)
        exact = False
    total = evaluation.sse(estimator, data, workload)
    return ErrorPrediction(
        sse_per_query=total / len(workload),
        query_count=query_count,
        sampled_queries=len(workload),
        exact=exact,
    )


def _budget_split_spec(name: str, data, starts, budget_words: int, *, context: str):
    """Shared validation for the budget-split family.

    Returns ``(spec, data, starts, shard_count, masses)`` with the
    per-shard absolute masses already checked finite — NaN/inf
    frequencies would otherwise flow through the proportional weights
    into ``np.floor`` garbage that silently violates the exact-total
    invariant.  ``context`` names the caller (column/shard provenance)
    in error messages.
    """
    import numpy as np

    spec = BUILDER_REGISTRY.get(name)
    if spec is None:
        raise InvalidParameterError(
            f"unknown builder {name!r}; available: {sorted(BUILDER_REGISTRY)}"
        )
    data = np.asarray(data, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    shard_count = int(starts.size - 1)
    floor = spec.words_per_unit
    if budget_words < shard_count * floor:
        raise BudgetExceededError(
            f"{name} over {shard_count} shards needs at least "
            f"{shard_count * floor} words ({floor} per shard), got {budget_words}"
        )
    masses = np.add.reduceat(np.abs(data), starts[:-1])
    # reduceat yields the element itself for empty slices at the end;
    # shard_boundaries guarantees non-empty shards, so no correction.
    if not np.all(np.isfinite(masses)):
        bad = np.nonzero(~np.isfinite(masses))[0].tolist()
        raise InvalidParameterError(
            f"{context}: non-finite frequency mass in shard(s) {bad} "
            f"(NaN/inf in the frequency vector); budgets would be garbage"
        )
    return spec, data, starts, shard_count, masses


def _apportion_budget(weights, budget_words: int, floor: int):
    """Floor-plus-largest-remainder apportionment of a word budget.

    ``weights`` are non-negative and sum to 1.  Every shard gets
    ``floor`` words, the spare is split proportionally, and the
    fractional leftovers go to the largest remainders (ties broken by
    shard id) so the result sums to exactly ``budget_words``.
    """
    import numpy as np

    weights = np.asarray(weights, dtype=np.float64)
    shard_count = int(weights.size)
    spare = budget_words - shard_count * floor
    raw = weights * spare
    budgets = np.full(shard_count, floor, dtype=np.int64) + np.floor(raw).astype(
        np.int64
    )
    leftover = int(budget_words - budgets.sum())
    if leftover > 0:
        remainders = raw - np.floor(raw)
        # Deterministic largest-remainder: ties broken by shard id.
        order = np.lexsort((np.arange(shard_count), -remainders))
        budgets[order[:leftover]] += 1
    return budgets


def split_budget_by_mass(name: str, data, starts, budget_words: int, *, context=None):
    """Split a word budget across contiguous shards proportionally to mass.

    ``starts`` is the shard-boundary array (length ``S + 1``) over
    ``data``'s index domain.  Each shard's share is proportional to its
    absolute mass (so SUM vectors with negative values still split
    sensibly), floored at the builder's ``words_per_unit`` so every
    shard can afford at least one unit; the remainder is distributed by
    largest remainder, keeping the total exactly ``budget_words``.
    Raises :class:`~repro.errors.BudgetExceededError` when the budget
    cannot cover the per-shard floor, and
    :class:`~repro.errors.InvalidParameterError` when the frequency
    vector carries NaN/inf mass (``context`` labels the column in the
    error).
    """
    spec, data, starts, shard_count, masses = _budget_split_spec(
        name, data, starts, budget_words, context=context or name
    )
    import numpy as np

    total_mass = float(masses.sum())
    if total_mass <= 0.0:
        weights = np.full(shard_count, 1.0 / shard_count)
    else:
        weights = masses / total_mass
    return _apportion_budget(weights, budget_words, spec.words_per_unit)


def split_budget_by_workload(
    name: str, data, starts, budget_words: int, workload, *, context=None
):
    """Workload-weighted sibling of :func:`split_budget_by_mass`.

    A sharded synopsis pays estimation error only in a query's (at most
    two) *partial* boundary shards, so the budget should concentrate
    where query endpoints actually land.  Each shard's share is
    proportional to ``mass_i * pressure_i`` where ``mass_i`` is the
    shard's absolute frequency mass (a proxy for how hard the shard is
    to summarise) and ``pressure_i`` is the workload's endpoint mass in
    the shard *per domain position* — the total weight of observed
    queries whose low or high endpoint falls in shard ``i``, divided by
    the shard's width.

    Under the uniform all-ranges workload every domain position carries
    the same endpoint mass (``n + 1`` of the ``n(n+1)/2`` ranges start
    or end at each position), so ``pressure`` is constant and the split
    reduces *exactly* to :func:`split_budget_by_mass` — the differential
    suite pins this.  A skewed observed workload shifts words toward the
    hot shards instead.

    Raises :class:`~repro.errors.InvalidParameterError` on an empty or
    all-zero-weight workload (there is no signal to split by — callers
    should fall back to the mass split), on negative weights, on a
    workload/domain size mismatch, and on non-finite masses.
    """
    import numpy as np

    label = context or name
    spec, data, starts, shard_count, masses = _budget_split_spec(
        name, data, starts, budget_words, context=label
    )
    if workload is None or len(workload) == 0:
        raise InvalidParameterError(
            f"{label}: cannot split a budget by an empty workload; "
            "use split_budget_by_mass for the uniform objective"
        )
    if int(workload.n) != int(data.size):
        raise InvalidParameterError(
            f"{label}: workload domain ({workload.n}) does not match the "
            f"frequency vector length ({data.size})"
        )
    query_weights = np.asarray(workload.weights, dtype=np.float64)
    if np.any(query_weights < 0) or not np.all(np.isfinite(query_weights)):
        raise InvalidParameterError(
            f"{label}: workload weights must be finite and non-negative"
        )
    total_weight = float(query_weights.sum())
    if total_weight <= 0.0:
        raise InvalidParameterError(
            f"{label}: workload carries zero total weight; nothing to split by"
        )
    endpoint_mass = np.zeros(shard_count, dtype=np.float64)
    for endpoints in (workload.lows, workload.highs):
        shard_ids = np.searchsorted(starts, endpoints, side="right") - 1
        np.add.at(endpoint_mass, shard_ids, query_weights)
    widths = np.diff(starts).astype(np.float64)
    pressure = endpoint_mass / widths
    raw = masses * pressure
    total = float(raw.sum())
    if total <= 0.0:
        # Zero data mass everywhere the workload looks: fall back to the
        # mass split's behaviour so the result is still a valid budget.
        return split_budget_by_mass(name, data, starts, budget_words, context=label)
    return _apportion_budget(raw / total, budget_words, spec.words_per_unit)


def merge_shard_budgets(budgets, runs):
    """:func:`split_budget_by_mass` in reverse: pool budgets over merged runs.

    ``runs`` is a sorted list of non-overlapping inclusive shard-id
    pairs ``(first, last)``; each run's shards collapse into one coarser
    shard whose word budget is the *sum* of the run's budgets, so a
    compaction conserves the column's total storage allocation exactly
    (mass-proportionality is preserved too: the merged shard's mass is
    the sum of its parts' masses, and so is its budget).  Returns the
    post-merge budget vector, one entry per surviving shard.
    """
    import numpy as np

    budgets = np.asarray(budgets, dtype=np.int64)
    if budgets.ndim != 1 or budgets.size < 1:
        raise InvalidParameterError("budgets must be a non-empty 1-D vector")
    previous_end = -1
    merged: list[int] = []
    cursor = 0
    for first, last in runs:
        first, last = int(first), int(last)
        if not 0 <= first < last < budgets.size:
            raise InvalidParameterError(
                f"run ({first}, {last}) must satisfy 0 <= first < last < "
                f"{budgets.size}"
            )
        if first <= previous_end:
            raise InvalidParameterError(
                "runs must be sorted and non-overlapping"
            )
        merged.extend(budgets[cursor:first].tolist())
        merged.append(int(budgets[first : last + 1].sum()))
        previous_end = last
        cursor = last + 1
    merged.extend(budgets[cursor:].tolist())
    out = np.asarray(merged, dtype=np.int64)
    assert int(out.sum()) == int(budgets.sum())
    return out


def aggregate_shard_predictions(predictions, shard_sizes) -> ErrorPrediction | None:
    """Merge per-shard error models into one synopsis-level prediction.

    A random range decomposes into exact interior totals plus partial
    sums in its two boundary shards, so its squared error is
    ``(e_left + e_right)^2``.  Dropping the cross term (the same
    simplification the A0 builder makes) and taking each shard's local
    all-ranges SSE-per-query as a proxy for its partial-range error
    gives ``sse_per_query ~= sum_i 2 * (m_i / n) * p_i``: each endpoint
    lands in shard ``i`` with probability about ``m_i / n``, and there
    are two endpoints.  The aggregate is a heuristic, so ``exact`` is
    always False; returns ``None`` when any shard lacks a model.
    """
    import numpy as np

    if predictions is None or any(p is None for p in predictions):
        return None
    sizes = np.asarray(shard_sizes, dtype=np.float64)
    if sizes.size != len(predictions) or sizes.size == 0:
        raise InvalidParameterError(
            "shard_sizes must parallel predictions and be non-empty"
        )
    n = float(sizes.sum())
    per_query = float(
        sum(
            2.0 * (size / n) * prediction.sse_per_query
            for size, prediction in zip(sizes.tolist(), predictions)
        )
    )
    total = int(n)
    return ErrorPrediction(
        sse_per_query=per_query,
        query_count=total * (total + 1) // 2,
        sampled_queries=int(sum(p.sampled_queries for p in predictions)),
        exact=False,
    )


def _reopt_variant(base_name: str):
    """Builder for the paper's ``A-reopt`` family: build the base
    histogram, then re-optimise its stored values for the all-ranges
    SSE (Section 5).  Storage is unchanged (2 words per bucket)."""

    def build(data, units: int, **kwargs):
        from repro.core.reopt import reoptimize_values

        base = BUILDER_REGISTRY[base_name].build(data, units, **kwargs)
        return reoptimize_values(base, data)

    return build


for _base in ("naive", "point-opt", "a0", "opt-a", "opt-a-auto"):
    BUILDER_REGISTRY[f"{_base}-reopt"] = BuilderSpec(
        name=f"{_base}-reopt",
        words_per_unit=BUILDER_REGISTRY[_base].words_per_unit,
        build=_reopt_variant(_base),
        description=f"{_base} boundaries + Section 5 value re-optimisation",
    )
