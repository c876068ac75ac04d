"""Differential tests: sharded vs monolithic synopses, every builder.

For each registered builder the sharded composition must (a) answer
shard-aligned ranges exactly — the decomposition identity makes them
pure prefix-sum differences of frozen exact totals — (b) keep arbitrary
ranges inside the deterministic error budget of the two boundary shards,
and (c) return bit-identical answers down the scalar and batch engine
paths.

``workload-a0`` is excluded: its ``workload=`` kwarg describes ranges
over the *whole* domain, so a per-shard build would need the workload
sliced per shard — an unsupported (and documented) combination.
"""

import numpy as np
import pytest

from repro.core.builders import BUILDER_REGISTRY
from repro.engine import AggregateQuery, ApproximateQueryEngine, Table, build_sharded
from repro.queries.workload import random_ranges

SHARDS = 4
UNSUPPORTED = {
    "workload-a0": "workload kwarg is domain-global; cannot slice per shard",
}
# sketch-cm's real floor is its dyadic-level overhead per sketch, far
# above split_budget_by_mass's words_per_unit floor; the engine path
# needs even more because the SUM estimator's mass-proportional split
# starves the low-value shard.
BUDGETS = {"sketch-cm": 800}
ENGINE_BUDGETS = {"sketch-cm": 8000}

METHODS = sorted(name for name in BUILDER_REGISTRY if name not in UNSUPPORTED)


def _budget(method: str) -> int:
    return BUDGETS.get(method, 48)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(41)
    return rng.integers(0, 30, 48).astype(np.float64)


@pytest.fixture(scope="module")
def sharded_by_method(data):
    return {
        method: build_sharded(method, data, _budget(method), SHARDS)
        for method in METHODS
    }


def _exact(data, low, high):
    return float(data[low : high + 1].sum())


@pytest.mark.parametrize("method", METHODS)
def test_shard_aligned_ranges_exact_for_every_builder(data, sharded_by_method, method):
    synopsis = sharded_by_method[method]
    starts = synopsis.starts
    for i in range(synopsis.num_shards):
        for j in range(i, synopsis.num_shards):
            low, high = int(starts[i]), int(starts[j + 1]) - 1
            expected = float(synopsis.totals[i : j + 1].sum())
            assert synopsis.estimate(low, high) == expected == _exact(data, low, high)


@pytest.mark.parametrize("method", METHODS)
def test_error_bounded_by_boundary_shards(data, sharded_by_method, method):
    synopsis = sharded_by_method[method]
    starts = synopsis.starts
    bounds = []
    for shard in range(synopsis.num_shards):
        piece = data[starts[shard] : starts[shard + 1]]
        estimator = synopsis.estimators[shard]
        worst = 0.0
        for a in range(piece.size):
            for b in range(a, piece.size):
                worst = max(worst, abs(estimator.estimate(a, b) - _exact(piece, a, b)))
        bounds.append(worst)

    rng = np.random.default_rng(13)
    lows = rng.integers(0, data.size, 250)
    highs = rng.integers(0, data.size, 250)
    lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    estimates = synopsis.estimate_many(lows, highs)
    sse = 0.0
    sse_budget = 0.0
    for low, high, estimate in zip(lows.tolist(), highs.tolist(), estimates):
        error = abs(estimate - _exact(data, low, high))
        left = int(synopsis.shard_of([low])[0])
        right = int(synopsis.shard_of([high])[0])
        assert error <= bounds[left] + bounds[right] + 1e-9, (
            f"{method}: error {error} exceeds boundary budget on [{low}, {high}]"
        )
        sse += error**2
        sse_budget += (bounds[left] + bounds[right]) ** 2
    assert sse <= sse_budget + 1e-6


@pytest.mark.parametrize("method", METHODS)
def test_batch_path_matches_scalar_path(data, method):
    engine = ApproximateQueryEngine(predict_errors=False)
    values = np.repeat(np.arange(data.size), data.astype(np.int64))
    engine.register_table(Table("t", {"v": values}))
    budget = ENGINE_BUDGETS.get(method, 2 * _budget(method))
    engine.build_synopsis("t", "v", method=method, budget_words=budget, shards=SHARDS)
    queries = [
        AggregateQuery("t", "v", aggregate, float(low), float(high))
        for aggregate in ("count", "sum")
        for low, high in random_ranges(data.size, 40, seed=29)
    ]
    batch_results = engine.execute_batch(queries)
    for query, batched in zip(queries, batch_results):
        assert engine.execute(query).estimate == batched.estimate, (
            f"{method}: batch diverged from scalar on {query}"
        )
