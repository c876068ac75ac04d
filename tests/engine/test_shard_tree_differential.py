"""Differential tests: dyadic-tree vs flat-sum interior, every builder.

The dyadic shard tree changes *how* a sharded synopsis resolves its
fully-covered interior, never *what* it answers: on integer-valued
totals every float64 summation order is exact, so for each registered
builder the tree path and the legacy flat path must return
**bit-identical** estimates — scalar and batch — and both must keep

* shard-aligned ranges exact against the monolithic ground truth (the
  decomposition identity leaves no interior error and no partials);
* arbitrary ranges inside the deterministic error budget of the two
  boundary shards (the interior contributes exactly zero error).

The flat twin shares the tree synopsis's estimator objects, so any
divergence is attributable to the interior strategy alone.

``workload-a0`` is excluded as in ``test_shard_differential.py``: its
``workload=`` kwarg describes domain-global ranges and cannot be sliced
per shard.
"""

import numpy as np
import pytest

from repro.core.builders import BUILDER_REGISTRY
from repro.engine import AggregateQuery, ApproximateQueryEngine, Table, build_sharded
from repro.engine.sharding import ShardedSynopsis
from tests.reference.shard_tree import range_sum

SHARDS = 5  # deliberately not a power of two: exercises tree padding
UNSUPPORTED = {
    "workload-a0": "workload kwarg is domain-global; cannot slice per shard",
}
BUDGETS = {"sketch-cm": 1500}
ENGINE_BUDGETS = {"sketch-cm": 8000}

METHODS = sorted(name for name in BUILDER_REGISTRY if name not in UNSUPPORTED)


def _budget(method: str) -> int:
    return BUDGETS.get(method, 60)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(53)
    return rng.integers(0, 25, 57).astype(np.float64)


@pytest.fixture(scope="module")
def tree_by_method(data):
    return {
        method: build_sharded(
            method, data, _budget(method), SHARDS, interior="tree"
        )
        for method in METHODS
    }


@pytest.fixture(scope="module")
def flat_by_method(tree_by_method):
    """Flat-interior twins sharing each tree synopsis's estimators."""
    twins = {}
    for method, synopsis in tree_by_method.items():
        twins[method] = ShardedSynopsis(
            synopsis.starts,
            synopsis.estimators,
            synopsis.totals,
            synopsis.budgets,
            synopsis.method,
            shard_predictions=synopsis.shard_predictions,
            interior="flat",
        )
    return twins


def _exact(data, low, high):
    return float(data[low : high + 1].sum())


def _all_ranges(n, count, seed):
    rng = np.random.default_rng(seed)
    lows = rng.integers(0, n, count)
    highs = rng.integers(0, n, count)
    return np.minimum(lows, highs), np.maximum(lows, highs)


@pytest.mark.parametrize("method", METHODS)
def test_tree_and_flat_scalar_answers_bit_identical(
    data, tree_by_method, flat_by_method, method
):
    tree = tree_by_method[method]
    flat = flat_by_method[method]
    for low in range(data.size):
        for high in range(low, data.size, 3):
            assert tree.estimate(low, high) == flat.estimate(low, high), (
                f"{method}: tree diverged from flat on [{low}, {high}]"
            )


@pytest.mark.parametrize("method", METHODS)
def test_tree_and_flat_batch_answers_bit_identical(
    data, tree_by_method, flat_by_method, method
):
    lows, highs = _all_ranges(data.size, 400, seed=7)
    tree_answers = tree_by_method[method].estimate_many(lows, highs)
    flat_answers = flat_by_method[method].estimate_many(lows, highs)
    assert np.array_equal(tree_answers, flat_answers), (
        f"{method}: batched tree answers diverged from flat"
    )


@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_scalar_on_the_tree_path(data, tree_by_method, method):
    synopsis = tree_by_method[method]
    lows, highs = _all_ranges(data.size, 120, seed=11)
    batched = synopsis.estimate_many(lows, highs)
    for low, high, answer in zip(lows.tolist(), highs.tolist(), batched):
        assert synopsis.estimate(low, high) == answer, (
            f"{method}: scalar tree answer diverged from batch on [{low}, {high}]"
        )


@pytest.mark.parametrize("method", METHODS)
def test_shard_aligned_ranges_exact_through_the_tree(data, tree_by_method, method):
    synopsis = tree_by_method[method]
    starts = synopsis.starts
    for i in range(synopsis.num_shards):
        for j in range(i, synopsis.num_shards):
            low, high = int(starts[i]), int(starts[j + 1]) - 1
            expected = float(synopsis.totals[i : j + 1].sum())
            assert synopsis.estimate(low, high) == expected == _exact(data, low, high)
            # The tree's nodes over the dyadic block cover of an aligned
            # run agree with the flat total sum.
            assert range_sum(synopsis.tree, i, j) == expected


@pytest.mark.parametrize("method", METHODS)
def test_error_bounded_by_two_boundary_shards(data, tree_by_method, method):
    synopsis = tree_by_method[method]
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

    lows, highs = _all_ranges(data.size, 250, seed=13)
    estimates = synopsis.estimate_many(lows, highs)
    for low, high, estimate in zip(lows.tolist(), highs.tolist(), estimates):
        error = abs(estimate - _exact(data, low, high))
        left = int(synopsis.shard_of([low])[0])
        right = int(synopsis.shard_of([high])[0])
        assert error <= bounds[left] + bounds[right] + 1e-9, (
            f"{method}: error {error} exceeds the 2-boundary-shard "
            f"budget on [{low}, {high}]"
        )


@pytest.mark.parametrize("method", METHODS)
def test_engine_paths_bit_identical_across_interiors(data, method):
    """Scalar and batch engine answers agree between tree/flat engines."""
    values = np.repeat(np.arange(data.size), data.astype(np.int64))
    budget = ENGINE_BUDGETS.get(method, 2 * _budget(method))
    engines = {}
    for interior in ("tree", "flat"):
        engine = ApproximateQueryEngine(predict_errors=False)
        engine.register_table(Table("t", {"v": values}))
        engine.build_synopsis(
            "t", "v", method=method, budget_words=budget, shards=SHARDS
        )
        if interior == "flat":
            # Swap the interior mode on the built synopses in place: the
            # estimators are shared, isolating the strategy under test.
            entry = engine._synopses[("t", "v")]
            for synopsis in (entry.count_estimator, entry.sum_estimator):
                synopsis.interior = interior
        engines[interior] = engine
    rng = np.random.default_rng(17)
    lows = rng.integers(0, data.size, 30)
    highs = np.minimum(lows + rng.integers(0, data.size, 30), data.size - 1)
    queries = [
        AggregateQuery("t", "v", aggregate, float(low), float(high))
        for aggregate in ("count", "sum")
        for low, high in zip(lows.tolist(), np.maximum(lows, highs).tolist())
    ]
    tree_batch = engines["tree"].execute_batch(queries)
    flat_batch = engines["flat"].execute_batch(queries)
    for query, tree_result, flat_result in zip(queries, tree_batch, flat_batch):
        assert tree_result.estimate == flat_result.estimate, (
            f"{method}: tree engine diverged from flat engine on {query}"
        )
        assert engines["tree"].execute(query).estimate == tree_result.estimate
