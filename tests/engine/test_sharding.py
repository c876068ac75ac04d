"""Unit tests for the sharded-synopsis core.

Covers the shard geometry, the decomposition identity (shard-aligned
ranges answer exactly), the mass-proportional budget split, storage
accounting, boundary-shard statistics, dirty-shard mapping of appended
values, and selective shard rebuilds.
"""

import numpy as np
import pytest

from repro.core.builders import (
    BudgetExceededError,
    ErrorPrediction,
    aggregate_shard_predictions,
    split_budget_by_mass,
)
from repro.engine.sharding import ShardedSynopsis, build_sharded, shard_boundaries
from repro.errors import InvalidParameterError


def _exact(data: np.ndarray, low: int, high: int) -> float:
    return float(data[low : high + 1].sum())


@pytest.fixture()
def data():
    rng = np.random.default_rng(7)
    return rng.integers(0, 50, 96).astype(np.float64)


@pytest.fixture()
def sharded(data):
    return build_sharded("sap1", data, 80, 8)


class TestShardBoundaries:
    def test_partitions_the_domain(self):
        starts = shard_boundaries(100, 8)
        assert starts[0] == 0 and starts[-1] == 100
        assert np.all(np.diff(starts) >= 1)
        assert starts.size == 9

    def test_uneven_split_covers_everything(self):
        starts = shard_boundaries(10, 3)
        widths = np.diff(starts)
        assert widths.sum() == 10 and widths.min() >= 3

    def test_clamps_shards_to_domain(self):
        starts = shard_boundaries(3, 64)
        assert starts.size == 4
        assert np.array_equal(starts, [0, 1, 2, 3])

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            shard_boundaries(0, 4)
        with pytest.raises(InvalidParameterError):
            shard_boundaries(16, 0)


class TestDecompositionIdentity:
    def test_shard_aligned_ranges_are_exact(self, data, sharded):
        starts = sharded.starts
        for i in range(sharded.num_shards):
            for j in range(i, sharded.num_shards):
                low, high = int(starts[i]), int(starts[j + 1]) - 1
                assert sharded.estimate(low, high) == _exact(data, low, high)

    def test_full_range_is_exact(self, data, sharded):
        assert sharded.estimate(0, data.size - 1) == data.sum()

    def test_scalar_matches_vectorised(self, data, sharded):
        rng = np.random.default_rng(3)
        lows = rng.integers(0, data.size, 300)
        highs = rng.integers(0, data.size, 300)
        lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
        many = sharded.estimate_many(lows, highs)
        for low, high, expected in zip(lows, highs, many):
            assert sharded.estimate(int(low), int(high)) == pytest.approx(expected)

    def test_error_confined_to_boundary_shards(self, data, sharded):
        """|error| is bounded by the two boundary shards' worst cases."""
        starts = sharded.starts
        bounds = []
        for shard in range(sharded.num_shards):
            piece = data[starts[shard] : starts[shard + 1]]
            estimator = sharded.estimators[shard]
            worst = 0.0
            for a in range(piece.size):
                for b in range(a, piece.size):
                    worst = max(worst, abs(estimator.estimate(a, b) - _exact(piece, a, b)))
            bounds.append(worst)
        rng = np.random.default_rng(5)
        for _ in range(200):
            low, high = sorted(rng.integers(0, data.size, 2).tolist())
            error = abs(sharded.estimate(low, high) - _exact(data, low, high))
            left = int(sharded.shard_of([low])[0])
            right = int(sharded.shard_of([high])[0])
            assert error <= bounds[left] + bounds[right] + 1e-9

    def test_shard_of_and_slice_agree(self, sharded):
        for shard in range(sharded.num_shards):
            covered = np.arange(sharded.n)[sharded.shard_slice(shard)]
            assert np.all(sharded.shard_of(covered) == shard)


class TestBudgetSplit:
    def test_split_sums_to_budget(self, data):
        starts = shard_boundaries(data.size, 8)
        budgets = split_budget_by_mass("sap1", data, starts, 80)
        assert budgets.sum() == 80
        assert budgets.min() >= 5  # sap1 words_per_unit floor

    def test_mass_attracts_budget(self):
        data = np.concatenate((np.full(32, 1000.0), np.full(32, 1.0)))
        starts = shard_boundaries(64, 2)
        budgets = split_budget_by_mass("a0", data, starts, 40)
        assert budgets[0] > budgets[1]

    def test_zero_mass_splits_evenly(self):
        starts = shard_boundaries(64, 4)
        budgets = split_budget_by_mass("a0", np.zeros(64), starts, 40)
        assert np.all(np.abs(budgets - 10) <= 1)

    def test_budget_below_floor_raises(self, data):
        starts = shard_boundaries(data.size, 8)
        with pytest.raises(BudgetExceededError):
            split_budget_by_mass("sap1", data, starts, 8 * 5 - 1)

    def test_split_is_deterministic(self, data):
        starts = shard_boundaries(data.size, 8)
        first = split_budget_by_mass("sap1", data, starts, 83)
        second = split_budget_by_mass("sap1", data, starts, 83)
        assert np.array_equal(first, second)


class TestAccounting:
    def test_storage_words_includes_directory(self, sharded):
        per_shard = sum(e.storage_words() for e in sharded.estimators)
        directory = sharded.starts.size + sharded.totals.size
        assert sharded.storage_words() == per_shard + directory

    def test_name_reports_shards_and_inner(self, sharded):
        assert sharded.name == f"sharded[8]x{sharded.estimators[0].name}"

    def test_build_clamps_shards_to_domain(self):
        synopsis = build_sharded("a0", np.ones(5), 30, 64)
        assert synopsis.num_shards == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_sharded("no-such-builder", np.ones(16), 20, 2)

    def test_on_shard_built_fires_once_per_shard(self, data):
        seen = []
        build_sharded(
            "a0", data, 40, 4,
            on_shard_built=lambda shard, seconds: seen.append(shard),
        )
        assert seen == [0, 1, 2, 3]


class TestBoundaryStats:
    def test_aligned_query_touches_no_boundary(self, sharded):
        starts = sharded.starts
        queries, partials = sharded.boundary_stats(
            [int(starts[2])], [int(starts[5]) - 1]
        )
        assert (queries, partials) == (0, 0)

    def test_interior_query_is_one_partial(self, sharded):
        low = int(sharded.starts[3]) + 1
        queries, partials = sharded.boundary_stats([low], [low + 1])
        assert (queries, partials) == (1, 1)

    def test_straddling_query_is_two_partials(self, sharded):
        low = int(sharded.starts[3]) + 1
        high = int(sharded.starts[5]) + 1
        queries, partials = sharded.boundary_stats([low], [high])
        assert (queries, partials) == (1, 2)


class TestTouchedShards:
    def test_maps_values_to_their_shards(self, sharded):
        axis = np.arange(sharded.n, dtype=np.float64)
        low_value = float(sharded.starts[2])
        high_value = float(sharded.starts[6])
        assert sharded.touched_shards(axis, [low_value, high_value]) == {2, 6}

    def test_empty_append_touches_nothing(self, sharded):
        axis = np.arange(sharded.n, dtype=np.float64)
        assert sharded.touched_shards(axis, []) == set()

    def test_new_value_means_domain_change(self, sharded):
        axis = np.arange(sharded.n, dtype=np.float64) * 2.0  # even values only
        assert sharded.touched_shards(axis, [3.0]) is None

    def test_value_beyond_axis_means_domain_change(self, sharded):
        axis = np.arange(sharded.n, dtype=np.float64)
        assert sharded.touched_shards(axis, [float(sharded.n) + 5.0]) is None


class TestRebuild:
    def test_rebuilds_only_dirty_shards(self, data, sharded):
        refreshed_data = data.copy()
        refreshed_data[sharded.shard_slice(3)] += 10.0
        rebuilt = sharded.with_rebuilt_shards([3], refreshed_data)
        for shard in range(sharded.num_shards):
            if shard == 3:
                assert rebuilt.estimators[shard] is not sharded.estimators[shard]
            else:
                assert rebuilt.estimators[shard] is sharded.estimators[shard]
        assert rebuilt.totals[3] == refreshed_data[sharded.shard_slice(3)].sum()
        assert rebuilt.estimate(0, data.size - 1) == refreshed_data.sum()

    def test_aligned_ranges_exact_after_rebuild(self, data, sharded):
        refreshed_data = data.copy()
        refreshed_data[sharded.shard_slice(0)] *= 3.0
        rebuilt = sharded.with_rebuilt_shards([0], refreshed_data)
        starts = rebuilt.starts
        for shard in range(rebuilt.num_shards):
            low, high = int(starts[shard]), int(starts[shard + 1]) - 1
            assert rebuilt.estimate(low, high) == _exact(refreshed_data, low, high)

    def test_rejects_bad_rebuild_arguments(self, data, sharded):
        with pytest.raises(InvalidParameterError):
            sharded.with_rebuilt_shards([99], data)
        with pytest.raises(InvalidParameterError):
            sharded.with_rebuilt_shards([0], data[:-1])

    def test_predictions_follow_rebuild(self, data):
        synopsis = build_sharded("sap1", data, 80, 8, predict=True)
        assert synopsis.shard_predictions is not None
        refreshed_data = data.copy()
        refreshed_data[synopsis.shard_slice(5)] += 7.0
        rebuilt = synopsis.with_rebuilt_shards([5], refreshed_data)
        assert rebuilt.shard_predictions is not None
        for shard in range(8):
            if shard != 5:
                assert (
                    rebuilt.shard_predictions[shard]
                    is synopsis.shard_predictions[shard]
                )


class TestPredictionAggregation:
    def test_weighted_combination(self):
        predictions = [
            ErrorPrediction(sse_per_query=4.0, query_count=10, sampled_queries=10, exact=True),
            ErrorPrediction(sse_per_query=8.0, query_count=10, sampled_queries=10, exact=True),
        ]
        combined = aggregate_shard_predictions(predictions, np.array([30, 10]))
        assert combined is not None
        assert combined.sse_per_query == pytest.approx(
            2.0 * (30 / 40) * 4.0 + 2.0 * (10 / 40) * 8.0
        )
        assert combined.query_count == 40 * 41 // 2
        assert not combined.exact

    def test_missing_shard_prediction_aggregates_to_none(self):
        predictions = [
            ErrorPrediction(sse_per_query=4.0, query_count=10, sampled_queries=10, exact=True),
            None,
        ]
        assert aggregate_shard_predictions(predictions, np.array([8, 8])) is None
        assert aggregate_shard_predictions(None, np.array([8, 8])) is None


class TestValidation:
    def test_starts_must_be_increasing(self, sharded):
        with pytest.raises(InvalidParameterError):
            ShardedSynopsis(
                np.array([0, 5, 5, 10]),
                sharded.estimators[:3],
                np.zeros(3),
                np.ones(3, dtype=np.int64),
                "sap1",
            )

    def test_component_lengths_must_match(self, sharded):
        with pytest.raises(InvalidParameterError):
            ShardedSynopsis(
                sharded.starts,
                sharded.estimators[:-1],
                sharded.totals,
                sharded.budgets,
                "sap1",
            )
        with pytest.raises(InvalidParameterError):
            ShardedSynopsis(
                sharded.starts,
                sharded.estimators,
                sharded.totals[:-1],
                sharded.budgets,
                "sap1",
            )
