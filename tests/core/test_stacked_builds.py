"""Stacked SAP0/SAP1/A0 builds against a one-row-at-a-time oracle.

The stacked path solves every shard's DP in one pass over a
``[shards, n, n]`` cost tensor.  The oracle below is the construction it
replaced: one cost row per ``a`` from :class:`PrefixAlgebra` calls with a
scalar ``a``, and a 2-D layer fill over one shard.  Every comparison is
bitwise: boundaries, stored payloads, totals, and the frozen per-shard
and entry-level :class:`~repro.core.builders.ErrorPrediction`s.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.a0 import build_a0
from repro.core.builders import (
    BUILDER_REGISTRY,
    aggregate_shard_predictions,
    predict_sse_per_query,
)
from repro.core.histogram import AverageHistogram
from repro.core.sap import build_sap0, build_sap1, sap_histogram_from_boundaries
from repro.engine import ApproximateQueryEngine, Table
from repro.engine.sharding import build_sharded
from repro.internal.prefix import PrefixAlgebra

STACKED = ("sap0", "sap1", "a0")


def _oracle_row(method: str, algebra: PrefixAlgebra, a: int) -> np.ndarray:
    n = algebra.n
    bs = np.arange(a, n)
    if method == "sap0":
        _, suffix = algebra.sap0_suffix(a, bs)
        _, prefix = algebra.sap0_prefix(a, bs)
    elif method == "sap1":
        suffix = algebra.sap1_suffix_ssr(a, bs)
        prefix = algebra.sap1_prefix_ssr(a, bs)
    else:
        _, suffix = algebra.suffix_error_moments(a, bs)
        _, prefix = algebra.prefix_error_moments(a, bs)
    return algebra.intra_sse(a, bs) + (n - 1 - bs) * suffix + a * prefix


def oracle_lefts(method: str, data, n_buckets: int) -> np.ndarray:
    """Per-row cost precompute plus a 2-D ``O(n^2 B)`` fill, one shard."""
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    algebra = PrefixAlgebra(data)
    cost = np.full((n, n), np.inf)
    for a in range(n):
        cost[a, a:] = _oracle_row(method, algebra, a)
    best = np.full((n_buckets + 1, n + 1), np.inf)
    parent = np.zeros((n_buckets + 1, n + 1), dtype=np.int64)
    best[:, 0] = 0.0
    for k in range(1, n_buckets + 1):
        candidates = best[k - 1, :-1, None] + cost
        parents = np.argmin(candidates, axis=0)
        best[k, 1:] = candidates[parents, np.arange(n)]
        parent[k, 1:] = parents
    k = 1 + int(np.argmin(best[1:, n]))
    lefts, i = [], n
    while i > 0:
        j = int(parent[k, i])
        lefts.append(j)
        i, k = j, k - 1
    return np.asarray(lefts[::-1], dtype=np.int64)


def oracle_build(method: str, data, n_buckets: int):
    lefts = oracle_lefts(method, data, n_buckets)
    if method == "a0":
        return AverageHistogram.from_boundaries(data, lefts, label="A0")
    return sap_histogram_from_boundaries(data, lefts, 0 if method == "sap0" else 1)


def assert_same_estimator(actual, expected) -> None:
    assert type(actual) is type(expected)
    actual_state, expected_state = vars(actual), vars(expected)
    assert actual_state.keys() == expected_state.keys()
    for key, value in expected_state.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(actual_state[key], value, err_msg=key)
            assert actual_state[key].dtype == value.dtype, key
        else:
            assert actual_state[key] == value, key


def assert_matches_oracle(synopsis, data) -> None:
    """Every shard of a sharded synopsis equals the oracle on its piece."""
    data = np.asarray(data, dtype=np.float64)
    words = BUILDER_REGISTRY[synopsis.method].words_per_unit
    oracle_predictions = []
    for shard in range(synopsis.num_shards):
        piece = data[synopsis.shard_slice(shard)]
        units = min(int(synopsis.budgets[shard]) // words, piece.size)
        expected = oracle_build(synopsis.method, piece, units)
        assert_same_estimator(synopsis.estimators[shard], expected)
        assert synopsis.totals[shard] == float(piece.sum())
        if synopsis.shard_predictions is not None:
            prediction = predict_sse_per_query(expected, piece)
            assert synopsis.shard_predictions[shard] == prediction
            oracle_predictions.append(prediction)
    if synopsis.shard_predictions is not None:
        assert aggregate_shard_predictions(
            synopsis.shard_predictions, np.diff(synopsis.starts)
        ) == aggregate_shard_predictions(oracle_predictions, np.diff(synopsis.starts))


def _skewed(rng, n: int, scale: int = 200) -> np.ndarray:
    return np.floor(scale * rng.pareto(1.3, n)).astype(np.float64)


class TestOneVectorBuilds:
    @pytest.mark.parametrize("method", STACKED)
    def test_single_vector_matches_oracle(self, method):
        rng = np.random.default_rng(3)
        data = _skewed(rng, 40)
        build = {"sap0": build_sap0, "sap1": build_sap1, "a0": build_a0}[method]
        for n_buckets in (1, 2, 5, 13, 40):
            assert_same_estimator(
                build(data, n_buckets), oracle_build(method, data, n_buckets)
            )

    @pytest.mark.parametrize("method", STACKED)
    def test_stack_returns_one_histogram_per_row(self, method):
        rng = np.random.default_rng(4)
        stack = _skewed(rng, 5 * 12).reshape(5, 12)
        caps = [1, 12, 3, 3, 7]
        build = {"sap0": build_sap0, "sap1": build_sap1, "a0": build_a0}[method]
        built = build(stack, caps)
        assert len(built) == 5
        for row, cap, histogram in zip(stack, caps, built):
            assert_same_estimator(histogram, oracle_build(method, row, cap))

    def test_stack_needs_one_count_per_row(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="one bucket count per row"):
            build_sap1(np.ones((3, 4)), 2)
        with pytest.raises(InvalidParameterError, match="one bucket count per row"):
            build_sap1(np.ones((3, 4)), [2, 2])

    def test_stack_rejects_rows_like_single_builds(self):
        from repro.errors import InvalidDataError

        stack = np.ones((3, 4))
        stack[1, 2] = -1.0
        stack[2, 0] = np.nan
        with pytest.raises(InvalidDataError, match="negative entries"):
            build_sap1(stack, [1, 1, 1])
        stack[1, 2] = 1.0
        with pytest.raises(InvalidDataError, match="NaN or infinite"):
            build_a0(stack, [1, 1, 1])


class TestShardedBuilds:
    @pytest.mark.parametrize("method", STACKED)
    def test_equal_widths(self, method):
        data = _skewed(np.random.default_rng(11), 128)
        synopsis = build_sharded(method, data, 40 * 8, 8, predict=True)
        assert_matches_oracle(synopsis, data)

    @pytest.mark.parametrize("method", STACKED)
    def test_unequal_widths(self, method):
        # 100 values over 8 shards: widths 12 and 13 form two groups.
        data = _skewed(np.random.default_rng(12), 100)
        synopsis = build_sharded(method, data, 36 * 8, 8, predict=True)
        assert set(np.diff(synopsis.starts).tolist()) == {12, 13}
        assert_matches_oracle(synopsis, data)

    @pytest.mark.parametrize("method", STACKED)
    def test_compacted_geometry(self, method):
        data = _skewed(np.random.default_rng(13), 96)
        synopsis = build_sharded(method, data, 30 * 12, 12, predict=True)
        compacted = synopsis.with_compacted_runs([(0, 2), (5, 6), (9, 11)], data)
        assert np.diff(compacted.starts).tolist() == [24, 8, 8, 16, 8, 8, 24]
        assert_matches_oracle(compacted, data)
        refreshed = data.copy()
        refreshed[[3, 40, 90]] += 7.0
        rebuilt = compacted.with_rebuilt_shards([0, 3, 6], refreshed)
        assert_matches_oracle(rebuilt, refreshed)

    @pytest.mark.parametrize("method", STACKED)
    def test_budgets_from_one_unit_to_the_width_cap(self, method):
        data = _skewed(np.random.default_rng(14), 64)
        synopsis = build_sharded(method, data, 5 * 8, 8)
        words = BUILDER_REGISTRY[method].words_per_unit
        # Shard s gets s * 2 + 1 units, the last ones capped at width 8.
        budgets = np.asarray([(2 * shard + 1) * words for shard in range(8)])
        rebuilt = synopsis.with_rebuilt_shards(range(8), data, budgets=budgets)
        assert [
            min(int(b) // words, 8) for b in rebuilt.budgets
        ] == [1, 3, 5, 7, 8, 8, 8, 8]
        assert_matches_oracle(rebuilt, data)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(st.integers(min_value=0, max_value=60), min_size=4, max_size=60),
        shards=st.integers(min_value=1, max_value=9),
        method=st.sampled_from(STACKED),
        spare=st.integers(min_value=0, max_value=80),
    )
    def test_property_generated_data(self, data, shards, method, spare):
        data = np.asarray(data, dtype=np.float64)
        shards = min(shards, data.size)
        words = BUILDER_REGISTRY[method].words_per_unit
        synopsis = build_sharded(
            method, data, shards * words + spare, shards, predict=True
        )
        assert_matches_oracle(synopsis, data)


def _baseline_values(rows: int = 200_000, domain: int = 4096) -> np.ndarray:
    """Zipf-skewed rows over a jagged permutation of the domain."""
    ranks = np.random.default_rng(2001).permutation(domain) + 1.0
    weights = ranks**-1.1
    values = np.random.default_rng(401).choice(
        domain, size=rows, p=weights / weights.sum()
    )
    values[0], values[1] = 0, domain - 1
    return values


def test_baseline_catalog_matches_oracle():
    """200k rows, 4,096 values, 256 shards: all 512 SAP1 shards."""
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": _baseline_values()}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=4096, shards=256)
    entry = engine._synopses[("t", "v")]
    assert_matches_oracle(entry.count_estimator, entry.statistics.count_frequencies)
    assert_matches_oracle(entry.sum_estimator, entry.statistics.sum_frequencies)
    assert entry.predicted["count"] == aggregate_shard_predictions(
        entry.count_estimator.shard_predictions, np.diff(entry.count_estimator.starts)
    )
