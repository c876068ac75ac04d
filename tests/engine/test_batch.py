"""Tests for the batched execution pipeline."""

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, BatchQuery, Table
from repro.engine.engine import AggregateQuery
from repro.errors import InvalidParameterError, InvalidQueryError
from repro.queries.workload import random_ranges


@pytest.fixture
def engine():
    rng = np.random.default_rng(42)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table(
            "sales",
            {
                "price": rng.integers(1, 100, 4000),
                "qty": rng.integers(1, 20, 4000),
            },
        )
    )
    engine.build_synopsis("sales", "price", method="sap1", budget_words=80)
    engine.build_synopsis("sales", "qty", method="a0", budget_words=40)
    return engine


def _random_queries(rng, count):
    """A mixed workload: random aggregates, columns, and open/out-of-domain bounds."""
    queries = []
    for _ in range(count):
        column = ("price", "qty")[int(rng.integers(0, 2))]
        aggregate = ("count", "sum", "avg")[int(rng.integers(0, 3))]
        low, high = sorted(rng.uniform(-20, 140, 2).tolist())
        if rng.random() < 0.15:
            low = None
        if rng.random() < 0.15:
            high = None
        queries.append(AggregateQuery("sales", column, aggregate, low, high))
    return queries


class TestBatchMatchesScalar:
    def test_elementwise_identical_over_random_workloads(self, engine):
        """Property: execute_batch == [execute(q) for q in queries], exactly."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            queries = _random_queries(rng, 200)
            batch_results = engine.execute_batch(queries)
            for query, batched in zip(queries, batch_results):
                scalar = engine.execute(query)
                assert batched.estimate == scalar.estimate, query
                assert batched.synopsis_name == scalar.synopsis_name
                assert batched.synopsis_words == scalar.synopsis_words
                assert batched.query == query

    def test_with_exact_matches_scalar_scan(self, engine):
        rng = np.random.default_rng(7)
        queries = _random_queries(rng, 150)
        batch_results = engine.execute_batch(queries, with_exact=True)
        for query, batched in zip(queries, batch_results):
            scalar = engine.execute(query, with_exact=True)
            if query.aggregate == "count":
                assert batched.exact == scalar.exact, query
            else:
                # Summation order differs (sorted scan vs masked scan).
                assert batched.exact == pytest.approx(scalar.exact, rel=1e-12, abs=1e-9)

    def test_out_of_domain_ranges_estimate_zero(self, engine):
        results = engine.execute_batch(
            [
                AggregateQuery("sales", "price", "count", 500, 900),
                AggregateQuery("sales", "price", "sum", -50, -10),
            ],
            with_exact=True,
        )
        assert all(r.estimate == 0.0 and r.exact == 0.0 for r in results)

    def test_empty_batch(self, engine):
        assert engine.execute_batch([]) == []


class TestBatchQueryContainer:
    def test_batchquery_roundtrip_and_order(self, engine):
        workload = random_ranges(99, 50, seed=3)
        batch = workload.as_batch("sales", "price", "count")
        assert len(batch) == 50
        results = engine.execute_batch(batch, with_exact=True)
        for query, result in zip(batch.queries(), results):
            assert result.query == query
            assert result.estimate == engine.execute(query).estimate

    def test_none_bounds_normalised_to_inf(self):
        batch = BatchQuery("t", "x", "count", [None, 1.0], [2.0, None])
        assert batch.lows[0] == -np.inf and batch.highs[1] == np.inf
        queries = batch.queries()
        assert queries[0].low is None and queries[1].high is None

    def test_validation(self):
        with pytest.raises(InvalidQueryError, match="aggregate"):
            BatchQuery("t", "x", "median", [1.0], [2.0])
        with pytest.raises(InvalidQueryError, match="parallel"):
            BatchQuery("t", "x", "count", [1.0, 2.0], [3.0])
        with pytest.raises(InvalidQueryError, match="inverted"):
            BatchQuery("t", "x", "count", [9.0], [1.0])

    def test_rejects_non_aggregate_items(self, engine):
        with pytest.raises(InvalidQueryError, match="AggregateQuery"):
            engine.execute_batch(["SELECT 1"])

    def test_workload_as_batch_values_axis(self):
        workload = random_ranges(10, 20, seed=1)
        axis = np.arange(10) * 3 + 5
        batch = workload.as_batch("t", "x", "sum", values_axis=axis)
        assert batch.aggregate == "sum"
        np.testing.assert_array_equal(batch.lows, axis[workload.lows])
        with pytest.raises(InvalidQueryError, match="axis"):
            workload.as_batch("t", "x", values_axis=axis[:3])


class TestBatchStaleness:
    def test_on_stale_policies(self, engine):
        engine.append_rows(
            "sales",
            {"price": np.full(4000, 50), "qty": np.full(4000, 5)},
        )
        queries = [AggregateQuery("sales", "price", "count", None, None)]
        served = engine.execute_batch(queries)[0]
        assert served.estimate == pytest.approx(4000, rel=0.05)
        with pytest.raises(InvalidQueryError, match="stale"):
            engine.execute_batch(queries, on_stale="error")
        rebuilt = engine.execute_batch(queries, on_stale="rebuild")[0]
        assert rebuilt.estimate == pytest.approx(8000, rel=0.05)
        assert ("sales", "price") not in engine.stale_synopses()

    def test_bad_on_stale_rejected(self, engine):
        with pytest.raises(InvalidParameterError, match="on_stale"):
            engine.execute_batch([], on_stale="maybe")

    def test_missing_synopsis_raises(self, engine):
        with pytest.raises(InvalidQueryError, match="no synopsis"):
            engine.execute_batch([AggregateQuery("sales", "missing", "count", 1, 2)])


class TestStatsAndParallelBuild:
    def test_stats_counters(self, engine):
        queries = _random_queries(np.random.default_rng(0), 30)
        engine.execute_batch(queries, with_exact=True)
        engine.execute(queries[0])
        stats = engine.stats()
        assert stats["batches"] == 1
        assert stats["batch_queries"] == 30
        assert stats["queries"] == 1
        assert stats["total_queries"] == 31
        assert stats["exact_scans"] == 30
        assert stats["last_batch_qps"] > 0
        assert stats["total_batch_seconds"] >= stats["last_batch_seconds"] > 0
        assert sum(stats["synopsis_hits"].values()) == 31

    def test_stats_is_a_snapshot(self, engine):
        stats = engine.stats()
        stats["queries"] = 999
        stats["synopsis_hits"]["x"] = 1
        assert engine.stats()["queries"] == 0
        assert engine.stats()["synopsis_hits"] == {}
