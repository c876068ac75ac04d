"""``build_all_synopses`` leaves the state per-column builds leave.

``build_all_synopses`` builds every column through ``build_synopsis``.
These tests pin the bookkeeping that comes with it on a sharded catalog
whose shards an append has heated: the catalog rows and frozen
predictions, the reset shard heat, the tree-depth gauges, the per-shard
build-time observations, the per-column ``build`` spans and the cleared
prediction caches.
"""

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table

SHARDS = 8
COLUMNS = ("a", "b")
#: ``build_all_synopses(total_budget_words=512)`` gives each of the two
#: columns this many words.
PER_COLUMN = 256


def _heated_engine() -> ApproximateQueryEngine:
    rng = np.random.default_rng(41)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table("t", {"a": rng.integers(0, 64, 3000), "b": rng.integers(0, 96, 3000)})
    )
    for column in COLUMNS:
        engine.build_synopsis(
            "t", column, method="sap1", budget_words=PER_COLUMN, shards=SHARDS
        )
    # Values inside both domains: the append heats their last shards.
    engine.append_rows("t", {"a": [60, 61], "b": [90, 91]})
    for column in COLUMNS:
        for aggregate in ("count", "sum", "quantile"):
            engine._prediction_cache[(("t", column), aggregate)] = object()
        # Only a rebuild that exports the gauge puts a depth back.
        engine.metrics.gauge("shard_tree_depth", table="t", column=column).set(-1)
    return engine


def _observations(engine) -> int:
    return engine.metrics.histogram("shard_build_seconds").count


@pytest.fixture
def engines():
    """``((build_all, per_column), observations, spans)`` after rebuilding
    the heated catalog both ways; the last two hold, per engine, what
    its rebuild added."""
    both = _heated_engine(), _heated_engine()
    before = [(_observations(e), len(e.tracer.spans("build"))) for e in both]
    assert all(heat[-1] == 1 for heat in both[0].shard_heat().values())
    both[0].build_all_synopses(
        method="sap1", total_budget_words=PER_COLUMN * len(COLUMNS), shards=SHARDS
    )
    for column in COLUMNS:
        both[1].build_synopsis(
            "t", column, method="sap1", budget_words=PER_COLUMN, shards=SHARDS
        )
    observations = [_observations(e) - seen for e, (seen, _) in zip(both, before)]
    spans = [e.tracer.spans("build")[count:] for e, (_, count) in zip(both, before)]
    return both, observations, spans


def test_catalog_and_frozen_predictions_match(engines):
    (built_all, per_column), _, _ = engines
    assert built_all.synopsis_catalog() == per_column.synopsis_catalog()
    assert built_all.stale_synopses() == per_column.stale_synopses() == []
    for key in (("t", column) for column in COLUMNS):
        mine, theirs = built_all._synopses[key], per_column._synopses[key]
        assert mine.predicted == theirs.predicted
        assert mine.count_estimator.shard_predictions == (
            theirs.count_estimator.shard_predictions
        )
        assert mine.sum_estimator.shard_predictions == (
            theirs.sum_estimator.shard_predictions
        )


def test_shard_heat_resets_to_zero(engines):
    (built_all, per_column), _, _ = engines
    assert built_all.shard_heat() == per_column.shard_heat()
    assert built_all.shard_heat() == {f"t.{c}": [0] * SHARDS for c in COLUMNS}


def test_tree_depth_gauge_per_column(engines):
    (built_all, per_column), _, _ = engines
    for column in COLUMNS:
        depths = [
            engine.metrics.gauge("shard_tree_depth", table="t", column=column).value
            for engine in (built_all, per_column)
        ]
        expected = built_all._synopses[("t", column)].count_estimator.tree_depth
        assert depths == [expected, expected]


def test_one_build_observation_per_shard(engines):
    _, observations, _ = engines
    # Two columns, a COUNT and a SUM synopsis each, SHARDS shards apiece.
    assert observations == [len(COLUMNS) * 2 * SHARDS] * 2


def test_one_build_span_per_column(engines):
    _, _, spans = engines
    for built in spans:
        assert [span.attributes["column"] for span in built] == list(COLUMNS)
        assert all(span.attributes["shards"] == SHARDS for span in built)


def test_prediction_caches_cleared_for_every_aggregate(engines):
    (built_all, per_column), _, _ = engines
    for engine in (built_all, per_column):
        assert not [key for key in engine._prediction_cache if key[0][0] == "t"]
