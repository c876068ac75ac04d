"""Regression tests for centralised prediction-cache invalidation.

The engine memoises builder error models per ``((table, column),
aggregate)`` in ``_prediction_cache``.  Every catalog mutation used to
pop only the literal ``("count", "sum")`` entries at each site; any
other aggregate's entry would survive a rebuild and keep feeding an
outdated error model into drift detection.  All sites now route
through one ``_invalidate_predictions`` helper that clears *every*
aggregate for the mutated column — these tests pin that behaviour at
each mutation site.
"""

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table


SENTINEL = object()


@pytest.fixture
def engine():
    rng = np.random.default_rng(11)
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": rng.integers(0, 100, 3000)}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=64)
    return engine


def _seed_cache(engine, key=("t", "v")):
    """Plant entries for the standard aggregates plus a non-standard one.

    The sentinel under a made-up aggregate name is the regression
    probe: literal ``pop((key, "count")) / pop((key, "sum"))``
    invalidation would leave it behind.
    """
    engine._prediction_cache[(key, "count")] = SENTINEL
    engine._prediction_cache[(key, "sum")] = SENTINEL
    engine._prediction_cache[(key, "quantile")] = SENTINEL


def _entries_for(engine, key=("t", "v")):
    return [ck for ck in engine._prediction_cache if ck[0] == key]


def test_rebuild_clears_every_aggregate(engine):
    _seed_cache(engine)
    engine.build_synopsis("t", "v", method="sap1", budget_words=64)
    assert _entries_for(engine) == []


def test_register_table_clears_every_aggregate(engine):
    rng = np.random.default_rng(12)
    _seed_cache(engine)
    engine.register_table(Table("t", {"v": rng.integers(0, 100, 1000)}))
    assert _entries_for(engine) == []


def test_refresh_stale_clears_every_aggregate(engine):
    rng = np.random.default_rng(13)
    _seed_cache(engine)
    engine.append_rows("t", {"v": rng.integers(0, 100, 500)})
    engine.refresh_stale()
    assert _entries_for(engine) == []


def test_sharded_dirty_refresh_clears_every_aggregate():
    rng = np.random.default_rng(14)
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": rng.integers(0, 100, 4000)}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=256, shards=8)
    _seed_cache(engine)
    engine.append_rows("t", {"v": rng.integers(0, 100, 200)})
    engine.refresh_stale()
    assert _entries_for(engine) == []


def test_parallel_build_all_clears_every_aggregate(engine):
    _seed_cache(engine)
    engine.build_all_synopses(method="sap1", total_budget_words=64)
    assert _entries_for(engine) == []


def test_invalidation_is_scoped_to_the_mutated_column():
    rng = np.random.default_rng(15)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table("t", {"v": rng.integers(0, 100, 2000), "w": rng.integers(0, 100, 2000)})
    )
    engine.build_synopsis("t", "v", method="sap1", budget_words=64)
    engine.build_synopsis("t", "w", method="sap1", budget_words=64)
    _seed_cache(engine, ("t", "v"))
    _seed_cache(engine, ("t", "w"))
    engine.build_synopsis("t", "v", method="sap1", budget_words=64)
    assert _entries_for(engine, ("t", "v")) == []
    assert len(_entries_for(engine, ("t", "w"))) == 3


def test_prediction_cache_repopulates_after_invalidation(engine):
    # Force the lazily-computed path (no build-time prediction pinned).
    key = ("t", "v")
    engine._synopses[key] = engine._synopses[key].__class__(
        **{**engine._synopses[key].__dict__, "predicted": None}
    )
    first = engine._predicted_for(key, "count")
    assert (key, "count") in engine._prediction_cache
    engine.build_synopsis("t", "v", method="sap1", budget_words=64)
    assert (key, "count") not in engine._prediction_cache
    assert first is not None
