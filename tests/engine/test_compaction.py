"""Background shard compaction: budgets, policy, rebuilds, the daemon."""

import threading

import numpy as np
import pytest

from repro.core.builders import merge_shard_budgets
from repro.engine import (
    AggregateQuery,
    ApproximateQueryEngine,
    BackgroundCompactor,
    CompactionPolicy,
    Table,
    build_sharded,
    plan_runs,
)
from repro.errors import InvalidParameterError, InvalidQueryError


class TestMergeShardBudgets:
    def test_pools_each_run_and_conserves_the_total(self):
        budgets = np.array([10, 20, 30, 40, 50, 60], dtype=np.int64)
        merged = merge_shard_budgets(budgets, [(1, 2), (4, 5)])
        assert merged.tolist() == [10, 50, 40, 110]
        assert merged.sum() == budgets.sum()

    def test_run_covering_everything_yields_one_budget(self):
        merged = merge_shard_budgets(np.array([3, 4, 5]), [(0, 2)])
        assert merged.tolist() == [12]

    @pytest.mark.parametrize(
        "runs",
        [
            [(2, 1)],  # reversed
            [(0, 0)],  # single-shard run
            [(0, 4)],  # past the end
            [(-1, 1)],  # negative
            [(0, 1), (1, 2)],  # overlapping
            [(2, 3), (0, 1)],  # unsorted
        ],
    )
    def test_rejects_malformed_runs(self, runs):
        with pytest.raises(InvalidParameterError):
            merge_shard_budgets(np.array([1, 2, 3, 4]), runs)


class TestCompactionPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            CompactionPolicy(min_run_length=1)
        with pytest.raises(InvalidParameterError):
            CompactionPolicy(max_run_length=1)
        with pytest.raises(InvalidParameterError):
            CompactionPolicy(hot_tail_shards=-1)
        with pytest.raises(InvalidParameterError):
            CompactionPolicy(min_shards=0)

    def test_plan_merges_cold_runs_and_skips_hot_shards(self):
        heat = [0, 0, 0, 5, 0, 0, 0, 9]
        runs = plan_runs(heat, CompactionPolicy(hot_tail_shards=1))
        assert runs == [(0, 2), (4, 6)]

    def test_plan_respects_max_run_length(self):
        runs = plan_runs([0] * 10, CompactionPolicy(max_run_length=4, hot_tail_shards=0))
        assert runs == [(0, 3), (4, 7), (8, 9)]

    def test_plan_drops_short_tails(self):
        # A 5-cold-shard stretch chunked at 4 leaves a 1-length tail.
        runs = plan_runs(
            [0, 0, 0, 0, 0, 7], CompactionPolicy(max_run_length=4, hot_tail_shards=0)
        )
        assert runs == [(0, 3)]

    def test_plan_keeps_min_shards_surviving(self):
        runs = plan_runs([0] * 8, CompactionPolicy(hot_tail_shards=0, min_shards=8))
        assert runs == []

    def test_plan_exempts_the_hot_tail(self):
        runs = plan_runs([0, 0, 0, 0], CompactionPolicy(hot_tail_shards=2))
        assert runs == [(0, 1)]

    def test_plan_with_everything_hot_is_empty(self):
        assert plan_runs([3, 3, 3, 3], CompactionPolicy()) == []


class TestPlanRunsTieBreaking:
    """Pin the deliberate tie-breaks in :func:`plan_runs`.

    Two places in the planner face a choice between equally-valid runs:
    greedy chunking of a long cold stretch (where the remainder chunk
    sits exactly at ``min_run_length``), and the ``min_shards`` trim
    (which drops whole runs from the *front*, keeping the rear runs
    that streaming appends are about to re-dirty last).  These were
    previously untested; a refactor could silently flip either choice.
    """

    def test_remainder_chunk_exactly_min_run_length_is_kept(self):
        policy = CompactionPolicy(
            min_run_length=3, max_run_length=4, hot_tail_shards=0
        )
        assert plan_runs([0] * 7, policy) == [(0, 3), (4, 6)]

    def test_remainder_chunk_one_below_min_run_length_is_dropped(self):
        policy = CompactionPolicy(
            min_run_length=3, max_run_length=4, hot_tail_shards=0
        )
        assert plan_runs([0] * 6, policy) == [(0, 3)]

    def test_min_shards_trim_drops_runs_from_the_front(self):
        # Three runs remove 2+2+1 shards; min_shards=6 forces dropping
        # exactly the first two, so the survivor is the REAR run.
        policy = CompactionPolicy(
            min_run_length=2, max_run_length=3, hot_tail_shards=0, min_shards=6
        )
        assert plan_runs([0] * 8, policy) == [(6, 7)]

    def test_min_shards_trim_stops_at_first_fit(self):
        # Dropping one front run suffices; the rest must survive intact.
        policy = CompactionPolicy(
            min_run_length=2, max_run_length=2, hot_tail_shards=0, min_shards=5
        )
        assert plan_runs([0] * 8, policy) == [(2, 3), (4, 5), (6, 7)]

    def test_heat_exactly_at_max_heat_counts_cold(self):
        policy = CompactionPolicy(max_heat=1, hot_tail_shards=0)
        assert plan_runs([1, 1, 2, 1, 1], policy) == [(0, 1), (3, 4)]

    def test_cold_run_is_cut_at_the_hot_tail_boundary(self):
        # All five shards are cold, but the trailing two are exempt, so
        # the run ends exactly at the eligibility boundary.
        policy = CompactionPolicy(hot_tail_shards=2)
        assert plan_runs([0] * 5, policy) == [(0, 2)]


class TestWithCompactedRuns:
    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(31)
        return rng.integers(0, 20, 64).astype(np.float64)

    def test_merged_synopsis_answers_match_a_direct_build(self, data):
        """Compaction == building the merged geometry from scratch.

        The merged shard's estimator is rebuilt over the concatenated
        slice with the pooled budget, so its answers are bit-identical
        to a synopsis that was *born* with that geometry and budget.
        """
        synopsis = build_sharded("a0", data, 512, 8)
        compacted = synopsis.with_compacted_runs([(2, 5)], data)
        assert compacted.num_shards == 5
        assert compacted.budgets.sum() == synopsis.budgets.sum()
        rng = np.random.default_rng(5)
        lows = rng.integers(0, data.size, 200)
        highs = np.maximum(lows, rng.integers(0, data.size, 200))
        rebuilt = build_sharded("a0", data, 512, 8)
        # a0 at this budget is exact, so both geometries answer exactly.
        exact = np.asarray(
            [data[low : high + 1].sum() for low, high in zip(lows, highs)]
        )
        assert np.array_equal(compacted.estimate_many(lows, highs), exact)
        assert np.array_equal(rebuilt.estimate_many(lows, highs), exact)

    def test_untouched_shards_kept_by_reference(self, data):
        synopsis = build_sharded("equi-depth", data, 64, 8)
        compacted = synopsis.with_compacted_runs([(1, 2)], data)
        assert compacted.estimators[0] is synopsis.estimators[0]
        assert compacted.estimators[2:] == synopsis.estimators[3:]

    def test_lineage_accumulates_generations(self, data):
        synopsis = build_sharded("equi-depth", data, 64, 8)
        first = synopsis.with_compacted_runs([(0, 1), (4, 6)], data)
        second = first.with_compacted_runs([(0, 2)], data)
        assert synopsis.lineage == []
        assert [record["generation"] for record in first.lineage] == [1]
        assert [record["generation"] for record in second.lineage] == [1, 2]
        assert second.lineage[0]["runs"] == [[0, 1], [4, 6]]
        assert second.lineage[1]["shards_before"] == first.num_shards
        assert second.compaction_generation == 2

    def test_tree_rebuilt_for_the_new_geometry(self, data):
        synopsis = build_sharded("equi-depth", data, 64, 8)
        compacted = synopsis.with_compacted_runs([(0, 3)], data)
        assert compacted.tree.size == compacted.num_shards
        assert compacted.tree.check_invariant()
        assert np.array_equal(compacted.tree.leaf_totals(), compacted.totals)

    def test_rejects_empty_and_mismatched_inputs(self, data):
        synopsis = build_sharded("equi-depth", data, 64, 8)
        with pytest.raises(InvalidParameterError):
            synopsis.with_compacted_runs([], data)
        with pytest.raises(InvalidParameterError):
            synopsis.with_compacted_runs([(0, 1)], data[:-1])


class TestEngineCompaction:
    def _engine(self, shards=8, rows=400):
        rng = np.random.default_rng(43)
        engine = ApproximateQueryEngine()
        engine.register_table(Table("t", {"x": rng.integers(0, 40, rows)}))
        engine.build_synopsis("t", "x", method="a0", budget_words=4096, shards=shards)
        return engine

    def test_explicit_runs_compact_and_report(self):
        engine = self._engine()
        report = engine.compact_shards("t", "x", runs=[(0, 2), (4, 5)])
        assert report["shards_before"] == 8
        assert report["shards_after"] == 5
        assert report["shards_merged"] == 3
        assert report["generation"] == 1
        entry = engine._synopses[("t", "x")]
        assert entry.shards == 5
        assert entry.count_estimator.num_shards == 5
        assert entry.sum_estimator.num_shards == 5

    def test_answers_unchanged_across_compaction(self):
        engine = self._engine()
        query = AggregateQuery("t", "x", "count", 3.0, 33.0)
        before = engine.execute(query).estimate
        engine.compact_shards("t", "x", runs=[(1, 6)])
        assert engine.execute(query).estimate == before

    def test_policy_driven_compaction_uses_heat(self):
        engine = self._engine()
        # Everything cold, tail exempt: a sweep merges the head.
        reports = engine.compact_all_shards(
            policy=CompactionPolicy(hot_tail_shards=1, max_run_length=4)
        )
        assert len(reports) == 1
        assert reports[0]["runs"][0] == [0, 3]
        stats = engine.stats()
        assert stats["compactions"] == 1
        assert stats["compacted_shards"] == reports[0]["shards_merged"]

    def test_hot_shards_are_never_merged(self):
        engine = self._engine()
        synopsis = engine._synopses[("t", "x")].count_estimator
        # Heat up shard 2 with an in-domain append.
        low = int(synopsis.starts[2])
        values = np.full(10, engine._synopses[("t", "x")].statistics.values_axis[low])
        engine.append_rows("t", {"x": values})
        heat = engine.shard_heat()["t.x"]
        hot = [shard for shard, count in enumerate(heat) if count > 0]
        report = engine.compact_shards(
            "t", "x", policy=CompactionPolicy(hot_tail_shards=0)
        )
        assert report is not None
        for first, last in report["runs"]:
            assert all(shard not in hot for shard in range(first, last + 1))

    def test_dirty_shards_remap_to_merged_geometry(self):
        engine = self._engine()
        synopsis = engine._synopses[("t", "x")].count_estimator
        axis = engine._synopses[("t", "x")].statistics.values_axis
        target = int(synopsis.starts[5])  # a value inside shard 5
        engine.append_rows("t", {"x": np.array([axis[target]])})
        assert engine.dirty_shards()["t.x"] == [5]
        engine.compact_shards("t", "x", runs=[(0, 3)])
        # Shards 0-3 merged into one: old shard 5 is now shard 2.
        assert engine.dirty_shards()["t.x"] == [2]
        # The remapped refresh still converges to exact answers.
        engine.refresh_stale()
        query = AggregateQuery("t", "x", "count", 0.0, 39.0)
        assert engine.execute(query).estimate == engine.execute_exact(query)

    def test_compaction_preserves_staleness_and_stale_since(self):
        engine = self._engine()
        engine.append_rows("t", {"x": np.array([7])})
        stale_since = engine._build_meta[("t", "x")]["stale_since"]
        assert stale_since is not None
        engine.compact_shards("t", "x", runs=[(0, 1)])
        assert engine.stale_synopses() == [("t", "x")]
        assert engine._build_meta[("t", "x")]["stale_since"] == stale_since

    def test_no_cold_runs_returns_none(self):
        engine = self._engine(shards=2)
        report = engine.compact_shards(
            "t", "x", policy=CompactionPolicy(min_shards=2)
        )
        assert report is None
        assert engine.stats()["compactions"] == 0

    def test_metrics_and_trace_span_recorded(self):
        engine = self._engine()
        engine.compact_shards("t", "x", runs=[(0, 2)])
        assert engine.metrics.counter("compaction_runs_total").value == 1
        assert engine.metrics.counter("compaction_shards_merged_total").value == 2
        depth = engine.metrics.gauge(
            "shard_tree_depth", table="t", column="x"
        ).value
        assert depth == engine._synopses[("t", "x")].count_estimator.tree_depth
        spans = [span for span in engine.tracer.spans() if span.name == "compact"]
        assert len(spans) == 1
        assert spans[0].attributes["shards_before"] == 8
        assert spans[0].attributes["shards_after"] == 6

    def test_rejects_unknown_and_unsharded_targets(self):
        engine = ApproximateQueryEngine()
        rng = np.random.default_rng(3)
        engine.register_table(Table("t", {"x": rng.integers(0, 10, 50)}))
        with pytest.raises(InvalidQueryError):
            engine.compact_shards("t", "x")
        engine.build_synopsis("t", "x", method="a0", budget_words=256, shards=1)
        with pytest.raises(InvalidParameterError):
            engine.compact_shards("t", "x")


class TestBackgroundCompactor:
    def test_runs_cycles_and_stops_promptly(self):
        rng = np.random.default_rng(47)
        engine = ApproximateQueryEngine(predict_errors=False)
        engine.register_table(Table("t", {"x": rng.integers(0, 40, 300)}))
        engine.build_synopsis("t", "x", method="a0", budget_words=2048, shards=8)
        compactor = BackgroundCompactor(
            engine, interval=0.01, policy=CompactionPolicy(hot_tail_shards=1)
        )
        done = threading.Event()
        original = compactor.run_once

        def _observed():
            result = original()
            done.set()
            return result

        compactor.run_once = _observed
        compactor.start()
        assert done.wait(timeout=5.0)
        compactor.stop()
        assert compactor.cycles >= 1
        assert compactor.errors == 0
        # The first cycle merged the cold head; later cycles found
        # nothing new (policy returns no runs on the compacted shape).
        assert engine.stats()["compactions"] >= 1

    def test_synchronous_run_once_reports(self):
        rng = np.random.default_rng(48)
        engine = ApproximateQueryEngine(predict_errors=False)
        engine.register_table(Table("t", {"x": rng.integers(0, 40, 300)}))
        engine.build_synopsis("t", "x", method="a0", budget_words=2048, shards=8)
        compactor = BackgroundCompactor(engine, interval=60.0)
        reports = compactor.run_once()
        assert compactor.cycles == 1
        assert len(reports) == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(InvalidParameterError):
            BackgroundCompactor(object(), interval=0.0)
