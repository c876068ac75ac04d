"""PoolServer functional behaviour (no fault injection — see chaos suite).

Correctness bar: every answer a pool serves must be bit-identical to the
single-process engine's answer for the same catalog state, or carry an
explicit degradation tag.  Timing-sensitive liveness scenarios (kills,
wedges, heartbeat loss) live in ``tests/chaos/test_chaos_pool.py``.
"""

import time

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.errors import (
    InvalidParameterError,
    InvalidQueryError,
    ServerClosedError,
)
from repro.serving import PoolServer


def _engine(seed=5) -> ApproximateQueryEngine:
    rng = np.random.default_rng(seed)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table(
            "sales",
            {
                "price": rng.integers(0, 256, 3000),
                "qty": rng.integers(0, 32, 3000),
            },
        )
    )
    engine.build_synopsis("sales", "price", method="sap1", budget_words=96)
    engine.build_synopsis("sales", "qty", method="a0", budget_words=48)
    return engine


def _queries(n=40):
    return [
        AggregateQuery("sales", "price", "sum", low, low + 30)
        for low in range(0, 10 * n, 10)[:n]
    ]


def _pool(engine, **kwargs):
    defaults = dict(workers=2, max_delay_ms=1.0, cache_capacity=1)
    defaults.update(kwargs)
    return PoolServer(engine, **defaults)


def _wait_for_workers(server, count, timeout=10.0):
    # Heartbeat-confirmed, not merely spawned: tests that count attach
    # events need both workers fully up before proceeding.
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = server.supervisor.snapshot()
        if sum(1 for slot in snapshot.values() if slot["heartbeats"] >= 1) >= count:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"pool never reached {count} live workers: {server.supervisor.snapshot()}"
    )


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            PoolServer(_engine(), workers=0)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            PoolServer(_engine(), deadline_ms=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(InvalidParameterError, match="max_retries"):
            PoolServer(_engine(), max_retries=-1)


class TestParity:
    def test_answers_match_single_process_engine(self):
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            results = server.execute_many(queries, timeout=15.0)
        assert [result.estimate for result in results] == expected
        assert all(result.degradation == "fresh" for result in results)

    def test_multi_column_batches_round_trip(self):
        engine = _engine()
        queries = [
            AggregateQuery("sales", "price", "avg", 10, 200),
            AggregateQuery("sales", "qty", "count", 1, 30),
            AggregateQuery("sales", "price", "count", None, None),
        ]
        expected = [engine.execute(query).estimate for query in queries]
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            results = server.execute_many(queries, timeout=15.0)
        assert [result.estimate for result in results] == expected

    def test_sustained_load_spreads_over_workers(self):
        engine = _engine()
        queries = _queries(20)
        expected = [engine.execute(query).estimate for query in queries]
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            for _ in range(10):
                results = server.execute_many(queries, timeout=15.0)
                assert [result.estimate for result in results] == expected
            stats = server.stats()["pool"]
        assert stats["dispatched"] >= 10
        assert stats["live_workers"] == 2


class TestTokenRevalidation:
    def test_mutation_without_republish_recomputes_on_parent(self):
        # The workers keep serving the old epoch; the parent must catch
        # the token divergence and answer from its live engine instead
        # of passing a pre-mutation estimate off as fresh.
        engine = _engine()
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            before = server.execute(query, timeout=15.0)
            engine.build_synopsis("sales", "price", method="sap1", budget_words=200)
            after = server.execute(query, timeout=15.0)
            assert after.estimate == engine.execute(query).estimate
            stats = server.stats()["pool"]
        assert before.estimate == _engine().execute(query).estimate
        assert stats["token_mismatch_recomputed"] >= 1

    def test_republish_restores_worker_serving(self):
        engine = _engine()
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            server.execute(query, timeout=15.0)
            engine.build_synopsis("sales", "price", method="sap1", budget_words=200)
            epoch = server.republish()
            assert epoch.epoch == 2
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                server.execute(query, timeout=15.0)
                mismatches = server.stats()["pool"]["token_mismatch_recomputed"]
                result = server.execute(query, timeout=15.0)
                if (
                    server.stats()["pool"]["token_mismatch_recomputed"]
                    == mismatches
                ):
                    break
                time.sleep(0.02)
            assert result.estimate == engine.execute(query).estimate
            stats = server.stats()["pool"]
        assert stats["epoch_swaps"] == 1
        assert stats["current_epoch"] == 2

    def test_stale_answers_from_old_epoch_never_enter_cache_as_fresh(self):
        engine = _engine()
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        with _pool(engine, cache_capacity=64) as server:
            _wait_for_workers(server, 2)
            server.execute(query, timeout=15.0)
            engine.build_synopsis("sales", "price", method="sap1", budget_words=200)
            live = engine.execute(query).estimate
            # Every post-mutation answer must reflect the new catalog,
            # cached or not.
            for _ in range(5):
                assert server.execute(query, timeout=15.0).estimate == live


class TestDrain:
    def test_clean_drain_answers_everything(self):
        engine = _engine()
        queries = _queries()
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            futures = server.submit_many(queries)
            assert server.drain(timeout_ms=10000.0) is True
            for future in futures:
                assert future.result(timeout=0.1) is not None
        assert server.drain_was_clean is True

    def test_draining_server_rejects_new_submissions(self):
        engine = _engine()
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            server.drain(timeout_ms=10000.0)
            with pytest.raises(ServerClosedError):
                server.submit(AggregateQuery("sales", "price", "sum", 0, 10))

    def test_drain_is_idempotent(self):
        engine = _engine()
        server = _pool(engine).start()
        _wait_for_workers(server, 2)
        assert server.drain(timeout_ms=10000.0) is True
        server.stop()  # second teardown is a no-op, not an error

    def test_restart_after_drain_serves_again(self):
        engine = _engine()
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        server = _pool(engine)
        server.start()
        _wait_for_workers(server, 2)
        first = server.execute(query, timeout=15.0)
        server.drain(timeout_ms=10000.0)
        server.start()
        _wait_for_workers(server, 2)
        second = server.execute(query, timeout=15.0)
        server.stop()
        assert first.estimate == second.estimate


class TestSubmissionErrors:
    def test_unknown_table_raises_at_admission(self):
        engine = _engine()
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            with pytest.raises(InvalidQueryError):
                server.execute(
                    AggregateQuery("nope", "price", "sum", 0, 10), timeout=15.0
                )

    def test_not_running_raises_closed(self):
        server = _pool(_engine())
        with pytest.raises(ServerClosedError):
            server.submit(AggregateQuery("sales", "price", "sum", 0, 10))


class TestObservability:
    def test_stats_reports_pool_section(self):
        engine = _engine()
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            server.execute_many(_queries(10), timeout=15.0)
            stats = server.stats()
        pool = stats["pool"]
        assert pool["workers"] == 2
        assert pool["spawns"] == 2
        assert pool["dispatched"] >= 1
        assert pool["current_epoch"] == 1
        assert set(pool["supervisor"]) == {0, 1}
        assert pool["supervisor"][0]["heartbeats"] >= 1
        assert stats["shed"]["rejected"] == 0

    def test_metrics_track_worker_lifecycle(self):
        engine = _engine()
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            server.execute_many(_queries(5), timeout=15.0)
            snapshot = engine.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["pool_worker_spawns_total"][""] == 2
        assert counters["pool_worker_attaches_total"][""] == 2
        assert counters["pool_heartbeats_total"][""] >= 2
        assert counters["pool_batches_dispatched_total"][""] >= 1


class TestPolicyProjection:
    """Workers serve only the ladder rungs a table-less snapshot can."""

    def test_worker_serves_stale_when_policy_allows(self):
        # Column stale at publish time, default serve-anything policy:
        # the worker answers from the snapshot, honestly tagged stale,
        # with no parent recompute involved.
        engine = _engine()
        engine.append_rows("sales", {"price": [7, 9, 11], "qty": [1, 2, 3]})
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        expected = engine.execute(query, on_stale="serve")
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            result = server.execute(query, timeout=15.0)
            stats = server.stats()["pool"]
        assert result.degradation == "stale"
        assert result.estimate == expected.estimate
        assert stats["parent_recomputed"] == 0

    def test_stale_forbidding_policy_defers_to_parent_ladder(self):
        # Same stale snapshot, but the policy forbids stale: the worker
        # must NOT pass the stale estimate off — it defers, and the
        # parent's live engine answers through the next admitted rung.
        from repro.engine.resilience import DegradationPolicy

        engine = _engine()
        engine.append_rows("sales", {"price": [7, 9, 11], "qty": [1, 2, 3]})
        query = AggregateQuery("sales", "price", "sum", 0, 128)
        policy = DegradationPolicy(allow_stale=False)
        with _pool(engine, degradation=policy) as server:
            _wait_for_workers(server, 2)
            result = server.execute(query, timeout=15.0)
            stats = server.stats()["pool"]
        assert result.degradation == "fallback"
        assert stats["worker_deferred"] >= 1

    def test_missing_synopsis_defers_to_parent_fallback(self):
        # A registered column with no synopsis: QueryServer answers it
        # on the fallback rung, so the pool must too (the worker's
        # snapshot has nothing for it and defers).
        rng = np.random.default_rng(5)
        engine = ApproximateQueryEngine()
        engine.register_table(
            Table(
                "sales",
                {
                    "price": rng.integers(0, 256, 3000),
                    "extra": rng.integers(0, 64, 3000),
                },
            )
        )
        engine.build_synopsis("sales", "price", method="sap1", budget_words=96)
        query = AggregateQuery("sales", "extra", "sum", 0, 32)
        with _pool(engine) as server:
            _wait_for_workers(server, 2)
            result = server.execute(query, timeout=15.0)
            stats = server.stats()["pool"]
        assert result.degradation == "fallback"
        assert stats["worker_deferred"] >= 1


class TestChunkedBatches:
    def test_answer_batch_heartbeats_between_chunks(self):
        # A big coalesced batch must emit liveness between chunks so
        # the supervisor never mistakes legitimate heavy work for a
        # wedged worker.
        from repro.serving import pool as pool_module

        engine = _engine()
        specs = [
            ("sales", "price", "sum", low, low + 30) for low in range(150)
        ]
        beats = []
        answers = pool_module._answer_batch(
            engine, specs, True, lambda: beats.append(1)
        )
        assert len(answers) == len(specs)
        assert len(beats) == (len(specs) - 1) // pool_module._CHUNK_QUERIES
        expected = [
            engine.execute(
                AggregateQuery("sales", "price", "sum", low, low + 30)
            ).estimate
            for low in range(150)
        ]
        assert [answer[0] for answer in answers] == ["ok"] * len(specs)
        assert [answer[1] for answer in answers] == expected

    def test_multi_chunk_batch_round_trips_through_workers(self):
        engine = _engine()
        queries = _queries(150)
        expected = [engine.execute(query).estimate for query in queries]
        with _pool(engine, max_delay_ms=20.0) as server:
            _wait_for_workers(server, 2)
            results = server.execute_many(queries, timeout=30.0)
        assert [result.estimate for result in results] == expected


class TestCollectorResilience:
    def test_transient_collector_error_is_survived(self):
        # A few unexpected exceptions in the collector loop must not
        # kill it — passes are skipped and counted, then service
        # resumes and every request is still answered.
        engine = _engine()
        queries = _queries(10)
        expected = [engine.execute(query).estimate for query in queries]
        server = _pool(engine)
        original = server._service_timers
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 3:
                raise RuntimeError("injected collector failure")
            return original()

        server._service_timers = flaky
        with server:
            _wait_for_workers(server, 2)
            results = server.execute_many(queries, timeout=15.0)
            # A pass delivers answers before it calls the hook, so the
            # answers can arrive before the third failure; the collector
            # counts each failure before its next pass calls the hook
            # again, so a fourth call means all three are counted.
            deadline = time.monotonic() + 15.0
            while calls["n"] <= 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = server.stats()["pool"]
            assert [result.estimate for result in results] == expected
        assert stats["collector_errors"] >= 3
        assert stats["collector_failed"] is False

    def test_collector_giving_up_fails_flights_not_callers(self, monkeypatch):
        # If the collector cannot complete any pass, the pool must mark
        # itself unhealthy and resolve every request through the shed
        # ladder — degraded or failed explicitly, never hung.
        from repro.serving import pool as pool_module

        monkeypatch.setattr(pool_module, "_COLLECTOR_FAILURE_LIMIT", 3)
        engine = _engine()
        queries = _queries(8)
        server = _pool(engine)

        def broken():
            raise RuntimeError("collector is broken")

        server._collector_pass = broken
        with server:
            results = server.execute_many(queries, timeout=20.0)
            for result in results:
                assert result.degradation in ("stale", "fallback", "progressive")
            stats = server.stats()["pool"]
        assert stats["collector_failed"] is True
        assert stats["collector_errors"] >= 3


class TestSigtermDrain:
    def test_handler_offloads_drain_from_the_signal_frame(self):
        # The handler must return immediately even when the signal
        # lands while this thread holds the coalescer condition (as
        # inside submit_many) — draining inline there would deadlock on
        # the non-reentrant lock.  The actual drain runs on its own
        # thread and completes once the lock is released.
        import os
        import signal as signal_module

        engine = _engine()
        server = _pool(engine)
        server.start()
        previous = server.install_sigterm_handler()
        try:
            _wait_for_workers(server, 2)
            with server.coalescer._cond:
                os.kill(os.getpid(), signal_module.SIGTERM)
                # The handler has already run (signals are delivered on
                # this thread); reaching the next statement proves it
                # did not drain inline while we hold the condition.
                time.sleep(0.05)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and server.drain_was_clean is None:
                time.sleep(0.02)
            assert server.drain_was_clean is True
            with pytest.raises(ServerClosedError):
                server.submit(AggregateQuery("sales", "price", "sum", 0, 10))
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)

    def test_repeated_sigterm_coalesces_into_one_drain(self):
        import os
        import signal as signal_module

        engine = _engine()
        server = _pool(engine)
        server.start()
        previous = server.install_sigterm_handler()
        try:
            _wait_for_workers(server, 2)
            os.kill(os.getpid(), signal_module.SIGTERM)
            os.kill(os.getpid(), signal_module.SIGTERM)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and server.drain_was_clean is None:
                time.sleep(0.02)
            assert server.drain_was_clean is True
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
