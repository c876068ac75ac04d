"""End-to-end tests for the coalescing, caching query server."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.errors import (
    FaultInjectedError,
    InvalidQueryError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.internal.faults import FaultInjector
from repro.observability.clock import FakeClock
from repro.serving import QueryServer
from repro.serving.server import UNTIMED_BATCH_SECONDS


@pytest.fixture
def engine():
    rng = np.random.default_rng(7)
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


def _queries(count=20, column="price"):
    return [
        AggregateQuery("sales", column, ("count", "sum")[i % 2], float(i), float(i + 25))
        for i in range(count)
    ]


def _gate_execute_batch(monkeypatch, engine, blocked_call=1):
    """Hold the ``blocked_call``-th ``execute_batch`` until released.

    Returns ``(entered, release, sizes)``: ``entered`` is set once the
    held call has started, ``release`` lets it finish, and ``sizes``
    records the query count of every call.
    """
    entered, release, sizes = threading.Event(), threading.Event(), []
    original = engine.execute_batch

    def gated(queries, **kwargs):
        sizes.append(len(queries))
        if len(sizes) == blocked_call:
            entered.set()
            release.wait(timeout=30.0)
        return original(queries, **kwargs)

    monkeypatch.setattr(engine, "execute_batch", gated)
    return entered, release, sizes


class _WaitRecordingCondition(threading.Condition):
    """A coalescer condition counting the waits begun with requests queued."""

    def __init__(self, coalescer):
        super().__init__()
        self.coalescer = coalescer
        self.pending_waits = 0

    def wait(self, timeout=None):
        if len(self.coalescer):
            self.pending_waits += 1
        return super().wait(timeout)


class TestRoundTrip:
    def test_served_answers_match_direct_execute(self, engine):
        queries = _queries(30)
        direct = [engine.execute(query) for query in queries]
        with QueryServer(engine, max_delay_ms=1.0) as server:
            served = server.execute_many(queries)
        for expected, actual in zip(direct, served):
            assert actual.estimate == expected.estimate
            assert actual.degradation == expected.degradation

    def test_futures_resolve_out_of_submission_context(self, engine):
        with QueryServer(engine, max_delay_ms=1.0) as server:
            futures = [server.submit(query) for query in _queries(5)]
            results = [future.result(timeout=10.0) for future in futures]
        assert all(result.estimate >= 0 for result in results)

    def test_rejects_non_query_submissions(self, engine):
        with QueryServer(engine) as server:
            with pytest.raises(InvalidQueryError):
                server.submit("SELECT COUNT(*) FROM sales")

    def test_mixed_columns_and_aggregates_coalesce(self, engine):
        queries = _queries(10, "price") + _queries(10, "qty")
        direct = [engine.execute(query) for query in queries]
        with QueryServer(engine, max_batch=64, max_delay_ms=5.0) as server:
            served = server.execute_many(queries)
        assert [r.estimate for r in served] == [r.estimate for r in direct]


class TestAnswerCache:
    def test_repeat_queries_hit_cache(self, engine):
        queries = _queries(10)
        with QueryServer(engine, max_delay_ms=1.0) as server:
            first = server.execute_many(queries)
            second = server.execute_many(queries)
            stats = server.stats()
        assert [r.estimate for r in first] == [r.estimate for r in second]
        assert stats["cache_hits"] == 10
        assert stats["enqueued"] == 10

    def test_append_rows_invalidates_cached_answers(self, engine):
        """The acceptance regression: no pre-append answer after append."""
        query = AggregateQuery("sales", "price", "count", 10.0, 60.0)
        rng = np.random.default_rng(8)
        with QueryServer(engine, max_delay_ms=1.0) as server:
            before = server.execute(query)
            assert before.degradation == "fresh"
            engine.append_rows("sales", {
                "price": rng.integers(1, 100, 4000),
                "qty": rng.integers(1, 20, 4000),
            })
            # The cached answer's token predates the append, so this
            # must recompute — visible as the stale-synopsis rung.
            after_append = server.execute(query)
            assert after_append.degradation == "stale"
            engine.refresh_stale()
            refreshed = server.execute(query)
        assert refreshed.degradation == "fresh"
        # Twice the data: the refreshed estimate must track it, which it
        # could not if any cached pre-append answer leaked through.
        assert refreshed.estimate == pytest.approx(2 * before.estimate, rel=0.35)
        assert refreshed.estimate != before.estimate

    def test_mark_stale_invalidates_cached_answers(self, engine):
        query = AggregateQuery("sales", "price", "count", 10.0, 60.0)
        with QueryServer(engine, max_delay_ms=1.0) as server:
            before = server.execute(query)
            assert before.degradation == "fresh"
            engine._stale.add(("sales", "price"))  # drift-driven mark_stale
            after = server.execute(query)
            stats = server.stats()
        assert after.degradation == "stale"
        assert stats["cache_hits"] == 0
        assert server.cache.invalidated >= 1

    def test_rebuild_invalidates_cached_answers(self, engine):
        query = AggregateQuery("sales", "price", "count", 10.0, 60.0)
        with QueryServer(engine, max_delay_ms=1.0) as server:
            server.execute(query)
            engine.build_synopsis("sales", "price", method="sap1", budget_words=80)
            server.execute(query)
            stats = server.stats()
        assert stats["cache_hits"] == 0
        assert stats["enqueued"] == 2


class TestCoalescing:
    def test_bulk_submission_batches(self, engine):
        queries = _queries(64)
        with QueryServer(engine, max_batch=16, max_delay_ms=50.0) as server:
            server.execute_many(queries)
            stats = server.stats()
        assert stats["batches"] == 4
        assert stats["served"] == 64

    def test_concurrent_submitters_share_batches(self, engine):
        queries = _queries(32)
        results = {}
        with QueryServer(engine, max_batch=1024, max_delay_ms=100.0) as server:
            barrier = threading.Barrier(8)

            def client(index):
                barrier.wait()
                slice_queries = queries[index * 4:(index + 1) * 4]
                results[index] = server.execute_many(slice_queries)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()
        assert sum(len(r) for r in results.values()) == 32
        # 32 queries arriving within one 100ms delay window must share
        # far fewer than 32 flushes.
        assert stats["batches"] <= 8


class TestGroupCommit:
    """The default server dispatches a batch as soon as its worker is free."""

    def test_default_has_no_delay_window(self, engine):
        assert QueryServer(engine).stats()["max_delay_ms"] == 0.0

    def test_lone_request_is_answered_without_waiting(self, engine):
        # A frozen clock: a batch held until it is some age old would
        # never leave the coalescer.
        server = QueryServer(engine)
        server.coalescer._clock = FakeClock(start=5.0).now
        condition = _WaitRecordingCondition(server.coalescer)
        server.coalescer._cond = condition
        query = _queries(1)[0]
        with server:
            result = server.execute(query, timeout=10.0)
        assert result.estimate == engine.execute(query).estimate
        assert condition.pending_waits == 0

    def test_arrivals_during_a_flush_leave_as_one_batch(self, engine, monkeypatch):
        entered, release, sizes = _gate_execute_batch(monkeypatch, engine)
        queries = _queries(16)
        with QueryServer(engine) as server:
            first = server.submit(queries[0])
            assert entered.wait(timeout=10.0)
            later = [server.submit_many(queries[i : i + 5]) for i in (1, 6, 11)]
            assert len(server.coalescer) == 15
            release.set()
            first.result(timeout=10.0)
            results = [future.result(timeout=10.0) for block in later for future in block]
        assert sizes == [1, 15]
        assert [r.estimate for r in results] == [
            engine.execute(query).estimate for query in queries[1:]
        ]

    def test_many_clients_lose_no_request(self, engine):
        # More client threads than cores and a short switch interval: a
        # wakeup lost between the clients and the worker would strand a
        # block, and a lost counter update would show in the totals.
        blocks = [
            [
                AggregateQuery(
                    "sales",
                    ("price", "qty")[i % 2],
                    ("count", "sum", "avg")[i % 3],
                    float(i),
                    float(i + 3 + number),
                )
                for i in range(16)
            ]
            for number in range(6 * 30)
        ]
        expected = [[r.estimate for r in engine.execute_batch(b)] for b in blocks]
        answers = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(engine) as server:

                def client(index):
                    for number in range(index * 30, index * 30 + 30):
                        answers[number] = [
                            r.estimate
                            for r in server.execute_many(blocks[number], timeout=30.0)
                        ]

                threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(switch_interval)
        assert [answers[number] for number in range(len(blocks))] == expected
        assert stats["submitted"] == 16 * len(blocks)
        assert stats["served"] + stats["cache_hits"] == stats["submitted"]


class TestAdmissionControl:
    def test_overload_sheds_to_fallback(self, engine):
        queries = _queries(8)
        # A long delay window keeps the queue occupied while we overfill it.
        with QueryServer(
            engine, max_batch=1024, max_delay_ms=10_000.0, max_pending=3
        ) as server:
            futures = server.submit_many(queries)
            stats = server.stats()
            # stop() (via the context exit) drains the 3 admitted requests.
        assert stats["enqueued"] == 3
        assert stats["shed_fallback"] == 5
        results = [future.result(timeout=10.0) for future in futures]
        assert [r.degradation for r in results[:3]] == ["fresh"] * 3
        for shed in results[3:]:
            assert shed.degradation == "fallback"
            assert shed.synopsis_name == "fallback-uniform"

    def test_overload_serves_cached_answer_tagged_stale(self, engine):
        query = AggregateQuery("sales", "price", "count", 10.0, 60.0)
        rng = np.random.default_rng(9)
        with QueryServer(engine, max_delay_ms=1.0, max_pending=1) as server:
            warm = server.execute(query)
            # Invalidate the cached token without touching the entry.
            engine.append_rows("sales", {
                "price": rng.integers(1, 100, 100),
                "qty": rng.integers(1, 20, 100),
            })
            # Saturate the queue, then ask for the invalidated answer.
            server.coalescer.max_delay_seconds = 10_000.0
            blocker = server.submit(_queries(1, "qty")[0])
            shed = server.submit(query).result(timeout=0)
            stats = server.stats()
        blocker.result(timeout=10.0)
        assert shed.degradation == "stale"
        assert shed.estimate == warm.estimate
        assert stats["shed_stale"] == 1

    def test_strict_policy_rejects_under_overload(self, engine):
        with QueryServer(
            engine,
            max_batch=1024,
            max_delay_ms=10_000.0,
            max_pending=1,
            degradation="strict",
        ) as server:
            first, second = server.submit_many(_queries(2))
            with pytest.raises(ServerOverloadedError):
                second.result(timeout=0)
            stats = server.stats()
        assert stats["rejected"] == 1
        assert first.result(timeout=10.0).estimate >= 0

    def test_arrival_exactly_at_max_pending_sheds_via_stale_rung(self, engine):
        """Shed-ladder edge regression: a request arriving when the
        queue sits *exactly* at ``max_pending`` must shed through the
        stale-cache rung, never raise past an admissible rung."""
        from repro.engine.resilience import DegradationPolicy

        query = AggregateQuery("sales", "price", "count", 10.0, 60.0)
        rng = np.random.default_rng(11)
        policy = DegradationPolicy(
            allow_stale=True, allow_fallback=False, allow_exact=False
        )
        with QueryServer(
            engine, max_delay_ms=1.0, max_pending=2, degradation=policy
        ) as server:
            warm = server.execute(query)
            engine.append_rows("sales", {
                "price": rng.integers(1, 100, 50),
                "qty": rng.integers(1, 20, 50),
            })
            # Pin the queue at exactly max_pending admitted requests.
            server.coalescer.max_delay_seconds = 10_000.0
            blockers = server.submit_many(_queries(2, "qty"))
            assert len(server.coalescer) == server.max_pending
            shed = server.submit(query).result(timeout=0)
            stats = server.stats()
        for blocker in blockers:
            blocker.result(timeout=10.0)
        assert shed.degradation == "stale"
        assert shed.estimate == warm.estimate
        assert stats["shed_stale"] == 1
        assert stats["rejected"] == 0

    def test_arrival_one_below_max_pending_still_enqueues(self, engine):
        """The boundary's other side: at depth max_pending - 1 the
        arrival is admitted to the queue, not shed."""
        with QueryServer(
            engine, max_batch=1024, max_delay_ms=10_000.0, max_pending=2
        ) as server:
            first = server.submit(_queries(1, "qty")[0])
            assert len(server.coalescer) == server.max_pending - 1
            second = server.submit(_queries(1, "price")[0])
            stats = server.stats()
        assert stats["enqueued"] == 2
        assert stats["shed_stale"] == 0
        assert stats["shed_fallback"] == 0
        assert first.result(timeout=10.0).degradation == "fresh"
        assert second.result(timeout=10.0).degradation == "fresh"

    def test_anytime_policy_sheds_progressive_interval(self, engine):
        """Under the anytime policy an overloaded arrival gets a
        stage-0 interval answer instead of ServerOverloadedError."""
        with QueryServer(
            engine,
            max_batch=1024,
            max_delay_ms=10_000.0,
            max_pending=1,
            degradation="anytime",
        ) as server:
            blocker = server.submit(_queries(1, "qty")[0])
            shed = server.submit(
                AggregateQuery("sales", "price", "sum", 10.0, 60.0)
            ).result(timeout=0)
            stats = server.stats()
        blocker.result(timeout=10.0)
        assert shed.degradation == "progressive"
        assert shed.interval is not None
        assert shed.interval[0] <= shed.estimate <= shed.interval[1]
        assert shed.confidence == pytest.approx(0.95)
        assert stats["shed_progressive"] == 1
        assert stats["rejected"] == 0

    def test_injected_overload_with_fault_injector(self, engine):
        """Chaos-style: a slow flush backs the queue up into shedding."""
        injector = FaultInjector(seed=0)
        injector.slow("serve_flush", 0.2)
        queries = _queries(12)
        with injector, QueryServer(
            engine, max_batch=4, max_delay_ms=0.0, max_pending=4
        ) as server:
            futures = server.submit_many(queries)
            results = [future.result(timeout=30.0) for future in futures]
            stats = server.stats()
        assert stats["shed_fallback"] == 8
        assert stats["served"] == 4
        levels = {result.degradation for result in results}
        assert "fallback" in levels


class TestFaultIsolation:
    def test_flush_fault_degrades_to_per_query_execution(self, engine):
        injector = FaultInjector(seed=0)
        injector.fail("serve_flush", times=1)
        queries = _queries(6)
        direct = [engine.execute(query) for query in queries]
        with injector, QueryServer(engine, max_delay_ms=1.0) as server:
            served = server.execute_many(queries)
            stats = server.stats()
        assert [r.estimate for r in served] == [r.estimate for r in direct]
        assert stats["flush_errors"] == 1
        assert stats["served"] == 6

    def test_per_query_fallback_keeps_audit_rate(self, engine):
        injector = FaultInjector(seed=0)
        injector.fail("serve_flush", times=1)
        with injector, QueryServer(
            engine, max_delay_ms=1.0, audit_rate=1.0
        ) as server:
            server.execute_many(_queries(6))
            stats = server.stats()
        assert stats["flush_errors"] == 1
        assert stats["served"] == 6
        # Every served query was audited, the individually answered
        # ones included.
        assert engine.stats()["audited_queries"] == 6

    def test_poison_query_fails_alone(self, engine):
        good = _queries(4)
        poison = AggregateQuery("no_such_table", "value", "count", 0.0, 1.0)
        with QueryServer(engine, max_batch=1024, max_delay_ms=20.0) as server:
            futures = server.submit_many(good + [poison])
            for future, query in zip(futures[:4], good):
                assert future.result(timeout=10.0).estimate == pytest.approx(
                    engine.execute(query).estimate
                )
            with pytest.raises(InvalidQueryError):
                futures[4].result(timeout=10.0)
            stats = server.stats()
        assert stats["flush_errors"] == 1
        assert stats["served"] == 4


class TestLifecycle:
    def test_submit_before_start_raises(self, engine):
        server = QueryServer(engine)
        with pytest.raises(ServerClosedError):
            server.submit(_queries(1)[0])

    def test_stop_answers_all_pending(self, engine):
        server = QueryServer(engine, max_batch=1024, max_delay_ms=10_000.0)
        server.start()
        futures = server.submit_many(_queries(16))
        server.stop()
        results = [future.result(timeout=0) for future in futures]
        assert len(results) == 16

    def test_submit_after_stop_raises(self, engine):
        server = QueryServer(engine)
        server.start()
        server.stop()
        with pytest.raises(ServerClosedError):
            server.submit(_queries(1)[0])

    def test_restart_after_stop(self, engine):
        server = QueryServer(engine, max_delay_ms=1.0)
        server.start()
        server.stop()
        server.start()
        try:
            assert server.execute(_queries(1)[0]).estimate >= 0
        finally:
            server.stop()


class TestObservability:
    def test_metrics_flow_through_engine_registry(self, engine):
        queries = _queries(10)
        with QueryServer(engine, max_delay_ms=1.0) as server:
            server.execute_many(queries)
            server.execute_many(queries)
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["serve_requests_total"][""] == 20
        assert snapshot["counters"]["serve_cache_hits_total"][""] == 10
        assert snapshot["counters"]["serve_batches_total"][""] >= 1
        histograms = snapshot["histograms"]
        assert histograms["serve_latency_seconds"][""]["count"] == 10
        assert histograms["serve_batch_size"][""]["count"] >= 1

    def test_latency_histogram_covers_compute(self, engine, monkeypatch):
        # serve_latency_seconds is enqueue-to-answer: every query of a
        # batch waits for the whole batch to be computed.
        computed = []
        original = engine.execute_batch

        def slow(queries, **kwargs):
            started = time.monotonic()
            time.sleep(0.05)
            results = original(queries, **kwargs)
            computed.append(time.monotonic() - started)
            return results

        monkeypatch.setattr(engine, "execute_batch", slow)
        with QueryServer(engine) as server:
            server.execute_many(_queries(4), timeout=10.0)
        histogram = engine.metrics.snapshot()["histograms"]["serve_latency_seconds"][""]
        assert len(computed) == 1
        assert histogram["count"] == 4
        assert histogram["sum"] >= 4 * computed[0]

    def test_serve_batches_appear_in_trace(self, engine):
        with QueryServer(engine, max_delay_ms=1.0) as server:
            server.execute_many(_queries(4))
        spans = engine.tracer.spans("serve_batch")
        assert spans and spans[0].attributes["size"] == 4

    def test_stats_shape(self, engine):
        with QueryServer(engine, max_delay_ms=1.0) as server:
            server.execute(_queries(1)[0])
            stats = server.stats()
        assert stats["running"] is True
        assert stats["submitted"] == 1
        assert stats["pending"] == 0
        assert stats["cache"]["size"] == 1
        assert stats["max_pending"] == 8192


class TestRetryAfterHint:
    def test_rejection_carries_retry_after_ms(self, engine):
        with QueryServer(
            engine,
            max_batch=1024,
            max_delay_ms=10_000.0,
            max_pending=1,
            degradation="strict",
        ) as server:
            first, second = server.submit_many(_queries(2))
            error = second.exception(timeout=0)
            assert isinstance(error, ServerOverloadedError)
            # The queued request must flush within the delay window, so
            # the hint is bounded by it and positive while the window
            # still has time to run.
            assert error.retry_after_ms is not None
            assert 0.0 < error.retry_after_ms <= 10_000.0
        first.result(timeout=10.0)

    def test_idle_server_hints_full_window(self, engine):
        with QueryServer(engine, max_delay_ms=8.0) as server:
            # Nothing queued: retrying after one full delay window is
            # always safe.
            assert server.retry_after_ms() == pytest.approx(8.0)

    def test_hint_shrinks_as_oldest_request_ages(self, engine):
        with QueryServer(
            engine, max_batch=1024, max_delay_ms=10_000.0, max_pending=5
        ) as server:
            full_window = server.retry_after_ms()
            server.submit(_queries(1)[0])
            time.sleep(0.05)
            aged = server.retry_after_ms()
            assert aged < full_window
            assert aged == pytest.approx(10_000.0 - 50.0, abs=5_000.0)

    def test_fresh_default_server_refusing_past_max_pending_hints_positive(
        self, engine
    ):
        # No delay window and no batch answered yet: the request admitted
        # ahead of the refusal, in the same call, counts as one batch of
        # the untimed estimate.
        with QueryServer(engine, max_pending=1, degradation="strict") as server:
            queued, refused = server.submit_many(_queries(2))
            error = refused.exception(timeout=0)
            queued.result(timeout=10.0)
        assert isinstance(error, ServerOverloadedError)
        assert error.retry_after_ms == pytest.approx(1000.0 * UNTIMED_BATCH_SECONDS)

    def test_default_server_refusing_behind_a_batch_in_flight_hints_positive(
        self, engine, monkeypatch
    ):
        # One batch is timed, the next is held in flight, one request
        # fills the queue and the one after it is refused.  The queued
        # request counts as at least one batch time, however long the
        # held batch has run.
        entered, release, _ = _gate_execute_batch(monkeypatch, engine, blocked_call=2)
        queries = _queries(4)
        with QueryServer(engine, max_pending=1, degradation="strict") as server:
            server.execute(queries[0], timeout=10.0)
            in_flight = server.submit(queries[1])
            assert entered.wait(timeout=10.0)
            queued, refused = server.submit_many(queries[2:])
            error = refused.exception(timeout=0)
            release.set()
            in_flight.result(timeout=10.0)
            queued.result(timeout=10.0)
        assert isinstance(error, ServerOverloadedError)
        assert error.retry_after_ms > 0.0

    def test_stats_exposes_shed_ladder_and_hint(self, engine):
        with QueryServer(
            engine, max_batch=1024, max_delay_ms=10_000.0, max_pending=3
        ) as server:
            server.submit_many(_queries(8))
            stats = server.stats()
        assert stats["shed"] == {
            "stale": 0,
            "fallback": 5,
            "progressive": 0,
            "rejected": 0,
        }
        assert stats["shed"]["fallback"] == stats["shed_fallback"]
        assert isinstance(stats["retry_after_ms"], float)
        assert stats["retry_after_ms"] >= 0.0
