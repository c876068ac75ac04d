"""Process-level chaos for the multi-process serving pool.

The contract under every injected fault is the same: an admitted query
either receives the bit-identical answer the single-process engine
would give for the same catalog state, or an answer explicitly tagged
with its degradation rung — never a silently wrong answer, and never a
hang (every wait below carries a timeout; a hang fails the test).

Faults are armed *before* the pool starts so the fork-inherited
injector copy is live inside every worker; rules match on the worker's
``generation`` so gen-0 dies and its supervised replacement survives.
Seeded via ``CHAOS_SEED`` like the rest of the chaos suite; artifacts
(supervisor snapshots + pool counters) export to ``CHAOS_ARTIFACT_DIR``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.engine.resilience import FaultInjector
from repro.serving import PoolServer

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Degradation tags that are acceptable *instead of* a fresh answer.
EXPLICIT_RUNGS = {"stale", "fallback", "progressive"}

QUERY_TIMEOUT = 30.0


def _injector() -> FaultInjector:
    return FaultInjector(seed=CHAOS_SEED)


def _engine() -> ApproximateQueryEngine:
    rng = np.random.default_rng(CHAOS_SEED)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table(
            "chaos",
            {
                "v": rng.integers(0, 128, 2500),
                "w": rng.integers(0, 64, 2500),
            },
        )
    )
    engine.build_synopsis("chaos", "v", method="sap1", budget_words=80)
    engine.build_synopsis("chaos", "w", method="a0", budget_words=48)
    return engine


def _queries(n=30):
    return [
        AggregateQuery("chaos", "v", "sum", low, low + 24)
        for low in range(0, 4 * n, 4)[:n]
    ]


def _pool(engine, **kwargs):
    defaults = dict(
        workers=2,
        max_delay_ms=1.0,
        cache_capacity=1,
        heartbeat_interval_ms=25.0,
        heartbeat_timeout_ms=250.0,
        hang_timeout_ms=600.0,
        restart_backoff_ms=20.0,
        restart_backoff_max_ms=500.0,
        deadline_ms=15000.0,
        supervisor_seed=CHAOS_SEED,
    )
    defaults.update(kwargs)
    return PoolServer(engine, **defaults)


def _wait_live(server, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = server.supervisor.snapshot()
        if sum(1 for slot in snapshot.values() if slot["heartbeats"] >= 1) >= count:
            return
        time.sleep(0.01)
    raise AssertionError(f"workers never came up: {server.supervisor.snapshot()}")


def _check_answers(results, expected):
    """Every answer is bit-identical or explicitly degraded."""
    identical = degraded = 0
    for result, want in zip(results, expected):
        if result.degradation in EXPLICIT_RUNGS:
            degraded += 1
        else:
            assert result.estimate == want, (
                f"undegraded answer diverged: {result.estimate} != {want} "
                f"(tag {result.degradation!r})"
            )
            identical += 1
    return identical, degraded


def _export_artifact(name: str, server, injector, extra=None) -> None:
    directory = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not directory:
        return
    Path(directory).mkdir(parents=True, exist_ok=True)
    artifact = {
        "seed": CHAOS_SEED,
        "scenario": name,
        # Worker-site faults fire inside forked children; the parent
        # copy only sees parent-side firings.  The supervisor snapshot
        # is the authoritative worker-lifecycle record.
        "parent_fault_events": injector.event_counts(),
        "supervisor": server.supervisor.snapshot(),
        "pool": server.stats()["pool"],
    }
    if extra:
        artifact.update(extra)
    path = Path(directory) / f"{name}-seed{CHAOS_SEED}.json"
    path.write_text(json.dumps(artifact, indent=2, default=str))


class TestWorkerKill:
    def test_sigkill_mid_batch_retries_and_recovers(self):
        # Acceptance: a worker SIGKILLed mid-batch loses nothing — its
        # in-flight batch is retried on a surviving worker and the
        # supervisor restarts the slot within its backoff budget.
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        injector = _injector()
        injector.kill("worker_batch", times=1, generation=0)
        with injector:
            server = _pool(engine)
            with server:
                _wait_live(server, 2)
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                identical, degraded = _check_answers(results, expected)
                assert identical + degraded == len(queries)
                stats = server.stats()["pool"]
                assert stats["worker_exits"] >= 1
                assert stats["retries"] >= 1
                # Restart within the backoff budget: both slots serving
                # replacement generations shortly after the kill.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    snapshot = server.supervisor.snapshot()
                    if all(
                        slot["state"] in ("live", "starting")
                        for slot in snapshot.values()
                    ):
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError(
                        f"slot never restarted: {server.supervisor.snapshot()}"
                    )
                # Post-recovery queries are answered fresh again.
                after = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                assert [result.estimate for result in after] == expected
                _export_artifact("pool-kill-mid-batch", server, injector)
        assert server.stats()["pool"]["spawns"] >= 3

    def test_injected_kill_exitcode_is_distinguishable(self):
        engine = _engine()
        injector = _injector()
        injector.kill("worker_batch", times=1, generation=0)
        with injector:
            server = _pool(engine)
            with server:
                _wait_live(server, 2)
                server.execute_many(_queries(5), timeout=QUERY_TIMEOUT)
                deadline = time.monotonic() + 10.0
                exitcodes = set()
                while time.monotonic() < deadline and not exitcodes:
                    snapshot = server.supervisor.snapshot()
                    exitcodes = {
                        slot["last_exitcode"]
                        for slot in snapshot.values()
                        if slot["last_exitcode"] is not None
                    }
                    time.sleep(0.02)
        # 77 is the injector's kill sentinel — not a real crash (<0),
        # not a clean exit (0), not an attach failure (3).
        assert 77 in exitcodes


class TestHeartbeatSilence:
    def test_silent_worker_is_killed_and_replaced(self):
        # The gen-0 workers answer fine but never heartbeat: the
        # supervisor must declare them wedged, kill them, and bring up
        # replacements — while queries keep being answered.
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        injector = _injector()
        injector.fail("worker_heartbeat", generation=0)
        with injector:
            server = _pool(engine)
            with server:
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    if server.stats()["pool"]["kills"] >= 1:
                        break
                    results = server.execute_many(
                        queries[:5], timeout=QUERY_TIMEOUT
                    )
                    _check_answers(results, expected[:5])
                    time.sleep(0.05)
                else:
                    raise AssertionError(
                        f"wedged worker never killed: {server.supervisor.snapshot()}"
                    )
                _wait_live(server, 2)
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                identical, degraded = _check_answers(results, expected)
                assert identical + degraded == len(queries)
                _export_artifact("pool-heartbeat-silence", server, injector)
        assert server.stats()["pool"]["kills"] >= 1


class TestWedgedWorker:
    def test_hung_batch_is_killed_and_retried(self):
        # A worker that wedges mid-batch (sleep far past the hang
        # timeout) is SIGKILLed by the supervisor and its batch is
        # retried elsewhere.
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        injector = _injector()
        injector.slow("worker_batch", 30.0, times=1, generation=0)
        with injector:
            server = _pool(engine)
            with server:
                _wait_live(server, 2)
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                identical, degraded = _check_answers(results, expected)
                assert identical + degraded == len(queries)
                stats = server.stats()["pool"]
                assert stats["kills"] >= 1
                assert stats["retries"] >= 1
                _export_artifact("pool-wedged-worker", server, injector)


class TestTornAttach:
    def test_gen0_torn_attach_recovers_via_respawn(self):
        # Both gen-0 workers read a corrupted snapshot, detect it via
        # the CRC frame (never serving from torn bytes), and die; the
        # replacements attach cleanly and serve fresh answers.
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        injector = _injector()
        injector.corrupt("shared_attach", generation=0)
        with injector:
            server = _pool(engine)
            with server:
                _wait_live(server, 2)  # replacements (gen >= 1)
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                assert [result.estimate for result in results] == expected
                stats = server.stats()["pool"]
                assert stats["worker_exits"] >= 2
                assert stats["spawns"] >= 4
                snapshot = server.supervisor.snapshot()
                assert all(slot["generation"] >= 1 for slot in snapshot.values())
                _export_artifact("pool-torn-attach", server, injector)

    def test_unrecoverable_attach_parks_and_degrades(self):
        # Every generation tears its attach: the breaker parks both
        # slots and queued queries degrade through the ladder instead
        # of waiting forever.
        engine = _engine()
        queries = _queries(10)
        injector = _injector()
        injector.corrupt("shared_attach")
        with injector:
            server = _pool(
                engine,
                worker_breaker_threshold=2,
                worker_breaker_cooldown_ms=120000.0,
                max_retries=1,
            )
            with server:
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                for result in results:
                    assert result.degradation in EXPLICIT_RUNGS
                _export_artifact(
                    "pool-attach-parked",
                    server,
                    injector,
                    extra={
                        "degradations": sorted(
                            {result.degradation for result in results}
                        )
                    },
                )


class TestStartingSlots:
    """Batches go only to workers that have reported ``attached``."""

    @staticmethod
    def _blocks(count=4, size=16):
        queries = [
            AggregateQuery("chaos", "v", aggregate, low, low + 20)
            for low in range(count * size // 2)
            for aggregate in ("count", "sum")
        ]
        return [queries[i * size : (i + 1) * size] for i in range(count)]

    def test_unattached_workers_never_take_a_batch(self):
        # Every attach tears, so no worker ever goes live.  Submitted at
        # once, the first block finds both slots ``starting``: it must
        # wait rather than go to a worker that dies attaching, and every
        # block degrades explicitly once the breaker parks both slots,
        # well before the flights' deadline.
        engine = _engine()
        injector = _injector()
        injector.corrupt("shared_attach")
        deadline_ms = 15000.0
        with injector:
            server = _pool(
                engine,
                max_delay_ms=0.0,
                worker_breaker_threshold=2,
                worker_breaker_cooldown_ms=120000.0,
                deadline_ms=deadline_ms,
            )
            with server:
                begin = time.monotonic()
                for block in self._blocks():
                    results = server.execute_many(block, timeout=QUERY_TIMEOUT)
                    for result in results:
                        assert result.degradation in EXPLICIT_RUNGS
                elapsed = time.monotonic() - begin
                stats = server.stats()["pool"]
                _export_artifact("pool-never-attached", server, injector)
        assert stats["dispatched"] == 0
        assert stats["deadline_expired"] == 0
        assert elapsed < deadline_ms / 1000.0

    def test_first_block_waits_for_attach_and_answers_fresh(self):
        engine = _engine()
        block = self._blocks()[0]
        expected = [engine.execute(query).estimate for query in block]
        server = _pool(engine, max_delay_ms=0.0)
        with server:
            # Submitted before any worker has attached: the block waits
            # for the first ``attached`` report, then goes out fresh.
            results = server.execute_many(block, timeout=QUERY_TIMEOUT)
            assert [result.degradation for result in results] == ["fresh"] * 16
            assert [result.estimate for result in results] == expected
            assert server.stats()["pool"]["dispatched"] >= 1


class TestRetryExhaustion:
    def test_every_batch_killed_degrades_explicitly(self):
        # kill matches every generation: each dispatch dies mid-batch.
        # After max_retries the flight must complete through the shed
        # ladder — explicitly tagged, never hung, never wrong.
        engine = _engine()
        queries = _queries(8)
        injector = _injector()
        injector.kill("worker_batch")
        with injector:
            server = _pool(engine, max_retries=2)
            with server:
                _wait_live(server, 2)
                results = server.execute_many(queries, timeout=QUERY_TIMEOUT)
                for result in results:
                    assert result.degradation in EXPLICIT_RUNGS
                stats = server.stats()["pool"]
                assert stats["degraded_batches"] >= 1
                assert stats["worker_exits"] >= 3
                _export_artifact("pool-retry-exhaustion", server, injector)


class TestDrainUnderChaos:
    def test_drain_with_dying_workers_answers_or_fails_explicitly(self):
        engine = _engine()
        queries = _queries()
        expected = [engine.execute(query).estimate for query in queries]
        injector = _injector()
        injector.kill("worker_batch", times=1, generation=0)
        with injector:
            server = _pool(engine)
            server.start()
            _wait_live(server, 2)
            futures = server.submit_many(queries)
            server.drain(timeout_ms=20000.0)
            answered = 0
            for future, want in zip(futures, expected):
                # Every future must be resolved — result or exception —
                # with no waiting left to do.
                error = future.exception(timeout=0.1)
                if error is None:
                    result = future.result(timeout=0.1)
                    if result.degradation not in EXPLICIT_RUNGS:
                        assert result.estimate == want
                    answered += 1
            assert answered >= 1
