"""Resilient build & serve: deadlines, fallback chains, breakers, degradation."""

import time

import numpy as np
import pytest

from repro.core.builders import BUILDER_REGISTRY
from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.engine.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ESTIMATES_ONLY,
    SERVE_ANYTHING,
    STRICT,
    CircuitBreaker,
    Deadline,
    DegradationPolicy,
    FallbackChain,
    FallbackStage,
    FaultInjector,
    as_degradation_policy,
    as_fallback_chain,
    check_deadline,
    current_deadline,
    deadline_scope,
    jittered_backoff,
)
from repro.errors import (
    BuildFailedError,
    BuildTimeoutError,
    FaultInjectedError,
    InvalidParameterError,
    InvalidQueryError,
)
from repro.observability import FakeClock


def _engine(values=None, **kwargs) -> ApproximateQueryEngine:
    engine = ApproximateQueryEngine(**kwargs)
    if values is None:
        values = np.arange(40) % 10
    engine.register_table(Table("sales", {"price": np.asarray(values)}))
    return engine


class TestJitteredBackoff:
    def test_bounds_and_growth(self):
        import random

        rng = random.Random(3)
        for attempt in range(4):
            base = 0.1 * (2**attempt)
            for _ in range(50):
                delay = jittered_backoff(0.1, attempt, rng=rng, jitter=0.5)
                assert 0.5 * base <= delay <= 1.5 * base

    def test_same_seed_same_schedule(self):
        import random

        a = [jittered_backoff(0.2, i, rng=random.Random(11)) for i in range(5)]
        b = [jittered_backoff(0.2, i, rng=random.Random(11)) for i in range(5)]
        assert a == b

    def test_zero_jitter_is_exact(self):
        assert jittered_backoff(0.25, 0, jitter=0.0) == 0.25
        assert jittered_backoff(0.25, 1, jitter=0.0) == 0.5
        assert jittered_backoff(0.25, 3, jitter=0.0) == 2.0

    def test_zero_base_stays_zero(self):
        assert jittered_backoff(0.0, 4) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            jittered_backoff(-1.0, 0)
        with pytest.raises(InvalidParameterError):
            jittered_backoff(0.1, -1)
        with pytest.raises(InvalidParameterError):
            jittered_backoff(0.1, 0, jitter=1.0)


class TestDeadline:
    def test_expires_with_fake_clock(self):
        clock = FakeClock(start=100.0)
        deadline = Deadline(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.999)
        deadline.check("almost")  # does not raise
        clock.advance(0.002)
        assert deadline.expired()
        with pytest.raises(BuildTimeoutError, match="interval DP"):
            deadline.check("interval DP")

    def test_from_ms(self):
        clock = FakeClock(start=0.0)
        deadline = Deadline.from_ms(250, clock=clock)
        assert deadline.seconds == pytest.approx(0.25)

    def test_non_positive_rejected(self):
        with pytest.raises(InvalidParameterError):
            Deadline(0.0)
        with pytest.raises(InvalidParameterError):
            Deadline(-1.0)

    def test_scope_nesting_restores_previous(self):
        clock = FakeClock(start=0.0)
        outer = Deadline(10.0, clock=clock)
        inner = Deadline(1.0, clock=clock)
        assert current_deadline() is None
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            # None scope keeps the ambient deadline.
            with deadline_scope(None):
                assert current_deadline() is outer
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_noop_without_scope(self):
        check_deadline("anywhere")  # must not raise

    def test_ambient_check_raises_inside_scope(self):
        clock = FakeClock(start=0.0)
        deadline = Deadline(1.0, clock=clock)
        with deadline_scope(deadline):
            clock.advance(2.0)
            with pytest.raises(BuildTimeoutError):
                check_deadline("dp loop")


class TestFallbackChain:
    def test_parse_arrow_and_comma(self):
        assert FallbackChain.parse("sap1 -> a0 -> naive").methods() == [
            "sap1",
            "a0",
            "naive",
        ]
        chain = FallbackChain.parse("a0,naive", retries=2, backoff_seconds=0.5)
        assert chain.methods() == ["a0", "naive"]
        assert all(stage.retries == 2 for stage in chain.stages)

    def test_unknown_method_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError, match="unknown builder"):
            FallbackChain.parse("a0 -> nonsense")

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            FallbackChain.parse(" , ")
        with pytest.raises(InvalidParameterError):
            FallbackChain([])

    def test_as_fallback_chain_coercions(self):
        assert as_fallback_chain(None) is None
        chain = FallbackChain.parse("a0")
        assert as_fallback_chain(chain) is chain
        assert as_fallback_chain("a0,naive").methods() == ["a0", "naive"]
        assert as_fallback_chain(["a0", FallbackStage("naive")]).methods() == [
            "a0",
            "naive",
        ]


class TestCircuitBreaker:
    def test_lifecycle(self):
        clock = FakeClock(start=0.0)
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # opens
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        clock.advance(29.0)
        assert not breaker.allow()
        clock.advance(2.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_failure()  # failed probe re-opens
        assert breaker.state == BREAKER_OPEN
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.snapshot()["consecutive_failures"] == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(cooldown_seconds=0.0)


class TestDeadlineInBuilds:
    def test_opt_a_times_out_promptly(self):
        # OPT-A's pseudo-polynomial DP takes tens of seconds unbounded
        # on this instance (~260 distinct values with small counts); the
        # cooperative checks must surface the timeout well before that.
        # The wall-clock ceiling is deliberately loose (25x the 200 ms
        # budget, still ~10x under the unbounded runtime) because a
        # loaded CI runner can stall any thread for whole seconds; the
        # tight-bound behaviour is covered deterministically by the
        # Deadline unit tests on a fake clock.
        rng = np.random.default_rng(0)
        values = np.repeat(np.arange(300), rng.integers(0, 8, 300))
        engine = _engine(values, predict_errors=False)
        deadline_seconds = 0.2
        start = time.perf_counter()
        with pytest.raises(BuildTimeoutError):
            engine.build_synopsis(
                "sales",
                "price",
                method="opt-a",
                budget_words=24,
                deadline_ms=deadline_seconds * 1000,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 25 * deadline_seconds
        assert ("sales", "price") not in engine._synopses
        counters = engine.metrics.snapshot()["counters"]
        assert counters["build_timeouts_total"]['{method="opt-a"}'] == 1

    def test_unexpired_deadline_is_bit_identical(self):
        values = (np.arange(60) * 7) % 13
        bounded = _engine(values)
        bounded.build_synopsis(
            "sales", "price", method="sap1", budget_words=60, deadline_ms=60_000
        )
        unbounded = _engine(values)
        unbounded.build_synopsis("sales", "price", method="sap1", budget_words=60)
        key = ("sales", "price")
        left, right = bounded._synopses[key], unbounded._synopses[key]
        assert left.predicted["count"] == right.predicted["count"]
        assert left.predicted["sum"] == right.predicted["sum"]

    def test_invalid_deadline_rejected(self):
        engine = _engine()
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            engine.build_synopsis("sales", "price", deadline_ms=0)


class TestFallbackBuilds:
    def test_timeout_falls_back_and_matches_direct_build(self):
        # The acceptance bit: a chain rung gets the same budget, so the
        # a0 synopsis it serves — including the frozen ErrorPrediction —
        # is bit-for-bit what a direct a0 build produces.
        rng = np.random.default_rng(1)
        values = np.repeat(np.arange(300), rng.integers(0, 8, 300))
        engine = _engine(values)
        engine.build_synopsis(
            "sales",
            "price",
            method="opt-a",
            budget_words=24,
            deadline_ms=500,
            fallback="a0",
        )
        key = ("sales", "price")
        entry = engine._synopses[key]
        assert entry.method == "a0"
        direct = _engine(values)
        direct.build_synopsis("sales", "price", method="a0", budget_words=24)
        expected = direct._synopses[key]
        assert entry.predicted["count"] == expected.predicted["count"]
        assert entry.predicted["sum"] == expected.predicted["sum"]
        assert np.array_equal(
            entry.count_estimator.lefts, expected.count_estimator.lefts
        )
        assert np.array_equal(
            entry.count_estimator.values, expected.count_estimator.values
        )
        meta = engine._build_meta[key]
        assert meta["requested_method"] == "opt-a"
        assert meta["served_method"] == "a0"
        assert meta["rung"] == 1
        counters = engine.metrics.snapshot()["counters"]
        assert counters["build_timeouts_total"]['{method="opt-a"}'] == 1
        assert counters["fallback_builds_total"]['{method="a0"}'] == 1

    def test_injected_failure_walks_the_chain(self):
        engine = _engine()
        injector = FaultInjector(seed=0)
        injector.fail("builder", method="sap1")
        injector.fail("builder", method="a0")
        with injector:
            engine.build_synopsis(
                "sales", "price", method="sap1", fallback="a0,naive"
            )
        entry = engine._synopses[("sales", "price")]
        assert entry.method == "naive"
        assert engine._build_meta[("sales", "price")]["rung"] == 2
        assert injector.event_counts() == {"builder:fail": 2}

    def test_exhausted_chain_raises_build_failed(self):
        engine = _engine()
        injector = FaultInjector(seed=0)
        injector.fail("builder")  # every method
        with injector:
            with pytest.raises(BuildFailedError) as excinfo:
                engine.build_synopsis(
                    "sales", "price", method="sap1", fallback="a0"
                )
        assert len(excinfo.value.failures) == 2
        assert all(
            isinstance(error, FaultInjectedError)
            for error in excinfo.value.failures.values()
        )

    def test_no_chain_propagates_original_error(self):
        engine = _engine()
        injector = FaultInjector(seed=0)
        injector.fail("builder", message="boom")
        with injector:
            with pytest.raises(FaultInjectedError, match="boom"):
                engine.build_synopsis("sales", "price", method="sap1")

    def test_retries_with_backoff_recover_transient_faults(self):
        engine = _engine()
        sleeps: list[float] = []
        engine._sleep = sleeps.append
        injector = FaultInjector(seed=0)
        injector.fail("builder", times=2, method="sap1")
        chain = FallbackChain([FallbackStage("a0", retries=0)])
        with injector:
            engine.build_synopsis(
                "sales",
                "price",
                method="sap1",
                fallback=chain,
                # Primary retries ride the FallbackStage of the primary:
                # use build_all-style kwargs via a chain instead.
            )
        # sap1 failed once (its only attempt), a0 served.
        assert engine._synopses[("sales", "price")].method == "a0"
        stats = engine.stats()
        assert stats["build_failures"] == 1
        assert stats["fallback_builds"] == 1

    def test_retry_stage_reattempts_before_descending(self):
        engine = _engine()
        sleeps: list[float] = []
        engine._sleep = sleeps.append
        injector = FaultInjector(seed=0)
        injector.fail("builder", times=2, method="a0")
        chain = FallbackChain(
            [FallbackStage("a0", retries=2, backoff_seconds=0.25)]
        )
        # Primary "sap1" is failed outright so the chain's retrying a0
        # rung is exercised: two injected failures, third attempt wins.
        injector.fail("builder", method="sap1")
        with injector:
            engine.build_synopsis("sales", "price", method="sap1", fallback=chain)
        assert engine._synopses[("sales", "price")].method == "a0"
        # Doubling backoff with +/-50% jitter around 0.25 then 0.5.
        assert len(sleeps) == 2
        assert 0.125 <= sleeps[0] <= 0.375
        assert 0.25 <= sleeps[1] <= 0.75
        assert engine.stats()["build_retries"] == 2

    def test_backoff_schedule_is_seedable(self):
        def _schedule(seed):
            engine = _engine(backoff_seed=seed)
            sleeps: list[float] = []
            engine._sleep = sleeps.append
            injector = FaultInjector(seed=0)
            injector.fail("builder", times=2, method="a0")
            injector.fail("builder", method="sap1")
            chain = FallbackChain(
                [FallbackStage("a0", retries=2, backoff_seconds=0.25)]
            )
            with injector:
                engine.build_synopsis(
                    "sales", "price", method="sap1", fallback=chain
                )
            return sleeps

        assert _schedule(7) == _schedule(7)
        assert _schedule(7) != _schedule(8)

    def test_zero_jitter_reproduces_exact_doubling(self):
        engine = _engine(backoff_jitter=0.0)
        sleeps: list[float] = []
        engine._sleep = sleeps.append
        injector = FaultInjector(seed=0)
        injector.fail("builder", times=2, method="a0")
        injector.fail("builder", method="sap1")
        chain = FallbackChain([FallbackStage("a0", retries=2, backoff_seconds=0.25)])
        with injector:
            engine.build_synopsis("sales", "price", method="sap1", fallback=chain)
        assert sleeps == [0.25, 0.5]

    def test_unknown_primary_method_fails_fast_despite_chain(self):
        engine = _engine()
        with pytest.raises(InvalidParameterError, match="unknown synopsis method"):
            engine.build_synopsis(
                "sales", "price", method="magic", fallback="a0"
            )


class TestBuildAllIsolation:
    def _two_column_engine(self, **kwargs):
        engine = ApproximateQueryEngine(**kwargs)
        engine.register_table(
            Table(
                "sales",
                {"price": np.arange(40) % 10, "qty": (np.arange(40) * 3) % 7},
            )
        )
        return engine

    def test_one_failure_keeps_other_columns(self):
        engine = self._two_column_engine()
        injector = FaultInjector(seed=0)
        injector.fail("builder", times=1)  # exactly one build attempt dies
        with injector:
            with pytest.raises(BuildFailedError) as excinfo:
                engine.build_all_synopses(method="sap1", total_budget_words=120)
        assert len(excinfo.value.failures) == 1
        # The other column's completed synopsis was installed, not discarded.
        assert len(engine._synopses) == 1
        survivor = next(iter(engine._synopses))
        assert f"{survivor[0]}.{survivor[1]}" not in excinfo.value.failures

    def test_chain_completes_catalog_under_injected_failures(self):
        engine = self._two_column_engine()
        injector = FaultInjector(seed=0)
        injector.fail("builder", method="sap1")  # primary always dies
        with injector:
            engine.build_all_synopses(
                method="sap1", total_budget_words=120, fallback="a0"
            )
        assert len(engine._synopses) == 2
        assert all(e.method == "a0" for e in engine._synopses.values())


class TestRefreshBreakers:
    def _stale_engine(self, clock):
        engine = _engine(clock=clock, breaker_threshold=2, breaker_cooldown_seconds=60.0)
        engine.build_synopsis("sales", "price", method="sap1", budget_words=40)
        engine.append_rows("sales", {"price": [3, 4]})
        return engine

    def test_breaker_opens_then_skips_then_recovers(self, monkeypatch):
        clock = FakeClock(start=0.0, tick=0.0)
        engine = self._stale_engine(clock)
        spec = BUILDER_REGISTRY["sap1"]
        broken = spec.__class__(
            name=spec.name,
            words_per_unit=spec.words_per_unit,
            build=lambda *a, **k: (_ for _ in ()).throw(RuntimeError("db down")),
            description=spec.description,
        )
        monkeypatch.setitem(BUILDER_REGISTRY, "sap1", broken)
        # Two failing refreshes open the breaker; each still raises.
        for _ in range(2):
            with pytest.raises(RuntimeError, match="db down"):
                engine.refresh_stale()
        assert engine.breaker_states()["sap1"]["state"] == "open"
        # Open breaker: refresh now *skips* without raising; entry stays
        # stale and keeps serving.
        assert engine.refresh_stale() == 0
        assert ("sales", "price") in engine._stale
        result = engine.execute(
            AggregateQuery("sales", "price", "count", 0, 9)
        )
        assert result.degradation == "stale"
        assert engine.stats()["breaker_skips"] == 1
        # Cool-down elapses, builder is healthy again: half-open probe
        # succeeds and closes the breaker.
        monkeypatch.setitem(BUILDER_REGISTRY, "sap1", spec)
        clock.advance(61.0)
        assert engine.refresh_stale() == 1
        assert engine.breaker_states()["sap1"]["state"] == "closed"
        assert ("sales", "price") not in engine._stale
        counters = engine.metrics.snapshot()["counters"]
        assert counters["breaker_opened_total"]['{method="sap1"}'] == 1
        assert counters["breaker_skips_total"]['{method="sap1"}'] == 1
        assert counters["breaker_closed_total"]['{method="sap1"}'] == 1

    def test_refresh_fallback_chain_serves_substitute(self):
        engine = _engine()
        engine.build_synopsis("sales", "price", method="sap1", budget_words=40)
        engine.append_rows("sales", {"price": [5]})
        injector = FaultInjector(seed=0)
        injector.fail("builder", method="sap1")
        with injector:
            assert engine.refresh_stale(fallback="a0") == 1
        entry = engine._synopses[("sales", "price")]
        assert entry.method == "a0"
        assert ("sales", "price") not in engine._stale


class TestDegradationLadder:
    def test_policy_coercion(self):
        assert as_degradation_policy(None) is None
        assert as_degradation_policy("serve_anything") is SERVE_ANYTHING
        assert as_degradation_policy("estimates-only") is ESTIMATES_ONLY
        assert as_degradation_policy(STRICT) is STRICT
        with pytest.raises(InvalidParameterError):
            as_degradation_policy("yolo")
        with pytest.raises(InvalidParameterError):
            as_degradation_policy(42)

    def test_floor(self):
        assert SERVE_ANYTHING.floor() == "exact"
        assert ESTIMATES_ONLY.floor() == "fallback"
        assert STRICT.floor() == "fresh"
        assert DegradationPolicy(allow_fallback=False, allow_exact=False).floor() == "stale"

    def test_fresh_and_stale_levels(self):
        engine = _engine()
        engine.build_synopsis("sales", "price", budget_words=40)
        query = AggregateQuery("sales", "price", "count", 2, 7)
        assert engine.execute(query, degradation=SERVE_ANYTHING).degradation == "fresh"
        engine.append_rows("sales", {"price": [2]})
        result = engine.execute(query, degradation=SERVE_ANYTHING)
        assert result.degradation == "stale"
        # Legacy path tags too.
        assert engine.execute(query).degradation == "stale"

    def test_fallback_rung_without_synopsis(self):
        values = np.arange(100)  # uniform, so the model is accurate
        engine = _engine(values)
        query = AggregateQuery("sales", "price", "count", 10, 29)
        result = engine.execute(query, with_exact=True, degradation=SERVE_ANYTHING)
        assert result.degradation == "fallback"
        assert result.synopsis_name == "fallback-uniform"
        assert result.synopsis_words == 4
        assert result.exact == 20
        assert result.estimate == pytest.approx(result.exact, rel=0.1)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["degraded_serves_total"]['{level="fallback"}'] == 1

    def test_fallback_sum_and_avg(self):
        values = np.arange(100)
        engine = _engine(values)
        total = engine.execute(
            AggregateQuery("sales", "price", "sum", None, None),
            degradation=SERVE_ANYTHING,
        )
        assert total.estimate == pytest.approx(float(values.sum()))
        avg = engine.execute(
            AggregateQuery("sales", "price", "avg", 0, 99),
            degradation=SERVE_ANYTHING,
        )
        assert avg.estimate == pytest.approx(float(values.mean()))

    def test_exact_rung_when_fallback_disallowed(self):
        engine = _engine(np.arange(50))
        policy = DegradationPolicy(allow_stale=False, allow_fallback=False)
        result = engine.execute(
            AggregateQuery("sales", "price", "count", 0, 9), degradation=policy
        )
        assert result.degradation == "exact"
        assert result.synopsis_name == "exact-scan"
        assert result.estimate == 10.0

    def test_strict_policy_raises(self):
        engine = _engine()
        with pytest.raises(InvalidQueryError, match="no synopsis"):
            engine.execute(
                AggregateQuery("sales", "price", "count", 0, 9),
                degradation=STRICT,
            )
        engine.build_synopsis("sales", "price", budget_words=40)
        engine.append_rows("sales", {"price": [1]})
        with pytest.raises(InvalidQueryError, match="stale"):
            engine.execute(
                AggregateQuery("sales", "price", "count", 0, 9),
                degradation=STRICT,
            )

    def test_unknown_targets_still_raise(self):
        engine = _engine()
        with pytest.raises(InvalidQueryError, match="unknown table"):
            engine.execute(
                AggregateQuery("nope", "price", "count", 0, 9),
                degradation=SERVE_ANYTHING,
            )
        with pytest.raises(InvalidQueryError, match="no column"):
            engine.execute(
                AggregateQuery("sales", "nope", "count", 0, 9),
                degradation=SERVE_ANYTHING,
            )

    def test_never_raises_for_registered_column(self):
        # The headline property: under the default policy, a query on a
        # registered column always answers, whatever the synopsis state.
        engine = _engine(np.arange(100))
        query = AggregateQuery("sales", "price", "count", 5, 44)
        for setup in (
            lambda: None,  # no synopsis at all
            lambda: engine.build_synopsis("sales", "price", budget_words=40),
            lambda: engine.append_rows("sales", {"price": [7]}),
        ):
            setup()
            result = engine.execute(query, degradation="serve_anything")
            assert result.estimate >= 0.0

    def test_fallback_model_invalidated_by_appends(self):
        engine = _engine(np.arange(10))
        query = AggregateQuery("sales", "price", "count", None, None)
        first = engine.execute(query, degradation=SERVE_ANYTHING)
        assert first.estimate == pytest.approx(10.0)
        engine.append_rows("sales", {"price": [3] * 10})
        second = engine.execute(query, degradation=SERVE_ANYTHING)
        assert second.estimate == pytest.approx(20.0)

    def test_batch_degradation(self):
        engine = _engine(np.arange(100))
        engine.register_table(Table("built", {"x": np.arange(50) % 10}))
        engine.build_synopsis("built", "x", budget_words=40)
        queries = [
            AggregateQuery("built", "x", "count", 0, 9),
            AggregateQuery("sales", "price", "count", 0, 49),
            AggregateQuery("built", "x", "count", 2, 5),
        ]
        results = engine.execute_batch(queries, degradation=SERVE_ANYTHING)
        assert [r.degradation for r in results] == ["fresh", "fallback", "fresh"]
        assert results[1].estimate == pytest.approx(50.0, rel=0.1)
        exact_policy = DegradationPolicy(allow_stale=False, allow_fallback=False)
        results = engine.execute_batch(
            [AggregateQuery("sales", "price", "sum", 0, 9)],
            with_exact=True,
            degradation=exact_policy,
        )
        assert results[0].degradation == "exact"
        assert results[0].estimate == results[0].exact == 45.0

    def test_span_carries_degradation(self):
        engine = _engine()
        engine.execute(
            AggregateQuery("sales", "price", "count", 0, 9),
            degradation=SERVE_ANYTHING,
        )
        spans = engine.tracer.spans("query")
        assert spans[-1].attributes["degradation"] == "fallback"

    def test_observability_snapshot_has_breakers_and_quarantine(self):
        engine = _engine()
        snapshot = engine.observability_snapshot()
        assert snapshot["breakers"] == {}
        assert snapshot["quarantined"] == []
