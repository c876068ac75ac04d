"""Engine-level behaviour of stacked shard builds.

Stacked SAP0/SAP1/A0 builds fire their fault points before one stacked
DP pass instead of around each shard's build.  These tests pin what must
not change: the ``shard_rebuild`` and ``builder`` sites fire once per
dirty shard in shard order, ``times=`` budgets count those firings, a
deadline that trips inside a stacked group leaves the entry stale with
its counters flat, and a build's transient memory stays bounded.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.sap import build_sap1, sap_bucket_costs
from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.engine.resilience import FaultInjector
from repro.errors import BuildTimeoutError, FaultInjectedError
from repro.internal.deadline import Deadline, deadline_scope
from repro.internal.dp import STACK_BYTES, prefix_cost_dp

KEY = ("t", "v")


def _engine(method: str = "sap1") -> ApproximateQueryEngine:
    rng = np.random.default_rng(41)
    values = rng.integers(0, 128, 6000)
    values[0], values[1] = 0, 127
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": values}))
    engine.build_synopsis("t", "v", method=method, budget_words=1024, shards=16)
    return engine


def _append_to_shards_1_and_9(engine) -> None:
    # Width-8 shards: values 12 and 75 land in shards 1 and 9.
    engine.append_rows("t", {"v": np.array([12, 75, 75])})


def _counters(engine) -> tuple:
    stats = engine.stats()
    return (
        stats["rebuilds"],
        stats["dirty_shards_rebuilt"],
        engine.metrics.counter("rebuilds_total").value,
        engine.metrics.counter("dirty_shards_rebuilt_total").value,
    )


def _answers(engine) -> list[float]:
    return [
        engine.execute(AggregateQuery("t", "v", aggregate, low, low + 20)).estimate
        for aggregate in ("count", "sum")
        for low in range(0, 100, 7)
    ]


@pytest.mark.parametrize("method", ["sap0", "sap1", "a0"])
def test_fault_points_fire_once_per_shard_in_order(method):
    engine = _engine(method)
    _append_to_shards_1_and_9(engine)
    injector = FaultInjector(seed=0)
    injector.slow("shard_rebuild", seconds=0.0)
    injector.slow("builder", seconds=0.0)
    with injector:
        assert engine.refresh_stale() == 1
    fired = [(event["site"], event["attrs"].get("shard")) for event in injector.events]
    one_aggregate = [
        ("shard_rebuild", 1), ("builder", None), ("shard_rebuild", 9), ("builder", None)
    ]
    assert fired == one_aggregate * 2  # COUNT, then SUM


def test_times_budget_counts_stacked_firings():
    engine = _engine()
    twin = _engine()
    _append_to_shards_1_and_9(engine)
    _append_to_shards_1_and_9(twin)
    before = _counters(engine)
    frozen = _answers(engine)
    injector = FaultInjector(seed=0)
    injector.fail("shard_rebuild", times=1, shard=9)
    with injector:
        with pytest.raises(FaultInjectedError):
            engine.refresh_stale()
        # Shard 1's point fired first; shard 9 failed before any build.
        assert engine.stale_synopses() == [KEY]
        assert engine.dirty_shards()["t.v"] == [1, 9]
        assert _counters(engine) == before
        assert _answers(engine) == frozen
        # The rule is spent: the retry rebuilds both shards.
        assert engine.refresh_stale() == 1
    assert injector.event_counts() == {"shard_rebuild:fail": 1}
    twin.refresh_stale()
    assert _answers(engine) == _answers(twin)
    assert engine.stats()["dirty_shards_rebuilt"] == before[1] + 2


class _TrippingClock:
    """Reads 0 until ``trip_after`` reads, then far in the future."""

    def __init__(self, trip_after: int) -> None:
        self.reads = 0
        self.trip_after = trip_after

    def now(self) -> float:
        self.reads += 1
        return 0.0 if self.reads <= self.trip_after else 1e9


def test_deadline_tripping_mid_group_leaves_entry_stale():
    engine = _engine()
    _append_to_shards_1_and_9(engine)
    before = _counters(engine)
    frozen = _answers(engine)
    # Read 1 starts the deadline, read 2 polls the cost block, read 3
    # polls the first DP layer of the stacked group and trips.
    with deadline_scope(Deadline(1.0, clock=_TrippingClock(trip_after=2))):
        with pytest.raises(BuildTimeoutError, match="interval DP layer fill"):
            engine.refresh_stale()
    assert engine.stale_synopses() == [KEY]
    assert engine.dirty_shards()["t.v"] == [1, 9]
    assert _counters(engine) == before
    assert _answers(engine) == frozen
    assert engine.refresh_stale() == 1


def test_monolithic_build_peak_is_cost_plus_one_layer():
    """A 4,096-value build holds the cost tensor and one layer's
    candidates at a time; closed forms are evaluated in row blocks."""
    n = 4096
    data = np.random.default_rng(5).integers(0, 100, n).astype(np.float64)
    tracemalloc.start()
    try:
        build_sap1(data, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8 + 4 * 2**20


def test_stacked_dp_memory_does_not_grow_with_shard_count():
    rng = np.random.default_rng(6)

    def peak_for(shards: int) -> int:
        stack = rng.integers(0, 100, (shards, 16)).astype(np.float64)
        caps = rng.integers(1, 9, shards)
        tracemalloc.start()
        try:
            prefix_cost_dp(stack, caps, lambda al, a, b: sap_bucket_costs(al, a, b, 1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_for(32), peak_for(1024)
    assert large <= 16 * STACK_BYTES
    assert large < 2 * small
