"""Regression: degraded AVG answers stay inside their range.

On a stale, skewed 256-value column the fallback rung used to answer AVG
with the whole column's mean whatever the range (AVG over ``[10, 20]``
came back near 164 where the exact answer is about 12.5), and under
``ANYTIME`` 736 of 1,000 narrow-range progressive AVG estimates, and all
1,000 of their intervals, fell outside the range.  The clamp must not
shut out the engine's defined-empty AVG (0.0) on a range that holds no
row, and a stale entry's exact count floor must not invert the COUNT
interval.
"""

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table
from repro.engine.engine import AggregateQuery
from repro.engine.resilience import ANYTIME, DegradationPolicy
from repro.serving.catalog import CatalogView
from repro.serving.progressive import RefinementSession


def _skewed_values(rng, size: int) -> np.ndarray:
    ranks = np.random.default_rng(17).permutation(256) + 1.0
    weights = ranks**-1.1
    return rng.choice(256, size=size, p=weights / weights.sum())


@pytest.fixture()
def stale_engine():
    rng = np.random.default_rng(17)
    values = _skewed_values(rng, 20_000)
    values[0], values[1] = 0, 255
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": values}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=256, shards=8)
    engine.append_rows("t", {"v": _skewed_values(rng, 500)})
    return engine


def _narrow_ranges(count: int = 1000):
    rng = np.random.default_rng(3)
    for _ in range(count):
        low = int(rng.integers(0, 256))
        yield float(low), float(min(255, low + int(rng.integers(0, 16))))


def test_fallback_avg_is_clamped_into_its_range(stale_engine):
    query = AggregateQuery("t", "v", "avg", 10.0, 20.0)
    column_mean = float(np.mean(stale_engine.table("t").column("v")))
    assert column_mean > 100.0
    result = stale_engine.execute(query, degradation=DegradationPolicy(allow_stale=False))
    assert result.degradation == "fallback"
    assert 10.0 <= result.estimate <= 20.0
    assert CatalogView(stale_engine).fallback_estimate(query) == result.estimate


def test_fallback_avg_over_the_whole_column_is_its_mean():
    values = np.arange(100)
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": values}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=40)
    engine.append_rows("t", {"v": np.array([99])})
    result = engine.execute(
        AggregateQuery("t", "v", "avg", 40.0, None),
        degradation=DegradationPolicy(allow_stale=False),
    )
    assert result.degradation == "fallback"
    assert result.estimate == pytest.approx(float(np.mean(np.append(values, 99))))


def test_progressive_avg_estimates_and_intervals_stay_in_range(stale_engine):
    for low, high in _narrow_ranges():
        query = AggregateQuery("t", "v", "avg", low, high)
        result = stale_engine.execute(query, degradation=ANYTIME)
        assert result.degradation == "progressive"
        assert low <= result.estimate <= high
        lo, hi = result.interval
        slack = 1e-9 * max(1.0, high)
        assert low - slack <= lo <= hi <= high + slack
        assert lo <= stale_engine.execute_exact(query) <= hi


def test_fresh_progressive_avg_tightens_to_the_axis_values():
    values = np.array([3, 3, 9, 9, 9, 40, 40, 41])
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": values}))
    engine.build_synopsis("t", "v", method="a0", budget_words=4)
    query = AggregateQuery("t", "v", "avg", -50.0, 20.0)
    exact = engine.execute_exact(query)
    chain = RefinementSession(engine, query).run_to_exact()
    for answer in chain[:-1]:
        # The dense axis starts at 3: no row in [-50, 20] holds less.
        assert 3.0 - 1e-6 <= answer.lo <= answer.hi <= 20.0 + 1e-6
        assert answer.contains(exact)
    assert chain[-1].estimate == exact
    # Once rows are appended the snapshot no longer bounds the range.
    engine.append_rows("t", {"v": np.array([-40])})
    stale = RefinementSession(engine, query).run_to_exact()
    assert stale[0].lo < 3.0
    assert stale[-1].estimate == engine.execute_exact(query)



def _holey_engine(shards: int = 1):
    # Dense axis 0..70 holding only multiples of 10: [3, 6] is in the
    # domain but holds no row.
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": np.repeat(np.arange(0, 80, 10), 20)}))
    engine.build_synopsis("t", "v", method="a0", budget_words=16, shards=shards)
    return engine


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("appended", [None, [0, 70, 10]])
def test_progressive_avg_over_an_empty_range_is_zero_at_every_stage(shards, appended):
    engine = _holey_engine(shards)
    if appended is not None:
        engine.append_rows("t", {"v": np.array(appended)})
    query = AggregateQuery("t", "v", "avg", 3.0, 6.0)
    assert engine.execute_exact(query) == 0.0
    chain = RefinementSession(engine, query).run_to_exact()
    assert all(answer.contains(0.0) for answer in chain)
    assert all(answer.estimate == 0.0 for answer in chain)
    assert chain[-1].lo == chain[-1].hi == 0.0


def test_progressive_avg_over_a_hole_filled_by_appended_rows():
    engine = _holey_engine(4)
    engine.append_rows("t", {"v": np.array([4, 5, 70])})
    query = AggregateQuery("t", "v", "avg", 3.0, 6.0)
    result = engine.execute(query, degradation=ANYTIME)
    assert result.degradation == "progressive"
    assert 3.0 <= result.estimate <= 6.0
    chain = RefinementSession(engine, query).run_to_exact()
    for answer in chain:
        assert 3.0 - 1e-6 <= answer.lo <= answer.hi <= 6.0 + 1e-6
        assert answer.contains(4.5)
    assert chain[-1].estimate == 4.5


@pytest.mark.parametrize("aggregate", ["count", "avg"])
def test_stale_count_floor_keeps_intervals_ordered(monkeypatch, aggregate):
    engine = _holey_engine(4)
    engine.append_rows("t", {"v": np.array([10, 10, 20])})
    query = AggregateQuery("t", "v", aggregate, 5.0, 25.0)
    session = RefinementSession(engine, query)
    snapshot = session._synopsis_component
    # A snapshot COUNT estimate far below minus its half-width, as an
    # unconstrained SAP estimate can be: the exact count of appended rows
    # in range (3) then exceeds the interval's upper end.
    monkeypatch.setattr(
        session,
        "_synopsis_component",
        lambda kind: (-50.0, 1.0) if kind == "count" else snapshot(kind),
    )
    chain = session.run_to_exact()
    assert all(answer.lo <= answer.hi for answer in chain)
    if aggregate == "count":
        assert chain[0].lo == chain[0].hi == 3.0
    assert chain[-1].estimate == engine.execute_exact(query)
