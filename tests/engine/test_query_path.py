"""The engine's one query path against a reference built outside it.

``execute`` is the one-query case of ``execute_batch``'s group routine,
so comparing the two only shows that the routine agrees with itself.
Here both are checked, bit for bit, against a reference assembled from
public parts: ``ColumnStatistics.clip_range`` per query, the estimators'
scalar ``estimate(low, high)``, and a numpy masked scan of the base
table for exact answers.  The columns hold integers, so every exact sum
is an exact float64 whatever order it is added in.
"""

import math

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, BatchQuery, Table
from repro.engine.engine import AggregateQuery
from repro.engine.resilience import ANYTIME, SERVE_ANYTHING, DegradationPolicy
from repro.serving import RefinementSession

AGGREGATES = ("count", "sum", "avg")
#: Spans of the two columns' values: ``v`` is dense, ``w`` (values up
#: to 2.5 million) takes the rank layout.
SPANS = {"v": 256.0, "w": 64.0 * 40_000}


def _skewed(rows: int, domain: int, seed: int) -> np.ndarray:
    """Zipf-like weights over a fixed permutation of the domain."""
    weights = (np.random.default_rng(1).permutation(domain) + 1.0) ** -1.1
    return np.random.default_rng(seed).choice(domain, size=rows, p=weights / weights.sum())


@pytest.fixture(params=[1, 8], ids=["monolithic", "sharded"])
def engine(request):
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table(
            "t",
            {
                "v": _skewed(8000, 256, 3),
                "w": _skewed(8000, 64, 4) * 40_000 + 7,
            },
        )
    )
    engine.build_synopsis("t", "v", method="sap1", budget_words=128, shards=request.param)
    engine.build_synopsis("t", "w", method="a0", budget_words=64, shards=request.param)
    return engine


def _queries(count: int, seed: int, narrow: float = 0.5) -> list:
    """Random ranges: fractional, narrow, open and out-of-domain bounds."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        column = ("v", "w")[int(rng.integers(0, 2))]
        span = SPANS[column]
        low, high = sorted(rng.uniform(-0.1 * span, 1.1 * span, 2).tolist())
        if rng.random() < narrow:
            high = low + rng.uniform(0.0, span / 32)
        if rng.random() < 0.1:
            low = None
        if rng.random() < 0.1:
            high = None
        aggregate = AGGREGATES[int(rng.integers(0, 3))]
        queries.append(AggregateQuery("t", column, aggregate, low, high))
    return queries


def reference_estimate(engine, query) -> float:
    entry = engine._synopses[(query.table, query.column)]
    clipped = entry.statistics.clip_range(query.low, query.high)
    if clipped is None:
        return 0.0
    low, high = clipped
    if query.aggregate == "count":
        return entry.count_estimator.estimate(low, high)
    if query.aggregate == "sum":
        return entry.sum_estimator.estimate(low, high)
    count = entry.count_estimator.estimate(low, high)
    if count <= 0:
        return 0.0
    average = entry.sum_estimator.estimate(low, high) / count
    axis = entry.statistics.values_axis
    return min(max(average, float(axis[low])), float(axis[high]))


def reference_exact(engine, query) -> float:
    values = np.asarray(engine.table(query.table).column(query.column))
    mask = np.ones(values.shape, dtype=bool)
    if query.low is not None:
        mask &= values >= query.low
    if query.high is not None:
        mask &= values <= query.high
    count = float(mask.sum())
    total = float(values[mask].astype(np.float64).sum())
    if query.aggregate == "count":
        return count
    if query.aggregate == "sum":
        return total
    return total / count if count else 0.0


def reference_fallback(engine, query) -> float:
    """The uniform model over the column's min, max, row count and total."""
    values = np.asarray(engine.table(query.table).column(query.column), dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    rows, total = float(values.size), float(values.sum())
    low = -math.inf if query.low is None else query.low
    high = math.inf if query.high is None else query.high
    if hi > lo:
        share = min(max((min(high, hi) - max(low, lo)) / (hi - lo), 0.0), 1.0)
    else:
        share = float(low <= lo <= high)
    if query.aggregate == "count":
        return rows * share
    if query.aggregate == "sum":
        return total * share
    mean = min(max(total / rows, max(low, lo)), min(high, hi))
    return mean if share > 0.0 else 0.0


def fresh_words(engine, table: str, column: str) -> int:
    entry = engine._synopses[(table, column)]
    return entry.count_estimator.storage_words() + entry.sum_estimator.storage_words()


def assert_matches_reference(engine, query, result, level="fresh") -> None:
    entry = engine._synopses[(query.table, query.column)]
    assert result.query == query
    assert result.estimate.hex() == reference_estimate(engine, query).hex(), query
    assert result.exact.hex() == reference_exact(engine, query).hex(), query
    assert result.synopsis_name == entry.count_estimator.name
    assert result.synopsis_words == fresh_words(engine, query.table, query.column)
    assert result.degradation == level


class TestReferenceOracle:
    def test_execute_matches_reference(self, engine):
        for query in _queries(300, seed=1):
            result = engine.execute(query, with_exact=True)
            assert_matches_reference(engine, query, result)

    def test_execute_batch_matches_reference(self, engine):
        queries = _queries(600, seed=2)
        results = engine.execute_batch(queries, with_exact=True)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert_matches_reference(engine, query, result)

    def test_batch_query_container_matches_reference(self, engine):
        rng = np.random.default_rng(3)
        lows = rng.uniform(-20, 270, 200)
        highs = lows + rng.uniform(0, 40, 200)
        batch = BatchQuery("t", "v", "avg", lows, highs)
        results = engine.execute_batch(batch, with_exact=True)
        for query, result in zip(batch.queries(), results):
            assert_matches_reference(engine, query, result)

    def test_stale_answers_match_reference(self, engine):
        engine.append_rows(
            "t", {"v": np.arange(0, 256, 3), "w": np.full(86, 40_007)}
        )
        queries = _queries(200, seed=4)
        batch = engine.execute_batch(queries, with_exact=True, on_stale="serve")
        for query, batched in zip(queries, batch):
            single = engine.execute(query, with_exact=True, on_stale="serve")
            assert_matches_reference(engine, query, batched, level="stale")
            assert_matches_reference(engine, query, single, level="stale")

    def test_guaranteed_bound_matches_envelope(self):
        engine = ApproximateQueryEngine()
        engine.register_table(Table("t", {"v": _skewed(4000, 128, 5)}))
        engine.build_synopsis("t", "v", method="a0", budget_words=48)
        entry = engine._synopses[("t", "v")]
        for query in _queries(100, seed=6):
            if query.column != "v" or query.aggregate == "avg":
                continue
            result = engine.execute(query, with_bound=True)
            clipped = entry.statistics.clip_range(query.low, query.high)
            if clipped is None:
                assert result.guaranteed_bound is None
                continue
            envelope, estimator = entry.envelope_for(query.aggregate)
            expected = envelope.bound(estimator, [clipped[0]], [clipped[1]])[0]
            assert result.guaranteed_bound == float(expected)


#: The serving ladder's rungs, each with the policy that reaches it once
#: rows are appended (``fresh`` stays fresh).
RUNGS = [
    ("fresh", None),
    ("stale", SERVE_ANYTHING),
    ("fallback", DegradationPolicy(allow_stale=False)),
    ("exact", DegradationPolicy(allow_stale=False, allow_fallback=False)),
    ("progressive", ANYTIME),
]


def _mixed_blocks(columns: tuple, seed: int, count: int = 6) -> list:
    """16-query blocks over ``columns``, each range asked as COUNT, SUM
    and AVG, shuffled so the aggregates and columns interleave."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        block = []
        while len(block) < 16:
            column = columns[int(rng.integers(0, len(columns)))]
            span = SPANS[column]
            low = float(rng.uniform(-0.1 * span, 1.1 * span))
            high = low + float(rng.uniform(0.0, span / 4))
            if rng.random() < 0.1:
                low = None
            if rng.random() < 0.1:
                high = None
            block.extend(
                AggregateQuery("t", column, aggregate, low, high)
                for aggregate in AGGREGATES
            )
        blocks.append([block[i] for i in rng.permutation(len(block))[:16]])
    return blocks


def audit_windows(engine) -> dict:
    """Every auditor key's (errors, exacts) samples, in recorded order."""
    return {
        key: (list(engine.auditor._errors[key]), list(engine.auditor._exacts[key]))
        for key in engine.auditor.keys()
    }


class TestMixedBlocks:
    """Mixed COUNT/SUM/AVG blocks, answered one column group at a time,
    agree with the reference on every rung of the serving ladder."""

    @pytest.mark.parametrize("columns", [("v",), ("v", "w")], ids=["one", "two"])
    @pytest.mark.parametrize("level, policy", RUNGS, ids=[rung for rung, _ in RUNGS])
    def test_mixed_blocks_match_reference(self, engine, level, policy, columns):
        if level != "fresh":
            engine.append_rows(
                "t", {"v": np.arange(0, 256, 3), "w": np.full(86, 40_007)}
            )
        for block in _mixed_blocks(columns, seed=len(columns)):
            for with_exact in (False, True):
                batch = engine.execute_batch(
                    block, with_exact=with_exact, degradation=policy, audit_rate=1.0
                )
                batch_audits = audit_windows(engine)
                engine.auditor.clear()
                scalar = [
                    engine.execute(
                        query, with_exact=with_exact, degradation=policy, audit_rate=1.0
                    )
                    for query in block
                ]
                assert audit_windows(engine) == batch_audits
                assert bool(batch_audits) == (level in ("fresh", "stale"))
                engine.auditor.clear()
                for query, batched, single in zip(block, batch, scalar):
                    for result in (batched, single):
                        assert result.degradation == level
                        if with_exact:
                            assert result.exact.hex() == reference_exact(engine, query).hex()
                        else:
                            assert result.exact is None
                    if level in ("fresh", "stale"):
                        entry = engine._synopses[("t", query.column)]
                        assert batched.estimate.hex() == reference_estimate(engine, query).hex()
                        assert batched.synopsis_name == entry.count_estimator.name
                        assert batched.synopsis_words == fresh_words(engine, "t", query.column)
                    elif level == "fallback":
                        assert batched.estimate.hex() == reference_fallback(engine, query).hex()
                        assert (batched.synopsis_name, batched.synopsis_words) == (
                            "fallback-uniform",
                            4,
                        )
                    elif level == "exact":
                        assert batched.estimate.hex() == reference_exact(engine, query).hex()
                        assert (batched.synopsis_name, batched.synopsis_words) == (
                            "exact-scan",
                            0,
                        )
                    else:
                        stage = RefinementSession(engine, query).initial()
                        assert batched.estimate.hex() == stage.estimate.hex()
                        assert batched.interval == (stage.lo, stage.hi)
                    assert batched.estimate.hex() == single.estimate.hex()
                    assert batched.interval == single.interval

    def test_one_estimate_pass_per_synopsis_and_one_sort_per_column(
        self, engine, monkeypatch
    ):
        entry = engine._synopses[("t", "v")]
        calls = []
        for estimator in {type(entry.count_estimator), type(entry.sum_estimator)}:
            original = estimator.estimate_many

            def counted(self, lows, highs, original=original):
                calls.append(len(lows))
                return original(self, lows, highs)

            monkeypatch.setattr(estimator, "estimate_many", counted)
        scans = []
        exact_batch = engine._exact_batch

        def counted_scan(*args):
            scans.append(args[1])
            return exact_batch(*args)

        monkeypatch.setattr(engine, "_exact_batch", counted_scan)
        block = [
            AggregateQuery("t", "v", aggregate, low, low + 40.0)
            for low in (10.5, 60.0, 120.0, 200.0)
            for aggregate in AGGREGATES
        ]
        engine.execute_batch(block, with_exact=True)
        assert scans == ["v"]
        assert calls == [8, 8]


class TestAverageWithinRange:
    """An AVG answer lies between its range's smallest and largest value."""

    def test_avg_answers_stay_within_their_range(self, engine):
        queries = [
            AggregateQuery("t", query.column, "avg", query.low, query.high)
            for query in _queries(2000, seed=7, narrow=0.9)
        ]
        for results in (
            engine.execute_batch(queries),
            [engine.execute(query) for query in queries[:300]],
        ):
            for query, result in zip(queries, results):
                entry = engine._synopses[("t", query.column)]
                clipped = entry.statistics.clip_range(query.low, query.high)
                if clipped is None or result.estimate == 0.0:
                    continue
                axis = entry.statistics.values_axis
                assert axis[clipped[0]] <= result.estimate <= axis[clipped[1]], query


class TestExactScans:
    """``exact_scans`` counts one scan per exact answer on every rung."""

    @pytest.mark.parametrize(
        "policy, level",
        [
            (None, "fresh"),
            (SERVE_ANYTHING, "stale"),
            (DegradationPolicy(allow_stale=False), "fallback"),
            (DegradationPolicy(allow_stale=False, allow_fallback=False), "exact"),
            (ANYTIME, "progressive"),
        ],
    )
    def test_one_scan_per_exact_answer(self, policy, level):
        engine = ApproximateQueryEngine()
        engine.register_table(Table("t", {"v": _skewed(2000, 64, 8)}))
        engine.build_synopsis("t", "v", method="sap1", budget_words=32)
        if level != "fresh":
            engine.append_rows("t", {"v": [1, 2, 3]})
        queries = [AggregateQuery("t", "v", "sum", 5, 40)] * 3
        batch = engine.execute_batch(queries, with_exact=True, degradation=policy)
        assert [r.degradation for r in batch] == [level] * 3
        assert engine.stats()["exact_scans"] == 3
        single = engine.execute(queries[0], with_exact=True, degradation=policy)
        assert single.degradation == level
        assert engine.stats()["exact_scans"] == 4
        assert single.exact == batch[0].exact == reference_exact(engine, queries[0])

    def test_exact_rung_scans_once_without_with_exact(self):
        engine = ApproximateQueryEngine()
        engine.register_table(Table("t", {"v": _skewed(2000, 64, 9)}))
        policy = DegradationPolicy(allow_stale=False, allow_fallback=False)
        query = AggregateQuery("t", "v", "count", 0, 30)
        result = engine.execute_batch([query], degradation=policy)[0]
        assert result.degradation == "exact"
        assert result.exact is None
        assert engine.stats()["exact_scans"] == 1


class TestSynopsisWords:
    """The cached word count follows every entry the catalog installs."""

    def test_words_follow_refresh_reallocation_and_compaction(self):
        freq = np.full(1024, 50, dtype=np.int64)
        freq[768:896] = np.arange(128) // 2
        engine = ApproximateQueryEngine()
        engine.register_table(Table("e", {"v": np.repeat(np.arange(1024), freq)}))
        engine.build_synopsis("e", "v", method="a0", budget_words=192, shards=16)
        query = AggregateQuery("e", "v", "count", 100, 900)

        def served_words() -> int:
            expected = fresh_words(engine, "e", "v")
            assert engine.execute(query).synopsis_words == expected
            assert engine.execute_batch([query])[0].synopsis_words == expected
            return expected

        seen = [served_words()]
        engine.append_rows("e", {"v": np.arange(0, 1024, 7)})
        assert engine.refresh_stale() == 1
        seen.append(served_words())
        rng = np.random.default_rng(0)
        lows = rng.integers(768, 890, 400)
        highs = np.minimum(lows + rng.integers(1, 32, 400), 895)
        engine.execute_batch(
            BatchQuery("e", "v", "count", lows.astype(float), highs.astype(float)),
            audit_rate=1.0,
        )
        report = engine.optimize_budgets(
            min_samples=16, max_shard_rebuilds=16, reallocate_columns=False
        )
        assert report["shards_rebuilt"] > 0
        seen.append(served_words())
        assert engine.compact_shards("e", "v", runs=[(0, 3)]) is not None
        seen.append(served_words())
        assert seen[-1] < seen[-2]  # four shards merged: a smaller directory
