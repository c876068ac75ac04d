"""Query execution: one routine per (table, column) group.

Every 1-D synopsis answers ranges vectorised
(:meth:`~repro.queries.estimators.RangeSumEstimator.estimate_many`), so
the engine answers range aggregates in per-column groups.
:meth:`ExecutionMixin.execute_batch` groups its queries by ``(table,
column)``, and
:meth:`~repro.engine.engine.ApproximateQueryEngine.execute` is the
one-query case.  Both run each group through
:meth:`ExecutionMixin._answer_column`: resolve the synopsis down the
serving ladder once, clip the ranges to its domain once, estimate
(one COUNT-synopsis pass over the COUNT and AVG ranges, one
SUM-synopsis pass over the SUM and AVG ranges), account boundary
shards, audit per aggregate, and build the results.  Exact answers
(when requested) come from one sort plus vectorised binary search per
group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.resilience import as_degradation_policy
from repro.engine.sharding import ShardedSynopsis
from repro.errors import InvalidParameterError, InvalidQueryError
from repro.observability.metrics import ERROR_BUCKETS


def _as_bounds(values, fill: float) -> np.ndarray:
    """Bound array with open endpoints (``None``/NaN) replaced by ``fill``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidQueryError("batch bounds must be 1-D arrays")
    if arr.dtype.kind not in "fiu":
        arr = np.array(
            [fill if value is None else float(value) for value in arr.tolist()],
            dtype=np.float64,
        )
    else:
        arr = arr.astype(np.float64)
        arr = np.where(np.isnan(arr), fill, arr)
    return arr


@dataclass(frozen=True)
class BatchQuery:
    """A homogeneous batch of range aggregates over one column.

    ``lows``/``highs`` are parallel arrays of inclusive raw-value
    bounds; ``None``/NaN entries (normalised to ``-inf``/``+inf``) mean
    unbounded on that side.  ``aggregate`` is one of ``count``, ``sum``,
    ``avg`` and applies to every query in the batch.
    """

    table: str
    column: str
    aggregate: str
    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        from repro.engine.engine import SUPPORTED_AGGREGATES

        if self.aggregate not in SUPPORTED_AGGREGATES:
            raise InvalidQueryError(
                f"aggregate must be one of {SUPPORTED_AGGREGATES}, got {self.aggregate!r}"
            )
        lows = _as_bounds(self.lows, -np.inf)
        highs = _as_bounds(self.highs, np.inf)
        if lows.shape != highs.shape:
            raise InvalidQueryError("lows and highs must be parallel arrays")
        inverted = np.nonzero(lows > highs)[0]
        if inverted.size:
            first = int(inverted[0])
            raise InvalidQueryError(
                f"BETWEEN bounds are inverted at position {first}: "
                f"[{lows[first]}, {highs[first]}]"
            )
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    def __len__(self) -> int:
        return int(self.lows.size)

    def queries(self) -> list:
        """The batch as individual :class:`AggregateQuery` objects."""
        from repro.engine.engine import AggregateQuery

        return [
            AggregateQuery(
                table=self.table,
                column=self.column,
                aggregate=self.aggregate,
                low=None if low == -np.inf else low,
                high=None if high == np.inf else high,
            )
            for low, high in zip(self.lows.tolist(), self.highs.tolist())
        ]


def _estimate_clipped(
    entry, aggregates: np.ndarray, low_idx: np.ndarray, high_idx: np.ndarray
) -> np.ndarray:
    """Synopsis estimates over non-empty clipped index ranges of one column.

    ``aggregates`` is parallel to the ranges.  Each synopsis makes at
    most one pass: the COUNT synopsis over the COUNT and AVG ranges, the
    SUM synopsis over the SUM and AVG ranges.  Estimators answer each
    range on its own, so no estimate depends on its batchmates.

    AVG divides the SUM estimate by the COUNT estimate of two
    independently built synopses, so the quotient is clamped to the
    attribute values its range can hold; a non-positive COUNT estimate
    answers 0.0.
    """
    counting, summing = aggregates != "sum", aggregates != "count"
    counts = np.zeros(low_idx.shape, dtype=np.float64)
    totals = np.zeros(low_idx.shape, dtype=np.float64)
    if counting.any():
        counts[counting] = entry.count_estimator.estimate_many(
            low_idx[counting], high_idx[counting]
        )
    if summing.any():
        totals[summing] = entry.sum_estimator.estimate_many(
            low_idx[summing], high_idx[summing]
        )
    estimates = np.where(counting, counts, totals)
    averaged = counting & summing
    if averaged.any():
        estimates[averaged] = 0.0
        positive = averaged & (counts > 0)
        axis = entry.statistics.values_axis
        estimates[positive] = np.clip(
            totals[positive] / counts[positive],
            axis[low_idx[positive]],
            axis[high_idx[positive]],
        )
    return estimates


def _per_aggregate(
    aggregates: np.ndarray, counts: np.ndarray, sums: np.ndarray
) -> np.ndarray:
    """Each query's COUNT, SUM or AVG from parallel exact counts and sums.

    An AVG over no rows is 0.0.
    """
    averages = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return np.where(
        aggregates == "count", counts, np.where(aggregates == "sum", sums, averages)
    )


def _snapshot_exacts(
    statistics, aggregates, low_idx: np.ndarray, high_idx: np.ndarray, valid
) -> np.ndarray:
    """Exact answers from the build-time snapshot over clipped ranges."""
    lows, highs = low_idx[valid], high_idx[valid]
    counts = np.zeros(valid.shape, dtype=np.float64)
    totals = np.zeros(valid.shape, dtype=np.float64)
    if lows.size:
        counts[valid] = statistics.range_totals("count", lows, highs)
        if (aggregates != "count").any():
            totals[valid] = statistics.range_totals("sum", lows, highs)
    return _per_aggregate(aggregates, counts, totals)


class ExecutionMixin:
    """The 1-D query path; mixed into the engine.

    Relies on the host class providing ``self.table(name)``, the 1-D
    synopsis catalog with ``self._resolve_synopsis`` /
    ``self._resolve_with_policy``, and the ``self._stats`` counters
    initialised in ``__init__``.
    """

    def _execution_policy(self, on_stale: str, audit_rate, degradation):
        """Validate the arguments both public executors share.

        Returns ``(policy, audit_rate)``; ``policy`` is ``None`` when
        ``on_stale`` governs staleness instead of a degradation ladder.
        """
        if on_stale not in ("serve", "rebuild", "error"):
            raise InvalidParameterError(
                f"on_stale must be serve, rebuild, or error, got {on_stale!r}"
            )
        rate = float(audit_rate)
        if not 0.0 <= rate <= 1.0:  # NaN fails both comparisons
            raise InvalidParameterError(
                f"audit_rate must be in [0, 1], got {audit_rate!r}"
            )
        return as_degradation_policy(degradation), rate

    def execute_batch(
        self,
        queries,
        *,
        with_exact: bool = False,
        on_stale: str = "serve",
        audit_rate: float = 0.0,
        degradation=None,
    ) -> list:
        """Answer many aggregates at once; results parallel the input.

        ``queries`` is either a :class:`BatchQuery` or any iterable of
        :class:`~repro.engine.engine.AggregateQuery`.  Queries are
        grouped by (table, column) and each group runs the routine
        :meth:`~repro.engine.engine.ApproximateQueryEngine.execute` runs
        for its one query, with at most one vectorised pass per synopsis
        (COUNT and AVG ranges through the COUNT synopsis, SUM and AVG
        ranges through the SUM synopsis); ``with_exact`` computes every
        group's ground truth from a single sorted scan of the column.
        ``on_stale``, ``audit_rate`` and ``degradation`` have ``execute``
        semantics, applied per group: auditing samples each group
        vectorised, records each aggregate under its own
        ``(table, column, aggregate)`` key and never changes the
        returned results, and a ``degradation`` policy resolves each
        *group* down the serving ladder (fresh synopsis -> stale
        synopsis -> fallback estimator -> exact scan), tagging every
        result with its group's serving level.
        """
        from repro.engine.engine import AggregateQuery

        policy, audit_rate = self._execution_policy(on_stale, audit_rate, degradation)
        if isinstance(queries, BatchQuery):
            query_list = queries.queries()
        else:
            query_list = list(queries)
            for query in query_list:
                if not isinstance(query, AggregateQuery):
                    raise InvalidQueryError(
                        "execute_batch takes AggregateQuery items or a BatchQuery, "
                        f"got {type(query).__name__}"
                    )
        start = time.perf_counter()
        results: list = [None] * len(query_list)
        groups: dict[tuple[str, str], list[int]] = {}
        for position, query in enumerate(query_list):
            groups.setdefault((query.table, query.column), []).append(position)
        with self.tracer.span(
            "batch", queries=len(query_list), groups=len(groups)
        ):
            for key, positions in groups.items():
                answers, _ = self._answer_column(
                    key,
                    [query_list[i] for i in positions],
                    with_exact=with_exact,
                    with_bound=False,
                    on_stale=on_stale,
                    policy=policy,
                    audit_rate=audit_rate,
                )
                for position, answer in zip(positions, answers):
                    results[position] = answer
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._stats["batches"] += 1
            self._stats["batch_queries"] += len(query_list)
            self._stats["last_batch_seconds"] = elapsed
            self._stats["last_batch_qps"] = (
                len(query_list) / elapsed if elapsed > 0 else 0.0
            )
            self._stats["total_batch_seconds"] += elapsed
        self.metrics.counter("batch_queries_total").inc(len(query_list))
        self.metrics.histogram("batch_seconds").observe(elapsed)
        return results

    def _answer_column(
        self,
        key: tuple[str, str],
        queries: list,
        *,
        with_exact: bool,
        with_bound: bool,
        on_stale: str,
        policy,
        audit_rate: float,
    ) -> tuple[list, str]:
        """Answer one column's queries; returns ``(results, level)``.

        Resolve the synopsis once (``on_stale``, or ``policy``'s ladder)
        -> answer on the rung reached -> clip every range to the domain
        once -> estimate -> account boundary shards -> audit -> one
        :class:`~repro.engine.engine.QueryResult` per query, in order.
        ``level`` is the rung that served the whole group.
        """
        from repro.engine.engine import QueryResult

        table_name, column_name = key
        if policy is None:
            entry = self._resolve_synopsis(table_name, column_name, on_stale)
            level = "stale" if key in self._stale else "fresh"
        else:
            entry, level = self._resolve_with_policy(table_name, column_name, policy)
        count = len(queries)
        self._record_degraded_serve(level, count)
        self._bump_hits(f"{table_name}.{column_name}", count)
        aggregates = np.array([q.aggregate for q in queries])
        lows = np.array(
            [-np.inf if q.low is None else q.low for q in queries], dtype=np.float64
        )
        highs = np.array(
            [np.inf if q.high is None else q.high for q in queries], dtype=np.float64
        )
        exacts = None
        if with_exact or level == "exact":
            exacts = self._exact_batch(table_name, column_name, aggregates, lows, highs)
            self._bump("exact_scans", count)
        exact_list = exacts.tolist() if with_exact else [None] * count
        if level == "progressive":
            # Interval answers are scalar by nature (each query gets its
            # own refinement chain), so the group loops stage-0 sessions.
            # Late import: serving depends on engine, not vice versa.
            from repro.serving.progressive import initial_answer

            return [
                initial_answer(self, query).as_result(exact=exact)
                for query, exact in zip(queries, exact_list)
            ], level
        bounds = [None] * count
        if entry is None:
            if level == "exact":
                estimates, name, words = exacts, "exact-scan", 0
            else:  # fallback: each aggregate through its uniform model
                estimates = np.zeros(count, dtype=np.float64)
                for aggregate in dict.fromkeys(aggregates.tolist()):
                    members = aggregates == aggregate
                    estimates[members] = self._fallback_estimate_many(
                        table_name, column_name, aggregate, lows[members], highs[members]
                    )
                name, words = "fallback-uniform", 4
        else:
            low_idx, high_idx, valid = entry.statistics.clip_range_many(lows, highs)
            estimates = np.zeros(count, dtype=np.float64)
            if valid.any():
                valid_lows, valid_highs = low_idx[valid], high_idx[valid]
                estimates[valid] = _estimate_clipped(
                    entry, aggregates[valid], valid_lows, valid_highs
                )
                if isinstance(entry.count_estimator, ShardedSynopsis):
                    self._record_sharded_queries(entry, valid_lows, valid_highs)
                for aggregate in ("count", "sum") if with_bound else ():
                    members = valid & (aggregates == aggregate)
                    envelope, estimator = (
                        entry.envelope_for(aggregate) if members.any() else (None, None)
                    )
                    if envelope is not None:
                        values = envelope.bound(
                            estimator, low_idx[members], high_idx[members]
                        )
                        for position, value in zip(
                            np.flatnonzero(members).tolist(), values.tolist()
                        ):
                            bounds[position] = value
            if audit_rate > 0.0:
                self._audit_column(
                    key,
                    entry,
                    aggregates,
                    estimates,
                    exacts,
                    lows,
                    highs,
                    (low_idx, high_idx, valid),
                    audit_rate,
                )
            name, words = entry.count_estimator.name, entry.synopsis_words
        return [
            QueryResult(
                query=query,
                estimate=estimate,
                exact=exact,
                synopsis_name=name,
                synopsis_words=words,
                guaranteed_bound=bound,
                degradation=level,
            )
            for query, estimate, exact, bound in zip(
                queries, estimates.tolist(), exact_list, bounds
            )
        ], level

    def _audit_column(
        self,
        key: tuple[str, str],
        entry,
        aggregates: np.ndarray,
        estimates: np.ndarray,
        exacts: np.ndarray | None,
        lows: np.ndarray,
        highs: np.ndarray,
        clipped: tuple[np.ndarray, np.ndarray, np.ndarray],
        audit_rate: float,
    ) -> None:
        """Audit a sampled subset of one column group; never changes its answers.

        ``clipped`` is the group's ``clip_range_many`` result.  The exact
        side comes from ``exacts`` when the caller asked for them, a live
        scan when the synopsis is stale, and the build-time snapshot
        otherwise.  Each aggregate's samples go to its own
        ``(table, column, aggregate)`` auditor key, in input order.
        """
        table_name, column_name = key
        low_idx, high_idx, valid = clipped
        if audit_rate >= 1.0:
            picked = np.arange(estimates.size)
        else:
            picked = np.flatnonzero(self._audit_rng.random(estimates.size) < audit_rate)
        if not picked.size:
            return
        picked_aggregates = aggregates[picked]
        if exacts is not None:
            audit_exacts = exacts[picked]
        elif key in self._stale:
            audit_exacts = self._exact_batch(
                table_name, column_name, picked_aggregates, lows[picked], highs[picked]
            )
        else:
            audit_exacts = _snapshot_exacts(
                entry.statistics,
                picked_aggregates,
                low_idx[picked],
                high_idx[picked],
                valid[picked],
            )
        error_histogram = self.metrics.histogram(
            "audit_abs_error", buckets=ERROR_BUCKETS
        )
        for aggregate in dict.fromkeys(picked_aggregates.tolist()):
            members = picked_aggregates == aggregate
            rows = picked[members]
            observed = rows[valid[rows]]
            if observed.size:
                self._record_observed(
                    table_name,
                    column_name,
                    aggregate,
                    low_idx[observed],
                    high_idx[observed],
                )
            absolute_errors = self.auditor.record_many(
                (table_name, column_name, aggregate),
                estimates[rows],
                audit_exacts[members],
            )
            self.metrics.counter("audited_total", aggregate=aggregate).inc(rows.size)
            for value in absolute_errors.tolist():
                error_histogram.observe(value)
        self._bump("audited_queries", int(picked.size))

    def _exact_batch(
        self,
        table_name: str,
        column_name: str,
        aggregates: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> np.ndarray:
        """Ground truth for one column group from a single sorted scan."""
        values = np.asarray(self.table(table_name).column(column_name), dtype=np.float64)
        ordered = np.sort(values)
        lo_pos = np.searchsorted(ordered, lows, side="left")
        hi_pos = np.searchsorted(ordered, highs, side="right")
        counts = (hi_pos - lo_pos).astype(np.float64)
        sums = np.zeros_like(counts)
        if (aggregates != "count").any():
            prefix = np.concatenate(([0.0], np.cumsum(ordered)))
            sums = prefix[hi_pos] - prefix[lo_pos]
        return _per_aggregate(aggregates, counts, sums)
