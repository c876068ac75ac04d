"""The approximate query engine: synopsis catalog + executors.

Registers tables, builds per-column synopses under a space budget using
any builder from :mod:`repro.core.builders`, and answers COUNT/SUM/AVG
range-predicate aggregates from the synopses — with an exact scan
executor alongside for ground truth, the way AQUA-style systems validate
their estimates.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.builders import (
    BUILDER_REGISTRY,
    aggregate_shard_predictions,
    build_by_name,
)
from repro.engine.compaction import CompactionPolicy, plan_runs
from repro.engine.optimizer import ObservedWorkload, run_optimization
from repro.engine.sharding import ShardedSynopsis, build_sharded
from repro.engine.batch import BatchQuery, ExecutionMixin  # noqa: F401  (re-exported)
from repro.engine.column import ColumnStatistics
from repro.engine.grouped import GroupedAggregateQuery, GroupedSynopsisMixin, GroupResult
from repro.engine.joint import JointAggregateQuery, JointSynopsisMixin
from repro.engine.resilience import (
    BREAKER_CLOSED,
    CircuitBreaker,
    Deadline,
    DegradationPolicy,
    FallbackChain,
    FallbackStage,
    as_fallback_chain,
    deadline_scope,
    jittered_backoff,
)
from repro.engine.table import Table
from repro.errors import (
    BuildFailedError,
    BuildTimeoutError,
    InvalidParameterError,
    InvalidQueryError,
)
from repro.observability import ErrorAuditor, MetricsRegistry, SystemClock, TraceRecorder
from repro.queries.estimators import RangeSumEstimator

#: Aggregates the engine understands.
SUPPORTED_AGGREGATES = ("count", "sum", "avg")


@dataclass(frozen=True)
class AggregateQuery:
    """``SELECT <agg> FROM <table> WHERE <column> BETWEEN <low> AND <high>``.

    ``low``/``high`` are inclusive raw attribute values; ``None`` means
    unbounded on that side.  ``agg`` is one of ``count``, ``sum``,
    ``avg`` (of the predicate column over the qualifying rows).
    """

    table: str
    column: str
    aggregate: str
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.aggregate not in SUPPORTED_AGGREGATES:
            raise InvalidQueryError(
                f"aggregate must be one of {SUPPORTED_AGGREGATES}, got {self.aggregate!r}"
            )
        if self.low is not None and self.high is not None and self.low > self.high:
            raise InvalidQueryError(
                f"BETWEEN bounds are inverted: [{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class QueryResult:
    """An engine answer with provenance.

    ``guaranteed_bound`` is a deterministic bound on the absolute error
    (available for COUNT/SUM when the synopsis is an average histogram
    and the caller asked for it); the true answer always lies in
    ``estimate +- guaranteed_bound``.

    ``degradation`` records which rung of the serving ladder produced
    the answer: ``"fresh"`` (up-to-date synopsis), ``"stale"`` (synopsis
    predating appends), ``"fallback"`` (uniform model over frozen column
    statistics), ``"progressive"`` (synopsis answer carrying a
    confidence interval, refinable by the serving tier), or ``"exact"``
    (base-table scan) — see
    :class:`repro.engine.resilience.DegradationPolicy`.

    ``interval``/``confidence`` are set only on progressive answers: the
    claimed-``confidence`` interval ``[lo, hi]`` around the estimate,
    derived from the frozen builder error model (see
    :mod:`repro.serving.progressive`).
    """

    query: AggregateQuery
    estimate: float
    exact: float | None
    synopsis_name: str
    synopsis_words: int
    guaranteed_bound: float | None = None
    degradation: str = "fresh"
    interval: tuple[float, float] | None = None
    confidence: float | None = None

    @property
    def absolute_error(self) -> float | None:
        if self.exact is None:
            return None
        return abs(self.estimate - self.exact)

    @property
    def relative_error(self) -> float | None:
        if self.exact is None:
            return None
        return self.absolute_error / max(abs(self.exact), 1.0)


@dataclass(frozen=True)
class QuantileQuery:
    """``SELECT QUANTILE(col, q)|MEDIAN(col) FROM t [WHERE col BETWEEN ..]``."""

    table: str
    column: str
    q: float
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise InvalidQueryError(f"quantile must be in [0, 1], got {self.q}")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise InvalidQueryError(
                f"BETWEEN bounds are inverted: [{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class QuantileResult:
    """A quantile answer with provenance."""

    table: str
    column: str
    q: float
    estimate: float
    exact: float | None
    synopsis_name: str

    @property
    def absolute_error(self) -> float | None:
        if self.exact is None:
            return None
        return abs(self.estimate - self.exact)


@dataclass(frozen=True)
class _ColumnSynopses:
    statistics: ColumnStatistics
    count_estimator: RangeSumEstimator
    sum_estimator: RangeSumEstimator
    method: str
    budget_words: int
    builder_kwargs: dict
    #: Builder-reported error model per aggregate ("count"/"sum"),
    #: frozen at build time so later corruption or drift is detectable;
    #: None for catalogs predating prediction (e.g. loaded from disk).
    predicted: dict | None = None
    #: Number of contiguous domain shards the estimators were built
    #: with (1 = monolithic); recorded so rebuilds keep the layout.
    shards: int = 1
    #: True when this engine computed ``statistics`` from the table's
    #: first ``row_count`` rows, so a refresh may add just the appended
    #: tail; False for entries restored from disk, which rescan.
    stats_from_table: bool = False

    @cached_property
    def synopsis_words(self) -> int:
        """Storage of both synopses, summed once per entry.

        Entries are immutable (every rebuild, refresh, compaction or
        reallocation installs a new one), so the sum over a sharded
        synopsis's shards never goes stale.
        """
        return self.count_estimator.storage_words() + self.sum_estimator.storage_words()

    def envelope_for(self, aggregate: str):
        """Lazily-computed error envelope, if the synopsis supports it."""
        from repro.core.histogram import AverageHistogram
        from repro.queries.bounds import compute_error_envelope

        estimator = (
            self.count_estimator if aggregate == "count" else self.sum_estimator
        )
        if not isinstance(estimator, AverageHistogram):
            return None, None
        frequencies = (
            self.statistics.count_frequencies
            if aggregate == "count"
            else self.statistics.sum_frequencies
        )
        return compute_error_envelope(estimator, frequencies), estimator


def _build_column_entry(
    values,
    method: str,
    budget_words: int,
    *,
    predict_errors: bool = True,
    shards: int = 1,
    on_shard_built=None,
    **builder_kwargs,
) -> _ColumnSynopses:
    """Build one column's COUNT and SUM synopses from its raw values.

    Pure function of its inputs.  ``predict_errors`` additionally
    evaluates each synopsis's SSE-per-query error model (frozen into the
    entry for the online auditor; sampled on large domains, so the cost
    stays bounded).

    ``shards > 1`` partitions the column's domain into that many
    contiguous shards (clamped to the domain size) and builds one
    independent synopsis per shard — see
    :class:`repro.engine.sharding.ShardedSynopsis`;
    ``on_shard_built(shard, seconds)`` observes each shard's build time.
    """
    from repro.core.builders import predict_sse_per_query

    statistics = ColumnStatistics.from_values(values)
    if method == "auto":
        from repro.engine.advisor import best_method

        method = best_method(statistics.count_frequencies, max(budget_words // 2, 4))
    if method not in BUILDER_REGISTRY:
        raise InvalidParameterError(
            f"unknown synopsis method {method!r}; available: "
            f"{sorted(BUILDER_REGISTRY)} or 'auto'"
        )
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    shards = min(int(shards), statistics.domain_size)
    half = max(budget_words // 2, BUILDER_REGISTRY[method].words_per_unit)
    predicted = None
    if shards > 1:
        count_est = build_sharded(
            method,
            statistics.count_frequencies,
            half,
            shards,
            predict=predict_errors,
            on_shard_built=on_shard_built,
            **builder_kwargs,
        )
        sum_est = build_sharded(
            method,
            statistics.sum_frequencies,
            half,
            shards,
            predict=predict_errors,
            on_shard_built=on_shard_built,
            **builder_kwargs,
        )
        if predict_errors:
            predicted = {
                "count": aggregate_shard_predictions(
                    count_est.shard_predictions, np.diff(count_est.starts)
                ),
                "sum": aggregate_shard_predictions(
                    sum_est.shard_predictions, np.diff(sum_est.starts)
                ),
            }
    else:
        count_est = build_by_name(
            method, statistics.count_frequencies, half, **builder_kwargs
        )
        sum_est = build_by_name(
            method, statistics.sum_frequencies, half, **builder_kwargs
        )
        if predict_errors:
            predicted = {
                "count": predict_sse_per_query(count_est, statistics.count_frequencies),
                "sum": predict_sse_per_query(sum_est, statistics.sum_frequencies),
            }
    return _ColumnSynopses(
        statistics=statistics,
        count_estimator=count_est,
        sum_estimator=sum_est,
        method=method,
        budget_words=budget_words,
        builder_kwargs=dict(builder_kwargs),
        predicted=predicted,
        shards=shards,
        stats_from_table=True,
    )


def _build_entry_resilient(
    values,
    stages,
    budget_words,
    *,
    predict_errors,
    shards,
    deadline_seconds,
    clock,
    sleep,
    on_shard_built=None,
    on_event=None,
    backoff_rng=None,
    backoff_jitter=0.5,
):
    """Walk a fallback ladder building one column entry.

    ``stages`` is a non-empty list of
    :class:`~repro.engine.resilience.FallbackStage` rungs (the primary
    first).  Each rung gets a fresh deadline of ``deadline_seconds``
    (``None`` = unbounded) and its own retry-with-backoff budget;
    timeouts skip straight to the next rung because a deterministic DP
    that blew its budget once will blow it again.  Returns
    ``(entry, outcome)`` where ``outcome`` records the serving rung and
    every failure along the way; raises
    :class:`~repro.errors.BuildFailedError` when the ladder is
    exhausted.
    """

    def _notify(kind: str, **attrs) -> None:
        if on_event is not None:
            on_event(kind, **attrs)

    failures: dict[str, Exception] = {}
    attempts_total = 0
    for rung, stage in enumerate(stages):
        attempt = 0
        while True:
            attempts_total += 1
            deadline = (
                Deadline(deadline_seconds, clock=clock)
                if deadline_seconds is not None
                else None
            )
            try:
                with deadline_scope(deadline):
                    entry = _build_column_entry(
                        values,
                        stage.method,
                        budget_words,
                        predict_errors=predict_errors,
                        shards=shards,
                        on_shard_built=on_shard_built,
                        **stage.builder_kwargs,
                    )
            except BuildTimeoutError as error:
                failures[f"rung{rung}:{stage.method}"] = error
                _notify("timeout", method=stage.method, rung=rung)
                break
            except Exception as error:  # noqa: BLE001 — any fault degrades
                failures[f"rung{rung}:{stage.method}@{attempt}"] = error
                _notify("failure", method=stage.method, rung=rung)
                if attempt >= stage.retries:
                    break
                _notify("retry", method=stage.method, rung=rung)
                if stage.backoff_seconds > 0:
                    sleep(
                        jittered_backoff(
                            stage.backoff_seconds,
                            attempt,
                            rng=backoff_rng,
                            jitter=backoff_jitter,
                        )
                    )
                attempt += 1
                continue
            if rung > 0:
                _notify("fallback", method=stage.method, rung=rung)
            outcome = {
                "method": entry.method,
                "requested": stages[0].method,
                "rung": rung,
                "attempts": attempts_total,
                "failures": failures,
            }
            return entry, outcome
    if len(failures) == 1:
        # A one-attempt ladder (no chain, no retries) keeps its original
        # exception type — existing callers and tests rely on it, and a
        # BuildTimeoutError must surface as itself for deadline callers.
        raise next(iter(failures.values()))
    summary = "; ".join(
        f"{key}: {type(error).__name__}: {error}" for key, error in failures.items()
    )
    raise BuildFailedError(
        f"all {len(stages)} fallback rung(s) failed ({summary})", failures=failures
    )


class ApproximateQueryEngine(ExecutionMixin, JointSynopsisMixin, GroupedSynopsisMixin):
    """Catalog of tables and per-column synopses answering range aggregates.

    Single-column range aggregates (COUNT/SUM/AVG) answer from 1-D
    synopses through one per-group routine behind :meth:`execute` and
    :meth:`execute_batch` (:class:`repro.engine.batch.ExecutionMixin`);
    two-column conjunctive predicates answer from 2-D joint synopses via
    :class:`repro.engine.joint.JointSynopsisMixin`.
    """

    def __init__(
        self,
        *,
        clock=None,
        trace_capacity: int = 2048,
        audit_window: int = 4096,
        audit_seed: int = 0,
        workload_capacity: int = 512,
        predict_errors: bool = True,
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 60.0,
        default_fallback=None,
        default_deadline_ms: float | None = None,
        backoff_jitter: float = 0.5,
        backoff_seed: int | None = None,
    ) -> None:
        self._tables: dict[str, Table] = {}
        self._synopses: dict[tuple[str, str], _ColumnSynopses] = {}
        self._stale: set[tuple[str, str]] = set()
        #: Dirty shard ids per sharded synopsis key; ``None`` means the
        #: domain itself changed (every shard must rebuild).  Only stale
        #: sharded entries have a row here.
        self._dirty_shards: dict[tuple[str, str], set[int] | None] = {}
        #: Per-shard append-touch counters per sharded synopsis key,
        #: reset by full builds and compactions; the compaction policy
        #: (:func:`repro.engine.compaction.plan_runs`) reads them to
        #: find cold runs worth merging.
        self._shard_heat: dict[tuple[str, str], dict[int, int]] = {}
        self._joint_synopses: dict[tuple[str, str, str], object] = {}
        self._stale_joint: set[tuple[str, str, str]] = set()
        self._grouped_synopses: dict[tuple[str, str, str], dict] = {}
        self._grouped_configs: dict[tuple[str, str, str], dict] = {}
        self._stale_grouped: set[tuple[str, str, str]] = set()
        self.clock = clock if clock is not None else SystemClock()
        self.tracer = TraceRecorder(self.clock, capacity=trace_capacity)
        self.metrics = MetricsRegistry()
        self.auditor = ErrorAuditor(window=audit_window)
        #: Reservoir-sampled index-space ranges of audited queries, the
        #: signal :meth:`optimize_budgets` reallocates budgets toward.
        self.observed_workload = ObservedWorkload(
            capacity=workload_capacity, seed=audit_seed
        )
        self.predict_errors = bool(predict_errors)
        self._audit_rng = np.random.default_rng(audit_seed)
        #: Per-synopsis lifecycle: built_at, build_seconds, stale_since.
        self._build_meta: dict[tuple[str, str], dict] = {}
        #: Pinned error models for entries lacking a build-time one.
        self._prediction_cache: dict[tuple, object] = {}
        #: Session-wide defaults for the resilient build paths; per-call
        #: ``fallback=`` / ``deadline_ms=`` arguments override them.
        self.default_fallback = as_fallback_chain(default_fallback)
        self.default_deadline_ms = default_deadline_ms
        #: One circuit breaker per builder method, lazily created by
        #: :meth:`refresh_stale` (see :meth:`breaker_states`).
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown_seconds = float(breaker_cooldown_seconds)
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Cached uniform models backing the "fallback" degradation
        #: rung: (table, column) -> dict(lo, hi, rows, total).
        self._fallback_models: dict[tuple[str, str], dict] = {}
        #: Keys quarantined by :func:`repro.engine.persistence.load_catalog`
        #: after checksum/deserialisation failures (served as stale
        #: substitutes until rebuilt).
        self._quarantined: set[tuple[str, str]] = set()
        #: Injection point for retry backoff sleeps (tests use a no-op).
        self._sleep = time.sleep
        #: Jittered retry schedule: deterministic doubling synchronizes
        #: retries across workers sharing a fault, so backoff sleeps are
        #: scaled by a seeded uniform factor (see
        #: :func:`repro.engine.resilience.jittered_backoff`).
        self._backoff_jitter = float(backoff_jitter)
        self._backoff_rng = random.Random(backoff_seed)
        #: Serialises every ``_stats`` read-modify-write so concurrent
        #: ``execute`` / ``execute_batch`` / ``stats()`` calls (the
        #: serving tier runs them from different threads) neither lose
        #: increments nor crash a snapshot mid-mutation.
        self._stats_lock = threading.RLock()
        #: Monotonic per-table data versions, bumped by
        #: :meth:`register_table` and :meth:`append_rows`; cache
        #: consistency tokens (see :class:`repro.serving.CatalogView`)
        #: embed them so no answer computed before a data change can be
        #: served after it.
        self._table_versions: dict[str, int] = {}
        #: Monotonic ids stamped onto ``_build_meta`` entries by
        #: :meth:`_record_build`; a rebuild changes the id, so cached
        #: answers from the previous synopsis stop validating.
        self._build_seq = itertools.count(1)
        self._stats: dict = self._fresh_stats()

    @staticmethod
    def _fresh_stats() -> dict:
        return {
            "queries": 0,
            "batch_queries": 0,
            "batches": 0,
            "joint_queries": 0,
            "grouped_queries": 0,
            "exact_scans": 0,
            "stale_served": 0,
            "progressive_served": 0,
            "rebuilds": 0,
            "dirty_shards_rebuilt": 0,
            "compactions": 0,
            "compacted_shards": 0,
            "optimizer_runs": 0,
            "optimizer_shards_rebuilt": 0,
            "optimizer_column_rebuilds": 0,
            "audited_queries": 0,
            "drift_flags": 0,
            "build_timeouts": 0,
            "build_failures": 0,
            "build_retries": 0,
            "fallback_builds": 0,
            "degraded_serves": 0,
            "breaker_skips": 0,
            "synopsis_hits": {},
            "last_batch_seconds": 0.0,
            "last_batch_qps": 0.0,
            "total_batch_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Counter plumbing (thread-safe)
    # ------------------------------------------------------------------
    def _bump(self, key: str, amount=1) -> None:
        """Increment one execution counter under the stats lock."""
        with self._stats_lock:
            self._stats[key] += amount

    def _set_stat(self, key: str, value) -> None:
        with self._stats_lock:
            self._stats[key] = value

    def _bump_hits(self, hit_key: str, amount: int = 1) -> None:
        with self._stats_lock:
            hits = self._stats["synopsis_hits"]
            hits[hit_key] = hits.get(hit_key, 0) + amount

    def _invalidate_predictions(self, key: tuple[str, str]) -> None:
        """Drop every pinned error model for one synopsis.

        The cache is keyed ``((table, column), aggregate)``; clearing by
        prefix removes *all* aggregates — not just the literal
        ``("count", "sum")`` pair — so a new aggregate kind (quantile,
        say) pinned for ``key`` can never survive a rebuild or table
        replacement and serve a stale prediction.
        """
        for cache_key in [ck for ck in self._prediction_cache if ck[0] == key]:
            del self._prediction_cache[cache_key]

    def _bump_table_version(self, table_name: str) -> None:
        self._table_versions[table_name] = (
            self._table_versions.get(table_name, 0) + 1
        )

    def table_version(self, table_name: str) -> int:
        """Monotonic data version of one table.

        Starts at 0 for never-registered names, and increases on every
        :meth:`register_table` and :meth:`append_rows`.  Answer caches
        compare versions instead of subscribing to invalidation events:
        any answer recorded under an older version is unservable.
        """
        return self._table_versions.get(table_name, 0)

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register_table(self, table: Table) -> None:
        """Add (or replace) a table; drops its previous synopses.

        Every kind of synopsis for the table is dropped — 1-D, joint,
        and grouped — since all of them summarise the replaced data.
        """
        self._tables[table.name] = table
        self._bump_table_version(table.name)
        for key in [key for key in self._fallback_models if key[0] == table.name]:
            del self._fallback_models[key]
        for key in [key for key in self._synopses if key[0] == table.name]:
            del self._synopses[key]
            self._stale.discard(key)
            self._dirty_shards.pop(key, None)
            self._build_meta.pop(key, None)
            self._invalidate_predictions(key)
        for key in [key for key in self._joint_synopses if key[0] == table.name]:
            del self._joint_synopses[key]
            self._stale_joint.discard(key)
        for key in [key for key in self._grouped_synopses if key[0] == table.name]:
            del self._grouped_synopses[key]
            self._grouped_configs.pop(key, None)
            self._stale_grouped.discard(key)

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise InvalidQueryError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return self._tables[name]

    def _resolve_build_policy(self, fallback, deadline_ms):
        """Per-call fallback/deadline arguments, defaulted from the engine."""
        chain = as_fallback_chain(fallback) if fallback is not None else self.default_fallback
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if not deadline_ms > 0:
                raise InvalidParameterError(
                    f"deadline_ms must be positive, got {deadline_ms!r}"
                )
        return chain, deadline_ms

    @staticmethod
    def _ladder_stages(method: str, builder_kwargs: dict, chain: FallbackChain | None):
        """The full build ladder: the primary rung, then the chain's.

        The primary method name is validated here so a typo fails fast
        instead of being "recovered" by the fallback chain (config
        errors are not runtime faults).
        """
        if method != "auto" and method not in BUILDER_REGISTRY:
            raise InvalidParameterError(
                f"unknown synopsis method {method!r}; available: "
                f"{sorted(BUILDER_REGISTRY)} or 'auto'"
            )
        primary = FallbackStage(method=method, builder_kwargs=dict(builder_kwargs))
        return [primary] + (list(chain.stages) if chain is not None else [])

    def _observe_build_event(self, kind: str, *, method: str, rung: int) -> None:
        """Fold a ladder event from a build into the metrics; counter/stat
        mutation goes through the stats lock."""
        if kind == "timeout":
            self._bump("build_timeouts")
            self.metrics.counter("build_timeouts_total", method=method).inc()
        elif kind == "failure":
            self._bump("build_failures")
            self.metrics.counter("build_failures_total", method=method).inc()
        elif kind == "retry":
            self._bump("build_retries")
            self.metrics.counter("build_retries_total", method=method).inc()
        elif kind == "fallback":
            self._bump("fallback_builds")
            self.metrics.counter("fallback_builds_total", method=method).inc()

    def build_synopsis(
        self,
        table_name: str,
        column_name: str,
        *,
        method: str = "sap1",
        budget_words: int = 64,
        shards: int = 1,
        fallback=None,
        deadline_ms: float | None = None,
        **builder_kwargs,
    ) -> None:
        """Build COUNT and SUM synopses for one column.

        The word budget is split evenly between the count and sum
        frequency vectors (each aggregate needs its own synopsis; AVG is
        derived as SUM/COUNT).

        ``shards > 1`` builds a :class:`~repro.engine.sharding.ShardedSynopsis`
        per aggregate: the domain is cut into that many contiguous
        shards (clamped to the domain size), each shard gets its own
        synopsis with a mass-proportional slice of the budget (SAP0,
        SAP1 and A0 solve every shard in one stacked DP pass), and later
        appends dirty only the shards they touch (see
        :meth:`append_rows` / :meth:`refresh_stale`).

        ``deadline_ms`` bounds each build attempt: the DP inner loops
        poll the deadline cooperatively and raise
        :class:`~repro.errors.BuildTimeoutError` when it expires.
        ``fallback`` names the rungs tried *after* the primary
        ``method`` fails or times out (a :class:`FallbackChain`, a spec
        string like ``"a0 -> naive"``, or a list of methods).  Every
        rung gets the same word budget, so a fallback build is
        bit-identical to building that method directly — including its
        frozen :class:`~repro.core.builders.ErrorPrediction`.  With a
        ladder, exhaustion raises
        :class:`~repro.errors.BuildFailedError` carrying every rung's
        failure; without one, the primary's exception propagates
        unchanged.
        """
        table = self.table(table_name)
        chain, deadline_ms = self._resolve_build_policy(fallback, deadline_ms)
        stages = self._ladder_stages(method, builder_kwargs, chain)

        def _observe_shard(shard: int, seconds: float) -> None:
            self.metrics.histogram("shard_build_seconds").observe(seconds)

        with self.tracer.span(
            "build",
            table=table_name,
            column=column_name,
            method=method,
            budget_words=budget_words,
            shards=shards,
        ) as span:
            entry, outcome = _build_entry_resilient(
                table.column(column_name),
                stages,
                budget_words,
                predict_errors=self.predict_errors,
                shards=shards,
                deadline_seconds=(
                    deadline_ms / 1000.0 if deadline_ms is not None else None
                ),
                clock=None,
                sleep=self._sleep,
                on_shard_built=_observe_shard if shards > 1 else None,
                on_event=self._observe_build_event,
                backoff_rng=self._backoff_rng,
                backoff_jitter=self._backoff_jitter,
            )
            span.set(
                resolved_method=entry.method,
                rung=outcome["rung"],
                attempts=outcome["attempts"],
            )
        elapsed = span.duration or 0.0
        key = (table_name, column_name)
        self._synopses[key] = entry
        self._stale.discard(key)
        self._dirty_shards.pop(key, None)
        self._shard_heat.pop(key, None)
        self._quarantined.discard(key)
        self._invalidate_predictions(key)
        self._observe_shard_tree(key, entry.count_estimator)
        self._record_build(
            key, entry.method, elapsed, requested=method, rung=outcome["rung"]
        )

    def _observe_shard_tree(self, key: tuple[str, str], estimator) -> None:
        """Export one sharded synopsis's dyadic-tree depth as a gauge."""
        if isinstance(estimator, ShardedSynopsis):
            self.metrics.gauge(
                "shard_tree_depth", table=key[0], column=key[1]
            ).set(estimator.tree_depth)

    def _record_build(
        self,
        key: tuple[str, str],
        method: str,
        seconds: float,
        *,
        requested: str | None = None,
        rung: int = 0,
    ) -> None:
        self._build_meta[key] = {
            "built_at": self.clock.now(),
            "build_seconds": seconds,
            "stale_since": None,
            "requested_method": requested if requested is not None else method,
            "served_method": method,
            "rung": rung,
            "build_id": next(self._build_seq),
        }
        self.metrics.counter("builds_total", method=method).inc()
        self.metrics.histogram("build_seconds").observe(seconds)

    def build_all_synopses(
        self,
        *,
        method: str = "sap1",
        total_budget_words: int = 512,
        shards: int = 1,
        fallback=None,
        deadline_ms: float | None = None,
        **builder_kwargs,
    ) -> None:
        """Build synopses for every column of every table, splitting a
        global word budget evenly across columns (a simple catalog
        policy; callers needing weighted budgets use
        :meth:`build_synopsis` per column).  Each column goes through
        :meth:`build_synopsis`, so the catalog, the metrics and the
        spans are those of per-column calls.

        Failures are isolated per column: one column's
        builder blowing up (after its ``fallback`` ladder, if any, is
        exhausted) never discards another column's completed synopsis.
        Every successful entry is installed first, then a single
        :class:`~repro.errors.BuildFailedError` is raised whose
        ``failures`` dict maps ``"table.column"`` to that column's
        exception.
        """
        columns = [
            (table.name, column)
            for table in self._tables.values()
            for column in table.column_names()
        ]
        if not columns:
            return
        chain, deadline_ms = self._resolve_build_policy(fallback, deadline_ms)
        # An unknown method fails the whole call before any column builds.
        self._ladder_stages(method, builder_kwargs, chain)
        per_column = max(total_budget_words // len(columns), 4)
        failures: dict[str, Exception] = {}
        with self.tracer.span(
            "build_all", columns=len(columns), method=method
        ) as span:
            for table_name, column_name in columns:
                try:
                    self.build_synopsis(
                        table_name,
                        column_name,
                        method=method,
                        budget_words=per_column,
                        shards=shards,
                        fallback=chain,
                        deadline_ms=deadline_ms,
                        **builder_kwargs,
                    )
                except Exception as error:  # noqa: BLE001 — isolate per column
                    failures[f"{table_name}.{column_name}"] = error
            span.set(failed_columns=len(failures))
        if failures:
            summary = "; ".join(
                f"{name}: {type(error).__name__}: {error}"
                for name, error in sorted(failures.items())
            )
            raise BuildFailedError(
                f"{len(failures)}/{len(columns)} column build(s) failed ({summary})",
                failures=failures,
            )

    def synopsis_catalog(self) -> list[dict]:
        """One row per built synopsis: location, method, true storage."""
        return [
            {
                "table": table,
                "column": column,
                "method": entry.method,
                "count_words": entry.count_estimator.storage_words(),
                "sum_words": entry.sum_estimator.storage_words(),
                "domain_size": entry.statistics.domain_size,
                "shards": entry.shards,
            }
            for (table, column), entry in sorted(self._synopses.items())
        ]

    # ------------------------------------------------------------------
    # Data evolution
    # ------------------------------------------------------------------
    def append_rows(self, table_name: str, rows: dict) -> None:
        """Append rows to a table; *all* its synopses become *stale*.

        Staleness covers the 1-D, joint, and grouped synopses of the
        table alike — each summarises the pre-append data.  Stale
        synopses still answer; the execute paths take an ``on_stale``
        policy and :meth:`refresh_stale` rebuilds them with their
        original method and budget.

        Sharded synopses additionally record *which* shards the new
        values land in: only those shards are dirty, and
        :meth:`refresh_stale` rebuilds just them.  Values outside the
        synopsis's domain (or new distinct values on a rank-layout
        column) change the domain itself, so every shard is dirtied.
        """
        table = self.table(table_name)
        self._tables[table_name] = table.with_appended(rows)
        self._bump_table_version(table_name)
        for key in [key for key in self._fallback_models if key[0] == table_name]:
            del self._fallback_models[key]
        now = self.clock.now()
        self.metrics.counter("appends_total").inc()
        for key, entry in self._synopses.items():
            if key[0] == table_name:
                self._stale.add(key)
                meta = self._build_meta.get(key)
                if meta is not None and meta.get("stale_since") is None:
                    meta["stale_since"] = now
                if isinstance(entry.count_estimator, ShardedSynopsis):
                    current = self._dirty_shards.get(key, set())
                    touched = entry.count_estimator.touched_shards(
                        entry.statistics.values_axis, rows[key[1]]
                    )
                    if current is not None:
                        self._dirty_shards[key] = (
                            None if touched is None else current | touched
                        )
                    heat = self._shard_heat.setdefault(key, {})
                    hot = (
                        range(entry.count_estimator.num_shards)
                        if touched is None
                        else touched
                    )
                    for shard in hot:
                        heat[shard] = heat.get(shard, 0) + 1
        for key in self._joint_synopses:
            if key[0] == table_name:
                self._stale_joint.add(key)
        for key in self._grouped_synopses:
            if key[0] == table_name:
                self._stale_grouped.add(key)

    def stale_synopses(self) -> list[tuple[str, str]]:
        """The (table, column) pairs whose 1-D synopses predate appends.

        Joint and grouped staleness is reported by
        :meth:`stale_joint_synopses` / :meth:`stale_grouped_synopses`.
        """
        return sorted(self._stale)

    def dirty_shards(self) -> dict[str, list[int] | None]:
        """Dirty shard ids per stale *sharded* synopsis.

        Keys are ``"table.column"``; ``None`` means the appended values
        changed the domain itself, so every shard must rebuild.  Stale
        monolithic synopses do not appear here.

        Safe against concurrent appends/refreshes: the mapping is
        snapshotted atomically (a C-level copy under the GIL) before the
        Python-level loop walks it.
        """
        return {
            f"{key[0]}.{key[1]}": (None if shards is None else sorted(shards))
            for key, shards in list(self._dirty_shards.items())
        }

    def shard_heat(self) -> dict[str, list[int]]:
        """Per-shard append-touch counters for every sharded synopsis.

        Keys are ``"table.column"``; entry ``i`` counts how many
        :meth:`append_rows` calls landed values in shard ``i`` since its
        last full build or compaction.  The compaction policy treats
        low-heat shards as cold and merges runs of them (see
        :meth:`compact_shards`).
        """
        out: dict[str, list[int]] = {}
        # Snapshot before the Python-level walk: compactions swap
        # entries concurrently with serve-plane reads.
        for key, entry in list(self._synopses.items()):
            if isinstance(entry.count_estimator, ShardedSynopsis):
                heat = self._shard_heat.get(key, {})
                out[f"{key[0]}.{key[1]}"] = [
                    heat.get(shard, 0)
                    for shard in range(entry.count_estimator.num_shards)
                ]
        return out

    def compact_shards(
        self,
        table_name: str,
        column_name: str,
        *,
        policy: CompactionPolicy | None = None,
        runs=None,
    ) -> dict | None:
        """Merge cold shard runs of one sharded synopsis in place.

        ``runs`` gives explicit inclusive shard-id runs to merge;
        otherwise :func:`repro.engine.compaction.plan_runs` selects cold
        runs from the heat counters under ``policy`` (default
        :class:`~repro.engine.compaction.CompactionPolicy`).  Both
        aggregates' synopses are rebuilt over the merged slices of the
        entry's *frozen* frequency vectors — compaction re-summarises
        the same snapshot the synopsis already answers for, so it
        neither loses nor gains staleness — with pooled word budgets
        (:func:`repro.core.builders.merge_shard_budgets`) and swapped in
        copy-on-write.  Dirty-shard ids are remapped onto the post-merge
        geometry, ``stale_since`` is preserved for entries that were
        already stale, and :meth:`_record_build` bumps the entry's build
        id so the serving tier's answer-cache tokens stop validating:
        no answer computed against the pre-compaction synopsis can ever
        be served as fresh afterwards.

        Returns a report dict, or ``None`` when no runs qualify.
        """
        key = (table_name, column_name)
        if key not in self._synopses:
            raise InvalidQueryError(
                f"no synopses built for {table_name}.{column_name}"
            )
        entry = self._synopses[key]
        if not isinstance(entry.count_estimator, ShardedSynopsis):
            raise InvalidParameterError(
                f"{table_name}.{column_name} is not sharded; nothing to compact"
            )
        synopsis = entry.count_estimator
        if runs is None:
            policy = policy if policy is not None else CompactionPolicy()
            heat = self._shard_heat.get(key, {})
            runs = plan_runs(
                [heat.get(shard, 0) for shard in range(synopsis.num_shards)],
                policy,
            )
        runs = [(int(first), int(last)) for first, last in runs]
        if not runs:
            return None
        merged = sum(last - first for first, last in runs)

        def _observe_shard(shard: int, seconds: float) -> None:
            self.metrics.histogram("shard_build_seconds").observe(seconds)

        with self.tracer.span(
            "compact",
            table=table_name,
            column=column_name,
            runs=len(runs),
            shards_before=synopsis.num_shards,
        ) as span:
            count_est = synopsis.with_compacted_runs(
                runs,
                entry.statistics.count_frequencies,
                predict=self.predict_errors,
                on_shard_built=_observe_shard,
                **entry.builder_kwargs,
            )
            sum_est = entry.sum_estimator.with_compacted_runs(
                runs,
                entry.statistics.sum_frequencies,
                predict=self.predict_errors,
                on_shard_built=_observe_shard,
                **entry.builder_kwargs,
            )
            span.set(
                shards_after=count_est.num_shards,
                generation=count_est.compaction_generation,
            )
        predicted = None
        if self.predict_errors:
            predicted = {
                "count": aggregate_shard_predictions(
                    count_est.shard_predictions, np.diff(count_est.starts)
                ),
                "sum": aggregate_shard_predictions(
                    sum_est.shard_predictions, np.diff(sum_est.starts)
                ),
            }
        self._synopses[key] = replace(
            entry,
            count_estimator=count_est,
            sum_estimator=sum_est,
            predicted=predicted,
            shards=count_est.num_shards,
        )
        # Remap surviving dirty-shard ids onto the post-merge geometry
        # (a dirty shard inside a merged run dirties the merged shard).
        if key in self._dirty_shards and self._dirty_shards[key] is not None:
            old_starts = synopsis.starts
            self._dirty_shards[key] = {
                int(
                    np.searchsorted(
                        count_est.starts, old_starts[shard], side="right"
                    )
                )
                - 1
                for shard in self._dirty_shards[key]
            }
        self._shard_heat.pop(key, None)
        self._invalidate_predictions(key)
        self._bump("compactions")
        self._bump("compacted_shards", merged)
        self.metrics.counter("compaction_runs_total").inc()
        self.metrics.counter("compaction_shards_merged_total").inc(merged)
        self._observe_shard_tree(key, count_est)
        stale_since = (self._build_meta.get(key) or {}).get("stale_since")
        self._record_build(key, entry.method, span.duration or 0.0)
        if key in self._stale:
            # Compaction re-summarises the frozen snapshot: a stale
            # entry stays stale, with its original stale_since intact.
            self._build_meta[key]["stale_since"] = stale_since
        return {
            "table": table_name,
            "column": column_name,
            "runs": [[first, last] for first, last in runs],
            "shards_before": synopsis.num_shards,
            "shards_after": count_est.num_shards,
            "shards_merged": merged,
            "generation": count_est.compaction_generation,
        }

    def compact_all_shards(
        self, *, policy: CompactionPolicy | None = None
    ) -> list[dict]:
        """Run policy-driven compaction over every sharded synopsis.

        The sweep the :class:`~repro.engine.compaction.BackgroundCompactor`
        loops on.  Returns the per-column reports of the columns that
        actually compacted (columns with no qualifying cold runs are
        skipped silently).
        """
        policy = policy if policy is not None else CompactionPolicy()
        reports: list[dict] = []
        for key in sorted(
            key
            for key, entry in self._synopses.items()
            if isinstance(entry.count_estimator, ShardedSynopsis)
        ):
            report = self.compact_shards(key[0], key[1], policy=policy)
            if report is not None:
                reports.append(report)
        return reports

    def optimize_budgets(
        self,
        *,
        min_samples: int = 32,
        max_shard_rebuilds: int = 8,
        min_shift_fraction: float = 0.05,
        reallocate_columns: bool = True,
        max_column_shift: float = 0.25,
        min_marginal_ratio: float = 1.5,
        column_floor_words: int = 16,
        advisor_candidates=None,
        advisor_sample_queries: int = 512,
    ) -> dict:
        """Reallocate budgets toward the observed workload (one sweep).

        Closes the audit loop: the ranges sampled into
        :attr:`observed_workload` by ``audit_rate`` queries drive two
        reallocation levels.

        *Across shards* — every sharded column with at least
        ``min_samples`` observed queries per aggregate recomputes its
        per-shard budget split with
        :func:`~repro.core.builders.split_budget_by_workload` and
        rebuilds only its worst-misallocated shards (at most
        ``max_shard_rebuilds`` per aggregate; shards whose budget would
        shift by less than ``min_shift_fraction`` of its current value
        are left alone).  Rebuilds run over the entry's frozen frequency
        snapshot — like :meth:`compact_shards`, staleness is neither
        gained nor lost — and the column's total budget is conserved
        exactly.

        *Across columns* — with ``reallocate_columns=True``, whole-column
        budgets move toward the columns with the highest observed
        squared-error mass per word, but only when the best/worst
        marginal ratio exceeds ``min_marginal_ratio``; moves are capped
        at ``max_column_shift`` of each budget and floored at
        ``column_floor_words``, the global total is conserved, and
        changed columns rebuild fully from the live table with their
        method re-advised on the observed workload
        (:mod:`repro.engine.advisor`, with ``workload-a0`` as a
        candidate on DP-sized domains).

        Returns a report dict (per-column shard reallocations, column
        moves, total shards rebuilt).  Metrics:
        ``optimizer_reallocations_total``, ``optimizer_rebuilds_total``,
        and per-key ``optimizer_observed_sse_per_query`` /
        ``optimizer_predicted_sse_per_query`` gauges.
        """
        return run_optimization(
            self,
            min_samples=min_samples,
            max_shard_rebuilds=max_shard_rebuilds,
            min_shift_fraction=min_shift_fraction,
            reallocate_columns=reallocate_columns,
            max_column_shift=max_column_shift,
            min_marginal_ratio=min_marginal_ratio,
            column_floor_words=column_floor_words,
            advisor_candidates=advisor_candidates,
            advisor_sample_queries=advisor_sample_queries,
        )

    def save_observed_workload(self, path) -> None:
        """Write the observed-workload recorder state to a JSON sidecar.

        The catalog format itself is unchanged (no version bump): the
        recorder is advisory state, so it travels in its own file and a
        missing/corrupt sidecar never blocks a catalog load.
        """
        with open(path, "w") as handle:
            json.dump(self.observed_workload.state_dict(), handle, indent=2)

    def load_observed_workload(self, path) -> None:
        """Restore the observed-workload recorder from its JSON sidecar."""
        with open(path) as handle:
            self.observed_workload.load_state_dict(json.load(handle))

    def _refresh_entry(
        self,
        key: tuple[str, str],
        *,
        fallback=None,
        deadline_ms: float | None = None,
    ) -> None:
        """Bring one stale 1-D synopsis up to date.

        Sharded entries whose appends stayed inside the existing domain
        rebuild *only their dirty shards*: the column statistics gain the
        appended rows (see :meth:`_refreshed_statistics`), the untouched
        shards keep their estimators and frozen per-shard error
        predictions by reference, and the entry-level prediction is
        re-aggregated.  Everything else — monolithic entries, domain
        growth, rank-layout columns that gained distinct values — falls
        back to a full rebuild with the recorded configuration.
        """
        entry = self._synopses[key]
        dirty = self._dirty_shards.get(key)
        if isinstance(entry.count_estimator, ShardedSynopsis) and dirty is not None:
            new_stats = self._refreshed_statistics(key, entry)
            if np.array_equal(new_stats.values_axis, entry.statistics.values_axis):
                deadline = None
                if deadline_ms is not None:
                    deadline = Deadline(float(deadline_ms) / 1000.0)
                with deadline_scope(deadline):
                    self._refresh_dirty_shards(key, entry, new_stats, sorted(dirty))
                return
        self.build_synopsis(
            key[0],
            key[1],
            method=entry.method,
            budget_words=entry.budget_words,
            shards=entry.shards,
            fallback=fallback,
            deadline_ms=deadline_ms,
            **entry.builder_kwargs,
        )

    def _refreshed_statistics(
        self, key: tuple[str, str], entry: _ColumnSynopses
    ) -> ColumnStatistics:
        """The column's statistics as of now, for a refresh.

        Adds only the rows appended since the entry's statistics were
        taken (:meth:`ColumnStatistics.with_appended`) when those
        statistics summarise a prefix of this table; otherwise — and
        whenever the tail cannot be added exactly — rescans the whole
        column with :meth:`ColumnStatistics.from_values`.  Both give the
        same statistics.
        """
        column = self.table(key[0]).column(key[1])
        if entry.stats_from_table:
            appended = entry.statistics.with_appended(
                column[entry.statistics.row_count :]
            )
            if appended is not None:
                return appended
        return ColumnStatistics.from_values(column)

    def _refresh_dirty_shards(
        self,
        key: tuple[str, str],
        entry: _ColumnSynopses,
        new_stats: ColumnStatistics,
        dirty: list[int],
    ) -> None:
        """Incrementally rebuild one sharded entry's dirty shards."""

        def _observe_shard(shard: int, seconds: float) -> None:
            self.metrics.histogram("shard_build_seconds").observe(seconds)

        with self.tracer.span(
            "shard_refresh",
            table=key[0],
            column=key[1],
            dirty=len(dirty),
            shards=entry.shards,
        ) as span:
            count_est = entry.count_estimator.with_rebuilt_shards(
                dirty,
                new_stats.count_frequencies,
                predict=self.predict_errors,
                on_shard_built=_observe_shard,
                **entry.builder_kwargs,
            )
            sum_est = entry.sum_estimator.with_rebuilt_shards(
                dirty,
                new_stats.sum_frequencies,
                predict=self.predict_errors,
                on_shard_built=_observe_shard,
                **entry.builder_kwargs,
            )
            # Each rebuilt shard rewrites its leaf + ancestors in both
            # aggregates' dyadic trees: O(log S) nodes per shard instead
            # of the O(S) prefix recompute the flat path pays.
            refreshed_nodes = len(dirty) * (
                count_est.tree.nodes_per_update + sum_est.tree.nodes_per_update
            )
            span.set(
                tree_nodes_refreshed=refreshed_nodes,
                tree_depth=count_est.tree_depth,
            )
        self.metrics.counter("shard_tree_node_refreshes_total").inc(refreshed_nodes)
        self._observe_shard_tree(key, count_est)
        predicted = None
        if self.predict_errors:
            predicted = {
                "count": aggregate_shard_predictions(
                    count_est.shard_predictions, np.diff(count_est.starts)
                ),
                "sum": aggregate_shard_predictions(
                    sum_est.shard_predictions, np.diff(sum_est.starts)
                ),
            }
        self._synopses[key] = replace(
            entry,
            statistics=new_stats,
            count_estimator=count_est,
            sum_estimator=sum_est,
            predicted=predicted,
            stats_from_table=True,
        )
        self._stale.discard(key)
        self._dirty_shards.pop(key, None)
        self._invalidate_predictions(key)
        self._bump("dirty_shards_rebuilt", len(dirty))
        self.metrics.counter("dirty_shards_rebuilt_total").inc(len(dirty))
        self.metrics.counter("shard_refreshes_total").inc()
        self._record_build(key, entry.method, span.duration or 0.0)

    def _breaker(self, method: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one builder method."""
        breaker = self._breakers.get(method)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                cooldown_seconds=self._breaker_cooldown_seconds,
                clock=self.clock,
            )
            self._breakers[method] = breaker
        return breaker

    def breaker_states(self) -> dict[str, dict]:
        """Per-builder-method circuit-breaker snapshots (JSON-ready)."""
        return {
            method: breaker.snapshot()
            for method, breaker in sorted(self._breakers.items())
        }

    def refresh_stale(
        self, *, fallback=None, deadline_ms: float | None = None
    ) -> int:
        """Rebuild every stale synopsis with its recorded configuration.

        Covers 1-D, joint, and grouped synopses; returns the number of
        synopses rebuilt.  Sharded 1-D entries refresh incrementally —
        only their dirty shards rebuild (see :meth:`_refresh_entry`).

        Counter updates are transactional per synopsis: ``rebuilds`` and
        ``rebuilds_total`` advance only after each rebuild succeeds, so
        a builder exception part-way through leaves the counters equal
        to the number of synopses actually rebuilt and the failed
        synopsis still marked stale.

        Each 1-D entry's recorded builder method is guarded by a
        circuit breaker: repeated rebuild failures (after the optional
        ``fallback`` ladder is exhausted) open the breaker and later
        refreshes *skip* that method's entries — without raising — until
        the cool-down lapses, so the entries keep serving their stale
        synopses instead of hammering a broken builder.  The first
        failing rebuild still raises (the transactional contract above
        is unchanged); only an already-open breaker turns failures into
        skips.  ``fallback`` / ``deadline_ms`` behave as in
        :meth:`build_synopsis`, with each entry's recorded method as the
        primary rung.
        """
        rebuilt = 0
        skipped = 0
        with self.tracer.span("rebuild", trigger="refresh_stale") as span:
            try:
                for key in sorted(self._stale):
                    method = self._synopses[key].method
                    breaker = self._breaker(method)
                    if not breaker.allow():
                        skipped += 1
                        self._bump("breaker_skips")
                        self.metrics.counter(
                            "breaker_skips_total", method=method
                        ).inc()
                        continue
                    probing = breaker.state != BREAKER_CLOSED
                    try:
                        self._refresh_entry(
                            key, fallback=fallback, deadline_ms=deadline_ms
                        )
                    except Exception:
                        if breaker.record_failure():
                            self.metrics.counter(
                                "breaker_opened_total", method=method
                            ).inc()
                        raise
                    breaker.record_success()
                    if probing:
                        self.metrics.counter(
                            "breaker_closed_total", method=method
                        ).inc()
                    rebuilt += 1
                    self._bump("rebuilds")
                    self.metrics.counter("rebuilds_total").inc()
                for key in sorted(self._stale_joint):
                    entry = self._joint_synopses[key]
                    self.build_joint_synopsis(
                        key[0],
                        key[1],
                        key[2],
                        method=entry.method,
                        budget_words=entry.budget_words,
                    )
                    rebuilt += 1
                    self._bump("rebuilds")
                    self.metrics.counter("rebuilds_total").inc()
                for key in sorted(self._stale_grouped):
                    config = self._grouped_configs[key]
                    self.build_grouped_synopsis(key[0], key[1], key[2], **config)
                    rebuilt += 1
                    self._bump("rebuilds")
                    self.metrics.counter("rebuilds_total").inc()
            finally:
                span.set(rebuilt=rebuilt, breaker_skipped=skipped)
        return rebuilt

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_exact(self, query: AggregateQuery) -> float:
        """Ground truth by scanning the base table."""
        table = self.table(query.table)
        values = table.column(query.column)
        mask = np.ones(values.shape, dtype=bool)
        if query.low is not None:
            mask &= values >= query.low
        if query.high is not None:
            mask &= values <= query.high
        if query.aggregate == "count":
            return float(mask.sum())
        selected = values[mask]
        if query.aggregate == "sum":
            return float(selected.sum())
        return float(selected.mean()) if selected.size else 0.0

    def _resolve_synopsis(
        self, table_name: str, column_name: str, on_stale: str
    ) -> _ColumnSynopses:
        """Look up a 1-D synopsis, applying the staleness policy.

        The query path's ``on_stale`` rung (see
        :meth:`~repro.engine.batch.ExecutionMixin._answer_column`);
        ``on_stale`` must already be validated by the caller.
        """
        key = (table_name, column_name)
        if key not in self._synopses:
            raise InvalidQueryError(
                f"no synopsis built for {table_name}.{column_name}; "
                "call build_synopsis first"
            )
        if key in self._stale:
            if on_stale == "error":
                raise InvalidQueryError(
                    f"synopsis for {table_name}.{column_name} is stale "
                    "(rows appended since build); refresh_stale() or pass "
                    "on_stale='rebuild'"
                )
            if on_stale == "rebuild":
                self._refresh_entry(key)
                self._bump("rebuilds")
            else:
                self._bump("stale_served")
        return self._synopses[key]

    def _resolve_with_policy(
        self, table_name: str, column_name: str, policy: DegradationPolicy
    ) -> tuple[_ColumnSynopses | None, str]:
        """Descend the serving ladder under a degradation policy.

        Returns ``(entry, level)``; ``entry`` is ``None`` on the
        synopsis-free rungs (``"fallback"`` / ``"exact"``).  Unknown
        tables and columns still raise — they are query errors, not
        faults to degrade around.
        """
        key = (table_name, column_name)
        entry = self._synopses.get(key)
        if entry is not None and key not in self._stale:
            return entry, "fresh"
        # Validate the target before degrading.
        self.table(table_name).column(column_name)
        if entry is not None and policy.allow_stale:
            self._bump("stale_served")
            return entry, "stale"
        if policy.allow_fallback:
            return None, "fallback"
        if policy.allow_progressive and entry is not None:
            # Anytime rung: serve the (possibly stale) synopsis as an
            # interval answer instead of a bare point estimate; the
            # serving tier's Refiner tightens it in the background.
            self._bump("progressive_served")
            return entry, "progressive"
        if policy.allow_exact:
            return None, "exact"
        if entry is None:
            raise InvalidQueryError(
                f"no synopsis built for {table_name}.{column_name} and the "
                "degradation policy admits no substitute rung"
            )
        raise InvalidQueryError(
            f"synopsis for {table_name}.{column_name} is stale and the "
            "degradation policy admits no substitute rung"
        )

    def _record_degraded_serve(self, level: str, count: int = 1) -> None:
        """Account one (or a batch of) answers served below ``fresh``."""
        if level == "fresh":
            return
        self._bump("degraded_serves", count)
        self.metrics.counter("degraded_serves_total", level=level).inc(count)

    def _fallback_model(self, table_name: str, column_name: str) -> dict:
        """Cached 4-word summary (lo, hi, rows, total) of one column."""
        key = (table_name, column_name)
        model = self._fallback_models.get(key)
        if model is None:
            values = np.asarray(
                self.table(table_name).column(column_name), dtype=np.float64
            )
            if values.size:
                model = {
                    "lo": float(values.min()),
                    "hi": float(values.max()),
                    "rows": float(values.size),
                    "total": float(values.sum()),
                }
            else:
                model = {"lo": 0.0, "hi": 0.0, "rows": 0.0, "total": 0.0}
            self._fallback_models[key] = model
        return model

    def _fallback_estimate_many(
        self,
        table_name: str,
        column_name: str,
        aggregate: str,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> np.ndarray:
        """Uniform-model estimates — the ``"fallback"`` serving rung.

        Assumes values spread uniformly over ``[lo, hi]``: a range
        predicate selects the overlapping fraction of rows (and of the
        total, for SUM), and AVG answers the column mean clamped into
        ``[max(low, lo), min(high, hi)]``, the values the range can
        hold.  Crude, but O(1) per query from four cached words — the
        rung between a lost synopsis and a full scan.  ``lows`` /
        ``highs`` use ``-inf`` / ``+inf`` for open ends.
        """
        model = self._fallback_model(table_name, column_name)
        lo, hi = model["lo"], model["hi"]
        rows, total = model["rows"], model["total"]
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if rows <= 0:
            return np.zeros(lows.shape)
        span = hi - lo
        if span > 0:
            clip_lo = np.maximum(lows, lo)
            clip_hi = np.minimum(highs, hi)
            frac = np.clip((clip_hi - clip_lo) / span, 0.0, 1.0)
        else:
            # Single-valued column: all mass at lo.
            frac = ((lows <= lo) & (highs >= lo)).astype(np.float64)
        if aggregate == "count":
            return rows * frac
        if aggregate == "sum":
            return total * frac
        mean = np.clip(total / rows, np.maximum(lows, lo), np.minimum(highs, hi))
        return np.where(frac > 0.0, mean, 0.0)

    def stats(self) -> dict:
        """An immutable snapshot of the engine's execution counters.

        Keys: scalar/batch/joint/grouped query counts, ``batches``,
        ``exact_scans``, ``stale_served``, ``rebuilds``,
        ``audited_queries``, ``drift_flags``, per-column
        ``synopsis_hits``, the last batch's wall time and queries/sec
        (``last_batch_seconds`` / ``last_batch_qps``), cumulative
        ``total_batch_seconds``, and the current stale-set sizes.

        The snapshot is a deep copy — mutating it (or the nested
        ``synopsis_hits`` dict) never touches the live counters — and
        :meth:`reset_stats` zeroes the live counters between windows.
        Both hold the stats lock, so snapshots taken while other
        threads are executing queries are internally consistent and
        never observe a dict mid-mutation.
        """
        with self._stats_lock:
            snapshot = copy.deepcopy(self._stats)
        snapshot["total_queries"] = (
            snapshot["queries"]
            + snapshot["batch_queries"]
            + snapshot["joint_queries"]
            + snapshot["grouped_queries"]
        )
        snapshot["stale_1d"] = len(self._stale)
        snapshot["stale_joint"] = len(self._stale_joint)
        snapshot["stale_grouped"] = len(self._stale_grouped)
        return snapshot

    def reset_stats(self) -> dict:
        """Zero the execution counters; returns the final pre-reset snapshot.

        Only the counters reset — synopses, staleness, metrics
        instruments, traces, and audit windows are untouched (they have
        their own lifecycles: ``metrics.reset()``, ``tracer.clear()``,
        ``auditor.clear()``).
        """
        with self._stats_lock:
            snapshot = self.stats()
            self._stats = self._fresh_stats()
        return snapshot

    def execute(
        self,
        query: AggregateQuery,
        *,
        with_exact: bool = False,
        with_bound: bool = False,
        on_stale: str = "serve",
        audit_rate: float = 0.0,
        degradation=None,
    ) -> QueryResult:
        """Answer one query from the synopses.

        This is :meth:`execute_batch`'s group routine run on a group of
        one, so both return the same bits for the same query.
        ``with_exact`` attaches the ground truth (from a sorted scan of
        the column; :meth:`execute_exact` is the masked-scan oracle), and
        ``with_bound`` attaches a deterministic ``guaranteed_bound`` for
        COUNT/SUM when the synopsis is an average histogram.

        ``on_stale`` controls behaviour when rows were appended after
        the synopsis was built: ``"serve"`` answers from the stale
        synopsis (default — estimates drift with the appended volume),
        ``"rebuild"`` refreshes it first, ``"error"`` refuses.

        ``degradation`` switches to the policy-driven serving ladder
        instead of ``on_stale``: pass a
        :class:`~repro.engine.resilience.DegradationPolicy` (or a
        preset name — ``"serve_anything"``, ``"estimates_only"``,
        ``"strict"``) and the answer resolves fresh synopsis -> stale
        synopsis -> fallback estimator -> exact scan, stopping at the
        first admitted rung.  Under the default-permissive policies a
        query on a registered column never raises; every result carries
        the level that produced it in ``result.degradation``.

        ``audit_rate`` samples that fraction of queries for online error
        auditing: the exact answer is computed alongside (from the
        build-time snapshot when the synopsis is fresh, a live scan when
        stale) and the observed error feeds :meth:`error_report`.
        Auditing never changes the returned result.
        """
        policy, audit_rate = self._execution_policy(on_stale, audit_rate, degradation)
        with self.tracer.span(
            "query",
            table=query.table,
            column=query.column,
            aggregate=query.aggregate,
        ) as span:
            (result,), level = self._answer_column(
                (query.table, query.column),
                [query],
                with_exact=with_exact,
                with_bound=with_bound,
                on_stale=on_stale,
                policy=policy,
                audit_rate=audit_rate,
            )
            span.set(degradation=level)
        self._bump("queries")
        return result

    # ------------------------------------------------------------------
    # Observability: auditing, error reports, exports
    # ------------------------------------------------------------------
    def _record_sharded_queries(
        self, entry: _ColumnSynopses, low_idx: np.ndarray, high_idx: np.ndarray
    ) -> None:
        """Boundary-shard hit-rate accounting for clipped sharded queries.

        ``boundary_shard_queries_total / sharded_queries_total`` is the
        boundary-shard hit rate (queries that paid synopsis error in at
        least one partial shard); shard-aligned queries are answered
        entirely from exact totals and only advance the denominator.
        """
        boundary_queries, partials = entry.count_estimator.boundary_stats(
            low_idx, high_idx
        )
        self.metrics.counter("sharded_queries_total").inc(int(low_idx.size))
        if boundary_queries:
            self.metrics.counter("boundary_shard_queries_total").inc(boundary_queries)
        if partials:
            self.metrics.counter("boundary_shard_partials_total").inc(partials)

    def _record_observed(
        self,
        table_name: str,
        column_name: str,
        aggregate: str,
        low_idx: np.ndarray,
        high_idx: np.ndarray,
    ) -> None:
        """Feed audited index-space ranges into the workload recorder.

        AVG queries exercise *both* the count and sum estimators, so
        they record under both aggregates; the optimiser consumes the
        recorder keyed the same way the synopses are stored.
        """
        targets = ("count", "sum") if aggregate == "avg" else (aggregate,)
        for target in targets:
            self.observed_workload.record_many(
                (table_name, column_name, target), low_idx, high_idx
            )

    def _predicted_for(self, key: tuple[str, str], aggregate: str):
        """The frozen builder error model for one (synopsis, aggregate).

        AVG has no direct model (it is SUM/COUNT of two synopses).
        Entries without a build-time prediction (catalogs loaded from
        disk) get one computed on first use and pinned, so subsequent
        corruption is still detectable.
        """
        if aggregate not in ("count", "sum"):
            return None
        entry = self._synopses.get(key)
        if entry is None:
            return None
        if entry.predicted is not None:
            return entry.predicted.get(aggregate)
        cache_key = (key, aggregate)
        if cache_key not in self._prediction_cache:
            from repro.core.builders import predict_sse_per_query

            estimator = (
                entry.count_estimator if aggregate == "count" else entry.sum_estimator
            )
            data = (
                entry.statistics.count_frequencies
                if aggregate == "count"
                else entry.statistics.sum_frequencies
            )
            self._prediction_cache[cache_key] = predict_sse_per_query(estimator, data)
        return self._prediction_cache[cache_key]

    def error_report(
        self,
        *,
        drift_threshold: float = 2.0,
        drift_floor: float = 1e-6,
        min_samples: int = 1,
        mark_stale: bool = False,
    ) -> dict:
        """Observed-vs-predicted error per audited (table, column, aggregate).

        A synopsis is *drifting* when its windowed observed
        SSE-per-query exceeds ``drift_threshold`` times the builder's
        predicted SSE-per-query plus ``drift_floor`` (the floor absorbs
        float noise and keeps exactly-zero predictions meaningful), with
        at least ``min_samples`` audited queries in the window.
        ``mark_stale=True`` feeds drifting synopses into the existing
        staleness machinery, so the usual ``on_stale`` policies and
        :meth:`refresh_stale` take over.
        """
        if drift_threshold <= 0:
            raise InvalidParameterError(
                f"drift_threshold must be > 0, got {drift_threshold}"
            )
        rows = []
        for key in self.auditor.keys():
            table_name, column_name, aggregate = key
            observed = self.auditor.observed(key)
            synopsis_key = (table_name, column_name)
            entry = self._synopses.get(synopsis_key)
            prediction = self._predicted_for(synopsis_key, aggregate)
            predicted_value = None if prediction is None else prediction.sse_per_query
            ratio = None
            drifting = False
            if predicted_value is not None and observed.samples >= min_samples:
                if predicted_value > 0:
                    ratio = observed.sse_per_query / predicted_value
                else:
                    ratio = math.inf if observed.sse_per_query > drift_floor else 1.0
                drifting = (
                    observed.sse_per_query
                    > drift_threshold * predicted_value + drift_floor
                )
            if drifting:
                self._bump("drift_flags")
                self.metrics.counter("drift_flags_total").inc()
                if mark_stale and entry is not None:
                    self._stale.add(synopsis_key)
                    meta = self._build_meta.get(synopsis_key)
                    if meta is not None and meta.get("stale_since") is None:
                        meta["stale_since"] = self.clock.now()
            rows.append(
                {
                    "table": table_name,
                    "column": column_name,
                    "aggregate": aggregate,
                    "method": entry.method if entry is not None else None,
                    "samples": observed.samples,
                    "observed_sse_per_query": observed.sse_per_query,
                    "predicted_sse_per_query": predicted_value,
                    "predicted_exact": None if prediction is None else prediction.exact,
                    "ratio": ratio,
                    "mean_abs_error": observed.mean_abs_error,
                    "max_abs_error": observed.max_abs_error,
                    "mean_relative_error": observed.mean_relative_error,
                    "stale": synopsis_key in self._stale,
                    "drifting": drifting,
                }
            )
        return {
            "synopses": rows,
            "audited_queries": self.auditor.total_audited,
            "window": self.auditor.window,
            "drift_threshold": drift_threshold,
        }

    def staleness_ages(self) -> dict[str, float]:
        """Seconds each currently-stale 1-D synopsis has been stale."""
        now = self.clock.now()
        ages: dict[str, float] = {}
        for key in self._stale:
            meta = self._build_meta.get(key)
            if meta is not None and meta.get("stale_since") is not None:
                ages[f"{key[0]}.{key[1]}"] = now - meta["stale_since"]
        return ages

    def observability_snapshot(self) -> dict:
        """One structured, JSON-ready view of everything observable."""
        return {
            "stats": self.stats(),
            "metrics": self.metrics.snapshot(),
            "error_report": self.error_report(),
            "observed_workload": self.observed_workload.snapshot(),
            "staleness_ages": self.staleness_ages(),
            "dirty_shards": self.dirty_shards(),
            "synopsis_catalog": self.synopsis_catalog(),
            "spans_recorded": len(self.tracer),
            "breakers": self.breaker_states(),
            "quarantined": sorted(f"{t}.{c}" for t, c in self._quarantined),
        }

    def quarantined_synopses(self) -> list[tuple[str, str]]:
        """Keys whose persisted synopses failed verification on load.

        Each is serving a cheap substitute and is marked stale;
        :meth:`refresh_stale` (or a direct :meth:`build_synopsis`)
        clears the quarantine.
        """
        return sorted(self._quarantined)

    def dump_metrics(self, format: str = "json") -> str:
        """Render the observability state for export.

        ``"json"`` emits :meth:`observability_snapshot`;
        ``"prometheus"`` emits the metrics registry in Prometheus text
        format with the engine counters and staleness ages mirrored in
        as gauges (one scrape target, no extra deps).
        """
        if format == "json":
            return json.dumps(
                self.observability_snapshot(), indent=2, sort_keys=True, default=str
            )
        if format == "prometheus":
            for name, value in self.stats().items():
                if isinstance(value, (int, float)):
                    self.metrics.gauge(f"stat_{name}").set(float(value))
            for column, age in self.staleness_ages().items():
                self.metrics.gauge("staleness_age_seconds", column=column).set(age)
            return self.metrics.render_prometheus()
        raise InvalidParameterError(
            f"format must be json or prometheus, got {format!r}"
        )

    def execute_quantile(
        self,
        table_name: str,
        column_name: str,
        q: float,
        *,
        low: float | None = None,
        high: float | None = None,
        with_exact: bool = False,
    ) -> "QuantileResult":
        """Estimate the ``q``-quantile of a column from its count synopsis.

        The estimate is the smallest attribute value whose estimated
        cumulative frequency (within the optional ``[low, high]``
        window) reaches ``q`` of the window total.
        """
        from repro.queries.quantiles import estimate_quantile

        key = (table_name, column_name)
        if key not in self._synopses:
            raise InvalidQueryError(
                f"no synopsis built for {table_name}.{column_name}; "
                "call build_synopsis first"
            )
        entry = self._synopses[key]
        clipped = entry.statistics.clip_range(low, high)
        if clipped is None:
            raise InvalidQueryError(
                f"window [{low}, {high}] does not intersect the domain of "
                f"{table_name}.{column_name}"
            )
        index = estimate_quantile(
            entry.count_estimator, q, low=clipped[0], high=clipped[1]
        )
        estimate = float(entry.statistics.value_at(index))
        exact = None
        if with_exact:
            values = self.table(table_name).column(column_name)
            mask = np.ones(values.shape, dtype=bool)
            if low is not None:
                mask &= values >= low
            if high is not None:
                mask &= values <= high
            selected = np.sort(values[mask])
            if selected.size:
                rank = min(
                    int(np.ceil(q * selected.size)) - 1 if q > 0 else 0,
                    selected.size - 1,
                )
                exact = float(selected[max(rank, 0)])
        return QuantileResult(
            table=table_name,
            column=column_name,
            q=float(q),
            estimate=estimate,
            exact=exact,
            synopsis_name=entry.count_estimator.name,
        )

    def execute_sql(
        self, statement: str, *, with_exact: bool = False
    ) -> QueryResult | QuantileResult | list[GroupResult]:
        """Parse and run one statement of the mini SQL dialect.

        Single-column predicates route to the 1-D synopses; two-column
        BETWEEN conjunctions route to the joint synopses.  Aggregates
        return a :class:`QueryResult`, quantile/median statements a
        :class:`QuantileResult`, and GROUP BY statements a list of
        :class:`~repro.engine.grouped.GroupResult`.
        """
        from repro.engine.sql import parse_query

        query = parse_query(statement)
        if isinstance(query, GroupedAggregateQuery):
            return self.execute_grouped(query, with_exact=with_exact)
        if isinstance(query, JointAggregateQuery):
            return self.execute_joint(query, with_exact=with_exact)
        if isinstance(query, QuantileQuery):
            return self.execute_quantile(
                query.table,
                query.column,
                query.q,
                low=query.low,
                high=query.high,
                with_exact=with_exact,
            )
        return self.execute(query, with_exact=with_exact)

