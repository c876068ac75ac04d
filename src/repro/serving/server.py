"""The concurrent query server — the system's serve plane.

Storyboard-style systems treat precomputed summaries as something you
*serve*, not just call: a front end admits requests, batches them, and
degrades deliberately under pressure.  :class:`QueryServer` is that
front end for the engine's range-aggregate synopses:

* **Coalescing** — concurrent ``submit`` calls accumulate in a
  :class:`~repro.serving.coalescer.RequestCoalescer` and one worker
  thread flushes them through ``execute_batch``, so every flush rides
  the vectorised ``estimate_many`` path instead of paying per-query
  python overhead.  By default (``max_delay_ms=0``) batching is group
  commit: the worker takes everything queued as soon as it finishes a
  batch, and whatever arrives meanwhile forms the next one.  A positive
  ``max_delay_ms`` opts into holding a batch open until it is that old
  (or ``max_batch`` long).
* **Answer caching** — results are cached under a consistency token
  read *before* the answer is computed
  (:meth:`~repro.serving.catalog.CatalogView.answer_token`), so a
  cached answer validates only while no ``append_rows`` /
  ``register_table`` / rebuild / staleness transition has happened
  since.  The cache can therefore never serve a pre-append answer
  after an append — even when the append races the flush.
* **Admission control** — when ``max_pending`` requests are already
  queued, new arrivals are *shed* down the
  :class:`~repro.engine.resilience.DegradationPolicy` ladder instead
  of queueing unboundedly: a cached answer re-tagged ``stale`` (if the
  policy admits stale), else the O(1) uniform-model ``fallback`` rung,
  else a stage-0 ``progressive`` interval answer (if the policy admits
  it), else :class:`~repro.errors.ServerOverloadedError`.  A request
  arriving when the queue is *exactly* at ``max_pending`` takes this
  ladder too — the boundary sheds, it never raises past an admissible
  rung.  The ``exact`` rung is never used for shedding — a base-table
  scan under overload would dig the hole deeper.
* **Progressive answers** — :meth:`QueryServer.submit_progressive`
  returns a :class:`~repro.serving.progressive.ProgressiveHandle`
  immediately (stage-0 interval inline) and a background
  :class:`~repro.serving.progressive.Refiner` streams monotonically
  tightening intervals until exact, upgrading the stage-aware answer
  cache as it goes.

Threading contract: all engine access from the serve path happens on
the single worker thread (plus read-only catalog peeks from submitting
threads); the engine's counters and metrics are lock-protected, so
serving may run concurrently with direct engine queries.  Catalog
*mutations* (builds, appends) remain the build plane's business and are
safe to interleave — the consistency tokens absorb them — but are not
themselves made concurrent by this module.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.engine.engine import AggregateQuery, QueryResult
from repro.engine.resilience import SERVE_ANYTHING, as_degradation_policy
from repro.errors import (
    InvalidParameterError,
    InvalidQueryError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.internal.faults import fault_point
from repro.serving.answer_cache import AnswerCache, cache_key
from repro.serving.catalog import CatalogView
from repro.serving.coalescer import PendingRequest, RequestCoalescer, ServeFuture

#: Histogram buckets for coalesced batch sizes (queries per flush).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: What the retry hint assumes a batch takes before the server has
#: answered one.
UNTIMED_BATCH_SECONDS = 0.001


def _stage_rank_of(result: QueryResult) -> int | None:
    """The cache stage rank of a flushed answer.

    Progressive answers from the batch path are stage-0 intervals; they
    must enter the cache *ranked* so a background refinement that
    already published a finer stage for the same token is not clobbered
    by a slower flush.  Every other answer is unranked and overwrites.
    """
    return 0 if result.degradation == "progressive" else None


class QueryServer:
    """Coalescing, caching, load-shedding front end over one engine.

    Use as a context manager (``with QueryServer(engine) as server:``)
    or call :meth:`start` / :meth:`stop` explicitly.  ``submit`` returns
    a :class:`~repro.serving.coalescer.ServeFuture`; :meth:`execute` is
    the blocking convenience wrapper.
    """

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 512,
        max_delay_ms: float = 0.0,
        max_pending: int = 8192,
        cache_capacity: int = 4096,
        degradation="serve_anything",
        on_stale: str = "serve",
        audit_rate: float = 0.0,
        confidence: float = 0.95,
    ) -> None:
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_delay_ms < 0:
            raise InvalidParameterError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}"
            )
        self.engine = engine
        self.catalog = CatalogView(engine)
        self.cache = AnswerCache(cache_capacity)
        self.coalescer = RequestCoalescer(
            max_batch=max_batch, max_delay_seconds=max_delay_ms / 1000.0
        )
        self.max_pending = int(max_pending)
        self.policy = as_degradation_policy(degradation) or SERVE_ANYTHING
        self.on_stale = on_stale
        self.audit_rate = float(audit_rate)
        self.confidence = float(confidence)
        self.metrics = engine.metrics
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._refiner = None
        self._lock = threading.Lock()
        #: When the batch in flight started (``None`` while idle) and how
        #: long the last one took; ``retry_after_ms`` reads both.
        self._flush_started: float | None = None
        self._last_batch_seconds = 0.0
        self._counters = {
            "submitted": 0,
            "cache_hits": 0,
            "enqueued": 0,
            "batches": 0,
            "served": 0,
            "shed_stale": 0,
            "shed_fallback": 0,
            "shed_progressive": 0,
            "rejected": 0,
            "flush_errors": 0,
            "progressive_sessions": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "QueryServer":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain every pending request, then stop the worker.

        Requests already admitted are answered before the worker exits;
        new submissions raise :class:`~repro.errors.ServerClosedError`.
        """
        if self._refiner is not None:
            self._refiner.stop()
            self._refiner = None
        if self._thread is None:
            return
        self._stop.set()
        self.coalescer.wake()
        self._thread.join()
        self._thread = None
        # Safety net: anything that slipped in between the stop flag and
        # the final drain must not leave a caller blocked forever.
        for request in self.coalescer.drain_all():
            if not request.future.done():
                request.future.set_exception(
                    ServerClosedError("server stopped before answering")
                )

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: AggregateQuery) -> ServeFuture:
        """Admit one query; resolves to a :class:`QueryResult`.

        Resolution order: answer cache (token-validated) -> coalesced
        batch -> under overload, the shed ladder.  The returned future
        may already be resolved (cache hit or shed answer).
        """
        return self._admit([query])[0]

    def submit_many(self, queries) -> list[ServeFuture]:
        """Admit many queries under one queue-lock acquisition."""
        return self._admit(list(queries))

    def submit_progressive(self, query: AggregateQuery, *, confidence=None):
        """Anytime answering: an immediate interval, then refinement.

        Returns a :class:`~repro.serving.progressive.ProgressiveHandle`
        whose first answer (stage-0, computed inline before this method
        returns) is the synopsis estimate with a claimed-``confidence``
        interval; the background refiner streams monotonically nested,
        tightening intervals into the handle and the stage-aware answer
        cache until the answer is exact.  A catalog mutation mid-flight
        invalidates the refinement instead of publishing a stale stage.
        """
        if not self.running:
            raise ServerClosedError(
                "server is not running; use 'with QueryServer(engine):' or start()"
            )
        if not isinstance(query, AggregateQuery):
            raise InvalidQueryError(
                "the server answers AggregateQuery range aggregates, "
                f"got {type(query).__name__}"
            )
        handle = self.refiner.submit(query, confidence=confidence)
        with self._lock:
            self._counters["progressive_sessions"] += 1
        self.metrics.counter("serve_progressive_sessions_total").inc()
        return handle

    @property
    def refiner(self):
        """The lazily created background refiner (started on first use)."""
        if self._refiner is None:
            from repro.serving.progressive import Refiner

            self._refiner = Refiner(
                self.engine,
                cache=self.cache,
                catalog=self.catalog,
                confidence=self.confidence,
            ).start()
        return self._refiner

    def execute(self, query: AggregateQuery, timeout: float | None = None) -> QueryResult:
        """Blocking wrapper: submit one query and wait for its answer."""
        return self.submit(query).result(timeout)

    def execute_many(self, queries, timeout: float | None = None) -> list[QueryResult]:
        futures = self.submit_many(queries)
        return [future.result(timeout) for future in futures]

    def _admit(self, queries: list) -> list[ServeFuture]:
        if not self.running:
            raise ServerClosedError(
                "server is not running; use 'with QueryServer(engine):' or start()"
            )
        for query in queries:
            if not isinstance(query, AggregateQuery):
                raise InvalidQueryError(
                    "the server answers AggregateQuery range aggregates, "
                    f"got {type(query).__name__}"
                )
        # Tokens BEFORE answering: if a mutation lands between here and
        # the flush, the stored token is already outdated and the cached
        # answer will never validate.  One token per distinct column
        # covers every query on it in this admission.
        tokens_by_column: dict[tuple, tuple] = {}
        keys = []
        tokens = []
        for query in queries:
            keys.append(cache_key(query))
            column = (query.table, query.column)
            token = tokens_by_column.get(column)
            if token is None:
                token = tokens_by_column[column] = self.catalog.answer_token(*column)
            tokens.append(token)
        cached_answers = self.cache.get_many(keys, tokens)

        futures: list[ServeFuture] = []
        to_enqueue: list[PendingRequest] = []
        cache_hits = 0
        # Admission budget is computed once per call; concurrent
        # submitters make max_pending approximate, which is fine — it
        # bounds the queue, it is not a strict semaphore.
        budget = self.max_pending - len(self.coalescer)
        for query, key, token, cached in zip(queries, keys, tokens, cached_answers):
            if cached is not None:
                futures.append(ServeFuture.resolved(cached))
                cache_hits += 1
                continue
            if budget <= 0:
                futures.append(self._shed(query, key, admitted=len(to_enqueue)))
                continue
            budget -= 1
            request = PendingRequest(query=query, token=token, cache_key=key)
            to_enqueue.append(request)
            futures.append(request.future)
        depth = self.coalescer.add_many(to_enqueue) if to_enqueue else len(self.coalescer)
        with self._lock:
            self._counters["submitted"] += len(queries)
            self._counters["cache_hits"] += cache_hits
            self._counters["enqueued"] += len(to_enqueue)
        self.metrics.counter("serve_requests_total").inc(len(queries))
        if cache_hits:
            self.metrics.counter("serve_cache_hits_total").inc(cache_hits)
        self.metrics.gauge("serve_queue_depth").set(depth)
        return futures

    def _shed(
        self, query: AggregateQuery, key: tuple, *, admitted: int = 0
    ) -> ServeFuture:
        """Answer (or refuse) one query without queueing it.

        ``admitted`` counts the requests this admission queues ahead of
        it, which the coalescer does not hold yet.
        """
        future = ServeFuture()
        outcome, rung = self._shed_resolution(query, key, admitted=admitted)
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future

    def retry_after_ms(self, *, admitted: int = 0) -> float:
        """Backoff hint for refused requests (milliseconds).

        A drained queue is what reopens admission.  With a delay window,
        the oldest queued batch must flush within it, so the time left
        in that window bounds how soon retrying is useful.  Without one
        (the default) batches leave as fast as they are answered, so the
        hint is what is left of the batch in flight plus one batch time
        per ``max_batch`` queued requests.  A batch takes as long as the
        last one did (or as the one in flight has run, if longer), or
        :data:`UNTIMED_BATCH_SECONDS` before any has been answered.
        ``admitted`` counts requests about to join the queue (admitted
        by the same call as the refusal), so one queued request always
        hints at least one batch time.
        """
        window = self.coalescer.max_delay_seconds
        if window > 0:
            return max(0.0, window - self.coalescer.oldest_age_seconds()) * 1000.0
        with self._lock:
            started, per_batch = self._flush_started, self._last_batch_seconds
        per_batch = per_batch or UNTIMED_BATCH_SECONDS
        left = 0.0
        if started is not None:
            elapsed = time.monotonic() - started
            per_batch = max(per_batch, elapsed)
            left = per_batch - elapsed
        queued = len(self.coalescer) + admitted
        queued_batches = -(-queued // self.coalescer.max_batch)
        return (left + per_batch * queued_batches) * 1000.0

    def _shed_resolution(
        self, query: AggregateQuery, key: tuple, *, admitted: int = 0
    ) -> tuple[QueryResult | BaseException, str]:
        """Descend the shed ladder once; returns ``(outcome, rung)``.

        ``outcome`` is a :class:`QueryResult` on an admitted rung and an
        exception (to set on the future) otherwise.  Shared by overload
        shedding and by the process pool's degraded completion path, so
        both account sheds identically.
        """
        if self.policy.allow_stale:
            cached = self.cache.get_even_stale(key)
            if cached is not None:
                with self._lock:
                    self._counters["shed_stale"] += 1
                self.metrics.counter("serve_shed_total", level="stale").inc()
                return replace(cached, degradation="stale"), "stale"
        if self.policy.allow_fallback:
            try:
                estimate = self.catalog.fallback_estimate(query)
            except InvalidQueryError as error:
                return error, "error"
            with self._lock:
                self._counters["shed_fallback"] += 1
            self.metrics.counter("serve_shed_total", level="fallback").inc()
            return (
                QueryResult(
                    query=query,
                    estimate=estimate,
                    exact=None,
                    synopsis_name="fallback-uniform",
                    synopsis_words=4,
                    degradation="fallback",
                ),
                "fallback",
            )
        if self.policy.allow_progressive:
            # Anytime rung: a stage-0 interval answer costs O(1) in the
            # synopsis (plus the appended-suffix delta) — cheap enough
            # to compute on the submitting thread even under overload,
            # and honest about its uncertainty where the stale and
            # fallback rungs silently guess.
            from repro.serving.progressive import initial_answer

            try:
                answer = initial_answer(
                    self.engine, query, confidence=self.confidence
                )
            except InvalidQueryError as error:
                return error, "error"
            with self._lock:
                self._counters["shed_progressive"] += 1
            self.metrics.counter("serve_shed_total", level="progressive").inc()
            return answer.as_result(), "progressive"
        with self._lock:
            self._counters["rejected"] += 1
        self.metrics.counter("serve_shed_total", level="rejected").inc()
        return (
            ServerOverloadedError(
                f"{len(self.coalescer)} requests pending (max_pending="
                f"{self.max_pending}) and the degradation policy admits "
                "no shed rung",
                retry_after_ms=self.retry_after_ms(admitted=admitted),
            ),
            "rejected",
        )

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.coalescer.next_batch(self._stop)
            if batch:
                self._flush(batch)
                continue
            if self._stop.is_set():
                return

    def _flush(self, batch: list[PendingRequest]) -> None:
        """Answer one coalesced batch and resolve its futures."""
        started = time.monotonic()
        with self._lock:
            self._flush_started = started
        with self.catalog.tracer.span("serve_batch", size=len(batch)):
            try:
                fault_point("serve_flush", size=len(batch))
                results = self.engine.execute_batch(
                    [request.query for request in batch],
                    on_stale=self.on_stale,
                    audit_rate=self.audit_rate,
                    degradation=self.policy,
                )
            except Exception:  # noqa: BLE001 — isolate per query below
                with self._lock:
                    self._counters["flush_errors"] += 1
                self.metrics.counter("serve_flush_errors_total").inc()
                self._flush_individually(batch)
                with self._lock:
                    self._flush_started = None
                return
        self.cache.put_many(
            [
                (request.cache_key, request.token, result, _stage_rank_of(result))
                for request, result in zip(batch, results)
            ]
        )
        ServeFuture.resolve_batch(
            [(request.future, result) for request, result in zip(batch, results)]
        )
        answered = time.monotonic()
        self.metrics.histogram("serve_latency_seconds").observe_many(
            [max(answered - request.enqueued_at, 0.0) for request in batch]
        )
        with self._lock:
            self._counters["batches"] += 1
            self._counters["served"] += len(batch)
            self._flush_started = None
            self._last_batch_seconds = answered - started
        self.metrics.counter("serve_batches_total").inc()
        self.metrics.counter("serve_coalesced_total").inc(len(batch))
        self.metrics.histogram(
            "serve_batch_size", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(batch))

    def _flush_individually(self, batch: list[PendingRequest]) -> None:
        """Fallback when a whole-batch call raises: answer one by one.

        One malformed query (unknown table, say) must fail *its own*
        future, not poison the other requests that happened to share
        its flush.
        """
        served = 0
        for request in batch:
            try:
                result = self.engine.execute(
                    request.query,
                    on_stale=self.on_stale,
                    audit_rate=self.audit_rate,
                    degradation=self.policy,
                )
            except Exception as error:  # noqa: BLE001 — per-query isolation
                request.future.set_exception(error)
                continue
            self.cache.put(
                request.cache_key,
                request.token,
                result,
                stage_rank=_stage_rank_of(result),
            )
            request.future.set_result(result)
            served += 1
        with self._lock:
            self._counters["served"] += served

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready snapshot of the server's own counters."""
        with self._lock:
            counters = dict(self._counters)
        # Per-rung shed tally in one place, so operators read the whole
        # ladder at a glance instead of four scattered flat keys.
        counters["shed"] = {
            "stale": counters["shed_stale"],
            "fallback": counters["shed_fallback"],
            "progressive": counters["shed_progressive"],
            "rejected": counters["rejected"],
        }
        counters["retry_after_ms"] = self.retry_after_ms()
        counters["cache"] = self.cache.stats()
        counters["pending"] = len(self.coalescer)
        counters["running"] = self.running
        counters["max_batch"] = self.coalescer.max_batch
        counters["max_delay_ms"] = self.coalescer.max_delay_seconds * 1000.0
        counters["max_pending"] = self.max_pending
        if self._refiner is not None:
            counters["refiner"] = self._refiner.stats()
        return counters
