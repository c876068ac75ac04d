"""Progressive (anytime) range answers with verified confidence intervals.

The engine's synopses ship a frozen builder error model
(:class:`repro.core.builders.ErrorPrediction`), yet the serve path has
always been all-or-nothing: synopsis-fast or exact-slow.  This module
adds the middle ground in the style of ProReveal's ``Approximator`` and
the Structure-Aware Sampling line of work — answer *immediately* with
an estimate plus an honest confidence interval, then keep tightening
the interval in the background until the answer is exact:

``synopsis``
    The stage-0 answer: the synopsis estimate plus an exact delta over
    rows appended since the build, with a distribution-free
    Chebyshev/Markov half-width derived from the frozen SSE-per-query
    model (for a :class:`~repro.engine.sharding.ShardedSynopsis`, only
    the at-most-two partially covered boundary shards contribute error,
    so the interval is already tight on shard-aligned ranges).
``boundary``
    Boundary shards are resolved *exactly* from the build-time snapshot
    (one unit per refinement step, streaming a tighter interval after
    each); fully covered interiors keep their frozen exact totals.
``interior``
    The whole clipped range is recomputed from the snapshot's prefix
    sums, guarding against corrupted frozen totals.
``exact``
    A live base-table scan via
    :meth:`~repro.engine.engine.ApproximateQueryEngine.execute_exact`,
    published bitwise.

Two invariants hold by construction:

* **Nesting** — every stage's interval is intersect-clamped into its
  predecessor, so the published chain is monotonically nested no matter
  what the per-stage statistics say (the *coverage* guarantee comes
  from the conservative multiplier; the *nesting* guarantee comes from
  here).
* **Consistency** — a session captures the catalog's answer token
  (:meth:`repro.serving.catalog.CatalogView.answer_token`) at creation
  and re-validates it before every stage; any append / rebuild /
  staleness transition raises
  :class:`~repro.errors.RefinementInvalidatedError` instead of
  publishing an interval about a table state that no longer exists.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.builders import interval_halfwidth
from repro.engine.engine import AggregateQuery, QueryResult
from repro.engine.sharding import ShardedSynopsis
from repro.errors import (
    InvalidParameterError,
    InvalidQueryError,
    RefinementInvalidatedError,
    ServerClosedError,
)

#: Refinement stages, coarsest to exact.  A session may legitimately
#: skip interior stages (e.g. shard-aligned ranges have no boundary
#: units) but published stage ranks never decrease.
STAGES = ("synopsis", "boundary", "interior", "exact")

#: Stage name -> position on the ladder (higher = more refined).
STAGE_RANK = {name: rank for rank, name in enumerate(STAGES)}

#: Relative float slack applied to snapshot-derived interval widths.
#: Snapshot stages compute values via prefix-sum differences while the
#: exact scan sums a masked array; the two orders of float addition can
#: disagree by a few ulps, which must not count as a coverage miss.
_FLOAT_SLACK = 1e-9


def _slack(value: float) -> float:
    return _FLOAT_SLACK * max(1.0, abs(value))


@dataclass(frozen=True)
class IntervalAnswer:
    """One published refinement stage: estimate plus claimed interval.

    ``[lo, hi]`` contains the live exact answer with probability at
    least ``confidence`` (over the builder's sampled query workload);
    ``stage`` names the ladder rung that produced it and ``token`` is
    the catalog consistency token the answer is certified against.
    """

    query: AggregateQuery
    estimate: float
    lo: float
    hi: float
    confidence: float
    stage: str
    token: tuple | None = None
    synopsis_name: str = ""
    synopsis_words: int = 0

    def __post_init__(self) -> None:
        if self.stage not in STAGE_RANK:
            raise InvalidParameterError(
                f"stage must be one of {STAGES}, got {self.stage!r}"
            )
        if self.lo > self.hi:
            raise InvalidParameterError(
                f"interval is inverted: lo={self.lo} > hi={self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def stage_rank(self) -> int:
        return STAGE_RANK[self.stage]

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def as_result(self, exact: float | None = None) -> QueryResult:
        """Adapt to the engine's :class:`QueryResult` envelope."""
        return QueryResult(
            query=self.query,
            estimate=self.estimate,
            exact=exact,
            synopsis_name=self.synopsis_name,
            synopsis_words=self.synopsis_words,
            degradation="progressive",
            interval=(self.lo, self.hi),
            confidence=self.confidence,
        )


class RefinementSession:
    """Synchronous refinement state machine for one query.

    The session is deliberately single-threaded — :meth:`step` advances
    exactly one stage and returns the stage's :class:`IntervalAnswer`
    (or ``None`` when exhausted) — so lifecycle tests can interleave
    catalog mutations between stages deterministically.  The background
    :class:`Refiner` is a thin thread around this machine.
    """

    def __init__(
        self,
        engine,
        query: AggregateQuery,
        *,
        confidence: float = 0.95,
        catalog=None,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise InvalidParameterError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        from repro.serving.catalog import CatalogView

        self.engine = engine
        self.query = query
        self.confidence = float(confidence)
        self.catalog = catalog if catalog is not None else CatalogView(engine)
        key = (query.table, query.column)
        entry = engine._synopses.get(key)
        if entry is None:
            raise InvalidQueryError(
                f"no synopsis built for {query.table}.{query.column}; "
                "the progressive rung needs one to derive its interval"
            )
        self._key = key
        self._entry = entry
        self._stats = entry.statistics
        self.token = self.catalog.answer_token(*key)
        self._clipped = self._stats.clip_range(query.low, query.high)
        self._snapshot_rows = int(self._stats.row_count)
        self._delta: tuple[float, float] | None = None
        self._appended = False
        self._resolved: set[int] = set()
        self._lo: float | None = None
        self._hi: float | None = None
        self._history: list[IntervalAnswer] = []
        self._plan = self._build_plan()
        self._cursor = 0

    # -- planning ------------------------------------------------------
    def _build_plan(self) -> list[tuple[str, int | None]]:
        """The stage schedule: boundary units first, then interior, exact.

        Shard-aligned ranges (and empty clipped ranges) have no boundary
        units to resolve; the plan simply skips ahead — stage ranks in
        the published chain stay non-decreasing either way.
        """
        steps: list[tuple[str, int | None]] = [("synopsis", None)]
        if self._clipped is not None:
            estimator = self._entry.count_estimator
            if isinstance(estimator, ShardedSynopsis):
                low, high = self._clipped
                for shard in estimator.partial_shards(low, high):
                    steps.append(("boundary", shard))
            else:
                # Monolithic synopsis: the whole clipped range is one
                # boundary unit (there is no exact interior to keep).
                steps.append(("boundary", -1))
            steps.append(("interior", None))
        steps.append(("exact", None))
        return steps

    # -- consistency ---------------------------------------------------
    def invalidated(self) -> bool:
        """Has the catalog mutated since this session started?"""
        return self.catalog.answer_token(*self._key) != self.token

    def _check_token(self) -> None:
        current = self.catalog.answer_token(*self._key)
        if current != self.token:
            raise RefinementInvalidatedError(
                f"refinement for {self.query.table}.{self.query.column} "
                f"invalidated: token {self.token} is now {current}"
            )

    # -- append delta --------------------------------------------------
    def _append_delta(self) -> tuple[float, float]:
        """Exact (count, sum) contribution of rows appended post-build.

        ``Table.with_appended`` concatenates new rows after the existing
        ones, so the build-time snapshot is exactly the first
        ``row_count`` values; the suffix is scanned exactly (it is the
        part the synopsis knows nothing about), making every stage's
        estimate track the *live* table even while the entry is stale.
        """
        if self._delta is not None:
            return self._delta
        values = self.engine.table(self.query.table).column(self.query.column)
        suffix = np.asarray(values)[self._snapshot_rows :]
        self._appended = suffix.size > 0
        if not self._appended:
            self._delta = (0.0, 0.0)
            return self._delta
        mask = np.ones(suffix.shape, dtype=bool)
        if self.query.low is not None:
            mask &= suffix >= self.query.low
        if self.query.high is not None:
            mask &= suffix <= self.query.high
        selected = suffix[mask]
        self._delta = (float(mask.sum()), float(selected.sum()))
        return self._delta

    # -- per-stage component values ------------------------------------
    def _estimator(self, kind: str):
        return (
            self._entry.count_estimator
            if kind == "count"
            else self._entry.sum_estimator
        )

    def _model_sse(self, kind: str) -> float:
        prediction = self.engine._predicted_for(self._key, kind)
        return float(prediction.sse_per_query) if prediction is not None else 0.0

    def _synopsis_component(self, kind: str) -> tuple[float, float]:
        """Stage-0 snapshot estimate and half-width for count or sum."""
        if self._clipped is None:
            return 0.0, 0.0
        low, high = self._clipped
        estimator = self._estimator(kind)
        value = float(estimator.estimate(low, high))
        sse = None
        if isinstance(estimator, ShardedSynopsis):
            sse = estimator.boundary_sse(low, high)
        if sse is None:
            sse = self._model_sse(kind)
        return value, interval_halfwidth(sse, self.confidence)

    def _boundary_component(self, kind: str) -> tuple[float, float]:
        """Mixed exact/estimated snapshot value mid-boundary-resolution.

        Fully covered shards contribute their frozen exact totals,
        resolved boundary shards an exact prefix-sum scan of the
        snapshot, and still-unresolved boundary shards their shard
        estimator's estimate plus that shard's SSE model.
        """
        low, high = self._clipped
        estimator = self._estimator(kind)
        if not isinstance(estimator, ShardedSynopsis):
            # Monolithic: the single boundary unit resolves the whole
            # clipped range exactly from the snapshot.
            return float(self._stats.range_totals(kind, low, high)), 0.0
        starts = estimator.starts
        left = int(np.searchsorted(starts, low, side="right") - 1)
        right = int(np.searchsorted(starts, high, side="right") - 1)
        value = 0.0
        sse = 0.0
        for shard in range(left, right + 1):
            first = int(starts[shard])
            last = int(starts[shard + 1]) - 1
            a = max(low, first)
            b = min(high, last)
            if a == first and b == last:
                value += float(estimator.totals[shard])
            elif shard in self._resolved:
                value += float(self._stats.range_totals(kind, a, b))
            else:
                value += float(estimator.estimate(a, b))
                predictions = estimator.shard_predictions
                prediction = (
                    predictions[shard] if predictions is not None else None
                )
                if prediction is not None:
                    sse += float(prediction.sse_per_query)
                else:
                    sse += self._model_sse(kind)
        return value, interval_halfwidth(sse, self.confidence)

    def _interior_component(self, kind: str) -> tuple[float, float]:
        low, high = self._clipped
        return float(self._stats.range_totals(kind, low, high)), 0.0

    # -- interval assembly ---------------------------------------------
    def _avg_range(self) -> tuple[float, float] | None:
        """The values AVG over this query's live range can take.

        ``None`` when the range holds no row -- the snapshot's exact count
        over the clipped range plus the appended rows in range is zero --
        so AVG is the engine's defined-empty 0.0.  Otherwise the query's
        own ``[low, high]`` (infinite where open), tightened while no rows
        were appended to the snapshot's axis values at the ends of the
        clipped range, since every row in range then holds one of them.
        """
        delta_count, _ = self._append_delta()
        clipped = self._clipped
        snapshot_count = (
            0.0
            if clipped is None
            else float(self._stats.range_totals("count", *clipped))
        )
        if snapshot_count + delta_count == 0:
            return None
        if clipped is not None and not self._appended:
            axis = self._stats.values_axis
            return float(axis[clipped[0]]), float(axis[clipped[1]])
        query = self.query
        floor = -math.inf if query.low is None else float(query.low)
        ceiling = math.inf if query.high is None else float(query.high)
        return floor, ceiling

    @staticmethod
    def _avg_interval(
        count_lo: float,
        count_hi: float,
        sum_lo: float,
        sum_hi: float,
        floor: float,
        ceiling: float,
    ) -> tuple[float, float]:
        """Corner hull of SUM/COUNT over the joint interval box.

        For a range known to hold rows (see :meth:`_avg_range`).  Counts
        are integers, so the admissible divisors are the integer points
        of ``[count_lo, count_hi]`` clamped to >= 1.  ``s / c`` is
        monotone in each variable over a fixed-sign box, so the hull is
        attained at the corners.  The interval bounds the mean of the
        rows in range, so each corner is clamped into ``[floor,
        ceiling]``.
        """
        high_count = max(1, math.floor(count_hi + 1e-9))
        low_count = max(1, math.ceil(count_lo - 1e-9))
        candidates = [
            min(max(total / divisor, floor), ceiling)
            for divisor in {low_count, high_count}
            for total in (sum_lo, sum_hi)
        ]
        return min(candidates), max(candidates)

    def _nest(self, lo: float, hi: float) -> tuple[float, float]:
        """Intersect-clamp ``[lo, hi]`` into the previous interval.

        Guarantees nesting and ``lo <= hi`` unconditionally: a later
        stage can *narrow* the chain but never escape it, which is the
        structural property the Hypothesis suite pins.
        """
        if self._lo is None or self._hi is None:
            self._lo, self._hi = lo, hi
        else:
            clamped_lo = min(max(self._lo, lo), self._hi)
            clamped_hi = max(min(self._hi, hi), self._lo)
            self._lo, self._hi = clamped_lo, max(clamped_lo, clamped_hi)
        return self._lo, self._hi

    def _compose(self, stage: str, kind_component) -> IntervalAnswer:
        """Build one stage's answer from its count/sum component function."""
        aggregate = self.query.aggregate
        delta_count, delta_sum = self._append_delta()
        count_point, count_halfwidth = kind_component("count")
        sum_point, sum_halfwidth = kind_component("sum")
        count_point += delta_count
        sum_point += delta_sum
        count_halfwidth += _slack(count_point)
        sum_halfwidth += _slack(sum_point)
        # The appended rows in range are counted exactly: a floor.
        count_lo = max(delta_count, count_point - count_halfwidth)
        count_hi = max(count_lo, count_point + count_halfwidth)
        if aggregate == "count":
            estimate = count_point
            lo, hi = count_lo, count_hi
        elif aggregate == "sum":
            estimate = sum_point
            lo, hi = sum_point - sum_halfwidth, sum_point + sum_halfwidth
        else:  # avg
            bounds = self._avg_range()
            if bounds is None:
                estimate = lo = hi = 0.0
            else:
                floor, ceiling = bounds
                estimate = sum_point / count_point if count_point > 0 else 0.0
                estimate = min(max(estimate, floor), ceiling)
                lo, hi = self._avg_interval(
                    count_lo,
                    count_hi,
                    sum_point - sum_halfwidth,
                    sum_point + sum_halfwidth,
                    floor,
                    ceiling,
                )
                pad = _slack(max(abs(estimate), abs(lo), abs(hi)))
                lo, hi = lo - pad, hi + pad
        lo, hi = self._nest(lo, hi)
        estimate = min(max(estimate, lo), hi)
        return self._answer(stage, estimate, lo, hi)

    def _answer(
        self, stage: str, estimate: float, lo: float, hi: float
    ) -> IntervalAnswer:
        entry = self._entry
        return IntervalAnswer(
            query=self.query,
            estimate=float(estimate),
            lo=float(lo),
            hi=float(hi),
            confidence=self.confidence,
            stage=stage,
            token=self.token,
            synopsis_name=entry.count_estimator.name,
            synopsis_words=entry.synopsis_words,
        )

    # -- the machine ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self._cursor >= len(self._plan)

    def history(self) -> list[IntervalAnswer]:
        return list(self._history)

    def current(self) -> IntervalAnswer | None:
        return self._history[-1] if self._history else None

    def initial(self) -> IntervalAnswer:
        """The stage-0 answer (computing it on first call)."""
        if not self._history:
            answer = self.step()
            assert answer is not None  # plan always starts with synopsis
            return answer
        return self._history[0]

    def step(self) -> IntervalAnswer | None:
        """Advance one stage; ``None`` once the chain is exhausted.

        Re-validates the consistency token first — a catalog mutation
        between stages raises
        :class:`~repro.errors.RefinementInvalidatedError` and freezes
        the session (subsequent calls keep raising).
        """
        if self.done:
            return None
        self._check_token()
        stage, unit = self._plan[self._cursor]
        if stage == "synopsis":
            answer = self._compose(stage, self._synopsis_component)
        elif stage == "boundary":
            if unit is not None and unit >= 0:
                self._resolved.add(unit)
            answer = self._compose(stage, self._boundary_component)
        elif stage == "interior":
            answer = self._compose(stage, self._interior_component)
        else:  # exact
            exact = float(self.engine.execute_exact(self.query))
            lo, hi = self._nest(exact, exact)
            answer = self._answer("exact", exact, lo, hi)
        self._cursor += 1
        self._history.append(answer)
        return answer

    def run_to_exact(self) -> list[IntervalAnswer]:
        """Drive the machine to completion; returns the full chain."""
        while self.step() is not None:
            pass
        return self.history()


def initial_answer(
    engine, query: AggregateQuery, *, confidence: float = 0.95
) -> IntervalAnswer:
    """One-shot stage-0 answer — the engine's ``progressive`` rung."""
    return RefinementSession(engine, query, confidence=confidence).initial()


class ProgressiveHandle:
    """Thread-safe view of one in-flight refinement.

    The submitting thread reads (:meth:`current`, :meth:`result`,
    :meth:`wait_for_stage`) while the :class:`Refiner` worker publishes;
    the history only ever grows and stage ranks never decrease.
    """

    def __init__(self, query: AggregateQuery) -> None:
        self.query = query
        self._condition = threading.Condition()
        self._history: list[IntervalAnswer] = []
        self._done = False
        self._error: Exception | None = None

    # -- publisher side (Refiner worker) -------------------------------
    def publish(self, answer: IntervalAnswer) -> None:
        with self._condition:
            self._history.append(answer)
            self._condition.notify_all()

    def finish(self, error: Exception | None = None) -> None:
        with self._condition:
            self._done = True
            self._error = error
            self._condition.notify_all()

    # -- consumer side -------------------------------------------------
    @property
    def done(self) -> bool:
        with self._condition:
            return self._done

    @property
    def invalidated(self) -> bool:
        with self._condition:
            return isinstance(self._error, RefinementInvalidatedError)

    def current(self) -> IntervalAnswer | None:
        with self._condition:
            return self._history[-1] if self._history else None

    def history(self) -> list[IntervalAnswer]:
        with self._condition:
            return list(self._history)

    def result(self, timeout: float | None = None) -> IntervalAnswer:
        """Block until refinement finishes; returns the final answer.

        Raises the session's error (typically
        :class:`~repro.errors.RefinementInvalidatedError`) if the
        refinement could not complete, and :class:`TimeoutError` if the
        deadline passes first.
        """
        with self._condition:
            if not self._condition.wait_for(lambda: self._done, timeout):
                raise TimeoutError(
                    f"refinement of {self.query} did not finish within {timeout}s"
                )
            if self._error is not None:
                raise self._error
            return self._history[-1]

    def wait_for_stage(
        self, stage: str, timeout: float | None = None
    ) -> IntervalAnswer:
        """Block until an answer at ``stage`` (or beyond) is published."""
        rank = STAGE_RANK[stage]

        def _reached():
            return self._done or (
                self._history and self._history[-1].stage_rank >= rank
            )

        with self._condition:
            if not self._condition.wait_for(_reached, timeout):
                raise TimeoutError(
                    f"refinement of {self.query} did not reach stage "
                    f"{stage!r} within {timeout}s"
                )
            if self._history and self._history[-1].stage_rank >= rank:
                return self._history[-1]
            if self._error is not None:
                raise self._error
            raise RefinementInvalidatedError(
                f"refinement of {self.query} finished before reaching "
                f"stage {stage!r}"
            )


class Refiner:
    """Background worker that drives refinement sessions to exact.

    ``submit`` computes the stage-0 answer inline (the caller always
    gets an immediate interval) and enqueues the session; the worker
    thread streams the remaining stages into the returned
    :class:`ProgressiveHandle`, the stage-aware answer cache, and the
    observability layer (``progressive_stage_seconds`` /
    ``progressive_interval_width`` histograms, a ``refine`` span per
    query).
    """

    def __init__(
        self,
        engine,
        *,
        cache=None,
        catalog=None,
        confidence: float = 0.95,
        max_queue: int = 1024,
    ) -> None:
        from repro.serving.catalog import CatalogView

        if max_queue < 1:
            raise InvalidParameterError(f"max_queue must be >= 1, got {max_queue}")
        self.engine = engine
        self.catalog = catalog if catalog is not None else CatalogView(engine)
        self.cache = cache
        self.confidence = float(confidence)
        self.metrics = self.catalog.metrics
        self.tracer = self.catalog.tracer
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self.counters = {
            "sessions": 0,
            "stages": 0,
            "completed": 0,
            "invalidated": 0,
            "failed": 0,
        }

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Refiner":
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._worker, name="progressive-refiner", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker; queued-but-unstarted sessions are finished
        with a :class:`~repro.errors.ServerClosedError`."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
        while True:
            try:
                _, handle = self._queue.get_nowait()
            except queue.Empty:
                break
            handle.finish(ServerClosedError("refiner stopped before refinement"))

    # -- submission ----------------------------------------------------
    def submit(
        self, query: AggregateQuery, *, confidence: float | None = None
    ) -> ProgressiveHandle:
        """Stage-0 inline, remaining stages in the background."""
        session = RefinementSession(
            self.engine,
            query,
            confidence=self.confidence if confidence is None else confidence,
            catalog=self.catalog,
        )
        handle = ProgressiveHandle(query)
        first = session.initial()
        self._bump("sessions")
        self._bump("stages")
        self._observe(first, 0.0)
        handle.publish(first)
        self._publish_cache(first)
        if not self.running:
            self.start()
        try:
            self._queue.put_nowait((session, handle))
        except queue.Full:
            # Back-pressure: finish the refinement on the caller's
            # thread rather than dropping it or blocking the queue.
            self._refine(session, handle)
        return handle

    # -- worker --------------------------------------------------------
    def _worker(self) -> None:
        while not self._stop_event.is_set():
            try:
                session, handle = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            self._refine(session, handle)

    def _refine(self, session: RefinementSession, handle: ProgressiveHandle) -> None:
        query = session.query
        with self.tracer.span(
            "refine",
            table=query.table,
            column=query.column,
            aggregate=query.aggregate,
        ) as span:
            error: Exception | None = None
            while True:
                started = time.perf_counter()
                try:
                    answer = session.step()
                except RefinementInvalidatedError as invalidated:
                    error = invalidated
                    self._bump("invalidated")
                    self.metrics.counter("progressive_invalidated_total").inc()
                    break
                except Exception as failure:  # pragma: no cover - defensive
                    error = failure
                    self._bump("failed")
                    break
                if answer is None:
                    self._bump("completed")
                    break
                self._bump("stages")
                self._observe(answer, time.perf_counter() - started)
                handle.publish(answer)
                self._publish_cache(answer)
            final = handle.current()
            span.set(
                stages=len(handle.history()),
                final_stage=final.stage if final is not None else "none",
                invalidated=isinstance(error, RefinementInvalidatedError),
            )
            handle.finish(error)

    # -- plumbing ------------------------------------------------------
    def _bump(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1

    def _observe(self, answer: IntervalAnswer, seconds: float) -> None:
        self.metrics.counter(
            "progressive_stages_total", stage=answer.stage
        ).inc()
        self.metrics.histogram(
            "progressive_stage_seconds", stage=answer.stage
        ).observe(seconds)
        self.metrics.histogram(
            "progressive_interval_width", stage=answer.stage
        ).observe(answer.width)

    def _publish_cache(self, answer: IntervalAnswer) -> None:
        if self.cache is None:
            return
        from repro.serving.answer_cache import cache_key

        self.cache.put(
            cache_key(answer.query),
            answer.token,
            answer.as_result(),
            stage_rank=answer.stage_rank,
        )

    def stats(self) -> dict:
        with self._lock:
            snapshot = dict(self.counters)
        snapshot["queued"] = self._queue.qsize()
        snapshot["running"] = self.running
        return snapshot
